import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

from triconic import centers, conic, config, kernels, loci, render, triads, verify
from triconic.conic import Conic
from triconic.errors import (
    ConstructionFailed,
    DegenerateMember,
    DegenerateTriangle,
    UnknownProposition,
)
from triconic.geom import (
    BaryCoords,
    Point2,
    Triangle,
    bary_to_cartesian,
    cartesian_to_bary,
    distance,
    line_through,
    midpoint,
    reflect_about_point,
)
from triconic.verify import (
    MANIFEST,
    PROPOSITION_IDS,
    format_report,
    random_point_near,
    random_triangle,
    replay_witness,
    run_all,
    run_proposition,
)


def test_manifest_is_exhaustive():
    # Four triad sections plus the appendix blocks: 9 + 9 + 10 + 7 + 6 ids.
    by_prefix = {}
    for pid in PROPOSITION_IDS:
        by_prefix.setdefault(pid.split(".")[0].split("-")[0], []).append(pid)
    assert len(by_prefix["P2"]) == 9
    assert len(by_prefix["P3"]) == 9
    assert len(by_prefix["P4"]) == 10
    assert len(by_prefix["P5"]) == 7
    assert len(by_prefix["A1"]) + len(by_prefix["A2"]) + len(by_prefix["A3"]) + len(
        by_prefix["A4"]
    ) + len(by_prefix["A5"]) + len(by_prefix["A6"]) == 6
    assert len(PROPOSITION_IDS) == 41
    assert len(set(PROPOSITION_IDS)) == 41


def test_random_triangle_constraints(rng):
    for _ in range(100):
        t = random_triangle(rng)
        a, b, c = t.sides()
        assert max(a, b, c) / min(a, b, c) <= 50.0

        def ang(u, v, w):
            return math.acos(max(-1, min(1, (v * v + w * w - u * u) / (2 * v * w))))

        assert min(ang(a, b, c), ang(b, c, a), ang(c, a, b)) >= 0.05


def test_random_triangle_redraws_only_degenerate():
    collinear = [0.1, 0.1, 0.5, 0.5, 0.9, 0.9]
    good = [0.1, 0.2, 0.9, 0.15, 0.5, 0.8]
    # A collinear draw is drawn again, and the next draw kept.
    assert verify._tri_floats(iter(collinear + good).__next__) == tuple(good)
    # A programming error in the second draw surfaces instead of being
    # drawn again.
    source = iter(collinear)

    def u():
        for v in source:
            return v
        raise TypeError("bug")

    with pytest.raises(TypeError):
        verify._tri_floats(u)
    assert next(source, None) is None


def _random_triangle_reference(rng):
    """random_triangle on the object path: Triangle decides collinearity."""
    while True:
        pts = rng.uniform(0.0, 1.0, (3, 2))
        try:
            t = Triangle(*(Point2(*p) for p in pts))
        except DegenerateTriangle:
            continue
        a, b, c = t.sides()
        if max(a, b, c) / min(a, b, c) > verify.MAX_ASPECT:
            continue
        if verify._min_angle(a, b, c) < verify.MIN_ANGLE:
            continue
        return t


def _random_point_near_reference(t, rng):
    """random_point_near on the object path: line_through sidelines and
    LineEq.distance_to, drawn with rng.uniform."""
    xs = [t.a.x, t.b.x, t.c.x]
    ys = [t.a.y, t.b.y, t.c.y]
    cx, cy = (min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0
    hx = (max(xs) - min(xs)) / 2.0 * verify.NEAR_EXPAND
    hy = (max(ys) - min(ys)) / 2.0 * verify.NEAR_EXPAND
    guard = 1e-2 * t.scale()
    sidelines = (line_through(t.b, t.c), line_through(t.c, t.a), line_through(t.a, t.b))
    for _ in range(verify.NEAR_DRAWS):
        p = Point2(rng.uniform(cx - hx, cx + hx), rng.uniform(cy - hy, cy + hy))
        if min(ln.distance_to(p) for ln in sidelines) >= guard:
            return p
    raise ConstructionFailed(
        f"no driver point clears the sidelines of {t} in {verify.NEAR_DRAWS} draws"
    )


def _corners(t):
    return (t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y)


def test_float_draws_match_the_object_path():
    # Every generator draws its triangles and drivers through the float
    # core: it must take the object path's decisions on the same doubles
    # and leave the rng where the object path leaves it.
    for seed in range(300):
        ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        t = _random_triangle_reference(ref)
        flat = verify.random_flat_triangle(ref)
        assert verify._tri_floats(rng.random) == _corners(t)
        assert verify.random_flat_triangle(rng) == flat
        for s in (t, flat):
            p = _random_point_near_reference(s, ref)
            assert verify._near_floats(*_corners(s), rng.random) == p.as_tuple()
        assert rng.random() == ref.random()


def test_public_draws_keep_their_streams():
    # The benchmark's fixed loci triangles and the loci workload's seeded
    # ones are drawn through random_triangle and random_flat_triangle;
    # these are their first draws at default_rng(0), then a driver and the
    # next triangle of the same stream.
    rng = np.random.default_rng(0)
    drawn = [random_triangle(rng), random_triangle(rng), verify.random_flat_triangle(rng)]
    p = random_point_near(drawn[0], rng)
    drawn.append(random_triangle(rng))
    assert [[v.hex() for v in _corners(t)] for t in drawn] == [
        ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5",
         "0x1.0ec9ed84d0bc0p-6", "0x1.a064f4f059bcap-1", "0x1.d354b2f34c803p-1"],
        ["0x1.b6fdb17ec9cdep-1", "0x1.13220e71bcf20p-5", "0x1.7595660f879fap-1",
         "0x1.67be224ec5c90p-3", "0x1.b9f296742db6fp-1", "0x1.153a67b20b50fp-1"],
        ["0x0.0p+0", "0x0.0p+0", "0x1.0e7fea7ace754p-1",
         "0x0.0p+0", "0x1.20b97dfd4fa76p-2", "0x1.644af86988ffep-6"],
        ["0x1.4b5c6c750d1dcp-1", "0x1.3b13c1e083bccp-1", "0x1.88e2c4cf0e646p-2",
         "0x1.fe924cfaebfdep-1", "0x1.f6300cad9c278p-1", "0x1.5eff5be6c250ep-1"],
    ]
    assert [p.x.hex(), p.y.hex()] == ["-0x1.39c4f5944a680p-3", "0x1.8a7c2325acfd0p-1"]


def test_guard_drops_candidates_in_order(monkeypatch):
    # Random drivers clear the sidelines by 1e-2 of the scale, so the
    # member guard never fires on them; here two candidates in three put P
    # where a member collapses.  The batch must keep the candidates that
    # build both P-triads, in order, drawing more until it has n.
    real = verify._near_floats

    def near(ax, ay, bx, by, cx, cy, u):
        px, py = real(ax, ay, bx, by, cx, cy, u)
        near.k += 1
        if near.k % 3 == 1:  # on side BC: a P-ellipse member collapses
            return bx + 0.25 * (cx - bx), by + 0.25 * (cy - by)
        if near.k % 3 == 2:  # on BC's perpendicular bisector: a P-hyperbola member
            return (bx + cx) / 2.0 + (by - cy), (by + cy) / 2.0 + (cx - bx)
        return px, py

    near.k = 0
    monkeypatch.setattr(verify, "_near_floats", near)
    batch = verify._gen_tri_point(np.random.default_rng(4), 300)

    near.k = 0
    u = verify._doubles(np.random.default_rng(4)).__next__
    ref, faults = [], Counter()
    while len(ref) < 300:
        tri = verify._tri_floats(u)
        p = Point2(*near(*tri, u))
        t = Triangle(Point2(*tri[:2]), Point2(*tri[2:4]), Point2(*tri[4:]))
        try:
            for kind in ("p_ellipse", "p_hyperbola"):
                triads.build_triad(t, kind, p)
        except DegenerateMember:
            faults[kind] += 1
            continue
        ref.append({"triangle": verify._tri_cfg(t), "p": [p.x, p.y]})
    assert batch == ref
    assert faults["p_ellipse"] > 100 and faults["p_hyperbola"] > 100


def test_hot_draws_build_no_objects(monkeypatch):
    counts = Counter()
    for name in ("Triangle", "Point2"):

        def counted(*args, _real=getattr(verify, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(verify, name, counted)
    rng = np.random.default_rng(3)
    assert len(verify._gen_tri_point(rng, 2000)) == 2000
    assert len(verify._gen_tri(rng, 200)) == 200
    assert counts == {}
    # The counters are live: the public draw builds its accepted triangle.
    random_triangle(rng)
    assert counts == {"Triangle": 1, "Point2": 3}


def test_random_point_near_gives_up_on_a_thin_triangle():
    # No point of the doubled bounding box clears the sidelines by 1e-2 of
    # the scale; the draw raises after NEAR_DRAWS tries instead of looping.
    t = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.4, 1e-3))
    rng = np.random.default_rng(0)
    with pytest.raises(ConstructionFailed, match="clears the sidelines"):
        random_point_near(t, rng)
    # It took exactly NEAR_DRAWS draws of two coordinates each.
    rest = np.random.default_rng(0)
    rest.uniform(size=2 * verify.NEAR_DRAWS)
    assert rng.uniform() == rest.uniform()


def _raise_type_error(*args, **kwargs):
    raise TypeError("bug")


def _tri():
    return Triangle(Point2(0.1, 0.2), Point2(1.3, 0.15), Point2(0.5, 1.1))


def _lines():
    return Conic.from_coeffs([1.0, 0.0, -1.0, 0.0, 0.0, 0.0])


# (module holding the name, name to break, call that reaches its handler)
_HANDLERS = {
    "deg8_root_on_ray": (
        verify, "parabola_deg8_V",
        lambda: verify._deg8_root_on_ray(Point2(-1.0, 0.0), Point2(1.0, 0.0), 1.2),
    ),
    "phyp_parabola_root": (
        verify, "phyp_parabola_condition", lambda: verify._phyp_parabola_root(_tri(), 0.7),
    ),
    "conic_samples": (
        render, "split_degenerate", lambda: render._conic_samples(_lines(), (-1, 1, -1, 1)),
    ),
    "cevian_triangle": (
        centers, "bary_to_cartesian",
        lambda: centers.cevian_triangle(_tri(), BaryCoords(1.0, 1.0, 1.0)),
    ),
    "anticevian_triangle": (
        centers, "bary_to_cartesian",
        lambda: centers.anticevian_triangle(_tri(), BaryCoords(1.0, 1.0, 1.0)),
    ),
    "conic_conic_intersections": (
        conic, "split_degenerate",
        lambda: conic.conic_conic_intersections(
            *(conic.conic_from_foci(m) for m in triads.build_triad(_tri(), "v_hyperbola").members[1:])
        ),
    ),
}


@pytest.mark.parametrize("handler", sorted(_HANDLERS))
def test_programming_errors_surface_through_handlers(handler, monkeypatch):
    # Each handler catches only the library errors its call can raise; an
    # injected TypeError must not turn into a nan, an empty result or a
    # library error.
    module, name, call = _HANDLERS[handler]
    monkeypatch.setattr(module, name, _raise_type_error)
    with pytest.raises(TypeError):
        call()


def test_draws_run_no_check_but_where_only_the_check_decides(monkeypatch):
    # A draw that runs its check, or the check's root search, does the
    # check's work twice.  Only A3's family (a centered X3-anticevian
    # six-point conic) and the rays of P2.8 and P5.7 that cross their loci
    # need it.
    calls = Counter()
    for name in ("check_appendix", "_sextic_root_on_vertical", "bisect_sign_changes"):

        def counted(*args, _real=getattr(verify, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    callers = {}
    for prop in MANIFEST:
        before = calls.copy()
        prop.draw(verify._prop_rng(prop.prop_id, 42), prop.default_trials)
        callers[prop.prop_id] = set(calls - before)
    assert {pid: names for pid, names in callers.items() if names} == {
        "A3-x3prime-center": {"check_appendix"},
        "P2.8-type-regions": {"bisect_sign_changes"},
        "P5.7-parabola-condition": {"bisect_sign_changes"},
    }
    # The counters are live: the checks of A1 and P4.6 reach them.
    calls.clear()
    for pid in ("A1-aellipse-polynomial", "P4.6-halftangent-sextic"):
        prop = verify._BY_ID[pid]
        prop.run(prop.draw(verify._prop_rng(pid, 42), 1))
    assert set(calls) == {"check_appendix", "_sextic_root_on_vertical", "bisect_sign_changes"}


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_appendix_generator_skips_rank_deficient_configurations(seed):
    # At these seeds the A3 generator draws triangles whose five-point fit
    # is rank deficient; it must draw again instead of crashing the check.
    r = run_proposition("A3-x3prime-center", seed=seed)
    assert r.passed, r.note
    assert math.isfinite(r.max_residual)


def test_run_proposition_example():
    r = run_proposition("P2.1-yiu-vertices", seed=42, trials=50)
    assert r.passed
    assert r.max_residual <= 1e-8
    assert r.witness is not None


def test_unknown_proposition():
    with pytest.raises(UnknownProposition):
        run_proposition("P9.9-nope", seed=1)


def test_witness_replay():
    for pid in ("P2.1-yiu-vertices", "P5.3-equal-areas", "P4.5-soddy-intersections"):
        r = run_proposition(pid, seed=7, trials=20)
        assert r.passed
        replayed = replay_witness(pid, r.witness)
        assert replayed == pytest.approx(r.max_residual, abs=1e-12)


def test_negative_control_tolerance():
    # Forcing the global tolerance to 1e-20 must make the suite fail: the
    # sideline-membership predicates inside the Carnot check reject honest
    # configurations, proving the checks are live.
    old = config.get_tol()
    try:
        config.set_tol(1e-20)
        r = run_proposition("P2.1-yiu-vertices", seed=42, trials=5)
        assert not r.passed
    finally:
        config.set_tol(old)


def test_chords_x20_reports_its_residual(monkeypatch):
    # P2.4 returns its worst chord distance over the circumdiameter, not a
    # flag: with X20 moved by 1e-6 of the circumdiameter, the check reads
    # the largest distance of a chord to the moved point.
    t = _tri()
    diam = 2.0 * centers.circumcircle(t).radius
    x20 = centers.classic_center(t, "X20")
    moved = Point2(x20.x + 1e-6 * diam, x20.y)
    # The check reads X20 as kernels.cyclic(kernels.center_x20, a, b, c) of
    # the kernel's sides; this triangle is scalene, so each call's first
    # side tells which coordinate of the moved point it asks for.
    cfg = {"triangle": verify._tri_cfg(t)}
    sides = kernels._sides_deltas(*verify._cfg_args([cfg], kernels.KIND_V_ELLIPSE))[0]
    coords = dict(zip((float(v[0]) for v in sides), cartesian_to_bary(t, moved).as_tuple()))
    monkeypatch.setattr(kernels, "center_x20", lambda a, b, c: np.full_like(a, coords[float(a[0])]))
    pairs = triads.pairwise_intersections(triads.build_triad(t, "v_ellipse"))
    expected = max(line_through(*pts[:2]).distance_to(moved) for pts in pairs) / diam
    assert 1e-8 < expected <= 1e-6
    assert verify._chk_pair_chords_x20([cfg]) == [pytest.approx(expected, rel=1e-9)]


def _flaky(check, crash_at):
    """check, raising the exceptions of crash_at (trial index -> exception)
    in those trials; the configurations it saw are kept in .seen."""

    def run(cfg):
        run.seen.append(cfg)
        exc = crash_at.get(len(run.seen) - 1)
        if exc is not None:
            raise exc
        return check(cfg)

    run.seen = []
    return run


def test_crashed_trials_are_counted_by_type(monkeypatch):
    pid = "P4.5-soddy-intersections"
    prop = verify._BY_ID[pid]
    clean = run_proposition(pid, seed=42, trials=5)
    assert (clean.crashed, clean.errors) == (0, {})
    assert clean.margin == clean.max_residual / clean.threshold
    assert clean.note == ""

    check = _flaky(verify._chk_soddy_intersections, {2: TypeError("injected")})
    monkeypatch.setitem(verify._BY_ID, pid, dataclasses.replace(prop, run=verify._per_trial(check)))
    r = run_proposition(pid, seed=42, trials=5)
    assert r.crashed == 1
    assert r.errors == {"TypeError": 1}
    assert r.note == "TypeError: injected"
    assert (r.max_residual, r.margin, r.passed) == (math.inf, math.inf, False)
    assert r.witness == check.seen[2]
    js = r.to_json()
    assert (js["crashed"], js["errors"], js["margin"]) == (1, {"TypeError": 1}, math.inf)

    # Several types: counted apart, keys sorted, the note from the last crash.
    check = _flaky(
        verify._chk_soddy_intersections,
        {0: ZeroDivisionError("first"), 1: TypeError("a"), 3: TypeError("last")},
    )
    monkeypatch.setitem(verify._BY_ID, pid, dataclasses.replace(prop, run=verify._per_trial(check)))
    r = run_proposition(pid, seed=42, trials=5)
    assert r.crashed == 3
    assert list(r.errors.items()) == [("TypeError", 2), ("ZeroDivisionError", 1)]
    assert r.note == "TypeError: last"
    assert r.witness == check.seen[0]  # the first strict maximum


def test_a_crashed_batch_draw_fails_every_trial(monkeypatch):
    pid = "P2.1-yiu-vertices"

    def draw(rng, n):
        raise TypeError("injected")

    monkeypatch.setitem(verify._BY_ID, pid, dataclasses.replace(verify._BY_ID[pid], draw=draw))
    r = run_proposition(pid, seed=42, trials=5)
    assert (r.crashed, r.errors, r.note) == (5, {"TypeError": 5}, "TypeError: injected")
    assert (r.witness, r.passed) == (None, False)


def _gen_tri_reference(rng):
    """One _gen_tri configuration on the object path."""
    return {"triangle": verify._tri_cfg(_random_triangle_reference(rng))}


def _gen_tri_point_reference(rng):
    """One _gen_tri_point configuration on the object path, building both
    P-triads."""
    while True:
        t = _random_triangle_reference(rng)
        p = _random_point_near_reference(t, rng)
        try:
            triads.build_triad(t, "p_ellipse", p)
            triads.build_triad(t, "p_hyperbola", p)
        except DegenerateMember:
            continue
        return {"triangle": verify._tri_cfg(t), "p": [p.x, p.y]}


def _never_rectangular_reference(cfg):
    """P3.8's check of one configuration through kernels.six_point on floats."""
    (ax, ay), (bx, by), (cx, cy) = cfg["triangle"]
    code = kernels.six_point(ax, ay, bx, by, cx, cy, kernels.KIND_P_ELLIPSE, *cfg["p"])[0]
    if code == kernels.CLASS_FAILED:
        return 0.0
    return 1.0 if code == kernels.CLASS_RECTANGULAR_HYPERBOLA else 0.0


_REFERENCE_DRAWS = {
    verify._gen_tri: _gen_tri_reference,
    verify._gen_tri_point: _gen_tri_point_reference,
}


def _interleaved_report(pid, seed):
    """run_proposition's report from one loop that draws and checks each
    trial in turn: the block draws through their object-path references,
    the per-draw families one configuration at a time, and P3.8 through
    kernels.six_point on floats."""
    prop = verify._BY_ID[pid]

    def gen(rng):
        if prop.draw in _REFERENCE_DRAWS:
            return _REFERENCE_DRAWS[prop.draw](rng)
        (d,) = prop.draw(rng, 1)
        if isinstance(d, Exception):
            raise d
        return d

    def check(cfg):
        if pid == "P3.8-never-rectangular":
            return _never_rectangular_reference(cfg)
        (r,) = prop.run([cfg])
        if isinstance(r, Exception):
            raise r
        return r

    rng = verify._prop_rng(pid, seed)
    worst, witness, note, errors = -1.0, None, "", {}
    for _ in range(prop.default_trials):
        cfg = None
        try:
            cfg = gen(rng)
            r = check(cfg)
        except Exception as exc:
            r = math.inf
            note = f"{type(exc).__name__}: {exc}"
            errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
        if r > worst:
            worst, witness = r, cfg
    bound = verify.EVIDENCE_BOUND if prop.evidence else prop.threshold
    return {
        "id": pid,
        "title": prop.title,
        "pass": bool(worst <= bound),
        "max_residual": float(worst),
        "threshold": prop.threshold,
        "trials": prop.default_trials,
        "evidence": prop.evidence,
        "witness": witness,
        "note": note,
        "crashed": sum(errors.values()),
        "errors": dict(sorted(errors.items())),
        "margin": float(worst) / bound,
    }


@pytest.mark.parametrize(
    "pid,seed",
    [(pid, 42) for pid in PROPOSITION_IDS]
    + [
        (pid, seed)
        for pid in (
            "P2.1-yiu-vertices",
            "P2.6-degenerate-iff-right",
            "P3.4-degenerate-on-circumcircle",
            "P3.8-never-rectangular",
            "P5.3-equal-areas",
            "P5.7-parabola-condition",
        )
        for seed in range(1, 9)
    ],
)
def test_two_phase_runner_matches_interleaved_loop(pid, seed):
    r = run_proposition(pid, seed)
    assert r.to_json() == _interleaved_report(pid, seed)
    assert replay_witness(pid, r.witness) == r.max_residual


@pytest.mark.parametrize("pid", ["P3.8-never-rectangular", "P5.3-equal-areas"])
def test_crashed_driver_draws_keep_their_trials(pid, monkeypatch):
    # With one try per driver, about 7% of the candidates give up with
    # ConstructionFailed: each takes one trial, in the batch draw as in the
    # interleaved loop.
    monkeypatch.setattr(verify, "NEAR_DRAWS", 1)
    r = run_proposition(pid, 42)
    assert r.crashed > 0
    assert r.errors == {"ConstructionFailed": r.crashed}
    assert r.to_json() == _interleaved_report(pid, 42)


_RECTANGULAR = kernels.CLASS_RECTANGULAR_HYPERBOLA


@pytest.mark.parametrize("target", [_RECTANGULAR, kernels.CLASS_HYPERBOLA, kernels.CLASS_ELLIPSE])
def test_never_rectangular_batch_matches_scalar_kernel(target, monkeypatch):
    # The class P3.8 flags is swapped for common ones, so the batch must
    # agree with kernels.six_point on floats on flagged trials too.  The
    # hand-made configurations put P on a side, where the construction fails.
    monkeypatch.setattr(kernels, "CLASS_RECTANGULAR_HYPERBOLA", target)
    rng = np.random.default_rng(8)
    cfgs = verify._gen_tri_point(rng, 400)
    t = _tri()
    for u in (0.25, 0.5):
        for f1, f2 in ((t.b, t.c), (t.c, t.a)):
            q = [f1.x + u * (f2.x - f1.x), f1.y + u * (f2.y - f1.y)]
            cfgs.append({"triangle": verify._tri_cfg(t), "p": q})
    batch = verify._chk_never_rectangular(cfgs)
    assert batch == [_never_rectangular_reference(cfg) for cfg in cfgs]
    assert 0.0 in batch
    assert (1.0 in batch) == (target != _RECTANGULAR)
    r = run_proposition("P3.8-never-rectangular", seed=3, trials=300)
    assert replay_witness("P3.8-never-rectangular", r.witness) == r.max_residual


def test_determinism_same_seed():
    r1 = run_all(seed=11, trials=3)
    r2 = run_all(seed=11, trials=3)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_thread_count_independence():
    r1 = run_all(seed=5, trials=2, threads=1)
    r8 = run_all(seed=5, trials=2, threads=8)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r8, sort_keys=True)


def test_format_report_lines():
    r = run_all(seed=3, trials=1)
    text = format_report(r)
    assert len(text.splitlines()) == len(MANIFEST) + 2
    for pid in PROPOSITION_IDS:
        assert pid in text


def _right_angle_reference(cfg):
    """P2.6 on one configuration with the float scan and Brent."""
    (ax, ay), (bx, by) = cfg["ab"]
    A, B = Point2(ax, ay), Point2(bx, by)
    m = midpoint(A, B)
    r = distance(A, B) / 2.0
    d = Point2(math.cos(cfg["angle"]), math.sin(cfg["angle"]))

    def ray(s):
        return m.x + s * r * d.x, m.y + s * r * d.y

    def detn(s):
        return verify._detn_v_ellipse(A.x, A.y, B.x, B.y, *ray(s))

    s = next(loci.bisect_sign_changes(detn, 0.8, 1.2, f_grid=detn), None)
    if s is None:
        return 1.0
    aa, bb, cc = Triangle(A, B, Point2(*ray(s))).sides()
    pyth = min(
        abs(aa * aa + bb * bb - cc * cc),
        abs(bb * bb + cc * cc - aa * aa),
        abs(cc * cc + aa * aa - bb * bb),
    ) / max(aa, bb, cc) ** 2
    return max(pyth, abs(detn(1.0)) * 100.0)


def _circumcircle_reference(cfg):
    """P3.4 on one configuration with the float scan and Brent."""
    t = verify._cfg_tri(cfg)
    cc = centers.circumcircle(t)
    d = Point2(math.cos(cfg["angle"]), math.sin(cfg["angle"]))

    def detn(s):
        return kernels.six_point(
            t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y, kernels.KIND_P_ELLIPSE,
            cc.center.x + s * cc.radius * d.x, cc.center.y + s * cc.radius * d.y,
        )[1]

    on = abs(detn(1.0))
    crossings = list(loci.bisect_sign_changes(detn, 0.97, 1.03, f_grid=detn))
    if not crossings:
        return 1.0
    return max(on, min(abs(s - 1.0) for s in crossings) * 1e-3)


def _parabola_reference(cfg):
    """P5.7 on one configuration with the float scans and Brent."""
    t = verify._cfg_tri(cfg)
    cc = centers.circumcircle(t)
    d = Point2(math.cos(cfg["angle"]), math.sin(cfg["angle"]))
    found = verify._phyp_parabola_root(t, cfg["angle"])
    if found is None:
        return 1.0

    def discn(s):
        return kernels.six_point(
            t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y, kernels.KIND_P_HYPERBOLA,
            cc.center.x + s * cc.radius * d.x, cc.center.y + s * cc.radius * d.y,
        )[2]

    s_disc = next(
        loci.bisect_sign_changes(discn, found - 2e-3, found + 2e-3, steps=40, f_grid=discn), None
    )
    if s_disc is None:
        return 1.0
    worst = max(abs(s_disc - found) * 1e-3, abs(discn(s_disc)))
    return max(worst, verify._sideline_extension_residual(t, cfg["u"]))


@pytest.mark.parametrize(
    "pid,reference",
    [
        ("P2.6-degenerate-iff-right", _right_angle_reference),
        ("P3.4-degenerate-on-circumcircle", _circumcircle_reference),
        ("P5.7-parabola-condition", _parabola_reference),
    ],
)
@pytest.mark.parametrize("seed", [42, 3])
def test_batch_scans_match_float_scans(pid, reference, seed):
    # The batch scans give each trial the residual of one float scan per
    # trial, polished by the float Brent, bit for bit.
    prop = verify._BY_ID[pid]
    cfgs = prop.draw(verify._prop_rng(pid, seed), prop.default_trials)
    assert prop.run(cfgs) == [reference(cfg) for cfg in cfgs]


def test_phyp_parabola_scan_grid_matches_scalar_condition():
    # The P5.7 scan reads its whole grid in one array call; Brent's polish
    # and witness replay need those values bit for bit the scalar ones,
    # with the sides and differences of the triad rule (kernels._sides_deltas).
    from triconic.loci import _lambdas, bisect_sign_changes, phyp_parabola_condition

    rng = np.random.default_rng(5)
    grid = [0.08 + (2.4 - 0.08) * k / 300 for k in range(301)]
    for _ in range(10):
        t = random_triangle(rng)
        cc = centers.circumcircle(t)
        for ang in rng.uniform(0.0, 2 * math.pi, 5):
            dx, dy = math.cos(ang), math.sin(ang)
            ray = [Point2(cc.center.x + s * cc.radius * dx, cc.center.y + s * cc.radius * dy)
                   for s in grid]
            sides = kernels._sides_deltas(*triads._kernel_args(t, "p_hyperbola", ray[0]))[0]
            scalar = [phyp_parabola_condition(*sides, *_lambdas(t, p)) for p in ray]
            cond = verify._phyp_parabola_on_ray(t, ang)
            assert cond(np.array(grid)).tolist() == scalar
            assert [cond(s) for s in grid] == scalar
            assert verify._phyp_parabola_root(t, ang) == next(
                bisect_sign_changes(cond, 0.08, 2.4, steps=300), None
            )


# The trial-by-trial float checks P2.1, P2.3, P2.4, P2.5, P4.1 and P4.2 ran
# before they became array calls, on the object path, kept as references.


def _yiu_vertices_reference(cfg):
    t = verify._cfg_tri(cfg)
    tr = triads.build_triad(t, "v_ellipse")
    verts = triads.triad_vertices(tr)
    tang = centers.excircle_tangency_points(t)
    s = t.scale()
    res = max(distance(v, q) / s for v, q in zip(verts, tang))
    mids = (midpoint(t.b, t.c), midpoint(t.c, t.a), midpoint(t.a, t.b))
    res = max(res, max(distance(m.center, q) / s for m, q in zip(tr.members, mids)))
    rep = triads.six_point_conic(tr)
    return max(res, rep.residual6)


def _tangent_excentral_reference(cfg):
    t = verify._cfg_tri(cfg)
    tr = triads.build_triad(t, "v_ellipse")
    exc = [centers.classic_center(t, f"excenter{label}") for label in "ABC"]
    worst = 0.0
    for idx, vertex in enumerate(t.vertices()):
        others = [exc[k] for k in range(3) if k != idx]
        side = line_through(others[0], others[1])
        con = conic.conic_from_foci(tr.members[idx])
        worst = max(worst, conic.residual(con, vertex), abs(conic.tangency_discriminant(con, side)))
    return worst


def _chords_x20_reference(cfg):
    t = verify._cfg_tri(cfg)
    inters = triads.pairwise_intersections(triads.build_triad(t, "v_ellipse"))
    diam = 2.0 * (t.side_a * t.side_b * t.side_c) / (4.0 * t.area)
    x20 = centers.classic_center(t, "X20")
    worst = 0.0
    for pts, label in zip(inters, "ABC"):
        if len(pts) < 2:
            return math.inf
        chord = line_through(pts[0], pts[1])
        for q in (centers.classic_center(t, f"excenter{label}"), x20):
            worst = max(worst, chord.distance_to(q) / diam)
    if len(inters[0]) != 2:
        return max(worst, 1.0)
    lco = verify._vell_chord_line_bary(*t.sides())
    m = max(abs(v) for v in lco)
    for q in inters[0]:
        u = cartesian_to_bary(t, q).normalized()
        worst = max(worst, abs(lco[0] * u.u + lco[1] * u.v + lco[2] * u.w) / m)
    return worst


def _right_triangle_x20_reference(cfg):
    t = verify._cfg_tri(cfg)
    x20, x4, x3 = (centers.classic_center(t, cid) for cid in ("X20", "X4", "X3"))
    worst = distance(x20, reflect_about_point(x4, x3)) / t.scale()
    for m in triads.build_triad(t, "v_ellipse").members:
        worst = max(worst, conic.residual(conic.conic_from_foci(m), x20))
    return worst


def _vhyp_vertex_barys_reference(cfg):
    t = verify._cfg_tri(cfg)
    tr = triads.build_triad(t, "v_hyperbola")
    if tr.has_degenerate_member():
        return 0.0
    verts = triads.triad_vertices(tr)
    s = t.scale()
    worst = 0.0
    for i, (side, lam) in enumerate(zip(t.sides(), tr.deltas)):
        b1, b2 = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        j, k = (i + 1) % 3, (i + 2) % 3
        b1[j], b1[k] = side + lam, side - lam
        b2[j], b2[k] = side - lam, side + lam
        p1 = bary_to_cartesian(t, BaryCoords(*b1))
        p2 = bary_to_cartesian(t, BaryCoords(*b2))
        worst = max(worst, distance(p1, verts[2 * i]) / s, distance(p2, verts[2 * i + 1]) / s)
    return worst


def _intouch_extouch_reference(cfg):
    t = verify._cfg_tri(cfg)
    tr = triads.build_triad(t, "v_hyperbola")
    if tr.has_degenerate_member():
        return 0.0
    verts = triads.triad_vertices(tr)
    ins, exts = centers.intouch_extouch(t)
    s = t.scale()
    worst = 0.0
    for i in range(3):
        worst = max(worst, distance(verts[2 * i], exts[i]) / s)
        worst = max(worst, distance(verts[2 * i + 1], ins[i]) / s)
    a1, a2 = triads.equal_area_check(tr)
    return max(worst, abs(a1 - a2) / max(a1, a2))


_TRIANGLE_REFERENCES = {
    "P2.1-yiu-vertices": _yiu_vertices_reference,
    "P2.3-tangent-excentral": _tangent_excentral_reference,
    "P2.4-chords-x20": _chords_x20_reference,
    "P2.5-right-triangle-x20": _right_triangle_x20_reference,
    "P4.1-vhyp-vertex-barycentrics": _vhyp_vertex_barys_reference,
    "P4.2-intouch-extouch": _intouch_extouch_reference,
}


def _reference_run(reference, cfgs):
    out = []
    for cfg in cfgs:
        try:
            out.append(reference(cfg))
        except Exception as exc:
            out.append(exc)
    return out


def _assert_residuals_agree(batch, ref):
    # The batch runs take sides and distances as sqrt(x*x + y*y)
    # (kernels._hypot), where the float checks took math.hypot, and P2.3 and
    # P2.5 evaluate the members in focal_pairs' frame: residuals at rounding
    # level differ absolutely, larger ones only relatively.
    assert [type(r) for r in batch] == [type(r) for r in ref]
    for b, r in zip(batch, ref):
        if isinstance(r, Exception):
            continue
        if r > 1e-14:
            assert b == pytest.approx(r, rel=1e-6)
        else:
            assert b == pytest.approx(r, abs=1e-14)


@pytest.mark.parametrize("pid", sorted(_TRIANGLE_REFERENCES))
@pytest.mark.parametrize("seed", [42, 3])
def test_batch_triangle_checks_match_float_checks(pid, seed):
    prop = verify._BY_ID[pid]
    cfgs = prop.draw(verify._prop_rng(pid, seed), prop.default_trials)
    ref = _reference_run(_TRIANGLE_REFERENCES[pid], cfgs)
    assert not any(isinstance(r, Exception) for r in ref)
    _assert_residuals_agree(prop.run(cfgs), ref)


@pytest.mark.parametrize("pid", sorted(_TRIANGLE_REFERENCES))
def test_batch_triangle_checks_crash_where_float_checks_do(pid):
    # At a tolerance of 1e-20, the sideline test of P2.1's six-point conic
    # rejects honest vertices (PointOffSideline) in most trials, and only
    # there.  The isosceles triangles give P4.1 and P4.2 a
    # perpendicular-bisector member, which they read as 0.0.  (These are not
    # right triangles, so P2.5's residuals, on different scales in the two
    # frames, are not compared.)
    cfgs = verify._gen_tri(np.random.default_rng(9), 30)
    cfgs += [{"triangle": [[0.0, 0.9], [-0.4, 0.0], [0.4, 0.0]]},
             {"triangle": [[0.3, 0.2], [0.3, 1.1], [-0.5, 0.65]]}]
    old = config.get_tol()
    try:
        config.set_tol(1e-20)
        batch = verify._BY_ID[pid].run(cfgs)
        ref = _reference_run(_TRIANGLE_REFERENCES[pid], cfgs)
    finally:
        config.set_tol(old)
    assert [type(r) for r in batch] == [type(r) for r in ref]
    crashed = sum(isinstance(r, Exception) for r in ref)
    assert crashed > 10 if pid == "P2.1-yiu-vertices" else crashed == 0
    if pid.startswith("P4."):
        assert batch[-2:] == [0.0, 0.0]


def test_circumcircle_residual_reads_the_crossing_nearest_the_circle():
    # P3.4's ray can cross an interior branch of the degeneracy locus before
    # the circumcircle: the crossing nearest s = 1 decides, not the first.
    assert verify._circumcircle_residual((0.0, [0.985, 1.0 + 1e-7])) == pytest.approx(1e-10, rel=1e-6)
    assert verify._circumcircle_residual((0.0, [1.0 - 1e-7, 1.02])) == pytest.approx(1e-10, rel=1e-6)
