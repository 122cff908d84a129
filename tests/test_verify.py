import dataclasses
import json
import math

import numpy as np
import pytest

from triconic import centers, conic, config, kernels, render, triads, verify
from triconic.conic import Conic
from triconic.errors import (
    ConstructionFailed,
    DegenerateMember,
    DegenerateTriangle,
    UnknownProposition,
)
from triconic.geom import BaryCoords, Point2, Triangle
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


def test_random_triangle_redraws_only_degenerate(monkeypatch):
    real = verify.Triangle
    errors = [DegenerateTriangle("collinear"), TypeError("bug")]

    def flaky(*pts):
        if errors:
            raise errors.pop(0)
        return real(*pts)

    monkeypatch.setattr(verify, "Triangle", flaky)
    rng = np.random.default_rng(0)
    # The first draw is degenerate and drawn again; the second raises a
    # programming error, which must surface instead of being redrawn.
    with pytest.raises(TypeError):
        random_triangle(rng)
    assert not errors


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
    "pairwise_intersections": (
        triads, "conic_line_intersection",
        lambda: triads.pairwise_intersections(triads.build_triad(_tri(), "v_hyperbola")),
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
    pid = "P2.1-yiu-vertices"
    prop = verify._BY_ID[pid]
    clean = run_proposition(pid, seed=42, trials=5)
    assert (clean.crashed, clean.errors) == (0, {})
    assert clean.margin == clean.max_residual / clean.threshold
    assert clean.note == ""

    check = _flaky(verify._chk_yiu_vertices, {2: TypeError("injected")})
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
        verify._chk_yiu_vertices,
        {0: ZeroDivisionError("first"), 1: TypeError("a"), 3: TypeError("last")},
    )
    monkeypatch.setitem(verify._BY_ID, pid, dataclasses.replace(prop, run=verify._per_trial(check)))
    r = run_proposition(pid, seed=42, trials=5)
    assert r.crashed == 3
    assert list(r.errors.items()) == [("TypeError", 2), ("ZeroDivisionError", 1)]
    assert r.note == "TypeError: last"
    assert r.witness == check.seen[0]  # the first strict maximum


def _gen_tri_point_reference(rng):
    """The shared driver generator as it was, building both P-triads."""
    while True:
        t = random_triangle(rng)
        p = random_point_near(t, rng)
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


def _interleaved_report(pid, seed):
    """run_proposition's report from one loop that draws and checks each
    trial in turn, P3.8 through kernels.six_point on floats."""
    prop = verify._BY_ID[pid]
    gen = _gen_tri_point_reference if prop.gen is verify._gen_tri_point else prop.gen

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
    + [("P3.8-never-rectangular", seed) for seed in range(1, 9)],
)
def test_two_phase_runner_matches_interleaved_loop(pid, seed):
    r = run_proposition(pid, seed)
    assert r.to_json() == _interleaved_report(pid, seed)
    assert replay_witness(pid, r.witness) == r.max_residual


_RECTANGULAR = kernels.CLASS_RECTANGULAR_HYPERBOLA


@pytest.mark.parametrize("target", [_RECTANGULAR, kernels.CLASS_HYPERBOLA, kernels.CLASS_ELLIPSE])
def test_never_rectangular_batch_matches_scalar_kernel(target, monkeypatch):
    # The class P3.8 flags is swapped for common ones, so the batch must
    # agree with kernels.six_point on floats on flagged trials too.  The
    # hand-made configurations put P on a side, where the construction fails.
    monkeypatch.setattr(kernels, "CLASS_RECTANGULAR_HYPERBOLA", target)
    rng = np.random.default_rng(8)
    cfgs = [verify._gen_tri_point(rng) for _ in range(400)]
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
