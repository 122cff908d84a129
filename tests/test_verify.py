import dataclasses
import functools
import json
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from triconic import centers, conic, config, kernels, loci, render, triads, verify
from triconic.conic import Conic
from triconic.errors import (
    ConstructionFailed,
    DegenerateResult,
    DegenerateTriangle,
    NonFiniteResidual,
    NotConverged,
    RankDeficient,
    UnknownProposition,
)
from triconic.geom import (
    BaryCoords,
    LineEq,
    Point2,
    Triangle,
    bary_to_cartesian,
    distance,
    line_through,
    midpoint,
    signed_area,
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

import reference_checks
from reference_checks import (
    cartesian_to_bary,
    check_appendix,
    circle_pair_residual,
    framed,
    pstar_residual,
    reflect_about_point,
    x55_reference,
)


def _rows(cfgs) -> list:
    """The configuration dicts of a ConfigTable, in order."""
    return [cfgs.row(i) for i in range(cfgs.n)]


def _trials(drawn) -> list:
    """A draw's (table, failures) as one entry a trial: its configuration
    dict, or the exception its draw failed with."""
    cfgs, failed = drawn
    rows = iter(_rows(cfgs))
    return [failed[i] if i in failed else next(rows) for i in range(cfgs.n + len(failed))]


def _drawn(prop, seed, n=None) -> list:
    """_trials of the proposition's draw at seed, of n or its default trials."""
    return _trials(prop.draw(verify._prop_rng(prop.prop_id, seed), n or prop.default_trials))


def _results(run, cfgs) -> list:
    """run (a proposition's, or a batch check) on the configuration dicts
    cfgs, through their ConfigTable: one residual or exception a trial,
    under the runner's floating-point policy (numpy's warnings off)."""
    with np.errstate(all="ignore"):
        res, errs = run(verify.ConfigTable.from_dicts(cfgs))
    return [errs.get(i, r) for i, r in enumerate(res.tolist())]


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
        assert _min_angle(a, b, c) >= 0.05


def _stub_rng(values):
    """An rng whose random(shape) gives the next values of values, and
    raises TypeError when they run out."""
    source = iter(values)

    def random(shape):
        block = [v for _, v in zip(range(math.prod(shape)), source)]
        if len(block) < math.prod(shape):
            raise TypeError("bug")
        return np.reshape(block, shape)

    return SimpleNamespace(random=random), source


def test_random_triangle_redraws_only_degenerate():
    collinear = [0.1, 0.1, 0.5, 0.5, 0.9, 0.9]
    good = [0.1, 0.2, 0.9, 0.15, 0.5, 0.8]
    # A collinear draw is drawn again, and the next draw kept.
    rng, source = _stub_rng(collinear + good)
    assert _corners(random_triangle(rng)) == tuple(good)
    assert next(source, None) is None
    # A programming error in the second draw surfaces instead of being
    # drawn again.
    rng, source = _stub_rng(collinear)
    with pytest.raises(TypeError):
        random_triangle(rng)
    assert next(source, None) is None


def _min_angle(a, b, c):
    """The least angle of the triangle of sides a, b and c."""

    def ang(u, v, w):
        return math.acos(max(-1.0, min(1.0, (v * v + w * w - u * u) / (2 * v * w))))

    return min(ang(a, b, c), ang(b, c, a), ang(c, a, b))


def _reference_keeps(corners) -> bool:
    """random_triangle's tests of the corners (ax, ay, bx, by, cx, cy) on
    the object path: Triangle decides collinearity."""
    try:
        t = verify._triangle(*corners)
    except DegenerateTriangle:
        return False
    a, b, c = t.sides()
    return max(a, b, c) / min(a, b, c) <= verify.MAX_ASPECT and _min_angle(a, b, c) >= verify.MIN_ANGLE


def _random_triangle_reference(rng):
    """random_triangle on the object path, drawn with rng.uniform."""
    while True:
        corners = rng.uniform(0.0, 1.0, (3, 2)).ravel().tolist()
        if _reference_keeps(corners):
            return verify._triangle(*corners)


def _random_flat_triangle_reference(rng):
    """random_flat_triangle on the object path: rng.uniform, math.tan,
    Triangle and centers.half_tangent_sum."""
    while True:
        th1 = rng.uniform(verify.MIN_ANGLE, 0.14)
        th2 = rng.uniform(verify.MIN_ANGLE, 0.14)
        base = rng.uniform(0.5, 1.5)
        apex_x = base * math.tan(th2) / (math.tan(th1) + math.tan(th2))
        apex_y = apex_x * math.tan(th1)
        t = Triangle(Point2(0.0, 0.0), Point2(base, 0.0), Point2(apex_x, apex_y))
        if centers.half_tangent_sum(t) > 2.0:
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
    # The public draws are blocks of one of the manifest's array samplers:
    # they must take the object path's decisions on the same doubles, give
    # its bits and leave the rng where the object path leaves it.
    for seed in range(300):
        ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        t = _random_triangle_reference(ref)
        flat = _random_flat_triangle_reference(ref)
        assert _corners(random_triangle(rng)) == _corners(t)
        assert _corners(verify.random_flat_triangle(rng)) == _corners(flat)
        for s in (t, flat):
            p = _random_point_near_reference(s, ref)
            assert random_point_near(s, rng).as_tuple() == p.as_tuple()
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


def _triangle_ok(cfg) -> bool:
    return _reference_keeps([v for xy in cfg["triangle"] for v in xy])


def _driver_ok(cfg) -> bool:
    """random_point_near's tests on floats: the driver in the doubled
    bounding box, at least 1e-2 of the scale from each sideline, and both
    P-triads with all their members (kernels._sides_deltas)."""
    t, p = verify._cfg_tri(cfg), Point2(*cfg["p"])
    for v, q in zip(zip(*cfg["triangle"]), cfg["p"]):
        if abs(q - (min(v) + max(v)) / 2.0) > (max(v) - min(v)) / 2.0 * verify.NEAR_EXPAND:
            return False
    return (min(line_through(q, r).distance_to(p) for q, r in ((t.b, t.c), (t.c, t.a), (t.a, t.b)))
            >= 1e-2 * t.scale()
            and all(triads.driver_fault(t, kind, p) is None for kind in ("p_ellipse", "p_hyperbola")))


def _angle_gap(ang, dirs) -> float:
    return min(abs((ang - d + math.pi) % (2 * math.pi) - math.pi) for d in dirs)


def _right_ok(cfg) -> bool:
    (ax, ay), (bx, by), (cx, cy) = cfg["triangle"]
    p, q = math.hypot(ax - cx, ay - cy), math.hypot(bx - cx, by - cy)
    return (abs((ax - cx) * (bx - cx) + (ay - cy) * (by - cy)) <= 1e-12 * p * q
            and all(0.3 - 1e-12 <= v <= 1.5 + 1e-12 for v in (p, q))
            and -1.0 <= cx <= 1.0 and -1.0 <= cy <= 1.0)


def _ab_angle_ok(cfg) -> bool:
    (ax, ay), (bx, by) = cfg["ab"]
    return 0.35 - 1e-12 <= cfg["angle"] - math.atan2(by - ay, bx - ax) <= math.pi - 0.35 + 1e-12


def _midpoint_ray(cfg) -> list:
    """The ray of P2.8's check (verify._midpoint_rays) for one configuration."""
    (ax, ay), (bx, by) = cfg["triangle"][:2]
    return verify._midpoint_rays(*np.array([[ax], [ay], [bx], [by]]), np.array([cfg["angle"]]))[:, 0].tolist()


def _deg8_ok(cfg) -> bool:
    ray = _midpoint_ray(cfg)
    return _triangle_ok(cfg) and 0.1 <= cfg["u"] <= 1.2 and _deg8_ray_reference(ray)


def _needle_ok(cfg) -> bool:
    q = centers.center_bary(verify._cfg_tri(cfg), "X3")
    norms = (abs(-q.u + q.v + q.w), abs(q.u - q.v + q.w), abs(q.u + q.v - q.w))
    return _triangle_ok(cfg) and min(norms) > 0.05 * (abs(q.u) + abs(q.v) + abs(q.w))


def _clear_of_vertices_ok(cfg) -> bool:
    t = verify._cfg_tri(cfg)
    o = centers.circumcircle(t).center
    dirs = [math.atan2(v.y - o.y, v.x - o.x) for v in t.vertices()]
    return _triangle_ok(cfg) and 0.1 <= cfg["u"] <= 1.2 and _angle_gap(cfg["angle"], dirs) >= 0.15


def _soddy_regime_ok(cfg) -> bool:
    (ax, ay), (bx, by), _ = cfg["triangle"]
    flat = (ax, ay, by) == (0.0, 0.0, 0.0) and 0.5 <= bx <= 1.5
    return _triangle_ok(cfg) or (flat and centers.half_tangent_sum(verify._cfg_tri(cfg)) > 2.0)


def _phyp_ok(cfg) -> bool:
    return (_triangle_ok(cfg) and 0.1 <= cfg["u"] <= 0.9 and abs(cfg["u"] - 0.5) >= 0.05
            and _tri_phyp_angle_reference(reference_checks.cfg_ray(cfg)))


def _x3prime_ok(cfg) -> bool:
    (r,) = _results(verify._chk_x3prime_center, [cfg])
    return _triangle_ok(cfg) and not isinstance(r, (ConstructionFailed, RankDeficient))


# Each draw's acceptance tests, on floats and objects, by its sampler.
_FAMILY_TESTS = {
    verify._gen_tri: _triangle_ok,
    verify._gen_tri_point: lambda cfg: _triangle_ok(cfg) and _driver_ok(cfg),
    verify._gen_right_triangle: _right_ok,
    verify._gen_ab_angle: _ab_angle_ok,
    verify._gen_theta: lambda cfg: 0.05 <= cfg["theta"] <= math.pi - 0.05,
    verify._gen_deg8_ray: _deg8_ok,
    verify._gen_ray_angle_v: lambda cfg: 0.9 <= cfg["angle"] <= math.pi - 0.9,
    verify._gen_needle: _needle_ok,
    verify._gen_tri_angle: _clear_of_vertices_ok,
    verify._gen_fixed: lambda cfg: cfg == {},
    verify._gen_ray_angle_p: lambda cfg: _angle_gap(cfg["angle"], verify._EQUILATERAL_DIRS) > 0.25,
    verify._gen_isosceles: lambda cfg: 0.4 <= cfg["apex"] <= 1.6 and 0.3 <= cfg["half_base"] <= 1.2,
    verify._gen_soddy_regimes: _soddy_regime_ok,
    verify._gen_sextic_abscissa: lambda cfg: abs(cfg["x"]) <= 0.45,
    verify._gen_tri_phyp_angle: _phyp_ok,
    verify._gen_x3prime_center: _x3prime_ok,
}


def _plain(value) -> bool:
    """Whether value holds only dicts, lists and plain floats."""
    if isinstance(value, (dict, list)):
        return all(map(_plain, value.values() if isinstance(value, dict) else value))
    return type(value) is float


@pytest.mark.parametrize("seed", [42, 3])
def test_draws_pass_their_family_tests(seed):
    # Each sampler tests its candidates as one mask on arrays; every
    # configuration it keeps must pass its family's tests on floats, and
    # hold plain floats, which JSON gives back bit for bit.
    for prop in MANIFEST:
        drawn = _drawn(prop, seed)
        assert len(drawn) == prop.default_trials
        for cfg in drawn:
            assert _plain(cfg) and json.loads(json.dumps(cfg)) == cfg, (prop.prop_id, cfg)
            assert _FAMILY_TESTS[prop.draw](cfg), (prop.prop_id, cfg)
        # The table built back from the dicts gives the same dicts, keys in
        # the same order.
        back = _rows(verify.ConfigTable.from_dicts(drawn))
        assert [list(cfg.items()) for cfg in back] == [list(cfg.items()) for cfg in drawn]
    assert set(_FAMILY_TESTS) == {prop.draw for prop in MANIFEST}


def test_draws_repeat_and_keep_to_their_own_streams():
    # The same seed gives the same configurations; and each proposition
    # draws from its own rng, so drawing one with other trials changes no
    # other proposition's configurations.
    def draws(pid=None, n=None):
        return {p.prop_id: _drawn(p, 42, n if p.prop_id == pid else None) for p in MANIFEST}

    base = draws()
    assert draws() == base
    for pid, n in (("P3.8-never-rectangular", 7), ("P2.8-type-regions", 60)):
        moved = draws(pid, n)
        assert len(moved.pop(pid)) == n
        assert moved == {k: v for k, v in base.items() if k != pid}


@pytest.mark.parametrize("draw", [verify._gen_tri, verify._gen_tri_point, verify._gen_deg8_ray,
                                  verify._gen_tri_phyp_angle, verify._gen_x3prime_center])
def test_a_short_block_draws_again(draw):
    # The first block is all zeros, collinear candidates that the sampler
    # must reject: it draws more, and still gives n of its family.
    rng, shapes = np.random.default_rng(1), []

    def zeros_first(shape):
        shapes.append(shape)
        return np.zeros(shape) if len(shapes) == 1 else rng.random(shape)

    cfgs = _trials(draw(SimpleNamespace(random=zeros_first), 40))
    assert len(cfgs) == 40 and all(_FAMILY_TESTS[draw](cfg) for cfg in cfgs)
    assert len(shapes) >= 2 and shapes[0][0] > 0


def test_gen_tri_matches_the_object_path():
    # _gen_tri tests the attempts of a block of doubles as one mask, read in
    # the order the object path reads them: it keeps the configurations of
    # _random_triangle_reference reading the same stream.
    for seed in range(30):
        rng = np.random.default_rng(seed)
        want = [{"triangle": [list(v.as_tuple()) for v in _random_triangle_reference(rng).vertices()]}
                for _ in range(2000)]
        assert _trials(verify._gen_tri(np.random.default_rng(seed), 2000)) == want


def test_gen_tri_point_matches_the_float_draw(monkeypatch):
    # _gen_tri_point tests a block of triangles, and NEAR_DRAWS (here two)
    # driver tries a row, as masks: its configurations must be those the
    # object path's tests (_reference_keeps, _random_point_near_reference)
    # take from the same doubles, a driver that gives up its trial's
    # ConstructionFailed.
    monkeypatch.setattr(verify, "NEAR_DRAWS", 2)
    rng, reads = np.random.default_rng(5), []

    def random(shape):
        reads.append(rng.random(shape))
        return reads[-1]

    got = _trials(verify._gen_tri_point(SimpleNamespace(random=random), 300))
    assert len(reads) == 2  # one block of triangles, one of their drivers' tries
    rows = [row for row in reads[0].tolist() if _reference_keeps(row)]
    for row, tries, cfg in zip(rows, reads[1].transpose(1, 2, 0).tolist(), got):
        u = iter(v for xy in tries for v in xy).__next__
        try:
            p = _random_point_near_reference(
                verify._triangle(*row), SimpleNamespace(uniform=lambda lo, hi: lo + (hi - lo) * u()))
            assert cfg == {"triangle": [row[0:2], row[2:4], row[4:6]], "p": list(p.as_tuple())}
        except ConstructionFailed as exc:
            assert (type(cfg), str(cfg)) == (ConstructionFailed, str(exc))
    assert 0 < sum(isinstance(cfg, Exception) for cfg in got) < 300


def test_guard_drops_candidates_in_order(monkeypatch):
    # Random drivers clear the sidelines by 1e-2 of the scale, so the member
    # guard never fires on them; here it flags every third candidate.  The
    # draw must keep the others, in order, drawing more for those dropped.
    seen = []

    def guard(*cols, _real=verify._member_guard):
        bad = _real(*cols)
        bad[-len(seen) % 3::3] = True
        seen.extend(zip(*(c.tolist() for c in cols)))
        return bad

    monkeypatch.setattr(verify, "_member_guard", guard)
    got = _trials(verify._gen_tri_point(np.random.default_rng(4), 300))
    want = [{"triangle": [[ax, ay], [bx, by], [cx, cy]], "p": [px, py]}
            for i, (ax, ay, bx, by, cx, cy, px, py) in enumerate(seen) if i % 3]
    assert len(seen) > 300 and got == want[:300]


def test_member_guard_is_the_flag_of_both_p_kinds():
    # _member_guard is kernels._sides_deltas' flags of both P-kinds ORed:
    # it must clear random drivers, flag drivers at A, and straddle offsets d
    # across the guard from a point of BC (a P-ellipse member's |PB| + |PC|
    # - a is about d^2 / a), of BC's perpendicular bisector (a P-hyperbola
    # member's |PB| - |PC| is about d) and of BC beyond C.
    rng = np.random.default_rng(6)
    tri = verify._tri_table(rng, 240)["triangle"]
    (px, py), _ = verify._drivers(rng, tri, 4)
    rows = tri.reshape(6, -1).T
    ax, ay, bx, by, cx, cy = rows.T
    a = np.hypot(cx - bx, cy - by)
    ux, uy, d = (cx - bx) / a, (cy - by) / a, np.geomspace(1e-18, 1e-2, 240) * a
    near = [(bx + 0.3 * a * ux - d * uy, by + 0.3 * a * uy + d * ux),
            ((bx + cx) / 2 - 0.2 * a * uy + d * ux, (by + cy) / 2 + 0.2 * a * ux + d * uy),
            (cx + 0.5 * a * ux - d * uy, cy + 0.5 * a * uy + d * ux)]
    cols = [np.tile(c, 5) for c in rows.T] + [np.concatenate(v) for v in zip((px, py), (ax, ay), *near)]
    flags = [kernels._sides_deltas(*cols[:6], kind, *cols[6:])[2]
             for kind in (kernels.KIND_P_ELLIPSE, kernels.KIND_P_HYPERBOLA)]
    got = verify._member_guard(*cols)
    assert np.array_equal(got, flags[0] | flags[1])
    parts = got.reshape(5, 240)
    assert not parts[0].any() and parts[1].all()
    assert all(part.any() and not part.all() for part in parts[2:])  # each straddles the guard


def test_hot_draws_build_no_objects(monkeypatch):
    counts = Counter()
    for name in ("Triangle", "Point2"):

        def counted(*args, _real=getattr(verify, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(verify, name, counted)
    for prop in MANIFEST:
        cfgs, failed = prop.draw(verify._prop_rng(prop.prop_id, 42), prop.default_trials)
        assert cfgs.n + len(failed) == prop.default_trials
    assert counts == {}
    # The counters are live: the public draw builds its accepted triangle.
    random_triangle(np.random.default_rng(3))
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
        lambda: verify._deg8_roots(np.array([_midpoint_ray({"triangle": [[-1.0, 0.0], [1.0, 0.0]],
                                                            "angle": 1.2})]).T),
    ),
    "phyp_parabola_root": (
        verify, "phyp_parabola_condition",
        lambda: verify._phyp_roots(np.array([reference_checks.circumcircle_ray(_tri(), 0.7)]).T),
    ),
    "conic_primitives": (
        render, "split_degenerate",
        lambda: render._primitives(*render._framed(_lines(), 0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
    ),
    "cevian_triangle": (
        reference_checks, "bary_to_cartesian",
        lambda: reference_checks.cevian_triangle(_tri(), BaryCoords(1.0, 1.0, 1.0)),
    ),
    "anticevian_triangle": (
        reference_checks, "bary_to_cartesian",
        lambda: reference_checks.anticevian_triangle(_tri(), BaryCoords(1.0, 1.0, 1.0)),
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
    # six-point conic) needs its check's fit, not the block's polynomial;
    # the rays of P2.8 and P5.7 that cross their loci need only the scan's
    # bracketed cells, not its polished roots.
    calls = Counter()
    for name in ("_chk_x3prime_center", "_x3prime_fit", "_block", "_sextic_roots",
                 "batch_sign_changes", "bracket_sign_changes"):

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
        "A3-x3prime-center": {"_x3prime_fit"},
        "P2.8-type-regions": {"bracket_sign_changes"},
        "P5.7-parabola-condition": {"bracket_sign_changes"},
    }
    # The counters are live: the checks of P4.6 and A3 reach them.
    for pid, names in (("P4.6-halftangent-sextic", {"_sextic_roots", "batch_sign_changes"}),
                       ("A3-x3prime-center", {"_x3prime_fit", "_block"})):
        calls.clear()
        prop = verify._BY_ID[pid]
        prop.run(prop.draw(verify._prop_rng(prop.prop_id, 42), 1)[0])
        assert set(calls) == names


@pytest.mark.parametrize("seed", [42, *range(1, 9)])
def test_x3prime_draw_keeps_the_trials_of_its_check(seed, monkeypatch):
    # A3's draw judges its candidates by their fit's first fault alone: it
    # must keep the trials the whole check keeps, a crash the check gives
    # for another fault as a failed trial, and drop those it fails with
    # ConstructionFailed or RankDeficient.
    blocks = []

    def recorded(rng, n, _real=verify._tri_table):
        blocks.append(_real(rng, n))
        return blocks[-1]

    monkeypatch.setattr(verify, "_tri_table", recorded)
    got = _drawn(verify._BY_ID["A3-x3prime-center"], seed)
    want = []
    for cfg in (cfg for tab in blocks for cfg in _rows(tab)):
        (r,) = _results(verify._chk_x3prime_center, [cfg])
        if not isinstance(r, (ConstructionFailed, RankDeficient)):
            want.append(r if isinstance(r, Exception) else cfg)
    assert len(want) >= len(got) == 10
    assert got == want[:10]


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
    # Every witness at seeds 42 and 1-8 (369), read back from its JSON as
    # the report stores it, replays to exactly its max_residual: a witness
    # holding numpy scalars, or a batch whose bits a trial alone does not
    # give, fails.
    replayed = 0
    for seed in (42, *range(1, 9)):
        for r in verify.run_results(seed):
            assert r.passed, (seed, r.prop_id)
            witness = json.loads(json.dumps(r.witness))
            assert replay_witness(r.prop_id, witness) == r.max_residual, (seed, r.prop_id)
            replayed += 1
    assert replayed == 369


# P5.4's three failures of a 1000-trial sweep (seeds 10, 15 and 36 of
# `tools/seed_sweep.py 1 40 --trials 1000 --prop P5.4-circle-pair`, drawn
# one trial at a time on floats): near-degenerate triangles on which the
# circle-or-ellipse test, in plane coordinates, decided the true circle
# drivers on rounding, so the check read 1.0.  In the triangle's frame,
# where the search validates them, they read at most 2.3e-10.
@pytest.mark.parametrize("triangle", [
    [[0.7201770717774499, 0.3797812773612991], [0.6918962891379753, 0.3384508215111236],
     [0.10943957262644466, 0.7634527005813122]],
    [[0.6757456136622738, 0.35450338931152237], [0.6282236328379186, 0.46376182562357127],
     [0.733387792390878, 0.25677366480981456]],
    [[0.25870153736803936, 0.6821223115610623], [0.6165289387126799, 0.2260140865447715],
     [0.2355808554983485, 0.663212234196289]],
], ids=["seed10", "seed15", "seed36"])
def test_circle_pair_on_near_degenerate_triangles(triangle):
    assert replay_witness("P5.4-circle-pair", {"triangle": triangle}) <= 1e-6


def test_x5452_coordinate_on_an_obtuse_sliver():
    # The witness of A6 at seed 31 with 5000 trials (angles about 3.6, 3.6
    # and 172.8 degrees).  A fit in plane coordinates reads 1.29e-7 here,
    # so A6 fits in the triangle's frame, where it reads 2.4e-10.
    triangle = [[0.8498924362798843, 0.9822067739782391], [0.5554469232131579, 0.8453282133402632],
                [0.6986893142565486, 0.9231292119659875]]
    assert replay_witness("A6-x5452-coordinate", {"triangle": triangle}) <= 1e-7


def test_negative_control_tolerance(monkeypatch):
    # Forcing the tolerance to 1e-20 must make the suite fail: the
    # sideline-membership predicates inside the Carnot check reject honest
    # configurations, proving the checks are live.
    monkeypatch.setattr(config, "TOL", 1e-20)
    r = run_proposition("P2.1-yiu-vertices", seed=42, trials=5)
    assert not r.passed


def test_covertex_locus_fails_on_a_moved_covertex(monkeypatch):
    # A negative control for P2.9: its scan reads the displayed locus
    # (loci.covertex_locus_V) and its residual the co-vertices
    # (kernels.covertices), so A' moved by 1e-2 must fail it.  A scan on
    # the co-vertices' own determinant would move its roots with them and
    # keep them conconic.
    def moved(corners, sides, axes, _real=kernels.covertices):
        xs, ys = _real(corners, sides, axes)
        return xs, [ys[0] + 1e-2, *ys[1:]]

    assert run_proposition("P2.9-covertex-locus", seed=42).passed
    monkeypatch.setattr(kernels, "covertices", moved)
    r = run_proposition("P2.9-covertex-locus", seed=42)
    assert not r.passed and r.max_residual > 1e-6


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
    cfg = {"triangle": [list(v.as_tuple()) for v in t.vertices()]}
    sides = kernels._sides_deltas(*verify._cfg_args(verify.ConfigTable.from_dicts([cfg]),
                                                    kernels.KIND_V_ELLIPSE))[0]
    coords = dict(zip((float(v[0]) for v in sides), cartesian_to_bary(t, moved).as_tuple()))
    monkeypatch.setattr(kernels, "center_x20", lambda a, b, c: np.full_like(a, coords[float(a[0])]))
    pairs = triads.pairwise_intersections(triads.build_triad(t, "v_ellipse"))
    expected = max(line_through(*pts[:2]).distance_to(moved) for pts in pairs) / diam
    assert 1e-8 < expected <= 1e-6
    assert _results(verify._chk_pair_chords_x20, [cfg]) == [pytest.approx(expected, rel=1e-9)]


def test_pair_chords_are_the_focal_pair_lines():
    # The lemma behind P2.4's and P4.8's one chord rule.  Two V-ellipses of
    # a focal pair share the focus F and are |q - F| = ell(q) with ell
    # positive on each, so they meet, twice, on ell_i = ell_j, the first of
    # kernels.focal_pairs' lines, and never on the second; the Newton
    # points of kernels.pair_points confirm it.  Pair A's chords are the
    # closed-form barycentric lines: a line l x + m y + n is, in
    # barycentrics, its values at the corners.  On 400 random and 400 flat
    # triangles.
    rng = np.random.default_rng(1)
    for tab in (verify._tri_table(rng, 400), verify._flat_table(rng, 400)):
        corners, zeros = verify._corners(tab), np.zeros(tab.n)
        sides = kernels.triangle_sides(*corners)
        _, f = kernels.frame(*corners)

        def bary_gap(lines, closed):
            l, m, n = lines
            return verify._proj_errors([l * f[2 * k] + m * f[2 * k + 1] + n for k in range(3)], closed)

        xs, ys, keep, _ = kernels.pair_points(*corners, kernels.KIND_V_ELLIPSE, zeros, zeros)
        (gx, gy, s), _, _, pairs, bad = kernels.focal_pairs(*corners, kernels.KIND_V_ELLIPSE, zeros, zeros)
        assert not bad.any() and (keep.sum(axis=1) == 2).all()
        for k, (*_, lines) in enumerate(pairs):
            x, y = (xs[k] - gx) / s, (ys[k] - gy) / s
            d0, d1 = (abs(l * x + m * y + n) / kernels._hypot(l, m) for l, m, n in lines)
            assert d0[keep[k]].max() <= 1e-12 and d1[keep[k]].min() > 1e-2
        assert bary_gap(pairs[0][2][0], verify._vell_chord_line_bary(*sides)).max() <= 1e-12
        (gx, gy, s), _, _, pairs, bad = kernels.focal_pairs(*corners, kernels.KIND_V_HYPERBOLA, zeros, zeros)
        (qx, qy, _), *_ = kernels.soddy(corners, sides)
        qx, qy = (qx - gx) / s, (qy - gy) / s
        d = [abs(l * qx + m * qy + n) / kernels._hypot(l, m) for l, m, n in pairs[0][2]]
        chord = np.where(d[0] <= d[1], pairs[0][2][1], pairs[0][2][0])
        assert not bad.any() and np.minimum(*d).max() <= 1e-12
        assert bary_gap(chord, verify._vhyp_chord_line_bary(*sides)).max() <= 1e-12


def _line_through_a_and_x8(a, b, c):
    _, v, w = kernels.cyclic(centers._x8, a, b, c)
    return 0.0, w, -v


def _moved_soddy_line(corners, sides, _real=kernels.soddy):
    inner, outer, (l, m, n) = _real(corners, sides)
    return inner, outer, (l, m, n + 1e-6)


def _class_read_as(was, read, _real=kernels.classify_code):
    # classify_code with class was read as class read.
    def classify(co):
        code, det, disc = _real(co)
        return np.where(code == was, read, code), det, disc

    return classify


def _left_out_vertex_moved(xs, ys, fit, _real=kernels.residual6):
    # The left-out vertex moved along x by 1e-6 of the fit's scale (the
    # RMS distance of the five fitted vertices from their centroid).
    return _real(xs + 1e-6 * fit[1][2], ys, fit)


def _arc_c_through_a_moved_b1(t, _real=loci.ostar_arc_ellipses):
    # Arc c through the side midpoints, A2 and B1 (excircle tangency
    # points), B1 moved by 1e-5 in x.
    _, A2, B1, *_ = centers.excircle_tangency_points(t)
    mids = [midpoint(t.b, t.c), midpoint(t.c, t.a), midpoint(t.a, t.b)]
    moved = Point2(B1.x + 1e-5, B1.y)
    return {**_real(t), "c": conic.fit_framed([*mids, A2, moved]).conic()}


def _privalov_of_cycled_sides(a, b, c, _real=kernels.privalov):
    return _real(b, c, a)


def _x3_anticevian_moved_driver(sides, corners, _real=verify._x3_anticevian):
    # The X3-anticevian with its driver X3 moved along x by 1e-5 of the
    # anticevian's side a.
    targs, tsides, faults = _real(sides, corners)
    return (*targs[:7], targs[7] + 1e-5 * tsides[0], targs[8]), tsides, faults


def _first_circle_point_moved(ts, kind, least, _real=loci._circle_points):
    # Each search's first point, P3.2's principal P* and one point of P5.4's
    # pair, moved along x by 1e-5 of its triangle's largest side.
    return [h if isinstance(h, Exception) else [((h[0][0][0] + 1e-5 * t.scale(), h[0][0][1]), h[0][1]),
                                                *h[1:]]
            for t, h in zip(ts, _real(ts, kind, least))]


def _excenters_cycled(a, b, c, _real=kernels.excenters):
    # (E_B, E_C, E_A) in place of (E_A, E_B, E_C).
    ea, eb, ec = _real(a, b, c)
    return eb, ec, ea


def _x6_barycentric(a, b, c):
    # X6's barycentric a^2, in place of X55's a^2 (b + c - a).
    return a * a


_NEGATIVE_CONTROLS = {
    # A searched point moved by 1e-5 of the largest side makes its
    # six-point conic an ellipse, no circle.  P3.2 reads the circle test at
    # the moved principal P*, P5.4 the circle test at both points of its
    # pair and the second point's residuals on the first one's members:
    # both read 1.0 (the class rule) against their bound of 1e-6.
    "P3.2-pstar-unique-circle": (loci, "_circle_points", _first_circle_point_moved),
    "P5.4-circle-pair": (loci, "_circle_points", _first_circle_point_moved),
    # X3 moved off the anticevian's P* by 1e-5 of its side a no longer
    # gives a circle: P3.3 reads 100 (1.0 times its 1e2).
    "P3.3-anticevian-needle": (verify, "_x3_anticevian", _x3_anticevian_moved_driver),
    # The same moved driver moves the A-ellipse off the appendix's
    # polynomial and vertices, and P3.3's circle off its center: A1 reads
    # 5.0e-6 (bound 1e-6), A2 5.4e-5 (bound 1e-7) and A3 3.5e-4 (bound
    # 1e-7).
    "A1-aellipse-polynomial": (verify, "_x3_anticevian", _x3_anticevian_moved_driver),
    "A2-major-vertices": (verify, "_x3_anticevian", _x3_anticevian_moved_driver),
    "A3-x3prime-center": (verify, "_x3_anticevian", _x3_anticevian_moved_driver),
    # With the excenters cycled each member is tested against the next
    # member's excentral side: P2.3 reads 1.3.
    "P2.3-tangent-excentral": (kernels, "excenters", _excenters_cycled),
    # X6's reflection triangle gives no circle about X7: P5.5 reads 1.1e6.
    "P5.5-x55-conjecture": (verify, "_x55", _x6_barycentric),
    # Arc c through a moved point no longer has the corollary's axes or
    # tangents: P3.6 reads 1.3e-5 against its bound of 1e-8.
    "P3.6-equilateral-arcs": (verify, "ostar_arc_ellipses", _arc_c_through_a_moved_b1),
    # X8 lies on the line through A and X8, but pair A's chord is not it:
    # P4.8 reads 0.99999.
    "P4.8-chords-x8": (verify, "_vhyp_chord_line_bary", _line_through_a_and_x8),
    # A Soddy line moved by 1e-6 no longer touches the side circles: P4.10
    # reads 1.0e-6 against its bound of 1e-7.
    "P4.10-soddy-line-tangent": (kernels, "soddy", _moved_soddy_line),
    "P3.8-never-rectangular": (kernels, "classify_code",
                               _class_read_as(kernels.CLASS_HYPERBOLA, kernels.CLASS_RECTANGULAR_HYPERBOLA)),
    # Ellipses read as circles: P2.2 reads 1.0 against its bound of 0.5.
    "P2.2-yiu-never-circle": (kernels, "classify_code", _class_read_as(kernels.CLASS_ELLIPSE, kernels.CLASS_CIRCLE)),
    # The left-out vertex moved off the fit by 1e-6 of its scale: P3.1
    # reads 7.2e-7 and P5.2 6.6e-7 against their bound of 1e-8.
    "P3.1-six-point-conic": (kernels, "residual6", _left_out_vertex_moved),
    "P5.2-six-point-conic": (kernels, "residual6", _left_out_vertex_moved),
    # Privalov's conic of the sides cycled, (b, c, a), is not this
    # triangle's: on the isosceles triangles (b = c) P4.4 reads 0.12.
    "P4.4-isosceles-degenerate": (kernels, "privalov", _privalov_of_cycled_sides),
}


@pytest.mark.parametrize("pid", sorted(_NEGATIVE_CONTROLS))
def test_negative_controls_fail_their_propositions(monkeypatch, pid):
    # Each control breaks the claim its proposition checks, which must
    # then fail at seed 42.
    assert run_proposition(pid, seed=42).passed
    monkeypatch.setattr(*_NEGATIVE_CONTROLS[pid])
    assert not run_proposition(pid, seed=42).passed


def test_incidence_fails_where_six_point_does(monkeypatch):
    # P3.1's and P5.2's residual6 check (verify._incidence) fails a trial
    # exactly where kernels.six_point gives CLASS_FAILED: a fit of zero,
    # infinite or NaN norm (fit_six's coefficients scaled by 0, inf and NaN
    # in columns 1-3) or a degenerate member (P on corner A in column 4).
    def scaled(xs, ys, _real=kernels.fit_six):
        co, frame, out = _real(xs, ys)
        return tuple(c * np.array([1.0, 0.0, math.inf, math.nan, 1.0]) for c in co), frame, out

    monkeypatch.setattr(kernels, "fit_six", scaled)
    for kind in (kernels.KIND_P_ELLIPSE, kernels.KIND_P_HYPERBOLA):
        args = (0.1, 0.2, 1.3, 0.15, 0.5, 1.1, kind, np.array([0.9] * 4 + [0.1]), np.array([0.7] * 4 + [0.2]))
        with np.errstate(all="ignore"):
            codes = kernels.six_point(*args)[0]
            res, failed = verify._incidence(args)
        assert failed.tolist() == (codes == kernels.CLASS_FAILED).tolist() == [False] + [True] * 4
        assert res[0] <= 1e-12


def _shape_grid() -> verify.ConfigTable:
    """Triangle shapes up to similarity: A = (0, 0), B = (1, 0) and C on a
    41 x 36 grid, x even in [-0.5, 1.5] and y geometric in [0.01, 1.5], so
    that thin triangles are sampled too, kept where the draws keep them
    (_tri_mask): 1,003 shapes."""
    x, y = np.meshgrid(np.linspace(-0.5, 1.5, 41), np.geomspace(0.01, 1.5, 36))
    corners = np.array(np.broadcast_arrays(0.0, 0.0, 1.0, 0.0, x.ravel(), y.ravel()))
    kept = corners[:, verify._tri_mask(corners)]
    return verify.ConfigTable(kept.shape[1], {"triangle": kept.reshape(3, 2, -1)})


@pytest.mark.parametrize("pid", ["P3.3-anticevian-needle", "P5.5-x55-conjecture"])
def test_circle_claims_hold_over_a_shape_grid(pid):
    # P3.3 and P5.5 hold within their bounds, with no crash, on every shape
    # of the grid that their draws accept: P3.3's (_needle_kept) keeps
    # those whose X3-anticevian is well conditioned, 820.
    cfgs = _shape_grid()
    if pid == "P3.3-anticevian-needle":
        cfgs = cfgs.take(verify._needle_kept(verify._corners(cfgs)))
    prop = verify._BY_ID[pid]
    with np.errstate(all="ignore"):
        res, errs = prop.run(cfgs)
    assert cfgs.n >= 800 and errs == {}
    assert res.max() <= prop.threshold


@pytest.mark.parametrize("pid", ["P2.3-tangent-excentral", "P2.4-chords-x20", "P4.8-chords-x8",
                                 "P4.9-fifteen-point-cubic", "A1-aellipse-polynomial", "A2-major-vertices"])
def test_triad_geometry_checks_hold_over_a_shape_grid(pid):
    # These hold within their bounds on every shape of the grid, all of
    # which their draw (_gen_tri) accepts, with no crash but one by design:
    # on the 48 right-angled shapes (C above A or B) X3 is on a sideline
    # or its anticevian degenerates, so there is no A-ellipse, and A1 and
    # A2 raise DegenerateResult.  _needle_kept drops those shapes, so on
    # the 820 it keeps A1 and A2 raise nothing.
    cfgs = _shape_grid()
    prop = verify._BY_ID[pid]
    with np.errstate(all="ignore"):
        res, errs = prop.run(cfgs)
    corners = verify._corners(cfgs)
    right = ((corners[4] == 0.0) | (corners[4] == 1.0)) & pid.startswith("A")
    assert sorted(errs) == np.flatnonzero(right).tolist()
    assert all(isinstance(e, DegenerateResult) for e in errs.values())
    assert not (right & verify._needle_kept(corners)).any()
    assert np.delete(res, list(errs)).max() <= prop.threshold


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


def _soddy_one(cfg):
    """P4.5's check of one configuration: its batch of one."""
    (r,) = _results(verify._chk_soddy_intersections, [cfg])
    return r


def test_crashed_trials_are_counted_by_type(monkeypatch):
    pid = "P4.5-soddy-intersections"
    prop = verify._BY_ID[pid]
    clean = run_proposition(pid, seed=42, trials=5)
    assert (clean.crashed, clean.errors) == (0, {})
    assert clean.margin == clean.max_residual / clean.threshold
    assert clean.note == ""

    check = _flaky(_soddy_one, {2: TypeError("injected")})
    monkeypatch.setitem(verify._BY_ID, pid, dataclasses.replace(prop, run=reference_checks._per_trial(check)))
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
        _soddy_one,
        {0: ZeroDivisionError("first"), 1: TypeError("a"), 3: TypeError("last")},
    )
    monkeypatch.setitem(verify._BY_ID, pid, dataclasses.replace(prop, run=reference_checks._per_trial(check)))
    r = run_proposition(pid, seed=42, trials=5)
    assert r.crashed == 3
    assert list(r.errors.items()) == [("TypeError", 2), ("ZeroDivisionError", 1)]
    assert r.note == "TypeError: last"
    assert r.witness == check.seen[0]  # the first strict maximum


def test_a_crashed_ostar_sweep_fails_only_its_own_trial(monkeypatch):
    # P3.5 sweeps each triangle alone; the others keep their residuals.
    prop = verify._BY_ID["P3.5-ostar-three-arcs"]
    cfgs = _drawn(prop, 42)
    clean = _results(prop.run, cfgs)
    failed, sweeps = TypeError("injected"), []

    def sweep(t, n, _real=verify.sample_locus_ostar):
        sweeps.append(t)
        if len(sweeps) == 2:
            raise failed
        return _real(t, n)

    monkeypatch.setattr(verify, "sample_locus_ostar", sweep)
    assert _results(prop.run, cfgs) == [clean[0], failed, *clean[2:]]


@pytest.mark.parametrize("pid, name", [("P3.6-equilateral-arcs", "ostar_arc_ellipses"),
                                       ("P3.7-equilateral-regions", "region_map")])
def test_a_fixed_configuration_is_checked_once_a_run(pid, name, monkeypatch):
    # P3.6 and P3.7 check one fixed configuration: once, for every trial.
    calls = []
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: calls.append(args) or real(*args))
    r = run_proposition(pid, seed=42, trials=4)
    assert len(calls) == 1 and (r.trials, r.crashed, r.witness) == (4, 0, {})


def test_a_crashed_batch_draw_fails_every_trial(monkeypatch):
    pid = "P2.1-yiu-vertices"

    def draw(rng, n):
        raise TypeError("injected")

    monkeypatch.setitem(verify._BY_ID, pid, dataclasses.replace(verify._BY_ID[pid], draw=draw))
    r = run_proposition(pid, seed=42, trials=5)
    assert (r.crashed, r.errors, r.note) == (5, {"TypeError": 5}, "TypeError: injected")
    assert (r.witness, r.passed) == (None, False)


def _stub_run(monkeypatch, res, errs=None, failed=None):
    """run_proposition of P2.2 (bound 0.5) with a stub draw and check: the
    trials' configurations {"x": trial}, those of failed (trial ->
    exception) failing their draw, and a check giving res, one residual a
    configuration, and errs (row -> exception)."""
    pid, failed = "P2.2-yiu-never-circle", failed or {}
    n = len(res) + len(failed)
    x = np.array([i for i in range(n) if i not in failed], dtype=float)

    def draw(rng, k):
        return verify.ConfigTable(x.size, {"x": x}), dict(failed)

    def run(cfgs):
        return np.array(res, dtype=float), dict(errs or {})

    monkeypatch.setitem(verify._BY_ID, pid, dataclasses.replace(verify._BY_ID[pid], draw=draw, run=run))
    return run_proposition(pid, 42, n)


def test_run_proposition_reduces_residuals_in_trial_order(monkeypatch):
    # The first strict maximum gives the witness.
    r = _stub_run(monkeypatch, [0.1, 0.3, 0.2, 0.3, 0.0])
    assert (r.max_residual, r.witness, r.passed, r.margin) == (0.3, {"x": 1.0}, True, 0.3 / 0.5)
    assert (r.crashed, r.errors, r.note) == (0, {}, "")
    # A draw failure counts as inf and has no witness, so a later crash
    # does not take it; the note is the last exception in trial order and
    # the errors are sorted by name.
    r = _stub_run(monkeypatch, [0.1, 0.0, 0.2, 0.0], {2: TypeError("check")},
                  {1: ZeroDivisionError("draw")})
    assert (r.max_residual, r.witness, r.passed) == (math.inf, None, False)
    assert (r.crashed, r.note) == (2, "TypeError: check")
    assert list(r.errors.items()) == [("TypeError", 1), ("ZeroDivisionError", 1)]
    # A crash before a draw failure is the witness; the draw failure, last
    # in trial order, gives the note.
    r = _stub_run(monkeypatch, [0.1, 0.2, 0.0], {1: ValueError("b"), 0: AttributeError("a")},
                  {3: ZeroDivisionError("draw")})
    assert (r.max_residual, r.witness, r.note) == (math.inf, {"x": 0.0}, "ZeroDivisionError: draw")
    assert list(r.errors) == ["AttributeError", "ValueError", "ZeroDivisionError"]


def test_a_nan_residual_fails_its_trial(monkeypatch):
    # A NaN is above no bound: it must not pass as the absence of a
    # residual, but fail its trial (and a replay of its witness).
    r = _stub_run(monkeypatch, [0.1, math.nan, 0.2, math.nan])
    assert (r.max_residual, r.passed, r.witness) == (math.inf, False, {"x": 1.0})
    assert (r.crashed, r.errors) == (2, {"NonFiniteResidual": 2})
    assert r.note == "NonFiniteResidual: the check gave a NaN residual"
    # An exception of the check is the trial's, not a NonFiniteResidual.
    r = _stub_run(monkeypatch, [math.nan, 0.0], {0: TypeError("check")})
    assert (r.errors, r.witness) == ({"TypeError": 1}, {"x": 0.0})
    # With the manifest's draw.
    prop = next(p for p in MANIFEST if p.prop_id == "P2.2-yiu-never-circle")
    pid = prop.prop_id
    monkeypatch.setitem(verify._BY_ID, pid, dataclasses.replace(
        prop, run=lambda cfgs: (np.full(cfgs.n, math.nan), {})))
    r = run_proposition(pid, 42, 3)
    assert (r.crashed, r.passed, r.max_residual) == (3, False, math.inf)
    with pytest.raises(NonFiniteResidual):
        replay_witness(pid, r.witness)


def test_a_crashing_replay_raises_with_a_fresh_traceback():
    # Checks share some exception instances between trials and calls
    # (verify._DEGENERATE here, for the zero side AB); raising one must not
    # extend the traceback it kept from the last raise.
    depths = []
    for _ in range(3):
        with pytest.raises(ConstructionFailed) as info:
            replay_witness("P4.9-fifteen-point-cubic", {"triangle": [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]})
        assert info.value is verify._DEGENERATE
        depths.append(len(info.traceback))
    assert depths[0] == depths[1] == depths[2]


def test_manifest_builds_one_dict_a_proposition_its_witness(monkeypatch):
    # The configurations go from the draw through the check to the report
    # as columns: a seed-42 manifest builds one configuration dict for each
    # proposition, its witness's.
    calls = Counter()
    pid = None

    def counted(self, i, _real=verify.ConfigTable.row):
        calls[pid] += 1
        return _real(self, i)

    monkeypatch.setattr(verify.ConfigTable, "row", counted)
    for pid in PROPOSITION_IDS:
        run_proposition(pid, 42)
    assert calls == dict.fromkeys(PROPOSITION_IDS, 1)


def _never_rectangular_reference(cfg):
    """P3.8's check of one configuration through kernels.six_point on floats."""
    (ax, ay), (bx, by), (cx, cy) = cfg["triangle"]
    code = kernels.six_point(ax, ay, bx, by, cx, cy, kernels.KIND_P_ELLIPSE, *cfg["p"])[0]
    if code == kernels.CLASS_FAILED:
        return 0.0
    return 1.0 if code == kernels.CLASS_RECTANGULAR_HYPERBOLA else 0.0


def _interleaved_report(pid, seed):
    """run_proposition's report from one loop over the configurations of
    the proposition's draw, each checked alone (P3.8 through
    kernels.six_point on floats) in turn."""
    prop = verify._BY_ID[pid]

    def check(cfg):
        if pid == "P3.8-never-rectangular":
            return _never_rectangular_reference(cfg)
        (r,) = _results(prop.run, [cfg])
        if isinstance(r, Exception):
            raise r
        return r

    worst, witness, note, errors = -1.0, None, "", {}
    for drawn in _drawn(prop, seed):
        cfg = None
        try:
            if isinstance(drawn, Exception):
                raise drawn
            cfg = drawn
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
    cfgs = _trials(verify._gen_tri_point(rng, 400))
    t = _tri()
    for u in (0.25, 0.5):
        for f1, f2 in ((t.b, t.c), (t.c, t.a)):
            q = [f1.x + u * (f2.x - f1.x), f1.y + u * (f2.y - f1.y)]
            cfgs.append({"triangle": [list(v.as_tuple()) for v in t.vertices()], "p": q})
    batch = _results(verify._chk_never_rectangular, cfgs)
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


def _float_scan(g, lo, hi, steps=60):
    """g's sign changes on floats, in order: the scan grid one point at a
    time, and each bracketed cell polished by loci._brent_cell from its two
    end values; a generator, so next() stops at the first."""
    prev_s, prev_f = lo, g(lo)
    for k in range(1, steps + 1):
        s = lo + (hi - lo) * k / steps
        v = g(s)
        if math.isfinite(prev_f) and math.isfinite(v) and (prev_f < 0.0) != (v < 0.0):
            yield loci._brent_cell(g, prev_s, s, prev_f, v)
        prev_s, prev_f = s, v


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

    s = next(_float_scan(detn, 0.8, 1.2), None)
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
    crossings = list(_float_scan(detn, 0.97, 1.03))
    if not crossings:
        return 1.0
    return max(on, min(abs(s - 1.0) for s in crossings) * 1e-3)


def _parabola_reference(cfg):
    """P5.7 on one configuration with the float scans and Brent."""
    t = verify._cfg_tri(cfg)
    cc = centers.circumcircle(t)
    d = Point2(math.cos(cfg["angle"]), math.sin(cfg["angle"]))
    ray = reference_checks.circumcircle_ray(t, cfg["angle"])
    found = next(_float_scan(lambda s: verify._phyp_condition(s, *ray), 0.08, 2.4, 300), None)
    if found is None:
        return 1.0

    def discn(s):
        return kernels.six_point(
            t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y, kernels.KIND_P_HYPERBOLA,
            cc.center.x + s * cc.radius * d.x, cc.center.y + s * cc.radius * d.y,
        )[2]

    # The disc's root nearest the condition's: the window can hold several.
    roots = _float_scan(discn, found - 2e-3, found + 2e-3, 40)
    s_disc = min(roots, key=lambda s: abs(s - found), default=None)
    if s_disc is None:
        return 1.0
    worst = max(abs(s_disc - found) * 1e-3, abs(discn(s_disc)))
    return max(worst, reference_checks.sideline_extension_residual(t, cfg["u"]))


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
    cfgs = _drawn(prop, seed)
    assert _results(prop.run, cfgs) == [reference(cfg) for cfg in cfgs]


def _deg8_ray_reference(ray) -> bool:
    """Whether P2.8's candidate ray (_midpoint_ray) crosses the degree-8
    locus, scanned one point at a time on floats: the condition on
    Triangle's sides, NaN where Triangle refuses the triangle."""
    ax, ay, bx, by, *rest = ray

    def deg8(s):
        try:
            c = Point2(*verify._on_ray(s, *rest))
            return loci.parabola_deg8_V(*Triangle(Point2(ax, ay), Point2(bx, by), c).sides())
        except DegenerateTriangle:
            return math.nan

    return next(_float_scan(deg8, 1.05, 6.0, 240), None) is not None


def _tri_phyp_angle_reference(ray) -> bool:
    """Whether P5.7's candidate ray (circumcircle_ray) crosses the
    parabola condition's locus, scanned one point at a time on floats."""
    t = Triangle(*(Point2(*ray[k:k + 2]) for k in (0, 2, 4)))
    ray = tuple(ray)
    assert ray == reference_checks.circumcircle_ray(t, math.atan2(ray[-1], ray[-2]))[:-2] + ray[-2:]
    return next(_float_scan(lambda s: verify._phyp_condition(s, *ray), 0.08, 2.4, 300), None) is not None


@pytest.mark.parametrize(
    "pid,reference",
    [
        ("P2.8-type-regions", _deg8_ray_reference),
        ("P5.7-parabola-condition", _tri_phyp_angle_reference),
    ],
)
def test_scan_draws_match_one_at_a_time_draws(pid, reference, monkeypatch):
    # The draws judge a block of candidate rays in one batch scan: each
    # candidate, kept or not, must be judged as one float scan of its own
    # ray judges it.
    judged = []

    def crossed(rays, *scan, _real=verify._crossed):
        hit = _real(rays, *scan)
        judged.extend(zip(rays.T.tolist(), hit.tolist()))
        return hit

    monkeypatch.setattr(verify, "_crossed", crossed)
    prop = verify._BY_ID[pid]
    for seed in (42, *range(1, 9)):
        prop.draw(verify._prop_rng(pid, seed), prop.default_trials)
    assert any(hit for _, hit in judged) and not all(hit for _, hit in judged)
    assert [hit for _, hit in judged] == [reference(ray) for ray, _ in judged]


def test_phyp_parabola_scan_grid_matches_scalar_condition():
    # The P5.7 scan reads its whole grid in one array call; Brent's polish
    # and witness replay need those values bit for bit the scalar ones,
    # with the sides and differences of the triad rule (kernels._sides_deltas).
    from triconic.loci import phyp_parabola_condition

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
            scalar = [phyp_parabola_condition(*sides, *reference_checks.lambdas(t, p)) for p in ray]
            rays = [reference_checks.circumcircle_ray(t, ang)]
            cond = lambda s: verify._phyp_condition(s, *rays[0])  # noqa: E731
            assert cond(np.array(grid)).tolist() == scalar
            assert [cond(s) for s in grid] == scalar
            assert verify._phyp_roots(np.array(rays).T) == [next(_float_scan(cond, 0.08, 2.4, 300), None)]


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


def _closed_form_gap(t, chord, line):
    # Pair A's chord, a line of kernels.focal_pairs in the triangle's frame,
    # against the closed-form barycentric line, mapped by the framed
    # triangle's sidelines.
    f, _ = framed(t)
    s0, s1, s2 = (line_through(p, q) for p, q in ((f.b, f.c), (f.c, f.a), (f.a, f.b)))
    closed = [line[0] * getattr(s0, k) + line[1] * getattr(s1, k) + line[2] * getattr(s2, k)
              for k in "lmn"]
    return float(verify._proj_errors(chord, closed))


def _chords_x20_reference(cfg):
    # Each pair's chord is its line ell_i = ell_j, the first of its
    # kernels.focal_pairs lines, on the triangle's floats.
    t = verify._cfg_tri(cfg)
    (gx, gy, s), _, _, pairs, _ = kernels.focal_pairs(*triads._kernel_args(t, "v_ellipse", None))
    diam = 2.0 * centers.circumcircle(t).radius
    x20 = centers.classic_center(t, "X20")
    worst = 0.0
    for (*_, ((l, m, n), _)), label in zip(pairs, "ABC"):
        chord = LineEq(l, m, n * s - l * gx - m * gy)
        for q in (centers.classic_center(t, f"excenter{label}"), x20):
            worst = max(worst, chord.distance_to(q) / diam)
    return max(worst, _closed_form_gap(t, pairs[0][2][0], verify._vell_chord_line_bary(*t.sides())))


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
    ins, exts = reference_checks.intouch_extouch(t)
    s = t.scale()
    worst = 0.0
    for i in range(3):
        worst = max(worst, distance(verts[2 * i], exts[i]) / s)
        worst = max(worst, distance(verts[2 * i + 1], ins[i]) / s)
    a1, a2 = reference_checks.equal_area_check(tr)
    return max(worst, abs(a1 - a2) / max(a1, a2))


# The trial-by-trial float checks P2.7, P3.3, P4.3, P4.9 and P5.3 ran
# before they became array calls, on the object path, kept as references.


def _x478_quartic_reference(cfg):
    th = cfg["theta"]
    c = Point2(0.5 * math.cos(th), 0.5 * math.sin(th))
    cen = centers.classic_center(Triangle(Point2(0.5, 0.0), Point2(-0.5, 0.0), c), "X478")
    return abs(loci.x478_quartic(cen.x, cen.y))


def _anticevian_needle_reference(cfg):
    """P3.3's check of one configuration on the object path, in the
    triangle's frame (framed), the centers' barycentrics taken of the
    plane's triangle: the circle test (circle_residual) of the
    X3-anticevian's P-ellipse six-point conic with driver X3, and the
    anticevian's circumcenter on ABC's line X4 X6."""
    plane = verify._cfg_tri(cfg)
    t, _ = framed(plane)
    x3 = centers.center_bary(plane, "X3")
    tac = reference_checks.anticevian_triangle(t, x3)
    worst = reference_checks.circle_residual(tac, bary_to_cartesian(t, x3), "p_ellipse")
    o = centers.circumcircle(tac).center
    x4, x6 = (bary_to_cartesian(t, centers.center_bary(plane, c)) for c in ("X4", "X6"))
    dx, dy, s = x6.x - x4.x, x6.y - x4.y, max(1.0, tac.scale())
    return max(worst, abs(signed_area(x4, x6, o)) / (dx * dx + dy * dy + s * s)) * 1e2


def _residual_bary(m, b):
    # The incidence residual of the homogeneous triple b on the conic with
    # barycentric matrix m, as conic.residual_bary read it.
    v = np.array([b.u, b.v, b.w], dtype=float)
    v = v / np.abs(v).max()
    val = abs(float(v @ m @ v))
    return val / (float(np.linalg.norm(m)) * float(v @ v))


def _privalov_conic(t):
    # Privalov's barycentric matrix of unit Frobenius norm, as P4.3 and P4.4
    # read it on floats.
    m = np.array(kernels.privalov(*t.sides()))
    return m / np.linalg.norm(m)


def _privalov_reference(cfg):
    t = verify._cfg_tri(cfg)
    tr = triads.build_triad(t, "v_hyperbola")
    if tr.has_degenerate_member():
        return 0.0
    mb = _privalov_conic(t)
    worst = max(
        _residual_bary(mb, cartesian_to_bary(t, v).normalized())
        for v in triads.triad_vertices(tr)
    )
    fitted = triads.six_point_conic(tr).conic
    mc = reference_checks.conic_bary_to_cartesian(mb, t).m
    mf = fitted.m
    diff = min(float(np.abs(mc - mf).max()), float(np.abs(mc + mf).max()))
    return max(worst, diff)


def _fifteen_point_cubic_reference(cfg):
    t = verify._cfg_tri(cfg)
    sidelines = (line_through(t.b, t.c), line_through(t.c, t.a), line_through(t.a, t.b))
    pts = list(t.vertices())
    pts += list(triads.triad_vertices(triads.build_triad(t, "v_ellipse")))
    trh = triads.build_triad(t, "v_hyperbola")
    if not trh.has_degenerate_member():
        pts += list(triads.triad_vertices(trh))
    s = t.scale()
    return max(min(ln.distance_to(p) for ln in sidelines) / s for p in pts)


def _equal_areas_reference(cfg):
    t = verify._cfg_tri(cfg)
    p = Point2(*cfg["p"])
    a1, a2 = reference_checks.equal_area_check(triads.build_triad(t, "p_hyperbola", p))
    return abs(a1 - a2) / max(a1, a2)


_TRIANGLE_REFERENCES = {
    "P2.1-yiu-vertices": _yiu_vertices_reference,
    "P2.3-tangent-excentral": _tangent_excentral_reference,
    "P2.4-chords-x20": _chords_x20_reference,
    "P2.5-right-triangle-x20": _right_triangle_x20_reference,
    "P4.1-vhyp-vertex-barycentrics": _vhyp_vertex_barys_reference,
    "P4.2-intouch-extouch": _intouch_extouch_reference,
}

_BATCH_REFERENCES = {
    "P2.7-x478-quartic": _x478_quartic_reference,
    "P3.3-anticevian-needle": _anticevian_needle_reference,
    "P4.3-privalov-conic": _privalov_reference,
    "P4.9-fifteen-point-cubic": _fifteen_point_cubic_reference,
    "P5.3-equal-areas": _equal_areas_reference,
}


def _float_triangle_points(seed, n) -> list:
    """n configurations of default_rng(seed) drawn one at a time on floats,
    the fixed random cases of the crash tests: random_triangle's, with a
    random_point_near driver for which both P-triads have all members."""
    rng, out = np.random.default_rng(seed), []
    while len(out) < n:
        t = random_triangle(rng)
        p = random_point_near(t, rng)
        if not any(triads.driver_fault(t, kind, p) for kind in ("p_ellipse", "p_hyperbola")):
            out.append({"triangle": [list(v.as_tuple()) for v in t.vertices()], "p": [p.x, p.y]})
    return out


def _reference_run(reference, cfgs):
    out = []
    for cfg in cfgs:
        try:
            out.append(reference(cfg))
        except Exception as exc:
            out.append(exc)
    return out


# P2.3 and P2.5 evaluate the members in focal_pairs' frame, their float
# checks in the plane.  Every other batch check takes sides and distances
# by the package's one length rule (kernels._hypot), as its float check
# does, and gives its bits (over the 3,100 to 9,300 trials of each at
# seeds 1-30 and 42).
_IN_FOCAL_PAIRS_FRAME = {"P2.3-tangent-excentral", "P2.5-right-triangle-x20"}


def _assert_residuals_agree(batch, ref, pid=None):
    # In another frame, residuals at rounding level differ absolutely,
    # larger ones only relatively.
    assert [type(r) for r in batch] == [type(r) for r in ref]
    for b, r in zip(batch, ref):
        if isinstance(r, Exception):
            continue
        if pid not in _IN_FOCAL_PAIRS_FRAME:
            assert b == r
        elif r > 1e-14:
            assert b == pytest.approx(r, rel=1e-6)
        else:
            assert b == pytest.approx(r, abs=1e-14)


@pytest.mark.parametrize(
    "seed,pid",
    [(seed, pid) for seed in (42, 3) for pid in sorted(_TRIANGLE_REFERENCES)]
    # P2.4 also on the crash tests' random triangles, whose trial 24 has a
    # residual of rounding noise alone.
    + [("gen_tri_9", "P2.4-chords-x20")],
)
def test_batch_triangle_checks_match_float_checks(seed, pid):
    prop = verify._BY_ID[pid]
    if seed == "gen_tri_9":
        cfgs = _trials(verify._gen_tri(np.random.default_rng(9), 30))
    else:
        cfgs = _drawn(prop, seed)
    ref = _reference_run(_TRIANGLE_REFERENCES[pid], cfgs)
    assert not any(isinstance(r, Exception) for r in ref)
    _assert_residuals_agree(_results(prop.run, cfgs), ref, pid)


@pytest.mark.parametrize("pid", sorted(_TRIANGLE_REFERENCES))
def test_batch_triangle_checks_crash_where_float_checks_do(pid, monkeypatch):
    # At a tolerance of 1e-20, the sideline test of P2.1's six-point conic
    # rejects honest vertices (PointOffSideline) in most trials, and only
    # there.  The isosceles triangles give P4.1 and P4.2 a
    # perpendicular-bisector member, which they read as 0.0.  (These are not
    # right triangles, so P2.5's residuals, on different scales in the two
    # frames, are not compared.)
    cfgs = _trials(verify._gen_tri(np.random.default_rng(9), 30))
    cfgs += [{"triangle": [[0.0, 0.9], [-0.4, 0.0], [0.4, 0.0]]},
             {"triangle": [[0.3, 0.2], [0.3, 1.1], [-0.5, 0.65]]}]
    monkeypatch.setattr(config, "TOL", 1e-20)
    batch = _results(verify._BY_ID[pid].run, cfgs)
    ref = _reference_run(_TRIANGLE_REFERENCES[pid], cfgs)
    assert [type(r) for r in batch] == [type(r) for r in ref]
    crashed = sum(isinstance(r, Exception) for r in ref)
    assert crashed > 10 if pid == "P2.1-yiu-vertices" else crashed == 0
    if pid.startswith("P4."):
        assert batch[-2:] == [0.0, 0.0]


def test_circumcircle_residual_reads_the_crossing_nearest_the_circle(monkeypatch):
    # P3.4's ray can cross an interior branch of the degeneracy locus before
    # the circumcircle: the crossing nearest s = 1 decides, not the first.
    # A ray without a crossing reads 1.0, and a failed scan crashes its trial.
    failed = NotConverged("injected")
    crossings = [[0.985, 1.0 + 1e-7], [1.0 - 1e-7, 1.02], [], failed]
    monkeypatch.setattr(verify, "_scan_rays", lambda *args: crossings)
    monkeypatch.setattr(verify, "_at_rays", lambda *args: np.zeros(4))
    res, errs = verify._chk_degenerate_on_circumcircle(None, None)
    assert res[:2].tolist() == pytest.approx([1e-10, 1e-10], rel=1e-6)
    assert res[2] == 1.0 and errs == {3: failed}


def _assert_within_unit_rounding(batch, ref):
    # P4.3's residuals compare unit-norm matrices and barycentric triples,
    # so they are rounding noise of entries of size 1: the two evaluations,
    # in different orders, differ by a few ulps of 1 at any size (at most
    # 17.9 of them over the 3,000 trials at seeds 1-29 and 42).
    assert [type(r) for r in batch] == [type(r) for r in ref]
    for b, r in zip(batch, ref):
        assert isinstance(r, Exception) or abs(b - r) <= 32 * 2.0**-52


@pytest.mark.parametrize("seed", [42, 3])
@pytest.mark.parametrize("pid", sorted(_BATCH_REFERENCES))
def test_batch_checks_match_float_checks(seed, pid):
    # Each reads the vertices and distances its float check read, bit for
    # bit, P3.3 in the triangle's frame; P4.3 maps its conic to the plane
    # in another order.
    prop = verify._BY_ID[pid]
    cfgs = _drawn(prop, seed)
    ref = _reference_run(_BATCH_REFERENCES[pid], cfgs)
    assert not any(isinstance(r, Exception) for r in ref)
    if pid == "P4.3-privalov-conic":
        _assert_within_unit_rounding(_results(prop.run, cfgs), ref)
    else:
        assert _results(prop.run, cfgs) == ref


_ISOSCELES = [{"triangle": [[0.0, 0.9], [-0.4, 0.0], [0.4, 0.0]]},
              {"triangle": [[0.3, 0.2], [0.3, 1.1], [-0.5, 0.65]]}]


def _crash_cases(pid):
    """Configurations on which P2.7, P3.3, P4.3, P4.9 and P5.3 crash or
    hold exactly where their float checks do."""
    rng = np.random.default_rng(9)
    if pid == "P2.7-x478-quartic":
        return _trials(verify._BY_ID[pid].draw(rng, 30))
    if pid == "P5.3-equal-areas":
        # P on the perpendicular bisector of BC, and on BC beyond C: a
        # P-hyperbola member collapses.
        tri = [[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]]
        return _float_triangle_points(9, 30) + [
            {"triangle": tri, "p": [0.0, 0.3]}, {"triangle": tri, "p": [1.5, 0.0]}
        ]
    # A right triangle puts X3 on the hypotenuse, where anticevian_triangle
    # refuses it.
    return _trials(verify._gen_tri(rng, 30)) + [_RIGHT] + _ISOSCELES


_RIGHT = {"triangle": [[0.0, 3.0], [4.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("pid", sorted(_BATCH_REFERENCES))
def test_batch_checks_crash_where_float_checks_do(pid, monkeypatch):
    # At a tolerance of 1e-20, six_point_conic's sideline test rejects
    # honest vertices (PointOffSideline) in most trials of P2.7 and P4.3,
    # and only there; the other trials keep their residuals.  P4.3 reads an
    # isosceles triangle's perpendicular-bisector member as 0.0.  P3.3's
    # circle test has no sideline rule: it refuses the right triangle, X3
    # on its hypotenuse in the plane, and three near-right triangles, which
    # its draw drops, leave the fit rank deficient; the isosceles ones hold
    # to rounding.
    cfgs = _crash_cases(pid)
    monkeypatch.setattr(config, "TOL", 1e-20)
    batch = _results(verify._BY_ID[pid].run, cfgs)
    ref = _reference_run(_BATCH_REFERENCES[pid], cfgs)
    if pid == "P4.3-privalov-conic":
        _assert_within_unit_rounding(batch, ref)
    else:
        _assert_residuals_agree(batch, ref)
    crashed = Counter(type(r).__name__ for r in ref if isinstance(r, Exception))
    if pid == "P4.9-fifteen-point-cubic":
        assert not crashed
    elif pid == "P5.3-equal-areas":
        assert crashed == {"DegenerateMember": 2}
    elif pid == "P3.3-anticevian-needle":
        assert crashed == {"DegenerateResult": 1, "RankDeficient": 3}
        assert max(batch[31:]) <= 3e-13
    else:
        assert crashed["PointOffSideline"] > 10
    if pid == "P3.3-anticevian-needle":
        assert type(batch[30]).__name__ == "DegenerateResult"
    if pid == "P4.3-privalov-conic":
        assert batch[-2:] == [0.0, 0.0]


def _pstar_reference(cfg):
    """P3.2's former check of one configuration: find_pstar_candidates and
    the principal candidate's six-point conic on the object path, here
    with the triangle and the candidate in the triangle's frame."""
    t = verify._cfg_tri(cfg)
    t, (p,) = framed(t, Point2(*loci.find_pstar_candidates(t)[0][0]))
    rep = triads.six_point_conic(triads.build_triad(t, "p_ellipse", p))
    cc = centers.circumcircle(t)
    conc = distance(rep.center, cc.center) / cc.radius if rep.center else 1.0
    ok_class = rep.conic_class == conic.ConicClass.CIRCLE
    fnorm = loci.pstar_circle_functional(*t.sides(), *reference_checks.deltas(t, p)) / t.scale() ** 8 * 1e6
    return max(fnorm, conc, 0.0 if ok_class else 1.0)


def _circle_pair_reference(cfg):
    """P5.4's former check of one configuration: find_phyp_circle_points,
    each point's six-point conic on the object path, and p2 on the members
    of p1's triad, here with the triangle and the points in the triangle's
    frame."""
    t = verify._cfg_tri(cfg)
    t, (p1, p2) = framed(t, *loci.find_phyp_circle_points(t))
    s = t.scale()
    cc = centers.circumcircle(t)
    worst = 0.0
    for p in (p1, p2):
        fval = loci.phyp_circle_functional(*t.sides(), *reference_checks.lambdas(t, p))
        worst = max(worst, fval / s**8 * 1e6)
        rep = triads.six_point_conic(triads.build_triad(t, "p_hyperbola", p))
        worst = max(worst, 0.0 if rep.conic_class == conic.ConicClass.CIRCLE else 1.0)
        worst = max(worst, distance(rep.center, cc.center) / cc.radius if rep.center else 1.0)
    for m in triads.build_triad(t, "p_hyperbola", p1).members:
        worst = max(worst, reference_checks.focal_diff_residual(p2, m) / s * 1e2)
    return worst


def _failure(exc):
    """An exception's message and, for a NotConverged, its best point and value."""
    return str(exc), getattr(exc, "best", None), getattr(exc, "value", None)


_SEARCH_REFERENCES = {
    "P3.2-pstar-unique-circle": _pstar_reference,
    "P5.4-circle-pair": _circle_pair_reference,
}


@pytest.mark.parametrize("seed", [42, 3])
@pytest.mark.parametrize("pid", sorted(_SEARCH_REFERENCES))
def test_search_checks_match_float_checks(seed, pid):
    prop = verify._BY_ID[pid]
    cfgs = _drawn(prop, seed)
    ref = _reference_run(_SEARCH_REFERENCES[pid], cfgs)
    assert not any(isinstance(r, Exception) for r in ref)
    _assert_residuals_agree(_results(prop.run, cfgs), ref)


def _search_crash_cases() -> list:
    """Random triangles, and those on which the searches fail: a collinear
    one, thin ones, isosceles ones and the equilateral one."""
    return _trials(verify._gen_tri(np.random.default_rng(9), 30)) + [
        {"triangle": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]},
        {"triangle": [[0.0, 0.0], [1.0, 0.0], [0.4, 1e-3]]},
        {"triangle": [[0.0, 0.0], [1.0, 0.0], [-0.5, 1e-3]]},
        {"triangle": [[0.0, 0.0], [1.0, 0.0], [0.4, 1e-5]]},
        *_ISOSCELES,
        {"triangle": [[-0.5, 0.0], [0.5, 0.0], [0.0, math.sqrt(3.0) / 2.0]]},
    ]


@pytest.mark.parametrize("pid", sorted(_SEARCH_REFERENCES))
def test_search_checks_crash_where_float_checks_do(pid):
    # A collinear triangle fails to build; on thin triangles the search
    # finds no circle point (NotConverged) or its seeds no circumcenter
    # (PointAtInfinity), and the P-hyperbola search fails on the isosceles
    # and equilateral triangles.  Each fails its own trial only.
    cfgs = _search_crash_cases()
    batch = _results(verify._BY_ID[pid].run, cfgs)
    ref = _reference_run(_SEARCH_REFERENCES[pid], cfgs)
    _assert_residuals_agree(batch, ref)
    crashed = Counter(type(r).__name__ for r in ref if isinstance(r, Exception))
    assert crashed == {
        "P3.2-pstar-unique-circle": {"DegenerateTriangle": 1, "NotConverged": 2, "PointAtInfinity": 1},
        "P5.4-circle-pair": {"DegenerateTriangle": 1, "NotConverged": 5, "PointAtInfinity": 1},
    }[pid]
    assert [_failure(r) for r in batch if isinstance(r, Exception)] == [
        _failure(r) for r in ref if isinstance(r, Exception)
    ]


def _framed_float_check(pid, cfg):
    """P3.2's or P5.4's former float check of one configuration
    (reference_checks), on the triangle and the search's points in the
    triangle's frame."""
    t = verify._cfg_tri(cfg)
    if pid == "P3.2-pstar-unique-circle":
        hits = loci.find_pstar_candidates(t)
        f, (p,) = framed(t, Point2(*hits[0][0]))
        return pstar_residual(f, [(p.as_tuple(), hits[0][1])])
    f, pair = framed(t, *loci.find_phyp_circle_points(t))
    return circle_pair_residual(f, pair)


@pytest.mark.parametrize("pid", sorted(_SEARCH_REFERENCES))
def test_column_postconditions_match_the_float_checks(pid):
    # The column postconditions of P3.2 and P5.4 against their former float
    # checks in the frame, at seeds 42 and 1-8 and on the crash cases:
    # within 1e-12, crashing on the same trials with the same types.
    prop = verify._BY_ID[pid]
    cfgs = [cfg for seed in (42, *range(1, 9)) for cfg in _drawn(prop, seed)] + _search_crash_cases()
    batch = _results(prop.run, cfgs)
    ref = _reference_run(functools.partial(_framed_float_check, pid), cfgs)
    assert [type(r) for r in batch] == [type(r) for r in ref]
    for b, r in zip(batch, ref):
        assert isinstance(r, Exception) or abs(b - r) <= 1e-12


def test_parabola_check_pairs_the_disc_root_nearest_the_condition_root():
    # P5.7's witness at seed 59: the cell the condition's scan brackets
    # holds three roots, 1.0013, 1.00544 and 1.00569, of the condition and
    # of the disc alike.  Brent lands on 1.00569; the first disc root in the
    # window is 1.00544, which read 2.48e-7 against the 1e-9 bound.
    cfg = {
        "triangle": [[0.5402492845730573, 0.4424755180676858],
                     [0.242763297457522, 0.9101016688845713],
                     [0.8879472106768913, 0.005306780838522762]],
        "angle": 3.9201307181435703,
        "u": 0.8738096974322875,
    }
    r = replay_witness("P5.7-parabola-condition", cfg)
    assert r <= 1e-9
    assert r == _parabola_reference(cfg)


# The trial-by-trial checks of A1-A6, P4.4, P4.5, P4.8 and P5.5 ran on the
# object path before they became batches; kept as references (the
# appendix blocks' and P5.5's in reference_checks).


def _isosceles_degenerate_reference(cfg):
    apex = cfg["apex"]
    half = cfg["half_base"]
    t = Triangle(Point2(0.0, apex), Point2(half, 0.0), Point2(-half, 0.0))
    tr = triads.build_triad(t, "v_hyperbola")
    if tr.members[0] is not None or tr.degenerate_lines[0] is None:
        return 1.0
    line = tr.degenerate_lines[0]
    base_mid = midpoint(t.b, t.c)
    worst = line.distance_to(base_mid) / t.scale()
    worst = max(worst, line.distance_to(Point2(0.0, apex)) / t.scale())
    con = reference_checks.conic_bary_to_cartesian(_privalov_conic(t), t)
    base = line_through(t.b, t.c)
    worst = max(worst, conic.residual(con, base_mid))
    worst = max(worst, abs(conic.tangency_discriminant(con, base)))
    return worst


def _soddy_intersections_reference(cfg):
    t = verify._cfg_tri(cfg)
    tr = triads.build_triad(t, "v_hyperbola")
    if tr.has_degenerate_member():
        return 0.0
    diam = 2.0 * centers.circumcircle(t).radius
    x175, x176 = centers.soddy_centers(t)
    worst = 0.0
    for m in tr.members:
        worst = max(worst, reference_checks.focal_diff_residual(x176, m) / diam)
        if x175 is not None:
            worst = max(worst, reference_checks.focal_diff_residual(x175, m) / diam)
    return worst


def _chords_x8_reference(cfg):
    t = verify._cfg_tri(cfg)
    tr = triads.build_triad(t, "v_hyperbola")
    if tr.has_degenerate_member():
        return 0.0
    diam = 2.0 * centers.circumcircle(t).radius
    x8 = centers.classic_center(t, "X8")
    worst = max(chord.distance_to(x8) / diam for chord in reference_checks.two_branch_chords(tr))
    chord = reference_checks.two_branch_lines(tr)[1][0]
    return max(worst, _closed_form_gap(t, chord, verify._vhyp_chord_line_bary(*t.sides())))


def _appendix_reference(name):
    def reference(cfg):
        p = Point2(*cfg["p"]) if cfg.get("p") else None
        return check_appendix(name, verify._cfg_tri(cfg), p)

    return reference


_LAST_BATCH_REFERENCES = {
    "A1-aellipse-polynomial": _appendix_reference("a_ellipse"),
    "A2-major-vertices": _appendix_reference("major_vertices"),
    "A3-x3prime-center": _appendix_reference("x3prime_center"),
    "A4-phyp-member": _appendix_reference("phyp_member"),
    "A5-pstar-conic": _appendix_reference("pstar_conic"),
    "A6-x5452-coordinate": _appendix_reference("x5452_coordinate"),
    "P4.4-isosceles-degenerate": _isosceles_degenerate_reference,
    "P4.5-soddy-intersections": _soddy_intersections_reference,
    "P4.8-chords-x8": _chords_x8_reference,
    "P5.5-x55-conjecture": x55_reference,
}

# The batches whose residuals are not bit for bit their references', each
# with the rule their difference keeps (the worst seen over the 3,100
# trials of P4.5 and the 310 to 1,550 of the others at seeds 1-30 and 42):
_NOT_BIT_FOR_BIT = {
    # The norms of _proj_errors sum their squares in order, where the
    # reference's np.linalg.norm takes BLAS's fused multiply-adds: at most
    # 5.2e-16 relative (about 2 ulps).
    "A2-major-vertices": lambda b, r: abs(b - r) <= 8 * 2.0**-52 * r,
    "A3-x3prime-center": lambda b, r: abs(b - r) <= 8 * 2.0**-52 * r,
    "A6-x5452-coordinate": lambda b, r: abs(b - r) <= 8 * 2.0**-52 * r,
    # Privalov's conic is mapped to the plane and normalized entry by entry
    # (_bary_to_plane), where the reference took BLAS's matrix products:
    # rounding of entries of size 1, at most 1.5e-16.
    "P4.4-isosceles-degenerate": lambda b, r: abs(b - r) <= 32 * 2.0**-52,
    # The Soddy centers come from their catalog barycentrics, where the
    # reference trilaterates them from the kissing circles: both are
    # rounding noise of the centers, at most 6.9e-14 apart.
    "P4.5-soddy-intersections": lambda b, r: abs(b - r) <= 1e-12,
}


def _same_outcome(batch, ref, agree) -> bool:
    if isinstance(ref, Exception):
        return type(batch) is type(ref)
    return not isinstance(batch, Exception) and agree(batch, ref)


@pytest.mark.parametrize("seed", [42, 3])
@pytest.mark.parametrize("pid", sorted(_LAST_BATCH_REFERENCES))
def test_last_batch_checks_match_their_references(seed, pid):
    prop = verify._BY_ID[pid]
    cfgs = _drawn(prop, seed)
    batch = _results(prop.run, cfgs)
    ref = _reference_run(_LAST_BATCH_REFERENCES[pid], cfgs)
    assert not any(isinstance(r, Exception) for r in ref)
    agree = _NOT_BIT_FOR_BIT.get(pid, lambda b, r: b == r)
    assert all(_same_outcome(b, r, agree) for b, r in zip(batch, ref))
    # Each trial alone gives its residual in the batch, which is what lets
    # replay_witness reproduce the report.
    assert [_results(prop.run, [cfg])[0] for cfg in cfgs] == batch


def _last_batch_crash_cases(pid):
    """Configurations on which the reference of pid crashes, or holds
    exactly, with those of its family that do not."""
    rng = np.random.default_rng(9)
    if pid == "P4.4-isosceles-degenerate":
        return _trials(verify._BY_ID[pid].draw(rng, 20))
    if pid in ("A4-phyp-member", "A5-pstar-conic"):
        # P on the perpendicular bisector of BC, and on BC beyond C: a
        # P-hyperbola member collapses.
        tri = [[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]]
        return _float_triangle_points(9, 20) + [
            {"triangle": tri, "p": [0.0, 0.3]}, {"triangle": tri, "p": [1.5, 0.0]}
        ]
    # A right triangle puts X3 on the hypotenuse, where anticevian_triangle
    # refuses it; the isosceles and equilateral triangles give the
    # V-hyperbola a perpendicular-bisector member and P5.5 degenerate
    # members.
    return _trials(verify._gen_tri(rng, 20)) + [
        _RIGHT,
        *_ISOSCELES,
        {"triangle": [[-0.5, 0.0], [0.5, 0.0], [0.0, math.sqrt(3.0) / 2.0]]},
    ]


@pytest.mark.parametrize("tol", [None, 1e-20])
@pytest.mark.parametrize("pid", sorted(_LAST_BATCH_REFERENCES))
def test_last_batch_checks_crash_where_their_references_do(pid, tol, monkeypatch):
    # At a tolerance of 1e-20, six_point_conic's sideline test rejects
    # honest vertices (PointOffSideline) in most trials of A3 and A6, and
    # only there.  A1-A3 refuse the right triangle (DegenerateResult), A4
    # and A5 the collapsed members (DegenerateMember); A3's fit is rank
    # deficient on three of the random triangles (those its draw drops), and
    # A6's and P5.5's on the equilateral one; P4.5 and P4.8 read an
    # isosceles triangle's bisector member as 0.0.  P5.5 reads its circle
    # test, which has no sideline rule, on a collapsed member too: its
    # isosceles triangles hold to rounding.
    cfgs = _last_batch_crash_cases(pid)
    if tol is not None:
        monkeypatch.setattr(config, "TOL", tol)
    batch = _results(verify._BY_ID[pid].run, cfgs)
    ref = _reference_run(_LAST_BATCH_REFERENCES[pid], cfgs)
    agree = _NOT_BIT_FOR_BIT.get(pid, lambda b, r: b == r)
    assert all(_same_outcome(b, r, agree) for b, r in zip(batch, ref))
    crashed = Counter(type(r).__name__ for r in ref if isinstance(r, Exception))
    if pid == "P5.5-x55-conjecture":
        assert crashed == {"RankDeficient": 1}
        assert max(batch[21:23]) <= 3e-15
    elif tol is None:
        assert crashed == {
            "A1-aellipse-polynomial": {"DegenerateResult": 1},
            "A2-major-vertices": {"DegenerateResult": 1},
            "A3-x3prime-center": {"DegenerateResult": 1, "RankDeficient": 3},
            "A4-phyp-member": {"DegenerateMember": 2},
            "A5-pstar-conic": {"DegenerateMember": 2},
            "A6-x5452-coordinate": {"RankDeficient": 1},
        }.get(pid, {})
    elif pid in ("A3-x3prime-center", "A6-x5452-coordinate"):
        assert crashed["PointOffSideline"] > 10
    if pid in ("P4.5-soddy-intersections", "P4.8-chords-x8"):
        assert batch[21:23] == [0.0, 0.0]



# P2.8's and P5.7's tails ran trial by trial on floats after their batch
# scans, one float kernels.six_point call a point; the tails are kept in
# reference_checks, and these runs feed them the scans' own roots.


def _type_regions_reference_run(cfgs):
    rays = np.array([_midpoint_ray(cfg) for cfg in cfgs]).T
    return verify._each(reference_checks.type_regions_residual,
                        zip(cfgs, rays.T.tolist(), verify._deg8_roots(rays)))


def _parabola_reference_run(cfgs):
    out = verify._each(reference_checks.cfg_ray, cfgs)
    live = [i for i, ray in enumerate(out) if not isinstance(ray, Exception)]
    rays = [out[i] for i in live]
    found, s_disc = verify._parabola_roots(np.array(rays).reshape(-1, 11).T)
    items = zip((cfgs[i] for i in live), rays, found, s_disc)
    for i, r in zip(live, verify._each(reference_checks.parabola_residual, items)):
        out[i] = r
    return out


_TAIL_REFERENCES = {
    "P2.8-type-regions": _type_regions_reference_run,
    "P5.7-parabola-condition": _parabola_reference_run,
}


def _same_results(batch, ref) -> bool:
    """The same residuals bit for bit, and crashes of the same types."""
    return [type(r) for r in batch] == [type(r) for r in ref] and all(
        isinstance(r, Exception) or b == r for b, r in zip(batch, ref))


@pytest.mark.parametrize("pid", sorted(_TAIL_REFERENCES))
def test_batched_tails_match_their_references(pid):
    # One kernels.six_point call over every trial's points, each trial's
    # loop replayed on the values: the residuals of the per-trial float
    # tails, bit for bit, at seeds 42 and 1-8.
    prop = verify._BY_ID[pid]
    for seed in (42, *range(1, 9)):
        cfgs = _drawn(prop, seed)
        ref = _TAIL_REFERENCES[pid](cfgs)
        assert not any(isinstance(r, Exception) for r in ref)
        assert _results(prop.run, cfgs) == ref, seed


# Collinear corners (DegenerateTriangle), a corner not finite (Point2's
# ValueError) and a triangle so flat that X3 is at infinity, which Triangle
# accepts but circumcircle refuses (PointAtInfinity).
_REFUSED_TRIANGLES = [
    [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
    [[0.0, 0.0], [1.0, math.nan], [0.3, 0.8]],
    [[0.0, 0.0], [1.0, 0.0], [0.5, 3e-9]],
]


@pytest.mark.parametrize("pid", sorted(_TAIL_REFERENCES))
def test_batched_tails_crash_where_their_references_do(pid, monkeypatch):
    # The refused triangles crash their own trials; so do scans that fail
    # (NotConverged) or find no root, injected into the roots both runs
    # read.
    prop = verify._BY_ID[pid]
    cfgs = _drawn(prop, 7, 12)
    cfgs += [dict(cfgs[0], triangle=tri) for tri in _REFUSED_TRIANGLES]
    failed = NotConverged("injected")

    def spoiled(roots):
        return [failed if i % 5 == 1 else None if i % 5 == 3 else r for i, r in enumerate(roots)]

    if pid == "P2.8-type-regions":
        monkeypatch.setattr(verify, "_deg8_roots", lambda rays, _real=verify._deg8_roots: spoiled(_real(rays)))
    else:
        def roots(rays, _real=verify._parabola_roots):
            found, s_disc = _real(rays)
            return spoiled(found), s_disc[:2] + spoiled(s_disc[2:])

        monkeypatch.setattr(verify, "_parabola_roots", roots)
    batch, ref = _results(prop.run, cfgs), _TAIL_REFERENCES[pid](cfgs)
    assert _same_results(batch, ref)
    crashed = Counter(type(r).__name__ for r in ref if isinstance(r, Exception))
    assert crashed["NotConverged"] >= 2 and 1.0 in ref
    # P2.8 builds no circumcircle: its flat triangle is a trial like any.
    assert [type(r).__name__ for r in ref[-3:]] == [
        "DegenerateTriangle", "ValueError", "float" if pid == "P2.8-type-regions" else "PointAtInfinity",
    ]


@pytest.mark.parametrize("pid", ["P3.4-degenerate-on-circumcircle", "P5.7-parabola-condition"])
def test_circumcircle_rays_are_the_object_rays(pid):
    # One _circumcircle_rays call gives each configuration the object
    # path's ray (cfg_ray), bit for bit, or the exception it raises.
    cfgs = _drawn(verify._BY_ID[pid], 5)
    cfgs += [dict(cfgs[0], triangle=tri) for tri in _REFUSED_TRIANGLES]
    with np.errstate(all="ignore"):  # the runner's policy, as in _results
        rays, errs = verify._cfg_rays(verify.ConfigTable.from_dicts(cfgs))
    rays = [errs.get(i, tuple(ray)) for i, ray in enumerate(rays.T.tolist())]
    assert _same_results(rays, verify._each(reference_checks.cfg_ray, cfgs))
    assert [type(r).__name__ for r in rays[-3:]] == ["DegenerateTriangle", "ValueError", "PointAtInfinity"]


# P2.9 and P3.9 ran trial by trial on the object path, and P4.6 finished
# each trial on a Triangle; reference_checks keeps those checks of one
# configuration.
_OBJECT_REFERENCES = {
    "P2.9-covertex-locus": reference_checks.covertex_locus_reference,
    "P3.9-covertex-equilateral-P": reference_checks.covertex_equilateral_reference,
    "P4.6-halftangent-sextic": reference_checks.halftangent_reference,
    "P3.5-ostar-three-arcs": reference_checks.ostar_arcs_reference,
    "P4.10-soddy-line-tangent": reference_checks.soddy_line_reference,
}


@pytest.mark.parametrize("trials", [None, 50])
@pytest.mark.parametrize("pid", sorted(_OBJECT_REFERENCES))
def test_array_checks_match_their_object_references(pid, trials):
    # The residuals of the object path bit for bit, and crashes of the same
    # types, trial by trial at seeds 42 and 1-8, at the default trials and
    # at 50; each report's witness replays exactly.
    prop = verify._BY_ID[pid]
    for seed in (42, *range(1, 9)):
        cfgs = _drawn(prop, seed, trials)
        assert _same_results(_results(prop.run, cfgs), _reference_run(_OBJECT_REFERENCES[pid], cfgs)), seed
        r = run_proposition(pid, seed, trials)
        assert replay_witness(pid, json.loads(json.dumps(r.witness))) == r.max_residual, seed


def _rootless_where(f, on_ray):
    """f, but |f| + 1 where on_ray of its arguments holds: no sign change
    along a ray (or vertical) on which it holds throughout."""
    return lambda *args: np.where(on_ray(*args), abs(f(*args)) + 1.0, f(*args))


def _flaky_brent(f, a, b, fa, fb, _real=loci._brent_cell):
    # Whether a cell fails hangs on its value at a: the same cells fail on
    # both paths.
    if hash(fa) % 3 == 0:
        raise NotConverged("injected", a, fa)
    return _real(f, a, b, fa, fb)


def _vanishing_fit(xs, ys, _real=kernels.fit_six):
    # Zero coefficients where floor(1e3 y) of the first co-vertex is even.
    co, frame, out = _real(xs, ys)
    return tuple(c * (ys[0] * 1e3 // 1.0 % 2.0) for c in co), frame, out


def _refusing(ax, ay, bx, by, cx, cy, sides, _real=kernels.collinear):
    # Triangle (and P2.9) refuse a C above y = 0.365 as collinear.
    return _real(ax, ay, bx, by, cx, cy, sides) | (cy > 0.365)


def _collapsing(*args, _real=kernels._sides_deltas):
    # A P-ellipse member collapses where P is right of the y axis.
    sides, deltas, bad = _real(*args)
    return sides, deltas, bad | ((args[6] == kernels.KIND_P_ELLIPSE) & (args[7] > 0.0))


# The injected faults but DriverNotOnLocus, each the function both paths
# call and its replacement.
_INJECTED = {
    "NotConverged": (loci, "_brent_cell", _flaky_brent),
    "RankDeficient": (kernels, "fit_six", _vanishing_fit),
    "DegenerateTriangle": (kernels, "collinear", _refusing),
    "DegenerateMember": (kernels, "_sides_deltas", _collapsing),
}
# The conditions both paths scan, by proposition, each with the rays on
# which the injected fault takes its root away: P2.9's rays into x < 0,
# P3.9's nearer A than B, P4.6's sextic on x < 0 and the converse
# condition on x > 0.2, and P4.10's sextic on x < 0.
_ROOTLESS = {
    "P2.9-covertex-locus": {"covertex_locus_V": lambda x, y: x < 0.0},
    "P3.9-covertex-equilateral-P": {"covertex_condition_equilateral_P": lambda da, db, dc: da > db},
    "P4.6-halftangent-sextic": {"halftangent_sextic": lambda x, y: x < 0.0,
                                "_half_tangent_gap": lambda y, x: x > 0.2},
    "P4.10-soddy-line-tangent": {"halftangent_sextic": lambda x, y: x < 0.0},
}
_SCAN_FAULTS = (("DriverNotOnLocus",), ("NotConverged",), ("DriverNotOnLocus", "NotConverged"))


@pytest.mark.parametrize("pid, faults", [
    *(("P2.9-covertex-locus", f) for f in (*_SCAN_FAULTS, ("RankDeficient",), ("DegenerateTriangle", "RankDeficient"))),
    *(("P3.9-covertex-equilateral-P", f) for f in (*_SCAN_FAULTS, ("RankDeficient",), ("DegenerateMember", "RankDeficient"))),
    *(("P4.6-halftangent-sextic", f) for f in _SCAN_FAULTS),
    *(("P4.10-soddy-line-tangent", f) for f in _SCAN_FAULTS),
])
def test_array_checks_crash_where_their_object_references_do(pid, faults, monkeypatch):
    # Injected faults: a condition without a sign change (P4.6 and P4.10
    # read 1.0 there), a Brent polish that fails (loci._brent_cell), a vanishing
    # co-vertex fit (kernels.fit_six), Triangle's refusal (P2.9) and a
    # collapsing member (P3.9) crash the trials the object path crashes,
    # with its exception types and in its order, and leave the others'
    # bits.
    for fault in faults:
        if fault == "DriverNotOnLocus":
            for name, on_ray in _ROOTLESS[pid].items():
                for module in (verify, reference_checks):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, _rootless_where(getattr(module, name), on_ray))
        else:
            monkeypatch.setattr(*_INJECTED[fault])
    prop = verify._BY_ID[pid]
    cfgs = _drawn(prop, 7, 20)
    batch, ref = _results(prop.run, cfgs), _reference_run(_OBJECT_REFERENCES[pid], cfgs)
    assert _same_results(batch, ref)
    outcomes = Counter(type(r).__name__ for r in ref)
    if pid in ("P4.6-halftangent-sextic", "P4.10-soddy-line-tangent") and "DriverNotOnLocus" in faults:
        assert 1.0 in ref
        faults = faults[1:]
    assert outcomes["float"] and all(outcomes[f] for f in faults), outcomes


def test_manifest_makes_only_the_polish_float_six_point_calls(monkeypatch):
    # The float kernels.six_point calls left in the seed-42 manifest are
    # the Brent polish of the P2.6, P3.4 and P5.7 scans; a per-trial float
    # tail would add to them.
    calls = Counter()
    pid = None

    def counted(*args, _real=kernels.six_point):
        if not any(isinstance(v, np.ndarray) for v in args):
            calls[pid] += 1
        return _real(*args)

    monkeypatch.setattr(kernels, "six_point", counted)
    for pid in PROPOSITION_IDS:
        run_proposition(pid, 42)
    assert calls == {"P2.6-degenerate-iff-right": 55, "P3.4-degenerate-on-circumcircle": 165,
                     "P5.7-parabola-condition": 77}


def _seed_sweep(monkeypatch):
    """tools/seed_sweep.py, imported from a path its spawned workers share."""
    import importlib
    import pathlib

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
    return importlib.import_module("seed_sweep")


def test_seed_sweep_workers_print_the_serial_lines(capsys, monkeypatch):
    # The sweep's worker processes print what one loop over the seeds and
    # propositions would, in that order, but the wall time.
    pids = ["P2.1-yiu-vertices", "P4.1-vhyp-vertex-barycentrics", "P5.4-circle-pair"]
    want, failed = [], 0
    for seed in range(1, 5):
        for pid in pids:
            r = verify.run_proposition(pid, seed)
            if not r.passed:
                failed += 1
                want.append(f"seed {seed} {pid}: ")
    want.append(f"{failed} failing of 12 proposition runs at seeds 1-4 (")
    code = _seed_sweep(monkeypatch).main(["1", "4", "--prop", *pids])
    lines = capsys.readouterr().out.splitlines()
    assert code == (1 if failed else 0)
    assert [line[:len(w)] for line, w in zip(lines, want)] == want and len(lines) == len(want)
