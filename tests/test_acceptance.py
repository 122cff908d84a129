"""Acceptance criteria.

Each test pins one numbered criterion at its stated tolerance and prints a
single pass/fail line.  Random configurations are seeded and use the shared
generator (unit-square vertices, minimum angle 0.05 rad, aspect <= 50).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from triconic import kernels
from triconic.appendix import BLOCK_NAMES
from triconic.centers import (
    center_bary,
    circumcircle,
    classic_center,
    soddy,
    soddy_centers,
)
from triconic.conic import ConicClass, residual
from triconic.errors import ConstructionFailed, DegenerateMember
from triconic.geom import (
    Point2,
    Triangle,
    bary_to_cartesian,
    distance,
    line_through,
    midpoint,
    signed_area,
)
from triconic.loci import (
    ostar_arc_ellipses,
    pstar_circle_functional,
    sample_locus_ostar,
    sample_locus_x478,
    x478_center_for_theta,
    x478_quartic,
)
from triconic.triads import (
    build_triad,
    pairwise_intersections,
    six_point_conic,
    triad_vertices,
)
from triconic.verify import (
    random_flat_triangle,
    random_point_near,
    random_triangle,
)

from reference_checks import (
    _sextic_triangles,
    anticevian_triangle,
    check_appendix,
    deltas,
    equal_area_check,
    equilateral_arcs_reference,
    second_common_point,
    sideline_extension_residual,
    two_branch_chords,
    x55_conjecture_check,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def incidence_run():
    """Shared worst-case data for criteria 1 and 2: 1000 seeded triangles
    (plus random P where applicable) across all four triad kinds."""
    rng = np.random.default_rng(42)
    worst_res = 0.0
    worst_carnot = 0.0
    t0 = time.perf_counter()
    trials = 0
    while trials < 1000:
        t = random_triangle(rng)
        p = random_point_near(t, rng)
        reports = []
        try:
            reports.append(six_point_conic(build_triad(t, "v_ellipse")))
            trh = build_triad(t, "v_hyperbola")
            if not trh.has_degenerate_member():
                reports.append(six_point_conic(trh))
            reports.append(six_point_conic(build_triad(t, "p_ellipse", p)))
            reports.append(six_point_conic(build_triad(t, "p_hyperbola", p)))
        except DegenerateMember:
            continue
        trials += 1
        for rep in reports:
            worst_res = max(worst_res, rep.residual6)
            worst_carnot = max(worst_carnot, abs(rep.carnot_product - 1.0))
    return worst_res, worst_carnot, time.perf_counter() - t0


def test_criterion_01_six_point_incidence(incidence_run):
    worst_res, _, elapsed = incidence_run
    _report(
        1,
        worst_res <= 1e-8 and elapsed <= 60.0,
        f"six-point incidence: worst residual {worst_res:.3e} (<=1e-8), "
        f"runtime {elapsed:.1f}s (<=60s), 1000 trials x 4 kinds",
    )


def test_criterion_02_carnot_product(incidence_run):
    _, worst_carnot, _ = incidence_run
    _report(
        2,
        worst_carnot <= 1e-10,
        f"Carnot product: worst |product-1| = {worst_carnot:.3e} (<=1e-10)",
    )


def _bisect(f, lo, hi, steps=60):
    prev_s, prev_f = lo, f(lo)
    for k in range(1, steps + 1):
        s = lo + (hi - lo) * k / steps
        v = f(s)
        if math.isfinite(prev_f) and math.isfinite(v) and (prev_f < 0.0) != (v < 0.0):
            a, b, fa = prev_s, s, prev_f
            for _ in range(80):
                m = (a + b) / 2.0
                fm = f(m)
                if (fa < 0.0) != (fm < 0.0):
                    b = m
                else:
                    a, fa = m, fm
            return (a + b) / 2.0
        prev_s, prev_f = s, v
    return None


def test_criterion_03_degeneracy_equivalences():
    rng = np.random.default_rng(303)
    worst_v = 0.0
    worst_pe = 0.0
    worst_ph = 0.0
    for _ in range(100):
        # V-ellipse: det sign change localized at the right-angle condition.
        t = random_triangle(rng)
        A, B = t.a, t.b
        m = midpoint(A, B)
        r = distance(A, B) / 2.0
        ang0 = math.atan2(B.y - A.y, B.x - A.x)
        ang = ang0 + rng.uniform(0.35, math.pi - 0.35)
        d = Point2(math.cos(ang), math.sin(ang))

        def detn_v(s):
            return kernels.six_point(
                A.x, A.y, B.x, B.y, m.x + s * r * d.x, m.y + s * r * d.y,
                kernels.KIND_V_ELLIPSE, 0.0, 0.0,
            )[1]

        s_star = _bisect(detn_v, 0.8, 1.2)
        assert s_star is not None
        C = Point2(m.x + s_star * r * d.x, m.y + s_star * r * d.y)
        tt = Triangle(A, B, C)
        aa, bb, cc = tt.sides()
        worst_v = max(
            worst_v,
            min(
                abs(aa * aa + bb * bb - cc * cc),
                abs(bb * bb + cc * cc - aa * aa),
                abs(cc * cc + aa * aa - bb * bb),
            )
            / max(aa, bb, cc) ** 2,
        )
        # P-ellipse: det sign change within 1e-6 R of the circumcircle.
        cc_c = circumcircle(t)
        vangs = [
            math.atan2(v.y - cc_c.center.y, v.x - cc_c.center.x) for v in t.vertices()
        ]
        while True:
            pang = rng.uniform(0.0, 2 * math.pi)
            if min(abs((pang - va + math.pi) % (2 * math.pi) - math.pi) for va in vangs) > 0.15:
                break
        pd = Point2(math.cos(pang), math.sin(pang))

        def detn_pe(s):
            return kernels.six_point(
                t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y, kernels.KIND_P_ELLIPSE,
                cc_c.center.x + s * cc_c.radius * pd.x,
                cc_c.center.y + s * cc_c.radius * pd.y,
            )[1]

        crossings = []
        prev_s, prev_f = 0.97, detn_pe(0.97)
        for k in range(1, 61):
            s = 0.97 + 0.06 * k / 60
            v = detn_pe(s)
            if math.isfinite(prev_f) and math.isfinite(v) and (prev_f < 0) != (v < 0):
                a2, b2, fa = prev_s, s, prev_f
                for _ in range(80):
                    mm = (a2 + b2) / 2
                    fm = detn_pe(mm)
                    if (fa < 0) != (fm < 0):
                        b2 = mm
                    else:
                        a2, fa = mm, fm
                crossings.append((a2 + b2) / 2)
            prev_s, prev_f = s, v
        assert crossings
        worst_pe = max(worst_pe, min(abs(s - 1.0) for s in crossings))
        # P-hyperbola: det vanishes (to second order, no sign change) as P
        # approaches a sideline extension, and the construction collapses on
        # the line itself.
        worst_ph = max(worst_ph, sideline_extension_residual(t, rng.uniform(0.1, 0.6)))
    _report(
        3,
        worst_v <= 1e-6 and worst_pe <= 1e-6 and worst_ph <= 1e-8,
        "degeneracy boundaries: right-angle localization "
        f"{worst_v:.2e} (<=1e-6), circumcircle offset {worst_pe:.2e} R "
        f"(<=1e-6), sideline-extension det {worst_ph:.2e} (even-order zero)",
    )


def test_criterion_04_x478_quartic():
    samples = sample_locus_x478(120)
    worst = max(s.implicit_residual for s in samples)
    _, cen_a = x478_center_for_theta(1e-5)
    _, cen_b = x478_center_for_theta(math.pi - 1e-5)
    end_err = max(
        distance(cen_a, Point2(0.5, 1.0)), distance(cen_b, Point2(-0.5, 1.0))
    )
    _report(
        4,
        worst <= 1e-8 and end_err <= 1e-4,
        f"X478 quartic: worst |implicit| {worst:.2e} over 120 samples "
        f"(<=1e-8), endpoint approach {end_err:.2e} (<=1e-4)",
    )


def test_criterion_05_ostar_locus():
    rng = np.random.default_rng(505)
    worst_sample = 0.0
    worst_mid = 0.0
    for _ in range(3):
        t = random_triangle(rng)
        samples, arcs = sample_locus_ostar(t, 120)
        assert len(samples) >= 100
        worst_sample = max(worst_sample, max(s.implicit_residual for s in samples))
        mids = (midpoint(t.b, t.c), midpoint(t.c, t.a), midpoint(t.a, t.b))
        for con in arcs.values():
            worst_mid = max(worst_mid, max(residual(con, m) for m in mids))
    _report(
        5,
        worst_sample <= 1e-8 and worst_mid <= 1e-8,
        f"O* locus: worst arc residual {worst_sample:.2e}, worst midpoint "
        f"residual {worst_mid:.2e} (both <=1e-8), 3 triangles x 120 samples",
    )


def test_criterion_06_equilateral_corollary():
    # On the construction (ostar_arc_ellipses), on the object path.
    q = equilateral_arcs_reference()
    ok = (
        all(abs(major - math.sqrt(3) / 2) <= 1e-8 and abs(minor - math.sqrt(3) / 6) <= 1e-8
            for major, minor in q["semi_axes"])
        and max(q["center_offsets"]) <= 1e-8
        and abs(q["area_ratio"] - 3.0) <= 1e-8
    )
    major, minor = q["semi_axes"][2]
    _report(
        6,
        ok,
        f"equilateral arcs: arc c semi-axes ({major:.10f}, {minor:.10f}), center offset "
        f"{max(q['center_offsets']):.2e}, area ratio {q['area_ratio']:.10f}",
    )


def test_criterion_07_soddy():
    t345 = Triangle(Point2(0, 3), Point2(4, 0), Point2(0, 0))
    cfg = soddy(t345)
    ok_345 = (
        abs(cfg.inner.radius - 6 / 23) <= 1e-12
        and cfg.regime == "contains"
        and distance(cfg.outer_circle.center, Point2(4, 3)) <= 1e-10
        and abs(cfg.outer_circle.radius - 6.0) <= 1e-10
    )
    # 500 random triangles covering both containment regimes.
    rng = np.random.default_rng(707)
    worst = 0.0
    regimes = {"contains": 0, "external": 0}
    for k in range(500):
        t = random_triangle(rng) if k % 2 == 0 else random_flat_triangle(rng)
        tr = build_triad(t, "v_hyperbola")
        if tr.has_degenerate_member():
            continue
        diam = 2.0 * circumcircle(t).radius
        x175, x176 = soddy_centers(t)
        regimes[soddy(t).regime] += 1
        for m in tr.members:
            worst = max(
                worst,
                abs(abs(distance(x176, m.focus1) - distance(x176, m.focus2)) - m.axis_length) / diam,
            )
            if x175 is not None:
                worst = max(
                    worst,
                    abs(abs(distance(x175, m.focus1) - distance(x175, m.focus2)) - m.axis_length) / diam,
                )
    # Line regime at triangles on the half-tangent sextic.
    worst_line = 0.0
    for t in _sextic_triangles(np.linspace(-0.4, 0.4, 12).tolist()):
        assert isinstance(t, Triangle)
        scfg = soddy(t)
        assert scfg.regime == "line"
        for (u, v) in ((t.a, t.b), (t.b, t.c), (t.c, t.a)):
            center = midpoint(u, v)
            worst_line = max(
                worst_line,
                abs(scfg.outer_line.distance_to(center) - distance(u, v) / 2.0),
            )
    _report(
        7,
        ok_345 and worst <= 1e-8 and regimes["contains"] >= 100
        and regimes["external"] >= 100 and worst_line <= 1e-7,
        f"Soddy: 3-4-5 exact, focal-difference residual {worst:.2e} (<=1e-8) "
        f"over regimes {regimes}, Soddy-line tangency {worst_line:.2e} (<=1e-7)",
    )


def test_criterion_08_concurrency():
    rng = np.random.default_rng(808)
    worst_e = 0.0
    worst_h = 0.0
    done_e = done_h = 0
    while done_e < 500 or done_h < 500:
        t = random_triangle(rng)
        diam = 2.0 * circumcircle(t).radius
        if done_e < 500:
            x20 = classic_center(t, "X20")
            for pts, label in zip(pairwise_intersections(build_triad(t, "v_ellipse")), "ABC"):
                assert len(pts) >= 2
                chord = line_through(pts[0], pts[1])
                for q in (classic_center(t, f"excenter{label}"), x20):
                    r = chord.distance_to(q) / diam
                    assert r <= 1e-8
                    worst_e = max(worst_e, r)
            done_e += 1
        if done_h < 500:
            trh = build_triad(t, "v_hyperbola")
            if not trh.has_degenerate_member():
                x8 = classic_center(t, "X8")
                for chord in two_branch_chords(trh):
                    worst_h = max(worst_h, chord.distance_to(x8) / diam)
                done_h += 1
    _report(
        8,
        worst_e <= 1e-8 and worst_h <= 1e-8,
        f"concurrency: V-ellipse chords (excenters+X20) {worst_e:.2e}, "
        f"V-hyperbola chords at X8 {worst_h:.2e} (<=1e-8), 500 trials each",
    )


def test_criterion_09_anticevian_needle():
    rng = np.random.default_rng(909)
    worst_spread = 0.0
    worst_conc = 0.0
    worst_line = 0.0
    worst_formula = 0.0
    worst_fval = 0.0
    done = 0
    while done < 200:
        t = random_triangle(rng)
        q = center_bary(t, "X3")
        u, v, w = q.u, q.v, q.w
        if min(abs(-u + v + w), abs(u - v + w), abs(u + v - w)) <= 0.05 * (
            abs(u) + abs(v) + abs(w)
        ):
            continue
        tac = anticevian_triangle(t, q)
        p = classic_center(t, "X3")
        worst_fval = max(
            worst_fval, pstar_circle_functional(*tac.sides(), *deltas(tac, p))
        )
        tr = build_triad(tac, "p_ellipse", p)
        rep = six_point_conic(tr)
        cc = circumcircle(tac)
        verts = triad_vertices(tr)
        rmean = sum(distance(vv, cc.center) for vv in verts) / 6.0
        worst_spread = max(
            worst_spread,
            max(abs(distance(vv, cc.center) - rmean) for vv in verts) / cc.radius,
        )
        worst_conc = max(worst_conc, distance(rep.center, cc.center) / cc.radius)
        x4 = classic_center(t, "X4")
        x6 = classic_center(t, "X6")
        ln = line_through(x4, x6)
        worst_line = max(worst_line, ln.distance_to(rep.center) / t.scale())
        worst_formula = max(worst_formula, check_appendix("x3prime_center", t))
        done += 1
    _report(
        9,
        worst_spread <= 1e-6 and worst_conc <= 1e-6 and worst_line <= 1e-8
        and worst_formula <= 1e-7 and worst_fval <= 1e-12,
        f"anticevian needle: spread {worst_spread:.2e} (<=1e-6 R), "
        f"concentricity {worst_conc:.2e}, X4X6 residual {worst_line:.2e} "
        f"(<=1e-8), formula match {worst_formula:.2e} (<=1e-7), "
        f"functional {worst_fval:.2e} (<=1e-12), 200 triangles",
    )


def test_criterion_10_phyperbola():
    rng = np.random.default_rng(1010)
    worst_member = 0.0
    worst_gap = 0.0
    worst_area = 0.0
    done = 0
    while done < 500:
        t = random_triangle(rng)
        p = random_point_near(t, rng)
        try:
            tr = build_triad(t, "p_hyperbola", p)
        except DegenerateMember:
            continue
        q = second_common_point(tr)
        s = t.scale()
        for m in tr.members:
            worst_member = max(
                worst_member,
                abs(abs(distance(q, m.focus1) - distance(q, m.focus2)) - m.axis_length) / s,
            )
        gaps = sorted((abs(l) for l in tr.deltas), reverse=True)
        worst_gap = max(worst_gap, abs(gaps[0] - gaps[1] - gaps[2]) / s)
        a1, a2 = equal_area_check(tr)
        worst_area = max(worst_area, abs(a1 - a2) / max(a1, a2))
        done += 1
    _report(
        10,
        worst_member <= 1e-8 and worst_gap <= 1e-10 and worst_area <= 1e-9,
        f"P-hyperbola: second point residual {worst_member:.2e} (<=1e-8), "
        f"gap identity {worst_gap:.2e} (<=1e-10), equal areas {worst_area:.2e} "
        f"(<=1e-9), 500 trials",
    )


def test_criterion_11_appendix():
    rng = np.random.default_rng(1111)
    worst = {}
    for name in BLOCK_NAMES:
        w = 0.0
        done = 0
        while done < 10:
            t = random_triangle(rng)
            p = None
            if name in ("phyp_member", "pstar_conic"):
                p = random_point_near(t, rng)
            try:
                w = max(w, check_appendix(name, t, p))
            except (ConstructionFailed, DegenerateMember):
                continue
            done += 1
        worst[name] = w
    bad = {k: v for k, v in worst.items() if v > 1e-6}
    _report(
        11,
        not bad,
        "appendix blocks (10 triangles each): "
        + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
        + " (all <=1e-6)",
    )


def test_criterion_12_x55_conjecture_evidence():
    rng = np.random.default_rng(1212)
    worst_circ = 0.0
    worst_x7 = 0.0
    for _ in range(500):
        t = random_triangle(rng)
        rep = x55_conjecture_check(t)
        worst_circ = max(
            worst_circ,
            rep.circle_spread / rep.circumradius,
            rep.concentricity_error / rep.circumradius,
        )
        worst_x7 = max(worst_x7, rep.x7_match_error)
    _report(
        12,
        worst_circ <= 1e-6 and worst_x7 <= 1e-7,
        f"X55 conjecture evidence: circle-ness/concentricity {worst_circ:.2e} "
        f"(<=1e-6 R), circumcenter-vs-X7 {worst_x7:.2e} (<=1e-7), 500 trials "
        "(non-blocking evidence, reported as observed)",
    )


def test_criterion_13_full_suite_cli(tmp_path, cli_env):
    t0 = time.perf_counter()
    r1 = subprocess.run(
        [sys.executable, "-m", "triconic.cli", "--threads", "1", "verify",
         "--prop", "all", "--seed", "42", "--report", "rep1.json"],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    r8 = subprocess.run(
        [sys.executable, "-m", "triconic.cli", "--threads", "8", "verify",
         "--prop", "all", "--seed", "42", "--report", "rep8.json"],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True,
    )
    exited_ok = r1.returncode == 0 and r8.returncode == 0
    # A child that failed has no report to compare; show its stderr instead.
    same = exited_ok and (
        (tmp_path / "rep1.json").read_bytes() == (tmp_path / "rep8.json").read_bytes()
    )
    stderr = "" if exited_ok else f"; stderr: {r1.stderr.strip()} | {r8.stderr.strip()}"
    _report(
        13,
        exited_ok and elapsed < 120.0 and same,
        f"full suite: exit {r1.returncode}/{r8.returncode}, {elapsed:.1f}s "
        f"(<120s), reports byte-identical across thread counts{stderr}",
    )
