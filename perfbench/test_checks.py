"""Tests of the benchmark's independent output checks.

Run with:  python3 -m pytest perfbench
"""

import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402

T345 = np.array([[0.0, 3.0], [4.0, 0.0], [0.0, 0.0]])
EQUILATERAL = np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, math.sqrt(3.0) / 2.0]])


def _triangle(tri):
    from triconic.geom import Point2, Triangle

    return Triangle(*(Point2(x, y) for x, y in tri))


def test_triad_vertices_on_sidelines_at_half_axis():
    p = np.array([1.0, 1.0])
    for kind in ("v_ellipse", "p_ellipse", "p_hyperbola"):
        v = checks.triad_vertices(T345, kind, p)
        d = checks.triad_axes(T345, kind, p)
        for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            mid = (T345[i] + T345[j]) / 2
            e = T345[i] - T345[j]
            for q in v[2 * k : 2 * k + 2]:
                w = q - mid
                assert abs(e[0] * w[1] - e[1] * w[0]) < 1e-12
                assert np.linalg.norm(w) == pytest.approx(abs(d[k]) / 2)


def test_v_ellipse_vertices_are_excircle_tangency_points():
    # The B-excircle of the 3-4-5 triangle touches the sideline BC at
    # distance s = 6 (the semiperimeter) from B = (4, 0).
    v = checks.triad_vertices(T345, "v_ellipse")
    assert any(np.allclose(q, [-2.0, 0.0]) for q in v)


def test_fit_conic_and_invariants():
    t = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
    ellipse = np.stack([3.0 + 2.0 * np.cos(t), -1.0 + np.sin(t)], axis=-1)
    coeffs, sv = checks.fit_conic(ellipse)
    assert sv[-1] < 1e-12 * sv[0]
    disc, detn = checks.conic_invariants(coeffs)
    assert disc > 0.1 and abs(detn) > 1e-3
    hyperbola = np.stack([1.0 / np.cos(t + 0.3), np.tan(t + 0.3)], axis=-1)
    disc, detn = checks.conic_invariants(checks.fit_conic(hyperbola)[0])
    assert disc < -0.1 and abs(detn) > 1e-3
    # Two crossing lines: degenerate.
    lines = np.array([[1, 1], [2, 2], [-3, -3], [1, -1], [2, -2], [-4, 4]], float)
    assert abs(checks.conic_invariants(checks.fit_conic(lines)[0])[1]) < 1e-12


def test_circumcenter():
    assert np.allclose(checks.circumcenter(T345), [2.0, 1.5])


def test_expected_classes_equilateral_center_is_circle_and_boundary_unjudged():
    center = EQUILATERAL.mean(axis=0)
    on_circle = checks.circumcenter(EQUILATERAL) + [0.0, 1.0 / math.sqrt(3.0)]
    judged, elliptic = checks.expected_region_classes(
        EQUILATERAL, "p_ellipse_over_P", np.array([center, on_circle])
    )
    # Center: a circle.  On the circumcircle: degenerate, so not judged.
    assert judged.tolist() == [True, False]
    assert elliptic[0]
    # A point on a side segment collapses a P-ellipse member.
    judged, _ = checks.expected_region_classes(
        EQUILATERAL, "p_ellipse_over_P", np.array([[0.1, 0.0]])
    )
    assert not judged[0]


def _fake_map(tri, kind, bbox, n):
    judged, elliptic = checks.expected_region_classes(
        tri, kind, checks.region_cell_centers(bbox, n, n)
    )
    flat = np.where(elliptic, "ellipse", "hyperbola")
    return [list(flat[j * n : (j + 1) * n]) for j in range(n)], judged


def test_region_cells_wrong_counts_flipped_and_degenerate_cells():
    bbox, n = (-5.0, 7.0, -4.5, 7.5), 16
    for kind in checks.REGION_TRIADS:
        cells, judged = _fake_map(T345, kind, bbox, n)
        count, wrong = checks.region_cells_wrong(T345, kind, bbox, n, n, cells)
        assert count == judged.sum() > 0.8 * n * n and not wrong.any()
        k = int(np.flatnonzero(judged)[0])
        j, i = divmod(k, n)
        cells[j][i] = "hyperbola" if cells[j][i] == "ellipse" else "ellipse"
        k2 = int(np.flatnonzero(judged)[1])
        j2, i2 = divmod(k2, n)
        cells[j2][i2] = "degenerate_two_lines"
        _, wrong = checks.region_cells_wrong(T345, kind, bbox, n, n, cells)
        assert np.flatnonzero(wrong).tolist() == [k, k2]


def test_region_check_agrees_with_program_on_untranslated_map():
    from triconic import loci

    t = _triangle(T345)
    for kind in loci.REGION_KINDS:
        grid = loci.region_map(t, kind, (24, 24))
        count, wrong = checks.region_cells_wrong(T345, kind, grid.bbox, 24, 24, grid.cells)
        assert count > 0.8 * 24 * 24 and not wrong.any()


def test_ppm_matches():
    cells = [["ellipse", "hyperbola"], ["hyperbola", "hyperbola"]]
    e, h = "1 2 3", "4 5 6"
    good = f"P3 2 2 255\n{h} {h}\n{e} {h}\n"
    assert checks.ppm_matches(good, cells)
    assert not checks.ppm_matches(f"P3 2 2 255\n{e} {h}\n{h} {h}\n", cells)
    assert not checks.ppm_matches(f"P3 2 2 255\n{h} {h}\n{e} {e}\n", cells)
    assert not checks.ppm_matches(f"P3 2 2 255\n{h} {h}\n{h} {h}\n", cells)
    assert not checks.ppm_matches(f"P3 2 2 255\n{h} {h}\n{e}\n", cells)


def test_pstar_check_equilateral_center():
    center = EQUILATERAL.mean(axis=0)
    assert checks.pstar_ok(EQUILATERAL, center)
    assert not checks.pstar_ok(EQUILATERAL, center + [1e-3, 0.0])


def test_circle_point_checks_accept_program_output_and_reject_perturbed():
    from triconic import loci

    tri = np.array([[0.1, 0.2], [1.3, 0.15], [0.5, 1.1]])
    t = _triangle(tri)
    pstar = loci.find_pstar_candidates(t)[0][0]
    assert checks.pstar_ok(tri, pstar)
    assert not checks.pstar_ok(tri, np.add(pstar, [1e-4, 0.0]))
    p1, p2 = (p.as_tuple() for p in loci.find_phyp_circle_points(t))
    assert checks.phyp_pair_ok(tri, p1, p2)
    assert not checks.phyp_pair_ok(tri, p1, p1)
    assert not checks.phyp_pair_ok(tri, p1, np.add(p2, [0.0, 1e-4]))


def test_x478_quartic_expanded_form_and_samples():
    from triconic import loci

    rng = np.random.default_rng(0)
    for x, y in rng.uniform(-1.0, 1.0, (20, 2)):
        assert checks.x478_quartic(x, y) == pytest.approx(loci.x478_quartic(x, y), abs=1e-12)
    # x = 0: y^2 (4y^2 - 8y + 2) = 0.
    assert checks.x478_quartic(0.0, 1.0 - math.sqrt(0.5)) == pytest.approx(0.0, abs=1e-15)
    # Each sample is (theta, C, center, residual).
    for s in loci.sample_locus_x478(30):
        assert checks.x478_sample_ok(*astuple(s)[1:3])
    _, c_vertex, (x, y), _ = astuple(loci.sample_locus_x478(5)[2])
    assert not checks.x478_sample_ok(c_vertex, (x, y + 1e-5))
    assert not checks.x478_sample_ok((0.0, 0.6), (x, y))


def test_ostar_arc_conics_pass_through_midpoints():
    arcs = checks.ostar_arc_conics(T345)
    for k in range(3):
        mid = (T345[(k + 1) % 3] + T345[(k + 2) % 3]) / 2
        for arc in arcs:
            assert checks.ostar_center_ok([arc], mid)
    assert not checks.ostar_center_ok(arcs, (50.0, 50.0))


def test_ostar_check_accepts_program_sweep_and_rejects_perturbed():
    from triconic import loci

    tri = np.array([[0.1, 0.2], [1.3, 0.15], [0.5, 1.1]])
    samples, _ = loci.sample_locus_ostar(_triangle(tri), 40)
    arcs = checks.ostar_arc_conics(tri)
    assert all(checks.ostar_center_ok(arcs, s.center.as_tuple()) for s in samples)
    c = samples[5].center
    assert not checks.ostar_center_ok(arcs, (c.x + 1e-5, c.y))


def test_zero_set_distance():
    from triconic.geom import Point2

    def circle(x, y):
        return x * x + y * y - 1.0

    bbox = (-2.0, 2.0, -2.0, 2.0)
    t = np.linspace(0.0, 2.0 * math.pi, 50)
    on = [[Point2(math.cos(a), math.sin(a)) for a in t]]
    assert checks.zero_set_max_distance(circle, on, bbox) < 1e-12
    off = [[Point2(1.001 * math.cos(a), 1.001 * math.sin(a)) for a in t]]
    assert checks.zero_set_max_distance(circle, off, bbox) == pytest.approx(1e-3 / 4, rel=1e-2)


class _Doc:
    def __init__(self, text):
        self.text = text

    def dumps(self):
        return self.text

    @classmethod
    def loads(cls, text):
        return cls(text + "x" if text.endswith("!") else text)


def test_scene_check():
    svg = '<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg"></svg>\n'
    assert checks.scene_ok(_Doc("{}"), _Doc, svg)
    assert not checks.scene_ok(_Doc("{}!"), _Doc, svg)
    assert not checks.scene_ok(_Doc("{}"), _Doc, svg.replace("</svg>", ""))
    assert not checks.scene_ok(_Doc("{}"), _Doc, "<html/>")


def test_scene_check_accepts_program_scene():
    from triconic import render, scene
    from triconic.geom import Point2

    sc = scene.scene_for_triad(_triangle(T345), "p_ellipse", Point2(1.0, 1.0))
    assert checks.scene_ok(sc, scene.Scene, render.emit_svg(sc))
