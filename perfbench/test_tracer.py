"""Tests of the benchmark's per-layer tracer.

Run with:  python3 -m pytest perfbench
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracer import SPANS, Tracer  # noqa: E402


def test_tracer_counts_internal_calls_and_restores_names():
    from triconic import centers, loci, triads
    from triconic.geom import Point2, Triangle

    originals = (loci.circumcircle, centers.circumcircle, triads.build_triad)
    t = Triangle(Point2(0.1, 0.2), Point2(1.3, 0.15), Point2(0.5, 1.1))
    with Tracer() as tracer:
        assert loci.circumcircle is not originals[0]
        t0 = time.perf_counter()
        loci.find_pstar_candidates(t)
        loci.trace_zero_set(loci.halftangent_sextic, (-1.0, 1.0, 0.3, 1.2), 16)
        wall = time.perf_counter() - t0
    assert (loci.circumcircle, centers.circumcircle, triads.build_triad) == originals

    m = tracer.metrics(["P3.2-pstar-unique-circle"])
    assert set(f"{s}.calls" for s in SPANS) <= set(m)
    assert m["loci.find_pstar_candidates.calls"][0] == 1
    # Called inside the search, through names imported into loci.
    assert m["centers.circumcircle.calls"][0] >= 1
    assert m["triads.build_triad.calls"][0] >= 1
    # The search traces its bracket curves, plus the direct call above.
    assert m["loci.trace_zero_set.calls"][0] >= 3
    assert m["loci.trace_zero_set.fn_evals"][0] > 17 * 17
    assert m["loci.circle_functional.evals_per_solve"][0] > 1
    assert m["verify.prop.P3.2-pstar-unique-circle.s"][0] == 0.0
    # Self times exclude traced children: over two top-level spans they add
    # up to their wall time, less the time spent outside any span.
    assert m["loci.find_pstar_candidates.self_s"][0] > 0.0
    total = sum(m[f"{s}.self_s"][0] for s in SPANS)
    assert 0.9 * wall < total <= wall
