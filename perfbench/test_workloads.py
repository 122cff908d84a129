"""Tests of how the benchmark scales its times by its calibrations.

Run with:  python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from calibration import CALIBRATION_S  # noqa: E402


def _calibrations_used(start, end):
    """The mean calibration time `Run.scaled` divides by, for calibrations
    at t = 0, 1, ..., 9 that each took t + 1 units."""
    run = workloads.Run()
    run.calibrations = [(float(t), float(t + 1)) for t in range(10)]
    return (end - start) * CALIBRATION_S / run.scaled(start, end) - 1


@pytest.mark.parametrize(
    "start, end, used",
    [
        (3.4, 3.6, [3, 4]),  # a short sample: its two neighbours
        (3.0, 4.0, [1, 2, 3, 4, 5, 6]),  # within twice its duration
        (8.7, 8.8, [8, 9]),
        (9.5, 9.6, [9]),  # no calibration after it
        (-0.2, -0.1, [0]),  # none before it
    ],
)
def test_scaled_uses_neighbouring_calibrations(start, end, used):
    assert _calibrations_used(start, end) == pytest.approx(sum(used) / len(used))
