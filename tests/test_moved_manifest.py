"""Every check survives a similarity of its configurations.

Each proposition whose table has point columns (`triangle`, `p`, `ab`) is
drawn at seeds 42 and 1-4; its points are moved by a rotation, a scaling,
a translation or all three (the rotation also added to `angle`, the
direction of a ray), and the check is run again.  A moved point carries an
ulp of its position, which is |t| / size ulps of the triangle, so the
bound is scaled by max(1, |t| / size), as `_precision` in
test_frame_invariance.py scales its tolerance.  At seeds 5-8 every case
passes but P5.4 at seed 5 moved by (1e3, -1e3), a strict xfail.
"""

import functools
import math

import numpy as np
import pytest

from triconic import verify

SEEDS = (42, 1, 2, 3, 4)
POINT_COLUMNS = ("triangle", "p", "ab")

# (rotation, scale, translation) of each move.
MOVES = {
    "rotate": (0.7, 1.0, (0.0, 0.0)),
    "scale1e3": (0.0, 1e3, (0.0, 0.0)),
    "scale1e-3": (0.0, 1e-3, (0.0, 0.0)),
    "translate100": (0.0, 1.0, (100.0, 100.0)),
    "translate1e3": (0.0, 1.0, (1e3, -1e3)),
    "combined": (2.1, 50.0, (37.0, -12.0)),
}


@functools.cache
def _drawn(pid, seed):
    prop = verify._BY_ID[pid]
    return prop.draw(verify._prop_rng(pid, seed), prop.default_trials)[0]


def _moved(cfgs, move):
    """The table with its point columns moved by q -> scale R q + t, and
    the rotation added to `angle`."""
    angle, scale, (tx, ty) = move
    c, s = scale * math.cos(angle), scale * math.sin(angle)
    cols = {}
    for k, v in cfgs.cols.items():
        if k in POINT_COLUMNS:
            # The coordinates (x, y) are the second-to-last axis.
            x, y = np.moveaxis(v, -2, 0)
            v = np.moveaxis(np.array((c * x - s * y + tx, s * x + c * y + ty)), 0, -2)
        elif k == "angle":
            v = v + angle
        cols[k] = np.ascontiguousarray(v)
    return verify.ConfigTable(cfgs.n, cols)


def _with_points(pid):
    return any(k in POINT_COLUMNS for k in _drawn(pid, SEEDS[0]).cols)


MOVED = [pid for pid in verify.PROPOSITION_IDS if _with_points(pid)]


def _assert_within_bound(pid, move, seeds):
    prop = verify._BY_ID[pid]
    bound = verify.EVIDENCE_BOUND if prop.evidence else prop.threshold
    _, scale, (tx, ty) = MOVES[move]
    # The drawn triangles are of unit size.
    bound *= max(1.0, max(abs(tx), abs(ty)) / scale)
    for seed in seeds:
        cfgs = _drawn(pid, seed)
        res, errs = prop.run(cfgs)
        moved, moved_errs = prop.run(_moved(cfgs, MOVES[move]))
        assert {i: type(e) for i, e in moved_errs.items()} == {i: type(e) for i, e in errs.items()}, seed
        live = np.delete(np.arange(cfgs.n), list(errs))
        assert np.all(moved[live] <= bound), (seed, float(np.max(moved[live])), bound)


@pytest.mark.parametrize("move", sorted(MOVES))
@pytest.mark.parametrize("pid", MOVED)
def test_moved_check_stays_within_its_bound(pid, move):
    _assert_within_bound(pid, move, SEEDS)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="P5.4 at seed 5 moved by (1e3, -1e3): the "
                   "search finds trial 0's pair, whose check reads 1.0 against a moved bound of 1e-3 "
                   "(ROADMAP item 8)")
def test_p54_at_seed_5_moved_by_1e3_stays_within_its_bound():
    _assert_within_bound("P5.4-circle-pair", "translate1e3", (5,))


def test_every_point_table_is_moved():
    # Thirty-three propositions have point columns.
    assert len(MOVED) == 33
