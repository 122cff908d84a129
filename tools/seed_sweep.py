#!/usr/bin/env python3
"""Run the verify manifest over a range of seeds and list what fails.

    PYTHONPATH=src python tools/seed_sweep.py FIRST LAST [--trials N] [--prop ID ...] [--timings]

Runs every proposition (or only the named ones) at each seed from FIRST to
LAST, inclusive, at their default trials or at N, one seed at a time in
each of min(cpu count, seeds) worker processes.  Each failing proposition
prints one line, in seed order: the seed, its id, its max_residual
against the bound it must pass below, its crashed trials by exception type
and its witness configuration as JSON (replay it with
`verify.replay_witness`).  The last line counts the failures and the
propositions run, with the wall time.  With --timings, a table follows:
each proposition's draw and check seconds summed over the sweep (over all
workers), sorted by their total, largest first, with a line of the sums.
Exits 1 if anything failed.

A sweep of seeds 1-108 at default trials is about 11 s of work, about 6 s
of wall time on two cores, so it is a gate to run by hand, not part of the
test suite.
"""

import argparse
import functools
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from triconic import verify


def _seed_runs(seed: int, pids, trials) -> list:
    """Each proposition's result at seed: (pid, draw s, check s, failure
    line or None)."""
    out = []
    for pid in pids:
        r = verify.run_proposition(pid, seed, trials)
        line = None
        if not r.passed:
            bound = verify.EVIDENCE_BOUND if r.evidence else r.threshold
            line = (f"seed {seed} {pid}: max_residual {r.max_residual!r} over {bound!r}, "
                    f"crashed {r.crashed} {r.errors}, witness {json.dumps(r.witness)}")
        out.append((pid, r.draw_s, r.check_s, line))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", type=int)
    ap.add_argument("last", type=int)
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--prop", nargs="+", default=list(verify.PROPOSITION_IDS))
    ap.add_argument("--timings", action="store_true", help="print the summed draw and check seconds")
    args = ap.parse_args(argv)
    start, failed, runs = time.perf_counter(), 0, 0
    spent = {pid: [0.0, 0.0] for pid in args.prop}  # draw and check seconds
    seeds = range(args.first, args.last + 1)
    workers = max(1, min(os.cpu_count() or 1, len(seeds)))
    runs_at = functools.partial(_seed_runs, pids=args.prop, trials=args.trials)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        for results in pool.map(runs_at, seeds):
            for pid, draw, check, line in results:
                runs += 1
                spent[pid][0] += draw
                spent[pid][1] += check
                if line is not None:
                    failed += 1
                    print(line, flush=True)
    print(f"{failed} failing of {runs} proposition runs at seeds {args.first}-{args.last} "
          f"({time.perf_counter() - start:.1f} s)")
    if args.timings:
        print(f"{'proposition':40s} {'draw s':>9s} {'check s':>9s} {'total s':>9s}")
        for pid, (draw, check) in sorted(spent.items(), key=lambda kv: -sum(kv[1])):
            print(f"{pid:40s} {draw:9.4f} {check:9.4f} {draw + check:9.4f}")
        draw, check = (sum(v[k] for v in spent.values()) for k in (0, 1))
        print(f"{'all':40s} {draw:9.4f} {check:9.4f} {draw + check:9.4f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
