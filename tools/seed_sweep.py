#!/usr/bin/env python3
"""Run the verify manifest over a range of seeds and list what fails.

    PYTHONPATH=src python tools/seed_sweep.py FIRST LAST [--trials N] [--prop ID ...] [--timings]

Runs every proposition (or only the named ones) at each seed from FIRST to
LAST, inclusive, in this process, at their default trials or at N.  Each
failing proposition prints one line: the seed, its id, its max_residual
against the bound it must pass below, its crashed trials by exception type
and its witness configuration as JSON (replay it with
`verify.replay_witness`).  The last line counts the failures and the
propositions run, with the wall time.  With --timings, a table follows:
each proposition's draw and check seconds summed over the sweep, sorted
by their total, largest first, with a line of the sums.  Exits 1 if
anything failed.

A sweep of seeds 1-108 at default trials takes about 20 s, so it is a
gate to run by hand, not part of the test suite.
"""

import argparse
import json
import sys
import time

from triconic import verify


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
    for seed in range(args.first, args.last + 1):
        for pid in args.prop:
            r = verify.run_proposition(pid, seed, args.trials)
            runs += 1
            spent[pid][0] += r.draw_s
            spent[pid][1] += r.check_s
            if r.passed:
                continue
            failed += 1
            bound = verify.EVIDENCE_BOUND if r.evidence else r.threshold
            print(f"seed {seed} {pid}: max_residual {r.max_residual!r} over {bound!r}, "
                  f"crashed {r.crashed} {r.errors}, witness {json.dumps(r.witness)}", flush=True)
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
