#!/usr/bin/env python3
"""Run the verify manifest over a range of seeds and list what fails.

    PYTHONPATH=src python tools/seed_sweep.py FIRST LAST [--trials N] [--prop ID ...]

Runs every proposition (or only the named ones) at each seed from FIRST to
LAST, inclusive, in this process, at their default trials or at N.  Each
failing proposition prints one line: the seed, its id, its max_residual
against the bound it must pass below, its crashed trials by exception type
and its witness configuration as JSON (replay it with
`verify.replay_witness`).  The last line counts the failures and the
propositions run, with the wall time.  Exits 1 if anything failed.

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
    args = ap.parse_args(argv)
    start, failed, runs = time.perf_counter(), 0, 0
    for seed in range(args.first, args.last + 1):
        for pid in args.prop:
            r = verify.run_proposition(pid, seed, args.trials)
            runs += 1
            if r.passed:
                continue
            failed += 1
            bound = verify.EVIDENCE_BOUND if r.evidence else r.threshold
            print(f"seed {seed} {pid}: max_residual {r.max_residual!r} over {bound!r}, "
                  f"crashed {r.crashed} {r.errors}, witness {json.dumps(r.witness)}", flush=True)
    print(f"{failed} failing of {runs} proposition runs at seeds {args.first}-{args.last} "
          f"({time.perf_counter() - start:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
