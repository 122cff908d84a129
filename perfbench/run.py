#!/usr/bin/env python3
"""The triconic benchmark.

Runs one workload through the package's public functions in this process
(closed loop, at most two worker threads), checks every output with the
independent computations in checks.py, and prints as its last line a JSON
object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload regions|loci --seed N \
        --seconds S --trace 0|1

With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run (see tracer.py) and the tracing overhead.
The package is imported from src/ next to this directory; nothing has to
be installed.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("regions", "loci"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "triconic" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import numpy
    import scipy
    import triconic
    from triconic import kernels

    import workloads

    print(
        f"# triconic benchmark: workload={args.workload} seed={args.seed} "
        f"trace={args.trace} backend={kernels.BACKEND} tol={triconic.get_tol()} "
        f"cores={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__}"
    )
    measure = workloads.traced if args.trace else workloads.untraced
    run, metrics = measure(args.workload, args.seed, args.seconds)
    print(
        json.dumps(
            {
                "correct": not run.wrong,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
