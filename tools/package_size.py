#!/usr/bin/env python3
"""The size of the `triconic` package in AST nodes, and its compile time.

    python tools/package_size.py SRC [SRC2]

SRC is a directory holding the `triconic` package, such as a checkout's
`src`.  For each tree the script prints the AST nodes (every node that
`ast.walk` visits) of each module and their total.  Given two trees, it
also compiles every module of both in-process with `compile()`, over 60
rounds that alternate which tree goes first, and prints each tree's median
time a round with its quartiles and the number of rounds SRC2 was faster.
Standard library only.
"""

import ast
import pathlib
import statistics
import sys
import time

ROUNDS = 60


def _modules(src):
    """{module file name: source} of the triconic package under src."""
    files = sorted((pathlib.Path(src) / "triconic").glob("*.py"))
    if not files:
        sys.exit(f"no triconic package under {src}")
    return {f.name: f.read_text() for f in files}


def _nodes(source):
    return sum(1 for _ in ast.walk(ast.parse(source)))


def _compile_seconds(modules):
    start = time.perf_counter()
    for name, source in modules.items():
        compile(source, name, "exec")
    return time.perf_counter() - start


def _ms(times):
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"median {median * 1e3:.1f} ms (quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f})"


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    trees = [_modules(src) for src in argv]
    counts = [{name: _nodes(source) for name, source in mods.items()} for mods in trees]
    names = sorted(set().union(*counts))
    width = max(10, *(len(src) + 2 for src in argv))
    print(f"{'AST nodes':<16}" + "".join(f"{src:>{width}}" for src in argv))
    for name in names + ["total"]:
        row = [sum(c.values()) if name == "total" else c.get(name, 0) for c in counts]
        change = f"{row[1] - row[0]:>+10}" if len(row) == 2 else ""
        print(f"{name:<16}" + "".join(f"{n:>{width}}" for n in row) + change)
    if len(trees) == 1:
        return
    times, won = ([], []), 0
    for k in range(ROUNDS):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        got = {i: _compile_seconds(trees[i]) for i in order}
        for i in (0, 1):
            times[i].append(got[i])
        won += got[1] < got[0]
    print(f"compile(), {ROUNDS} alternating rounds:")
    for src, t in zip(argv, times):
        print(f"  {src}: {_ms(t)}")
    print(f"  {argv[1]} faster in {won} of {ROUNDS} rounds")


if __name__ == "__main__":
    main(sys.argv[1:])
