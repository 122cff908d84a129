#!/usr/bin/env python3
"""The size of the `triconic` package in AST nodes, and its compile time.

    python tools/package_size.py SRC [SRC2]

SRC is a directory holding the `triconic` package, such as a checkout's
`src`.  For each tree the script prints the AST nodes (every node that
`ast.walk` visits) of each module and their total.  Given two trees, it
also prints each top-level definition (function, class or assignment;
a module's other statements count as "(other)") whose nodes changed,
with both counts and the change, the largest change first, and it
compiles every module of both in-process with `compile()`, over 60
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


def _definitions(source):
    """{name: AST nodes} of the top-level statements of source, by the
    function, class or assignment targets they define; the rest summed
    under "(other)"."""
    out = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = stmt.name
        elif isinstance(stmt, ast.Assign):
            name = " = ".join(ast.unparse(t) for t in stmt.targets)
        elif isinstance(stmt, ast.AnnAssign):
            name = ast.unparse(stmt.target)
        else:
            name = "(other)"
        out[name] = out.get(name, 0) + sum(1 for _ in ast.walk(stmt))
    return out


def _changed_definitions(trees):
    """(module, name, nodes before, nodes after) of each top-level
    definition whose nodes differ between the two trees, 0 where it is
    missing, the largest change first."""
    rows = []
    for module in sorted(set(trees[0]) | set(trees[1])):
        before, after = (_definitions(t[module]) if module in t else {} for t in trees)
        for name in set(before) | set(after):
            old, new = before.get(name, 0), after.get(name, 0)
            if old != new:
                rows.append((module, name, old, new))
    return sorted(rows, key=lambda r: (-abs(r[3] - r[2]), r[0], r[1]))


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
    changed = _changed_definitions(trees)
    print(f"top-level definitions changed: {len(changed)}")
    for module, name, old, new in changed:
        print(f"  {module:<14} {name:<36} {old:>7} {new:>7} {new - old:>+7}")
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
