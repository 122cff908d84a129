"""Command line interface.

Subcommands: construct, classify, verify, locus, regions, render.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import config
from .errors import TriconicError
from .geom import Point2, Triangle


def _parse_triangle(text: str) -> Triangle:
    parts = text.replace(";", " ").split()
    if len(parts) != 3:
        raise ValueError(f"triangle needs three 'x,y' pairs, got {text!r}")
    pts = []
    for part in parts:
        x, y = part.split(",")
        pts.append(Point2(float(x), float(y)))
    return Triangle(*pts)


def _parse_bbox(text: str) -> tuple[float, float, float, float]:
    """"xmin,xmax,ymin,ymax": four finite numbers, xmin < xmax, ymin < ymax."""
    try:
        xmin, xmax, ymin, ymax = (float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--bbox needs four numbers xmin,xmax,ymin,ymax, got {text!r}") from None
    # False for nan too.
    if not (-math.inf < xmin < xmax < math.inf and -math.inf < ymin < ymax < math.inf):
        raise ValueError(f"--bbox needs finite xmin < xmax and ymin < ymax, got {text!r}")
    return xmin, xmax, ymin, ymax


def _parse_point(text: str) -> Point2:
    x, y = text.split(",")
    return Point2(float(x), float(y))


_TRIAD_ALIASES = {
    "v-ell": "v_ellipse",
    "p-ell": "p_ellipse",
    "v-hyp": "v_hyperbola",
    "p-hyp": "p_hyperbola",
}


def _cmd_construct(args) -> int:
    from .centers import CENTER_IDS, classic_center
    from .scene import scene_for_triad

    t = _parse_triangle(args.triangle)
    kind = _TRIAD_ALIASES[args.triad]
    p = _parse_point(args.point) if args.point else None
    if kind.startswith("p_") and p is None:
        print("error: --point is required for P-triads", file=sys.stderr)
        return 2
    scene = scene_for_triad(t, kind, p)
    for cid in args.center or ():
        if cid not in CENTER_IDS:
            print(f"error: unknown center {cid!r} (known: {', '.join(CENTER_IDS)})",
                  file=sys.stderr)
            return 2
        if any(lbl == cid for lbl, _ in scene.points):
            continue
        scene.add_point(cid, classic_center(t, cid))
    with open(args.out, "w") as fh:
        fh.write(scene.dumps())
    print(f"wrote {args.out}")
    return 0


def _cmd_classify(args) -> int:
    from .conic import center as conic_center, classify
    from .errors import NoFiniteCenter
    from .scene import Scene

    with open(args.scene) as fh:
        scene = Scene.loads(fh.read())
    if scene.triads:
        # The class and center stored with a triad were decided in the
        # frame of its fit; its plane coefficients would be reclassified.
        triad = scene.triads[0]
        print(triad["six_point_class"])
        cen = triad["six_point_center"]
    elif scene.conics:
        conic = scene.conics[0]
        print(classify(conic).value)
        try:
            cen = conic_center(conic).as_tuple()
        except NoFiniteCenter:
            cen = None
    else:
        print("error: scene has no conic to classify", file=sys.stderr)
        return 2
    print("center none" if cen is None else f"center ({cen[0]:.12g},{cen[1]:.12g})")
    return 0


def _cmd_verify(args) -> int:
    from .verify import (
        PROPOSITION_IDS,
        format_report,
        make_report,
        run_proposition,
        run_results,
        timings,
    )

    if args.threads < 1:
        print(f"error: --threads must be at least 1, not {args.threads}", file=sys.stderr)
        return 2
    if args.prop == "all":
        results = run_results(seed=args.seed, trials=args.trials, threads=args.threads)
    else:
        if args.prop not in PROPOSITION_IDS:
            print(f"error: unknown proposition {args.prop!r}", file=sys.stderr)
            return 2
        results = [run_proposition(args.prop, seed=args.seed, trials=args.trials)]
    report = make_report(args.seed, results)
    print(format_report(report))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"report written to {args.report}")
    if args.timings:
        sidecar = {"seed": args.seed, "threads": args.threads, "timings": timings(results)}
        with open(args.timings, "w") as fh:
            json.dump(sidecar, fh, indent=1)
        print(f"timings written to {args.timings}")
    return 0 if report["all_pass"] else 1


def _cmd_locus(args) -> int:
    from .loci import (
        PLANE_CURVES,
        sample_locus_ostar,
        sample_locus_x478,
        trace_zero_set,
    )

    if args.samples < 1:
        print(f"error: --samples must be at least 1, not {args.samples}", file=sys.stderr)
        return 2
    if args.kind in ("x478", "ostar"):
        if args.kind == "x478":
            samples = sample_locus_x478(args.samples)
        elif not args.triangle:
            print("error: --triangle required for the ostar locus", file=sys.stderr)
            return 2
        else:
            samples, _ = sample_locus_ostar(_parse_triangle(args.triangle), args.samples)
        payload = [
            {
                "parameter": s.parameter,
                "driver": [s.driver.x, s.driver.y],
                "center": [s.center.x, s.center.y],
                "implicit_residual": s.implicit_residual,
            }
            for s in samples
        ]
    elif args.kind.startswith("zero-set:"):
        curve = args.kind.split(":", 1)[1]
        if curve not in PLANE_CURVES:
            print(f"error: zero-set tracing supports plane curves, not {curve!r}", file=sys.stderr)
            return 2
        bbox = _parse_bbox(args.bbox) if args.bbox else (-1.5, 1.5, -1.5, 1.5)
        polys = trace_zero_set(
            PLANE_CURVES[curve],
            bbox,
            n_seeds=max(32, int(math.sqrt(args.samples)) * 4),
        )
        payload = [[[q.x, q.y] for q in line] for line in polys]
    else:
        print(f"error: unknown locus kind {args.kind!r}", file=sys.stderr)
        return 2
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
    print(f"wrote {args.out}")
    return 0


def _cmd_regions(args) -> int:
    from .loci import region_map
    from .render import emit_ppm

    kind = {
        "v-ell": "v_ellipse_over_C",
        "p-ell": "p_ellipse_over_P",
        "p-hyp": "p_hyperbola_over_P",
    }.get(args.kind)
    if kind is None:
        print(f"error: unknown region kind {args.kind!r}", file=sys.stderr)
        return 2
    t = _parse_triangle(args.triangle)
    nx, ny = (int(v) for v in args.grid.lower().split("x"))
    bbox = _parse_bbox(args.bbox) if args.bbox else None
    grid = region_map(t, kind, (nx, ny), bbox)
    with open(args.out, "w") as fh:
        fh.write(emit_ppm(grid))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {"bbox": list(grid.bbox), "nx": grid.nx, "ny": grid.ny,
                 "cells": [list(row) for row in grid.cells]},
                fh,
            )
    print(f"wrote {args.out}")
    return 0


def _cmd_render(args) -> int:
    from .render import emit_svg
    from .scene import Scene

    with open(args.scene) as fh:
        scene = Scene.loads(fh.read())
    svg = emit_svg(scene)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="triconic",
        description="Triangle-conic constructions: triads, six-point conics, "
        "loci, region maps and the proposition suite.",
    )
    ap.add_argument("--tol", type=float, default=None, help="global relative tolerance")
    ap.add_argument(
        "--threads", type=int, default=1,
        help="worker threads for verify --prop all: the same report, not faster "
        "today (the checks hold the GIL)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a triad scene")
    p.add_argument("--triangle", required=True, help='"x1,y1 x2,y2 x3,y3"')
    p.add_argument("--triad", required=True, choices=sorted(_TRIAD_ALIASES))
    p.add_argument("--point", default=None, help='"x,y" (P-triads)')
    p.add_argument(
        "--center", action="append", default=None,
        help="label a catalog center in the scene (repeatable), e.g. X176",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("classify", help="classify a scene's six-point conic")
    p.add_argument("--scene", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run the proposition suite")
    p.add_argument("--prop", default="all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument(
        "--timings", default=None,
        help="write each proposition's draw and check seconds here (JSON); "
        "the report itself carries no timings",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("locus", help="sample a locus or trace a zero set")
    p.add_argument("--kind", required=True, help="x478 | ostar | zero-set:<curve>")
    p.add_argument("--samples", type=int, default=120)
    p.add_argument("--triangle", default=None)
    p.add_argument("--bbox", default=None, help='"xmin,xmax,ymin,ymax"')
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_locus)

    p = sub.add_parser("regions", help="conic-type region map (PPM)")
    p.add_argument("--kind", required=True, help="v-ell | p-ell | p-hyp")
    p.add_argument("--triangle", required=True)
    p.add_argument("--grid", default="64x64")
    p.add_argument("--bbox", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--json", default=None, help="also write the JSON grid here")
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("render", help="render a scene to SVG")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.tol is not None:
        try:
            config.set_tol(args.tol)
        except ValueError as exc:
            print(f"error: --tol: {exc}", file=sys.stderr)
            return 2
    try:
        config.get_tol()  # without --tol, reads and checks TRICONIC_TOL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # --threads is honored by batch commands; parsing it globally keeps the
    # interface uniform.
    try:
        return args.func(args)
    except (TriconicError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
