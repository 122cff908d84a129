"""JSON scene format.

A scene bundles a triangle with optional driver point, triads, raw conics,
circles, labeled points and polylines.  Serialization uses plain floats
(shortest round-trip representation, exact for doubles); parsing then
re-serializing a scene is a fixpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .conic import Conic
from .centers import Circle
from .geom import Point2, Triangle
from .triads import ConicTriad, build_triad, six_point_conic, triad_vertices


@dataclass
class Scene:
    triangle: Triangle | None = None
    p: Point2 | None = None
    triads: list[dict] = field(default_factory=list)
    conics: list[Conic] = field(default_factory=list)
    circles: list[Circle] = field(default_factory=list)
    points: list[tuple[str, Point2]] = field(default_factory=list)
    polylines: list[list[Point2]] = field(default_factory=list)

    def add_point(self, label: str, p: Point2) -> None:
        if any(lbl == label for lbl, _ in self.points):
            raise ValueError(f"duplicate point label {label!r}")
        self.points.append((label, p))

    def add_triad(self, tr: ConicTriad) -> None:
        rep = six_point_conic(tr)
        self.triads.append(
            {
                "kind": tr.kind,
                "p": [tr.p.x, tr.p.y] if tr.p is not None else None,
                "deltas": list(tr.deltas),
                "members": [
                    None
                    if m is None
                    else {
                        "focus1": [m.focus1.x, m.focus1.y],
                        "focus2": [m.focus2.x, m.focus2.y],
                        "axis_length": m.axis_length,
                        "kind": m.kind,
                    }
                    for m in tr.members
                ],
                "vertices": [[v.x, v.y] for v in triad_vertices(tr)],
                "six_point_conic": _conic_json(rep.conic),
                "six_point_class": rep.conic_class.value,
                "six_point_center": [rep.center.x, rep.center.y]
                if rep.center is not None
                else None,
            }
        )

    def to_json(self) -> dict:
        return {
            "triangle": None
            if self.triangle is None
            else {
                "a": [self.triangle.a.x, self.triangle.a.y],
                "b": [self.triangle.b.x, self.triangle.b.y],
                "c": [self.triangle.c.x, self.triangle.c.y],
            },
            "p": None if self.p is None else [self.p.x, self.p.y],
            "triads": self.triads,
            "conics": [_conic_json(c) for c in self.conics],
            "circles": [
                {"cx": c.center.x, "cy": c.center.y, "r": c.radius}
                for c in self.circles
            ],
            "points": [{"label": lbl, "xy": [p.x, p.y]} for lbl, p in self.points],
            "polylines": [[[q.x, q.y] for q in line] for line in self.polylines],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Scene":
        sc = cls()
        if data.get("triangle"):
            td = data["triangle"]
            sc.triangle = Triangle(
                Point2(*td["a"]), Point2(*td["b"]), Point2(*td["c"])
            )
        if data.get("p"):
            sc.p = Point2(*data["p"])
        sc.triads = list(data.get("triads", []))
        for trj in sc.triads:
            if trj.get("six_point_conic"):
                _conic_from_json(trj["six_point_conic"])
        sc.conics = [_conic_from_json(cj) for cj in data.get("conics", [])]
        sc.circles = [
            Circle(Point2(cj["cx"], cj["cy"]), cj["r"]) for cj in data.get("circles", [])
        ]
        for pj in data.get("points", []):
            sc.add_point(pj["label"], Point2(*pj["xy"]))
        sc.polylines = [
            [Point2(*q) for q in line] for line in data.get("polylines", [])
        ]
        return sc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1)

    @classmethod
    def loads(cls, text: str) -> "Scene":
        return cls.from_json(json.loads(text))

    def is_empty(self) -> bool:
        return (
            self.triangle is None
            and not self.triads
            and not self.conics
            and not self.circles
            and not self.points
            and not self.polylines
        )


def _conic_json(c: Conic) -> dict:
    return {"coeffs": list(c.coeffs()), "frame": "cartesian"}


def _conic_from_json(data: dict) -> Conic:
    """The Conic of a scene's conic entry; ValueError unless its frame is
    Cartesian, the only one scenes hold."""
    frame = data.get("frame", "cartesian")
    if frame != "cartesian":
        raise ValueError(f"scene conic in frame {frame!r}: only 'cartesian' is supported")
    return Conic.from_coeffs(data["coeffs"])


def scene_for_triad(t: Triangle, kind: str, p: Point2 | None = None) -> Scene:
    """Standard construction scene: triangle, triad, six-point conic, and the
    kind's decorations (Soddy circles and centers for the V-hyperbola)."""
    from .centers import soddy, soddy_centers

    sc = Scene(triangle=t, p=p)
    tr = build_triad(t, kind, p)
    sc.add_triad(tr)
    for label, vertex in zip(("A", "B", "C"), t.vertices()):
        sc.add_point(label, vertex)
    if p is not None:
        sc.add_point("P", p)
    if kind == "v_hyperbola":
        cfg = soddy(t)
        sc.circles.append(cfg.inner)
        if cfg.outer_circle is not None:
            sc.circles.append(cfg.outer_circle)
        x175, x176 = soddy_centers(t)
        sc.add_point("X176", x176)
        if x175 is not None:
            sc.add_point("X175", x175)
    return sc
