"""JSON scene format.

A scene bundles a triangle with optional driver point, triads, raw conics,
circles, labeled points and polylines.  Serialization uses plain floats
(shortest round-trip representation, exact for doubles); parsing then
re-serializing a scene is a fixpoint.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .conic import Conic
from .centers import Circle
from .geom import Point2, Triangle, distance, midpoint
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
        """The scene of a JSON object; ValueError naming the first field
        that is missing or of the wrong type."""
        if not isinstance(data, dict):
            raise ValueError(f"a scene must be a JSON object, not {type(data).__name__}")
        sc = cls()
        if data.get("triangle"):
            td = _need(data["triangle"], dict, "triangle")
            sc.triangle = Triangle(*(_point(_key(td, v, "triangle"), f"triangle.{v}")
                                     for v in "abc"))
        if data.get("p"):
            sc.p = _point(data["p"], "p")
        sc.triads = [_triad_record(trj, where) for where, trj in _entries(data, "triads")]
        sc.conics = [_conic_from_json(cj, where) for where, cj in _entries(data, "conics")]
        for where, cj in _entries(data, "circles"):
            cx, cy, r = (_need(_key(cj, k, where), _NUMBER, f"{where}.{k}")
                         for k in ("cx", "cy", "r"))
            sc.circles.append(Circle(Point2(cx, cy), r))
        for where, pj in _entries(data, "points"):
            label = _need(_key(pj, "label", where), str, f"{where}.label")
            sc.add_point(label, _point(_key(pj, "xy", where), f"{where}.xy"))
        for where, line in _entries(data, "polylines", list):
            sc.polylines.append([_point(q, f"{where}[{i}]") for i, q in enumerate(line)])
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


def _conic_from_json(data: dict, where: str = "conic") -> Conic:
    """The Conic of a scene's conic entry, the field `where`; ValueError
    unless its frame is Cartesian, the only one scenes hold, and it has six
    coefficients."""
    frame = _need(data, dict, where).get("frame", "cartesian")
    if frame != "cartesian":
        raise ValueError(f"scene conic in frame {frame!r}: only 'cartesian' is supported")
    coeffs = _need(_key(data, "coeffs", where), list, f"{where}.coeffs")
    if len(coeffs) != 6:
        raise ValueError(f"scene field {where}.coeffs must hold six numbers")
    return Conic.from_coeffs([_need(c, _NUMBER, f"{where}.coeffs") for c in coeffs])


_NUMBER = (int, float)
_KINDS = {dict: "an object", list: "a list", str: "a string", _NUMBER: "a number"}


def _need(value, kind, where: str):
    """value, the scene field `where`; ValueError unless it is a kind (of
    _KINDS; JSON's true and false are none), and a number finite as a
    float (json reads NaN, Infinity and integers of any size)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"scene field {where} must be {_KINDS[kind]}")
    if kind is _NUMBER and not abs(value) <= sys.float_info.max:
        raise ValueError(f"scene field {where} must be a finite number")
    return value


def _key(obj: dict, key: str, where: str):
    """obj[key], of the scene object `where`; ValueError if it is missing."""
    if key not in obj:
        raise ValueError(f"scene field {where}.{key} is missing")
    return obj[key]


def _entries(data: dict, key: str, kind: type = dict) -> list:
    """(field name, entry) of each entry, a kind, of the scene list data[key]."""
    entries = _need(data.get(key, []), list, key)
    return [(f"{key}[{i}]", _need(e, kind, f"{key}[{i}]")) for i, e in enumerate(entries)]


def _triad_record(trj: dict, where: str) -> dict:
    """The triad record `where`; ValueError naming the first field that
    render or classify reads and that is missing or of the wrong type."""
    for i, v in enumerate(_need(_key(trj, "vertices", where), list, f"{where}.vertices")):
        _point(v, f"{where}.vertices[{i}]")
    if trj.get("p"):
        _point(trj["p"], f"{where}.p")
    for i, mj in enumerate(_need(trj.get("members", []), list, f"{where}.members")):
        at = f"{where}.members[{i}]"
        if mj is not None:
            for k in ("focus1", "focus2"):
                _point(_key(_need(mj, dict, at), k, at), f"{at}.{k}")
            _need(_key(mj, "axis_length", at), _NUMBER, f"{at}.axis_length")
            _need(_key(mj, "kind", at), str, f"{at}.kind")
    if trj.get("six_point_conic"):
        _conic_from_json(trj["six_point_conic"], f"{where}.six_point_conic")
        # render draws the conic from the fit of the six vertices.
        if len(trj["vertices"]) != 6:
            raise ValueError(f"scene field {where}.vertices must hold six points")
    _need(_key(trj, "six_point_class", where), str, f"{where}.six_point_class")
    if _key(trj, "six_point_center", where) is not None:
        _point(trj["six_point_center"], f"{where}.six_point_center")
    return trj


def _point(value, where: str) -> Point2:
    """The point of the scene field `where`, an [x, y] pair of numbers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"scene field {where} must be an [x, y] pair")
    return Point2(*(_need(v, _NUMBER, where) for v in value))


def scene_for_triad(t: Triangle, kind: str, p: Point2 | None = None) -> Scene:
    """Standard construction scene: triangle, triad, six-point conic, and the
    kind's decorations (Soddy circles and centers for the V-hyperbola; in
    the Soddy-line regime the line g = (l, m, n) as its double-line conic
    g g^T, that is (l x + m y + n)^2, with the circles on the sides as
    diameters, which it touches (P4.10) and which bring it into view)."""
    from .centers import soddy

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
        sc.add_point("X176", cfg.inner.center)
        if cfg.regime != "line":
            sc.circles.append(cfg.outer_circle)
            sc.add_point("X175", cfg.outer_circle.center)
        else:
            g = (cfg.outer_line.l, cfg.outer_line.m, cfg.outer_line.n)
            sc.conics.append(Conic(np.outer(g, g)))
            a, b, c = t.vertices()
            sc.circles += [Circle(midpoint(u, v), distance(u, v) / 2.0) for u, v in ((a, b), (b, c), (c, a))]
    return sc
