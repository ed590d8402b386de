"""Convex bodies with a flat floor, of two kinds.

- SubPrism2D: the 2D region under a concave top function over [0, 1].
- LinearLayerBody: CH(F x {0}, (a + c F) x {H}), the hull of a floor F and
  its copy dilated by c and shifted by a at height H.  Its layers dilate
  linearly from F to the top.  c = 0 gives a mountain CH(F + apex), c = 1
  a prism F x [0, H], any other c a frustum; the reference tetrahedron is
  the mountain over a triangle with its apex above a floor vertex.

Constructors normalize to unit volume (and, except for the frustum and the
tetrahedron, to unit floor volume); the applied scales are recorded.  Floor
polygons are stored with their centroid at the origin, except the
tetrahedron's, which keeps its reference coordinates.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .topfunctions import (PiecewiseLinearTop, QuadraticTop, TopFunction,
                           constant_top, mountain_top, triangle_top)

VOLUME_TOL = 1e-12


# ---------------------------------------------------------------------------
# Floor polygons

def normalize_floor_polygon(vertices):
    """Return (polygon, scale): ccw convex polygon with area 1 and centroid 0.

    vertices: iterable of (x, y).  Raises on degenerate input.
    """
    pts = [(float(x), float(y)) for (x, y) in vertices]
    if len(pts) < 3:
        raise ValueError("floor polygon needs at least 3 vertices")
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    area2 = sum(pts[i][0] * pts[(i + 1) % len(pts)][1]
                - pts[(i + 1) % len(pts)][0] * pts[i][1] for i in range(len(pts)))
    if area2 <= 0:
        raise ValueError("floor polygon is degenerate")
    area = area2 / 2
    gx = gy = 0.0
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        w = x0 * y1 - x1 * y0
        gx += (x0 + x1) * w
        gy += (y0 + y1) * w
    gx /= 6 * area
    gy /= 6 * area
    s = 1.0 / math.sqrt(area)
    return tuple(((x - gx) * s, (y - gy) * s) for (x, y) in pts), s


def polygon_area(polygon) -> float:
    n = len(polygon)
    return 0.5 * sum(polygon[i][0] * polygon[(i + 1) % n][1]
                     - polygon[(i + 1) % n][0] * polygon[i][1] for i in range(n))


UNIT_SQUARE_FLOOR = normalize_floor_polygon(
    [(0, 0), (1, 0), (1, 1), (0, 1)])[0]
UNIT_TRIANGLE_FLOOR = normalize_floor_polygon(
    [(0, 0), (1, 0), (0.5, 1)])[0]


def regular_polygon_floor(k: int):
    """Unit-area regular k-gon, centroid at the origin."""
    raw = [(math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k))
           for i in range(k)]
    return normalize_floor_polygon(raw)[0]


# ---------------------------------------------------------------------------
# Body kinds

@dataclass(frozen=True)
class SubPrism2D:
    """Region under a top function, floor [0, 1] x {0}."""
    top: TopFunction
    dimension = 2
    kind = "subprism2d"
    floor = ((0.0, 0.0), (1.0, 0.0))
    floor_vol = 1.0


@dataclass(frozen=True)
class LinearLayerBody:
    """CH(F x {0}, (a + c F) x {H}).

    The layer at height t is (t/H) a + lam(t) F with
    lam(t) = 1 + (c - 1) t / H.  floor is F: the endpoints of a segment on
    the x-axis in 2D, a ccw polygon in 3D.  kind names the family for the
    JSON descriptor; h and scale are the frustum's pre-scale height and the
    factor applied to all its coordinates.
    """
    kind: str
    floor: tuple
    c: float
    H: float
    a: tuple = (0.0, 0.0)
    h: float | None = None
    scale: float = 1.0
    dimension: int = field(init=False)
    floor_vol: float = field(init=False)

    def __post_init__(self):
        if len(self.floor) == 2:
            dim, vol = 2, self.floor[1][0] - self.floor[0][0]
        else:
            dim, vol = 3, polygon_area(self.floor)
        object.__setattr__(self, "dimension", dim)
        object.__setattr__(self, "floor_vol", vol)


BodyWithFloor = SubPrism2D | LinearLayerBody


def _unit_floor(floor_polygon):
    if floor_polygon is None:
        return UNIT_SQUARE_FLOOR
    return normalize_floor_polygon(floor_polygon)[0]


def frustum(h: float, d: int, floor_polygon=None) -> LinearLayerBody:
    """Unit-volume frustum with top dilation c_h = (2/h - 1)^(1/(d-1)).

    The hull of the two bases has volume slightly below 1 in 3D, so the body
    is rescaled isotropically; the floor then has area slightly above 1.
    """
    if not 0 < h < 2:
        raise ValueError("frustum height must lie in (0, 2)")
    if d not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    c = (2.0 / h - 1.0) ** (1.0 / (d - 1))
    if abs(c - 1.0) < 1e-12:
        c, vol = 1.0, h
    else:
        vol = h * (c ** d - 1.0) / (d * (c - 1.0))
    s = vol ** (-1.0 / d)
    if d == 2:
        floor = ((-0.5 * s, 0.0), (0.5 * s, 0.0))
    else:
        floor = tuple((x * s, y * s) for (x, y) in _unit_floor(floor_polygon))
    return LinearLayerBody("frustum", floor, c, h * s, a=(0.0,) * (d - 1),
                           h=h, scale=s)


def mountain3d(floor_polygon=None, apex_xy=(0.0, 0.0)) -> LinearLayerBody:
    """CH(floor + apex); floor area 1, apex height 3 for unit volume."""
    return LinearLayerBody("mountain", _unit_floor(floor_polygon), 0.0, 3.0,
                           a=tuple(apex_xy))


def prism3d(floor_polygon=None) -> LinearLayerBody:
    """floor x [0, 1]; floor area 1."""
    return LinearLayerBody("prism", _unit_floor(floor_polygon), 1.0, 1.0)


def tetrahedron() -> LinearLayerBody:
    """Reference tetrahedron (0,0,0), (1,0,0), (0,1,0), (0,0,6): unit
    volume, floor area 1/2, apex height 6 above the floor vertex (0, 0)."""
    return LinearLayerBody("tetrahedron", ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
                           0.0, 6.0)


# ---------------------------------------------------------------------------
# Layer and below-level volumes

def layer_dilation(body: LinearLayerBody, t):
    """lam(t) = 1 + (c - 1) t / H, the dilation of the floor in the layer at
    height t (t may be an array)."""
    return 1.0 + (body.c - 1.0) * t / body.H


def max_height(body: BodyWithFloor) -> float:
    if isinstance(body, SubPrism2D):
        return body.top.max_height()
    return body.H


def floor_volume(body: BodyWithFloor) -> float:
    """(d-1)-volume of the floor (length in 2D, area in 3D)."""
    return body.floor_vol


def layer_volume(body: BodyWithFloor, t: float) -> float:
    """(d-1)-volume of the horizontal slice at height t (0 above the body)."""
    if t < 0:
        raise ValueError("height must be >= 0")
    if t > max_height(body):
        return 0.0
    if isinstance(body, SubPrism2D):
        return body.top.level_width(t)
    return body.floor_vol * layer_dilation(body, t) ** (body.dimension - 1)


def below_volume(body: BodyWithFloor, t: float) -> float:
    """Volume of the body below height t (equals 1 at the top)."""
    if t < 0:
        raise ValueError("height must be >= 0")
    t = min(t, max_height(body))
    if isinstance(body, SubPrism2D):
        return 1.0 - body.top.area_above(t)
    if body.c == 1.0:
        return body.floor_vol * t
    d = body.dimension
    return (body.floor_vol * body.H * (layer_dilation(body, t) ** d - 1.0)
            / (d * (body.c - 1.0)))


def mean_height(body: BodyWithFloor) -> float:
    """Exact expected height of a uniform point in a unit-volume body."""
    if isinstance(body, SubPrism2D):
        return float(body.top.integral_sq()) / 2
    d, c, H = body.dimension, body.c, body.H
    if c == 1.0:
        return body.floor_vol * H * H / 2
    # int t lam(t)^(d-1) dt over [0, H], substituting lam for t
    inner = (H / (c - 1.0)) ** 2 * ((c ** (d + 1) - 1.0) / (d + 1)
                                    - (c ** d - 1.0) / d)
    return body.floor_vol * inner


# ---------------------------------------------------------------------------
# JSON descriptors

def _frac_pair(x: Fraction):
    f = Fraction(x)
    return [str(f.numerator), str(f.denominator)]


def _top_to_json(top: TopFunction) -> dict:
    if isinstance(top, QuadraticTop):
        return {"kind": "quadratic"}
    return {"kind": "pwl",
            "knots": [[_frac_pair(x), _frac_pair(y)] for (x, y) in top.knots]}


def _top_from_json(d: dict) -> TopFunction:
    if d["kind"] == "quadratic":
        return QuadraticTop()
    if d["kind"] == "pwl":
        knots = tuple((Fraction(int(x[0]), int(x[1])), Fraction(int(y[0]), int(y[1])))
                      for (x, y) in d["knots"])
        return PiecewiseLinearTop(knots)
    raise ValueError(f"unknown top function kind {d['kind']!r}")


def body_to_json(body: BodyWithFloor) -> dict:
    """Descriptor that body_from_json turns back into the body: the kind and
    the arguments of its constructor."""
    d = {"kind": body.kind, "dimension": body.dimension}
    if isinstance(body, SubPrism2D):
        d["top"] = _top_to_json(body.top)
        return d
    if body.h is not None:
        d["h"] = body.h
    if body.dimension == 3 and body.kind != "tetrahedron":
        d["floor"] = [list(v) for v in body.floor]
    if body.kind == "mountain":
        d["apex"] = [*body.a, body.H]
    return d


def body_from_json(d: dict) -> BodyWithFloor:
    kind = d.get("kind")
    if kind == "subprism2d":
        return SubPrism2D(_top_from_json(d["top"]))
    if kind == "mountain":
        floor = d.get("floor")
        apex = d.get("apex", [0.0, 0.0, 3.0])
        return mountain3d(floor, apex_xy=(apex[0], apex[1]))
    if kind == "prism":
        return prism3d(d.get("floor"))
    if kind == "frustum":
        return frustum(d["h"], d["dimension"], d.get("floor"))
    if kind == "tetrahedron":
        return tetrahedron()
    raise ValueError(f"unknown body kind {kind!r}")


BUILTIN_BODIES = {
    "triangle": lambda: SubPrism2D(triangle_top()),
    "square": lambda: SubPrism2D(constant_top()),
    "parabola": lambda: SubPrism2D(QuadraticTop()),
    "mountain2d": lambda: SubPrism2D(mountain_top(Fraction(1, 2))),
    "mountain3d": mountain3d,
    "prism3d": prism3d,
    "tetrahedron": tetrahedron,
}


def builtin_body(name: str) -> BodyWithFloor:
    """Resolve a builtin body name; 'frustum2d:h' / 'frustum3d:h' take a height."""
    if name in BUILTIN_BODIES:
        return BUILTIN_BODIES[name]()
    if name.startswith("frustum2d:"):
        return frustum(float(name.split(":", 1)[1]), 2)
    if name.startswith("frustum3d:"):
        return frustum(float(name.split(":", 1)[1]), 3)
    raise ValueError(f"unknown builtin body {name!r}; known: "
                     f"{', '.join(sorted(BUILTIN_BODIES))}, frustum2d:<h>, frustum3d:<h>")


def load_body(spec: str) -> BodyWithFloor:
    """Path to a JSON descriptor file, or else a builtin name."""
    if os.path.exists(spec):
        with open(spec) as fh:
            d = json.load(fh)
        try:
            return body_from_json(d)
        except KeyError as exc:
            raise ValueError(
                f"body descriptor {spec} lacks the key {exc}") from None
    return builtin_body(spec)
