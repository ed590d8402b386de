"""Convex bodies with a flat floor, of two kinds.

- SubPrism2D: the 2D region under a concave top function over [0, 1].
- LinearLayerBody: CH(F x {0}, (a + c F) x {H}), the hull of a floor F and
  its copy dilated by c and shifted by a at height H.  Its layers dilate
  linearly from F to the top.  c = 0 gives a mountain CH(F + apex), c = 1
  a prism F x [0, H], any other c a frustum; the reference tetrahedron is
  the mountain over a triangle with its apex above a floor vertex.

Constructors normalize to unit volume (and, except for the frustum and the
tetrahedron, to unit floor volume).  Floor polygons are stored with their
centroid at the origin, except the tetrahedron's, which keeps its reference
coordinates.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import convex_floor
from .topfunctions import (PiecewiseLinearTop, QuadraticTop, TopFunction,
                           constant_top, mountain_top, triangle_top)


# ---------------------------------------------------------------------------
# Descriptor readers: each key, and the h of frustum2d:<h>, passes one of them

def _real(key, v, lo=-1e308, hi=1e308):
    """v, a real number but not a bool, in (lo, hi): by default, finite."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not lo < v < hi:
        raise ValueError(f"{key} must be a real number in ({lo:g}, {hi:g}), not {v!r}")
    return v


def _point(key, v, read=_real, sizes=(2,)):
    """read(key, x) for each x of v, a sequence with a length in sizes."""
    if not isinstance(v, list | tuple | np.ndarray) or len(v) not in sizes:
        raise ValueError(f"{key} must be a list of {' or '.join(map(str, sizes))}, not {v!r}")
    return [read(key, x) for x in v]


def _knot_part(key, v):
    """Fraction(num, den) of v = [num, den], ints or decimal strings of ints."""
    with contextlib.suppress(ValueError, ZeroDivisionError):
        if type(v) is list and len(v) == 2 and all(type(p) in (int, str) for p in v):
            return Fraction(int(v[0]), int(v[1]))
    raise ValueError(f"{key} part {v!r} must be [num, den] of ints or int strings, den != 0")


def _choice(key, v, options):
    if v not in options:
        raise ValueError(f"{key} must be {' or '.join(map(repr, options))}, not {v!r}")
    return v


# ---------------------------------------------------------------------------
# Floor polygons

def polygon_area(polygon) -> float:
    n = len(polygon)
    return 0.5 * sum(polygon[i][0] * polygon[(i + 1) % n][1]
                     - polygon[(i + 1) % n][0] * polygon[i][1] for i in range(n))


def normalize_floor_polygon(vertices):
    """The ccw convex polygon with area 1 and centroid 0 similar to vertices.

    vertices: iterable of [x, y], finite reals, in any order.  Raises
    ValueError unless the vertices, sorted by angle around their mean, form
    a convex polygon whose scaled area is 1 in floats.
    """
    pts = [tuple(map(float, _point(f"'floor'[{i}]", v))) for i, v in enumerate(vertices)]
    if len(pts) < 3:
        raise ValueError("'floor' needs at least 3 vertices")
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    area = polygon_area(pts)
    if area <= 0:
        raise ValueError("'floor' is degenerate")
    convex_floor(pts)
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
    out = tuple(((x - gx) * s, (y - gy) * s) for (x, y) in pts)
    if not abs(polygon_area(out) - 1.0) < 1e-9:     # also false for NaN
        raise ValueError("'floor' is too large or too thin to scale to area 1")
    return out


UNIT_SQUARE_FLOOR = normalize_floor_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def regular_polygon_floor(k: int):
    """Unit-area regular k-gon, centroid at the origin."""
    raw = [(math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k))
           for i in range(k)]
    return normalize_floor_polygon(raw)


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
    JSON descriptor; h is the frustum's height before its rescaling to
    unit volume.
    """
    kind: str
    floor: tuple
    c: float
    H: float
    a: tuple = (0.0, 0.0)
    h: float | None = None
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
    return (UNIT_SQUARE_FLOOR if floor_polygon is None
            else normalize_floor_polygon(floor_polygon))


def frustum(h: float, d: int, floor_polygon=None) -> LinearLayerBody:
    """Unit-volume frustum with top dilation c_h = (2/h - 1)^(1/(d-1)).

    The hull of the two bases has volume slightly below 1 in 3D, so the body
    is rescaled isotropically; the floor then has area slightly above 1.
    """
    _real("'h'", h, 0, 2)
    _choice("'dimension'", d, (2, 3))
    c = (2.0 / h - 1.0) ** (1.0 / (d - 1))
    try:
        finite = math.isfinite(c ** d)      # samplers._heights takes c ** d
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"frustum height h = {h} is too small: its top "
                         f"dilation c = {c} overflows with c ** {d}")
    if abs(c - 1.0) < 1e-12:
        c = 1.0     # samplers._heights divides by c - 1
    vol = h * (_power_sum(c, d) / d)
    s = vol ** (-1.0 / d)
    if d == 2:
        floor = ((-0.5 * s, 0.0), (0.5 * s, 0.0))
    else:
        floor = tuple((x * s, y * s) for (x, y) in _unit_floor(floor_polygon))
    return LinearLayerBody("frustum", floor, c, h * s, a=(0.0,) * (d - 1),
                           h=h)


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

def _power_sum(x, d: int):
    """1 + x + ... + x^(d-1), x a float or an array; unlike the equal
    (x^d - 1)/(x - 1), it does not cancel as x -> 1."""
    return sum(x ** j for j in range(d))


def layer_dilation(body: LinearLayerBody, t):
    """lam(t) = 1 + (c - 1) t / H, the dilation of the floor in the layer at
    height t (t may be an array)."""
    return 1.0 + (body.c - 1.0) * t / body.H


def max_height(body: BodyWithFloor) -> float:
    if isinstance(body, SubPrism2D):
        return body.top.max_height()
    return body.H


def _heights(t):
    """t as a float array; a negative height is a ValueError."""
    ts = np.asarray(t, dtype=float)
    if (ts < 0).any():
        raise ValueError("height must be >= 0")
    return ts


def layer_volume(body: BodyWithFloor, t):
    """(d-1)-volume of the horizontal slice at height t (0 above the body).
    t is a height or an array of heights; a height gives a float, an array
    an array of the same shape."""
    ts = _heights(t)
    if isinstance(body, SubPrism2D):
        return body.top.level_width(ts)
    out = np.where(ts > max_height(body), 0.0, body.floor_vol
                   * layer_dilation(body, ts) ** (body.dimension - 1))
    return out if out.ndim else float(out)


def below_volume(body: BodyWithFloor, t):
    """Volume of the body below height t (equals 1 at and above the top).
    t is a height or an array of heights, taken as in layer_volume."""
    ts = np.minimum(_heights(t), max_height(body))
    if isinstance(body, SubPrism2D):
        out = 1.0 - body.top.area_above(ts)
    else:
        d = body.dimension
        out = (body.floor_vol * ts
               * (_power_sum(layer_dilation(body, ts), d) / d))
    return out if np.ndim(out) else float(out)


def mean_height(body: BodyWithFloor) -> float:
    """Exact expected height of a uniform point in a unit-volume body."""
    if isinstance(body, SubPrism2D):
        return float(body.top.integral_sq()) / 2
    d, c, H = body.dimension, body.c, body.H
    # int t lam(t)^(d-1) dt over [0, H] in the Bernstein basis of lam: every
    # term is >= 0 for c >= 0, so nothing cancels near the prism c = 1
    return (body.floor_vol * H * H
            * sum((j + 1) * c ** j for j in range(d)) / (d * (d + 1)))


def q2_exact(body: BodyWithFloor) -> float:
    """Two-point convex-position probability Q(2).  The hull of the floor and
    one point at height h is a cone of volume floor_vol * h / d, so
    Q(2) = 1 - 2 * floor_vol * E[h] / d."""
    return 1.0 - 2.0 / body.dimension * (body.floor_vol * mean_height(body))


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
    kind = _choice("'kind'", d["kind"], ("quadratic", "pwl"))
    top = QuadraticTop() if kind == "quadratic" else PiecewiseLinearTop(tuple(
        _point(f"'knots'[{i}]", k, _knot_part) for i, k in enumerate(d["knots"])))
    for key in d:
        _choice(f"a key of a {kind} top", key, tuple(_top_to_json(top)))
    return top


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
    """The body of a body_to_json descriptor; a key that body_to_json would
    not write for the body, or a 'dimension' not the body's, is refused."""
    body = _build_body(d)
    for key in d:
        _choice(f"a key of a {body.dimension}D {body.kind}", key, tuple(body_to_json(body)))
    _choice("'dimension'", d.get("dimension", body.dimension), (body.dimension,))
    return body


def _build_body(d: dict) -> BodyWithFloor:
    kind = _choice("'kind'", d.get("kind"), ("subprism2d", "mountain", "prism",
                                              "frustum", "tetrahedron"))
    if kind == "subprism2d":
        return SubPrism2D(_top_from_json(d["top"]))
    if kind == "mountain":
        x, y, *z = _point("'apex'", d.get("apex", [0.0, 0.0]), sizes=(2, 3))
        _choice("'apex'[2], the unit-volume mountain's height,", z[0] if z else 3, (3,))
        return mountain3d(d.get("floor"), apex_xy=(x, y))
    if kind == "prism":
        return prism3d(d.get("floor"))
    if kind == "frustum":
        return frustum(d["h"], d["dimension"], d.get("floor"))
    return tetrahedron()


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
    if name.startswith(("frustum2d:", "frustum3d:")):
        h = name[10:]
        with contextlib.suppress(ValueError):   # else frustum refuses the text
            h = float(h)
        return frustum(h, int(name[7]))
    raise ValueError(f"unknown builtin body {name!r}; known: "
                     f"{', '.join(sorted(BUILTIN_BODIES))}, frustum2d:<h>, frustum3d:<h>")


def load_descriptor(path: str, from_json):
    """from_json of the JSON object in the file at path; a file that holds no
    object, or a key that is missing or malformed, is a ValueError."""
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError(f"descriptor {path} is not a JSON object")
    try:
        return from_json(d)
    except KeyError as exc:
        raise ValueError(f"descriptor {path} lacks the key {exc}") from None
    except (TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise ValueError(f"descriptor {path} is malformed: {exc}") from None


def load_body(spec: str) -> BodyWithFloor:
    """Path to a JSON descriptor file, or else a builtin name."""
    if os.path.exists(spec):
        return load_descriptor(spec, body_from_json)
    return builtin_body(spec)
