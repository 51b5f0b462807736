"""Convex test bodies: canonical shapes, smooth-body approximations,
seeded random polygons, and parsing of body specifications."""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidPolygon
from .geometry import ConvexPolygon

# random_convex_polygon keeps every angular gap above this fraction of the
# mean gap 2 pi / n, so no two vertices crowd within rounding of each other.
_MIN_GAP_FRAC = 0.3


def square() -> ConvexPolygon:
    """Unit square [0,1]^2."""
    return ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def rectangle(w: float, h: float) -> ConvexPolygon:
    return ConvexPolygon([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]])


def triangle(p1, p2, p3) -> ConvexPolygon:
    return ConvexPolygon([p1, p2, p3])


def right_triangle() -> ConvexPolygon:
    """Legs on the axes: (0,0), (1,0), (0,1)."""
    return triangle([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])


def regular_ngon(n: int, r: float = 1.0) -> ConvexPolygon:
    """Regular n-gon of circumradius r centered at the origin."""
    if n < 3:
        raise InvalidPolygon("regular_ngon needs n >= 3")
    ang = 2.0 * np.pi * np.arange(n) / n
    return ConvexPolygon(r * np.column_stack([np.cos(ang), np.sin(ang)]))


def ellipse_approx(a: float, b: float, m: int = 256) -> ConvexPolygon:
    """m-gon inscribed in the ellipse x^2/a^2 + y^2/b^2 = 1, origin-centered."""
    if m < 8:
        raise InvalidPolygon("ellipse_approx needs m >= 8")
    ang = 2.0 * np.pi * np.arange(m) / m
    return ConvexPolygon(np.column_stack([a * np.cos(ang), b * np.sin(ang)]))


def halfdisc(radius: float = 1.0, cut: float = 0.0, m: int = 64) -> ConvexPolygon:
    """Circular cap {x^2 + y^2 <= radius^2, y >= cut} sampled with m arc vertices.

    cut = 0 gives the upper half-disc; the flat chord closes the polygon.
    """
    if not -radius < cut < radius:
        raise InvalidPolygon("cut height must lie strictly inside the disc")
    if m < 8:
        raise InvalidPolygon("halfdisc needs m >= 8 arc vertices")
    alpha = np.arcsin(cut / radius)
    ang = np.linspace(alpha, np.pi - alpha, m)
    return ConvexPolygon(radius * np.column_stack([np.cos(ang), np.sin(ang)]))


def random_convex_polygon(rng: np.random.Generator, n: int) -> ConvexPolygon:
    """Seeded random convex n-gon, built in O(n).

    Angles on the unit circle have conditioned uniform spacings: each gap
    is delta + (2 pi - n delta) * Dirichlet(1, ..., 1) with
    delta = _MIN_GAP_FRAC * 2 pi / n, the distribution of uniform spacings
    conditioned on every gap exceeding delta, which keeps vertex angles
    separated so the shapes stay numerically tame.  The cyclic polygon
    then goes through a rotation, an axis stretch in [0.6, 1.8]
    (condition number at most 3) and a shift.
    """
    if n < 3:
        raise InvalidPolygon("need n >= 3")
    delta = _MIN_GAP_FRAC * 2.0 * np.pi / n
    gaps = delta + (2.0 * np.pi - n * delta) * rng.dirichlet(np.ones(n))
    ang = rng.uniform(0.0, 2.0 * np.pi) + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    theta = rng.uniform(0.0, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    stretch = np.diag(rng.uniform(0.6, 1.8, size=2))
    return ConvexPolygon(pts @ (rot @ stretch).T + rng.uniform(-0.5, 0.5, size=2))


def _triangle_from_coords(*xs):
    if len(xs) != 6:
        raise InvalidPolygon("triangle needs exactly 6 coordinates (three vertices)")
    return triangle(xs[0:2], xs[2:4], xs[4:6])


_GENERATORS = {
    "square": (square, 0),
    "rectangle": (rectangle, 2),
    "regular_ngon": (lambda n, r=1.0: regular_ngon(int(round(n)), r), 1),
    "ellipse_approx": (lambda a, b, m=256: ellipse_approx(a, b, int(round(m))), 2),
    "halfdisc": (lambda radius=1.0, cut=0.0, m=64: halfdisc(radius, cut, int(round(m))), 0),
    "triangle": (_triangle_from_coords, 6),
}


def from_spec(spec: dict) -> ConvexPolygon:
    """Build a body from a parsed JSON spec.

    Accepted forms: {"vertices": [[x, y], ...]} or
    {"generator": {"name": ..., "args": [...]}}.
    """
    if not isinstance(spec, dict):
        raise InvalidPolygon("body spec must be a JSON object")
    if "vertices" in spec:
        return ConvexPolygon(spec["vertices"])
    if "generator" in spec:
        gen = spec["generator"]
        if not isinstance(gen, dict):
            raise InvalidPolygon("'generator' must be a JSON object with 'name' and 'args'")
        name = gen.get("name")
        args = gen.get("args", [])
        if not isinstance(name, str) or not isinstance(args, list):
            raise InvalidPolygon("generator 'name' must be a string and 'args' a list")
        if name not in _GENERATORS:
            raise InvalidPolygon(f"unknown generator {name!r}; expected one of {sorted(_GENERATORS)}")
        fn, min_args = _GENERATORS[name]
        if len(args) < min_args:
            raise InvalidPolygon(f"generator {name!r} needs at least {min_args} arguments")
        try:
            return fn(*[float(a) for a in args])
        except (TypeError, ValueError, OverflowError) as exc:  # int(round(inf)) overflows
            raise InvalidPolygon(f"bad arguments for generator {name!r}: {exc}") from exc
    raise InvalidPolygon("body spec needs 'vertices' or 'generator'")


def parse_body_arg(text: str) -> tuple[ConvexPolygon, dict]:
    """Parse a --body argument: generator shorthand 'name:a,b,...',
    a bare generator name, or a path to a JSON body file.

    Returns the body plus the canonical spec dict it came from.
    """
    text = text.strip()
    if text.endswith(".json") or text.startswith("@"):
        path = text[1:] if text.startswith("@") else text
        try:
            with open(path) as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise InvalidPolygon(f"cannot read body file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidPolygon(f"body file {path!r} is not valid JSON: {exc}") from exc
        return from_spec(spec), spec
    name, _, argstr = text.partition(":")
    args = [float(tok) for tok in argstr.split(",") if tok] if argstr else []
    spec = {"generator": {"name": name, "args": args}}
    return from_spec(spec), spec
