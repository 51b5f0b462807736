"""Exact-ish planar geometry for convex polygons.  The inradius is the last
event of a straight-skeleton wavefront, and the incenter the middle of the
optimal set along one of the wavefront's last three lines
(:func:`chebyshev_center`).

Conventions used throughout the package:

* polygons are counterclockwise vertex arrays of shape (n, 2), float64;
* directions are unit vectors, validated to |norm - 1| <= 1e-12;
* a half-plane (normal n, offset c) denotes the set {x : n . x <= c};
* tolerances are of two kinds.  Lengths scale with
  ``eps = EPS_REL * diameter`` unless a caller passes its own absolute
  value, and a relative check of a closed form allows EPS_REL; each
  multiple of eps a check uses is a named module constant that states
  its reason.  Directions allow PARALLEL_TOL: an edge whose normal has
  |n . d| at most that is parallel to d, and lines whose normals lie at
  most that many radians apart share a direction, of which only the
  innermost line is kept (_by_normal_angle).

Degenerate results are first-class: half-plane intersection returns a
:class:`Region` tagged polygon / segment / point / empty instead of
silently dropping lower-dimensional sets.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CenterTooCloseToBoundary, InvalidPolygon, NoConvergence

EPS_REL = 1e-9

# A clipped region no longer than this many eps classifies as a point, and
# one no wider across its longest chord as a segment.  Kept well above the
# per-cut slack so fattened degenerate sets classify correctly.
_DEGENERATE_FACTOR = 50.0

# Edges with |n . d| at most this are parallel to direction d: they bound
# no chord along d, only exclude the line when it runs outside them.  Two
# lines whose normals are at most this many radians apart share a
# direction (_by_normal_angle).
PARALLEL_TOL = 1e-13

# A vertex coordinate carries the rounding of the few operations that made
# it (a turn, a shift): ConvexPolygon takes it as this many units in the
# last place of the largest coordinate.
_VERTEX_ULPS = 4.0

# line_interval collapses an empty interval (lo > hi) to its midpoint when
# the overlap is short by at most this times the diameter: a line that
# grazes a vertex, lost to rounding.
_GRAZE_REL = 1e-7

# newton_minimize stops at a Newton decrement this small relative to the
# objective (rounding level, where an Armijo test alone stalls), and makes
# at most this many steps and halvings per line search.
_NEWTON_DECREMENT_REL = 1e-12
_NEWTON_ITERATIONS = 60


def unit(theta: float) -> np.ndarray:
    """Unit vector at angle ``theta`` (radians, measured from +x axis)."""
    return np.array([np.cos(theta), np.sin(theta)])


def perp(omega: np.ndarray) -> np.ndarray:
    """Rotate vectors by +90 degrees along the last axis: (x, y) -> (-y, x)."""
    return np.asarray(omega)[..., ::-1] * (-1.0, 1.0)


def dots(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for each vector of v along its last axis, shape v.shape[:-1] + (len(m),):
    each row by numpy's matrix-vector product, so every value is bit for bit
    that of m @ v with v one vector (m @ v.T runs another BLAS kernel)."""
    return np.matmul(m, v[..., None])[..., 0]


def _check_unit_rows(w: np.ndarray, shape_ok: bool, given) -> np.ndarray:
    """Raise ValueError unless shape_ok and every row of w is a finite unit vector."""
    if shape_ok:
        norms = np.hypot(w[..., 0], w[..., 1])
        off = ~(np.abs(norms - 1.0) <= 1e-12)  # a NaN or infinite row is off too
        if not off.any():
            return w
    if not shape_ok or not np.isfinite(w).all():
        raise ValueError(f"direction must be a finite 2-vector, got {given!r}")
    raise ValueError(f"direction must be unit length, got norm {norms[off][0]!r}")


def check_direction(omega) -> np.ndarray:
    """Validate a unit direction and return it as a float64 array."""
    w = np.asarray(omega, dtype=float)
    return _check_unit_rows(w, w.shape == (2,), omega)


def check_directions(directions) -> np.ndarray:
    """Validate unit directions, one per row, and return them as a (k, 2) float64 array."""
    w = np.asarray(directions, dtype=float)
    return _check_unit_rows(w, w.ndim == 2 and w.shape[1] == 2, directions)


def _next_rows(a: np.ndarray) -> np.ndarray:
    """a with row i + 1 in row i, wrapping: np.roll(a, -1, axis=0) from two
    slices, at a sixth of np.roll's cost on the few rows of a polygon."""
    return np.concatenate((a[1:], a[:1]))


def _polygon_area(points: np.ndarray) -> float:
    """Shoelace area, relative to points[0]: far from the origin the
    absolute cross products cancel to rounding of |points|^2."""
    d = points - points[0]
    x, y = d[:, 0], d[:, 1]
    return 0.5 * float(np.dot(x, _next_rows(y)) - np.dot(_next_rows(x), y))


def _polygon_centroid(points: np.ndarray) -> np.ndarray:
    """Area centroid, summed relative to points[0] as in _polygon_area."""
    d = points - points[0]
    x, y = d[:, 0], d[:, 1]
    cross = x * _next_rows(y) - _next_rows(x) * y
    a = 0.5 * cross.sum()
    if abs(a) < 1e-300:
        return points.mean(axis=0)
    cx = ((x + _next_rows(x)) * cross).sum() / (6.0 * a)
    cy = ((y + _next_rows(y)) * cross).sum() / (6.0 * a)
    return points[0] + np.array([cx, cy])


def _edge_distances(starts: np.ndarray, edges: np.ndarray, x) -> np.ndarray:
    """Distance from x to each segment starts[i] .. starts[i] + edges[i].

    A zero-length edge is its start point.
    """
    x = np.asarray(x, dtype=float)
    ee = np.sum(edges * edges, axis=1)
    along = np.sum((x - starts) * edges, axis=1)
    t = np.clip(np.divide(along, ee, out=np.zeros_like(along), where=ee > 0.0), 0.0, 1.0)
    proj = starts + t[:, None] * edges
    return np.hypot(*(x - proj).T)


def _farthest_pair(points: np.ndarray) -> tuple[int, int, float]:
    """Farthest pair (i, j), i <= j, of a convex counterclockwise ring, and their distance.

    Rotating calipers (Shamos 1978): a farthest pair is antipodal, and the
    vertex antipodal to edge i is where the edge directions first turn past
    that edge's reverse, found for every edge by one sorted search over the
    unwrapped edge angles.  Each edge's two ends are paired with that vertex
    and its two neighbours, so a search that stops one vertex early or late
    at near-collinear vertices still meets the pair.  The distance is the
    square root of the largest squared distance; among equally far pairs
    the first in row-major order wins.
    """
    n = len(points)
    e = _next_rows(points) - points
    theta = np.arctan2(e[:, 1], e[:, 0])
    theta[1:] += 2.0 * np.pi * np.cumsum(np.diff(theta) < -np.pi)  # unwrapped: the ring turns left
    j = np.searchsorted(np.concatenate([theta, theta + 2.0 * np.pi]), theta + np.pi)
    a = (np.arange(n)[:, None, None] + np.array([[0], [1]])) % n  # edge i's ends, (n, 2, 1)
    b = (j[:, None, None] + np.array([-1, 0, 1])) % n  # j(i) and its neighbours, (n, 1, 3)
    d = points[a] - points[b]
    d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    top = d2.max()
    key = np.where(d2 == top, np.minimum(a, b) * n + np.maximum(a, b), n * n)
    i, j = divmod(int(key.min()), n)
    return i, j, float(np.sqrt(top))


@dataclass(frozen=True)
class Region:
    """Result of clipping: a polygon, segment, point, or the empty set.

    ``points`` holds the defining vertices: the CCW boundary for a polygon,
    two endpoints for a segment, one point, or an empty (0, 2) array.
    """

    kind: str  # 'polygon' | 'segment' | 'point' | 'empty'
    points: np.ndarray

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"


EMPTY_REGION = Region("empty", np.zeros((0, 2)))


class ConvexPolygon:
    """Immutable CCW convex polygon with cached metric quantities.

    The ring must turn left at every vertex, up to rounding.  A vertex
    coordinate is known to _VERTEX_ULPS units in the last place of the
    largest coordinate, delta, so the direction of an edge of length L is
    known to delta / L rad.  The turn theta from edge i to edge i + 1 may
    lie right by the slack of those two directions,
    sin(theta) >= -delta (1 / L_i + 1 / L_{i+1}); a sharper right turn
    is rejected at any edge length.  Edges must be longer than eps, and
    the ring must wind once.

    No vertex may be a needle tip.  A direction omega in the middle of
    the normal cone at a vertex of interior angle alpha has
    n . omega <= sin(alpha / 2) on every edge, so where that is at most
    PARALLEL_TOL, omega has no edge facing it and no chord bounded from
    above.  A vertex is rejected when sin(alpha / 2), which is
    cos(theta / 2), is at most twice PARALLEL_TOL: the margin covers the
    rounding of n . omega, a few units of 1e-16.
    """

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise InvalidPolygon(f"need at least 3 planar vertices, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise InvalidPolygon("vertices must be finite")
        diameter = _farthest_pair(v)[2]
        scale = max(diameter, 1e-300)
        edges = _next_rows(v) - v
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        if (lengths <= EPS_REL * scale).any():
            raise InvalidPolygon("duplicate or near-duplicate consecutive vertices")
        nxt = _next_rows(edges)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        theta = np.arctan2(cross, edges[:, 0] * nxt[:, 0] + edges[:, 1] * nxt[:, 1])
        area = _polygon_area(v)
        if area <= 0.0:
            raise InvalidPolygon("vertices must be in counterclockwise order with positive area")
        if cross.min() < 0.0:
            # L_i L_{i+1} sin(theta) against the slack of the two directions
            delta = _VERTEX_ULPS * np.finfo(float).eps * float(np.abs(v).max())
            right = cross < -delta * (lengths + _next_rows(lengths))
            if right.any():
                i = int(np.argmax(right))
                raise InvalidPolygon(f"polygon is not convex: it turns right by {-theta[i]:.3g} rad at vertex "
                                     f"{(i + 1) % len(v)}, beyond the rounding of its edge directions")
        # left turns everywhere still admit a star ring that winds k times
        # and turns through 2 pi k; a convex ring turns through 2 pi once
        turn = float(theta.sum())
        if turn > 3.0 * np.pi:
            raise InvalidPolygon(f"ring winds more than once: its exterior angles sum to {turn:.6g}, above 3 pi")
        needle = np.cos(0.5 * theta) <= 2.0 * PARALLEL_TOL
        if needle.any():
            i = int(np.argmax(needle))
            raise InvalidPolygon(f"polygon has a needle tip at vertex {(i + 1) % len(v)}: its interior angle "
                                 f"{np.pi - abs(theta[i]):.3g} rad leaves a direction with no edge facing it")
        for arr in (v, edges, lengths):
            arr.setflags(write=False)
        self.vertices = v
        self.edges = edges  # row i: v_{i+1} - v_i
        self.edge_lengths = lengths
        self.area = area
        self.diameter = diameter

    def __repr__(self):
        return f"ConvexPolygon(n={len(self.vertices)}, area={self.area:.6g})"

    def __len__(self):
        return len(self.vertices)

    @cached_property
    def perimeter(self) -> float:
        return float(self.edge_lengths.sum())

    @cached_property
    def centroid(self) -> np.ndarray:
        c = _polygon_centroid(self.vertices)
        c.setflags(write=False)
        return c

    @cached_property
    def eps(self) -> float:
        return EPS_REL * self.diameter

    @cached_property
    def edge_normals(self) -> np.ndarray:
        """Outward unit normals, one row per edge i: (v_i, v_{i+1})."""
        e = self.edges
        n = np.column_stack([e[:, 1], -e[:, 0]]) / self.edge_lengths[:, None]
        n.setflags(write=False)
        return n

    @cached_property
    def edge_offsets(self) -> np.ndarray:
        c = np.sum(self.edge_normals * self.vertices, axis=1)
        c.setflags(write=False)
        return c

    @cached_property
    def incircle(self) -> ChebyshevResult:
        """Incenter and inradius, from :func:`chebyshev_center`."""
        return chebyshev_center(self)

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        v = self.vertices
        return (float(v[:, 0].min()), float(v[:, 0].max()),
                float(v[:, 1].min()), float(v[:, 1].max()))


def support(poly: ConvexPolygon, omega) -> float:
    """Support value h(omega) = max over the body of x . omega."""
    w = check_direction(omega)
    return float((poly.vertices @ w).max())


def boundary_distance(poly: ConvexPolygon, x) -> float:
    """Distance from a point to the polygon boundary (unsigned)."""
    return float(_edge_distances(poly.vertices, poly.edges, x).min())


def _dedupe_ring(points: list[np.ndarray] | np.ndarray, tol: float) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return pts.reshape(0, 2)
    keep = [pts[0]]
    for p in pts[1:]:
        if np.hypot(*(p - keep[-1])) > tol:
            keep.append(p)
    while len(keep) > 1 and np.hypot(*(keep[0] - keep[-1])) <= tol:
        keep.pop()
    return np.array(keep)


def _clip_ring(points: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Sutherland-Hodgman cut of a CCW ring by {n . x <= c}.

    Points on the line are kept, so a cut through a vertex or along an
    edge leaves degenerate slivers in the ring rather than dropping them.
    """
    if len(points) == 0:
        return points
    d = points @ normal - offset
    out: list[np.ndarray] = []
    n = len(points)
    for i in range(n):
        j = (i + 1) % n
        pi, pj = points[i], points[j]
        di, dj = d[i], d[j]
        if di <= 0.0:
            out.append(pi)
            if dj > 0.0 and di < 0.0:
                out.append(pi + (di / (di - dj)) * (pj - pi))
        elif dj < 0.0:
            out.append(pi + (di / (di - dj)) * (pj - pi))
    return np.array(out) if out else np.zeros((0, 2))


def _classify(points: np.ndarray, eps: float) -> Region:
    pts = _dedupe_ring(points, eps)
    if len(pts) == 0:
        return EMPTY_REGION
    if len(pts) == 1:
        return Region("point", pts.copy())
    i, j, _ = _farthest_pair(pts)
    extent = float(np.hypot(*(pts[j] - pts[i])))
    if extent <= _DEGENERATE_FACTOR * eps:
        # bbox midpoint: insensitive to vertex multiplicity along the ring
        mid = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        return Region("point", mid[None, :])
    u = (pts[j] - pts[i]) / extent
    center = pts.mean(axis=0)
    d = pts - center
    if len(pts) < 3 or np.abs(d @ perp(u)).max() <= _DEGENERATE_FACTOR * eps:
        # ends on the ring's principal axis, its midline, rather than on
        # the farthest pair, which is one of the eps-wide ring's diagonals
        axis = np.linalg.eigh(d.T @ d)[1][:, -1]
        axis = axis if axis @ u >= 0.0 else -axis
        t = d @ axis
        return Region("segment", np.array([center + t.min() * axis, center + t.max() * axis]))
    if _polygon_area(pts) < 0:
        pts = pts[::-1]
    return Region("polygon", pts)


def _by_normal_angle(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Indices of the lines {n . x <= c} to keep, in order of normal angle
    from -pi: of each run of normals that step by at most PARALLEL_TOL,
    only the innermost line (least offset).  The run across the +-pi seam
    is one run, kept at the front."""
    angle = np.arctan2(normals[:, 1], normals[:, 0])
    angle[angle > np.pi - PARALLEL_TOL] -= 2.0 * np.pi  # (-1, +0.0) is (-1, -0.0)
    order = np.argsort(angle, kind="stable")
    sorted_angle = angle[order]
    group = np.zeros(len(order), dtype=np.intp)
    np.cumsum(sorted_angle[1:] - sorted_angle[:-1] > PARALLEL_TOL, out=group[1:])
    if sorted_angle[0] + 2.0 * np.pi - sorted_angle[-1] <= PARALLEL_TOL:
        group[group == group[-1]] = 0  # a run that straddles the cut above
    innermost = np.lexsort((offsets[order], group))
    group = group[innermost]
    first = np.ones(len(group), dtype=bool)
    first[1:] = group[1:] != group[:-1]
    return order[innermost[first]]


def halfplane_intersection(planes: np.ndarray, bbox, eps: float) -> Region:
    """Intersect finitely many half-planes inside a bounding box.

    ``planes`` is an (m, 3) array of rows (nx, ny, c) with unit normals.
    ``bbox`` = (xmin, xmax, ymin, ymax) must contain the result.  Each cut
    is moved out by ``eps`` so that segment- and point-shaped intersections
    survive to be classified rather than vanishing to rounding, and the
    result is classified at the same ``eps``.

    The box's four sides join the cuts, and all are sorted by normal angle;
    of normals that share a direction only the tightest plane is kept
    (_by_normal_angle).  One deque pass then keeps the boundary, O(k log k)
    in all (de Berg et al., *Computational Geometry*, section 4.2), in a
    frame centred on the box.  Each new vertex is found
    by walking forward from the previous one along its line, so rounding at
    nearly parallel lines cannot fold the ring back on itself.
    """
    xmin, xmax, ymin, ymax = bbox
    center = np.array([xmin + xmax, ymin + ymax]) / 2.0
    hx, hy = (xmax - xmin) / 2.0, (ymax - ymin) / 2.0
    p = np.asarray(planes, dtype=float).reshape(-1, 3)
    normals = np.vstack([p[:, :2], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]])
    offsets = np.concatenate([p[:, 2] + eps - p[:, :2] @ center, [hx, hx, hy, hy]])
    keep = _by_normal_angle(normals, offsets)

    lines: deque[tuple[float, float, float]] = deque()
    ring: deque[tuple[float, float]] = deque()  # ring[i] is where lines[i] meets lines[i + 1]

    def beyond(line, v) -> bool:
        return line[0] * v[0] + line[1] * v[1] > line[2]

    def turn(line) -> float:
        """Sine of the turn from the back line to ``line``."""
        return lines[-1][0] * line[1] - lines[-1][1] * line[0]

    def walk(line, s):
        # forward along the back line from its last vertex to ``line``; the
        # residual is the one beyond() found <= 0, so the step is >= 0
        a, b, c = line
        v = ring[-1]
        t = (c - (a * v[0] + b * v[1])) / s
        return v[0] - t * lines[-1][1], v[1] + t * lines[-1][0]

    for line in zip(*normals[keep].T.tolist(), offsets[keep].tolist()):
        while ring and beyond(line, ring[-1]):
            lines.pop()
            ring.pop()
        while ring and beyond(line, ring[0]):
            lines.popleft()
            ring.popleft()
        if lines:
            s = turn(line)
            if s <= 0.0:  # a turn of pi or more: nothing lies inside both
                return EMPTY_REGION
            if ring:
                ring.append(walk(line, s))
            else:
                (pa, pb, pc), (a, b, c) = lines[-1], line
                ring.append(((pc * b - pb * c) / s, (pa * c - a * pc) / s))
        lines.append(line)
    while len(ring) > 1 and beyond(lines[0], ring[-1]):
        lines.pop()
        ring.pop()
    while len(ring) > 1 and beyond(lines[-1], ring[0]):
        lines.popleft()
        ring.popleft()
    if len(lines) < 3 or (s := turn(lines[0])) <= 0.0:
        return EMPTY_REGION
    ring.append(walk(lines[0], s))
    return _classify(np.array(ring) + center, eps)


def region_point_distance(region: Region, x) -> float:
    """Distance from a point to a region (0 inside a polygon)."""
    x = np.asarray(x, dtype=float)
    if region.is_empty:
        return np.inf
    pts = region.points
    if region.kind != "polygon":
        # a point is the zero-length segment from it to itself
        return float(_edge_distances(pts[:1], pts[-1:] - pts[:1], x)[0])
    e = _next_rows(pts) - pts
    normals = np.column_stack([e[:, 1], -e[:, 0]])
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    offs = np.sum(normals * pts, axis=1)
    if np.all(normals @ x <= offs):
        return 0.0
    return float(_edge_distances(pts, e, x).min())


def _edge_range(a: np.ndarray, b: np.ndarray):
    """Bounds (lo, hi) of {t : a_e t <= b_e} over the edges e, on the last
    axis, not parallel to a line, where a_e = n_e . direction and b_e is
    edge e's gap from the line's point; lo > hi when those edges leave no
    t, and lo = -inf or hi = inf when none bounds that side."""
    pos = a > PARALLEL_TOL
    neg = a < -PARALLEL_TOL
    ratio = b / np.where(pos | neg, a, 1.0)
    hi = np.min(ratio, axis=-1, where=pos, initial=np.inf)
    lo = np.max(ratio, axis=-1, where=neg, initial=-np.inf)
    return lo, hi


def _line_ranges(poly: ConvexPolygon, points: np.ndarray, directions: np.ndarray):
    """(lo, hi) of line_interval for the lines points + t directions, as
    arrays over the broadcast leading axes of points (..., 2) and
    directions (..., 2), with lo = hi = NaN where a line misses the body."""
    a = dots(poly.edge_normals, directions)
    b = poly.edge_offsets - dots(poly.edge_normals, points)
    lo, hi = _edge_range(a, b)
    # a polygon bounds every line along a nonzero direction on both sides
    miss = np.any((np.abs(a) <= PARALLEL_TOL) & (b < -poly.eps), axis=-1)
    miss |= ~(np.isfinite(lo) & np.isfinite(hi))
    lo, hi = np.where(miss, np.nan, lo), np.where(miss, np.nan, hi)
    # an empty range short by rounding is a line grazing a vertex
    empty = lo > hi
    mid = np.where(lo - hi <= _GRAZE_REL * poly.diameter, 0.5 * (lo + hi), np.nan)
    return np.where(empty, mid, lo), np.where(empty, mid, hi)


def line_interval(poly: ConvexPolygon, point, direction):
    """Parameter range {t : point + t * direction in poly}, or None.

    ``direction`` need not be unit; t is in units of |direction|.  Lines
    grazing a vertex return a collapsed interval (t0, t0).
    """
    lo, hi = _line_ranges(poly, np.asarray(point, dtype=float), np.asarray(direction, dtype=float))
    return None if np.isnan(lo) else (float(lo), float(hi))


def shadow_interval(poly: ConvexPolygon, omega):
    """Range of the projection of the body onto the axis perp(omega): two
    floats for one direction, two (k,) arrays for (k, 2) directions."""
    if np.ndim(omega) == 1:
        s = poly.vertices @ perp(check_direction(omega))
        return float(s.min()), float(s.max())
    s = dots(poly.vertices, perp(check_directions(omega)))
    return s.min(axis=1), s.max(axis=1)


def chord(poly: ConvexPolygon, s: float, omega):
    """Chord of the body along omega over shadow coordinate s.

    Returns (a, b) with a <= b, the entry/exit coordinates along omega,
    or None when the line misses the body.
    """
    w = check_direction(omega)
    return line_interval(poly, float(s) * perp(w), w)


@dataclass(frozen=True)
class ChebyshevResult:
    center: np.ndarray
    radius: float


def chebyshev_center(poly: ConvexPolygon) -> ChebyshevResult:
    """Incenter and inradius: the deepest point of the polygon.

    The inradius is the last event of the straight-skeleton wavefront
    (Aichholzer-Aurenhammer 1995): the edge lines, sorted by normal angle,
    move inward about the centroid, and a heap splices out the edge that
    vanishes first until three remain.  Edge i between a and b vanishes at
    n_p . x + r = c_p, p = a, i, b (Cramer's rule in X_pq = n_p x n_q; never
    if the determinant is <= 0).  Of normals that share a direction only
    the innermost line is kept (_by_normal_angle).

    The three lines left at the last event are tight at an optimal point
    x.  Of their normals take the most nearly antiparallel pair, and walk
    the first one's line moved in by the radius, which passes through x:
    the center is the midpoint of its range over every edge line moved in
    by the radius (line_interval's bounds).  Where the optimum is unique
    that range collapses to x; in a tie (oblong bodies) the walked line is
    the pair's midline and the center the middle of the segment of optima.
    The walk starts at the line's foot from the centroid, not at x by
    Cramer's rule, which loses its digits when the three normals are all
    near-parallel or antiparallel (a straight angle bent by 1e-12 rad); a
    range that rounding leaves empty at such edges still has a midpoint.
    """
    shifted = poly.edge_offsets - poly.edge_normals @ poly.centroid
    (nx, ny), offsets = poly.edge_normals.T.tolist(), shifted.tolist()
    ring = _by_normal_angle(poly.edge_normals, shifted).tolist()
    prev = dict(zip(ring, ring[-1:] + ring[:-1]))
    succ = dict(zip(ring, ring[1:] + ring[:1]))

    def vanish(i):
        a, b = prev[i], succ[i]
        # the cross products X_ai, X_ib and X_ba, written out: this runs
        # about 3n times per body
        xai = nx[a] * ny[i] - ny[a] * nx[i]
        xib = nx[i] * ny[b] - ny[i] * nx[b]
        xba = nx[b] * ny[a] - ny[b] * nx[a]
        det = xai + xib + xba
        return (offsets[a] * xib + offsets[i] * xba + offsets[b] * xai) / det if det > 0.0 else np.inf

    event = {i: vanish(i) for i in ring}
    heap = sorted((r, i) for i, r in event.items())
    while True:
        radius, i = heapq.heappop(heap)
        if event.get(i) != radius:
            continue  # spliced out, or its neighbours changed since
        if len(event) == 3:
            break
        a, b = prev.pop(i), succ.pop(i)
        del event[i]
        succ[a], prev[b] = b, a
        for j in (a, b):
            event[j] = vanish(j)
            heapq.heappush(heap, (event[j], j))
    tri = [prev[i], i, succ[i]]
    n = poly.edge_normals[tri]
    k = int(np.argmin(np.sum(n * _next_rows(n), axis=1)))
    d = perp(n[k])
    foot = (shifted[tri[k]] - radius) * n[k]
    lo, hi = _edge_range(poly.edge_normals @ d, shifted - radius - poly.edge_normals @ foot)
    return ChebyshevResult(poly.centroid + foot + 0.5 * (lo + hi) * d, radius)


def edge_gaps(poly: ConvexPolygon, center, tol: float, error: type[Exception]) -> np.ndarray:
    """Gaps c_i - n_i . center to the edge lines; raises ``error`` unless all exceed tol."""
    gaps = poly.edge_offsets - poly.edge_normals @ np.asarray(center, dtype=float)
    if gaps.min() <= tol:
        raise error(f"smallest edge gap {gaps.min():.3e} <= tolerance {tol:.3e}")
    return gaps


def newton_minimize(poly: ConvexPolygon, objective) -> tuple[float, np.ndarray]:
    """Minimize a smooth, strictly convex function of the edge gaps.

    ``objective(gaps)`` returns the value, gradient and Hessian in the
    center p, where gaps = edge_offsets - edge_normals @ p.  Damped Newton
    runs in a frame at the centroid c: the gaps at c are taken once, and
    the iterate is a shift s from c with gaps(c + s) = gaps(c) - edge_normals @ s,
    so neither the gaps nor the step lose digits to |c| on a body far from
    the origin.  It halves each step until every gap stays above eps and
    the Armijo test holds, and stops once the Newton decrement g . H^-1 g
    is at most _NEWTON_DECREMENT_REL * |f|, taking that last step.
    Returns the minimum and the minimizer.
    """
    c = poly.centroid
    base = edge_gaps(poly, c, poly.eps, CenterTooCloseToBoundary)

    def at(s):
        gaps = base - poly.edge_normals @ s
        return objective(gaps) if gaps.min() > poly.eps else None

    s = np.zeros(2)
    state = objective(base)
    for _ in range(_NEWTON_ITERATIONS):
        f, g, hess = state
        step = np.linalg.solve(hess, g)
        decrement = float(g @ step)
        if decrement <= _NEWTON_DECREMENT_REL * abs(f) and (last := at(s - step)) is not None:
            return last[0], c + (s - step)
        for t in 0.5 ** np.arange(_NEWTON_ITERATIONS):
            if (state := at(s - t * step)) is not None and state[0] <= f - 0.25 * t * decrement:
                break
        else:
            break
        s = s - t * step
    tol = _NEWTON_DECREMENT_REL * abs(f)
    raise NoConvergence(f"Newton decrement {decrement:.3e} above tolerance {tol:.3e}")
