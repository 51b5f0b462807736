"""Maximal folding offsets and the heart of a convex polygon.

For a direction omega, the folding offset is the smallest level lambda such
that reflecting the part of the body above the line {x . omega = lambda}
across that line lands inside the body.  For polygons it equals the largest
chord midpoint over the projections of the vertices.  The chord over a
projection runs between the two boundary chains, the edges facing along
omega and those facing against it.  The projections rise along one chain
and fall along the other, so one stable sort of them, which merges those
few runs in linear time, ranks every vertex within both chains: a running
count of each chain's vertices in sorted order names the one edge of each
chain that bounds the chord.  :func:`folding_profile` does this for many
directions at once, in blocks of array operations, and
:func:`folding_offset` is its one-direction case.
:func:`folding_offset_bisection` instead bisects directly on the
reflection-containment definition and serves as the independent reference
implementation; it shares no code with the fast path (it cuts its cap with
the generic ring clip in :mod:`geometry`, which :func:`folding_profile`
does not call).

Intersecting the half-planes {x . omega <= offset} over many directions
yields an outer approximation of the heart: the region that provably
confines the hot spot of the heat flow for all times.
:func:`heart_region` returns it as a :class:`geometry.Region`, with the
:class:`FoldingProfile` whose rows are its planes.  The direction set
holds every edge normal, normalized and never merged into a nearby
uniform angle, and no offset exceeds the support value, so the body's
own edges are implied and are not cut again.

:func:`normal_cone_check` holds each normal cone as its first and last
edge normal and compares cones by cross and dot products, not angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentHeart, OutsideShadow, ToleranceTooSmall, WitnessInvalid
from .geometry import (
    PARALLEL_TOL,
    ConvexPolygon,
    Region,
    _clip_ring,
    _edge_distances,
    chord,
    check_direction,
    check_directions,
    halfplane_intersection,
    perp,
    region_point_distance,
    support,
)

# Directions are folded in blocks of about this many direction x vertex
# cells, so that a block's temporaries stay at 128 kB each (256 kB for
# the doubled edge arrays), about 2.5 MB in all, whatever the number of
# directions.
_BLOCK_CELLS = 1 << 14

# heart_region's tolerances, in units of poly.eps.  The intersection gives
# every cut one eps of slack, so a heart vertex may sit that far beyond a
# folding plane or a body edge; the checks allow a few times more.
_SUPPORT_TOL = 5.0       # folding offset above the body's support value
_CONTAINMENT_TOL = 10.0  # heart vertex beyond a body edge or a folding plane
_CENTROID_TOL = 100.0    # centroid's distance from the heart

# The bisection oracle stops no finer than this many eps (bisection below
# rounding level only chases noise), and counts a reflected cap as inside
# the body when it pokes out by at most _ORACLE_FEAS_REL * diameter, just
# above rounding: 1/sin(contact angle) amplifies any larger slack at
# grazing contacts into an undershoot beyond tol.
_ORACLE_TOL_FLOOR = 10.0
_ORACLE_FEAS_REL = 1e-13

# normal_cone_check's contact points count as on the boundary, and as one
# point, within this many eps; a direction lies in a cone when its cross
# product with either end is on the wrong side by at most _ANGLE_TOL.
_CONTACT_TOL = 10.0
_ANGLE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FoldingProfile:
    """Folding offsets over a direction set, one row per direction."""

    directions: np.ndarray      # (k, 2) unit directions
    values: np.ndarray          # (k,) folding offsets
    witness_s: np.ndarray       # (k,) shadow coordinate of the maximal chord midpoint
    witness_vertex: np.ndarray  # (k,) index of the vertex that projects there
    support: np.ndarray         # (k,) support value h(omega), the largest vertex projection


def chord_midpoint(poly: ConvexPolygon, omega, s: float) -> float:
    """Midpoint coordinate (along omega) of the chord over shadow point s."""
    iv = chord(poly, s, omega)
    if iv is None:
        raise OutsideShadow(f"shadow coordinate {s} misses the body")
    return 0.5 * (iv[0] + iv[1])


def _chain_ends(poly: ConvexPolygon, w: np.ndarray, u: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lo, hi): both chord ends over every vertex projection, for a block
    of directions.

    The upper end along w_b over s[b, k] is the minimum over the edges i
    with n_i . w_b above PARALLEL_TOL, the top chain, of
    (c_i - (n_i . u_b) s[b, k]) / (n_i . w_b); the lower end is the
    maximum over the edges with n_i . w_b below -PARALLEL_TOL, the bottom
    chain.  Each chain is one run of the counterclockwise boundary, along
    which s rises (top) or falls (bottom), and the extremum sits on the
    chain edge whose s-range brackets s[b, k].  With edge i starting at
    vertex i, that edge's place in its chain is the count of the chain's
    vertices up to the vertex in one stable sort of the row, ascending for
    the top chain and descending for the bottom one.  Where projections
    tie, the count may stop on either side of a chain vertex, at which the
    edges on both sides meet.  The expression is evaluated on the
    bracketing edge and on the one before it: at a chain vertex both give
    the vertex, and the extremum of the two is the better conditioned
    value when either edge is nearly parallel to w_b.  A direction without
    a bottom (top) chain gets -inf (+inf).
    """
    n = s.shape[1]
    rows = np.arange(len(w))[:, None]
    # flat cell indices, ascending s along each row
    order = np.argsort(s, axis=1, kind="stable") + n * rows
    # edge data doubled along each row, so that a chain starting at any
    # edge runs on without wrapping; indexed flat as well
    normals = np.concatenate([poly.edge_normals, poly.edge_normals])
    a = w @ normals.T   # (B, 2n)
    du = u @ normals.T  # (B, 2n)
    c = np.tile(np.concatenate([poly.edge_offsets, poly.edge_offsets]), (len(w), 1))
    ends = []
    for chain, way, extremum, absent in ((a[:, :n] < -PARALLEL_TOL, order[:, ::-1], np.maximum, -np.inf),
                                         (a[:, :n] > PARALLEL_TOL, order, np.minimum, np.inf)):
        count = np.empty_like(order)
        np.put(count, way, np.cumsum(np.take(chain, way), axis=1))
        start = np.argmax(chain & ~np.roll(chain, 1, axis=1), axis=1)[:, None] + 2 * n * rows
        e = np.maximum(count + (start - 1), start)
        end = (np.take(c, e) - np.take(du, e) * s) / np.take(a, e)
        e = np.maximum(e - 1, start)
        extremum(end, (np.take(c, e) - np.take(du, e) * s) / np.take(a, e), out=end)
        end[~chain.any(axis=1)] = absent
        ends.append(end)
    return tuple(ends)


def _vertex_chord_midpoints(poly: ConvexPolygon, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """(s, f) of :func:`vertex_chord_midpoints` for a block of directions,
    one row each, and every vertex's own coordinate along each direction."""
    u = np.column_stack([-w[:, 1], w[:, 0]])  # perp of every row
    s = u @ poly.vertices.T
    own = w @ poly.vertices.T
    lo, hi = _chain_ends(poly, w, u, s)
    f = 0.5 * (lo + hi)
    bad = ~np.isfinite(f) | (lo > hi)
    f[bad] = own[bad]
    return s, f, own


def vertex_chord_midpoints(poly: ConvexPolygon, omega) -> tuple[np.ndarray, np.ndarray]:
    """Chord midpoints over every vertex projection.

    Returns (s, f): projection coordinates of the vertices onto the axis
    perp(omega) and the chord-midpoint value above each.  Degenerate chords
    at shadow-extreme vertices contribute the vertex's own omega-coordinate.
    """
    s, f, _ = _vertex_chord_midpoints(poly, check_direction(omega)[None, :])
    return s[0], f[0]


def folding_offset(poly: ConvexPolygon, omega) -> float:
    """Maximal folding offset via the vertex-projection maximum.

    The chord-midpoint function is piecewise linear in the shadow coordinate
    with breakpoints exactly at vertex projections, so its maximum over the
    shadow is attained at one of them.  First maximal vertex index wins ties.
    This is the one-direction case of :func:`folding_profile`.
    """
    return float(folding_profile(poly, [omega]).values[0])


def folding_profile(poly: ConvexPolygon, directions) -> FoldingProfile:
    """Folding offsets over many directions, each as in :func:`folding_offset`.

    The directions are evaluated in blocks, each in one set of array
    operations.  Each row's vertex projections are sorted once, stably;
    they form a rising and a falling run, which the sort merges in linear
    time, and every other step is linear in the vertex count.  Each
    block's vertex projections also give the support values, so no
    matrix product spans all directions at once: one that large would
    run on OpenBLAS's worker threads.
    """
    w = check_directions(directions)
    values = np.empty(len(w))
    witness_s = np.empty(len(w))
    witness_vertex = np.empty(len(w), dtype=np.intp)
    support = np.empty(len(w))
    block = max(1, _BLOCK_CELLS // len(poly.vertices))
    for k in range(0, len(w), block):
        s, f, own = _vertex_chord_midpoints(poly, w[k:k + block])
        j = np.argmax(f, axis=1)
        rows = np.arange(len(j))
        values[k:k + block] = f[rows, j]
        witness_s[k:k + block] = s[rows, j]
        witness_vertex[k:k + block] = j
        support[k:k + block] = own.max(axis=1)
    return FoldingProfile(w, values, witness_s, witness_vertex, support)


def folding_offset_bisection(poly: ConvexPolygon, omega, tol: float) -> float:
    """Reference folding offset, straight from the definition.

    Bisects on lambda over [-h(-omega), h(omega)] with the predicate
    "the reflected upper cap fits inside the body".  Feasibility is
    monotone in lambda (smaller caps are easier to fold), which the
    endpoints assert.  The result is the smallest feasible lambda to
    within max(tol, 10 * eps).
    """
    w = check_direction(omega)
    if tol < poly.eps:
        raise ToleranceTooSmall(f"tol {tol} below geometric floor {poly.eps}")
    tol = max(tol, _ORACLE_TOL_FLOOR * poly.eps)
    v = poly.vertices
    nrm = poly.edge_normals
    off = poly.edge_offsets
    feas = _ORACLE_FEAS_REL * poly.diameter

    def excess(lam: float) -> float:
        """How far the reflected cap reaches beyond the body (-inf: no cap)."""
        ring = _clip_ring(v, -w, -lam)  # the cap {x . w >= lam}
        if len(ring) == 0:
            return -np.inf
        refl = ring - 2.0 * ((ring @ w - lam))[:, None] * w[None, :]
        return float((refl @ nrm.T - off[None, :]).max())

    def feasible(lam: float) -> bool:
        return excess(lam) <= feas

    hi = support(poly, w)
    lo = -support(poly, -w)
    if not feasible(hi):
        raise InconsistentHeart(
            f"folding infeasible at the support level: the reflected cap reaches "
            f"{excess(hi):.3e} beyond the body (tolerance {feas:.3e})"
        )
    if feasible(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def heart_directions(poly: ConvexPolygon, n_dirs: int) -> np.ndarray:
    """Sampled direction set: n_dirs uniform angles, every body edge normal
    and both coordinate axes, normalized.  Directions that repeat stay:
    the heart's sweep keeps one plane per direction."""
    ang = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    axes = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    arr = np.concatenate([np.column_stack([np.cos(ang), np.sin(ang)]), poly.edge_normals, axes])
    arr /= np.hypot(arr[:, 0], arr[:, 1])[:, None]
    return arr


def heart_region(poly: ConvexPolygon, n_dirs: int) -> tuple[Region, FoldingProfile]:
    """Outer approximation of the heart over a sampled direction set: the
    intersection of the half-planes {x . omega <= offset} over the
    profile's directions and values, and that profile.

    Raises InconsistentHeart when the construction contradicts itself
    (empty intersection, centroid excluded, or an offset exceeding the
    support value): those are hard failures, never warnings.  Each
    message gives the measured excess and the tolerance it broke, or for
    an empty intersection the slack each cut had.
    """
    if n_dirs < 4:
        raise ValueError("need at least 4 directions")
    dirs = heart_directions(poly, n_dirs)
    profile = folding_profile(poly, dirs)
    eps = poly.eps
    vals = profile.values
    over = vals - profile.support
    if over.max() > _SUPPORT_TOL * eps:
        i = int(np.argmax(over))
        raise InconsistentHeart(
            f"folding offset exceeds the support value by {over[i]:.3e} at direction "
            f"{dirs[i].tolist()} (tolerance {_SUPPORT_TOL * eps:.3e})"
        )
    # The body's edges need no cut of their own.  Every edge normal is among
    # the directions, moved by normalizing at most, and the sweep keeps the
    # innermost of the planes within PARALLEL_TOL of it.  The check above
    # keeps each offset within _SUPPORT_TOL eps of the support value, which
    # at an edge normal is that edge's offset: the folding plane there is
    # the edge line or lies inside it.  The containment check below still
    # guards the result.
    planes = np.column_stack([dirs, vals])
    region = halfplane_intersection(planes, poly.bbox, eps)
    if region.is_empty:
        raise InconsistentHeart(
            f"heart intersection of {len(planes)} half-planes came out empty "
            f"(slack {eps:.3e} per cut)"
        )
    gap = region_point_distance(region, poly.centroid)
    if gap > _CENTROID_TOL * eps:
        raise InconsistentHeart(
            f"centroid lies {gap:.3e} outside the heart (tolerance {_CENTROID_TOL * eps:.3e}); "
            f"folding values inconsistent"
        )
    out = (region.points @ poly.edge_normals.T - poly.edge_offsets).max()
    if out > _CONTAINMENT_TOL * eps:
        raise InconsistentHeart(
            f"heart left the body by {out:.3e} (tolerance {_CONTAINMENT_TOL * eps:.3e})"
        )
    if region.kind == "polygon":
        # in direction blocks, as in folding_profile: one product over
        # all directions would run on OpenBLAS's worker threads
        block = max(1, _BLOCK_CELLS // len(region.points))
        above = max(((region.points @ dirs[k:k + block].T).max(axis=0) - vals[k:k + block]).max()
                    for k in range(0, len(dirs), block))
        if above > _CONTAINMENT_TOL * eps:
            raise InconsistentHeart(
                f"heart support exceeds a folding offset by {above:.3e} "
                f"(tolerance {_CONTAINMENT_TOL * eps:.3e})"
            )
    return region, profile


@dataclass(frozen=True)
class WidthBound:
    bound: float
    heart_width: float


def heart_width_bound(poly: ConvexPolygon, omega, heart: Region) -> WidthBound:
    """Two-sided folding bound on the width along omega, and heart's width there."""
    w = check_direction(omega)
    bound = folding_offset(poly, w) + folding_offset(poly, -w)
    vals = heart.points @ w
    return WidthBound(float(bound), float(vals.max() - vals.min()))


def heart_ball_radius(poly: ConvexPolygon, heart: Region) -> float:
    """Radius of the smallest centroid-centered ball containing the heart.

    The heart is the intersection of finitely many half-planes, a convex
    polygon, segment or point, so its farthest point from the centroid is
    one of its points and the radius is that point's distance.
    """
    return float(np.hypot(*(heart.points - poly.centroid).T).max())


# --- necessary optimality condition at the witness ------------------------

# A normal cone is the pair (a, b) of its first and last outward edge
# normals, counterclockwise, or this value at a point near every edge.
_ALL_DIRECTIONS = "all directions"


def _cross(p: np.ndarray, q: np.ndarray) -> float:
    return float(p[0] * q[1] - p[1] * q[0])


def _normal_cone(poly: ConvexPolygon, x: np.ndarray, tol: float):
    """Normal cone at a boundary point, None off the boundary."""
    on = _edge_distances(poly.vertices, poly.edges, x) <= tol
    if not on.any():
        return None
    if on.all():
        return _ALL_DIRECTIONS
    # edges are listed counterclockwise: the run of incident edges starts
    # at the first one whose predecessor is not incident
    start = int(np.argmax(on & ~np.roll(on, 1)))
    end = (start + int(np.argmin(np.roll(on, -start))) - 1) % len(on)
    return poly.edge_normals[start], poly.edge_normals[end]


def _in_cone(v: np.ndarray, cone) -> bool:
    """Direction v lies in the cone (a, b).  The last test keeps out the
    antipode of a zero-width cone; unlike v . (a + b) > 0 it also holds at
    a needle tip, where a is nearly -b."""
    a, b = cone
    return _cross(a, v) >= -_ANGLE_TOL and _cross(v, b) >= -_ANGLE_TOL and max(v @ a, v @ b) > 0.0


def _reflection_within(inner, outer, w: np.ndarray) -> bool:
    """The image of cone inner under v -> v - 2 (v . w) w lies in cone
    outer; the reflection reverses orientation, so the ends of inner swap."""
    if outer is _ALL_DIRECTIONS or inner is _ALL_DIRECTIONS:
        return outer is _ALL_DIRECTIONS
    p, q = (v - 2.0 * (v @ w) * w for v in inner[::-1])
    return _in_cone(p, outer) and _in_cone(q, outer) and _cross(p, q) >= -_ANGLE_TOL


def _half_cone(cone, w: np.ndarray):
    """The directions v of the cone with v . w >= 0, clipped at -perp(w)
    and perp(w); None when there are none."""
    u = perp(w)
    if cone is _ALL_DIRECTIONS:
        return -u, u
    a, b = cone
    if a @ w < 0.0 and b @ w < 0.0:
        return None
    return (a if a @ w >= 0.0 else -u), (b if b @ w >= 0.0 else u)


def normal_cone_check(poly: ConvexPolygon, omega, value: float, witness_s: float) -> bool:
    """Necessary optimality condition at a folding witness: one row of a
    :class:`FoldingProfile`, its direction, offset and witness coordinate.

    Reflecting the normal cone at the lower chord contact across the
    folding line must land inside the normal cone at the upper contact;
    when the two contacts coincide the condition applies to the half-cones
    split by the sign of xi . omega.  Fails (returns False) for any witness
    whose reflected contact is off the boundary, e.g. a perturbed offset.
    """
    w = check_direction(omega)
    iv = chord(poly, witness_s, w)
    if iv is None:
        raise WitnessInvalid(f"witness coordinate {witness_s} misses the body")
    u = perp(w)
    x_top = witness_s * u + iv[1] * w
    x_bot = witness_s * u + (2.0 * value - iv[1]) * w
    tol = _CONTACT_TOL * poly.eps
    if float(np.hypot(*(x_top - x_bot))) <= tol:
        cone = _normal_cone(poly, x_top, tol)
        if cone is None:
            return False
        lower = _half_cone(cone, -w)
        if lower is None:
            return True  # nothing to fold
        upper = _half_cone(cone, w)
        return upper is not None and _reflection_within(lower, upper, w)
    cone_bot = _normal_cone(poly, x_bot, tol)
    if cone_bot is None:
        return False
    cone_top = _normal_cone(poly, x_top, tol)
    return cone_top is not None and _reflection_within(cone_bot, cone_top, w)
