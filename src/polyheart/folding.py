"""Maximal folding offsets and the heart of a convex polygon.

For a direction omega, the folding offset is the smallest level lambda such
that reflecting the part of the body above the line {x . omega = lambda}
across that line lands inside the body.  For polygons it equals the largest
chord midpoint over the projections of the vertices.  The chord over a
projection runs between the two boundary chains, the edges facing along
omega (the top chain) and those facing against it (the bottom chain).
Along the shadow the upper end is concave and the lower end convex, so
their midpoint peaks at a top-chain vertex: only those are evaluated.
Each one is its own chord's upper end.  Its lower end takes one chain
search per direction: the projections fall along the bottom chain, so
one stable sort of them, which merges the boundary's rising and falling
runs in linear time, and a running count of the chain's vertices in
sorted order name the one edge that bounds the chord.
:func:`folding_profile` does this for many directions at once, in blocks
of array operations, and :func:`folding_offset` is its one-direction case.
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
uniform angle, and no offset exceeds the support value (each is the
midpoint of a chord whose upper end is a vertex), so the body's own
edges are implied and are not cut again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentHeart, OutsideShadow, ToleranceTooSmall
from .geometry import (
    PARALLEL_TOL,
    ConvexPolygon,
    Region,
    _clip_ring,
    chord,
    check_direction,
    check_directions,
    halfplane_intersection,
    region_point_distance,
)

# Directions are folded in blocks of about this many direction x vertex
# cells, so that a block's temporaries stay at 128 kB each, whatever the
# number of directions.
_BLOCK_CELLS = 1 << 14

# heart_region's tolerances, in units of poly.eps.  The intersection gives
# every cut one eps of slack, so a heart vertex may sit that far beyond a
# folding plane or a body edge; the checks allow a few times more.
_CONTAINMENT_TOL = 10.0  # heart vertex beyond a body edge or a folding plane
_CENTROID_TOL = 100.0    # centroid's distance from the heart

# The bisection oracle stops no finer than this many eps (bisection below
# rounding level only chases noise), and counts a reflected cap as inside
# the body when it pokes out by at most _ORACLE_FEAS_REL * diameter, just
# above rounding: 1/sin(contact angle) amplifies any larger slack at
# grazing contacts into an undershoot beyond tol.
_ORACLE_TOL_FLOOR = 10.0
_ORACLE_FEAS_REL = 1e-13


@dataclass(frozen=True, eq=False)
class FoldingProfile:
    """Folding offsets over a direction set, one row per direction."""

    directions: np.ndarray      # (k, 2) unit directions
    values: np.ndarray          # (k,) folding offsets
    witness_vertex: np.ndarray  # (k,) index of the vertex under the maximal chord midpoint


def chord_midpoint(poly: ConvexPolygon, omega, s: float) -> float:
    """Midpoint coordinate (along omega) of the chord over shadow point s."""
    iv = chord(poly, s, omega)
    if iv is None:
        raise OutsideShadow(f"shadow coordinate {s} misses the body")
    return 0.5 * (iv[0] + iv[1])


def _wrapped_edges(poly: ConvexPolygon, frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(normals, c): the edge normals and offsets c_i = n_i . frame[i] in
    the frame of the vertex coordinates frame, the last edge first: column
    i + 1 holds edge i, so vertex k's own edges k - 1 and k are columns k
    and k + 1, and edge indices wrap without doubled arrays."""
    c = np.sum(poly.edge_normals * frame, axis=1)
    return np.concatenate([poly.edge_normals[-1:], poly.edge_normals]), np.concatenate([c[-1:], c])


def _lower_ends(s: np.ndarray, own: np.ndarray, a: np.ndarray, du: np.ndarray,
                c: np.ndarray) -> np.ndarray:
    """Lower chord end along w_b over every vertex projection s[b, k], for
    a block of directions with the vertex coordinates own[b, k] along w_b,
    the offsets c of :func:`_wrapped_edges` and their normals' products
    a = n_i . w_b and du = n_i . u_b.

    The lower end is the maximum over the edges i with n_i . w_b below
    -PARALLEL_TOL, the bottom chain, of (c_i - (n_i . u_b) s[b, k]) /
    (n_i . w_b).  At a vertex of the chain it is the vertex's own
    coordinate, which is taken as it is: an edge nearly parallel to w_b
    puts its line's value there off by about eps * diam / |n_i . w_b|.
    The chain is one run of the counterclockwise boundary, along which s
    falls, and the maximum sits on the chain edge whose s-range brackets
    s[b, k].  With edge i starting at vertex i, that edge's place in the
    chain is the count of the chain's vertices up to the vertex in one
    stable descending sort of the row.  Where projections tie, the count
    may stop on either side of a chain vertex, at which the edges on both
    sides meet, so the expression is evaluated on the bracketing edge and
    on the one before it, and the larger value is kept.  Every direction
    has a bottom chain, since ConvexPolygon rejects needle tips.  At -w_b,
    -s, -own and -a, -du the same search gives minus the upper end.
    """
    m, n = s.shape
    rows = np.arange(m)[:, None]
    # flat cell indices, descending s along each row
    order = np.argsort(s, axis=1, kind="stable")[:, ::-1] + n * rows
    chain = a[:, 1:] < -PARALLEL_TOL
    count = np.empty_like(order)
    np.put(count, order, np.cumsum(np.take(chain, order), axis=1))
    before = a[:, :-1] < -PARALLEL_TOL
    start = np.argmax(chain & ~before, axis=1)[:, None]
    # the bracketing edge's column, wrapped past the last edge
    col = start + np.maximum(count, 1)
    np.subtract(col, n, out=col, where=col > n)
    flat = col + (n + 1) * rows
    lo = (np.take(c, col) - np.take(du, flat) * s) / np.take(a, flat)
    step = count > 1  # the edge before, unless the bracketing edge starts the chain
    col -= step
    flat -= step
    np.maximum(lo, (np.take(c, col) - np.take(du, flat) * s) / np.take(a, flat), out=lo)
    return np.where(chain | before, own, lo)


def folding_offset(poly: ConvexPolygon, omega) -> float:
    """Maximal folding offset via the vertex-projection maximum.

    The chord-midpoint function is piecewise linear in the shadow coordinate
    with breakpoints exactly at vertex projections, so its maximum over the
    shadow is attained at one of them, and at a vertex of the top chain
    (see :func:`folding_profile`).  First maximal vertex index wins ties.
    This is the one-direction case of :func:`folding_profile`.
    """
    return float(folding_profile(poly, [omega]).values[0])


def folding_profile(poly: ConvexPolygon, directions) -> FoldingProfile:
    """Folding offsets over many directions, each as in :func:`folding_offset`.

    Over the shadow, the chord midpoint is half the sum of the upper end,
    concave in s, and the lower end, convex in s.  Its maximum therefore
    sits at a kink of the upper end or at a shadow end, and both are
    vertices of the top chain (an edge at the vertex has n_i . omega above
    PARALLEL_TOL), which every direction has, since ConvexPolygon rejects
    needle tips.  Only those vertices are evaluated, and every other one
    gets -inf.  A top-chain vertex is its own chord's upper end, so that
    end is its own coordinate and needs no search; the lower end comes
    from one chain search (:func:`_lower_ends`), and one that rounds above
    the vertex falls back to the vertex's own coordinate.  All of it runs
    in the frame at vertex 0: s, the vertex coordinates and the edge
    offsets come from v - v_0, and omega . v_0 is added back to the
    values, so that their rounding scales with the diameter, not with the
    distance from the origin.

    The directions are evaluated in blocks, each in one set of array
    operations: one stable sort of each row's vertex projections, which
    form a rising and a falling run that the sort merges in linear time,
    and otherwise steps linear in the vertex count.  No matrix product
    spans all directions at once: one that large would run on OpenBLAS's
    worker threads.  The edge data that do not depend on the direction
    are built once.
    """
    w = check_directions(directions)
    values = np.empty(len(w))
    witness_vertex = np.empty(len(w), dtype=np.intp)
    v0 = poly.vertices[0]
    frame = poly.vertices - v0
    normals, c = _wrapped_edges(poly, frame)
    block = max(1, _BLOCK_CELLS // len(frame))
    for k in range(0, len(w), block):
        wb = w[k:k + block]
        u = np.column_stack([-wb[:, 1], wb[:, 0]])  # perp of every row
        s = u @ frame.T
        own = wb @ frame.T
        a = wb @ normals.T
        lo = _lower_ends(s, own, a, u @ normals.T, c)
        f = 0.5 * (np.minimum(lo, own) + own)
        f[(a[:, :-1] <= PARALLEL_TOL) & (a[:, 1:] <= PARALLEL_TOL)] = -np.inf  # off the top chain
        j = np.argmax(f, axis=1)
        values[k:k + block] = f[np.arange(len(j)), j] + wb @ v0
        witness_vertex[k:k + block] = j
    return FoldingProfile(w, values, witness_vertex)


def folding_offset_bisection(poly: ConvexPolygon, omega, tol: float) -> float:
    """Reference folding offset, straight from the definition.

    Bisects on lambda over [-h(-omega), h(omega)] with the predicate
    "the reflected upper cap fits inside the body".  Feasibility is
    monotone in lambda (smaller caps are easier to fold), which the
    endpoints assert.  The result is the smallest feasible lambda to
    within max(tol, 10 * eps).  The clip and the reflection run in the
    frame at vertex 0, on v - v_0 against the offsets n_i . (v_i - v_0),
    and omega . v_0 is added back to the result.
    """
    w = check_direction(omega)
    if tol < poly.eps:
        raise ToleranceTooSmall(f"tol {tol} below geometric floor {poly.eps}")
    tol = max(tol, _ORACLE_TOL_FLOOR * poly.eps)
    v0 = poly.vertices[0]
    v = poly.vertices - v0
    nrm = poly.edge_normals
    off = np.sum(nrm * v, axis=1)
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

    proj = v @ w
    hi, lo = float(proj.max()), float(proj.min())
    shift = float(w @ v0)
    if not feasible(hi):
        raise InconsistentHeart(
            f"folding infeasible at the support level: the reflected cap reaches "
            f"{excess(hi):.3e} beyond the body (tolerance {feas:.3e})"
        )
    if feasible(lo):
        return lo + shift
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi + shift


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
    (empty intersection, centroid excluded, or the heart beyond a body
    edge or a folding plane): those are hard failures, never warnings.
    Each message gives the measured excess and the tolerance it broke, or
    for an empty intersection the slack each cut had.
    """
    if n_dirs < 4:
        raise ValueError("need at least 4 directions")
    dirs = heart_directions(poly, n_dirs)
    profile = folding_profile(poly, dirs)
    eps = poly.eps
    vals = profile.values
    # The body's edges need no cut of their own.  Every edge normal is among
    # the directions, moved by normalizing at most, and the sweep keeps the
    # innermost of the planes within PARALLEL_TOL of it.  No offset exceeds
    # the support value beyond rounding, which at an edge normal is that
    # edge's offset: the folding plane there is the edge line or lies
    # inside it.  The containment check below still guards the result.
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
