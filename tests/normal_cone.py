"""Necessary optimality condition at a folding witness, the reference
check the folding tests hold every profile row to.

normal_cone_check holds each normal cone as its first and last edge
normal and compares cones by cross and dot products, not angles.
"""

import numpy as np

from polyheart.errors import PolyheartError
from polyheart.geometry import ConvexPolygon, _edge_distances, check_direction, chord, perp

# normal_cone_check's contact points count as on the boundary, and as one
# point, within this many eps; a direction lies in a cone when its cross
# product with either end is on the wrong side by at most _ANGLE_TOL.
_CONTACT_TOL = 10.0
_ANGLE_TOL = 1e-9


class WitnessInvalid(PolyheartError):
    """Folding witness does not describe a valid chord of the body."""


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


def normal_cone_check(poly: ConvexPolygon, omega, value: float, vertex: int) -> bool:
    """Necessary optimality condition at a folding witness: one row of a
    FoldingProfile, its direction, offset and witness vertex, whose
    projection perp(omega) . v[vertex] is the witness coordinate.

    Reflecting the normal cone at the lower chord contact across the
    folding line must land inside the normal cone at the upper contact;
    when the two contacts coincide the condition applies to the half-cones
    split by the sign of xi . omega.  Fails (returns False) for any witness
    whose reflected contact is off the boundary, e.g. a perturbed offset.
    """
    w = check_direction(omega)
    u = perp(w)
    witness_s = float(u @ poly.vertices[vertex])
    iv = chord(poly, witness_s, w)
    if iv is None:
        raise WitnessInvalid(f"witness coordinate {witness_s} misses the body")
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
