"""Exception types shared across the package.

Every error raised on purpose derives from PolyheartError so callers (and the
CLI) can separate expected failure modes from genuine bugs.
"""

from __future__ import annotations


class PolyheartError(Exception):
    """Base class for all package-specific errors."""


class InvalidPolygon(PolyheartError):
    """Vertex list is not a valid counterclockwise convex polygon."""


class OutsideShadow(PolyheartError):
    """Requested chord coordinate lies outside the body's shadow."""


class ToleranceTooSmall(PolyheartError):
    """Requested tolerance is below the geometric noise floor."""


class QuadratureUnstable(PolyheartError):
    """Reciprocal support integral blows up: a center's edge gap is below tolerance."""


class CenterTooCloseToBoundary(PolyheartError):
    """Polar body blows up: base point is within tolerance of the boundary."""


class DenominatorTooSmall(PolyheartError):
    """Reconstructed chord length too close to zero to divide by."""


class GridTooCoarse(PolyheartError):
    """Grid spacing too large relative to the inradius."""


class NoConvergence(PolyheartError):
    """Iterative solver exhausted its iteration budget."""


class InconsistentHeart(PolyheartError):
    """Heart construction produced an impossible result (hard failure)."""


class UsageError(PolyheartError):
    """Command line does not parse: an unknown subcommand or option, or a
    missing or mistyped value."""
