"""polyheart: provable confinement regions for the hot spot of a convex polygon.

The library computes the maximal folding function of a convex body, the
heart region it carves out, polar-body and spectral lower bounds for the
distance from the hot spot to the boundary, a Fourier cross-check of the
folding geometry, and a finite-difference verifier for the heat flow.
"""

from .errors import (
    CenterTooCloseToBoundary,
    DenominatorTooSmall,
    GridTooCoarse,
    InconsistentHeart,
    InvalidPolygon,
    NoConvergence,
    OutsideShadow,
    PolyheartError,
    QuadratureUnstable,
    ToleranceTooSmall,
)
from .geometry import (
    ConvexPolygon,
    Region,
    chebyshev_center,
    chord,
    halfplane_intersection,
    support,
)

__version__ = "0.1.0"
