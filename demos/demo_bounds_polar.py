"""Distance bounds and the polar-body picture on a random heptagon.

Compares the provable lower bounds on the hot spot's boundary distance
with the depth actually measured by the finite-difference solver, then
looks at the same body through its polar dual: Santalo point, product
of areas, and the eigenvalue form of the area inequality.

    python3 demos/demo_bounds_polar.py
"""

import numpy as np

from polyheart import bodies
from polyheart.bounds import (
    distance_bounds_convex,
    distance_bounds_general,
    eigenvalue_upper_bounds,
    minimal_reciprocal_support_integral,
)
from polyheart.geometry import boundary_distance, chebyshev_center
from polyheart.pde import eigen_solve, rasterize
from polyheart.polar import polar_area, polar_area_eigen_check, santalo_point


def main():
    poly = bodies.random_convex_polygon(np.random.default_rng(7), 7)
    inradius = poly.incircle.radius
    print(f"random heptagon: area {poly.area:.5f}, perimeter {poly.perimeter:.5f},"
          f" diameter {poly.diameter:.5f}, inradius {inradius:.5f}")

    h = inradius / 50.0
    eig = eigen_solve(rasterize(poly, h))
    depth = boundary_distance(poly, eig.location)
    print(f"\nnumeric eigenvalue {eig.eigenvalue:.5f}, hot spot limit"
          f" ({eig.location[0]:.5f}, {eig.location[1]:.5f}), depth {depth:.5f}")

    ub = eigenvalue_upper_bounds(poly, minimal_reciprocal_support_integral(poly)[0])
    print("\neigenvalue upper bounds")
    print(f"  perimeter/inradius form  {ub.perimeter_over_inradius:.5f}")
    print(f"  inscribed-ball form      {ub.monotone:.5f}")
    print(f"  support-integral form    {ub.support_integral:.5f}")
    print(f"  best available           {ub.best:.5f}")

    gen = distance_bounds_general(poly, ub.best)
    conv = distance_bounds_convex(poly)
    print("\nboundary-distance lower bounds vs measured depth"
          f" {depth:.5f}")
    for label, b in (
        ("general, precise ", gen.precise),
        ("general, coarse  ", gen.coarse),
        ("convex, precise  ", conv.precise),
        ("convex, coarse   ", conv.coarse),
    ):
        mark = "ok" if depth >= b else "VIOLATED"
        print(f"  {label} {b:.3e}  {mark}")
    # The bounds are conservative by design; several orders of margin
    # on a generic body is expected.

    s = santalo_point(poly)
    print(f"\nSantalo point ({s[0]:.6f}, {s[1]:.6f})")
    cheb = chebyshev_center(poly)
    for label, c in (("santalo", s), ("chebyshev", cheb.center), ("centroid", poly.centroid)):
        prod = poly.area * polar_area(poly, c)
        print(f"  area product at {label:9s} {prod:.6f}")

    chk = polar_area_eigen_check(poly, eig.location, eig.eigenvalue)
    print(f"\npolar area at hot spot limit {chk.lhs:.5f}"
          f" <= eigenvalue form {chk.rhs:.5f} -> {'ok' if chk.ok else 'FAIL'}")


if __name__ == "__main__":
    main()
