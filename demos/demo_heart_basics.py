"""Folding offsets and the heart of a scalene triangle.

Walks the basic pipeline: evaluate the folding offset in a few
directions, intersect the folding half-planes into the heart, and check
the membership guarantees (centroid inside, ball bound) numerically.
Run from the repository root:

    python3 demos/demo_heart_basics.py
"""

import numpy as np

from polyheart import bodies
from polyheart.folding import (
    folding_offset,
    heart_ball_radius,
    heart_region,
    heart_width_bound,
)
from polyheart.geometry import region_point_distance, support, unit


def main():
    tri = bodies.triangle((0.0, 0.0), (2.0, 0.0), (0.3, 0.4))
    print("body: scalene triangle, area %.6f, centroid (%.6f, %.6f)" % (
        tri.area, tri.centroid[0], tri.centroid[1]))

    print("\nfolding offset vs plain support in a few directions")
    print("  angle     offset        support      gap")
    for deg in (0, 30, 60, 90, 120, 150):
        w = unit(np.radians(deg))
        r = folding_offset(tri, w)
        h = support(tri, w)
        print(f"  {deg:5d}  {r:12.8f}  {h:12.8f}  {h - r:10.3e}")
    # The gap h - r is how far the folding plane cuts past the support
    # line; it is what shrinks the heart below the body.

    print("\nheart as the direction grid refines")
    prev = None
    for n in (45, 90, 180, 360, 720):
        heart, _ = heart_region(tri, n)
        verts = heart.points
        spread = float(np.ptp(verts, axis=0).max()) if len(verts) > 1 else 0.0
        print(f"  {n:4d} dirs: kind={heart.kind:8s} vertex spread {spread:.6e}")
        if prev is not None:
            assert spread <= prev + 1e-12  # outer approximation only shrinks
        prev = spread

    heart, _ = heart_region(tri, 720)
    d = region_point_distance(heart, tri.centroid)
    print(f"\ncentroid sits inside the heart (distance {d:.3e})")

    radius = heart_ball_radius(tri, heart)
    print(f"bounding ball: center ({tri.centroid[0]:.6f}, {tri.centroid[1]:.6f}), radius {radius:.6f}")

    wb = heart_width_bound(tri, unit(0.7), heart)
    print(f"width along 0.7 rad: heart {wb.heart_width:.6f} <= bound {wb.bound:.6f}")


if __name__ == "__main__":
    main()
