"""Tracking the hot spot of the half-disc and checking it against the heart.

Solves the heat equation with unit initial data on a 64-gon half-disc,
follows the maximum of the solution, and verifies that the whole
trajectory (and the eigenfunction peak it converges to) stays inside
the computed heart, and that every sampled hot spot lies at least as deep
as the short-time bound delta(t) the maximum principle gives.  For this body the heart degenerates to a vertical
segment on the symmetry axis.  Writes the lowest eigenfunction of the
grid Laplacian to demos/out/halfdisc_eigen.csv.

    python3 demos/demo_hot_spot_pde.py
"""

import pathlib

from polyheart import bodies
from polyheart.folding import heart_region
from polyheart.pde import default_spacing, full_verify, write_csv

OUT = pathlib.Path(__file__).parent / "out"


def main():
    hd = bodies.halfdisc(1.0, 0.0, 64)
    heart, _ = heart_region(hd, 720)
    print(f"half-disc of radius 1, grid spacing h = {default_spacing(hd):.5f}")
    print(f"heart: {heart.kind} from ({heart.points[0][0]:.4f}, {heart.points[0][1]:.4f})"
          f" to ({heart.points[-1][0]:.4f}, {heart.points[-1][1]:.4f})")

    rep = full_verify(hd, h=None, heart=heart)
    eig = rep.eigen
    print(f"\nfirst eigenvalue {eig.eigenvalue:.6f} (residual {eig.residual:.2e})")
    print(f"eigenfunction peak at ({eig.location[0]:.5f}, {eig.location[1]:.5f})")

    print("\nhot spot trajectory (every 4th sample)")
    print("   time        x          y        peak")
    for s in rep.samples[::4]:
        print(f"  {s.time:8.4f}  {s.location[0]:9.5f}  {s.location[1]:9.5f}  {s.peak:.3e}")

    m = rep.membership
    print(f"\nmembership: worst distance to heart {m.worst_gap:.2e}"
          f" (allowed slack {m.slack:.2e}) -> {'ok' if m.ok else 'FAIL'}")
    st = rep.short_time
    print(f"short-time bound: every sample at least {st.least_margin:.5f} deeper than delta(t)"
          f" (allowed slack {st.slack:.2e}; delta > 0 at {st.n_positive} of {len(rep.samples)} samples)"
          f" -> {'ok' if st.ok else 'FAIL'}")

    OUT.mkdir(exist_ok=True)
    path = OUT / "halfdisc_eigen.csv"
    write_csv(rep.grid, eig.values, path)
    print(f"\neigenfunction written to {path}")


if __name__ == "__main__":
    main()
