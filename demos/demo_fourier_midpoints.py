"""Recovering chord midpoints from the indicator transform.

The transform of a polygon's indicator function, restricted to a line
of frequencies, encodes every chord along the matching direction.  The
demo evaluates the closed-form transform, inverts it for chord lengths
and midpoints, compares against direct geometry, and shows the
truncation error falling about fourfold as the frequency cutoff doubles.
For a polygon the inversion integral truncated at the cutoff is itself
a closed form, a sum over the edges of sine integrals at their end
projections, so the errors printed are the truncation's alone: the sums
are evaluated to within about 1e-15 of the diameter.  Both midpoint
functions take many directions, each with its own row of shadow points,
in one call.

    python3 demos/demo_fourier_midpoints.py
"""

import numpy as np

from polyheart import bodies
from polyheart.folding import chord_midpoint
from polyheart.fourier import chord_via_transform, indicator_transform, midpoint_via_transform
from polyheart.geometry import chord, shadow_interval, unit


def main():
    poly = bodies.regular_ngon(7)
    t0 = indicator_transform(poly, np.zeros(2))
    print(f"regular 7-gon: transform at zero {t0.real:.12f} vs area {poly.area:.12f}")

    w = unit(0.6)
    lo, hi = shadow_interval(poly, w)
    print(f"\nshadow along perp of 0.6 rad: [{lo:.5f}, {hi:.5f}]")
    print("  y        chord(exact)  chord(fourier)  mid(exact)  mid(fourier)   err")
    ys = lo + np.array([0.25, 0.4, 0.5, 0.6, 0.75]) * (hi - lo)
    # one transform evaluation serves all five midpoints, and one call of
    # the array form of chord_midpoint gives their direct values
    mids = midpoint_via_transform(poly, w, ys, 400.0)
    directs = chord_midpoint(poly, w[None], ys[None])[0]
    for y, m_four, m_direct in zip(ys, mids, directs):
        a, b = chord(poly, y, w)
        c_direct = b - a
        c_four = chord_via_transform(poly, w, y, 400.0)
        print(f"  {y:7.4f}  {c_direct:11.6f}  {c_four:13.6f}"
              f"  {m_direct:10.6f}  {m_four:11.6f}  {abs(m_four - m_direct):.2e}")

    print("\ntruncation error vs frequency cutoff (median over 16 chords)")
    gen = np.random.default_rng(3)
    dirs, ys = [], []
    for _ in range(16):
        d = unit(gen.uniform(0.0, 2.0 * np.pi))
        s0, s1 = shadow_interval(poly, d)
        dirs.append(d)
        ys.append([s0 + gen.uniform(0.2, 0.8) * (s1 - s0)])
    # 16 directions with one point each: one call of each array form
    dirs, ys = np.array(dirs), np.array(ys)
    directs = chord_midpoint(poly, dirs, ys)
    prev = None
    for cutoff in (50.0, 100.0, 200.0, 400.0):
        errs = np.abs(midpoint_via_transform(poly, dirs, ys, cutoff=cutoff) - directs)
        med = float(np.median(errs))
        note = "" if prev is None else f"  ratio {med / prev:.3f}"
        print(f"  cutoff {cutoff:6.0f}: median {med:.3e}{note}")
        prev = med


if __name__ == "__main__":
    main()
