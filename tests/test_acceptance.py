"""End-to-end acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Criterion 2 pins the
folding offset of the 256-gon inscribed in the ellipse x^2/4 + y^2 = 1
against the smooth ellipse's closed form on the 256 directions tangent to
the ellipse at a vertex.  The polygon is an affine image of the regular
256-gon, which is symmetric about the diameter through each vertex, so its
chords along such a direction have their midpoints on that diameter, just
as the ellipse's do; the two offsets then agree to rounding.  At other
directions they differ at first order in the vertex spacing; the convergence
study for those is in test_folding.py.
Every folding offset computed anywhere in this module, by folding_offset
or by heart_region's folding profile, is recorded and fed to the
optimality diagnostic in the final test.
"""

import numpy as np
import pytest

import polyheart.folding as folding
from polyheart import bodies
from polyheart.bounds import (
    distance_bounds_convex,
    distance_bounds_general,
)
from polyheart.folding import (
    chord_midpoint,
    heart_ball_radius,
    heart_region,
    heart_width_bound,
)
from polyheart.fourier import indicator_transform, midpoint_via_transform
from polyheart.geometry import (
    boundary_distance,
    chebyshev_center,
    chord,
    region_point_distance,
    shadow_interval,
    support,
    unit,
)
from polyheart.pde import eigen_solve, full_verify, rasterize
from polyheart.polar import (
    polar_area_eigen_check,
    polar_area_lower_check,
    polar_polygon,
    santalo_point,
)

from conftest import decay_rel_err, geometric_upper_bounds, random_bodies
from normal_cone import normal_cone_check
from test_fourier import transform_area_quadrature

RECORDED_FOLDS: list = []

DISC_LAM = 5.783185962946785
RECT_LAM = 12.337005501361697  # pi^2 (1/4 + 1)


@pytest.fixture(scope="module", autouse=True)
def record_all_folding_calls():
    # folding_offset is the one-direction case of folding_profile, so
    # recording the profiles records every offset
    orig = folding.folding_profile

    def recording(poly, directions):
        profile = orig(poly, directions)
        RECORDED_FOLDS.extend((poly, row) for row in zip(profile.directions, profile.values, profile.witness_vertex))
        return profile

    folding.folding_profile = recording
    yield
    folding.folding_profile = orig


@pytest.fixture(scope="module")
def pde_bodies():
    gen = np.random.default_rng(20260815)
    return {
        "square": bodies.square(),
        "rect21": bodies.rectangle(2.0, 1.0),
        "right_tri": bodies.triangle([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]),
        "halfdisc": bodies.halfdisc(1.0, 0.0, 64),
        "hept": bodies.random_convex_polygon(gen, 7),
    }


@pytest.fixture(scope="module")
def pde_runs(pde_bodies):
    runs = {}
    for name, poly in pde_bodies.items():
        h = chebyshev_center(poly).radius / 50.0
        runs[name] = full_verify(poly, heart_region(poly, 720)[0], h=h)
    return runs


@pytest.fixture(scope="module")
def disc_eigen():
    disc = bodies.regular_ngon(256)
    h = chebyshev_center(disc).radius / 50.0
    return disc, eigen_solve(rasterize(disc, h))


def test_01_folding_matches_definition_oracle():
    gen = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(50):
        poly = bodies.random_convex_polygon(gen, int(gen.integers(5, 41)))
        budget = 1e-7 * poly.diameter
        for _ in range(64):
            w = unit(gen.uniform(0.0, 2.0 * np.pi))
            fast = folding.folding_offset(poly, w)
            slow = folding.folding_offset_bisection(poly, w, 1e-8)
            err = abs(fast - slow)
            worst = max(worst, err / poly.diameter)
            assert err <= budget, f"direction {w}: |{fast} - {slow}| > {budget}"
    assert worst <= 1e-7


def test_02_ellipse_closed_form_256gon():
    # w_k is tangent to the ellipse at vertex k of the inscribed 256-gon; the
    # polygon's chords along w_k have their midpoints on the diameter through
    # that vertex, so its offset equals the smooth closed form exactly there
    a, b, m = 2.0, 1.0, 256
    ell = bodies.ellipse_approx(a, b, m)
    tol = 1e-12 * ell.diameter
    s = 2.0 * np.pi * np.arange(m) / m
    thetas = np.arctan2(b * np.cos(s), -a * np.sin(s))
    errs = []
    for t in thetas:
        w1, w2 = np.cos(t), np.sin(t)
        want = 3.0 * abs(w1 * w2) / np.hypot(w1, 2.0 * w2)
        errs.append(abs(folding.folding_offset(ell, unit(t)) - want))
    errs = np.array(errs)
    j = int(np.argmax(errs))
    assert errs[j] <= tol, (
        f"max error {errs[j]:.3e} at {np.degrees(thetas[j]):.4f} deg, the tangent "
        f"at vertex {j} of {m} (median {np.median(errs):.3e}, "
        f"{int((errs > tol).sum())}/{m} directions above {tol:.1e})"
    )


def test_03_halfdisc_heart_segment():
    hd = bodies.halfdisc(1.0, 0.0, 64)
    heart, _ = heart_region(hd, 720)
    assert heart.kind == "segment"
    target = np.array([[0.0, 0.0], [0.0, 0.5]])

    def seg_dist(p, seg):
        d = seg[1] - seg[0]
        t = np.clip((p - seg[0]) @ d / (d @ d), 0.0, 1.0)
        return float(np.linalg.norm(p - seg[0] - t * d))

    haus = max(
        max(seg_dist(v, target) for v in heart.points),
        max(seg_dist(v, heart.points) for v in target),
    )
    assert haus <= 0.02, f"Hausdorff {haus}"


def test_04_symmetric_hearts_collapse_to_centroid():
    for poly in (bodies.square(), bodies.regular_ngon(6)):
        heart, _ = heart_region(poly, 360)  # 1-degree grid contains all axes
        assert heart.kind == "point"
        gap = float(np.linalg.norm(heart.points[0] - poly.centroid))
        assert gap <= 1e-9, f"heart point {heart.points[0]} vs centroid {poly.centroid}"


def test_05_heart_membership_suite(pde_bodies):
    suite = list(pde_bodies.values()) + [
        bodies.regular_ngon(6),
        bodies.regular_ngon(256),
        bodies.ellipse_approx(2.0, 1.0, 256),
    ] + random_bodies(seed=77, count=10)
    for poly in suite:
        heart, profile = heart_region(poly, 240)
        tol = 1e-7 * poly.diameter
        assert region_point_distance(heart, poly.centroid) <= tol
        hv = heart.points
        for w, value in zip(profile.directions, profile.values):
            h_heart = float((hv @ w).max())
            assert h_heart <= value + tol
            assert value <= support(poly, w) + tol
        for theta in np.linspace(0.0, np.pi, 12, endpoint=False):
            wb = heart_width_bound(poly, unit(theta), heart)
            assert wb.heart_width <= wb.bound + tol
        radius = heart_ball_radius(poly, heart)
        d = np.linalg.norm(hv - poly.centroid, axis=1)
        assert d.max() <= radius + tol


def test_06_pde_end_to_end(pde_runs, disc_eigen):
    known = {"square": 2.0 * np.pi**2, "rect21": RECT_LAM}
    for name, rep in pde_runs.items():
        assert rep.membership.ok, f"{name}: hot spot left the heart by {rep.membership.worst_gap}"
        if name in known:
            rel = abs(rep.eigen.eigenvalue - known[name]) / known[name]
            assert rel <= 0.02, f"{name}: eigenvalue off by {rel:.3%}"
        decay = decay_rel_err(rep.samples, rep.eigen.eigenvalue)
        assert decay <= 0.02, f"{name}: decay rate off by {decay:.3%}"
        assert rep.short_time.ok, f"{name}: a hot spot lies {-rep.short_time.least_margin} shallower than the short-time bound"
    _, eig = disc_eigen
    rel = abs(eig.eigenvalue - DISC_LAM) / DISC_LAM
    assert rel <= 0.02, f"disc eigenvalue off by {rel:.3%}"


def test_07_distance_bounds_consistency(pde_bodies, pde_runs, disc_eigen):
    cases = [(pde_bodies[n], pde_runs[n].eigen) for n in pde_bodies]
    cases.append(disc_eigen)
    for poly, eig in cases:
        dist = boundary_distance(poly, eig.location)
        general = distance_bounds_general(poly, geometric_upper_bounds(poly).best)
        convex = distance_bounds_convex(poly)
        for label, bound in (
            ("general-precise", general.precise),
            ("general-coarse", general.coarse),
            ("convex-precise", convex.precise),
            ("convex-coarse", convex.coarse),
        ):
            assert dist >= bound, f"{label}: measured {dist} < bound {bound}"
    square_coarse = distance_bounds_convex(bodies.square()).coarse
    assert abs(square_coarse - 0.00336) <= 1e-5


def test_08_polar_suite(pde_bodies, pde_runs, disc_eigen):
    sq = bodies.square()
    assert polar_polygon(sq, [0.5, 0.5]).area == pytest.approx(8.0, abs=1e-9)

    for poly in (sq, bodies.regular_ngon(6), *random_bodies(seed=40, count=4)):
        c = chebyshev_center(poly).center
        back = polar_polygon(polar_polygon(poly, c), c)
        # vertex sets need not align after the round trip; compare supports
        for theta in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            d = unit(theta)
            assert abs(support(back, d) - support(poly, d)) <= 1e-9 * poly.diameter

    gen = np.random.default_rng(66)
    checked = 0
    for poly in random_bodies(seed=50, count=25):
        cheb = chebyshev_center(poly)
        for _ in range(4):
            p = cheb.center + 0.6 * cheb.radius * gen.uniform(-1.0, 1.0, size=2)
            assert polar_area_lower_check(poly, p).ok
            checked += 1
    assert checked == 100

    cases = [(pde_bodies[n], pde_runs[n].eigen) for n in pde_bodies]
    cases.append(disc_eigen)
    for poly, eig in cases:
        assert polar_area_eigen_check(poly, eig.location, eig.eigenvalue).ok

    s = santalo_point(sq)
    assert np.allclose(s, [0.5, 0.5], atol=1e-6)
    for poly, _ in cases:
        sp = santalo_point(poly)
        depth = boundary_distance(poly, sp)
        general = distance_bounds_general(poly, geometric_upper_bounds(poly).best)
        convex = distance_bounds_convex(poly)
        for bound in (general.precise, general.coarse, convex.precise, convex.coarse):
            assert depth >= bound


def test_09_fourier_cross_check(pde_bodies):
    for poly in list(pde_bodies.values()) + random_bodies(seed=61, count=5):
        assert abs(indicator_transform(poly, np.zeros(2)) - poly.area) <= 1e-12 * max(1.0, poly.area)

    gen = np.random.default_rng(71)
    polys = random_bodies(seed=72, count=4)
    for k in range(20):
        poly = polys[k % 4]
        xi = gen.uniform(-6.0, 6.0, size=2) * 4.0 / poly.diameter
        got = indicator_transform(poly, xi)
        want = transform_area_quadrature(poly, xi)
        assert abs(got - want) <= 1e-8

    three = (bodies.square(), bodies.regular_ngon(7), bodies.halfdisc(1.0, 0.0, 64))
    for poly in three:
        pts = []
        for k in range(20):
            w = unit(gen.uniform(0.0, 2.0 * np.pi))
            lo, hi = shadow_interval(poly, w)
            y = lo + gen.uniform(0.2, 0.8) * (hi - lo)
            pts.append((w, y))
            direct = chord_midpoint(poly, w, y)
            recon = midpoint_via_transform(poly, w, y, 400.0)
            a, b = chord(poly, y, w)
            assert abs(recon - direct) <= 0.05 * (b - a)
        meds = {}
        for cutoff in (100.0, 200.0):
            errs = [
                abs(midpoint_via_transform(poly, w, y, cutoff=cutoff) - chord_midpoint(poly, w, y))
                for w, y in pts
            ]
            meds[cutoff] = float(np.median(errs))
        assert meds[200.0] <= 0.55 * meds[100.0], f"median ratio {meds[200.0]/meds[100.0]:.3f}"


def test_10_normal_cone_at_witnesses():
    assert RECORDED_FOLDS, "folding calls from the earlier criteria should be recorded"
    bad = 0
    for poly, row in RECORDED_FOLDS:
        if not normal_cone_check(poly, *row):
            bad += 1
    assert bad == 0, f"{bad}/{len(RECORDED_FOLDS)} witnesses violate the optimality condition"

    tri = bodies.triangle([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    w = unit(0.3)
    profile = folding.folding_profile(tri, [w])
    assert not normal_cone_check(tri, w, profile.values[0] - 0.07 * tri.diameter, profile.witness_vertex[0])
