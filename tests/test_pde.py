import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.special import erfcinv

from polyheart import bodies, pde
from polyheart.errors import GridTooCoarse, NoConvergence
from polyheart.folding import heart_region
from polyheart.geometry import ConvexPolygon, chebyshev_center
from polyheart.pde import (
    GridField,
    TrackSample,
    _locate_peak,
    eigen_solve,
    full_verify,
    heat_solve,
    rasterize,
    sample_steps,
    short_time_bound,
    short_time_check,
    verify_heart,
    write_csv,
)

from conftest import decay_rel_err


def mirrored_x(poly: ConvexPolygon) -> ConvexPolygon:
    v = poly.vertices
    return ConvexPolygon(np.column_stack([-v[:, 0], v[:, 1]])[::-1])


def explicit_march(grid: GridField, sample_times) -> tuple[TrackSample, ...]:
    """Reference: explicit Euler at dt = h^2/5 through every sample."""
    dt = grid.spacing ** 2 / 5.0
    mask_f = grid.mask.astype(float)
    u = mask_f.copy()
    samples = []
    step = 0
    for t in sorted(float(t) for t in sample_times):
        target = max(step + 1, int(round(t / dt)))
        while step < target:
            lap = (u[2:, 1:-1] + u[:-2, 1:-1]) + (u[1:-1, 2:] + u[1:-1, :-2])
            u[1:-1, 1:-1] += 0.2 * (lap - 4.0 * u[1:-1, 1:-1])
            u *= mask_f
            step += 1
        loc, peak = _locate_peak(grid, u)
        samples.append(TrackSample(step * dt, loc, peak))
    return tuple(samples)


def assert_matches_march(grid: GridField, sample_times) -> tuple[TrackSample, ...]:
    """heat_solve against the reference march; returns heat_solve's samples.

    A sample's bound caps the sup-norm error of its field; the fitted peak
    combines nine field values with absolute weights summing to at most
    17/9, so its error is within 2 * bound, plus an allowance of 4 ulps
    of the peak per step for the march's own rounding.  Every bound is at
    most 1e-10, and an early sample that has not decayed below
    _RESTART_DECAY states an error below that allowance.
    """
    dt = grid.spacing ** 2 / 5.0
    got = heat_solve(grid, sample_times, eigen_solve(grid))
    ref = explicit_march(grid, sample_times)
    assert [s.time for s in got] == [s.time for s in ref]
    for a, b in zip(got, ref):
        assert np.abs(a.location - b.location).max() <= 1e-9 * grid.spacing, a.time
        assert abs(a.peak - b.peak) <= 1e-9 * b.peak, a.time
        rounding = 4.0 * round(a.time / dt) * np.finfo(float).eps * b.peak
        assert abs(a.peak - b.peak) <= 2.0 * a.bound + rounding, a.time
        assert a.bound <= 1e-10, a.time
        if not a.spectral and a.peak >= pde._RESTART_DECAY:
            assert a.bound <= rounding, a.time
    spectral = [s.bound for s in got if s.spectral]
    assert all(x >= y for x, y in zip(spectral, spectral[1:]))
    return got


def test_rasterize_square_counts(square):
    g = rasterize(square, 0.01)
    assert g.interior_count == 99 * 99
    assert not g.mask[0, :].any() and not g.mask[-1, :].any()


def test_rasterize_matches_all_edges_at_once():
    # rasterize tests one edge at a time; the reference builds the gaps of
    # every node to every edge in one (nx, ny, m) array.  The padding ring
    # lies outside the bounding box, so the edge tests alone keep it empty,
    # on scaled and shifted bodies too
    gen = np.random.default_rng([7, 19])
    suite = [bodies.square(), bodies.triangle([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]),
             bodies.halfdisc(1.0, 0.0, 64), bodies.regular_ngon(7), bodies.ellipse_approx(2.0, 1.0, 64)]
    suite += [bodies.random_convex_polygon(gen, n) for n in (5, 12, 40) for _ in range(4)]
    suite += [ConvexPolygon(p.vertices * 10.0 ** gen.uniform(-3.0, 3.0) + gen.uniform(-1e3, 1e3, size=2))
              for p in suite[:8]]
    for poly in suite:
        g = rasterize(poly, chebyshev_center(poly).radius / 50.0)
        pts = np.stack(np.meshgrid(g.node_x(), g.node_y(), indexing="ij"), axis=-1)
        gaps = poly.edge_offsets[None, None, :] - pts @ poly.edge_normals.T
        want = np.all(gaps > poly.eps, axis=-1)
        assert not (want[[0, -1], :].any() or want[:, [0, -1]].any())
        assert np.array_equal(g.mask, want)


def test_rasterize_too_coarse(square):
    with pytest.raises(GridTooCoarse):
        rasterize(square, 0.1)  # inradius/8 = 0.0625


def test_heat_maximum_principle_and_monotone(square):
    g = rasterize(square, 0.02)
    samples = heat_solve(g, np.geomspace(0.005, 0.5, 10), eigen_solve(g))
    peaks = [s.peak for s in samples]
    assert all(0.0 < p <= 1.0 for p in peaks)
    assert all(a > b for a, b in zip(peaks, peaks[1:]))
    times = [s.time for s in samples]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_heat_rejects_bad_times(square):
    g = rasterize(square, 0.05)
    eigen = eigen_solve(g)
    with pytest.raises(ValueError):
        heat_solve(g, [], eigen)
    with pytest.raises(ValueError):
        heat_solve(g, [-1.0, 0.5], eigen)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"finite and positive, got \\[{bad}\\]"):
            heat_solve(g, [0.01, bad], eigen)


def test_peak_of_exact_quadratic(square):
    # the 3x3 least-squares fit reproduces a quadratic, so its off-lattice
    # maximum comes back to rounding
    g = rasterize(square, 0.05)
    x = (g.k0x + np.arange(g.mask.shape[0]))[:, None] * g.spacing
    y = (g.k0y + np.arange(g.mask.shape[1])) * g.spacing
    top = np.array([0.5 + 0.3 * g.spacing, 0.5 - 0.4 * g.spacing])
    dx, dy = x - top[0], y - top[1]
    loc, peak = _locate_peak(g, 2.0 - (3.0 * dx * dx + 2.0 * dy * dy + dx * dy))
    assert np.abs(loc - top).max() <= 1e-12 * g.spacing
    assert peak == pytest.approx(2.0, abs=1e-14)


def test_peak_of_plateau(square):
    # every interior node ties, flat patches fit no maximum: the tie centroid
    g = rasterize(square, 0.05)
    assert g.mask.sum() > 64
    loc, peak = _locate_peak(g, g.mask.astype(float))
    assert np.abs(loc - 0.5).max() <= 1e-12
    assert peak == 1.0


def test_eigen_square(square):
    g = rasterize(square, 0.01)
    res = eigen_solve(g)
    exact = 2.0 * np.pi**2
    assert res.eigenvalue == pytest.approx(exact, rel=1e-3)
    assert res.residual <= 1e-8
    assert np.allclose(res.location, [0.5, 0.5], atol=1e-6)
    assert res.peak == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("poly", [bodies.halfdisc(1.0, 0.0, 16), bodies.triangle([0.0, 0.0], [1.0, 0.0], [0.3, 0.7])],
                         ids=["halfdisc", "triangle"])
def test_interior_laplacian_entries(poly):
    # at the coarsest spacing the masks are irregular; each interior node
    # carries 4/h^2 and -1/h^2 for each interior axis neighbour, and no
    # neighbour wraps across the end of a row
    grid = rasterize(poly, poly.incircle.radius / 8.0)
    nodes = [tuple(ij) for ij in np.argwhere(grid.mask).tolist()]
    index = {ij: k for k, ij in enumerate(nodes)}
    h2 = grid.spacing * grid.spacing
    want = np.zeros((len(nodes), len(nodes)))
    for k, (i, j) in enumerate(nodes):
        want[k, k] = 4.0 / h2
        for nbr in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nbr in index:
                want[k, index[nbr]] = -1.0 / h2
    assert np.array_equal(pde._interior_laplacian(grid).toarray(), want)


def test_eigen_no_convergence(square, monkeypatch):
    # the Lanczos needs about a dozen LU solves on this grid; a cap of 3
    # stops it short, and the message states the bound it reached
    g = rasterize(square, 0.02)
    monkeypatch.setattr(pde, "_EIGEN_MAX_ITER", 3)
    with pytest.raises(NoConvergence) as info:
        eigen_solve(g)
    got = re.fullmatch(r"Lanczos bound (\S+) theta after 3 LU solves above tol 1\.0e-15 theta", str(info.value))
    assert got and float(got.group(1)) > pde._LANCZOS_TOL
    empty = GridField(g.spacing, g.k0x, g.k0y, np.zeros_like(g.mask))
    with pytest.raises(NoConvergence, match=r"0 interior nodes at spacing h = 2\.000e-02"):
        eigen_solve(empty)


def report_panel() -> dict:
    """The benchmark's report panel: the half-disc and three seeded
    5-12-gons, drawn as perfbench/workloads.py draws them (its
    spacings_polygon gives random_convex_polygon's vertices bit for bit)."""
    gen = np.random.default_rng(20101247)
    panel = {"halfdisc64": bodies.halfdisc(1.0, 0.0, 64)}
    for i in range(3):
        n = int(gen.integers(5, 13))
        panel[f"panel{i}_{n}gon"] = bodies.random_convex_polygon(gen, n)
    return panel


def eigsh_eigen(grid: GridField) -> tuple[float, np.ndarray, float]:
    """Reference eigenpair as eigen_solve took it from ARPACK: eigsh with
    k = 1, shift-invert at 0 on the same LU factor, from the all-ones
    start.  Returns (eigenvalue, hot spot, residual) as eigen_solve
    computes them from the eigenvector."""
    mat = pde._interior_laplacian(grid)
    lu = scipy.sparse.linalg.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A")
    inverse = scipy.sparse.linalg.LinearOperator(mat.shape, matvec=lu.solve, dtype=float)
    _, vectors = scipy.sparse.linalg.eigsh(mat, k=1, sigma=0.0, OPinv=inverse, v0=np.ones(mat.shape[0]))
    v = vectors[:, 0] * np.sign(vectors[:, 0].sum())
    av = mat @ v
    lam = float(v @ av)
    values = np.zeros(grid.mask.shape)
    values[grid.mask] = v
    loc, _ = _locate_peak(grid, values / values.max())
    return lam, loc, float(np.abs(av - lam * v).max() / np.abs(v).max())


EIGEN_BODIES = {
    **report_panel(),
    "rect8": bodies.rectangle(8.0, 1.0),
    # eigsh's residual on this sliver is 8.3e-9, a backward error of 3e-16
    "thin_triangle": bodies.triangle([0.0, 0.0], [1.0, 0.0], [0.5, 0.08]),
}


@pytest.mark.parametrize("name", list(EIGEN_BODIES))
def test_eigen_matches_eigsh(name):
    poly = EIGEN_BODIES[name]
    grid = rasterize(poly, poly.incircle.radius / pde._H_PER_INRADIUS)
    got = eigen_solve(grid)
    lam, loc, residual = eigsh_eigen(grid)
    assert abs(got.eigenvalue - lam) <= 1e-12 * lam
    assert np.abs(got.location - loc).max() <= 1e-9 * grid.spacing
    assert got.residual <= 2.0 * residual


def test_eigen_lanczos_restarts(halfdisc64, monkeypatch):
    # a basis of 6 vectors fills before the bound is met, so the Lanczos
    # starts over from the Ritz vector, more than once
    factors = []

    class CountingLU:
        def __init__(self, lu):
            self.lu, self.solves = lu, 0

        def solve(self, b):
            self.solves += 1
            return self.lu.solve(b)

    real = scipy.sparse.linalg.splu

    def splu(*args, **kwargs):
        factors.append(CountingLU(real(*args, **kwargs)))
        return factors[-1]

    grid = rasterize(halfdisc64, halfdisc64.incircle.radius / 25.0)
    lam, loc, residual = eigsh_eigen(grid)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    monkeypatch.setattr(pde, "_LANCZOS_BASIS", 6)
    got = eigen_solve(grid)
    assert len(factors) == 1 and factors[0].solves > 2 * 6
    assert abs(got.eigenvalue - lam) <= 1e-12 * lam
    assert np.abs(got.location - loc).max() <= 1e-9 * grid.spacing
    assert got.residual <= 2.0 * residual


@pytest.mark.parametrize("body", ["halfdisc", "hept", "square"])
def test_heat_solve_matches_explicit_march(body, halfdisc64, square):
    if body == "halfdisc":
        poly = halfdisc64
    elif body == "hept":
        poly = bodies.random_convex_polygon(np.random.default_rng(20260815), 7)
    else:
        poly = square
    h = poly.incircle.radius / 25.0  # 0.02 on the square
    grid = rasterize(poly, h)
    lam = eigen_solve(grid).eigenvalue
    dt = h * h / 5.0
    steps = sample_steps(max(10.0 / lam, 2500.0 * h * h), dt)
    got = assert_matches_march(grid, steps * dt)
    if body == "square":
        # the symmetric start leaves no mode below 5 lam_1 besides the
        # lowest, so the track hands over well before the end
        assert sum(s.spectral for s in got) >= 5
    else:
        # the recurrence restarts from a decayed sample, at a lower degree
        early = [s.degree for s in got if not s.spectral]
        assert any(b < a for a, b in zip(early, early[1:]))


def test_heat_bound_covers_early_handover(square, monkeypatch):
    # Handing over while the dropped part is still 1e-2 of max|u| leaves
    # real truncation errors, which the stated bounds must cover.
    monkeypatch.setattr(pde, "_SWITCH_TOL", 1e-2)
    h = 0.02
    grid = rasterize(square, h)
    dt = h * h / 5.0
    times = sample_steps(1.0, dt) * dt
    errors = []
    for a, b in zip(heat_solve(grid, times, eigen_solve(grid)), explicit_march(grid, times)):
        rounding = 4.0 * round(a.time / dt) * np.finfo(float).eps * b.peak
        assert abs(a.peak - b.peak) <= 2.0 * a.bound + rounding, a.time
        errors.append(abs(a.peak - b.peak) - rounding)
    assert max(errors) > 1e-6


def test_heat_bound_covers_loose_chebyshev_cut(square, monkeypatch):
    # A tail of 1e-6 leaves real truncation errors in the early samples,
    # which the stated bounds must cover, and it defeats the hand-over
    # check, so the recurrence restarts from decayed samples.
    monkeypatch.setattr(pde, "_CHEB_TOL", 1e-6)
    h = 0.02
    grid = rasterize(square, h)
    dt = h * h / 5.0
    times = sample_steps(1.0, dt) * dt
    got = heat_solve(grid, times, eigen_solve(grid))
    errors = []
    for a, b in zip(got, explicit_march(grid, times)):
        rounding = 4.0 * round(a.time / dt) * np.finfo(float).eps * b.peak
        assert abs(a.peak - b.peak) <= 2.0 * a.bound + rounding, a.time
        errors.append(abs(a.peak - b.peak) - rounding)
    assert max(errors) > 1e-9
    # a restarted series starts over at a lower degree
    early = [s.degree for s in got if not s.spectral]
    assert any(b < a for a, b in zip(early, early[1:]))


def exact_power_series(steps):
    """Chebyshev coefficients of ((1 - 4t)/5)^n in rational arithmetic, for
    each n of the ascending steps."""
    coeffs = [Fraction(1)]
    for n in range(1, max(steps) + 1):
        out = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            # t T_k = (T_{k+1} + T_{|k-1|}) / 2
            out[k] += c / 5
            out[k + 1] -= 2 * c / 5
            out[abs(k - 1)] -= 2 * c / 5
        coeffs = out
        if n in steps:
            yield coeffs


def test_power_series_exact():
    steps = [1, 2, 7, 63, 64, 65, 100, 128, 129, 150, 250, 300, 400]
    # the last two start the recurrence below n, the others at n (exact)
    starts = [math.ceil(pde._MILLER_START * math.sqrt(n)) + 10 for n in steps]
    assert sum(k < n for k, n in zip(starts, steps)) == 2
    for n, (got, dropped), want in zip(steps, pde._power_series(steps), exact_power_series(steps)):
        assert len(got) <= len(want) == n + 1
        # every kept coefficient to 1e-13 relative
        err = [abs(Fraction(float(g)) - w) - Fraction(1e-13) * abs(w) for g, w in zip(got, want)]
        assert max(err) <= 0, n
        # the stated mass covers the rational tail beyond the cut and beyond
        # the recurrence's start, up to the rounding of its own sum, and is
        # close to it: the bound beyond the start is far below the cut
        tail = sum(abs(w) for w in want[len(got) :])
        assert Fraction(dropped * (1.0 + 1e-12)) >= tail, n
        assert float(tail) == pytest.approx(dropped, rel=1e-12), n
        # the cut is the lowest degree that leaves out at most _CHEB_TOL
        assert dropped <= pde._CHEB_TOL
        assert len(got) == n + 1 or float(tail + abs(want[len(got) - 1])) > pde._CHEB_TOL, n
        assert len(got) - 1 <= math.sqrt(1.6 * n * math.log(1.0 / pde._CHEB_TOL)) + 8, n


def test_power_series_sums_to_one_at_minus_one():
    # p(-1)^n = 1 at the last step of the half-disc's track, which holds to
    # 1e-15 only if the coefficients' l1 error is at rounding level
    ((c, _),) = pde._power_series([34312])
    assert abs(math.fsum(c[::2]) - math.fsum(c[1::2]) - 1.0) <= 1e-15


def plain_chebyshev_fields(mask_f, u, steps):
    """Reference for _chebyshev_fields: the same series summed term by
    term on the 2-D grid, T_{k+1} = 2 B T_k - T_{k-1} with B = -1/4 times
    the four-neighbour sum, masked."""
    cut = [c for c, _ in pde._power_series(steps)]
    fields = [c[0] * u for c in cut]
    prev, t = None, u
    for k in range(1, max(len(c) for c in cut)):
        nbr = np.zeros_like(u)
        nbr[1:-1, 1:-1] = (t[2:, 1:-1] + t[:-2, 1:-1]) + (t[1:-1, 2:] + t[1:-1, :-2])
        prev, t = t, mask_f * (-0.25 * nbr if k == 1 else -0.5 * nbr - prev)
        for field, c in zip(fields, cut):
            if k < len(c):
                field += c[k] * t
    return fields


def test_chebyshev_fields_match_plain_sum(right_tri):
    # 71 x 71 padded nodes on the triangle, not a multiple of the 256-node
    # tile; the 4 x 5 block of test_grid_too_small_for_eigsh, with its
    # ring of padding, is 42 nodes, less than one tile.  The coefficients
    # have l1 norm 1, so rounding scales with max|u|, not with the field.
    grid = rasterize(right_tri, chebyshev_center(right_tri).radius / 20.0)
    mask = np.zeros((6, 7), dtype=bool)
    mask[1:5, 1:6] = True
    for mask_f in (grid.mask.astype(float), mask.astype(float)):
        assert mask_f.size % pde._TILE != 0
        u = mask_f * np.linspace(0.5, 1.5, mask_f.size).reshape(mask_f.shape)
        steps = [1, 2, 5, 40, 41, 300, 2000]
        # the yielded views must stay as they were while the sum runs on
        got = [field for field, _, _ in pde._chebyshev_fields(mask_f, u, steps)]
        want = plain_chebyshev_fields(mask_f, u, steps)
        assert len(got) == len(steps)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(u).max()


def test_grid_too_small_for_eigsh(square):
    g = rasterize(square, 0.05)

    def block(p, q):
        mask = np.zeros_like(g.mask)
        mask[3 : 3 + p, 4 : 4 + q] = True
        return GridField(g.spacing, g.k0x, g.k0y, mask)

    tiny = block(4, 5)  # 20 nodes, the size of the Lanczos basis
    assert tiny.interior_count == pde._LANCZOS_BASIS
    got = assert_matches_march(tiny, np.geomspace(1e-4, 1e-1, 8))
    assert not got[0].spectral and got[-1].spectral
    # on blocks this small the Krylov space runs out before the basis fills
    for p, q in [(1, 1), (2, 3), (3, 3), (4, 5), (5, 4)]:
        res = eigen_solve(block(p, q))
        # discrete Dirichlet eigenvalue of a p x q block of nodes
        exact = 4.0 / g.spacing ** 2 * (np.sin(np.pi / (2 * p + 2)) ** 2 + np.sin(np.pi / (2 * q + 2)) ** 2)
        assert res.eigenvalue == pytest.approx(exact, rel=1e-13), (p, q)
        assert res.residual <= 1e-8, (p, q)


def test_eigen_catches_failed_solve(square, monkeypatch):
    # a Lanczos vector off by 1e-6 in one node is no eigenvector
    lanczos = pde._lanczos

    def perturbed(solve, n):
        x = lanczos(solve, n)
        x[n // 2] += 1e-6
        return x

    monkeypatch.setattr(pde, "_lanczos", perturbed)
    with pytest.raises(NoConvergence, match=r"eigen residual (\S+) above tol 3\.200e-09") as info:
        eigen_solve(rasterize(square, 0.05))
    assert float(info.value.args[0].split()[2]) > 1e-3


def test_full_verify_factors_once(square, monkeypatch):
    calls = {"eigsh": 0, "splu": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting("eigsh", scipy.sparse.linalg.eigsh))
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting("splu", scipy.sparse.linalg.splu))
    rep = full_verify(square, heart_region(square, 720)[0], h=0.05)
    assert calls == {"eigsh": 0, "splu": 1}
    assert rep.switch_step is not None


def test_chebyshev_degree_far_below_handover(square):
    # a fallback to step-by-step marching would make the degree the step
    rep = full_verify(square, heart_region(square, 720)[0], h=0.02)
    assert rep.switch_step is not None
    assert 0 < rep.chebyshev_degree < rep.switch_step / 4


def test_mirror_equivariance(right_tri):
    h = chebyshev_center(right_tri).radius / 40.0
    g1 = rasterize(right_tri, h)
    g2 = rasterize(mirrored_x(right_tri), h)
    assert g1.interior_count == g2.interior_count
    times = np.geomspace(0.004, 0.4, 6)
    e1, e2 = eigen_solve(g1), eigen_solve(g2)
    for a, b in zip(heat_solve(g1, times, e1), heat_solve(g2, times, e2)):
        assert abs(a.location[0] + b.location[0]) <= 1e-10
        assert abs(a.location[1] - b.location[1]) <= 1e-10
        assert abs(a.peak - b.peak) <= 1e-10
    assert abs(e1.eigenvalue - e2.eigenvalue) <= 1e-10 * e1.eigenvalue
    assert abs(e1.location[0] + e2.location[0]) <= 1e-10


def test_decay_matches_eigenvalue(square):
    g = rasterize(square, 0.02)
    res = eigen_solve(g)
    t_end = 10.0 / res.eigenvalue
    samples = heat_solve(g, np.geomspace(t_end / 100.0, t_end, 20), res)
    assert decay_rel_err(samples, res.eigenvalue) <= 0.01


@pytest.fixture(scope="module")
def default_runs() -> dict:
    """full_verify at the default spacing on the report panel and on the
    thin triangle, whose third mode still shows at the horizon."""
    polys = {**report_panel(), "thin_triangle": EIGEN_BODIES["thin_triangle"]}
    return {name: (poly, full_verify(poly, heart_region(poly, 720)[0], h=None)) for name, poly in polys.items()}


@pytest.mark.parametrize("name", [*report_panel(), "thin_triangle"])
def test_track_tends_to_its_eigenpair(default_runs, name):
    # the heat track against its own eigenpair: the last 6 peaks decay at
    # lam1 within 2%, and the last sample lies within 2% of the diameter of
    # the eigenfunction peak.  They guard heat_solve but test the grid, not
    # the paper, so full_verify's verdict leaves them out; the thin
    # triangle's third mode still shows in its decay fit (7.3e-3)
    poly, rep = default_runs[name]
    assert decay_rel_err(rep.samples, rep.eigen.eigenvalue) <= 0.02
    assert np.linalg.norm(rep.samples[-1].location - rep.eigen.location) <= 0.02 * poly.diameter
    # and every sample clears the short-time bound by 2 h or more
    assert rep.short_time.ok and rep.short_time.least_margin >= 2.0 * rep.grid.spacing
    assert rep.short_time.n_positive >= 8


def test_short_time_bound_matches_erfcinv():
    # against scipy's erfcinv wherever the sum of erfc terms is a normal
    # float; 0 once the sum reaches 1, the inradius where it underflows
    for poly in (bodies.square(), bodies.rectangle(8.0, 1.0), EIGEN_BODIES["thin_triangle"], bodies.regular_ngon(64)):
        r = poly.incircle.radius
        dist = poly.edge_offsets - poly.edge_normals @ poly.incircle.center
        got = [short_time_bound(poly, float(t)) for t in np.geomspace(1e-6, 10.0, 400) * r * r]
        assert all(a >= b for a, b in zip(got, got[1:])) and got[-1] == 0.0
        for t, delta in zip(np.geomspace(1e-6, 10.0, 400) * r * r, got):
            scale = 2.0 * math.sqrt(t)
            total = sum(math.erfc(d / scale) for d in dist)
            if total >= 1.0:
                assert delta == 0.0
            elif total == 0.0:
                assert delta == float(dist.min())
            elif total > 1e-300:
                assert abs(delta - scale * float(erfcinv(total))) <= 1e-14 * r, t


def test_short_time_check_rejects_a_planted_sample(halfdisc64):
    # a hot spot 2.1 h shallower than delta at the first sample fails, one
    # 1.9 h shallower passes: the slack is 2 h
    poly = halfdisc64
    h = poly.incircle.radius / pde._H_PER_INRADIUS
    grid = rasterize(poly, h)
    eigen = eigen_solve(grid)
    dt = h * h / 5.0
    samples = heat_solve(grid, sample_steps(10.0 / eigen.eigenvalue, dt) * dt, eigen)
    for short, ok in ((2.1, False), (1.9, True)):
        planted = (plant_sample(poly, samples[0], short * h),) + samples[1:]
        rep = short_time_check(planted, poly, 2.0 * h)
        assert rep.ok is ok
        assert rep.least_margin == pytest.approx(-short * h, rel=1e-9)


def plant_sample(poly: ConvexPolygon, sample: TrackSample, short: float) -> TrackSample:
    """sample moved to boundary distance delta(t) - short, from the
    incenter towards the nearest edge line: no other edge line comes nearer."""
    center = poly.incircle.center
    dist = poly.edge_offsets - poly.edge_normals @ center
    i = int(np.argmin(dist))
    step = dist[i] - short_time_bound(poly, sample.time) + short
    return TrackSample(sample.time, center + step * poly.edge_normals[i], sample.peak)


def test_sample_steps_pin_ends_and_round_trip():
    # the first step is the one nearest t_end/100 (at least one), the last
    # the one nearest t_end, and heat_solve rounds each sample time back to
    # its step count
    gen = np.random.default_rng(8)
    cases = [(33857.0, 1.0), (31992.0, 1.0), (34312.0, 1.0), (34145.0, 1.0)]
    cases += [(float(t), float(h)) for t, h in zip(gen.uniform(1e-4, 5.0, 3000),
                                                      gen.uniform(1e-3, 0.2, 3000))]
    for t_end, h in cases:
        dt = h * h / 5.0
        steps = sample_steps(t_end, dt)
        assert len(steps) == 25
        assert steps[0] == max(1, round(t_end / 100.0 / dt))
        assert steps[-1] == round(t_end / dt)
        assert np.all(np.diff(steps) >= 0)
        assert np.array_equal(np.round(steps * dt / dt).astype(np.int64), steps)


def test_verify_heart_slack(square):
    g = rasterize(square, 0.02)
    samples = heat_solve(g, np.geomspace(0.01, 1.0, 8), eigen_solve(g))
    heart, _ = heart_region(square, 360)
    rep = verify_heart(samples, [0.5, 0.5], heart, slack=2.0 * g.spacing)
    assert rep.ok
    assert rep.n_checked == 9
    far = verify_heart(samples, [0.9, 0.9], heart, slack=1e-3)
    assert not far.ok


def test_write_csv_roundtrip(tmp_path, square):
    g = rasterize(square, 0.05)
    res = eigen_solve(g)
    path = tmp_path / "field.csv"
    write_csv(g, res.values, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert len(data) == g.interior_count
    assert data[:, 2].max() == pytest.approx(1.0)
    # node coordinates land on the global lattice
    assert np.allclose(np.round(data[:, 0] / 0.05) * 0.05, data[:, 0], atol=1e-12)


def test_full_verify_square_coarse(square):
    rep = full_verify(square, heart_region(square, 720)[0], h=0.02)
    assert rep.ok
    assert rep.eigen.eigenvalue == pytest.approx(2.0 * np.pi**2, rel=2e-3)
    assert rep.membership.worst_gap <= 1e-9
    assert rep.short_time.least_margin >= 0.0
