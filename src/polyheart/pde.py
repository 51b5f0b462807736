"""Finite-difference verifier for the hot-spot trajectory and eigenpair.

The grid is the global lattice h*Z^2 clipped to the body: nodes strictly
inside carry unknowns, everything else is zero.  The Dirichlet boundary
is the symmetric second-order one of Gibou, Fedkiw, Cheng and Kang (J.
Comput. Phys. 176, 2002): an arm of the five-point stencil that ends
outside the body weighs 1/(theta h^2) on the diagonal, theta h the
distance along it to the boundary (rasterize).  Anchoring to the global
lattice instead of the body's bounding box makes mirrored bodies produce
mirrored node sets and diagonals, and the stencil and peak refinement
below only combine values through commutative pairs, so a mirrored run
reproduces the mirrored trajectory up to the summation order of one
matrix product (far below 1e-10).

The eigenpair is the lowest one of that Dirichlet Laplacian A, from a
shift-invert Lanczos on one sparse LU factorization (eigen_solve), whose
dot products and basis sums stay off BLAS.  The heat flow is the
explicit Euler march u <- p(B) u = u - dt A u, with lam_G = |A|_inf the
Gershgorin bound on A's spectrum, B = 2A/lam_G - I, p(t) = (1 - 4t)/5
and so dt = 1.6/lam_G (h^2/5 on a staircase, where lam_G = 8/h^2); it
is never run step by step.  n steps are the Chebyshev series of p^n in B, with
coefficients from one backward banded solve (_power_series), summed from
the recurrence T_{k+1}(B) u = 2B T_k(B) u - T_{k-1}(B) u into every
pending sample at once; since |T_k(B)|_2 <= 1, the l1 norm of the
coefficients left out bounds each sample's error.  The recurrence
restarts as the field decays and hands over to the lowest eigenpair once
the rest is negligible (heat_solve).
Hot-spot locations are refined off-lattice by a least-squares quadratic
fit on the 3x3 neighborhood of the grid argmax.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridTooCoarse, NoConvergence
from .geometry import ConvexPolygon, Region, region_point_distance

# dt lam_G = 8/_DT_FACTOR, the step at which u - dt A u is p(B) u
_DT_FACTOR = 5.0
# full_verify's grid spacing at h=None is the inradius over this.  The
# short-time margin of an early sample converges from below at second
# order: on the report panel's 12-gon it reads 1.97, 2.01, 2.02, 2.04 and
# 2.06 r/50 at r/25, r/28, r/30, r/50 and r/100.  r/30 clears 2 r/50 by
# 0.016 r/50, r/28 by 0.006.
_H_PER_INRADIUS = 30.0
# theta's floor: a node nearer the boundary than this many spacings along
# an arm weighs it as if at this distance, which caps that arm's diagonal
# at 10/h^2 and lam_G at 40/h^2 (24-32/h^2 on the bodies tried); a node
# 1e-4 h from the boundary would otherwise weigh 1e4/h^2 and shorten dt =
# 1.6/lam_G as much.
_THETA_MIN = 0.1
# eigen_solve's Lanczos: a basis of at most _LANCZOS_BASIS vectors
# (ARPACK's default for one eigenpair), restarted from the Ritz vector when
# full; it stops once the Ritz estimate of |A^-1 x - theta x| is at most
# _LANCZOS_TOL theta, and raises NoConvergence after _EIGEN_MAX_ITER LU
# solves rather than return an unconverged eigenpair.
_LANCZOS_BASIS = 20
_LANCZOS_TOL = 1e-15
_EIGEN_MAX_ITER = 400
# SuperLU's supernode relaxation and panel width for that LU: at 4 and 4
# the factor plus its Lanczos solves took 15-20% less time than at
# SuperLU's defaults, on the report panel and on 8k-79k-node grids.
_LU_RELAX = 4
_LU_PANEL = 4
# eigen_solve's bound on the backward error of the lowest mode:
# |A v - lam v|_inf <= _EIGEN_BACKWARD_TOL |A|_inf |v|_inf, |A|_inf = lam_G.
# A converged solve leaves about 1e-16, so this only catches a failed one.
_EIGEN_BACKWARD_TOL = 1e-12
# full_verify samples the heat track this many times over about two decades.
_N_SAMPLES = 25
# full_verify's slack for membership and the short-time bound, in grid
# spacings: the grid places the hot spot only to the order of h (peak fit).
# At the default spacing it is 4% of the inradius, 2 r/50.
_MEMBERSHIP_SLACK = 1.2
# The heat track hands over to the lowest eigenpair once the part of u
# outside it has 2-norm at most this fraction of max|u|.
_SWITCH_TOL = 1e-10
# The recurrence restarts from a sample before the next one would decay
# below this fraction of the max of the field it started from, at the
# lowest mode's rate: the Chebyshev sum of p^n loses about one digit of
# the field for each decade the field decays.
_RESTART_DECAY = 1e-4
# Each early sample's Chebyshev series is cut where the l1 norm of the
# dropped coefficients is at most this.
_CHEB_TOL = 1e-17
# c_k of p^n falls off as about exp(-k^2/(1.6 n)), and a backward start
# at K leaves it off by about exp(-(K^2 - k^2)/(4n)) relative: from K =
# _MILLER_START sqrt(n) on, below rounding for every c_k a cut at
# _CHEB_TOL keeps.
_MILLER_START = 16.0
# Chebyshev vectors T_k(B) u stacked per matrix product into the samples.
_CHEB_BLOCK = 32
# That product runs per column tile of _TILE nodes, small enough at 25
# samples that OpenBLAS keeps it on the calling thread, _TILE_GROUP tiles
# per call: a whole-grid temporary left report's peak RSS 4 MB higher.
_TILE = 256
_TILE_GROUP = 16


@dataclass(frozen=True)
class GridField:
    """The lattice h*Z^2 restricted to the body.

    Node [i, j] lives at ((k0x + i) * h, (k0y + j) * h); mask marks the
    interior unknowns, and a field on the grid is an array of mask's
    shape that is zero everywhere else.  The array carries one ring of
    exterior padding, outside the body's bounding box, so stencils never
    touch the array edge.  diagonal is h^2 times the Laplacian's diagonal
    at each node, 0 off the mask: 4 inside, more next to the boundary
    (rasterize); 4 * mask is the staircase boundary.
    """

    spacing: float
    k0x: int
    k0y: int
    mask: np.ndarray
    diagonal: np.ndarray

    @property
    def interior_count(self) -> int:
        return int(self.mask.sum())

    def node_x(self) -> np.ndarray:
        return (self.k0x + np.arange(self.mask.shape[0])) * self.spacing

    def node_y(self) -> np.ndarray:
        return (self.k0y + np.arange(self.mask.shape[1])) * self.spacing

    @cached_property
    def gershgorin(self) -> float:
        """h^2 lam_G, where lam_G = |A|_inf, the largest row sum of |A|,
        bounds A's spectrum: the diagonal plus 1 for each interior
        neighbour, 8 on a staircase."""
        m = self.mask.astype(float)
        rows = self.diagonal.copy()
        rows[1:-1, 1:-1] += (m[2:, 1:-1] + m[:-2, 1:-1]) + (m[1:-1, 2:] + m[1:-1, :-2])
        return float((rows * m).max())


def _heat_scale(grid: GridField) -> float:
    """s = 4/(h^2 lam) for the march's B = 2A/lam - I, with lam = lam_G
    raised by a few ulps so that s is a multiple of eps.  Then 2B = s (D -
    N) - 2, D the grid's diagonal and N the neighbour sum, has exact
    interior rows (4s - 2 on the diagonal, -s off it), as the staircase's
    0 and -1/2 were.  A rounded row shifts B by a rounding error at every
    interior node, and p(B)^n carries that shift n times: on the
    half-disc at r/25 it left 2e-10 of the decayed peak, against 5e-12.
    """
    eps = np.finfo(float).eps
    return math.floor(4.0 / grid.gershgorin / eps) * eps


def _heat_step(grid: GridField) -> float:
    """The march's dt = 8/(_DT_FACTOR lam) = 2 s h^2/_DT_FACTOR, h^2/5 on a staircase."""
    return 2.0 * _heat_scale(grid) * grid.spacing * grid.spacing / _DT_FACTOR


def rasterize(poly: ConvexPolygon, h: float) -> GridField:
    """Clip the global lattice to the body interior, with the boundary's
    weights on the diagonal.

    Nodes within poly.eps of the boundary count as outside; they would be
    Dirichlet-zero anyway and keeping them out makes the interior count
    reproducible.  The padding lies outside the bounding box, so the edge
    tests reject it too.

    A node whose neighbour along an axis direction d is outside meets the
    boundary theta h away along d, where the ray leaves the first edge
    line (a, b) it crosses: theta h = cross(a - p, b - p) / cross(d, b -
    a), clamped to [_THETA_MIN, 1].  That arm weighs 1/theta instead of 1
    on h^2 times the diagonal.  Each value only negates and swaps under a
    lattice symmetry of the body, and the four arms are summed in mirror
    pairs, so the diagonal maps onto itself bit for bit.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"grid step h must be finite and positive, got {h!r}")
    inradius = poly.incircle.radius
    if h > inradius / 8.0:
        raise GridTooCoarse(f"h={h} exceeds inradius/8 = {inradius / 8.0:.6g}")
    xmin, xmax, ymin, ymax = poly.bbox
    k0x = math.ceil(xmin / h) - 1
    k1x = math.floor(xmax / h) + 1
    k0y = math.ceil(ymin / h) - 1
    k1y = math.floor(ymax / h) + 1
    xs = (k0x + np.arange(k1x - k0x + 1)) * h
    ys = (k0y + np.arange(k1y - k0y + 1)) * h
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx, gy], axis=-1)
    # one (nx, ny) gap plane per edge, not all m at once
    mask = np.ones(gx.shape, dtype=bool)
    for normal, offset in zip(poly.edge_normals, poly.edge_offsets):
        mask &= offset - pts @ normal > poly.eps
    a, b = poly.vertices, np.roll(poly.vertices, -1, axis=0)
    arms = []
    for axis in (0, 1):
        # cross(d, b - a) for d = +e_axis; the ray along d leaves the edges where it is > 0
        across = poly.edges[:, 1] if axis == 0 else -poly.edges[:, 0]
        for sign in (1.0, -1.0):
            weight = mask.astype(float)
            i, j = np.nonzero(mask & ~np.roll(mask, -int(sign), axis))
            leave = sign * across > 0.0
            ax, ay = a[leave, 0] - xs[i, None], a[leave, 1] - ys[j, None]
            bx, by = b[leave, 0] - xs[i, None], b[leave, 1] - ys[j, None]
            theta = ((ax * by - ay * bx) / (sign * across[leave])).min(axis=1) / h
            weight[i, j] = 1.0 / np.clip(theta, _THETA_MIN, 1.0)
            arms.append(weight)
    return GridField(h, k0x, k0y, mask, (arms[0] + arms[1]) + (arms[2] + arms[3]))


@np.errstate(all="ignore")  # fits off the ok mask may divide by a zero det
def _fit_peak(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic least-squares peaks on a stack of 3x3 patches f[k],
    offsets in [-1, 1].

    Every aggregate is assembled from mirror-commutative pairs so that
    flipping a patch flips its fitted offset exactly.  Returns (ox, oy,
    peak, proper), where proper marks the fits whose quadratic has a
    maximum, wherever it lies.
    """
    s0 = f[:, 1, 1]
    sx = f[:, 2, 1] + f[:, 0, 1]
    sy = f[:, 1, 2] + f[:, 1, 0]
    sd = (f[:, 2, 2] + f[:, 0, 0]) + (f[:, 2, 0] + f[:, 0, 2])
    dx = f[:, 2, 1] - f[:, 0, 1]
    dy = f[:, 1, 2] - f[:, 1, 0]
    dxt = (f[:, 2, 2] - f[:, 0, 2]) + (f[:, 2, 0] - f[:, 0, 0])
    dyt = (f[:, 2, 2] - f[:, 2, 0]) + (f[:, 0, 2] - f[:, 0, 0])
    dxy = (f[:, 2, 2] + f[:, 0, 0]) - (f[:, 2, 0] + f[:, 0, 2])
    total = ((s0 + sx) + sy) + sd
    qx = (sx + sd) - 2.0 * (s0 + sy)
    qy = (sy + sd) - 2.0 * (s0 + sx)
    c1 = (dx + dxt) / 6.0
    c2 = (dy + dyt) / 6.0
    c3 = qx / 6.0
    c4 = qy / 6.0
    c5 = dxy / 4.0
    c0 = (5.0 * total - 3.0 * (2.0 * sd + (sx + sy))) / 9.0
    det = 4.0 * c3 * c4 - c5 * c5
    ox = (-2.0 * c4 * c1 + c5 * c2) / det
    oy = (-2.0 * c3 * c2 + c5 * c1) / det
    peak = (c0 + (c1 * ox + c2 * oy)) + ((c3 * ox * ox + c4 * oy * oy) + c5 * ox * oy)
    return ox, oy, peak, (det > 0.0) & (c3 < 0.0)


def _locate_peak(grid: GridField, values: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Refined argmax; averages over the ties, the nodes within tol of the
    maximum, to stay mirror-stable.

    A symmetric field can attain its grid maximum at several nodes, equal
    up to the field's own error tol (0 where the field's arithmetic
    mirrors with the body); depending on array orientation, plain argmax
    would pick different members of that orbit.  Averaging the refined
    estimates of every tie gives an orientation-independent answer.  A
    fit that peaks beyond its patch is redone once on the interior
    neighbour it points to.  A tie whose 3x3 neighborhood leaves the
    mask, or whose fit is then no interior maximum, counts with its own
    node and the grid maximum.
    """
    vmax = float(values.max())
    ties = np.argwhere(values >= vmax - tol)
    near = np.arange(-1, 2)

    def fit(centres):
        # index arrays of each centre's 3x3 patch, shaped (ties, 3, 1) and (ties, 1, 3)
        rows, cols = centres[:, :1, None] + near[:, None], centres[:, 1:, None] + near
        ox, oy, peak, proper = _fit_peak(values[rows, cols])
        return np.column_stack([ox, oy]), peak, proper & grid.mask[rows, cols].all(axis=(1, 2))

    offset, peak, proper = fit(ties)
    # the sign of each offset beyond the patch; NaN and inner offsets give 0
    step = np.where(proper[:, None] & (np.abs(offset) > 1.0), np.sign(offset), 0.0).astype(np.int64)
    centres = ties + step
    centres = np.where(grid.mask[centres[:, 0], centres[:, 1]][:, None], centres, ties)
    offset, peak, proper = fit(centres)
    ok = proper & (np.abs(offset).max(axis=1) <= 1.0)
    corner = [grid.k0x, grid.k0y]
    fitted = (centres + corner) * grid.spacing + offset * grid.spacing
    locs = np.where(ok[:, None], fitted, (ties + corner) * grid.spacing)
    return locs.mean(axis=0), float(np.where(ok, peak, vmax).mean())


@dataclass(frozen=True)
class TrackSample:
    """Hot spot of the heat flow at one sampled time.

    bound caps the 2-norm, and so the sup norm, of the difference between
    the sampled field and the explicit march at this step, rounding aside
    (see heat_solve).  Early samples are Chebyshev series of degree
    `degree`; spectral samples come from the lowest eigenpair after the
    hand-over and have degree 0.
    """

    time: float
    location: np.ndarray
    peak: float
    bound: float = 0.0
    spectral: bool = False
    degree: int = 0


def _power_series(steps) -> list[tuple[np.ndarray, float]]:
    """Chebyshev coefficients of p^n, p(t) = (1 - 4t)/5, for each n in
    steps, each with the l1 mass of the coefficients it leaves out.

    (1 - 4t) (p^n)' = -4n p^n gives, with c_0 doubled, 2(n-k+1) c_{k-1}
    + k c_k - 2(n+k+1) c_{k+1} = 0 for k >= 1.  The c_k alternate in sign,
    so run backward every term has one sign: the recurrence is stable
    (Miller's algorithm).  One upper-banded solve runs it from c_{K+1} = 0
    at K = min(n, ceil(_MILLER_START sqrt(n)) + 10), exact at K = n, scaled
    so that sum (-1)^k c_k = p(-1)^n = 1.  The mass beyond K is bounded on
    the Bernstein ellipse of parameter rho: there |p| <= M =
    ((1 + 2(rho + 1/rho))/5)^n, so |c_k| <= 2 M rho^-k.  Each series is
    cut at the lowest degree whose left-out mass, that bound included, is
    at most _CHEB_TOL.
    """
    import scipy.linalg  # loaded by scipy.sparse.linalg already; see _interior_laplacian
    series = []
    for n in steps:
        top = min(n, math.ceil(_MILLER_START * math.sqrt(n)) + 10)
        j = np.arange(top + 1.0)
        # row k - 1 is the recurrence at k, c_{k-1} on the diagonal; the last sets c_K = 1
        ab = np.stack([-2.0 * (n + j), j, 2.0 * (n - j)])
        ab[2, 0], ab[2, top] = 4.0 * n, 1.0
        c = scipy.linalg.solve_banded((0, 2), ab, (j == top) * 1.0, overwrite_ab=True, check_finite=False)
        c /= (-1.0) ** top * np.abs(c).sum()
        beyond = 0.0
        if top < n:
            s = (top + 1) / (0.8 * n)  # log rho, near the bound's minimum
            log_m = n * math.log1p(1.6 * math.sinh(0.5 * s) ** 2)
            beyond = 2.0 * math.exp(log_m - (top + 1) * s) / -math.expm1(-s)
        tails = np.append(np.cumsum(np.abs(c[::-1]))[::-1], 0.0) + beyond  # tails[k]: the mass from c_k on
        # tails falls with k, so the cut degree counts the tails[k >= 1] above _CHEB_TOL
        keep = int(np.count_nonzero(tails[1:] > _CHEB_TOL)) + 1
        series.append((c[:keep], float(tails[keep])))
    return series


def _chebyshev_fields(grid: GridField, u: np.ndarray, steps):
    """Yield (p(B)^n u, degree, tail) for each n in steps, ascending.

    Each field is its series from _power_series, summed from one
    three-term recurrence on u, and tail is the mass that series leaves
    out.  The last _CHEB_BLOCK vectors T_k(B) u sit in a ring, added
    into every pending sample at once, one matrix product per column tile.
    A field is yielded, as a view, as soon as the recurrence passes its
    degree, so a caller that stops early saves the rest.  The stencil runs
    on the flattened padded grid, where node i's neighbours are i +- 1 and
    i +- ny; only padding nodes, which the mask zeroes, wrap across a row.
    2B is -s on each interior neighbour and s D - 2 on the diagonal, D
    the grid's diagonal and s from _heat_scale.
    """
    series = _power_series(steps)
    degrees = [len(c) - 1 for c, _ in series]
    coeffs = np.zeros((len(series), max(degrees) + 1))
    for row, (c, _) in zip(coeffs, series):
        row[: len(c)] = c
    tiles = -(-u.size // _TILE)
    acc = np.zeros((len(series), tiles, _TILE))
    ring = np.zeros((_CHEB_BLOCK, tiles, _TILE))
    flat = ring.reshape(_CHEB_BLOCK, -1)
    ny = u.shape[1]
    lo, hi = ny + 1, u.size - ny - 1
    scale = _heat_scale(grid)
    mask_f = grid.mask.ravel()[lo:hi].astype(float)
    off = -scale * mask_f
    own = (scale * grid.diagonal.ravel()[lo:hi] - 2.0) * mask_f
    pair = np.empty(hi - lo)
    done = 0
    for k0 in range(0, coeffs.shape[1], _CHEB_BLOCK):
        k1 = min(k0 + _CHEB_BLOCK, coeffs.shape[1])
        for k in range(k0, k1):
            if k == 0:
                flat[0, : u.size] = u.ravel()
                continue
            t = flat[k % _CHEB_BLOCK, lo:hi]
            a = flat[(k - 1) % _CHEB_BLOCK]
            np.add(a[lo + ny : hi + ny], a[lo - ny : hi - ny], out=t)
            np.add(a[lo + 1 : hi + 1], a[lo - 1 : hi - 1], out=pair)
            t += pair
            t *= off
            np.multiply(own, a[lo:hi], out=pair)
            t += pair
            if k == 1:
                t *= 0.5
            else:
                t -= flat[(k - 2) % _CHEB_BLOCK, lo:hi]
        for j in range(0, tiles, _TILE_GROUP):
            pending = acc[done:, j : j + _TILE_GROUP].swapaxes(0, 1)
            pending += np.matmul(coeffs[done:, k0:k1], ring[: k1 - k0, j : j + _TILE_GROUP].swapaxes(0, 1))
        while done < len(series) and degrees[done] < k1:
            yield acc[done].reshape(-1)[: u.size].reshape(u.shape), degrees[done], series[done][1]
            done += 1


def _norm(x: np.ndarray) -> float:
    """2-norm by numpy's pairwise sum: a BLAS dot would spread over threads."""
    return math.sqrt(float(np.add.reduce(x * x, axis=None)))


def sample_steps(t_end: float, dt: float) -> np.ndarray:
    """_N_SAMPLES heat-march step counts, geometric from the step
    nearest t_end/100 (at least one), where short_time_bound still holds
    the hot spot near the deepest points, to the step nearest t_end."""
    first = max(1, round(t_end / 100.0 / dt))
    return np.round(np.geomspace(first, round(t_end / dt), _N_SAMPLES)).astype(np.int64)


def heat_solve(grid: GridField, sample_times, eigen: EigenResult) -> tuple[TrackSample, ...]:
    """Heat flow from unit initial data, sampling the hot spot.

    Requested times land on the nearest step multiple of dt (_heat_step);
    the recorded times are the actual ones.  An early sample m steps after
    the field u the recurrence started from is p(B)^m u as a Chebyshev
    series (see _chebyshev_fields); its bound is the series' tail times
    |u|_2 plus u's own bound, since |p(B)|_2 <= 1.  The recurrence
    restarts from a sample whose peak, decayed at the lowest mode's rate
    1 - dt lam_1 per step, would be below _RESTART_DECAY of max u at the
    next sample.

    Once the part r = x - v_1 (v_1 . x) of a sampled field x outside the
    lowest unit eigenvector has |r|_2 <= _SWITCH_TOL max|x|, every sample
    m steps later is the march's closed form v_1 (v_1 . x) (1 - dt lam_1)^m,
    whose hot spot is the eigenpair's.  r evolves in the span of the other
    eigenvectors, whose eigenvalues lie in [lam_1, lam_G], so it shrinks
    by at least rho = max(1 - dt lam_1, dt lam_G - 1) per step; rho^m |r|_2
    plus the hand-over sample's bound is the stated bound.  eigen is the
    grid's lowest eigenpair, as eigen_solve(grid) returns it.
    """
    times = sorted(float(t) for t in sample_times)
    bad = [t for t in times if not 0.0 < t < math.inf]
    if bad or not times:
        raise ValueError(f"sample times must be finite and positive, got {bad or 'none'}")
    dt = _heat_step(grid)
    steps = []
    for t in times:
        steps.append(max(steps[-1] + 1 if steps else 1, int(round(t / dt))))
    mask_f = grid.mask.astype(float)
    phi = eigen.values[grid.mask]
    scale = _norm(phi)
    v = phi / scale
    decay = 1.0 - dt * eigen.eigenvalue
    samples = []
    # u is the field at step start, within carried of the march
    start, u, carried = 0, mask_f, 0.0
    while len(samples) < len(steps):
        norm, top = _norm(u), float(u.max())
        pending = steps[len(samples) :]
        fields = _chebyshev_fields(grid, u, [n - start for n in pending])
        for n, following, (field, degree, tail) in zip(pending, pending[1:] + [None], fields):
            bound = carried + tail * norm
            loc, peak = _locate_peak(grid, field, 0.0)
            samples.append(TrackSample(n * dt, loc, peak, bound=bound, degree=degree))
            x = field[grid.mask]
            lead = float(np.add.reduce(v * x))
            dropped = _norm(x - lead * v)
            if dropped <= _SWITCH_TOL * float(np.abs(x).max()):
                rho = max(decay, 8.0 / _DT_FACTOR - 1.0)
                for m in steps[len(samples) :]:
                    peak = eigen.peak * lead / scale * decay ** (m - n)
                    later = rho ** (m - n) * dropped + bound
                    samples.append(TrackSample(m * dt, eigen.location, peak, bound=later, spectral=True))
                return tuple(samples)
            if following is not None and peak * decay ** (following - n) < _RESTART_DECAY * top:
                break
        start, u, carried = n, field, bound
    return tuple(samples)


@dataclass(frozen=True)
class EigenResult:
    eigenvalue: float
    values: np.ndarray  # the eigenfunction on the grid, peak 1
    location: np.ndarray
    peak: float
    residual: float


def _interior_laplacian(grid: GridField):
    """The five-point Dirichlet Laplacian on the interior nodes, in C order,
    with the grid's diagonal.

    On the flattened padded grid node i's neighbours are i +- 1 and i +- ny,
    as in _chebyshev_fields; only padding nodes wrap across a row, and
    restricting rows and columns to the interior drops them.
    """
    import scipy.sparse  # here, not at module level: only a PDE solve loads scipy
    ny, size = grid.mask.shape[1], grid.mask.size
    grid_mat = scipy.sparse.diags([grid.diagonal.ravel(), -1.0, -1.0, -1.0, -1.0], [0, 1, -1, ny, -ny],
                                  shape=(size, size), format="csr")
    inside = np.flatnonzero(grid.mask)
    return grid_mat[inside][:, inside] / (grid.spacing * grid.spacing)


def _lanczos(solve, n: int) -> np.ndarray:
    """Unit eigenvector for the largest eigenvalue theta of the symmetric
    positive definite operator solve on R^n, by Lanczos from the unit
    vector along (1, ..., 1), polished by one more solve.

    Each new vector loses its three-term part alpha_j v_j + beta_{j-1}
    v_{j-1} first and is then orthogonalized once against the whole basis
    (classical Gram-Schmidt), so no spurious copies of theta appear.  The
    Ritz pair (theta, x = V y) of the tridiagonal T_j has |solve(x) -
    theta x|_2 = beta_j |y_j| in exact arithmetic; the iteration stops once
    that is at most _LANCZOS_TOL theta, and a full basis of _LANCZOS_BASIS
    vectors starts over from x.  The Ritz vector's basis sum spreads its
    rounding over every mode, which A weighs by up to lam_G; the returned
    vector is solve(x), normalized, where that part of it shrinks by
    lam_1/lam_i.  Dot products and basis combinations are numpy's pairwise
    sums, not BLAS calls, which would spread over threads.
    """
    basis = np.empty((_LANCZOS_BASIS, n))
    x = np.full(n, 1.0 / math.sqrt(n))
    solves = 0
    while True:
        basis[0] = x
        alpha, beta = [], []
        for j in range(_LANCZOS_BASIS):
            v = basis[: j + 1]
            w = solve(v[j])
            solves += 1
            a = float(np.add.reduce(v[j] * w))
            w -= a * v[j]
            if j:
                w -= beta[-1] * v[j - 1]
            c = np.add.reduce(v * w, axis=1)
            w -= np.add.reduce(v * c[:, None], axis=0)
            alpha.append(a + c[j])
            b = _norm(w)
            thetas, ys = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            theta, y = thetas[-1], ys[:, -1]
            bound = b * abs(y[-1])
            if bound <= _LANCZOS_TOL * theta:
                break
            if solves == _EIGEN_MAX_ITER:
                raise NoConvergence(
                    f"Lanczos bound {bound / theta:.3e} theta after {solves} LU solves "
                    f"above tol {_LANCZOS_TOL:.1e} theta"
                )
            if j + 1 < _LANCZOS_BASIS:
                basis[j + 1] = w / b
                beta.append(b)
        x = np.add.reduce(v * y[:, None], axis=0)
        x /= _norm(x)
        if bound <= _LANCZOS_TOL * theta:
            x = solve(x)
            return x / _norm(x)


def eigen_solve(grid: GridField) -> EigenResult:
    """Smallest eigenpair of the Dirichlet Laplacian on the grid.

    A shift-invert Lanczos at 0 (Ericsson & Ruhe 1980; _lanczos) finds the
    largest eigenvalue 1/lam of A^-1, applied through one sparse LU
    factorization ordered by minimum degree on A + A^T (for this symmetric
    matrix about half the fill-in of SuperLU's default) and pivoting on
    the diagonal, which is stable for a positive definite A and keeps
    that order (a row search made a thin sliver's factor 7x slower).
    lam is the Rayleigh quotient of the unit eigenvector v, and the
    residual |A v - lam v|_inf must stay within _EIGEN_BACKWARD_TOL
    |A|_inf |v|_inf, a bound that scales with the grid as A does.  No step
    calls BLAS on a whole vector.
    """
    import scipy.sparse.linalg  # as in _interior_laplacian
    mat = _interior_laplacian(grid)
    n = mat.shape[0]
    if n == 0:
        raise NoConvergence(f"empty grid: 0 interior nodes at spacing h = {grid.spacing:.3e}")
    lu = scipy.sparse.linalg.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                  relax=_LU_RELAX, panel_size=_LU_PANEL, options={"SymmetricMode": True})
    v = _lanczos(lu.solve, n)
    av = mat.dot(v)
    lam = float(np.add.reduce(v * av))
    residual = float(np.abs(av - lam * v).max() / np.abs(v).max())
    tol = _EIGEN_BACKWARD_TOL * grid.gershgorin / grid.spacing ** 2
    if residual > tol:
        raise NoConvergence(f"eigen residual {residual:.3e} above tol {tol:.3e}")
    if v.sum() < 0.0:
        v = -v
    values = np.zeros(grid.mask.shape)
    values[grid.mask] = v
    values /= values.max()
    # the LU's rounding does not mirror with the body: nodes that a
    # symmetry of the body swaps tie to about the residual over lam
    loc, peak = _locate_peak(grid, values, residual / lam)
    return EigenResult(lam, values, loc, peak, residual)


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    worst_gap: float
    slack: float
    n_checked: int


def verify_heart(samples, hot_spot_limit, heart: Region, slack: float) -> MembershipReport:
    """Check every tracked hot spot against the heart, within slack."""
    points = [s.location for s in samples] + [np.asarray(hot_spot_limit, dtype=float)]
    worst = float(max(region_point_distance(heart, p) for p in points))
    return MembershipReport(worst <= slack, worst, slack, len(points))


@dataclass(frozen=True)
class ShortTimeReport:
    ok: bool
    least_margin: float
    slack: float
    n_positive: int


def short_time_bound(poly: ConvexPolygon, t: float) -> float:
    """The depth delta(t) below which no hot spot x(t) can lie.

    The half-plane solutions bound the heat flow from unit initial data
    on both sides: 1 - sum_i erfc(d_i(x)/2 sqrt t) <= u(x, t) <=
    erf(d(x)/2 sqrt t), with d_i the distance to edge line i and d the
    least of them (by the maximum principle: the left side is <= 0 on
    the boundary, the right side >= 0).  The hot spot beats the incenter
    c, so erf(d(x(t))/2 sqrt t) >= 1 - S with S = sum_i erfc(d_i(c)/2
    sqrt t), and d(x(t)) >= delta(t) = 2 sqrt t erfc^-1(S).  delta is 0
    once S >= 1, where the bound says nothing, and at most the inradius
    r = min_i d_i(c), since S holds the nearest edge's term; it is r
    where S underflows.  erfc^-1 is Newton's method on log erfc, which is
    concave: from z = r/2 sqrt t, right of the root, it falls to the
    root monotonically, and stops once a step no longer lowers z in
    floating point.
    """
    dist = poly.edge_offsets - poly.edge_normals @ poly.incircle.center
    scale = 2.0 * math.sqrt(t)
    total = sum(math.erfc(d / scale) for d in dist.tolist())
    if total >= 1.0:
        return 0.0
    if total == 0.0:
        return float(dist.min())
    z = float(dist.min()) / scale
    target = math.log(total)
    while True:
        log_erfc = math.log(math.erfc(z))
        lower = z - (target - log_erfc) * (0.5 * math.sqrt(math.pi)) * math.exp(z * z + log_erfc)
        if not lower < z:
            return scale * z
        z = lower


def short_time_check(samples, poly: ConvexPolygon, slack: float) -> ShortTimeReport:
    """Check every tracked hot spot's depth against short_time_bound.

    The margin of a sample is its signed distance to the nearest edge
    line less delta at its time; each must be at least -slack.  This is
    Varadhan's short-time limit (the hot spot tends to the deepest
    points) in a quantitative form, with no grid quantity in the bound.
    """
    locs = np.array([s.location for s in samples])
    depth = (poly.edge_offsets - locs @ poly.edge_normals.T).min(axis=1)
    delta = np.array([short_time_bound(poly, s.time) for s in samples])
    least = float((depth - delta).min())
    return ShortTimeReport(least >= -slack, least, slack, int(np.count_nonzero(delta > 0.0)))


def write_csv(grid: GridField, values: np.ndarray, path) -> None:
    """Dump a field's values at the interior nodes as x,y,value rows."""
    ii, jj = np.nonzero(grid.mask)
    rows = np.column_stack([grid.node_x()[ii], grid.node_y()[jj], values[grid.mask]])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="x,y,value", comments="")


@dataclass(frozen=True)
class VerificationReport:
    grid: GridField
    eigen: EigenResult
    samples: tuple[TrackSample, ...]
    membership: MembershipReport
    short_time: ShortTimeReport

    @property
    def ok(self) -> bool:
        return self.membership.ok and self.short_time.ok

    @property
    def switch_step(self) -> int | None:
        """Hand-over step when later samples came from the eigenpair, else None."""
        if not self.samples[-1].spectral:
            return None
        return round(self._last_early.time / _heat_step(self.grid))

    @property
    def chebyshev_degree(self) -> int:
        """Degree of the Chebyshev series of the hand-over sample, or of
        the last sample when there is no hand-over."""
        return self._last_early.degree

    @property
    def _last_early(self) -> TrackSample:
        return [s for s in self.samples if not s.spectral][-1]


def default_spacing(poly: ConvexPolygon) -> float:
    """full_verify's grid spacing when given none: the inradius over
    _H_PER_INRADIUS."""
    return poly.incircle.radius / _H_PER_INRADIUS


def full_verify(poly: ConvexPolygon, heart: Region, h: float | None) -> VerificationReport:
    """End-to-end run: grid, eigenpair, trajectory, membership in heart.

    heart is the Region the trajectory is checked against, the first of
    the pair folding.heart_region returns.  The spacing h is
    default_spacing(poly), inradius/30, when None.  The horizon is
    10/lam1, long enough for the eigenmode to dominate.  _N_SAMPLES
    samples are geometric in whole steps from about t_end/100 (see
    sample_steps).  Each must lie within _MEMBERSHIP_SLACK h of the heart
    and no more than that shallower than short_time_bound.
    """
    if h is None:
        h = default_spacing(poly)
    grid = rasterize(poly, h)
    eigen = eigen_solve(grid)
    t_end = 10.0 / eigen.eigenvalue
    dt = _heat_step(grid)
    samples = heat_solve(grid, sample_steps(t_end, dt) * dt, eigen=eigen)
    slack = _MEMBERSHIP_SLACK * h
    membership = verify_heart(samples, eigen.location, heart, slack)
    short_time = short_time_check(samples, poly, slack)
    return VerificationReport(grid, eigen, samples, membership, short_time)
