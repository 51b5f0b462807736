"""Seeded inputs, per-pass operation lists and output checks.

A workload is a sequence of passes.  Each pass is a fixed list of CLI
operations whose bodies are generated from the benchmark seed; the
library only ever sees the generated bodies, written as JSON vertex
files (or named generator shorthands).  Every operation's
output is checked after it returns, outside the timed region.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Distinct SeedSequence streams, so no two workloads share a body.
_STREAMS = {"report": 1, "heart": 2, "analyses": 3}

# The report panel does not depend on --seed (see report_pass).
_REPORT_PANEL_ENTROPY = 20101247
_REPORT_PANEL_SIZE = 3

HEART_FIXED = ("ellipse_approx:2,1,256", "regular_ngon:512", "halfdisc:1,0,64")
HEART_SIZES = (128, 192, 256, 320, 384)
ANALYSES_SIZES = (5, 6, 8, 10, 12, 48)
ANALYSES_COMMANDS = ("santalo", "bounds", "polar", "fourier-check")

# First Dirichlet eigenvalue of the unit half-disc: j_{1,1}^2.
HALFDISC_EIGENVALUE = 3.8317059702075125**2
HALFDISC_EIGEN_REL_TOL = 0.02


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``polyheart <command> --body <body> ...``."""

    command: str
    body: str
    label: str
    expect: dict = field(default_factory=dict)

    def argv(self, seed: int, out_json: str, out_svg: str | None = None) -> list[str]:
        args = [self.command, "--body", self.body, "--json", out_json, "--seed", str(seed)]
        if out_svg is not None:
            args += ["--svg", out_svg]
        return args


def spacings_polygon(rng: np.random.Generator, n: int, min_gap_frac: float = 0.3) -> np.ndarray:
    """CCW vertices of a seeded convex n-gon, built in O(n).

    Angles on the unit circle have conditioned uniform spacings: each gap
    is delta + (2 pi - n delta) * Dirichlet(1, ..., 1), the distribution of
    uniform spacings conditioned on every gap exceeding delta.  The cyclic
    polygon then goes through a rotation, an axis stretch in [0.6, 1.8]
    and a shift, as in the package's own random bodies.
    """
    delta = min_gap_frac * 2.0 * math.pi / n
    gaps = delta + (2.0 * math.pi - n * delta) * rng.dirichlet(np.ones(n))
    ang = rng.uniform(0.0, 2.0 * math.pi) + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    theta = rng.uniform(0.0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    stretch = np.diag(rng.uniform(0.6, 1.8, size=2))
    return pts @ (rot @ stretch).T + rng.uniform(-0.5, 0.5, size=2)


def halfdisc_vertices(m: int = 64) -> np.ndarray:
    """Vertices of ``halfdisc:1,0,m`` (same formula as the generator)."""
    ang = np.linspace(0.0, math.pi, m)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def lattice_symmetry(vertices: np.ndarray, k: int) -> np.ndarray:
    """Apply the k-th of the 8 symmetries of the square lattice h Z^2.

    Axis swaps and sign flips are exact in floating point and map every
    grid the finite-difference solver builds onto itself, so the solver
    does the same work on the image.  Reflections reverse the vertex
    order to keep it counterclockwise.
    """
    v = np.asarray(vertices, dtype=float)
    if k & 1:
        v = v[:, ::-1]
    sx = -1.0 if k & 2 else 1.0
    sy = -1.0 if k & 4 else 1.0
    v = v * np.array([sx, sy])
    if bin(k).count("1") % 2:
        v = v[::-1]
    return np.ascontiguousarray(v)


def _rng(workload: str, *keys: int) -> np.random.Generator:
    return np.random.default_rng([_STREAMS[workload], *keys])


def write_body(path: Path, vertices: np.ndarray) -> str:
    path.write_text(json.dumps({"vertices": np.asarray(vertices).tolist()}))
    return str(path)


def report_pass(seed: int, index: int, workdir: Path) -> list[Op]:
    """``report`` on the half-disc plus a panel of seeded 5-12-gons.

    At default h the report fails on about half of all bodies (the
    varadhan sample-span defect), and which half is a coin flip in the
    body.  Only a few reports fit in one run, so a panel drawn from
    --seed would swing ok_per_s far beyond any useful bound.  The panel
    is therefore drawn once from a fixed seed, and --seed picks a lattice
    symmetry for each body: the inputs differ from seed to seed while the
    work and the outcome of each report stay the same.
    """
    panel_rng = np.random.default_rng(_REPORT_PANEL_ENTROPY)
    panel = [("halfdisc64", halfdisc_vertices(64), {"eigenvalue": HALFDISC_EIGENVALUE})]
    for i in range(_REPORT_PANEL_SIZE):
        n = int(panel_rng.integers(5, 13))
        panel.append((f"panel{i}_{n}gon", spacings_polygon(panel_rng, n), {}))
    sym = _rng("report", seed, index).integers(0, 8, size=len(panel))
    ops = []
    for (name, verts, expect), k in zip(panel, sym):
        path = write_body(workdir / f"report-p{index}-{name}.json", lattice_symmetry(verts, int(k)))
        ops.append(Op("report", path, f"{name}/sym{int(k)}", expect))
    return ops


def heart_pass(seed: int, index: int, workdir: Path) -> list[Op]:
    """``heart`` on the three named large bodies plus one seeded body per size."""
    ops = [Op("heart", spec, spec) for spec in HEART_FIXED]
    for j, n in enumerate(HEART_SIZES):
        verts = spacings_polygon(_rng("heart", seed, index, j), n)
        path = write_body(workdir / f"heart-p{index}-{n}gon.json", verts)
        ops.append(Op("heart", path, f"seeded{n}gon"))
    return ops


def analyses_pass(seed: int, index: int, workdir: Path) -> list[Op]:
    """santalo, bounds, polar and fourier-check on one seeded body per size."""
    ops = []
    for j, n in enumerate(ANALYSES_SIZES):
        verts = spacings_polygon(_rng("analyses", seed, index, j), n)
        path = write_body(workdir / f"analyses-p{index}-{n}gon.json", verts)
        ops.extend(Op(cmd, path, f"seeded{n}gon") for cmd in ANALYSES_COMMANDS)
    return ops


PASSES = {"report": report_pass, "heart": heart_pass, "analyses": analyses_pass}

# Cheap calls on the unit square that touch every code path a workload
# uses, so lazy imports and caches are filled before timing starts.
WARMUP = {
    "report": [["report", "--body", "square", "--h", "0.0625", "--dirs", "90"]],
    "heart": [["heart", "--body", "square", "--dirs", "90"]],
    "analyses": [[cmd, "--body", "square"] for cmd in ANALYSES_COMMANDS],
}


# --------------------------------------------------------------------------
# Output checks.  Each returns None when the output is right, else a short
# failure label.  They use only the report JSON, the captured stdout and,
# for the heart, the package's definition-based folding oracle.


def _edges(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals and offsets of a CCW polygon's edges."""
    e = np.roll(vertices, -1, axis=0) - vertices
    normals = np.column_stack([e[:, 1], -e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
    return normals, np.einsum("ij,ij->i", normals, vertices)


def _centroid(vertices: np.ndarray) -> np.ndarray:
    x, y = vertices[:, 0], vertices[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    return np.array([((x + xn) * cross).sum(), ((y + yn) * cross).sum()]) / (6.0 * area)


def _diameter(vertices: np.ndarray) -> float:
    d = vertices[:, None, :] - vertices[None, :, :]
    return float(np.sqrt(np.einsum("ijk,ijk->ij", d, d).max()))


def _distance_to_region(kind: str, pts: np.ndarray, x: np.ndarray) -> float:
    if kind == "point":
        return float(np.linalg.norm(x - pts[0]))
    if kind == "segment":
        a, b = pts[0], pts[1]
        ab = b - a
        t = min(1.0, max(0.0, float((x - a) @ ab) / max(float(ab @ ab), 1e-300)))
        return float(np.linalg.norm(x - (a + t * ab)))
    if kind == "polygon":
        normals, offsets = _edges(pts)
        return max(0.0, float((normals @ x - offsets).max()))
    return math.inf


def check_heart(op: Op, report: dict, seed: int, n_oracle_dirs: int = 3) -> str | None:
    from polyheart.folding import folding_offset_bisection
    from polyheart.geometry import ConvexPolygon

    body = np.array(report["body"]["vertices"], dtype=float)
    heart = report["heart"]
    pts = np.array(heart["vertices"], dtype=float).reshape(-1, 2)
    diam = _diameter(body)
    if heart["kind"] not in ("point", "segment", "polygon") or len(pts) == 0:
        return "check:heart_empty"
    normals, offsets = _edges(body)
    if (pts @ normals.T - offsets).max() > 1e-8 * diam:
        return "check:heart_outside_body"
    if _distance_to_region(heart["kind"], pts, _centroid(body)) > 1e-7 * diam:
        return "check:centroid_outside_heart"
    # Directions of the CLI's uniform grid, where the heart is cut exactly
    # at the folding offset; off the grid it is only an outer approximation.
    poly = ConvexPolygon(body)
    n_dirs = int(heart["n_dirs"])
    rng = np.random.default_rng([seed, len(body), n_dirs])
    for k in rng.choice(n_dirs, size=n_oracle_dirs, replace=False):
        a = 2.0 * math.pi * int(k) / n_dirs
        w = np.array([math.cos(a), math.sin(a)])
        oracle = folding_offset_bisection(poly, w, tol=poly.eps)
        if float((pts @ w).max()) > oracle + 1e-7 * diam:
            return "check:heart_support_above_oracle"
    return None


def check_report(op: Op, report: dict, stdout: str) -> str | None:
    if "verification: ok" not in stdout:
        return "check:verification_not_ok"
    if report["pde"]["membership"]["ok"] is not True:
        return "check:membership_not_ok"
    if "eigenvalue" in op.expect:
        ref = op.expect["eigenvalue"]
        if abs(report["pde"]["eigenvalue"] - ref) > HALFDISC_EIGEN_REL_TOL * ref:
            return "check:eigenvalue_off"
    return None


def check_analysis(op: Op, report: dict) -> str | None:
    if op.command == "santalo":
        sec = report["polar"]
        if sec["polar_area_at_santalo"] > sec["polar_area_at_centroid"] * (1.0 + 1e-12):
            return "check:santalo_not_better_than_centroid"
        if sec["lower_check"]["ok"] is not True:
            return "check:lower_check_not_ok"
    elif op.command == "polar":
        if report["polar"]["lower_check"]["ok"] is not True:
            return "check:lower_check_not_ok"
    elif op.command == "bounds":
        sec = report["bounds"]
        inradius = sec["stats"]["inradius"]
        dists = [*sec["distance_general"].values(), *sec["distance_convex"].values(),
                 sec["distance_star"]]
        # Lower bounds on the hot spot's boundary distance never exceed
        # the inradius, and the minimized support integral never exceeds
        # its value perimeter/inradius at the incenter.
        if not all(0.0 < d <= inradius * (1.0 + 1e-9) for d in dists):
            return "check:distance_bound_out_of_range"
        if sec["reciprocal_support"]["min_value"] > sec["stats"]["perimeter"] / inradius * (1.0 + 1e-9):
            return "check:support_integral_above_incenter_value"
    elif op.command == "fourier-check":
        area = report["body"]["area"]
        if report["fourier"]["area_check"]["abs_err"] > 1e-9 * area:
            return "check:fourier_area_error"
    return None


def check_output(workload: str, op: Op, report: dict, stdout: str, seed: int) -> str | None:
    """Dispatch to the workload's check; a malformed report is a failure."""
    from polyheart.errors import PolyheartError

    try:
        if report.get("command") != op.command:
            return "check:wrong_command"
        if workload == "heart":
            return check_heart(op, report, seed)
        if workload == "report":
            return check_report(op, report, stdout)
        return check_analysis(op, report)
    except (KeyError, TypeError, ValueError, IndexError):
        return "check:malformed_report"
    except PolyheartError as exc:  # the oracle rejected the reported body
        return f"check:oracle_{type(exc).__name__}"
