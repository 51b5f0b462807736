"""Command-line front end.

Subcommands cover the individual capabilities (heart, bounds, polar,
santalo, pde-verify, fourier-check) plus a combined report.  Each takes
--body, --json, --svg, --seed and the options it reads (_COMMANDS).
The Fourier inversion runs at the fixed cutoff _FOURIER_CUTOFF.
Output is a versioned JSON document on one line and optionally an SVG
figure rendered purely from that document, so a report re-renders byte
for byte.

Exit codes: 0 success, 1 invalid input or a usage error, 2 internal
inconsistency (including verification checks that come back false, and
a report value that is NaN or infinite, which JSON cannot hold).
Errors go to stderr as one JSON object per failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .bodies import parse_body_arg
from .bounds import (
    distance_bounds_convex,
    distance_bounds_general,
    eigenvalue_upper_bounds,
    minimal_reciprocal_support_integral,
)
from .errors import (
    DenominatorTooSmall,
    InconsistentHeart,
    NoConvergence,
    PolyheartError,
    QuadratureUnstable,
    UsageError,
)
from .folding import chord_midpoint, heart_ball_radius, heart_region
from .fourier import indicator_transform, midpoint_via_transform
from .geometry import EPS_REL, shadow_interval
from .pde import full_verify
from .polar import polar_area, polar_area_eigen_check, polar_area_lower_check, polar_polygon, santalo_point
from .svgout import render_report_svg

_INCONSISTENCY = (InconsistentHeart, NoConvergence, QuadratureUnstable, DenominatorTooSmall)
# frequency cutoff of the transform inversion, in units of 2 pi / diameter
_FOURIER_CUTOFF = 400.0


def _fields(obj) -> dict:
    """A flat dataclass's fields as a dict: dataclasses.asdict would
    deep-copy each of these floats and flags, at several times the cost."""
    return dict(vars(obj))


def _body_section(poly, spec) -> dict:
    cheb = poly.incircle
    return {
        "spec": spec,
        "vertices": poly.vertices.tolist(),
        "area": poly.area,
        "perimeter": poly.perimeter,
        "diameter": poly.diameter,
        "centroid": poly.centroid.tolist(),
        "incenter": cheb.center.tolist(),
        "inradius": cheb.radius,
    }


def _heart_section(poly, n_dirs: int):
    heart, profile = heart_region(poly, n_dirs)
    section = {
        "kind": heart.kind,
        "vertices": heart.points.tolist(),
        "ball_center": poly.centroid.tolist(),
        "ball_radius": heart_ball_radius(poly, heart),
        "n_dirs": n_dirs,
        "offset_min": float(profile.values.min()),
        "offset_max": float(profile.values.max()),
    }
    return heart, section


def _bounds_section(poly) -> dict:
    w_val, w_center = minimal_reciprocal_support_integral(poly)
    upper = eigenvalue_upper_bounds(poly, w_val)
    general = distance_bounds_general(poly, upper.best)
    return {
        # perfbench's check_analysis reads inradius and perimeter
        "stats": {"area": poly.area, "perimeter": poly.perimeter, "diameter": poly.diameter,
                  "inradius": poly.incircle.radius},
        "eigenvalue_upper": {**_fields(upper), "best": upper.best},
        "lam1_used": upper.best,
        "distance_general": _fields(general),
        "distance_convex": _fields(distance_bounds_convex(poly)),
        # perfbench's check_analysis reads this key
        "distance_star": general.precise,
        "reciprocal_support": {"min_value": w_val, "minimizer": w_center.tolist()},
    }


def _polar_section(poly) -> dict:
    sant = santalo_point(poly)
    lower = polar_area_lower_check(poly, poly.centroid)
    return {
        "santalo": sant.tolist(),
        "polar_area_at_santalo": polar_area(poly, sant),
        "polar_area_at_centroid": lower.lhs,
        "lower_check": _fields(lower),
    }


def _pde_section(poly, heart, args) -> dict:
    rep = full_verify(poly, heart, h=args.h)
    return {
        "h": rep.grid.spacing,
        "n_nodes": rep.grid.interior_count,
        "eigenvalue": rep.eigen.eigenvalue,
        "residual": rep.eigen.residual,
        "hot_spot_limit": rep.eigen.location.tolist(),
        "switch_step": rep.switch_step,
        "chebyshev_degree": rep.chebyshev_degree,
        "track": [
            {"time": s.time, "location": s.location.tolist(), "peak": s.peak, "bound": s.bound}
            for s in rep.samples
        ],
        "membership": _fields(rep.membership),
        "short_time": _fields(rep.short_time),
        "ok": rep.ok,
    }


def _fourier_section(poly, seed: int) -> dict:
    area = poly.area
    t0 = complex(indicator_transform(poly, np.zeros(2)))
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [np.cos(ang), np.sin(ang)]])
    lo, hi = shadow_interval(poly, dirs)
    ys = lo[:, None] + np.array([0.35, 0.5, 0.65]) * (hi - lo)[:, None]
    recons = midpoint_via_transform(poly, dirs, ys, cutoff=_FOURIER_CUTOFF)
    directs = chord_midpoint(poly, dirs, ys)
    errs = np.abs(recons - directs)
    checks = [
        {"omega": w, "y": y, "fourier": recon, "direct": direct, "abs_err": err}
        for w, *rows in zip(dirs.tolist(), ys.tolist(), recons.tolist(), directs.tolist(), errs.tolist())
        for y, recon, direct, err in zip(*rows)
    ]
    return {
        "cutoff": _FOURIER_CUTOFF,
        "area_check": {"transform": t0.real, "area": area, "abs_err": abs(t0 - area)},
        "midpoint_checks": checks,
        "max_abs_err": float(errs.max()),
    }


def _cmd_heart(poly, args):
    _, hsec = _heart_section(poly, args.dirs)
    lines = [
        f"heart kind: {hsec['kind']}",
        f"heart vertices: {hsec['vertices']}",
        f"ball radius around centroid: {hsec['ball_radius']:.9g}",
    ]
    return {"heart": hsec}, lines, True


def _cmd_bounds(poly, args):
    sec = _bounds_section(poly)
    lines = [
        f"lambda1 upper (best): {sec['lam1_used']:.9g}",
        f"distance bounds: general precise {sec['distance_general']['precise']:.9g}, "
        f"coarse {sec['distance_general']['coarse']:.9g}",
        f"convex precise {sec['distance_convex']['precise']:.9g}, "
        f"coarse {sec['distance_convex']['coarse']:.9g}",
    ]
    return {"bounds": sec}, lines, True


def _cmd_polar(poly, args):
    center = poly.centroid
    lower = polar_area_lower_check(poly, center)
    report = {
        "polar": {
            "center": center.tolist(),
            "polar_vertices": polar_polygon(poly, center).vertices.tolist(),
            "polar_area": lower.lhs,
            "lower_check": _fields(lower),
        },
    }
    lines = [
        f"polar area at centroid: {lower.lhs:.9g}",
        f"area product check: lhs {lower.lhs:.9g} >= rhs {lower.rhs:.9g} "
        f"({'ok' if lower.ok else 'VIOLATED'})",
    ]
    return report, lines, lower.ok


def _cmd_santalo(poly, args):
    sec = _polar_section(poly)
    lines = [
        f"santalo point: {sec['santalo']}",
        f"polar area there: {sec['polar_area_at_santalo']:.9g}",
    ]
    return {"polar": sec}, lines, sec["lower_check"]["ok"]


def _cmd_pde_verify(poly, args):
    heart, hsec = _heart_section(poly, args.dirs)
    pde = _pde_section(poly, heart, args)
    lines = [
        f"lambda1 numeric: {pde['eigenvalue']:.9g} (residual {pde['residual']:.3g})",
        f"hot spot limit: {pde['hot_spot_limit']}",
        f"membership: {'ok' if pde['membership']['ok'] else 'FAILED'} "
        f"(worst gap {pde['membership']['worst_gap']:.3g}, slack {pde['membership']['slack']:.3g})",
        f"short-time: {'ok' if pde['short_time']['ok'] else 'FAILED'} "
        f"(least margin {pde['short_time']['least_margin']:.3g}, slack {pde['short_time']['slack']:.3g}, "
        f"bound above 0 at {pde['short_time']['n_positive']} of {len(pde['track'])} samples)",
    ]
    return {"heart": hsec, "pde": pde}, lines, pde["ok"]


def _cmd_fourier_check(poly, args):
    sec = _fourier_section(poly, args.seed)
    # the transform at zero is the limit of its edge sum, a closed form: a
    # gap beyond rounding means edge data that do not describe the body
    ok = sec["area_check"]["abs_err"] <= EPS_REL * poly.area
    lines = [
        f"transform at zero: {sec['area_check']['transform']:.12g} vs area {poly.area:.12g}",
        f"max midpoint reconstruction error: {sec['max_abs_err']:.3g}",
    ]
    return {"fourier": sec}, lines, ok


def _cmd_report(poly, args):
    heart, hsec = _heart_section(poly, args.dirs)
    pde = _pde_section(poly, heart, args)
    report = {
        "heart": hsec,
        "bounds": _bounds_section(poly),
        "polar": _polar_section(poly),
        "pde": pde,
        "fourier": _fourier_section(poly, args.seed),
    }
    eig = polar_area_eigen_check(poly, pde["hot_spot_limit"], pde["eigenvalue"])
    report["polar"]["eigen_check"] = _fields(eig)
    checks_ok = pde["ok"] and report["polar"]["lower_check"]["ok"] and eig.ok
    lines = [
        f"heart kind: {hsec['kind']}, ball radius {hsec['ball_radius']:.9g}",
        f"lambda1 numeric: {pde['eigenvalue']:.9g}",
        f"verification: {'ok' if checks_ok else 'FAILED'}",
    ]
    return report, lines, checks_ok


_COMMANDS = {
    "heart": (_cmd_heart, ("--dirs",)),
    "bounds": (_cmd_bounds, ()),
    "polar": (_cmd_polar, ()),
    "santalo": (_cmd_santalo, ()),
    "pde-verify": (_cmd_pde_verify, ("--dirs", "--h")),
    "fourier-check": (_cmd_fourier_check, ()),
    "report": (_cmd_report, ("--dirs", "--h")),
}

_OPTIONS = {
    "--dirs": {"type": int, "default": 720, "help": "direction count for the heart sweep"},
    "--h": {"type": float, "default": None, "help": "grid spacing (default inradius/30)"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # in place of argparse's usage text and exit 2
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="polyheart",
        description="Hot-spot confinement toolkit for convex polygons.",
        allow_abbrev=False,  # else --h on a subcommand without it would be --help
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--body", required=True,
                       help="generator shorthand (square, rectangle:2,1, halfdisc:1,0,64, "
                            "triangle:0,0,1,0,0,1, regular_ngon:6,1, ellipse_approx:2,1,256) "
                            "or a path to a JSON body file")
        for option in reads:
            p.add_argument(option, **_OPTIONS[option])
        p.add_argument("--json", metavar="PATH", default=None, help="write the report JSON here")
        p.add_argument("--svg", metavar="PATH", default=None, help="write an SVG figure here")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    return parser


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")
    return code


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # argparse would name the program only, not the subcommand
            raise UsageError(f"polyheart {args.command}: unrecognized arguments: {' '.join(extra)}")
        poly, spec = parse_body_arg(args.body)
    except (PolyheartError, ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail(1, type(exc).__name__, str(exc))
    try:
        report, lines, ok = _COMMANDS[args.command][0](poly, args)
        report = {"body": _body_section(poly, spec), **report}
    except _INCONSISTENCY as exc:
        return _fail(2, type(exc).__name__, str(exc))
    except (PolyheartError, ValueError) as exc:
        return _fail(1, type(exc).__name__, str(exc))
    report = {"schema": 3, "tool": {"name": "polyheart", "version": __version__},
              "command": args.command, **report}
    try:  # one line from the C encoder; NaN and infinity are not JSON
        text = json.dumps(report, allow_nan=False) + "\n"
    except ValueError as exc:
        return _fail(2, type(exc).__name__, str(exc))
    try:
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(text)
        if args.svg:
            with open(args.svg, "w") as fh:
                fh.write(render_report_svg(report))
    except OSError as exc:
        return _fail(1, type(exc).__name__, str(exc))
    for line in lines:
        print(line)
    if not ok:
        return _fail(2, "VerificationFailed", "one or more consistency checks failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
