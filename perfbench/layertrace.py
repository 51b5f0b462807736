"""Per-layer tracing by wrapping the package's public functions from outside.

Each wrapped function records a span (name, start, end, parent, operation
id, error type) and its self time: its duration minus the time spent in
wrapped functions it called.  A function is replaced where it is defined
and under every name another ``polyheart`` module imported it by (for
example ``cli.full_verify`` or ``folding.halfplane_intersection``), and
put back when the tracer closes.  Spans stay in memory until written.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Layer -> public functions to wrap.  The layers are the package modules.
WRAPPED = {
    "bodies": ("parse_body_arg",),
    "geometry": ("halfplane_intersection", "chebyshev_center"),
    "folding": ("heart_region", "folding_profile"),
    "pde": ("full_verify", "rasterize", "eigen_solve", "heat_solve"),
    "polar": ("santalo_point", "polar_polygon"),
    "bounds": ("minimal_reciprocal_support_integral", "reciprocal_support_integral"),
    "fourier": ("midpoint_via_transform", "indicator_transform"),
    "svgout": ("render_report_svg",),
    "cli": ("main",),
}

# The explicit heat march makes this many full passes over float64 arrays
# of the padded grid per step: two neighbour sums (3 each), their sum (3),
# the centre term (2), the difference (3), the scaling (2), the in-place
# update (3) and the mask multiply (3).  Bytes from it are computed, not
# measured, and ignore caches.
HEAT_ARRAY_PASSES_PER_STEP = 22
HEAT_DT_FACTOR = 5.0  # dt = h^2 / 5, the solver's explicit step

# Derived counters: name -> unit.
COUNTERS = {
    "folding.directions": "count",
    "geometry.halfplane_intersection.planes": "count",
    "pde.grid_nodes": "count",
    "pde.heat_steps": "count",
    "pde.heat_node_steps_per_s": "1/s",
    "pde.heat_bytes_computed": "B",
    "polar.polar_polygon.rejected": "ratio",
    "bounds.reciprocal_support_integral.rejected": "count",
    "fourier.indicator_transform.freqs": "count",
}


def _count(counts: Counter, name: str, args: dict, result, error: str | None) -> None:
    """Update the derived counters from one call's arguments and outcome."""
    if name == "folding.folding_profile" and error is None:
        counts["folding.directions"] += len(args["directions"])
    elif name == "geometry.halfplane_intersection" and hasattr(args["planes"], "__len__"):
        counts["geometry.halfplane_intersection.planes"] += len(args["planes"])
    elif name == "fourier.indicator_transform":
        shape = getattr(args["xi"], "shape", None)
        counts["fourier.indicator_transform.freqs"] += (
            shape[0] if shape is not None and len(shape) == 2 else 1
        )
    elif name == "pde.rasterize" and error is None:
        counts["pde.grid_nodes"] += result.interior_count
    elif name == "pde.heat_solve" and error is None and result:
        grid = args["grid"]
        h = grid.spacing
        steps = round(result[-1].time / (h * h / HEAT_DT_FACTOR))
        counts["pde.heat_steps"] += steps
        counts["pde.heat_node_steps"] += steps * grid.interior_count
        counts["pde.heat_bytes_computed"] += steps * HEAT_ARRAY_PASSES_PER_STEP * grid.mask.size * 8
    elif name == "polar.polar_polygon" and error == "CenterTooCloseToBoundary":
        counts["polar.polar_polygon.rejected"] += 1
    elif name == "bounds.reciprocal_support_integral" and error == "QuadratureUnstable":
        counts["bounds.reciprocal_support_integral.rejected"] += 1


# Functions whose counters read their arguments (binding costs a little).
_NEEDS_ARGS = {
    "folding.folding_profile",
    "geometry.halfplane_intersection",
    "fourier.indicator_transform",
    "pde.heat_solve",
}


class Tracer:
    """Context manager that wraps the functions in WRAPPED while open."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self._stack: list[list] = []  # [span index, child seconds]
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn) if name in _NEEDS_ARGS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[index] = (name, start, end, parent, self.op_id, error)
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                self.calls[name] += 1
                bound = sig.bind(*args, **kwargs).arguments if sig is not None else {}
                _count(self.counts, name, bound, result, error)

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "polyheart" or key.startswith("polyheart."))]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"polyheart.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        return False

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function totals, self times and calls, plus derived counters."""
        out: dict[str, tuple[float, str]] = {}
        for layer, names in WRAPPED.items():
            for fn_name in names:
                key = f"{layer}.{fn_name}"
                out[f"{key}.s"] = (self.total[key], "s")
                out[f"{key}.self_s"] = (self.self_time[key], "s")
                out[f"{key}.calls"] = (self.calls[key], "count")
        heat_s = self.total["pde.heat_solve"]
        polar_calls = self.calls["polar.polar_polygon"]
        for name, unit in COUNTERS.items():
            if name == "pde.heat_node_steps_per_s":
                value = self.counts["pde.heat_node_steps"] / heat_s if heat_s > 0 else 0.0
            elif name == "polar.polar_polygon.rejected":
                value = self.counts[name] / polar_calls if polar_calls else 0.0
            else:
                value = self.counts[name]
            out[name] = (value, unit)
        return out

    def self_seconds(self) -> float:
        return sum(self.self_time.values())

    def write(self, path, extra: dict) -> None:
        """Write every span, the aggregates and ``extra`` as one JSON file."""
        doc = {
            **extra,
            "span_fields": ["name", "start", "end", "parent", "op", "error"],
            "spans": self.spans,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics().items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
