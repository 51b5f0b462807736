"""polyheart benchmark: one workload per invocation, closed loop, in-process.

    python3 perfbench/run.py --workload {report,heart,analyses} \
        --seed N --seconds S --trace {0,1}

One client runs ``polyheart.cli.main`` subcommands one after another in
this process (imported from ``src/`` of the checkout), in whole passes of
the workload's operation list, until at least S seconds of operation
time have been measured.  Every output is checked after its operation
returns, outside the timed region.  A nonzero exit code or a failed
check makes the operation fail; its time still counts.

--trace 0 prints the end-to-end metrics: setup_s (median of five
set-ups), ok_per_s (median over passes of passing operations per second
of operation time) and peak_rss_mb.  --trace 1 runs every operation twice, untraced and traced
(alternating which goes first), checks that both give the same outcome,
and prints the per-layer metrics plus the tracing overhead; the spans go
to perfbench/out/.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120


def _use_checkout_package() -> None:
    if not (SRC / "polyheart" / "__init__.py").is_file():
        raise SystemExit(f"error: no polyheart package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def call_cli(cli, argv: list[str]) -> tuple[float, int | None, str, str, str | None]:
    """Run one subcommand; returns (seconds, exit code, stdout, stderr, raised)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        raised = f"SystemExit:{exc.code}"
    except Exception as exc:  # a crash is a failed operation, not a dead benchmark
        raised = type(exc).__name__
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue(), raised


def setup_once(workload: str, seed: int, workdir: Path) -> float:
    """Import the package, write the first pass's bodies and warm up.

    Returns the seconds this took.  The import is only timed for real in a
    process that has not imported polyheart yet.
    """
    start = time.perf_counter()
    _use_checkout_package()
    cli = importlib.import_module("polyheart.cli")
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.PASSES[workload](seed, 0, workdir)
    for argv in workloads.WARMUP[workload]:
        extra = ["--json", str(workdir / "warmup.json")]
        if argv[0] == "report":
            extra += ["--svg", str(workdir / "warmup.svg")]
        call_cli(cli, argv + extra)
    return time.perf_counter() - start


def _setup_in_child(workload: str, seed: int, workdir: Path) -> float:
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; "
        "from pathlib import Path; "
        "print(run.setup_once(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(HERE), workload, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _error_type(code, stderr: str, raised: str | None) -> str:
    if raised is not None:
        return f"raised:{raised}"
    for line in reversed(stderr.strip().splitlines()):
        try:
            return json.loads(line)["error"]["type"]
        except (ValueError, KeyError, TypeError):
            continue
    return f"exit:{code}"


def execute(cli, op, seed: int, workdir: Path, tag: str, workload: str) -> dict:
    """Run one operation (timed) and check its output (untimed)."""
    out_json = workdir / f"out-{tag}.json"
    out_svg = workdir / f"out-{tag}.svg" if op.command == "report" else None
    for p in (out_json, out_svg):
        if p is not None and p.exists():
            p.unlink()
    seconds, code, stdout, stderr, raised = call_cli(
        cli, op.argv(seed, str(out_json), None if out_svg is None else str(out_svg))
    )
    error = None
    wrong = False
    if raised is not None or code != 0:
        error = _error_type(code, stderr, raised)
    else:
        try:
            report = json.loads(out_json.read_text())
        except (OSError, ValueError):
            report = None
        if report is None:
            error = "check:no_json_output"
        elif out_svg is not None and "<svg" not in out_svg.read_text()[:200]:
            error = "check:no_svg_output"
        else:
            error = workloads.check_output(workload, op, report, stdout, seed)
        wrong = error is not None
    return {"label": op.label, "command": op.command, "seconds": seconds,
            "ok": error is None, "error": error, "wrong_output": wrong}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in getters:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    workload, seed = args.workload, args.seed
    setups = [setup_once(workload, seed, workdir / "setup0")]
    import polyheart.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported polyheart from {cli.__file__}, not {SRC}")
    if not args.trace:
        setups += [_setup_in_child(workload, seed, workdir / f"setup{i}")
                   for i in range(1, SETUP_REPEATS)]

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()

    records = []
    timed = {False: 0.0, True: 0.0}
    index = 0
    while sum(timed.values()) < args.seconds:
        for op in workloads.PASSES[workload](seed, index, workdir):
            if tracer is None:
                rec = execute(cli, op, seed, workdir, "u", workload)
                timed[False] += rec["seconds"]
            else:
                tracer.op_id = len(records)
                pair = {}
                order = (False, True) if len(records) % 2 == 0 else (True, False)
                for traced in order:
                    with tracer if traced else contextlib.nullcontext():
                        pair[traced] = execute(cli, op, seed, workdir, "t" if traced else "u", workload)
                    timed[traced] += pair[traced]["seconds"]
                rec = pair[False]
                if (pair[True]["ok"], pair[True]["error"]) != (rec["ok"], rec["error"]):
                    rec = {**rec, "ok": False, "wrong_output": True,
                           "error": f"trace_mismatch:{rec['error']}/{pair[True]['error']}"}
            records.append({**rec, "pass": index})
        index += 1

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    errors = Counter(r["error"] for r in records if r["error"] is not None)
    # Throughput of each pass; the median resists the bursts of slowdown a
    # shared machine shows for a few seconds at a time.
    pass_rates = []
    for p in range(index):
        in_pass = [r for r in records if r["pass"] == p]
        pass_rates.append(sum(r["ok"] for r in in_pass) / sum(r["seconds"] for r in in_pass))
    env = environment()
    summary = {"workload": workload, "seed": seed, "passes": index, "pass_ok_per_s": pass_rates,
               "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
               "errors": errors, "setup_samples_s": setups, "env": env}
    print("summary: " + json.dumps(summary))

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ok_per_s": (statistics.median(pass_rates), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics = dict(tracer.metrics())
        wall = timed[True]
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.untraced_wall_s"] = (timed[False], "s")
        metrics["trace.overhead_s"] = (wall - timed[False], "s")
        metrics["trace.self_coverage"] = (tracer.self_seconds() / wall, "ratio")
        metrics["fail_ratio"] = (failed / attempted, "ratio")
        tracer.write(OUT / f"trace-{workload}-seed{seed}.json",
                     {"summary": summary, "operations": records})

    result = {
        "correct": not any(r["wrong_output"] for r in records),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
