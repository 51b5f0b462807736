"""Tests of the benchmark itself: inputs, checks, tracing and output format.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layertrace
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bodies(ops):
    return [Path(op.body).read_text() if op.body.endswith(".json") else op.body for op in ops]


@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_same_seed_same_bodies(workload, tmp_path):
    make = workloads.PASSES[workload]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = make(7, 1, tmp_path / "a")
    again = make(7, 1, tmp_path / "b")
    assert [op.label for op in first] == [op.label for op in again]
    assert _bodies(first) == _bodies(again)
    other = make(8, 1, tmp_path / "b")
    assert _bodies(other) != _bodies(first)


def test_seeded_polygons_are_valid_convex_bodies():
    from polyheart.geometry import ConvexPolygon

    rng = np.random.default_rng(0)
    for n in (5, 12, 64, 384):
        poly = ConvexPolygon(workloads.spacings_polygon(rng, n))
        assert len(poly) == n


def test_lattice_symmetries_keep_area_and_orientation():
    from polyheart.geometry import ConvexPolygon

    base = ConvexPolygon(workloads.spacings_polygon(np.random.default_rng(3), 9))
    images = [ConvexPolygon(workloads.lattice_symmetry(base.vertices, k)) for k in range(8)]
    assert all(np.isclose(p.area, base.area, rtol=1e-14) for p in images)
    assert len({tuple(np.round(p.centroid, 12)) for p in images}) == 8


def _main(argv, monkeypatch, tmp_path, sizes=(5, 6)):
    monkeypatch.setattr(workloads, "ANALYSES_SIZES", sizes)
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1])


def test_traced_and_untraced_runs_agree(monkeypatch, tmp_path):
    import polyheart.cli as cli

    original = cli.main
    code, result = _main(["--workload", "analyses", "--seed", "3", "--seconds", "0.01",
                          "--trace", "1"], monkeypatch, tmp_path)
    assert code == 0
    assert cli.main is original  # wrappers removed on exit
    assert result["correct"] is True
    assert result["attempted"] == 8 and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["cli.main.calls"]["value"] == 8
    assert metrics["polar.santalo_point.calls"]["value"] == 2
    assert 0.9 < metrics["trace.self_coverage"]["value"] <= 1.0 + 1e-9
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])


def test_untraced_run_prints_end_to_end_metrics(monkeypatch, tmp_path):
    code, result = _main(["--workload", "analyses", "--seed", "4", "--seconds", "0.01"],
                         monkeypatch, tmp_path)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def test_tracer_counts_and_self_time():
    import polyheart.cli as cli
    from polyheart.bodies import rectangle, regular_ngon
    from polyheart.folding import heart_directions

    n_dirs = len(heart_directions(regular_ngon(7), 60))
    tracer = layertrace.Tracer()
    with tracer:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["heart", "--body", "regular_ngon:7", "--dirs", "60"]) == 0
    with tracer, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["pde-verify", "--body", "rectangle:2,1", "--h", "0.05", "--dirs", "60"])
    m = tracer.metrics()
    assert m["pde.heat_solve.calls"][0] == 1
    steps = m["pde.heat_steps"][0]
    assert steps > 0 and m["pde.grid_nodes"][0] == 19 * 39
    assert m["pde.heat_node_steps_per_s"][0] == pytest.approx(
        steps * 19 * 39 / m["pde.heat_solve.s"][0])
    assert m["pde.heat_bytes_computed"][0] == steps * 22 * 8 * 43 * 23
    assert m["folding.heart_region.calls"][0] == 2
    assert m["folding.directions"][0] == n_dirs + len(heart_directions(rectangle(2, 1), 60))
    assert m["cli.main.self_s"][0] <= m["cli.main.s"][0]
    assert abs(tracer.self_seconds() - m["cli.main.s"][0]) < 1e-6
    names = {s[0] for s in tracer.spans}
    assert "geometry.halfplane_intersection" in names


def _genuine(workload, op, tmp_path):
    import polyheart.cli as cli

    rec = run.execute(cli, op, 0, tmp_path, "g", workload)
    assert rec["ok"], rec
    return json.loads((tmp_path / "out-g.json").read_text())


def test_corrupted_outputs_are_caught(tmp_path):
    body = workloads.write_body(tmp_path / "b.json",
                                workloads.spacings_polygon(np.random.default_rng(1), 9))

    heart_op = workloads.Op("heart", body, "h")
    rep = _genuine("heart", heart_op, tmp_path)
    assert workloads.check_heart(heart_op, rep, 0) is None
    bad = json.loads(json.dumps(rep))
    centroid = np.mean(bad["body"]["vertices"], axis=0)
    bad["heart"]["vertices"] = [list(centroid + 1.02 * (np.array(v) - centroid))
                                for v in bad["body"]["vertices"]]
    bad["heart"]["kind"] = "polygon"
    assert workloads.check_heart(heart_op, bad, 0) == "check:heart_outside_body"
    far = json.loads(json.dumps(rep))
    far["heart"]["kind"] = "point"
    far["heart"]["vertices"] = [far["body"]["vertices"][0]]
    assert workloads.check_heart(heart_op, far, 0) == "check:centroid_outside_heart"

    for cmd, path, value, label in (
        ("santalo", ("polar", "polar_area_at_santalo"), 1e9, "check:santalo_not_better_than_centroid"),
        ("polar", ("polar", "lower_check", "ok"), False, "check:lower_check_not_ok"),
        ("bounds", ("bounds", "distance_star"), 1e9, "check:distance_bound_out_of_range"),
        ("fourier-check", ("fourier", "area_check", "abs_err"), 1e-3, "check:fourier_area_error"),
    ):
        op = workloads.Op(cmd, body, cmd)
        rep = _genuine("analyses", op, tmp_path)
        assert workloads.check_analysis(op, rep) is None
        node = rep
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert workloads.check_analysis(op, rep) == label

    report_op = workloads.Op("report", body, "r", {"eigenvalue": workloads.HALFDISC_EIGENVALUE})
    fake = {"command": "report", "pde": {"membership": {"ok": True}, "eigenvalue": 13.0}}
    assert workloads.check_report(report_op, fake, "verification: ok") == "check:eigenvalue_off"
    fake["pde"]["eigenvalue"] = 14.6
    assert workloads.check_report(report_op, fake, "verification: ok") is None
    assert workloads.check_report(report_op, fake, "verification: FAILED") == "check:verification_not_ok"
    assert workloads.check_output("report", report_op, {"command": "report"}, "verification: ok", 0) == \
        "check:malformed_report"


def test_wrong_output_from_a_successful_exit_is_a_failure(tmp_path):
    class LyingCli:
        @staticmethod
        def main(argv):
            out = argv[argv.index("--json") + 1]
            Path(out).write_text(json.dumps({"command": "fourier-check", "body": {"area": 1.0},
                                             "fourier": {"area_check": {"abs_err": 0.5}}}))
            return 0

    op = workloads.Op("fourier-check", "square", "lie")
    rec = run.execute(LyingCli, op, 0, tmp_path, "x", "analyses")
    assert rec == {**rec, "ok": False, "wrong_output": True, "error": "check:fourier_area_error"}


def test_nonzero_exit_records_error_type(tmp_path):
    import polyheart.cli as cli

    op = workloads.Op("heart", "nosuchbody:1", "bad")
    rec = run.execute(cli, op, 0, tmp_path, "x", "heart")
    assert rec["ok"] is False and rec["wrong_output"] is False
    assert rec["error"] == "InvalidPolygon"


def test_metric_names_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.PASSES)
    emitted = set(layertrace.Tracer().metrics())
    assert all(NAME.match(n) for n in emitted)


def test_environment_record():
    env = run.environment()
    for key in ("python", "numpy", "scipy", "nproc", "blas_threads"):
        assert key in env
    assert env["nproc"] >= 1
    assert isinstance(env["blas_threads"], int) and env["blas_threads"] >= 1


def test_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "layertrace.py"):
        (bench / name).write_text((ROOT / "perfbench" / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heart", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
