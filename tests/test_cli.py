import ast
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import polyheart.bounds as bounds
import polyheart.cli as cli
import polyheart.folding as folding
import polyheart.fourier as fourier
import polyheart.geometry as geometry
import polyheart.pde as pde_module
import polyheart.polar as polar
from polyheart import bodies
from polyheart.bodies import halfdisc
from polyheart.errors import NoConvergence
from polyheart.svgout import render_report_svg

from conftest import point_in, rotated
from test_pde import plant_sample


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def count_calls(monkeypatch, orig) -> list:
    """Count calls of orig under every name a polyheart module holds it by."""
    calls = []

    def counting(*a, **k):
        calls.append(a)
        return orig(*a, **k)

    for name, mod in list(sys.modules.items()):
        if name.startswith("polyheart"):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_heart_square(tmp_path, capsys):
    jpath = tmp_path / "r.json"
    spath = tmp_path / "r.svg"
    code, out, err = run(
        ["heart", "--body", "square", "--dirs", "360",
         "--json", str(jpath), "--svg", str(spath)],
        capsys,
    )
    assert code == 0 and err == ""
    assert "point" in out
    rep = json.loads(jpath.read_text())
    assert rep["schema"] == 3
    assert rep["heart"]["kind"] == "point"
    assert np.allclose(rep["heart"]["vertices"][0], [0.5, 0.5], atol=1e-9)
    # SVG re-rendered from the stored report is byte-identical
    assert spath.read_text() == render_report_svg(rep)


@pytest.mark.parametrize("command, body, heart_element", [
    *(pytest.param(command, "square", None, id=command)
      for command in ("bounds", "polar", "santalo", "fourier-check", "report", "heart")),
    pytest.param("heart", "halfdisc:1,0,64", '<line class="heart"', id="heart-segment"),
    pytest.param("heart", "triangle:0,0,1,0,0.3,0.8", '<path class="heart"', id="heart-polygon"),
])
def test_report_json_rerenders_svg(tmp_path, capsys, command, body, heart_element):
    # json.dumps fails on a numpy integer, bool or array left in a section;
    # the file is the report's one-line dump with one newline at the end.
    # The square's heart is a point; the half-disc's is a segment and this
    # triangle's a 6-gon, each drawn as its own element.
    jpath, spath = tmp_path / "r.json", tmp_path / "r.svg"
    grid = ["--h", "0.02"] if command == "report" else []
    code, _, err = run([command, "--body", body, *grid,
                        "--json", str(jpath), "--svg", str(spath)], capsys)
    assert code == 0, err
    text = jpath.read_text()
    rep = json.loads(text)
    assert text == json.dumps(rep, allow_nan=False) + "\n"
    assert text.count("\n") == 1
    assert rep["command"] == command
    svg = spath.read_text()
    assert svg == render_report_svg(rep)
    if heart_element is not None:
        assert heart_element in svg


def test_no_scipy_outside_pde():
    # a fresh interpreter runs every command but pde-verify and report
    # without loading scipy; pde itself stays imported
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import polyheart.cli as cli\n"
        "for argv in (['heart', '--dirs', '90'], ['bounds'], ['polar'], ['santalo'], ['fourier-check']):\n"
        "    assert cli.main([*argv, '--body', 'square']) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')), 'polyheart.pde' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-I", "-c", script, src], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[] True"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs per-thread CPU times in /proc")
def test_commands_stay_on_calling_thread():
    # A matrix product large enough for OpenBLAS to split wakes its worker
    # threads, which then spin for a while and compete with the commands
    # that follow.  After the spin from the imports has ended, report and
    # a large heart must leave every thread but the main one idle.
    script = (
        "import os, sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import polyheart.cli as cli\n"
        "import scipy.sparse.linalg\n"
        "time.sleep(0.5)\n"
        "def helpers():\n"
        "    total = 0.0\n"
        "    for tid in os.listdir('/proc/self/task'):\n"
        "        if int(tid) == os.getpid():\n"
        "            continue\n"
        "        try:\n"
        "            with open(f'/proc/self/task/{tid}/schedstat') as fh:\n"
        "                total += int(fh.read().split()[0]) * 1e-9\n"
        "        except FileNotFoundError:\n"
        "            with open(f'/proc/self/task/{tid}/stat') as fh:\n"
        "                fields = fh.read().rsplit(')', 1)[1].split()\n"
        "            total += (int(fields[11]) + int(fields[12])) / os.sysconf('SC_CLK_TCK')\n"
        "    return total\n"
        "before = helpers()\n"
        "for argv in (['report', '--body', 'halfdisc:1,0,64'], ['heart', '--body', 'regular_ngon:512']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(helpers() - before)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-I", "-c", script, src], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout.splitlines()[-1]) <= 0.010


def test_scipy_named_only_in_pde_functions():
    for path in Path(cli.__file__).resolve().parent.glob("*.py"):
        text = path.read_text()
        lines = [i for i, line in enumerate(text.splitlines(), 1) if "scipy" in line]
        bodies = [range(f.body[0].lineno, f.end_lineno + 1) for f in ast.walk(ast.parse(text))
                  if isinstance(f, ast.FunctionDef)] if path.name == "pde.py" else []
        assert all(any(i in body for body in bodies) for i in lines), (path.name, lines)


def test_heart_direction_monotonicity_cli(tmp_path, capsys):
    hearts = {}
    for dirs in (96, 192):
        p = tmp_path / f"h{dirs}.json"
        code, _, _ = run(
            ["heart", "--body", "triangle:0,0,2,0.3,0.4,1.1",
             "--dirs", str(dirs), "--json", str(p)],
            capsys,
        )
        assert code == 0
        hearts[dirs] = json.loads(p.read_text())["heart"]
    coarse = np.array(hearts[96]["vertices"])
    fine = np.array(hearts[192]["vertices"])
    # every vertex of the finer heart lies inside the coarser hull
    hull = geometry.ConvexPolygon(coarse)
    for v in fine:
        assert point_in(hull, v, eps=1e-7 * hull.diameter)


def test_body_file_input(tmp_path, capsys):
    spec = {"vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]}
    p = tmp_path / "body.json"
    p.write_text(json.dumps(spec))
    code, out, _ = run(["bounds", "--body", str(p)], capsys)
    assert code == 0
    assert "lambda1 upper" in out


def test_body_file_spec_names_the_file(tmp_path, capsys):
    # the report names a body file instead of copying it: its vertices
    # are in body.vertices already
    vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    p = tmp_path / "body.json"
    p.write_text(json.dumps({"vertices": vertices}))
    jpath = tmp_path / "r.json"
    code, _, err = run(["bounds", "--body", str(p), "--json", str(jpath)], capsys)
    assert code == 0, err
    body = json.loads(jpath.read_text())["body"]
    assert body["spec"] == {"file": str(p)}
    assert body["vertices"] == vertices


def test_non_finite_report_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # NaN and infinity are not JSON (RFC 8259): a report holding one exits
    # 2 with one error line, and neither output file is written
    bounds_section = cli._bounds_section

    def planted(poly):
        return {**bounds_section(poly), "lam1_used": float("nan")}

    monkeypatch.setattr(cli, "_bounds_section", planted)
    jpath, spath = tmp_path / "r.json", tmp_path / "r.svg"
    code, out, err = run(["bounds", "--body", "square", "--json", str(jpath), "--svg", str(spath)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "ValueError"
    assert err.count("\n") == 1
    assert not jpath.exists() and not spath.exists()


def test_bounds_minimizes_support_integral_once(monkeypatch, capsys):
    orig = bounds.minimal_reciprocal_support_integral
    calls = []

    def counting(*a, **k):
        calls.append(a)
        return orig(*a, **k)

    monkeypatch.setattr(bounds, "minimal_reciprocal_support_integral", counting)
    monkeypatch.setattr(cli, "minimal_reciprocal_support_integral", counting)
    code, out, _ = run(["bounds", "--body", "triangle:0,0,2,0.3,0.4,1.1"], capsys)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["bounds", "--body", "triangle:0,0,2,0.3,0.4,1.1"],
    ["pde-verify", "--body", "square", "--h", "0.02"],
])
def test_incircle_computed_once(monkeypatch, capsys, argv):
    calls = count_calls(monkeypatch, geometry.chebyshev_center)
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert len(calls) == 1


def test_polar_builds_polar_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, polar.polar_polygon)
    code, _, err = run(["polar", "--body", "halfdisc:1,0,64"], capsys)
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["santalo", "report"])
def test_polar_areas_build_no_polar(monkeypatch, capsys, command):
    # polar areas are the closed form in the edge gaps, not a polygon's shoelace
    calls = count_calls(monkeypatch, polar.polar_polygon)
    code, _, err = run([command, "--body", "halfdisc:1,0,32"], capsys)
    assert code == 0, err
    assert len(calls) == 0


def test_generator_file_input(tmp_path, capsys):
    spec = {"generator": {"name": "regular_ngon", "args": [6, 1.0]}}
    p = tmp_path / "gen.json"
    p.write_text(json.dumps(spec))
    code, out, _ = run(["santalo", "--body", str(p)], capsys)
    assert code == 0


@pytest.mark.parametrize("body", [
    "nosuch",
    "regular_ngon:inf",
    "halfdisc:1,0,inf",
    "ellipse_approx:2,1,inf",
    "regular_ngon:2",
    "ellipse_approx:2,1,4",
    "halfdisc:1,2,64",
    "halfdisc:1,0,4",
    "triangle:0,0,1,0,0,1,5",
    "missing/body.json",
    "@missing/body",
])
def test_invalid_body_exits_1(capsys, body):
    code, _, err = run(["heart", "--body", body], capsys)
    assert code == 1
    msg = json.loads(err)
    assert msg["error"]["type"] == "InvalidPolygon"


@pytest.mark.parametrize("generator", [
    "square",
    {"name": "rectangle", "args": 5},
    {"name": ["square"]},
    {"name": "regular_ngon", "args": [1e400]},
    {"name": "rectangle", "args": [1]},
])
def test_malformed_generator_exits_1(tmp_path, capsys, generator):
    p = tmp_path / "gen.json"
    p.write_text(json.dumps({"generator": generator}))
    code, _, err = run(["heart", "--body", str(p)], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "InvalidPolygon"


@pytest.mark.parametrize("text", ["[1, 2]", "{}", '{"vertices": [[0, 0], [1'])
def test_malformed_body_file_exits_1(tmp_path, capsys, text):
    p = tmp_path / "body.json"
    p.write_text(text)
    code, _, err = run(["heart", "--body", str(p)], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "InvalidPolygon"


def test_unwritable_output_exits_1(tmp_path, capsys):
    for option in ("--json", "--svg"):
        code, out, err = run(["bounds", "--body", "square", option, str(tmp_path / "no" / "x")], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"


def test_nonconvex_vertices_exit_1(tmp_path, capsys):
    spec = {"vertices": [[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec))
    code, _, err = run(["heart", "--body", str(p)], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "InvalidPolygon"


def test_short_edge_right_turn_exits_1(tmp_path, capsys):
    # a right angle turned right at an edge 1.5e-9 long: the edge cross
    # product is only 7.5e-10, but the turn is no rounding
    spec = {"vertices": [[0, 0], [0.5, 0], [0.5, -1.5e-9], [1, -1.5e-9], [1, 1], [0, 1]]}
    p = tmp_path / "short.json"
    p.write_text(json.dumps(spec))
    code, out, err = run(["heart", "--body", str(p)], capsys)
    assert code == 1 and out == ""
    msg = json.loads(err)["error"]
    assert msg["type"] == "InvalidPolygon" and "turns right by 1.57 rad at vertex 1" in msg["message"]


def test_needle_tip_exits_1(capsys):
    # interior angles of 2e-14 rad: the folding kernel divided by zero at
    # the directions with no edge facing them; any warning raises here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["heart", "--body", "triangle:0,0,1,0,0.5,1e-14"], capsys)
    assert code == 1 and out == ""
    msg = json.loads(err)["error"]
    assert msg["type"] == "InvalidPolygon" and "needle tip at vertex 1" in msg["message"]


def test_star_ring_exits_1(tmp_path, capsys):
    # the pentagram order of a regular pentagon turns left at every vertex
    ang = 2.0 * np.pi * np.array([0, 2, 4, 1, 3]) / 5
    p = tmp_path / "star.json"
    p.write_text(json.dumps({"vertices": np.column_stack([np.cos(ang), np.sin(ang)]).tolist()}))
    code, out, err = run(["heart", "--body", str(p)], capsys)
    assert code == 1 and out == ""
    msg = json.loads(err)["error"]
    assert msg["type"] == "InvalidPolygon" and "winds more than once" in msg["message"]


def test_grid_too_coarse_exits_1(capsys):
    code, _, err = run(["pde-verify", "--body", "square", "--h", "0.4"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "GridTooCoarse"


@pytest.mark.parametrize("command, option, value", [
    ("pde-verify", "--h", "0"),
    ("pde-verify", "--h", "-0.01"),
    ("pde-verify", "--h", "nan"),
])
def test_bad_numeric_option_exits_1(capsys, command, option, value):
    code, out, err = run([command, "--body", "square", option, value], capsys)
    assert code == 1 and out == ""
    msg = json.loads(err)["error"]
    assert msg["type"] == "ValueError" and msg["message"].endswith(f"got {float(value)!r}")


def test_inconsistency_exits_2(monkeypatch, capsys):
    def boom(*a, **k):
        raise NoConvergence("stuck")

    monkeypatch.setattr(cli, "full_verify", boom)
    code, _, err = run(["pde-verify", "--body", "square", "--h", "0.02"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "NoConvergence"


def test_pde_verify_square(tmp_path, capsys):
    jpath = tmp_path / "r.json"
    code, out, err = run(["pde-verify", "--body", "square", "--h", "0.02", "--json", str(jpath)], capsys)
    assert code == 0, err
    assert "membership: ok" in out
    pde = json.loads(jpath.read_text())["pde"]
    assert "modes" not in pde
    assert 0 < pde["chebyshev_degree"] < pde["switch_step"]
    # early samples that have not decayed below _RESTART_DECAY state errors
    # below the march's own rounding; every sample states a bound below 1e-10
    bounds = [s["bound"] for s in pde["track"]]
    dt = 0.02 ** 2 / 5.0
    steps = [round(s["time"] / dt) for s in pde["track"]]
    early = [n <= pde["switch_step"] for n in steps]
    rounding = [4.0 * n * np.finfo(float).eps * s["peak"] for n, s in zip(steps, pde["track"])]
    assert all(b <= r for b, r, m, s in zip(bounds, rounding, early, pde["track"])
               if m and s["peak"] >= pde_module._RESTART_DECAY)
    assert 0 < sum(not m for m in early) < len(early)
    assert all(0.0 < b <= 1e-10 for b in bounds)


def test_pde_verify_thin_triangle(tmp_path, capsys):
    # the eigen residual here is 1.4e-8 at h = r/50, a backward error of
    # 4e-16 against |A|_inf = 8/h^2; a bound fixed at 1e-8 rejected this
    # converged solve
    jpath = tmp_path / "r.json"
    code, _, err = run(["pde-verify", "--body", "triangle:0,0,1,0,0.5,0.05", "--json", str(jpath)], capsys)
    assert code == 0, err
    pde = json.loads(jpath.read_text())["pde"]
    assert pde["membership"]["ok"] and pde["short_time"]["ok"]
    assert 1e-8 < pde["residual"] <= 1e-15 * 8.0 / pde["h"] ** 2


REPORT_KEYS = {
    "": ["body", "bounds", "command", "fourier", "heart", "pde", "polar", "schema", "tool"],
    "tool": ["name", "version"],
    "body": ["area", "centroid", "diameter", "incenter", "inradius", "perimeter", "spec", "vertices"],
    "body.spec": ["generator"],
    "body.spec.generator": ["args", "name"],
    "heart": ["ball_center", "ball_radius", "kind", "n_dirs", "offset_max", "offset_min", "vertices"],
    "bounds": ["distance_convex", "distance_general", "distance_star", "eigenvalue_upper", "lam1_used",
               "reciprocal_support", "stats"],
    "bounds.stats": ["area", "diameter", "inradius", "perimeter"],
    "bounds.eigenvalue_upper": ["best", "monotone", "perimeter_over_inradius", "support_integral"],
    "bounds.distance_general": ["coarse", "precise"],
    "bounds.distance_convex": ["coarse", "precise"],
    "bounds.reciprocal_support": ["min_value", "minimizer"],
    "polar": ["eigen_check", "lower_check", "polar_area_at_centroid", "polar_area_at_santalo", "santalo"],
    "polar.lower_check": ["lhs", "ok", "rhs"],
    "polar.eigen_check": ["lhs", "ok", "rhs"],
    "pde": ["chebyshev_degree", "eigenvalue", "h", "hot_spot_limit", "membership", "n_nodes", "ok", "residual",
            "short_time", "switch_step", "track"],
    "pde.track[]": ["bound", "location", "peak", "time"],
    "pde.membership": ["n_checked", "ok", "slack", "worst_gap"],
    "pde.short_time": ["least_margin", "n_positive", "ok", "slack"],
    "fourier": ["area_check", "cutoff", "max_abs_err", "midpoint_checks"],
    "fourier.area_check": ["abs_err", "area", "transform"],
    "fourier.midpoint_checks[]": ["abs_err", "direct", "fourier", "omega", "y"],
}


def key_sets(obj, path="") -> dict:
    """Sorted keys of obj and of every object in it, by dotted path; the
    objects in a list share the path with [] appended and must share keys."""
    if isinstance(obj, list):
        shapes = [key_sets(item, path + "[]") for item in obj]
        assert all(shape == shapes[0] for shape in shapes), path
        return shapes[0] if shapes else {}
    if not isinstance(obj, dict):
        return {}
    found = {path: sorted(obj)}
    for key, value in obj.items():
        found.update(key_sets(value, f"{path}.{key}" if path else key))
    return found


def test_report_keys_pinned(tmp_path, capsys):
    # the report's format, section by section, with its schema number: a
    # change to either edits this pin in plain sight
    jpath = tmp_path / "r.json"
    code, _, err = run(["report", "--body", "square", "--h", "0.02", "--json", str(jpath)], capsys)
    assert code == 0, err
    rep = json.loads(jpath.read_text())
    assert rep["schema"] == 3
    assert key_sets(rep) == REPORT_KEYS


CLOSED_FORM_EIGEN_BODIES = {
    # each body with its closed-form first Dirichlet eigenvalue
    "rectangle_1x0.7": (rotated([[0, 0], [1, 0], [1, 0.7], [0, 0.7]], 0.37), np.pi**2 * (1.0 + 1.0 / 0.49)),
    "equilateral": (rotated([[0, 0], [1, 0], [0.5, np.sqrt(3.0) / 2.0]], 0.21), 16.0 * np.pi**2 / 3.0),
    "square": (geometry.ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]]), 2.0 * np.pi**2),
}


@pytest.mark.parametrize("per_inradius", [25, 50])
@pytest.mark.parametrize("name", CLOSED_FORM_EIGEN_BODIES)
def test_report_lam1_used_is_an_upper_bound(tmp_path, capsys, name, per_inradius):
    # every distance bound falls as lam1 grows, so the one it is fed must
    # not lie below lam1; the staircase grid's eigenvalue lies 0.01-2.9%
    # below it on these bodies.  The verdict is not at issue here: on the
    # turned rectangle the early hot spot slides along a flat ridge, more
    # than the 2h membership slack, and report exits 2 after writing its JSON
    poly, lam1 = CLOSED_FORM_EIGEN_BODIES[name]
    body = tmp_path / "body.json"
    body.write_text(json.dumps({"vertices": poly.vertices.tolist()}))
    h = poly.incircle.radius / per_inradius
    jpath = tmp_path / "r.json"
    code, _, err = run(["report", "--body", str(body), "--h", repr(h), "--json", str(jpath)], capsys)
    assert code == 0 or json.loads(err)["error"]["type"] == "VerificationFailed", err
    rep = json.loads(jpath.read_text())
    assert rep["pde"]["eigenvalue"] < lam1
    assert rep["bounds"]["lam1_used"] >= lam1


def test_bounds_and_report_write_one_bounds_section(tmp_path, capsys):
    sections = []
    for argv in (["bounds"], ["report", "--h", "0.0625"]):
        jpath = tmp_path / "r.json"
        code, _, err = run([*argv, "--body", "square", "--json", str(jpath)], capsys)
        assert code == 0, err
        sections.append(json.loads(jpath.read_text())["bounds"])
    assert sections[0] == sections[1]


def test_report_fails_on_a_planted_shallow_sample(tmp_path, capsys, monkeypatch, square):
    # the first hot spot moved 2.1 h shallower than the short-time bound:
    # report writes its JSON, prints the failed verdict and exits 2
    heat_solve = pde_module.heat_solve

    def planted(grid, times, eigen):
        samples = heat_solve(grid, times, eigen)
        return (plant_sample(square, samples[0], 2.1 * grid.spacing),) + samples[1:]

    monkeypatch.setattr(pde_module, "heat_solve", planted)
    jpath = tmp_path / "r.json"
    code, out, err = run(["report", "--body", "square", "--h", "0.02", "--json", str(jpath)], capsys)
    assert code == 2 and "verification: FAILED" in out
    assert json.loads(err)["error"]["type"] == "VerificationFailed"
    short_time = json.loads(jpath.read_text())["pde"]["short_time"]
    assert not short_time["ok"]
    assert short_time["least_margin"] == pytest.approx(-2.1 * 0.02, rel=1e-9)


def test_halfdisc_far_from_the_origin(tmp_path, capsys):
    # shifted by (1e5, 1e5), the shoelace sums in absolute coordinates put
    # the centroid 4.4e-3 outside the heart and the area off by 1e-5
    results = []
    for shift in (0.0, 1e5):
        path = tmp_path / f"body{shift:g}.json"
        path.write_text(json.dumps({"vertices": (halfdisc(1.0, 0.0, 64).vertices + shift).tolist()}))
        assert run(["heart", "--body", str(path)], capsys)[0] == 0
        jpath = tmp_path / f"bounds{shift:g}.json"
        assert run(["bounds", "--body", str(path), "--json", str(jpath)], capsys)[0] == 0
        results.append(json.loads(jpath.read_text())["bounds"])
    near, far = results
    assert far["stats"]["area"] == pytest.approx(near["stats"]["area"], rel=1e-11)
    assert far["distance_convex"]["precise"] == pytest.approx(near["distance_convex"]["precise"], rel=1e-11)


def test_fourier_check(tmp_path, capsys):
    # the 1e-40 square once sized its node budget with an absolute length
    # and asked for more nodes than an array can hold
    for body in ("square", "halfdisc:1,0,64", "regular_ngon:7", "rectangle:1e-40,1e-40"):
        jpath = tmp_path / "r.json"
        code, out, _ = run(["fourier-check", "--body", body, "--json", str(jpath)], capsys)
        assert code == 0
        assert "transform at zero" in out
        check = json.loads(jpath.read_text())["fourier"]["area_check"]
        assert check["abs_err"] <= 1e-12 * max(1.0, check["area"])


@pytest.mark.parametrize("body, want", [
    ("rectangle:100,1", 0),
    ("rectangle:30,1", 0),
    ("ellipse_approx:50,1,256", 0),
    ("triangle:0,0,1,0,0.5,0.03", 0),
    ("triangle:0,0,1,0,0.3,0.01", 2),
])
def test_fourier_check_thin_bodies(tmp_path, capsys, body, want):
    # on these thin bodies every chord is 3 resolution lengths diameter /
    # cutoff or more, and each midpoint inverts to 2e-5 of the diameter
    # (not a general bound: the analyses 8-gon reads 5.2e-5, see
    # test_fourier_check_midpoints_on_analyses_bodies); the 0.01-tall
    # triangle's 0.005 chord, 2 of them, is rejected
    jpath = tmp_path / "r.json"
    code, _, err = run(["fourier-check", "--body", body, "--json", str(jpath)], capsys)
    assert code == want
    if want:
        assert json.loads(err)["error"]["type"] == "DenominatorTooSmall"
    else:
        max_err = json.loads(jpath.read_text())["fourier"]["max_abs_err"]
        assert max_err <= 2e-5 * cli.parse_body_arg(body)[0].diameter


@pytest.mark.parametrize("n", [5, 6, 8, 10, 12, 48])
def test_fourier_check_midpoints_on_analyses_bodies(tmp_path, capsys, n):
    # the benchmark's own fourier-check output check reads only the area
    # check.  These are its `analyses` bodies of seed 1, pass 0 (its
    # spacings_polygon draws the same vertices from the same stream): each
    # reconstructed midpoint holds the direct one to 1e-4 diam (the worst
    # of the 54 reads 5.2e-5 diam, the 8-gon's middle point along the y
    # axis), each direct one is the scalar chord_midpoint, and each
    # reconstruction is a one-direction midpoint_via_transform of the same
    # points
    j = [5, 6, 8, 10, 12, 48].index(n)
    poly = geometry.ConvexPolygon(bodies.random_convex_polygon(np.random.default_rng([3, 1, 0, j]), n).vertices)
    body, jpath = tmp_path / "body.json", tmp_path / "r.json"
    body.write_text(json.dumps({"vertices": poly.vertices.tolist()}))
    code, _, err = run(["fourier-check", "--body", str(body), "--seed", "1", "--json", str(jpath)], capsys)
    assert code == 0, err
    checks = json.loads(jpath.read_text())["fourier"]["midpoint_checks"]
    assert len(checks) == 9
    for i in range(0, 9, 3):
        row = checks[i:i + 3]
        w = np.array(row[0]["omega"])
        assert all(c["omega"] == row[0]["omega"] for c in row)
        ys = np.array([c["y"] for c in row])
        alone = fourier.midpoint_via_transform(poly, w, ys, cli._FOURIER_CUTOFF)
        for c, want in zip(row, alone):
            assert c["abs_err"] <= 1e-4 * poly.diameter
            assert c["direct"] == folding.chord_midpoint(poly, w, c["y"])
            assert abs(c["fourier"] - want) <= 1e-15 * poly.diameter


@pytest.mark.parametrize("body", ["regular_ngon:7", "square", "rectangle:1e-3,1e-3", "rectangle:1e3,1e3"])
def test_fourier_check_area_reads_the_edge_data(monkeypatch, capsys, body):
    # the transform at zero is the limit of its edge sum, so edge lengths
    # 1e-6 too long, with the normals taken before, fail the area check at
    # any scale: its tolerance is relative to the area, below unit area too
    parse = cli.parse_body_arg

    def tampered(arg):
        poly, spec = parse(arg)
        poly.edge_normals
        poly.edge_lengths = poly.edge_lengths * (1.0 + 1e-6)
        return poly, spec

    monkeypatch.setattr(cli, "parse_body_arg", tampered)
    code, _, err = run(["fourier-check", "--body", body], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "VerificationFailed"


def test_fourier_check_one_prelude_one_line_sum(monkeypatch, capsys):
    # one direct evaluation for the area check, then one closed-form line
    # evaluation for all three directions and their three points each
    direct = count_calls(monkeypatch, fourier._prelude)
    lines = count_calls(monkeypatch, fourier._line_sums)
    assert run(["fourier-check", "--body", "regular_ngon:7"], capsys)[0] == 0
    assert (len(direct), [(call[1].shape, call[2].shape) for call in lines]) == (1, [((3, 2), (3, 3))])


def test_polar_subcommand(capsys):
    code, out, _ = run(["polar", "--body", "rectangle:2,1"], capsys)
    assert code == 0
    assert "polar area at centroid: 4" in out


def test_parser_built_once(capsys):
    cli.build_parser.cache_clear()
    assert run(["bounds", "--body", "square"], capsys)[0] == 0
    assert run(["polar", "--body", "regular_ngon:5"], capsys)[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# The options each subcommand reads besides --body, --json, --svg and
# --seed, which all of them take, and a value for each option and for
# --fourier-cutoff, which none of them takes: the cutoff is fixed.
READS = {
    "heart": ("--dirs",),
    "bounds": (),
    "polar": (),
    "santalo": (),
    "pde-verify": ("--dirs", "--h"),
    "fourier-check": (),
    "report": ("--dirs", "--h"),
}
VALUES = {"--dirs": ("90", 90), "--h": ("0.05", 0.05), "--fourier-cutoff": ("200", 200.0)}


def usage_error(code, out, err) -> str:
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "UsageError"
    return error["message"]


@pytest.mark.parametrize("command", sorted(READS))
def test_options_read_parse(command):
    argv = [command, "--body", "square", "--json", "r.json", "--svg", "r.svg", "--seed", "3"]
    for option in READS[command]:
        argv += [option, VALUES[option][0]]
    args = cli.build_parser().parse_args(argv)
    assert (args.command, args.body, args.json, args.svg, args.seed) == (command, "square", "r.json", "r.svg", 3)
    for option in READS[command]:
        assert getattr(args, option[2:].replace("-", "_")) == VALUES[option][1]


@pytest.mark.parametrize("command, option", [(c, o) for c in sorted(READS)
                                              for o in sorted(set(VALUES) - set(READS[c]))])
def test_options_not_read_exit_1(command, option, capsys):
    # --h must not be taken as an abbreviation of --help either
    message = usage_error(*run([command, "--body", "square", option, VALUES[option][0]], capsys))
    assert message.startswith(f"polyheart {command}: unrecognized arguments: {option} {VALUES[option][0]}")


@pytest.mark.parametrize("argv, says", [
    (["bounds", "--body", "square", "--nope"], "unrecognized arguments: --nope"),
    (["heart", "--dirs", "90"], "required: --body"),
    (["heart", "--body", "square", "--dirs", "ninety"], "invalid int value: 'ninety'"),
    (["pde-verify", "--body", "square", "--h"], "expected one argument"),
    (["nosuch", "--body", "square"], "invalid choice: 'nosuch'"),
    ([], "required: command"),
])
def test_usage_errors_exit_1(capsys, argv, says):
    assert says in usage_error(*run(argv, capsys))


@pytest.mark.parametrize("argv", [["--help"], ["heart", "--help"], ["report", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 0
    assert "usage: polyheart" in capsys.readouterr().out
