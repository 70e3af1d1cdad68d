"""Command-line behaviour: exit codes, file outputs, manifests, and the
inline polynomial parser."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import sandharm.cli as cli
import sandharm.green as green
import sandharm.sandpile as sandpile
from sandharm.cli import main, parse_poly
from sandharm.green import GreenTable
from sandharm.harmonic import TorusPoint
from sandharm.laurent import LaurentPoly, laplacian_poly, standard_polys
from sandharm.sandpile import HeightConfig
from sandharm.window import BoxWindow


@pytest.fixture(scope="module")
def table_csv(tmp_path_factory, table_d2_g4):
    path = tmp_path_factory.getbasetemp() / "d2g4.csv"
    path.write_text(table_d2_g4.to_csv())
    return str(path)


def write_grid(tmp_path, name, heights, gamma=4):
    heights = np.asarray(heights)
    cfg = HeightConfig(BoxWindow.from_shape(heights.shape), gamma, heights)
    p = tmp_path / name
    p.write_text(cfg.to_text())
    return str(p)


# -- counting ------------------------------------------------------------------


def test_count_both_backends_print_agreement(capsys):
    assert main(["sandpile", "count", "--window", "2x2", "--gamma", "4", "--backend", "both"]) == 0
    out = capsys.readouterr().out
    assert "192 = 192" in out
    assert "pass" in out


def test_count_bruteforce_guard_is_input_error(capsys):
    assert main(["sandpile", "count", "--window", "6x6", "--gamma", "4", "--backend", "bruteforce"]) == 3


def test_count_bad_window_spec():
    assert main(["sandpile", "count", "--window", "2by2", "--gamma", "4"]) == 3


def test_count_internal_fault_is_not_input_error(monkeypatch):
    # a toppling matrix that is not positive definite is a fault in the program, not in the input
    real = sandpile.toppling_matrix
    monkeypatch.setattr(sandpile, "toppling_matrix", lambda window, gamma: -real(window, gamma))
    with pytest.raises(RuntimeError, match="not positive definite"):
        main(["sandpile", "count", "--window", "2x2", "--gamma", "4", "--backend", "determinant"])


# -- burn / stabilize ------------------------------------------------------------


def test_burn_exit_codes(tmp_path, capsys):
    good = write_grid(tmp_path, "good.grid", [[3, 3], [3, 3]])
    bad = write_grid(tmp_path, "bad.grid", [[0, 0], [0, 0]])
    assert main(["sandpile", "burn", "--grid", good]) == 0
    assert main(["sandpile", "burn", "--grid", bad]) == 1
    out = capsys.readouterr().out
    assert "recurrent" in out
    assert "forbidden" in out


def test_burn_report_lists_stuck_sites(tmp_path, capsys):
    bad = write_grid(tmp_path, "bad.grid", [[0, 0]])
    report = tmp_path / "burn.txt"
    assert main(["sandpile", "burn", "--grid", bad, "--report", str(report)]) == 1
    text = report.read_text()
    assert "recurrent=False" in text
    assert "stuck 0,0" in text


def test_stabilize_output_round_trips(tmp_path, capsys):
    grid = write_grid(tmp_path, "pile.grid", [[0, 9, 0], [9, 0, 9], [0, 9, 0]])
    out = tmp_path / "pile.stable.grid"
    assert main(["sandpile", "stabilize", "--grid", grid, "--out", str(out)]) == 0
    stable = HeightConfig.from_text(out.read_text())
    assert stable.is_stable
    printed = capsys.readouterr().out
    assert "mass balance defect 0" in printed
    odo = tmp_path / "pile.odometer.txt"
    assert odo.exists()


def test_malformed_grid_is_input_error(tmp_path):
    p = tmp_path / "broken.grid"
    p.write_text("2 4 2 2\n1 2 3\n")
    assert main(["sandpile", "stabilize", "--grid", str(p)]) == 3
    assert main(["sandpile", "burn", "--grid", str(tmp_path / "missing.grid")]) == 3


# -- entropy ---------------------------------------------------------------------


def test_entropy_dissipative_quick(tmp_path, capsys):
    out = tmp_path / "ent.csv"
    assert main([
        "sandpile", "entropy", "--d", "2", "--gamma", "12",
        "--sides", "4,8", "--out", str(out),
    ]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("side,")
    assert len(rows) == 3
    manifest = json.loads((tmp_path / "ent.csv.manifest.json").read_text())
    assert manifest["command"] == "sandpile entropy"
    assert "timestamp" not in json.dumps(manifest)


# -- green -----------------------------------------------------------------------


def test_green_writes_table_and_oracle_report(tmp_path, capsys):
    out = tmp_path / "w.csv"
    rc = main([
        "green", "--d", "2", "--gamma", "4", "--radius", "5",
        "--oracle-span", "2", "--out", str(out),
    ])
    assert rc == 0
    table = GreenTable.from_csv(out.read_text())
    assert table.radius == 5
    assert table.value((0, 0)) == 0.0
    report = (tmp_path / "w.oracle.txt").read_text()
    assert "pass" in report
    manifest = json.loads((tmp_path / "w.csv.manifest.json").read_text())
    assert manifest["versions"]["sandharm"]


def test_green_nodes_option_and_grid_budget(tmp_path, monkeypatch):
    out = tmp_path / "w.csv"
    rc = main([
        "green", "--d", "2", "--gamma", "4", "--radius", "2", "--nodes", "16",
        "--oracle-span", "-1", "--out", str(out),
    ])
    assert rc == 0
    assert GreenTable.from_csv(out.read_text()).method == "fft+polar_patch[N=32]"

    def no_grid(*args):
        raise AssertionError("grid built for an input that must be refused")

    monkeypatch.setattr(green, "_octant_grid", no_grid)
    rc = main(["green", "--d", "3", "--gamma", "7", "--nodes", "1024", "--out", str(tmp_path / "big.csv")])
    assert rc == 3
    assert not (tmp_path / "big.csv").exists()


# -- xi apply / check / demo ------------------------------------------------------


def test_xi_apply_zero_grid_maps_to_zero(tmp_path, table_csv):
    grid = write_grid(tmp_path, "zero.grid", np.zeros((6, 6), dtype=int))
    out = tmp_path / "zero.xi.csv"
    rc = main([
        "xi", "apply", "--grid", grid, "--g", "g3",
        "--table", table_csv, "--out", str(out),
    ])
    assert rc == 0
    x = TorusPoint.from_csv(out.read_text())
    assert np.all(x.values == 0.0)
    assert x.err == 0.0


def test_xi_apply_table_mismatch_is_input_error(tmp_path, table_csv):
    grid3 = write_grid(tmp_path, "cube.grid", np.zeros((2, 2, 2), dtype=int), gamma=6)
    assert main(["xi", "apply", "--grid", grid3, "--table", table_csv]) == 3


def test_xi_apply_rejects_non_summable_multiplier(tmp_path, table_csv):
    grid = write_grid(tmp_path, "zero.grid", np.zeros((4, 4), dtype=int))
    assert main(["xi", "apply", "--grid", grid, "--g", "1-u1", "--table", table_csv]) == 3


def test_xi_check_all_suites_pass(tmp_path, table_csv, capsys):
    out = tmp_path / "checks.csv"
    rc = main([
        "xi", "check", "--d", "2", "--table", table_csv,
        "--configs", "2", "--pairs", "3", "--out", str(out),
    ])
    printed = capsys.readouterr().out
    assert rc == 0, printed
    lines = [ln for ln in printed.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines and all(ln.startswith("PASS") for ln in lines)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "result", "detail"]
    assert len(rows) == len(lines) + 1
    names = {row[0].split("[")[0] for row in rows[1:]}
    assert names == set(cli._SUITES)
    assert all(row[1] == "pass" for row in rows[1:])


def test_xi_check_reports_failing_suite(monkeypatch, table_csv, capsys):
    monkeypatch.setattr(
        cli, "_suite_harmonicity",
        lambda specs, window, rng, n: [("harmonicity[g]", False, "forced failure")],
    )
    rc = main(["xi", "check", "--d", "2", "--suite", "harmonicity", "--table", table_csv])
    printed = capsys.readouterr().out
    assert rc == 2
    assert "FAIL harmonicity[g]: forced failure" in printed
    assert "suite failure in: harmonicity[g]" in printed


def test_xi_demo_addition(table_csv, capsys):
    rc = main(["xi", "demo-addition", "--d", "2", "--table", table_csv, "--site", "1,0"])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "mismatch" in printed


# -- ideal ------------------------------------------------------------------------


def test_ideal_member_with_json_round_trip(tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = main(["ideal", "--poly", "(1-u1)^3", "--d", "2", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "member = true" in printed
    data = json.loads(out.read_text())
    assert data["member"] is True
    back = LaurentPoly.from_text(data["polynomial"], 2)
    one = LaurentPoly.one(2)
    u1 = LaurentPoly(2, {(1, 0): 1})
    assert back == (one - u1) ** 3


def test_ideal_non_member_exits_one(capsys):
    rc = main(["ideal", "--poly", "1-u1", "--d", "2"])
    assert rc == 1
    printed = capsys.readouterr().out
    assert "member = false: condition B fails on axis 1" in printed


def test_ideal_profile_prints_partial_sums(table_csv, capsys):
    rc = main(["ideal", "--poly", "f", "--d", "2", "--profile", "--table", table_csv])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "l1 mass within radius" in printed


def test_ideal_parse_error_is_input_error():
    assert main(["ideal", "--poly", "(1-u1", "--d", "2"]) == 3
    assert main(["ideal", "--poly", "1 - u3", "--d", "2"]) == 3


# -- plumbing ----------------------------------------------------------------------


def test_unknown_command_is_input_error():
    assert main(["frobnicate"]) == 3
    assert main(["sandpile", "count", "--window", "2x2"]) == 3  # missing required --gamma


def test_repeated_runs_are_byte_identical(tmp_path, table_csv):
    grid = write_grid(tmp_path, "v.grid", [[1, 2, 0], [3, 1, 2], [0, 2, 1]])
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["xi", "apply", "--grid", grid, "--table", table_csv, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
        man = (tmp_path / (name + ".manifest.json")).read_bytes()
        outs.append(man.replace(name.encode(), b"OUT"))
    assert outs[0] == outs[2]
    assert outs[1] == outs[3]


def test_version_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "sandharm.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "sandharm" in proc.stdout


def test_cli_import_leaves_out_scipy_integrate():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sandharm.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# -- polynomial expressions ---------------------------------------------------------


def test_parse_poly_expansion():
    one = LaurentPoly.one(2)
    u1 = LaurentPoly(2, {(1, 0): 1})
    u2 = LaurentPoly(2, {(0, 1): 1})
    assert parse_poly("(1-u1)^3", 2) == (one - u1) ** 3
    assert parse_poly("2(1-u1)(1-u2)", 2) == 2 * (one - u1) * (one - u2)
    assert parse_poly("u1**2 - u2", 2) == u1 * u1 - u2
    assert parse_poly("u1^-1", 2) == LaurentPoly(2, {(-1, 0): 1})
    assert parse_poly("-u1 + 3", 2) == 3 * one - u1


def test_parse_poly_aliases():
    assert parse_poly("f", 2) == laplacian_poly(2)
    assert parse_poly("fg", 2, gamma=6) == laplacian_poly(2, 6)
    gens = standard_polys(2).generators
    for i, g in enumerate(gens, start=1):
        assert parse_poly("g%d" % i, 2) == g


def test_parse_poly_errors():
    with pytest.raises(ValueError):
        parse_poly("u3", 2)
    with pytest.raises(ValueError):
        parse_poly("1 +", 2)
    with pytest.raises(ValueError):
        parse_poly("(1-u1)^-2", 2)  # inverse only exists for single units
    with pytest.raises(ValueError):
        parse_poly("fg", 2)  # needs gamma
    with pytest.raises(ValueError):
        parse_poly("", 2)
