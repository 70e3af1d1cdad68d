"""Command-line behaviour: exit codes, file outputs, manifests, and the
inline polynomial parser."""

import csv
import errno
import importlib
import importlib.util
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import sandharm.checks as checks
import sandharm.cli as cli
import sandharm.green as green
import sandharm.laurent as laurent
import sandharm.sandpile as sandpile
import sandharm.window as window
from sandharm.cli import main
from sandharm.green import GreenTable
from sandharm.harmonic import TorusPoint
from sandharm.laurent import LaurentPoly, laplacian_poly, parse_poly, standard_polys
from sandharm.sandpile import HeightConfig
from sandharm.window import BoxWindow

from test_harmonic import read_point_csv
from test_sandpile import is_stable


@pytest.fixture(scope="module")
def table_csv(tmp_path_factory, table_d2_g4):
    path = tmp_path_factory.getbasetemp() / "d2g4.csv"
    path.write_text(table_d2_g4.to_csv())
    return str(path)


def replace_suite(monkeypatch, name, run):
    """Swap a suite's function in ``checks.SUITES``, keeping what its n counts and its held-points rule."""
    monkeypatch.setitem(checks.SUITES, name, (run,) + checks.SUITES[name][1:])


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


def test_count_takes_the_log_count_once(monkeypatch, capsys):
    # the work rule reads the log the request printed; 1000x1000 is over the exact count's limit
    calls = []
    real = sandpile.log_recurrent_count

    def counted(window, gamma):
        calls.append(window.shape)
        return real(window, gamma)

    for module in (cli, sandpile):
        monkeypatch.setattr(module, "log_recurrent_count", counted)
    assert main(["sandpile", "count", "--window", "1000x1000", "--gamma", "4"]) == 0
    assert calls == [(1000, 1000)]
    assert capsys.readouterr().out == "log determinant = 1166809.90806 (exact eigenvalue product, fp rounding only)\n"


def test_count_bruteforce_guard_is_input_error(capsys):
    assert main(["sandpile", "count", "--window", "6x6", "--gamma", "4", "--backend", "bruteforce"]) == 3


def test_count_gamma_beyond_int64_is_input_error(capsys):
    big = str(10**20)
    assert main(["sandpile", "count", "--window", "2x2", "--gamma", big, "--backend", "determinant"]) == 3
    assert "does not fit in int64" in capsys.readouterr().err


def test_green_gamma_beyond_int64_is_input_error(tmp_path, capsys):
    # the threshold rule of every layer: refused before the quadrature, as sandpile entropy refuses it
    out = tmp_path / "g.csv"
    assert main(["green", "--d", "2", "--gamma", str(10**20), "--radius", "4", "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "error: gamma %d does not fit in int64\n" % 10**20)
    assert not list(tmp_path.iterdir())


def test_count_bad_window_spec():
    assert main(["sandpile", "count", "--window", "2by2", "--gamma", "4"]) == 3


def test_count_internal_fault_is_not_input_error(monkeypatch, capsys):
    # a toppling matrix that is not positive definite is a fault in the program, not in the input
    real = sandpile.toppling_matrix
    monkeypatch.setattr(sandpile, "toppling_matrix", lambda window, gamma: -real(window, gamma))
    assert main(["sandpile", "count", "--window", "2x2", "--gamma", "4", "--backend", "determinant"]) == 4
    assert re.fullmatch(r"internal error: RuntimeError: .*not positive definite.*\n", capsys.readouterr().err)


def test_internal_fault_exits_four_not_negative(tmp_path, monkeypatch, capsys):
    # exit 1 is a well-formed negative answer; an exception the command did not expect is neither
    def broken(v):
        raise RuntimeError("burn kernel fault")

    monkeypatch.setattr(cli, "burning_test", broken)
    grid = write_grid(tmp_path, "good.grid", [[3, 3], [3, 3]])
    assert main(["sandpile", "burn", "--grid", grid]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: burn kernel fault\n" and captured.out == ""


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_closed_stdout_exits_141_not_internal_fault(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    out = tmp_path / "t.csv"
    assert main(["green", "--d", "2", "--gamma", "5", "--radius", "4", "--out", str(out)]) == cli.EXIT_PIPE == 141
    assert capsys.readouterr().err == ""


def test_closed_stdout_in_a_pipeline_exits_141(tmp_path):
    """``| head`` in a shell, unbuffered and block-buffered.

    Unbuffered, ``head -1`` leaves after the first line, while the entropy
    of the 1000x1000 windows is still being computed, so a later line
    meets a closed pipe.  Block-buffered, ``head -n 0`` never reads, so
    the pipe breaks at ``main``'s flush, and the buffer left behind must
    not raise again when the interpreter flushes it at exit.
    """
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = shlex.join([sys.executable, "-m", "sandharm.cli"])
    script = (
        "PYTHONUNBUFFERED=1 %s sandpile entropy --d 2 --gamma 5 --sides 8,1000,1000,1000 --out e.csv 2> a.err"
        " | head -1; echo ${PIPESTATUS[@]} > a.codes\n"
        "env -u PYTHONUNBUFFERED %s green --d 2 --gamma 5 --radius 4 --out t.csv 2> b.err"
        " | head -n 0; echo ${PIPESTATUS[@]} > b.codes\n" % (run, run)
    )
    proc = subprocess.run(["bash", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.stdout.startswith("quadrature reference h = ") and proc.stdout.count("\n") == 1
    for name in "ab":
        assert (tmp_path / (name + ".codes")).read_text().split() == ["141", "0"], name
        assert (tmp_path / (name + ".err")).read_text() == "", name
    # green had written its table and report before the pipe broke
    assert (tmp_path / "t.csv").exists() and (tmp_path / "t.oracle.txt").exists()


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
    assert is_stable(stable)
    printed = capsys.readouterr().out
    assert "mass balance defect 0" in printed
    odo = tmp_path / "pile.odometer.txt"
    assert odo.exists()


def test_malformed_grid_is_input_error(tmp_path):
    p = tmp_path / "broken.grid"
    p.write_text("2 4 2 2\n1 2 3\n")
    assert main(["sandpile", "stabilize", "--grid", str(p)]) == 3
    assert main(["sandpile", "burn", "--grid", str(tmp_path / "missing.grid")]) == 3


def test_grid_integers_beyond_int64_are_input_errors(tmp_path, capsys):
    tall = tmp_path / "tall.grid"
    tall.write_text("2 4 2 2\n1 %d\n0 0\n" % 2**63)
    deep = tmp_path / "deep.grid"
    deep.write_text("2 4 2 2\n1 %d\n0 0\n" % -(2**63 + 1))
    wide = tmp_path / "wide.grid"
    wide.write_text("2 %d 2 2\n1 1\n0 0\n" % 10**20)
    for grid in (tall, deep, wide):
        assert main(["sandpile", "burn", "--grid", str(grid)]) == 3
        assert main(["sandpile", "stabilize", "--grid", str(grid)]) == 3
    assert capsys.readouterr().err.count("does not fit in int64") == 2


def test_stabilize_mass_balance_can_fail(tmp_path, monkeypatch, capsys):
    # the loss is read off the odometer, so a stable height that disagrees with the counts shows
    real = sandpile._stabilize_heights

    def corrupt(heights, gamma):
        stable, counts = real(heights, gamma)
        stable[0].flat[0] += 1
        return stable, counts

    grid = write_grid(tmp_path, "pile.grid", [[0, 9, 0], [9, 0, 9], [0, 9, 0]])
    assert main(["sandpile", "stabilize", "--grid", grid]) == 0
    assert "mass balance defect 0 " in capsys.readouterr().out
    monkeypatch.setattr(sandpile, "_stabilize_heights", corrupt)
    assert main(["sandpile", "stabilize", "--grid", grid]) == 2
    assert "mass balance defect -1 " in capsys.readouterr().out


def test_stabilize_refuses_masses_int64_cannot_hold(tmp_path, capsys):
    # 9 * 2^60 grains would wrap int64 in the mass balance
    grid = write_grid(tmp_path, "huge.grid", np.full((3, 3), 2**60))
    assert main(["sandpile", "stabilize", "--grid", grid]) == 3
    assert "2^62" in capsys.readouterr().err
    assert not (tmp_path / "huge.stable.grid").exists()


def test_stabilize_large_heights_keep_exact_mass(tmp_path):
    v = HeightConfig(BoxWindow.from_shape((3, 3)), 4, np.full((3, 3), 2**56))
    stable, odometer = sandpile.stabilize(v)
    assert is_stable(stable)
    assert odometer.total_mass_lost == 9 * 2**56 - sum(int(x) for x in stable.heights.ravel())
    assert odometer.total_mass_lost > 0
    grid = write_grid(tmp_path, "big.grid", v.heights)
    out = tmp_path / "big.stable.grid"
    assert main(["sandpile", "stabilize", "--grid", grid, "--out", str(out)]) == 0
    assert np.array_equal(HeightConfig.from_text(out.read_text()).heights, stable.heights)


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
    assert manifest["seed"] is None
    assert "timestamp" not in json.dumps(manifest)


def test_entropy_refuses_an_oversized_side_before_the_quadrature(tmp_path, monkeypatch, capsys):
    # a 101^3 window is over the log count's 10^6 sites: refused before any work, with no line printed
    def never(d, gamma):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(cli, "entropy_quadrature", never)
    out = tmp_path / "ent.csv"
    assert main(["sandpile", "entropy", "--d", "3", "--gamma", "6", "--sides", "8,101", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the log count is limited to 10^6 sites; a 101x101x101 window has 1030301\n"
    assert not out.exists()


# -- green -----------------------------------------------------------------------


def test_green_writes_table_and_oracle_report(tmp_path, capsys):
    out = tmp_path / "w.csv"
    rc = main([
        "green", "--d", "2", "--gamma", "4", "--radius", "5", "--out", str(out),
    ])
    assert rc == 0
    table = GreenTable.from_csv(out.read_text())
    assert table.radius == 5
    assert table.value((0, 0)) == 0.0
    report = (tmp_path / "w.oracle.txt").read_text()
    assert "pass" in report
    # the compared box is |n|_inf <= 4 whatever the radius
    sites = [tuple(map(int, ln[2 : ln.index("]")].split(","))) for ln in report.splitlines() if ln.startswith("w[")]
    assert max(map(max, sites)) == 4 and len(sites) == 15
    manifest = json.loads((tmp_path / "w.csv.manifest.json").read_text())
    assert manifest["versions"]["sandharm"]


def test_green_node_count_follows_the_radius_and_grid_budget(tmp_path, monkeypatch):
    # the node count follows from the radius: N = 4 (radius + 1) = 132 past the d = 3 preset, 2N in the label
    out = tmp_path / "w.csv"
    rc = main(["green", "--d", "3", "--gamma", "7", "--radius", "32", "--out", str(out)])
    assert rc == 0
    assert GreenTable.from_csv(out.read_text()).method == "fft+none[N=264]"

    def no_grid(*args):
        raise AssertionError("grid built for an input that must be refused")

    monkeypatch.setattr(green, "_smooth_part", no_grid)
    rc = main(["green", "--d", "3", "--gamma", "7", "--radius", "63", "--out", str(tmp_path / "big.csv")])
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
    x = read_point_csv(out.read_text())
    assert np.all(x.values == 0.0)
    assert x.err == 0.0


def test_xi_apply_table_mismatch_is_input_error(tmp_path, table_csv):
    grid3 = write_grid(tmp_path, "cube.grid", np.zeros((2, 2, 2), dtype=int), gamma=6)
    assert main(["xi", "apply", "--grid", grid3, "--table", table_csv]) == 3


def test_corrupt_table_file_is_input_error(tmp_path, table_csv, capsys):
    # a nan entry used to pass the additivity suite with 0.000 of the err budget
    rows = pathlib.Path(table_csv).read_text().splitlines()
    site = ",".join(rows[1].split(",")[:-1])
    for name, row in (("nan", site + ",nan"), ("duplicate", rows[2]), ("outside", "-17,0,0.5")):
        path = tmp_path / (name + ".csv")
        path.write_text("\n".join(rows[:1] + [row] + rows[2:]) + "\n")
        assert main(["xi", "check", "--d", "2", "--suite", "additivity", "--table", str(path)]) == 3
        assert "bad table file" in capsys.readouterr().err


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
    assert names == set(checks.SUITES)
    assert all(row[1] == "pass" for row in rows[1:])


@pytest.mark.parametrize("d", [2, 3])
def test_xi_check_runs_on_an_odd_side(d, tmp_path, table_csv, table_d3_g6, capsys):
    if d == 3:
        table_csv = tmp_path / "d3g6.csv"
        table_csv.write_text(table_d3_g6.to_csv())
    assert main(["xi", "check", "--d", str(d), "--side", "7", "--table", str(table_csv)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == (14 if d == 2 else 38) and all(ln.startswith("PASS") for ln in lines)


def test_xi_check_refuses_empty_counts(table_csv, capsys):
    for flag in ("--configs", "--pairs"):
        assert main(["xi", "check", "--d", "2", "--table", table_csv, flag, "0"]) == 3
        assert "must be positive" in capsys.readouterr().err


def test_xi_check_refuses_grids_over_the_budget(monkeypatch, table_csv, capsys):
    # refused before any suite draws: the suites here fail the test if called
    def never(specs, window, rng, n):
        raise AssertionError("a suite ran")

    for name in list(checks.SUITES):
        replace_suite(monkeypatch, name, never)
    for extra in (["--side", "8192"], ["--configs", "10000000"], ["--pairs", "10000000"]):
        assert main(["xi", "check", "--d", "2", "--table", table_csv] + extra) == 3
        assert "over the budget of %d points" % window.GRID_POINT_BUDGET in capsys.readouterr().err
    # each suite is held to its own rule: at the defaults additivity holds 10 pairs of 16^2 operands
    # and 10 sums with their outflow shell on 18^2 sites, 8360 heights, and the kernel witnesses
    # far fewer, whatever --pairs says
    ran = []
    for name in ("kernel", "additivity"):
        replace_suite(monkeypatch, name, lambda specs, window, rng, n: ran.append(n) or [])
    argv = ["xi", "check", "--d", "2", "--table", table_csv, "--suite"]
    monkeypatch.setattr(window, "GRID_POINT_BUDGET", 8359)
    assert main(argv + ["kernel"]) == 0
    for suite in ("additivity", "all"):
        assert main(argv + [suite]) == 3
        assert "needs 8360 grid points in additivity, over the budget of 8359 points" in capsys.readouterr().err
    monkeypatch.setattr(window, "GRID_POINT_BUDGET", 8360)
    assert main(argv + ["additivity"]) == 0
    assert ran == [5, 10]


def test_xi_check_budget_counts_the_window_request_torus(monkeypatch, capsys):
    # at the d=3 defaults separation's torus, 4 x 8 = 32 a side, holds more points than the 28160
    # heights the suites draw, and sets the budget when separation runs
    ran = []
    replace_suite(monkeypatch, "separation", lambda specs, window, rng, n: ran.append(n) or [])
    argv = ["xi", "check", "--d", "3", "--suite", "separation"]
    monkeypatch.setattr(window, "GRID_POINT_BUDGET", 32**3 - 1)
    assert main(argv) == 3
    assert "needs 32768 grid points in separation, over the budget of 32767 points" in capsys.readouterr().err
    monkeypatch.setattr(window, "GRID_POINT_BUDGET", 32**3)
    assert main(argv) == 0
    assert ran == [10]


def test_xi_apply_refuses_a_torus_over_the_budget(tmp_path, monkeypatch, capsys):
    # a 6x5 grid takes the 24x20 torus, 4 times its extent
    grid = write_grid(tmp_path, "v.grid", np.ones((6, 5), dtype=int))
    out = tmp_path / "v.xi.csv"
    monkeypatch.setattr(window, "GRID_POINT_BUDGET", 24 * 20 - 1)
    assert main(["xi", "apply", "--grid", grid, "--out", str(out)]) == 3
    assert "a 6x5 grid needs a 24x20 torus of 480 points, over the budget of 479 points" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setattr(window, "GRID_POINT_BUDGET", 24 * 20)
    assert main(["xi", "apply", "--grid", grid, "--out", str(out)]) == 0
    assert json.loads((tmp_path / "v.xi.csv.manifest.json").read_text())["results"]["torus"] == [24, 20]


@pytest.mark.parametrize("d, side, pairs", [(2, 10, 7), (3, 6, 4)])
def test_xi_check_budget_counts_the_additivity_sums_with_their_shell(monkeypatch, tmp_path, d, side, pairs):
    # additivity holds 2 operands of side^d sites and a sum of (side + 2)^d per pair; at one
    # configuration per check that is the largest holding, and the budget is met exactly
    table = tmp_path / "t.csv"
    table.write_text(green.compute_green(d, 2 * d + 1, 4).to_csv())
    held = pairs * (2 * side**d + (side + 2) ** d)
    assert held > 3 * pairs * side**d
    ran = []
    replace_suite(monkeypatch, "additivity", lambda specs, window, rng, n: ran.append(n) or [])
    argv = ["xi", "check", "--d", str(d), "--gamma", str(2 * d + 1), "--table", str(table), "--suite", "additivity",
            "--side", str(side), "--configs", "1", "--pairs", str(pairs)]
    monkeypatch.setattr(window, "GRID_POINT_BUDGET", held - 1)
    assert main(argv) == 3
    monkeypatch.setattr(window, "GRID_POINT_BUDGET", held)
    assert main(argv) == 0
    assert ran == [pairs]


def test_manifest_seed_is_the_seed_option(tmp_path, table_csv):
    out = tmp_path / "delta.csv"
    assert main(["xi", "demo-addition", "--d", "2", "--table", table_csv, "--seed", "7", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "delta.csv.manifest.json").read_text())
    assert manifest["seed"] == manifest["params"]["seed"] == 7


def test_reused_parser_carries_no_option_to_the_next_call(tmp_path):
    out = tmp_path / "a.csv"
    argv = ["xi", "check", "--d", "2", "--suite", "kernel", "--out", str(out)]
    assert main(argv[:4] + ["--seed", "3"] + argv[4:]) == 0
    assert json.loads((tmp_path / "a.csv.manifest.json").read_text())["seed"] == 3
    assert main(argv) == 0
    assert json.loads((tmp_path / "a.csv.manifest.json").read_text())["seed"] == 0
    assert cli._parser() is cli._parser()


def test_xi_check_reports_failing_suite(monkeypatch, table_csv, capsys):
    forced = checks.Check("harmonicity[g]", False, 1.0, 0.0, "forced failure")
    replace_suite(monkeypatch, "harmonicity", lambda specs, window, rng, n: [forced])
    rc = main(["xi", "check", "--d", "2", "--suite", "harmonicity", "--table", table_csv])
    printed = capsys.readouterr().out
    assert rc == 2
    assert "FAIL harmonicity[g]: forced failure" in printed
    assert "suite failure in: harmonicity[g]" in printed


def test_trunc_option_is_gone(tmp_path, table_csv, capsys):
    grid = write_grid(tmp_path, "zero.grid", np.zeros((6, 6), dtype=int))
    for argv in (
        ["xi", "apply", "--grid", grid, "--table", table_csv],
        ["xi", "check", "--d", "2", "--table", table_csv],
        ["xi", "demo-addition", "--d", "2", "--table", table_csv],
    ):
        for option in ("--trunc", "--radius"):
            assert main(argv + [option, "4"]) == 3
            assert "unrecognized arguments: %s 4" % option in capsys.readouterr().err


def _perfbench_spans():
    """perfbench's span module, loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_are_callables_in_their_layers():
    # perfbench rebinds these by name; a rename must fail here, not only under --trace 1
    spans = _perfbench_spans()
    for layer, names in spans.TRACED.items():
        module = importlib.import_module("sandharm." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), "sandharm.%s.%s" % (layer, name)


def test_traced_count_reads_the_counting_contract(capsys):
    # perfbench reads count_recurrent's third argument, backend, and its exact result; a change to
    # either must fail here, not silently zero a per-layer metric
    spans = _perfbench_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["sandpile", "count", "--window", "2x2", "--gamma", "4", "--backend", "both"]) == 0
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.spans, 1.0, 0, 0.0)
    assert m["sandpile.count_recurrent.configs_enumerated"] == 256
    assert m["sandpile.count_recurrent.recurrent_ratio"] == 0.75
    assert m["sandpile.toppling_determinant_exact.calls"] == 1


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
    one = LaurentPoly.one(2)
    u1 = LaurentPoly(2, {(1, 0): 1})
    assert data["polynomial"] == ((one - u1) ** 3).to_text()


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


def _run_python(args):
    """The interpreter run on args in a subprocess that imports the sandharm under test."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable] + args, capture_output=True, text=True, env=env)


def test_version_runs_in_subprocess():
    proc = _run_python(["-m", "sandharm.cli", "--version"])
    assert proc.returncode == 0
    assert "sandharm" in proc.stdout


def test_cli_import_loads_no_scipy():
    code = "import sys, sandharm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    gens = standard_polys(2)
    for i, g in enumerate(gens, start=1):
        assert parse_poly("g%d" % i, 2) == g


def test_large_powers_still_parse():
    assert parse_poly("(1-u1)^200", 2)[(200, 0)] == 1
    assert len(parse_poly("(1-u1-u2)^20", 2)) == 231
    assert parse_poly("u1^-100000000000000000000", 2) == LaurentPoly(2, {(-10**20, 0): 1})


@pytest.mark.parametrize("poly", ["(1-u1)^100000000000000000000", "2^100000000000000000000", "(1-u1-u2)^100"])
def test_huge_powers_are_refused_before_multiplying(monkeypatch, capsys, poly):
    def no_mul(self, other):
        raise AssertionError("multiplied a power that must be refused")

    monkeypatch.setattr(LaurentPoly, "__mul__", no_mul)
    assert main(["ideal", "--poly", poly, "--d", "2"]) == 3
    err = capsys.readouterr().err
    assert "too large to expand" in err
    assert "%d points" % laurent.POWER_MAX_POINTS in err and "%d-bit" % laurent.POWER_MAX_BITS in err


def test_poly_nesting_depth_is_bounded(capsys):
    deep = "(" * laurent.POLY_MAX_DEPTH + "u1-1" + ")" * laurent.POLY_MAX_DEPTH
    assert parse_poly(deep, 2) == LaurentPoly.variable(2, 0) - 1
    over = laurent.POLY_MAX_DEPTH + 1
    for argv in (["--poly", "(" * over + "u1" + ")" * over], ["--poly", "(" * 2000 + "u1" + ")" * 2000],
                 ["--poly=" + "-" * 1000 + "u1"]):
        assert main(["ideal", "--d", "2"] + argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "more than %d deep" % laurent.POLY_MAX_DEPTH in err


def test_poly_depth_refusal_covers_xi_multipliers(table_csv, capsys):
    assert main(["xi", "demo-addition", "--d", "2", "--table", table_csv, "--g", "(" * 2000 + "g1" + ")" * 2000]) == 3
    assert "more than %d deep" % laurent.POLY_MAX_DEPTH in capsys.readouterr().err


def _no_temp_files(directory):
    return not list(pathlib.Path(directory).glob(".tmp-*~"))


def test_unwritable_output_is_input_error(tmp_path, capsys, monkeypatch):
    # a member polynomial, so exit 1 could only mean the write failed
    assert main(["ideal", "--poly", "(1-u1)^3", "--d", "2", "--out", str(tmp_path / "missing" / "c.json")]) == 3
    err = capsys.readouterr().err
    assert err == "error: cannot write %s: No such file or directory\n" % (tmp_path / "missing" / "c.json")
    # the rename onto a directory fails after the temp file exists
    (tmp_path / "taken").mkdir()
    grid = write_grid(tmp_path, "good.grid", [[3, 3], [3, 3]])
    assert main(["sandpile", "burn", "--grid", grid, "--report", str(tmp_path / "taken")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write %s: " % (tmp_path / "taken")) and ".tmp-" not in err
    assert _no_temp_files(tmp_path)

    def full_disk(fd, mode):
        os.close(fd)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli.os, "fdopen", full_disk)
    out = tmp_path / "ent.csv"
    assert main(["sandpile", "entropy", "--d", "2", "--gamma", "5", "--sides", "4", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: cannot write %s: No space left on device\n" % out
    assert _no_temp_files(tmp_path) and not out.exists()


def test_unwritable_output_is_refused_before_the_work(tmp_path, monkeypatch, capsys):
    # each output option is checked before any table, suite or sandpile work starts
    def never(*args, **kwargs):
        raise AssertionError("work ran before the output path was checked")

    monkeypatch.setattr(cli, "compute_green", never)
    for name in list(checks.SUITES):
        replace_suite(monkeypatch, name, never)
    monkeypatch.setattr(cli, "stabilize", never)
    monkeypatch.setattr(cli, "burning_test", never)
    grid = write_grid(tmp_path, "good.grid", [[3, 3], [3, 3]])
    missing = str(tmp_path / "missing" / "c.csv")
    for argv in (
        ["xi", "check", "--d", "3", "--out", missing],
        ["sandpile", "stabilize", "--grid", grid, "--odometer", missing],
        ["sandpile", "burn", "--grid", grid, "--report", missing],
    ):
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: cannot write %s: No such file or directory\n" % missing
    assert main(["sandpile", "burn", "--grid", grid, "--report", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: cannot write %s: Is a directory\n" % tmp_path
    assert _no_temp_files(tmp_path)


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


# -- README examples ----------------------------------------------------------


def test_readme_examples_run_and_parse():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    (tour,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    scope = {}
    exec(compile(tour, "README.md", "exec"), scope)
    assert isinstance(scope["field"], TorusPoint)
    assert scope["field"].window == scope["window"]

    commands = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for line in block.splitlines() if line.startswith("sandharm ")]
    assert len(commands) >= 10
    for line in commands:
        ns = cli._build_parser().parse_args(shlex.split(line)[1:])
        assert callable(ns.func), line
