"""Command-line driver: tables, sandpile experiments, covering-map suites.

Four command families:

- ``green``: compute a fundamental-solution table, write it as CSV, and
  compare the entries with |n|_inf <= 4 against the independent
  walk-series evaluation.  The quadrature's node count follows from the
  radius; a radius whose grid exceeds the point budget exits 3.
- ``sandpile``: stabilize grids, run the burning test, count recurrent
  configurations, and tabulate finite-volume entropy estimates.
- ``xi``: apply a covering map to a grid, run the invariant suites
  (harmonicity, equivariance, kernel witnesses, separation, additivity,
  intertwining; they live in ``sandharm.checks``), and demonstrate the
  grain-addition identity.  The map is computed from its Fourier symbol
  and reads no Green's table; ``--table`` is only checked against d and
  gamma.
- ``ideal``: exact summability certificates and multiplier mass for
  inline polynomials, optionally with the kernel decay profile.

``--g`` and ``--poly`` take a polynomial in the grammar of
``sandharm.laurent.parse_poly``; its refusals are input errors.

Exit codes: 0 success, 1 semantic negative (a forbidden configuration, a
polynomial outside the ideal), 2 tolerance or suite failure, 3 malformed
input, 4 internal fault (any other exception, printed with its type), 141
stdout closed by its reader, as in ``| head`` (128 + SIGPIPE).
Every file is written atomically and accompanied by a JSON run manifest;
reports never print a number without its tolerance or error bound.
Randomized suites draw from numpy's default generator seeded by ``--seed``
(default 0), so repeated runs are byte-identical.
"""

import argparse
import contextlib
import csv
import errno
import functools
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .checks import SUITES, suite_window
from .green import (
    ORACLE_SPAN,
    GreenTable,
    canonical_site,
    compute_green,
    decay_profile,
    entropy_quadrature,
    fundamental_residual,
    multiplier_table,
    walk_series_oracle,
)
from .harmonic import (
    XiSpec,
    addition_operator_demo,
    standard_specs,
    torus_distance,
    window_period,
    xi_apply,
)
from .laurent import ideal_certificate, multiplier_sum, parse_poly, poly_label
from .sandpile import (
    HeightConfig,
    burning_test,
    check_exact_count,
    check_log_count,
    count_recurrent,
    finite_entropy_estimate,
    grid_rows,
    log_recurrent_count,
    stabilize,
)
from .window import BoxWindow, check_grid_points

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_TOLERANCE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 128 + 13  # SIGPIPE


class CliInputError(ValueError):
    """Bad command line or grid file (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to the input exit code."""

    def error(self, message):
        raise CliInputError(message)


# -- small io helpers ---------------------------------------------------------


def _cannot_write(path, reason):
    """The input error for an output path that cannot be written."""
    return CliInputError("cannot write %s: %s" % (path, reason))


def _refuse_unwritable(ns):
    """Before any work, refuse each given ``--out``, ``--report`` or ``--odometer`` that is a directory or in none.

    ``_atomic_write`` still refuses whatever else fails at the write.
    """
    for path in filter(None, (getattr(ns, name, None) for name in ("out", "report", "odometer"))):
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise _cannot_write(path, os.strerror(errno.EISDIR))
        if not os.path.isdir(parent):
            raise _cannot_write(path, os.strerror(errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT))


def _atomic_write(path, text):
    """Write text to path via a sibling temp file and an atomic rename.

    A path that cannot be written is an input error; the temp file is removed.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise _cannot_write(path, exc.strerror) from None
        raise


def _publish(ns, files, results):
    """Write each (path, text) atomically, a JSON run manifest beside the first, then name the files.

    The manifest holds the command, its params, the versions and the
    results.  It contains no timestamps, so identical runs produce
    identical bytes.  The seed is the command's ``--seed``, or null for
    commands without one.
    """
    for path, text in files:
        _atomic_write(path, text)
    manifest = {
        "command": ns.command_path,
        "params": {key: value for key, value in vars(ns).items() if key not in ("func", "command_path")},
        "seed": getattr(ns, "seed", None),
        "versions": {
            "sandharm": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        "results": results,
    }
    _atomic_write(files[0][0] + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % " and ".join(path for path, _ in files))


def _load(path, parse, what):
    """``parse`` of a file's text; a file that cannot be read or parsed is an input error."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise CliInputError("bad %s file %s: cannot read %s: %s" % (what, path, path, exc)) from None
    except ValueError as exc:
        raise CliInputError("bad %s file %s: %s" % (what, path, exc)) from None


def _parse_ints(text, what):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise CliInputError("%s must be comma-separated integers, got %r" % (what, text)) from None
    if not values:
        raise CliInputError("%s is empty" % what)
    return values


def _parse_shape(text):
    try:
        shape = tuple(int(tok) for tok in text.lower().split("x"))
    except ValueError:
        raise CliInputError("window must look like 4x4, got %r" % text) from None
    if not shape or any(s < 1 for s in shape):
        raise CliInputError("window sides must be positive, got %r" % text)
    return shape


def _stem(path):
    base = os.fspath(path)
    root, ext = os.path.splitext(base)
    return root if ext else base


# -- green --------------------------------------------------------------------


def _table_radius(ns, d):
    """``--radius``, by default 16 for d=2 and 8 for d=3."""
    return ns.radius if ns.radius is not None else (16 if d == 2 else 8)


def cmd_green(ns):
    d, gamma = ns.d, ns.gamma
    radius = _table_radius(ns, d)
    out = ns.out or "green_d%d_g%d_r%d.csv" % (d, gamma, radius)
    table = compute_green(d, gamma, radius)
    residual = fundamental_residual(table)
    residual_tol = 10.0 * table.accuracy

    lines = [
        "green table d=%d gamma=%d radius=%d method=%s" % (d, gamma, radius, table.method),
        "entry accuracy %.3e; stencil residual %.3e <= %.3e: %s"
        % (table.accuracy, residual, residual_tol, "pass" if residual <= residual_tol else "FAIL"),
    ]
    ok = residual <= residual_tol
    worst = 0.0
    span = min(ORACLE_SPAN, radius)
    sites = (canonical_site(tuple(int(x) - span for x in n)) for n in np.ndindex(*(2 * span + 1,) * d))
    for site in dict.fromkeys(sites):  # one site per symmetry class, in the order of first appearance
        oracle = walk_series_oracle(d, gamma, site)
        diff = abs(table.value(site) - oracle.value)
        tol = oracle.err_bound + residual_tol
        good = diff <= tol
        ok &= good
        worst = max(worst, diff)
        lines.append(
            "w[%s] = %.12g  oracle %.12g +- %.2e  |diff| %.3e <= %.3e: %s"
            % (
                ",".join(str(x) for x in site),
                table.value(site),
                oracle.value,
                oracle.err_bound,
                diff,
                tol,
                "pass" if good else "FAIL",
            )
        )
    report = "\n".join(lines) + "\n"
    report_path = _stem(out) + ".oracle.txt"
    print(report, end="")
    results = {
        "table": out,
        "report": report_path,
        "accuracy": table.accuracy,
        "stencil_residual": residual,
        "max_oracle_discrepancy": worst,
        "pass": bool(ok),
    }
    _publish(ns, [(out, table.to_csv()), (report_path, report)], results)
    return EXIT_OK if ok else EXIT_TOLERANCE


# -- sandpile -----------------------------------------------------------------


def cmd_stabilize(ns):
    v = _load(ns.grid, HeightConfig.from_text, "grid")
    stable, odometer = stabilize(v)
    out = ns.out or _stem(ns.grid) + ".stable.grid"
    odo_path = ns.odometer or _stem(ns.grid) + ".odometer.txt"
    odo_lines = ["# toppling counts, total_mass_lost=%d" % odometer.total_mass_lost] + grid_rows(odometer.counts)
    balance = int(v.heights.sum()) - int(stable.heights.sum()) - odometer.total_mass_lost
    results = {
        "stable_grid": out,
        "odometer": odo_path,
        "topplings": int(odometer.counts.sum()),
        "mass_lost": odometer.total_mass_lost,
        "mass_balance_defect": balance,
    }
    print(
        "stabilized in %d topplings; %d grains lost; mass balance defect %d (exact, tolerance 0)"
        % (results["topplings"], results["mass_lost"], balance)
    )
    _publish(ns, [(out, stable.to_text()), (odo_path, "\n".join(odo_lines) + "\n")], results)
    return EXIT_OK if balance == 0 else EXIT_TOLERANCE


def cmd_burn(ns):
    v = _load(ns.grid, HeightConfig.from_text, "grid")
    report = burning_test(v)
    rounds = int(report.rounds.max())
    stuck = list(map(tuple, (np.argwhere(report.rounds == 0) + v.window.lo).tolist()))
    if report.recurrent:
        print("recurrent: all %d sites burned in %d rounds" % (v.window.size, rounds))
    else:
        print(
            "forbidden: %d of %d sites never burn (first stuck sites: %s)"
            % (
                len(stuck),
                v.window.size,
                ", ".join(str(s) for s in stuck[:8]),
            )
        )
    if ns.report:
        lines = ["recurrent=%s rounds=%d" % (report.recurrent, rounds)]
        burnt_rounds, burnt_sites = report.burn_sequence()
        for rnd, site in zip(burnt_rounds.tolist(), burnt_sites.tolist()):
            lines.append("%d %s" % (rnd, ",".join(str(x) for x in site)))
        for site in stuck:
            lines.append("stuck %s" % (",".join(str(x) for x in site)))
        results = {"recurrent": report.recurrent, "rounds": rounds, "stuck": len(stuck)}
        _publish(ns, [(ns.report, "\n".join(lines) + "\n")], results)
    return EXIT_OK if report.recurrent else EXIT_NEGATIVE


def cmd_count(ns):
    window = BoxWindow.from_shape(_parse_shape(ns.window))
    gamma = ns.gamma
    if ns.backend == "determinant":
        log_count = log_recurrent_count(window, gamma)
        try:
            check_exact_count(window, gamma, log_count)
        except ValueError:
            pass  # over the exact count's work limit: the log alone
        else:
            print("determinant count = %d (exact integer)" % count_recurrent(window, gamma))
        print("log determinant = %.12g (exact eigenvalue product, fp rounding only)" % log_count)
        return EXIT_OK
    brute = count_recurrent(window, gamma, backend="bruteforce")
    if ns.backend == "bruteforce":
        print("bruteforce count = %d (exact)" % brute)
        return EXIT_OK
    exact_det = count_recurrent(window, gamma)
    agree = exact_det == brute
    print("%d = %d  (bruteforce = determinant, exact comparison): %s" % (brute, exact_det, "pass" if agree else "FAIL"))
    return EXIT_OK if agree else EXIT_TOLERANCE


def cmd_entropy(ns):
    d, gamma = ns.d, ns.gamma
    sides = _parse_ints(ns.sides, "--sides")
    if any(s < 1 for s in sides):
        raise CliInputError("sides must be positive")
    for side in sides:  # before the quadrature: a gamma or a side the log count cannot serve is refused first
        check_log_count(BoxWindow.from_shape((side,) * d), gamma)
    reference = entropy_quadrature(d, gamma)
    rows = []
    print(
        "quadrature reference h = %.6f +- %.1e (%s)"
        % (reference.value, reference.err_bound, reference.method)
    )
    for side in sides:
        est = finite_entropy_estimate(side, d, gamma)
        gap = abs(est - reference.value)
        rows.append((side, est, gap))
        print("side %4d: estimate %.6f  |gap to reference| %.4f" % (side, est, gap))
    out = ns.out or "entropy_d%d_g%d.csv" % (d, gamma)
    lines = ["side,estimate,reference,reference_err"]
    for side, est, _ in rows:
        lines.append("%d,%r,%r,%r" % (side, est, reference.value, reference.err_bound))
    results = {
        "reference": reference.value,
        "reference_err": reference.err_bound,
        "estimates": {str(s): e for s, e, _ in rows},
        "csv": out,
    }
    _publish(ns, [(out, "\n".join(lines) + "\n")], results)
    return EXIT_OK


# -- xi -----------------------------------------------------------------------


def _checked_table(ns, d, gamma):
    """gamma (None means the critical 2d) and the ``--table`` file, which must be for d and gamma, or None."""
    gamma = 2 * d if gamma is None else gamma
    table = _load(ns.table, GreenTable.from_csv, "table") if ns.table else None
    if table is not None and (table.dim != d or table.gamma != gamma):
        raise CliInputError(
            "table %s is for d=%d gamma=%s, need d=%d gamma=%s" % (ns.table, table.dim, table.gamma, d, gamma)
        )
    return gamma, table


def cmd_xi_apply(ns):
    v = _load(ns.grid, HeightConfig.from_text, "grid")
    _checked_table(ns, v.dim, v.gamma)
    g = parse_poly(ns.g, v.dim, v.gamma)
    spec = XiSpec.build(g, v.dim, v.gamma)
    period = window_period(v.window)
    torus = "x".join(map(str, period))
    point = xi_apply(spec, v)
    out = ns.out or _stem(ns.grid) + ".xi.csv"
    largest = float(torus_distance(point.values).max())
    print(
        "xi[%s] on %d sites, %s torus: err %.3e per value (FFT rounding and the aliasing term, measured, not "
        "proved); max torus distance from 0 = %.6g" % (poly_label(g), v.window.size, torus, point.err, largest)
    )
    results = {"csv": out, "err": point.err, "max_distance_from_zero": largest, "multiplier": poly_label(g),
               "torus": list(period)}
    _publish(ns, [(out, point.to_csv())], results)
    return EXIT_OK


def cmd_xi_check(ns):
    d = ns.d
    specs = standard_specs(d, _checked_table(ns, d, ns.gamma)[0])
    side = ns.side if ns.side is not None else (16 if d == 2 else 8)
    if side < 6:
        raise CliInputError("--side must be at least 6")
    if ns.configs < 1 or ns.pairs < 1:
        raise CliInputError("--configs and --pairs must be positive")
    window = suite_window(d, side)
    names = list(SUITES) if ns.suite == "all" else [ns.suite]
    counts = {name: ns.pairs if SUITES[name][1] == "pairs" else ns.configs for name in names}
    # the grid points each suite named holds at once (``checks.SUITES``); the largest sets the budget
    held, largest = max((SUITES[name][2](specs, window, counts[name]), name) for name in names)
    check_grid_points(held, "--side %d with --configs %d and --pairs %d needs %d grid points in %s"
                      % (side, ns.configs, ns.pairs, held, largest))
    rng = np.random.default_rng(ns.seed)
    checks = []
    for name in names:
        checks += SUITES[name][0](specs, window, rng, counts[name])
    for c in checks:
        print("%s %s: %s" % ("PASS" if c.passed else "FAIL", c.name, c.detail))
    failures = [c.name for c in checks if not c.passed]
    if ns.out:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["check", "result", "detail"])
        for c in checks:
            writer.writerow([c.name, "pass" if c.passed else "fail", c.detail])
        _publish(ns, [(ns.out, buf.getvalue())], {"checks": len(checks), "failures": failures, "csv": ns.out})
    if failures:
        print("suite failure in: %s" % ", ".join(failures))
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_xi_demo_addition(ns):
    d = ns.d
    gamma, _ = _checked_table(ns, d, ns.gamma)
    g = parse_poly(ns.g, d, gamma)
    spec = XiSpec.build(g, d, gamma)
    site = tuple(_parse_ints(ns.site, "--site")) if ns.site else (0,) * d
    if len(site) != d:
        raise CliInputError("--site needs %d coordinates" % d)
    out_window = BoxWindow.centered(d, 2).shifted(site)
    rng = np.random.default_rng(ns.seed)
    delta, mismatch, bound = addition_operator_demo(spec, site, out_window, rng)
    ok = mismatch <= bound
    print(
        "grain added at %s and stabilized shifts xi[%s] by the translated kernel; ledger mismatch %.3e <= %.3e: %s"
        % (site, poly_label(g), mismatch, bound, "pass" if ok else "FAIL")
    )
    if ns.out:
        results = {"csv": ns.out, "mismatch": mismatch, "bound": bound, "pass": bool(ok)}
        _publish(ns, [(ns.out, delta.to_csv())], results)
    return EXIT_OK if ok else EXIT_TOLERANCE


# -- ideal --------------------------------------------------------------------


def cmd_ideal(ns):
    d = ns.d
    g = parse_poly(ns.poly, d, ns.gamma)
    if not g:
        raise CliInputError("the zero polynomial has no meaningful certificate")
    cert = ideal_certificate(g)
    print("polynomial (exponents : coefficient): %s" % poly_label(g))
    if cert.member:
        print("member = true (all moment conditions vanish exactly)")
        print("common second moment = %d (exact)" % cert.common_second_moment)
        print("multiplier mass = %d (exact integer)" % multiplier_sum(g))
    else:
        condition, axes, value = cert.failing
        axis_txt = ",".join(str(a) for a in axes) if axes else "-"
        print(
            "member = false: condition %s fails on axis %s with exact moment %d"
            % (condition, axis_txt, value)
        )
    if ns.profile:
        gamma, table = _checked_table(ns, d, ns.gamma)
        mult = multiplier_table(g, table or compute_green(d, gamma, _table_radius(ns, d)))
        profile = decay_profile(mult.values)
        if profile.exponent is None:
            print("decay fit degenerate (kernel vanishes on the fitted shells)")
        else:
            print(
                "decay fit: shell max ~ r^%.3f on shells %d..%d (entry error %.1e)"
                % (profile.exponent, profile.fit_range[0], profile.fit_range[1], mult.entry_error)
            )
        partial = 0.0
        for r in range(profile.radius + 1):
            partial += float(profile.shell_sum[r])
            if r in (2, 4, 8, 16, 32) and r <= profile.radius:
                print("l1 mass within radius %2d = %.6f +- %.1e" % (r, partial, (2 * r + 1) ** d * mult.entry_error))
    if ns.out:
        results = {
            "polynomial": g.to_text(),
            "member": cert.member,
            "failing": list(cert.failing) if cert.failing else None,
            "multiplier_mass": multiplier_sum(g) if cert.member else None,
        }
        _publish(ns, [(ns.out, json.dumps(results, indent=2, sort_keys=True, default=str) + "\n")], results)
    return EXIT_OK if cert.member else EXIT_NEGATIVE


# -- parser -------------------------------------------------------------------


_XI_TABLE_HELP = "a table CSV, checked against d and gamma (exit 3 on a mismatch); the map reads nothing else from it"


def _add_table_options(p, table_help=_XI_TABLE_HELP):
    p.add_argument("--gamma", type=int, default=None, help="threshold (default: critical 2d)")
    p.add_argument("--table", default=None, help=table_help)


def _build_parser():
    parser = _Parser(prog="sandharm", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version="sandharm %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("green", help="compute a fundamental-solution table and check it against the walk series "
                       "for |n|_inf <= %d" % ORACLE_SPAN)
    p.add_argument("--d", type=int, required=True, choices=(2, 3))
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--radius", type=int, default=None, help="table radius (default 16 for d=2, 8 for d=3); it sets "
                   "the node count, and a radius whose grid exceeds the point budget exits 3")
    p.add_argument("--out", default=None, help="output CSV path")
    p.set_defaults(func=cmd_green, command_path="green")

    sand = sub.add_parser("sandpile", help="stabilization, burning test, counting, entropy")
    ssub = sand.add_subparsers(dest="subcommand", required=True)

    p = ssub.add_parser("stabilize", help="topple a grid until stable; write the result and odometer")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--odometer", default=None)
    p.set_defaults(func=cmd_stabilize, command_path="sandpile stabilize")

    p = ssub.add_parser("burn", help="burning test; exit 0 if recurrent, 1 if forbidden")
    p.add_argument("--grid", required=True)
    p.add_argument("--report", default=None, help="write the burn order here")
    p.set_defaults(func=cmd_burn, command_path="sandpile burn")

    p = ssub.add_parser("count", help="count recurrent configurations on a box window")
    p.add_argument("--window", required=True, help="box sides, e.g. 2x2 or 4x4x4")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--backend", choices=("bruteforce", "determinant", "both"), default="determinant")
    p.set_defaults(func=cmd_count, command_path="sandpile count")

    p = ssub.add_parser("entropy", help="finite-volume entropy estimates against the quadrature reference")
    p.add_argument("--d", type=int, required=True, choices=(2, 3))
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--sides", default="8,16,32,64")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_entropy, command_path="sandpile entropy")

    xi = sub.add_parser("xi", help="covering maps: apply, invariant suites, grain-addition demo")
    xsub = xi.add_subparsers(dest="subcommand", required=True)

    p = xsub.add_parser("apply", help="map a grid to a torus-valued field CSV")
    p.add_argument("--grid", required=True)
    p.add_argument("--g", default="g1", help="multiplier: alias (f, g1..gN) or expression over u1..ud")
    p.add_argument("--table", default=None, help=_XI_TABLE_HELP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_xi_apply, command_path="xi apply")

    p = xsub.add_parser("check", help="run the invariant suites; exit 2 if any check fails")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p.add_argument("--d", type=int, required=True, choices=(2, 3))
    _add_table_options(p)
    p.add_argument("--side", type=int, default=None, help="window side for test configs (at least 6)")
    p.add_argument("--configs", type=int, default=5, help="random configurations per check")
    p.add_argument("--pairs", type=int, default=10, help="pairs for separation/additivity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the check table as CSV")
    p.set_defaults(func=cmd_xi_check, command_path="xi check")

    p = xsub.add_parser("demo-addition", help="add a grain and stabilize: the image moves by the translated kernel")
    p.add_argument("--d", type=int, required=True, choices=(2, 3))
    _add_table_options(p)
    p.add_argument("--g", default="g1")
    p.add_argument("--site", default=None, help="drop site, e.g. 0,0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the kernel increment as CSV")
    p.set_defaults(func=cmd_xi_demo_addition, command_path="xi demo-addition")

    p = sub.add_parser("ideal", help="summability certificate and multiplier mass for a polynomial")
    p.add_argument("--poly", required=True, help="inline expression, e.g. \"(1-u1)^3\" or f")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--profile", action="store_true", help="also fit the multiplier decay profile")
    _add_table_options(p, "load a precomputed table CSV instead of computing")
    p.add_argument("--radius", type=int, default=None, help="table radius (default 16 for d=2, 8 for d=3)")
    p.add_argument("--out", default=None, help="write the certificate as JSON")
    p.set_defaults(func=cmd_ideal, command_path="ideal")

    return parser


@functools.cache
def _parser():
    """The parser, built once per process: building it costs more than most requests' own parsing."""
    return _build_parser()


def main(argv=None):
    try:
        ns = _parser().parse_args(argv)
        _refuse_unwritable(ns)
        code = ns.func(ns)
        sys.stdout.flush()  # so that a closed stdout shows here, not in the interpreter's exit-time flush
        return code
    except ValueError as exc:  # CliInputError included
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:  # stdout's reader has gone, as in ``| head``: not a fault
        with contextlib.suppress(OSError):  # an in-process stdout has no descriptor
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)  # the exit-time flush of the rest cannot raise again
        return EXIT_PIPE
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
