"""Command-line driver: tables, sandpile experiments, covering-map suites.

Four command families:

- ``green``: compute a fundamental-solution table, write it as CSV, and
  compare the small-site entries against the independent walk-series
  evaluation.
- ``sandpile``: stabilize grids, run the burning test, count recurrent
  configurations, and tabulate finite-volume entropy estimates.
- ``xi``: apply a covering map to a grid, run the invariant suites
  (harmonicity, equivariance, kernel witnesses, separation, additivity,
  intertwining), and demonstrate the grain-addition identity.
- ``ideal``: exact summability certificates and multiplier mass for
  inline polynomials, optionally with the kernel decay profile.

Exit codes: 0 success, 1 semantic negative (a forbidden configuration, a
polynomial outside the ideal), 2 tolerance or suite failure, 3 malformed
input.  Every file is written atomically and accompanied by a JSON run
manifest; reports never print a number without its tolerance or error
bound.  Randomized suites draw from numpy's default generator seeded by
``--seed`` (default 0), so repeated runs are byte-identical.
"""

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import sys
import tempfile

import numpy as np
import scipy

from . import __version__
from .green import (
    GreenTable,
    QuadratureSpec,
    canonical_site,
    compute_green,
    decay_profile,
    entropy_quadrature,
    fundamental_residual,
    multiplier_table,
    walk_series_oracle,
)
from .harmonic import (
    TorusPoint,
    XiSpec,
    addition_operator_demo,
    equivariance_residual,
    harmonicity_residual,
    kernel_witness,
    point_distance,
    point_sum,
    poly_action,
    poly_label,
    separation_check,
    standard_specs,
    torus_distance,
    xi_apply,
    xi_tuple,
)
from .laurent import LaurentPoly, ideal_certificate, laplacian_poly, multiplier_sum, standard_polys
from .sandpile import (
    EXACT_DET_MAX_SITES,
    HeightConfig,
    burning_test,
    count_recurrent,
    finite_entropy_estimate,
    group_add,
    random_recurrent,
    stabilize,
    toppling_determinant_exact,
)
from .window import BoxWindow

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_TOLERANCE = 2
EXIT_INPUT = 3


class CliInputError(ValueError):
    """Bad command line, grid file, or polynomial text (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to the input exit code."""

    def error(self, message):
        raise CliInputError(message)


# -- small io helpers ---------------------------------------------------------


def _atomic_write(path, text):
    """Write text to path via a sibling temp file and an atomic rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(out_path, ns, results, seed=None):
    """JSON run manifest next to an output file: command, params, versions.

    Contains no timestamps, so identical runs produce identical bytes.
    """
    params = {}
    for key, value in vars(ns).items():
        if key in ("func", "command_path"):
            continue
        params[key] = value
    manifest = {
        "command": getattr(ns, "command_path", "?"),
        "params": params,
        "seed": seed,
        "versions": {
            "sandharm": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        "results": results,
    }
    path = os.fspath(out_path) + ".manifest.json"
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _read_text(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliInputError("cannot read %s: %s" % (path, exc)) from None


def _load_grid(path):
    try:
        return HeightConfig.from_text(_read_text(path))
    except ValueError as exc:
        raise CliInputError("bad grid file %s: %s" % (path, exc)) from None


def _load_table(path):
    try:
        return GreenTable.from_csv(_read_text(path))
    except ValueError as exc:
        raise CliInputError("bad table file %s: %s" % (path, exc)) from None


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


# -- polynomial expressions ---------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]\w*|\*\*|[-+*^()])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise CliInputError("cannot read polynomial at %r" % text[pos:])
            break
        tok = m.group(1)
        tokens.append("^" if tok == "**" else tok)
        pos = m.end()
    return tokens


def _name_poly(name, d, gamma):
    """Resolve an alias: u1..ud, f, fg, or g1..gN."""
    low = name.lower()
    if low.startswith("u") and low[1:].isdigit():
        axis = int(low[1:])
        if not 1 <= axis <= d:
            raise CliInputError("variable %s out of range for dimension %d" % (name, d))
        return LaurentPoly.variable(d, axis - 1)
    if low == "f":
        return laplacian_poly(d)
    if low == "fg":
        if gamma is None:
            raise CliInputError("alias fg needs --gamma")
        return laplacian_poly(d, gamma)
    if low.startswith("g") and low[1:].isdigit():
        gens = standard_polys(d).generators
        k = int(low[1:])
        if not 1 <= k <= len(gens):
            raise CliInputError(
                "generator %s out of range; dimension %d has g1..g%d" % (name, d, len(gens))
            )
        return gens[k - 1]
    raise CliInputError("unknown name %r (expected u<k>, f, fg or g<k>)" % name)


def _poly_power(base, n):
    if n >= 0:
        return base**n
    if len(base) == 1:
        ((expo, coeff),) = base.terms.items()
        if coeff in (1, -1):
            inv = LaurentPoly.monomial(base.dim, tuple(-e for e in expo), coeff)
            return inv ** (-n)
    raise CliInputError("negative powers need a monomial with coefficient +-1")


class _PolyReader:
    """Recursive-descent reader for +, -, *, ^ and parentheses over u1..ud."""

    def __init__(self, tokens, d, gamma):
        self.tokens = tokens
        self.pos = 0
        self.d = d
        self.gamma = gamma

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                value = value * self.factor()
            elif tok == "(" or (tok is not None and tok[0].isalpha()):
                # implicit product, as in (1-u1)(1-u2) or 2u1
                value = value * self.factor()
            else:
                return value

    def factor(self):
        value = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise CliInputError("exponent must be an integer")
            value = _poly_power(value, sign * int(tok))
        return value

    def atom(self):
        tok = self.take()
        if tok is None:
            raise CliInputError("polynomial ends unexpectedly")
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise CliInputError("missing closing parenthesis")
            return value
        if tok == "-":
            return -self.factor()
        if tok == "+":
            return self.factor()
        if tok.isdigit():
            return LaurentPoly.constant(self.d, int(tok))
        if tok[0].isalpha():
            return _name_poly(tok, self.d, self.gamma)
        raise CliInputError("unexpected token %r" % tok)


def parse_poly(text, d, gamma=None):
    """Laurent polynomial from an inline expression.

    Understands integer coefficients, the variables u1..ud, the aliases
    f (critical stencil), fg (stencil at --gamma) and g1..gN (standard
    summable generators), with +, -, *, ^ and parentheses; juxtaposition
    multiplies.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise CliInputError("empty polynomial")
    reader = _PolyReader(tokens, d, gamma)
    value = reader.expr()
    if reader.pos != len(tokens):
        raise CliInputError("trailing input %r" % " ".join(tokens[reader.pos :]))
    if not isinstance(value, LaurentPoly):
        value = LaurentPoly.constant(d, int(value))
    return value


# -- green --------------------------------------------------------------------


def cmd_green(ns):
    d, gamma = ns.d, ns.gamma
    radius = ns.radius if ns.radius is not None else (16 if d == 2 else 8)
    out = ns.out or "green_d%d_g%d_r%d.csv" % (d, gamma, radius)
    spec = QuadratureSpec.default_for(d, gamma)
    if ns.nodes is not None:
        spec = dataclasses.replace(spec, nodes_per_axis=ns.nodes)
    table = compute_green(d, gamma, radius, spec)
    residual = fundamental_residual(table)
    residual_tol = 10.0 * table.accuracy

    lines = [
        "green table d=%d gamma=%d radius=%d method=%s" % (d, gamma, radius, table.method),
        "entry accuracy %.3e; stencil residual %.3e <= %.3e: %s"
        % (table.accuracy, residual, residual_tol, "pass" if residual <= residual_tol else "FAIL"),
    ]
    ok = residual <= residual_tol
    worst = 0.0
    span = min(ns.oracle_span, radius)
    if span >= 0:
        seen = set()
        for site in np.ndindex(*(2 * span + 1,) * d):
            site = canonical_site(tuple(int(x) - span for x in site))
            if site in seen:
                continue
            seen.add(site)
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
    _atomic_write(out, table.to_csv())
    _atomic_write(report_path, report)
    _write_manifest(
        out,
        ns,
        {
            "table": os.fspath(out),
            "report": report_path,
            "accuracy": table.accuracy,
            "stencil_residual": residual,
            "max_oracle_discrepancy": worst,
            "pass": bool(ok),
        },
    )
    print(report, end="")
    print("wrote %s and %s" % (out, report_path))
    return EXIT_OK if ok else EXIT_TOLERANCE


# -- sandpile -----------------------------------------------------------------


def cmd_stabilize(ns):
    v = _load_grid(ns.grid)
    if (v.heights < 0).any():
        raise CliInputError("stabilize needs nonnegative heights")
    stable, odometer = stabilize(v)
    out = ns.out or _stem(ns.grid) + ".stable.grid"
    odo_path = ns.odometer or _stem(ns.grid) + ".odometer.txt"
    _atomic_write(out, stable.to_text())
    odo_lines = ["# toppling counts, total_mass_lost=%d" % odometer.total_mass_lost]
    for row in odometer.counts.reshape(-1, v.window.shape[-1]):
        odo_lines.append(" ".join(str(int(x)) for x in row))
    _atomic_write(odo_path, "\n".join(odo_lines) + "\n")
    balance = int(v.heights.sum()) - int(stable.heights.sum()) - odometer.total_mass_lost
    results = {
        "stable_grid": os.fspath(out),
        "odometer": odo_path,
        "topplings": int(odometer.counts.sum()),
        "mass_lost": odometer.total_mass_lost,
        "mass_balance_defect": balance,
    }
    _write_manifest(out, ns, results)
    print(
        "stabilized in %d topplings; %d grains lost; mass balance defect %d (exact, tolerance 0)"
        % (results["topplings"], results["mass_lost"], balance)
    )
    print("wrote %s and %s" % (out, odo_path))
    return EXIT_OK if balance == 0 else EXIT_TOLERANCE


def cmd_burn(ns):
    v = _load_grid(ns.grid)
    try:
        report = burning_test(v)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
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
        _atomic_write(ns.report, "\n".join(lines) + "\n")
        _write_manifest(
            ns.report,
            ns,
            {"recurrent": report.recurrent, "rounds": rounds, "stuck": len(stuck)},
        )
        print("wrote %s" % ns.report)
    return EXIT_OK if report.recurrent else EXIT_NEGATIVE


def cmd_count(ns):
    shape = _parse_shape(ns.window)
    window = BoxWindow.from_shape(shape)
    gamma = ns.gamma
    if gamma < 2 * window.dim:
        raise CliInputError("gamma must be at least 2d")
    if ns.backend == "determinant":
        log_count = count_recurrent(window, gamma, backend="determinant")
        if window.size <= EXACT_DET_MAX_SITES:
            print("determinant count = %d (exact integer)" % toppling_determinant_exact(window, gamma))
        print("log determinant = %.12g (exact eigenvalue product, fp rounding only)" % log_count)
        return EXIT_OK
    brute = count_recurrent(window, gamma, backend="bruteforce")
    if ns.backend == "bruteforce":
        print("bruteforce count = %d (exact)" % brute)
        return EXIT_OK
    # brute force stops at gamma^|E| <= 1e7, so |E| <= 23 and the exact determinant always applies
    exact_det = toppling_determinant_exact(window, gamma)
    agree = exact_det == brute
    print("%d = %d  (bruteforce = determinant, exact comparison): %s" % (brute, exact_det, "pass" if agree else "FAIL"))
    return EXIT_OK if agree else EXIT_TOLERANCE


def cmd_entropy(ns):
    d, gamma = ns.d, ns.gamma
    sides = _parse_ints(ns.sides, "--sides")
    if any(s < 1 for s in sides):
        raise CliInputError("sides must be positive")
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
    _atomic_write(out, "\n".join(lines) + "\n")
    _write_manifest(
        out,
        ns,
        {
            "reference": reference.value,
            "reference_err": reference.err_bound,
            "estimates": {str(s): e for s, e, _ in rows},
            "csv": os.fspath(out),
        },
    )
    print("wrote %s" % out)
    return EXIT_OK


# -- xi -----------------------------------------------------------------------


def _resolve_table(ns, d, gamma):
    if getattr(ns, "table", None):
        table = _load_table(ns.table)
        if table.dim != d or table.gamma != gamma:
            raise CliInputError(
                "table %s is for d=%d gamma=%s, need d=%d gamma=%s"
                % (ns.table, table.dim, table.gamma, d, gamma)
            )
        return table
    radius = ns.radius if ns.radius is not None else (16 if d == 2 else 8)
    return compute_green(d, gamma, radius)


def _build_spec(g, table, trunc):
    try:
        return XiSpec.build(g, table, trunc)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None


def cmd_xi_apply(ns):
    v = _load_grid(ns.grid)
    table = _resolve_table(ns, v.dim, v.gamma)
    g = parse_poly(ns.g, v.dim, v.gamma)
    spec = _build_spec(g, table, ns.trunc)
    try:
        point = xi_apply(spec, v, extension=ns.extension, constant=ns.constant)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    out = ns.out or _stem(ns.grid) + ".xi.csv"
    _atomic_write(out, point.to_csv())
    largest = float(torus_distance(point.values).max()) if point.values.size else 0.0
    _write_manifest(
        out,
        ns,
        {
            "csv": os.fspath(out),
            "err": point.err,
            "max_distance_from_zero": largest,
            "multiplier": poly_label(g),
        },
    )
    print(
        "xi[%s] on %d sites: err %.3e per value; max torus distance from 0 = %.6g"
        % (poly_label(g), point.values.size, point.err, largest)
    )
    print("wrote %s" % out)
    return EXIT_OK


def _suite_window(d, side):
    lo = tuple(-(side // 2) for _ in range(d))
    return BoxWindow.from_shape((side,) * d, lo=lo)


def _suite_harmonicity(specs, window, rng, n_configs):
    gamma = specs[0].gamma
    d = specs[0].dim
    checks = []
    for spec in specs:
        worst, bound = 0.0, None
        for _ in range(n_configs):
            v = random_recurrent(window, gamma, rng)
            x = xi_apply(spec, v)
            worst = max(worst, harmonicity_residual(x, gamma))
            bound = (4 * d + 1) * x.err
        checks.append(
            (
                "harmonicity[%s]" % poly_label(spec.g),
                worst <= bound,
                "max residual %.3e <= (4d+1) err %.3e over %d configs" % (worst, bound, n_configs),
            )
        )
    return checks


def _suite_equivariance(specs, window, rng, n_configs):
    gamma = specs[0].gamma
    d = specs[0].dim
    checks = []
    for spec in specs:
        worst = 0.0
        bound = 2.0 * spec.field_err(gamma - 1)
        for _ in range(n_configs):
            v = random_recurrent(window, gamma, rng)
            shifts = [tuple(int(x) for x in rng.integers(-2, 3, size=d))]
            shifts.append((1,) + (0,) * (d - 1))
            for m in shifts:
                worst = max(worst, equivariance_residual(spec, v, m))
        checks.append(
            (
                "equivariance[%s]" % poly_label(spec.g),
                worst <= bound,
                "max shift defect %.3e <= 2 err %.3e over %d configs" % (worst, bound, n_configs),
            )
        )
    return checks


def _suite_kernel(specs, window):
    d = specs[0].dim
    h = LaurentPoly.one(d) + LaurentPoly.variable(d, 0) - LaurentPoly.variable(d, d - 1) ** 2
    checks = []
    for kind, kwargs in (
        ("constant", {"m": 3}),
        ("f_multiple", {"h": h}),
        ("periodic_family", {}),
    ):
        _, report = kernel_witness(kind, specs, window, **kwargs)
        worst = max(report.residuals.values())
        slack = min(report.err_bounds[k] - report.residuals[k] for k in report.residuals)
        checks.append(
            (
                "kernel[%s]" % kind,
                report.passed,
                "max residual %.3e, min slack to err %.3e over %d maps"
                % (worst, slack, len(report.residuals)),
            )
        )
    return checks


def _separation_pair(window, gamma, rng):
    """A recurrent config and a one-grain raise at a site below gamma - 1."""
    while True:
        v = random_recurrent(window, gamma, rng)
        candidates = np.argwhere(v.heights <= gamma - 2)
        if len(candidates):
            idx = tuple(candidates[rng.integers(len(candidates))])
            site = window.site_of(idx)
            bumped = v.heights.copy()
            bumped[idx] += 1
            return v, HeightConfig(window, gamma, bumped), site


def _suite_separation(specs, window, rng, n_pairs):
    gamma = specs[0].gamma
    d = specs[0].dim
    floor = 1.0 / (4 * d)
    worst_margin = None
    min_gap = None
    ok = True
    for _ in range(n_pairs):
        v, vp, site = _separation_pair(window, gamma, rng)
        q = BoxWindow(site, site)
        best = None
        best_gap = 0.0
        for spec in specs:
            gap = separation_check(spec, v, vp, q)
            margin = gap - (floor - 2.0 * spec.field_err(gamma - 1))
            if best is None or margin > best:
                best, best_gap = margin, gap
            if margin > 0 and gap >= floor:
                break
        ok &= best > 0
        worst_margin = best if worst_margin is None else min(worst_margin, best)
        min_gap = best_gap if min_gap is None else min(min_gap, best_gap)
    return [
        (
            "separation",
            ok,
            "min margin over %d pairs: %.4f above the 1/4d - 2 err floor (min raw gap %.4f, floor %.4f)"
            % (n_pairs, worst_margin, min_gap, floor),
        )
    ]


def _suite_additivity(specs, window, rng, n_pairs):
    gamma = specs[0].gamma
    d = specs[0].dim
    out_window = BoxWindow.centered(d, 2)
    if window.intersection(out_window) != out_window:
        raise CliInputError("suite window too small for the additivity output box")
    worst = 0.0
    ok = True
    for _ in range(n_pairs):
        v = random_recurrent(window, gamma, rng)
        vp = random_recurrent(window, gamma, rng)
        w = group_add(v, vp)
        xs_v = xi_tuple(v, specs, out_window=out_window)
        xs_vp = xi_tuple(vp, specs, out_window=out_window)
        xs_w = xi_tuple(w, specs, out_window=out_window)
        for xv, xvp, xw in zip(xs_v, xs_vp, xs_w):
            budget = xv.err + xvp.err + xw.err
            dist = point_distance(xw, point_sum(xv, xvp))
            ok &= dist <= budget
            worst = max(worst, dist / budget)
    return [
        (
            "additivity",
            ok,
            "max image mismatch over %d pairs: %.3f of the combined err budget" % (n_pairs, worst),
        )
    ]


def _suite_intertwining(specs, window, rng, n_configs):
    gamma = specs[0].gamma
    d = specs[0].dim
    h = LaurentPoly.one(d) + LaurentPoly.variable(d, 0)
    checks = []
    for spec in specs:
        gh_spec = _build_spec(spec.g * h, spec.table, None)
        worst, bound = 0.0, None
        for _ in range(n_configs):
            v = random_recurrent(window, gamma, rng)
            x_g = xi_apply(spec, v)
            rhs = poly_action(h, x_g)
            lhs = xi_apply(gh_spec, v, out_window=rhs.window)
            dist = float(torus_distance(lhs.values - rhs.values).max())
            worst = max(worst, dist)
            bound = lhs.err + rhs.err
        checks.append(
            (
                "intertwining[%s]" % poly_label(spec.g),
                worst <= bound,
                "max defect %.3e <= combined err %.3e over %d configs" % (worst, bound, n_configs),
            )
        )
    return checks


_SUITES = ("harmonicity", "equivariance", "kernel", "separation", "additivity", "intertwining")


def cmd_xi_check(ns):
    d = ns.d
    gamma = ns.gamma if ns.gamma is not None else 2 * d
    table = _resolve_table(ns, d, gamma)
    specs = standard_specs(table, ns.trunc)
    side = ns.side if ns.side is not None else (16 if d == 2 else 8)
    if side % 2 or side < 6:
        raise CliInputError("--side must be even and at least 6")
    window = _suite_window(d, side)
    rng = np.random.default_rng(ns.seed)
    names = list(_SUITES) if ns.suite == "all" else [ns.suite]
    checks = []
    for name in names:
        if name == "harmonicity":
            checks += _suite_harmonicity(specs, window, rng, ns.configs)
        elif name == "equivariance":
            checks += _suite_equivariance(specs, window, rng, ns.configs)
        elif name == "kernel":
            checks += _suite_kernel(specs, window)
        elif name == "separation":
            checks += _suite_separation(specs, window, rng, ns.pairs)
        elif name == "additivity":
            checks += _suite_additivity(specs, window, rng, ns.pairs)
        elif name == "intertwining":
            checks += _suite_intertwining(specs, window, rng, ns.configs)
    failures = []
    for label, good, detail in checks:
        print("%s %s: %s" % ("PASS" if good else "FAIL", label, detail))
        if not good:
            failures.append(label)
    if ns.out:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["check", "result", "detail"])
        for label, good, detail in checks:
            writer.writerow([label, "pass" if good else "fail", detail])
        _atomic_write(ns.out, buf.getvalue())
        _write_manifest(
            ns.out,
            ns,
            {"checks": len(checks), "failures": failures, "csv": os.fspath(ns.out)},
            seed=ns.seed,
        )
        print("wrote %s" % ns.out)
    if failures:
        print("suite failure in: %s" % ", ".join(failures))
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_xi_demo_addition(ns):
    d = ns.d
    gamma = ns.gamma if ns.gamma is not None else 2 * d
    table = _resolve_table(ns, d, gamma)
    g = parse_poly(ns.g, d, gamma)
    spec = _build_spec(g, table, ns.trunc)
    site = tuple(_parse_ints(ns.site, "--site")) if ns.site else (0,) * d
    if len(site) != d:
        raise CliInputError("--site needs %d coordinates" % d)
    out_window = BoxWindow.centered(d, 2).shifted(site)
    rng = np.random.default_rng(ns.seed)
    delta, mismatch = addition_operator_demo(spec, site, out_window, rng=rng)
    bound = spec.field_err(gamma) + spec.field_err(gamma - 1) + spec.field_err(1)
    ok = mismatch <= bound
    print(
        "grain at %s shifts xi[%s] by the translated kernel; direct-evaluation mismatch %.3e <= %.3e: %s"
        % (site, poly_label(g), mismatch, bound, "pass" if ok else "FAIL")
    )
    if ns.out:
        _atomic_write(ns.out, delta.to_csv())
        _write_manifest(
            ns.out,
            ns,
            {"csv": os.fspath(ns.out), "mismatch": mismatch, "bound": bound, "pass": bool(ok)},
            seed=ns.seed,
        )
        print("wrote %s" % ns.out)
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
        gamma = ns.gamma if ns.gamma is not None else 2 * d
        table = _resolve_table(ns, d, gamma)
        mult = multiplier_table(g, table)
        profile = decay_profile(mult.values)
        if profile.degenerate:
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
        _atomic_write(ns.out, json.dumps(results, indent=2, sort_keys=True, default=str) + "\n")
        _write_manifest(ns.out, ns, results)
        print("wrote %s" % ns.out)
    return EXIT_OK if cert.member else EXIT_NEGATIVE


# -- parser -------------------------------------------------------------------


def _add_table_options(p, with_gamma=True):
    if with_gamma:
        p.add_argument("--gamma", type=int, default=None, help="threshold (default: critical 2d)")
    p.add_argument("--radius", type=int, default=None, help="table radius (default 16 for d=2, 8 for d=3)")
    p.add_argument("--table", default=None, help="load a precomputed table CSV instead of computing")
    p.add_argument("--trunc", type=int, default=None, help="kernel truncation radius (default: table radius - deg g)")


def _build_parser():
    parser = _Parser(prog="sandharm", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version="sandharm %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("green", help="compute a fundamental-solution table and check it against the walk series")
    p.add_argument("--d", type=int, required=True, choices=(2, 3))
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--nodes", type=int, default=None, help="quadrature nodes per axis (default: preset)")
    p.add_argument("--oracle-span", type=int, default=4, help="compare sites with |n| up to this (-1 skips)")
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
    p.add_argument("--extension", choices=("zero", "constant", "periodic"), default="zero",
                   help="how the field continues outside the grid (default zero)")
    p.add_argument("--constant", type=int, default=None, help="fill value for --extension constant")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--table", default=None)
    p.add_argument("--trunc", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_xi_apply, command_path="xi apply")

    p = xsub.add_parser("check", help="run the invariant suites; exit 2 if any check fails")
    p.add_argument("--suite", choices=_SUITES + ("all",), default="all")
    p.add_argument("--d", type=int, required=True, choices=(2, 3))
    _add_table_options(p)
    p.add_argument("--side", type=int, default=None, help="window side for test configs (even)")
    p.add_argument("--configs", type=int, default=5, help="random configurations per check")
    p.add_argument("--pairs", type=int, default=10, help="pairs for separation/additivity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the check table as CSV")
    p.set_defaults(func=cmd_xi_check, command_path="xi check")

    p = xsub.add_parser("demo-addition", help="one grain shifts the image by the translated kernel")
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
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--table", default=None)
    p.add_argument("--out", default=None, help="write the certificate as JSON")
    p.set_defaults(func=cmd_ideal, command_path="ideal")

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except CliInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
