"""The benchmark's workloads: seeded inputs, one timed pass, and the checks on every output.

A workload's constructor is its set-up: it builds every input from the seed
(the library receives only those inputs) and writes the files a pass reads.
``run_pass`` sends the workload's tasks, one after another, through a
``Pass``, which times each task and records the checks that failed.

Each check compares an output with a reference that does not come from the
code under test: closed forms and Bessel-integral values for the entropy, a
stencil identity written here for mass balance, a determinant computed here,
the walk-series oracle for tables, recurrence known by construction, the
expected exit code of each request, and the first pass's bytes for every
later pass.  Library functions are looked up on their modules at call time,
so a traced run sees every call.
"""

import hashlib
import io
import itertools
import json
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from scipy import integrate, special

from sandharm import cli, green, sandpile
from sandharm.sandpile import HeightConfig
from sandharm.window import BoxWindow


class Pass:
    """Runs one pass's tasks in order, timing each and collecting its failed checks."""

    def __init__(self, tracer=None):
        self.latencies = []
        self.failures = []
        self.cert_errs = [0.0]
        self.bytes_written = 0
        self._problems = []
        self._tracer = tracer

    def run(self, name, fn, *args):
        """Time ``fn(*args)`` as one task; a raise fails the task and the pass goes on."""
        self._problems = []
        if self._tracer is not None:
            self._tracer.task = len(self.latencies)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the benchmark must report a raising operation, not stop
            result = None
            self._problems.append("raised %s: %s" % (type(exc).__name__, exc))
        self.latencies.append(time.perf_counter() - start)
        if self._problems:
            self.failures.append("%s: %s" % (name, "; ".join(self._problems)))
        return result

    def check(self, ok, detail):
        if not ok:
            self._problems.append(detail)

    def cert(self, err):
        """Record a certified error bound the library attached to an output."""
        self.cert_errs.append(float(err))


# -- references written here, independent of the library ---------------------


def neighbour_sum(a):
    """Sum of the 2d nearest-neighbour values of every site, zero outside the array."""
    padded = np.pad(a, 1)
    core = tuple(slice(1, -1) for _ in range(a.ndim))
    out = np.zeros_like(a)
    for ax in range(a.ndim):
        for step in (-1, 1):
            idx = list(core)
            idx[ax] = slice(1 + step, a.shape[ax] + 1 + step)
            out += padded[tuple(idx)]
    return out


def check_toppling(p, initial, final, counts, lost, gamma):
    """Exact identity final = initial - gamma*counts + neighbour counts, stability and mass lost."""
    p.check(np.array_equal(final, initial - gamma * counts + neighbour_sum(counts)), "final != initial - L counts")
    p.check(bool(((final >= 0) & (final < gamma)).all()), "final configuration not stable")
    expected_lost = int(gamma * counts.sum() - neighbour_sum(counts).sum())
    p.check(lost == expected_lost, "mass lost %d, stencil says %d" % (lost, expected_lost))
    p.check(int(initial.sum()) - int(final.sum()) == expected_lost, "grains not conserved")


def entropy_reference(d):
    """h_d = int log(2d - 2 sum cos) over the torus, as the 1D integral

        int_0^inf (e^-t - (e^-2t I0(2t))^d) / t dt,

    with the tail beyond 1e6 taken from the leading asymptote (4 pi t)^(-d/2).
    Returns (value, error of this evaluation).
    """

    def f(t):
        return (math.exp(-t) - special.i0e(2.0 * t) ** d) / t if t > 0 else 0.0

    edges = (0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)
    value, err = 0.0, 0.0
    for a, b in zip(edges, edges[1:]):
        part, part_err = integrate.quad(f, a, b, limit=200, epsabs=1e-14, epsrel=1e-13)
        value += part
        err += part_err
    tail = -((4 * math.pi) ** (-d / 2)) * edges[-1] ** (-d / 2) / (d / 2)
    # the next asymptotic term is smaller than the leading one by 1/(16 t)
    return value + tail, err + abs(tail) / 1e6 + 1e-13


def exact_det(mat):
    """Integer determinant by fraction-free elimination, written independently of the library."""
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    prev, sign = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def toppling_det(shape, gamma):
    """det of gamma I - adjacency on a box, by exact elimination."""
    sites = list(itertools.product(*(range(s) for s in shape)))
    pos = {s: i for i, s in enumerate(sites)}
    mat = [[0] * len(sites) for _ in sites]
    for s, i in pos.items():
        mat[i][i] = gamma
        for ax in range(len(shape)):
            for step in (-1, 1):
                j = pos.get(s[:ax] + (s[ax] + step,) + s[ax + 1 :])
                if j is not None:
                    mat[i][j] = -1
    return exact_det(mat)


def log_toppling_det(shape, gamma):
    """log det of the box toppling matrix from its eigenvalues gamma - 2 sum cos(pi k/(s+1))."""
    axes = [2.0 * np.cos(np.pi * np.arange(1, s + 1) / (s + 1)) for s in shape]
    eig = float(gamma) - sum(np.meshgrid(*axes, indexing="ij"))
    return float(np.log(eig).sum())


def read_grid(path):
    """Heights and gamma of a grid file (header ``d gamma s1 .. sd``, then rows)."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip() and not ln.startswith("#")]
    head = [int(x) for x in lines[0].split()]
    rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    return head[1], np.array(rows, dtype=np.int64).reshape(head[2:])


def manifested(path):
    """An output file and the JSON run manifest the CLI writes beside it."""
    return [path, path + ".manifest.json"]


def write_grid(path, heights, gamma):
    rows = heights.reshape(-1, heights.shape[-1])
    head = "%d %d %s" % (heights.ndim, gamma, " ".join(str(s) for s in heights.shape))
    with open(path, "w") as fh:
        fh.write("\n".join([head] + [" ".join(str(int(x)) for x in row) for row in rows]) + "\n")


# -- tables -------------------------------------------------------------------


class Tables:
    """Green's tables with the ``sandharm green`` checks, then the critical entropy integrals.

    FFT-only dissipative tables sit beside critical tables dominated by the
    patch quadrature, so an FFT gain and a patch gain show up separately; the
    d=3 fine grid (256^3) sets the memory peak.  The seed picks each
    dimension's dissipative threshold from 2d+1..2d+3; the cost of a table
    does not depend on it.
    """

    name = "tables"
    nominal_pass_s = 7.0

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        g2, g3 = (int(2 * d + 1 + rng.integers(0, 3)) for d in (2, 3))
        self.tables = ((2, 4, 16), (2, g2, 16), (3, 6, 8), (3, g3, 8))
        self.entropy_refs = {d: entropy_reference(d) for d in (2, 3)}

    def run_pass(self, p):
        for d, gamma, radius in self.tables:
            p.run("green d=%d gamma=%d r=%d" % (d, gamma, radius), self._table, p, d, gamma, radius)
        for d in (2, 3):
            p.run("entropy d=%d" % d, self._entropy, p, d)

    @staticmethod
    def _table(p, d, gamma, radius):
        table = green.compute_green(d, gamma, radius)
        p.cert(table.accuracy)
        target = green.QuadratureSpec.default_for(d, gamma).target_abs_error
        p.check(table.accuracy <= target, "accuracy %.3e above the spec target %.1e" % (table.accuracy, target))
        tol = 10.0 * table.accuracy
        residual = green.fundamental_residual(table)
        p.check(residual <= tol, "stencil residual %.3e > 10 accuracy %.3e" % (residual, tol))
        seen = set()
        for site in itertools.product(range(-4, 5), repeat=d):
            site = green.canonical_site(site)
            if site in seen:
                continue
            seen.add(site)
            oracle = green.walk_series_oracle(d, gamma, site)
            diff = abs(table.value(site) - oracle.value)
            p.check(diff <= oracle.err_bound + tol, "w%s off the walk series by %.3e" % (site, diff))

    def _entropy(self, p, d):
        result = green.entropy_quadrature(d, 2 * d)
        p.cert(result.err_bound)
        p.check(result.err_bound <= 1e-5, "entropy err %.3e above the 1e-5 target" % result.err_bound)
        ref, ref_err = self.entropy_refs[d]
        gap = abs(result.value - ref)
        p.check(gap <= result.err_bound + ref_err, "entropy d=%d off the Bessel integral by %.3e" % (d, gap))


# -- sandpile-bulk ------------------------------------------------------------


class SandpileBulk:
    """Sandpile dynamics on large arrays: sampling, group addition, a single pile, correction, burns.

    Scaled down from the largest baseline rows (256^2 stabilize, 2^17 pile,
    1024^2 burn) so a pass takes seconds; green, harmonic and cli are not called.
    """

    name = "sandpile-bulk"
    nominal_pass_s = 7.0

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.sample_seed = int(rng.integers(2**63))
        self.w128 = BoxWindow.from_shape((128, 128))
        self.w32 = BoxWindow.from_shape((32, 32, 32))
        self.pile = HeightConfig.delta(BoxWindow.centered(2, 64), 4, (0, 0), 2**15)
        self.all_max = HeightConfig.all_max(BoxWindow.from_shape((512, 512)), 4)
        self.M = 30
        field_window = BoxWindow.centered(2, self.M + 1)
        self.signed = HeightConfig(field_window, 4, rng.integers(-3, 8, size=field_window.shape))

    def run_pass(self, p):
        rng = np.random.default_rng(self.sample_seed)  # every pass sees the same samples
        a = p.run("random_recurrent 128^2", self._sample, p, self.w128, 4, rng)
        b = p.run("random_recurrent 128^2", self._sample, p, self.w128, 4, rng)
        c = p.run("random_recurrent 32^3", self._sample, p, self.w32, 6, rng)
        s = p.run("group_add 128^2", self._add, p, a, b)
        pile = p.run("stabilize pile 2^15", self._stabilize, p, self.pile)
        corrected = p.run("correct_to_recurrent M=30", self._correct, p, self.signed, self.M)
        # thirteen tasks a pass: with an odd pass count the median task is one
        # sample inside a block of like tasks, not the midpoint of two kinds
        reads = (("a", a), ("b", b), ("32^3", c), ("sum", s), ("corrected", corrected), ("all-max 512^2", self.all_max))
        for name, v in reads:
            p.run("burning_test " + name, self._burn_recurrent, p, v)
        p.run("burning_test pile", self._burn_certified, p, pile)

    @staticmethod
    def _sample(p, window, gamma, rng):
        v = sandpile.random_recurrent(window, gamma, rng)
        p.check(bool(((v.heights >= 0) & (v.heights < gamma)).all()), "sample not stable")
        return v

    @staticmethod
    def _add(p, a, b):
        s = sandpile.group_add(a, b)
        p.check(bool(((s.heights >= 0) & (s.heights < s.gamma)).all()), "sum not stable")
        return s

    @staticmethod
    def _stabilize(p, v):
        stable, odometer = sandpile.stabilize(v)
        check_toppling(p, v.heights, stable.heights, odometer.counts, odometer.total_mass_lost, v.gamma)
        return stable

    @staticmethod
    def _correct(p, v, M):
        h = sandpile.correct_to_recurrent(v, M)
        inner = BoxWindow.centered(v.dim, M)
        p.check(all(site in inner for site in h.terms), "h has support outside Q_M")
        coeffs = np.zeros(v.window.shape, dtype=np.int64)
        for site, c in h.terms.items():
            coeffs[tuple(x - lo for x, lo in zip(site, v.window.lo))] = c
        two_d = 2 * v.dim
        on_inner = tuple(slice(lo - vlo, hi - vlo + 1) for lo, hi, vlo in zip(inner.lo, inner.hi, v.window.lo))
        corrected = (v.heights + two_d * coeffs - neighbour_sum(coeffs))[on_inner]
        p.check(bool(((corrected >= 0) & (corrected < two_d)).all()), "v + h f not stable on Q_M")
        return HeightConfig(inner, two_d, corrected)  # its burning test is a task of its own

    @staticmethod
    def _burn_recurrent(p, v):
        """Outputs of random_recurrent, group_add and correct_to_recurrent, and all-max, are recurrent."""
        p.check(sandpile.burning_test(v).recurrent, "recurrent configuration failed the burning test")

    @staticmethod
    def _burn_certified(p, v):
        """A pile has no known answer, so check the report's own certificate.

        A burned site at round r holds at least as many grains as it has
        neighbours still unburned at round r; every stuck site holds fewer
        grains than it has stuck neighbours (a forbidden subconfiguration).
        """
        report = sandpile.burning_test(v)
        rounds = np.full(v.window.shape, np.iinfo(np.int64).max, dtype=np.int64)
        lo = np.array(v.window.lo)
        for r, site in report.burn_order:
            rounds[tuple(np.array(site) - lo)] = r
        stuck = rounds == np.iinfo(np.int64).max
        p.check(report.recurrent == (not stuck.any()), "burn order and verdict disagree")
        p.check(int(stuck.sum()) == len(report.stuck_set), "stuck set and burn order disagree")
        padded = np.pad(rounds, 1, constant_values=-1)
        later = np.zeros_like(rounds)
        for ax in range(v.dim):
            for step in (-1, 1):
                idx = [slice(1, -1)] * v.dim
                idx[ax] = slice(1 + step, v.window.shape[ax] + 1 + step)
                later += padded[tuple(idx)] >= rounds
        burned_ok = (v.heights >= later)[~stuck].all()
        p.check(bool(burned_ok), "a site burned before enough neighbours had")
        stuck_nbrs = neighbour_sum(stuck.astype(np.int64))
        p.check(bool((v.heights < stuck_nbrs)[stuck].all()), "stuck set is not forbidden")


# -- cli-requests -------------------------------------------------------------


class CliRequests:
    """README-style commands run in-process through ``sandharm.cli.main`` on small inputs.

    harmonic, laurent and cli do most of their work here; sandpile runs only
    on tiny windows, where per-call overhead matters more than array
    throughput, the opposite use from sandpile-bulk.  green runs in set-up
    (building the two tables) and in the entropy request.
    """

    name = "cli-requests"
    nominal_pass_s = 4.0

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.dir = workdir
        t2, t3 = self.path("t2.csv"), self.path("t3.csv")
        for path, (d, gamma, radius) in ((t2, (2, 4, 16)), (t3, (3, 6, 8))):
            with open(path, "w") as fh:
                fh.write(green.compute_green(d, gamma, radius).to_csv())
        for name, shape, gamma in (("g64", (64, 64), 4), ("g16", (16, 16, 16), 6)):
            # all-max plus grains stabilizes to a recurrent configuration
            write_grid(self.path(name + ".grid"), rng.integers(0, gamma, size=shape) + gamma - 1, gamma)
        forbidden = rng.integers(0, 4, size=(32, 32))
        i, j = (int(x) for x in rng.integers(0, 31, size=2))
        forbidden[i, j] = forbidden[i, j + 1] = 0  # two adjacent empty sites never burn
        write_grid(self.path("forbidden.grid"), forbidden, 4)
        self.entropy_ref = entropy_reference(2)
        self.log_det_16 = log_toppling_det((16, 16), 4)
        self.dets = {shape: toppling_det(shape, 4) for shape in ((2, 2), (2, 3), (3, 3))}
        self.first = {}

        suite_seed = str(int(rng.integers(2**31)))
        self.requests = []
        for d, table in ((2, t2), (3, t3)):
            for suite in ("harmonicity", "equivariance", "kernel", "separation", "additivity", "intertwining"):
                out = self.path("check_d%d_%s.csv" % (d, suite))
                argv = ["xi", "check", "--d", str(d), "--suite", suite, "--table", table, "--seed", suite_seed]
                self._add(argv + ["--out", out], 0, manifested(out))
        for name in ("g64", "g16"):
            grid, stable, odo = self.path(name + ".grid"), self.path(name + ".stable"), self.path(name + ".odo")
            argv = ["sandpile", "stabilize", "--grid", grid, "--out", stable, "--odometer", odo]
            self._add(argv, 0, manifested(stable) + [odo], self._verify_stabilize, grid, stable, odo)
        for name in ("g64.stable", "g16.stable", "forbidden.grid"):
            report = self.path(name + ".burn")
            self._add(["sandpile", "burn", "--grid", self.path(name), "--report", report],
                      1 if name == "forbidden.grid" else 0, manifested(report))
        for name, table in (("g64", t2), ("g16", t3)):
            out = self.path(name + ".xi.csv")
            argv = ["xi", "apply", "--grid", self.path(name + ".stable"), "--g", "g1", "--table", table]
            self._add(argv + ["--out", out], 0, manifested(out), self._verify_apply, out)
        for d, table in ((2, t2), (3, t3)):
            out = self.path("demo_d%d.csv" % d)
            site = ",".join(["0"] * d)
            argv = ["xi", "demo-addition", "--d", str(d), "--g", "g1", "--site", site, "--table", table]
            self._add(argv + ["--seed", suite_seed, "--out", out], 0, manifested(out))
        for shape in ((2, 2), (2, 3), (3, 3)):
            self._add(["sandpile", "count", "--window", "%dx%d" % shape, "--gamma", "4", "--backend", "both"], 0, [],
                      self._verify_count, shape)
        self._add(["sandpile", "count", "--window", "16x16", "--gamma", "4", "--backend", "determinant"], 0, [],
                  self._verify_determinant)
        out = self.path("entropy.csv")
        argv = ["sandpile", "entropy", "--d", "2", "--gamma", "4", "--sides", "8,16,32", "--out", out]
        self._add(argv, 0, manifested(out), self._verify_entropy, out)
        for k, (poly, d, code, extra) in enumerate(
            (
                ("(1-u1)^3", 2, 0, []),
                ("g2", 3, 0, []),
                ("1-u1", 2, 1, []),  # not in the ideal
                ("(1-u1)^3", 2, 0, ["--profile", "--table", t2]),
                ("g1", 3, 0, ["--profile", "--table", t3]),
            )
        ):
            out = self.path("ideal_%d.json" % k)
            self._add(["ideal", "--poly", poly, "--d", str(d)] + extra + ["--out", out], code, manifested(out))

    def path(self, name):
        return os.path.join(self.dir, name)

    def _add(self, argv, code, outputs, verify=None, *args):
        """Queue a request with its expected exit code and the files it must write."""
        self.requests.append((argv, code, outputs, verify, args))

    def run_pass(self, p):
        for n, request in enumerate(self.requests):
            p.run(" ".join(request[0][:2]), self._request, p, n, *request)

    def _request(self, p, n, argv, code, outputs, verify, args):
        for path in outputs:
            if os.path.exists(path):
                os.unlink(path)
        text = io.StringIO()
        with redirect_stdout(text), redirect_stderr(text):
            got = cli.main(argv)
        stdout = text.getvalue()
        p.check(got == code, "exit %s, expected %d: %s" % (got, code, stdout.strip()[-200:]))
        digest = hashlib.sha256(stdout.encode())
        for path in outputs:
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(data)
            p.bytes_written += len(data)
        first = self.first.setdefault(n, digest.hexdigest())
        p.check(first == digest.hexdigest(), "output bytes differ from the first pass")
        if verify is not None:
            verify(p, stdout, *args)

    @staticmethod
    def _verify_stabilize(p, stdout, grid, stable, odo):
        gamma, initial = read_grid(grid)
        _, final = read_grid(stable)
        with open(odo) as fh:
            head = fh.readline()
        lost = int(head.rsplit("=", 1)[1])
        counts = np.loadtxt(odo, dtype=np.int64, comments="#", ndmin=2).reshape(initial.shape)
        check_toppling(p, initial, final, counts, lost, gamma)

    @staticmethod
    def _verify_apply(p, stdout, out):
        with open(out + ".manifest.json") as fh:
            err = json.load(fh)["results"]["err"]
        p.check(math.isfinite(err) and err >= 0, "xi apply err %r" % err)
        p.cert(err)

    def _verify_count(self, p, stdout, shape):
        brute = int(stdout.split()[0])
        p.check(brute == self.dets[shape], "bruteforce %d != determinant %d" % (brute, self.dets[shape]))
        if shape == (2, 2):
            p.check(brute == 192, "2x2 gamma=4 count %d != 192" % brute)

    def _verify_determinant(self, p, stdout):
        lines = dict(ln.split(" = ", 1) for ln in stdout.splitlines() if " = " in ln)
        exact = int(lines["determinant count"].split()[0])
        p.check(abs(math.log(exact) - self.log_det_16) <= 1e-9 * self.log_det_16, "16x16 determinant off")
        logged = float(lines["log determinant"].split()[0])
        p.check(abs(logged - self.log_det_16) <= 1e-9 * self.log_det_16, "16x16 log determinant off")

    def _verify_entropy(self, p, stdout, out):
        with open(out + ".manifest.json") as fh:
            results = json.load(fh)["results"]
        ref, ref_err = self.entropy_ref
        gap = abs(results["reference"] - ref)
        p.cert(results["reference_err"])
        p.check(gap <= results["reference_err"] + ref_err, "entropy reference off by %.3e" % gap)


WORKLOADS = {w.name: w for w in (Tables, SandpileBulk, CliRequests)}
