"""Lattice Green's function tables, the walk-series oracle, and entropy integrals.

The Green's function of the lattice Laplacian polynomial is computed as a
Fourier integral over the d-torus,

    w_n = int e^{-2 pi i <n,t>} / (gamma - 2 sum_j cos 2 pi t_j) dt,

with the integrand regularized by subtracting 1 from the numerator when
gamma = 2d and d = 2.  For gamma > 2d the integrand is smooth and a plain
tensor trapezoid rule is spectrally accurate.  At the critical value
gamma = 2d the integrand has an integrable singularity at t = 0, handled by
a polar patch: a smooth radial bump splits the integral into a C-infinity
torus part, evaluated by the trapezoid rule, and a small disc/ball around
the origin, evaluated in polar or spherical coordinates where the integrand
is smooth again.

Only the coefficients a table uses are evaluated, and without an FFT.  The
torus integrand is even in each coordinate, so the N^d trapezoid sum folds
onto the octant {0..N//2}^d and factors into per-axis cosine sums, one
matrix contraction per axis; the bump is built only on the octant's corner
where it is nonzero.  The patch integrand is even in each coordinate too:
over an orbit of the coordinate sign flips the sine terms of cos(2 pi <n,t>)
cancel and the per-axis cosine products are equal, so the patch keeps one
node per orbit, weighted by the orbit's size, in the same cosine form.

Accuracy fields come from Richardson comparison of two node counts
(N versus 2N, patch node counts doubled), scaled by a safety factor.
The independent check is the random-walk series oracle: exact walk
distributions from the fair 1D walk's table, two axes at a time by the 45
degree rotation and each further axis by one vectorized binomial split,
with tails removed by extrapolation ladders whose spread gives the error
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .window import BoxWindow, laplacian, site_rows

BUMP_OUTER = 0.24
BUMP_INNER = 0.08

_RICHARDSON_SAFETY = 2.0


@dataclass(frozen=True)
class Estimate:
    """A value, a bound on its error and the method behind it, as the oracle and the entropy quadrature return."""

    value: float
    err_bound: float
    method: str


# -- smooth bump -------------------------------------------------------------


def _smoothstep(x):
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1."""
    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        b = np.where(x < 1, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return a / (a + b)


def _bump(rho):
    """Radial cutoff, 1 inside BUMP_INNER, 0 outside BUMP_OUTER."""
    return _smoothstep((BUMP_OUTER - np.asarray(rho, dtype=float)) / (BUMP_OUTER - BUMP_INNER))


# -- specs and tables --------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and accuracy target for the torus quadrature."""

    nodes_per_axis: int
    target_abs_error: float = 1e-6

    def __post_init__(self):
        if self.nodes_per_axis < 8:
            raise ValueError("nodes_per_axis must be >= 8")
        if not self.target_abs_error > 0:
            raise ValueError("target_abs_error must be positive")

    @classmethod
    def default_for(cls, d, gamma):
        critical = gamma == 2 * d
        nodes = 1024 if d == 2 else 128
        return cls(nodes_per_axis=nodes, target_abs_error=1e-6 if critical else 1e-8)


@dataclass
class GreenTable:
    """Values of the Green's function on the centered box Q_radius.

    ``values`` has shape (2 radius + 1,) * dim, index n + radius per axis.
    ``accuracy`` is an estimated absolute error bound that applies to each
    entry.  Entries are exactly invariant under coordinate permutations and
    sign flips because they are computed once per symmetry class.
    """

    dim: int
    gamma: float
    radius: int
    values: np.ndarray
    accuracy: float
    method: str

    @property
    def is_critical(self):
        return self.gamma == 2 * self.dim

    def value(self, site):
        idx = tuple(int(x) + self.radius for x in site)
        if any(i < 0 or i > 2 * self.radius for i in idx):
            raise KeyError("site %r outside table radius %d" % (site, self.radius))
        return float(self.values[idx])

    def to_csv(self):
        gamma = self.gamma
        gamma_txt = repr(int(gamma)) if float(gamma).is_integer() else repr(float(gamma))
        lines = [
            "# d=%d gamma=%s R=%d accuracy=%r method=%s"
            % (self.dim, gamma_txt, self.radius, float(self.accuracy), self.method)
        ] + site_rows(BoxWindow.centered(self.dim, self.radius), self.values)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("#"):
            raise ValueError("missing header line")
        header = lines[0][1:].strip()
        fields = {}
        for tok in header.split():
            if "=" not in tok:
                raise ValueError("bad header token %r" % tok)
            k, v = tok.split("=", 1)
            fields[k] = v
        try:
            d = int(fields["d"])
            gamma = float(fields["gamma"])
            if gamma.is_integer():
                gamma = int(gamma)
            R = int(fields["R"])
            accuracy = float(fields["accuracy"])
            method = fields.get("method", "unknown")
        except (KeyError, ValueError) as exc:
            raise ValueError("bad header: %s" % exc) from None
        if d < 1 or R < 0 or not math.isfinite(gamma) or not 0 <= accuracy < math.inf:
            raise ValueError("bad header: need d >= 1, R >= 0, a finite gamma and a finite accuracy >= 0")
        rows = lines[1:]
        for ln in rows:
            if ln.count(",") != d:
                raise ValueError("row %r has %d fields, expected %d" % (ln, ln.count(",") + 1, d + 1))
        shape = (2 * R + 1,) * d
        if len(rows) != math.prod(shape):
            raise ValueError("expected %d rows, found %d" % (math.prod(shape), len(rows)))
        # numpy's text reader parses floats as float() does, so the values are bit-identical
        parsed = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1,
                            dtype=[("site", np.int64, (d,)), ("value", float)])
        sites, entries = parsed["site"], parsed["value"]
        outside = (np.abs(sites) > R).any(axis=1)
        if outside.any():
            raise ValueError("site %r lies outside the radius-%d table" % (tuple(sites[outside][0].tolist()), R))
        index = np.ravel_multi_index(tuple((sites + R).T), shape)
        twice = np.bincount(index, minlength=len(rows))[index] > 1
        if twice.any():
            raise ValueError("site %r is listed more than once" % (tuple(sites[twice][0].tolist()),))
        bad = ~np.isfinite(entries)
        if bad.any():
            site = tuple(sites[bad][0].tolist())
            raise ValueError("value %r at site %r is not finite" % (float(entries[bad][0]), site))
        values = np.empty(shape)
        values.flat[index] = entries
        return cls(d, gamma, R, values, accuracy, method)


# -- torus grids, folded onto the symmetry octant ----------------------------

# Largest fine-pass octant grid, in points, that a table or entropy pass may
# build; one float array of this size takes 128 MiB.
GRID_POINT_BUDGET = 2**24


def _check_grid_budget(d, nodes):
    """Refuse node counts whose fine pass (2 nodes per axis) exceeds GRID_POINT_BUDGET."""
    side = nodes + 1
    if side**d > GRID_POINT_BUDGET:
        raise ValueError(
            "nodes_per_axis=%d: the fine pass needs a %d^%d octant grid, over the budget of %d points"
            % (nodes, side, d, GRID_POINT_BUDGET)
        )


def _octant_grid(d, gamma, N):
    """Symbol F(t) = gamma - 2 sum cos(2 pi t_j) on the octant {0..N//2}^d of the N^d sampling grid.

    |t| is not built here: only the bump reads it, and ``_smooth_part`` builds
    it on the corner block where the bump is nonzero.
    """
    t = np.arange(N // 2 + 1) / N
    return sum(np.meshgrid(*[-2.0 * np.cos(2 * np.pi * t)] * d, indexing="ij", sparse=True), float(gamma))


def _fold(G, N, radius):
    """Trapezoid coefficients A_n, 0 <= n_j <= radius, of an N^d grid function
    even in each coordinate, from its octant values G.

    A_n = N^-d sum_k G_k cos(2 pi <n,k>/N) over the full grid.  Folding k_j
    and N - k_j together gives the weights 1 at k_j = 0 and at the Nyquist
    node k_j = N/2 (even N only), 2 elsewhere; the sum is then a product of
    per-axis cosine sums, one (radius+1) x (N//2+1) contraction per axis.
    """
    k = np.arange(G.shape[0])
    fold = np.where((k == 0) | (2 * k == N), 1.0, 2.0) / N
    C = fold * np.cos(2 * np.pi * (np.outer(np.arange(radius + 1), k) % N) / N)
    for _ in range(G.ndim):
        G = np.tensordot(G, C, axes=([0], [1]))
    return G


def _smooth_part(d, gamma, N, radius, fn):
    """Trapezoid coefficients of the smooth part of the torus integrand fn(F).

    Returns A with A[n] approximating the Fourier coefficient at n, for
    0 <= n_j <= radius, of (1-bump) fn(F) at gamma = 2d (the polar patch
    adds the rest) and of fn(F) otherwise, with the value 0 where F = 0.
    Both are even in each coordinate, so they are sampled on the octant
    only and folded (see ``_fold``); the values equal the real part of the
    N^d DFT.
    """
    F = _octant_grid(d, gamma, N)
    G = np.zeros_like(F)
    fn(F, out=G, where=F != 0)
    if gamma == 2 * d:
        # the bump vanishes unless every t_j < BUMP_OUTER: |t| and the bump
        # are built on that corner block of the octant only
        t = np.arange(N // 2 + 1) / N
        t = t[t < BUMP_OUTER]
        rho = np.sqrt(sum(np.meshgrid(*[t * t] * d, indexing="ij", sparse=True)))
        G[(slice(0, len(t)),) * d] *= 1.0 - _bump(rho)
    return _fold(G, N, radius)


# -- singular patches --------------------------------------------------------


def _leggauss(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


def _patch_nodes(d, gamma, n_r, n_ang):
    """Nodes, weights, radii and symbol gamma - 2 sum cos(2 pi t_j) on the bump support,
    one node per orbit of the coordinate sign flips.

    Polar in d = 2, spherical in d = 3, the only dimensions the callers admit.
    The full rule, Gauss-Legendre radii, the angles pi k / n_ang for
    k < 2 n_ang (theta in d = 2, the azimuth in d = 3) and, in d = 3, n_ang
    Gauss-Legendre nodes c = cos(polar angle), is closed under each sign
    flip with unchanged weights.  Kept are k = 0..n_ang/2 and c > 0, each
    weighted by its orbit's size: 2 at k = 0 and k = n_ang/2, 4 between,
    times 2 for c.  An odd n_ang has no node at k = n_ang/2 and is refused.
    """
    if n_ang % 2:
        raise ValueError("n_ang must be even for the sign-flip fold, got %d" % n_ang)
    r, wr = _leggauss(n_r, 0.0, BUMP_OUTER)
    k = np.arange(n_ang // 2 + 1)
    az = np.pi * k / n_ang
    waz = np.where((k == 0) | (2 * k == n_ang), 2.0, 4.0) * np.pi / n_ang
    if d == 2:
        RR, TT = np.meshgrid(r, az, indexing="ij")
        pts = np.stack([(RR * np.cos(TT)).ravel(), (RR * np.sin(TT)).ravel()])
        jac = (RR * (wr[:, None] * waz)).ravel()
    else:
        c, wc = np.polynomial.legendre.leggauss(n_ang)
        upper = c > 0
        c, wc = c[upper], 2.0 * wc[upper]
        RR, CC, AA = np.meshgrid(r, c, az, indexing="ij")
        SS = np.sqrt(1.0 - CC**2)
        pts = np.stack(
            [
                (RR * SS * np.cos(AA)).ravel(),
                (RR * SS * np.sin(AA)).ravel(),
                (RR * CC).ravel(),
            ]
        )
        jac = (RR**2 * (wr[:, None, None] * wc[None, :, None] * waz)).ravel()
    return pts, jac, RR.ravel(), float(gamma) - 2.0 * np.cos(2 * np.pi * pts).sum(axis=0)


def _patch_values(d, gamma, radius, n_r, n_ang):
    """Integral of bump * e^{-2 pi i <n,t>} / F over the bump support, for
    0 <= n_j <= radius.

    Expanding cos(2 pi <n,x>) into per-axis cosines and sines, every term
    holding a sine is odd in that coordinate, so it sums to 0 over each
    orbit of the coordinate sign flips, and the sum over an orbit of
    prod_j cos(2 pi n_j x_j) is the orbit's size times one term.  So the
    full-rule sum is exactly the folded weights of ``_patch_nodes`` (one
    node per orbit, weighted by its size) contracted with per-axis tables
    cos(2 pi n_j x_j).
    """
    pts, jac, rad, F = _patch_nodes(d, gamma, n_r, n_ang)
    wts = _bump(rad) * jac / F
    n = np.arange(radius + 1)
    out = np.zeros((radius + 1) ** d)
    chunk = max(1, int(4.0e6 / (radius + 1) ** (d - 1)))
    for i in range(0, len(wts), chunk):
        C = [np.cos(2 * np.pi * np.outer(n, x[i : i + chunk])) for x in pts]
        T = C[0] * wts[i : i + chunk]
        for c in C[1:-1]:
            T = (T[:, None, :] * c[None, :, :]).reshape(-1, c.shape[1])
        out += (T @ C[-1].T).ravel()
    return out.reshape((radius + 1,) * d)


# -- table assembly ----------------------------------------------------------


def canonical_site(site):
    """Representative of the symmetry class of a site: sorted absolute values."""
    return tuple(sorted(abs(int(x)) for x in site))


def _default_patch_counts(d, fine):
    if d == 2:
        return (96, 96) if fine else (48, 48)
    return (64, 48) if fine else (40, 32)


def _table_pass(d, gamma, radius, N, fine):
    """One evaluation at a given resolution: array of w_n for 0 <= n_j <= radius."""
    A = _smooth_part(d, gamma, N, radius, np.reciprocal)
    if gamma == 2 * d:
        A = A + _patch_values(d, gamma, radius, *_default_patch_counts(d, fine))
        if d == 2:
            # regularized numerator e^{-2 pi i <n,t>} - 1, so w_0 = 0 exactly
            A = A - A[0, 0]
    return A


def _check_domain(d, gamma):
    """Refuse what the quadrature cannot serve: d < 2, gamma < 2d, or critical gamma outside d in {2, 3}."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if gamma < 2 * d:
        raise ValueError("gamma must be at least 2d")
    if gamma == 2 * d and d not in (2, 3):
        raise ValueError("patch quadrature implemented for d in {2, 3}")


def compute_green(d, gamma, radius, spec=None):
    """Green's function table on Q_radius with a certified accuracy estimate.

    Runs the quadrature at the spec's node count and at doubled nodes; the
    returned values come from the finer pass and the accuracy field is the
    maximum discrepancy times a safety factor.  Values are mirrored from one
    representative per symmetry class, so permutation and sign-flip symmetry
    is exact.  Inputs the quadrature cannot serve, or whose fine grid
    exceeds GRID_POINT_BUDGET, are refused before any grid is built.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    _check_domain(d, gamma)
    if spec is None:
        spec = QuadratureSpec.default_for(d, gamma)
    N = spec.nodes_per_axis
    if N < 4 * (radius + 1):
        raise ValueError(
            "nodes_per_axis=%d too small for radius %d (need >= %d)" % (N, radius, 4 * (radius + 1))
        )
    _check_grid_budget(d, N)
    coarse = _table_pass(d, gamma, radius, N, fine=False)
    fine = _table_pass(d, gamma, radius, 2 * N, fine=True)
    # index of each table site's canonical representative (sorted |n_j|)
    canon = tuple(np.sort(np.abs(np.indices((2 * radius + 1,) * d) - radius), axis=0))
    values = fine[canon]
    disc = float(np.max(np.abs(fine - coarse)[canon]))
    scale = float(np.max(np.abs(values)))
    accuracy = float(_RICHARDSON_SAFETY * disc + 1e-15 * max(scale, 1.0))
    # the label predates the folded sum; table headers and their readers parse it
    method = "fft+%s[N=%d]" % ("polar_patch" if gamma == 2 * d else "none", 2 * N)
    return GreenTable(d, gamma, radius, values, accuracy, method)


# -- walk-series oracle ------------------------------------------------------


@lru_cache(maxsize=4)
def _walk_1d_table(kmax):
    """W[m, x + kmax] = P(fair +-1 walk is at x after m steps), by DP; read-only, as it is shared."""
    W = np.zeros((kmax + 1, 2 * kmax + 1))
    W[0, kmax] = 1.0
    for m in range(kmax):
        W[m + 1, 1:] += 0.5 * W[m, :-1]
        W[m + 1, :-1] += 0.5 * W[m, 1:]
    W.flags.writeable = False
    return W


@lru_cache(maxsize=8)
def _binom_p_table(kmax, p):
    """B[k, a] = C(k, a) p^a (1-p)^(k-a), by the Pascal recurrence; read-only, as it is shared."""
    B = np.zeros((kmax + 1, kmax + 1))
    B[0, 0] = 1.0
    q = 1.0 - p
    for k in range(kmax):
        B[k + 1, : k + 2] = q * B[k, : k + 2]
        B[k + 1, 1 : k + 2] += p * B[k, : k + 1]
    B.flags.writeable = False
    return B


def _walk_1d(W, x):
    """P(fair +-1 walk is at x after k steps), k = 0..kmax, as a fresh array."""
    kmax = W.shape[0] - 1
    return W[:, kmax + x].copy() if abs(x) <= kmax else np.zeros(kmax + 1)


def walk_distribution(d, n, kmax):
    """P(X_k = n), k = 0..kmax, for the simple walk on Z^d, as a fresh array.

    The last two axes use the 45 degree rotation: u = x + y and v = x - y of
    the simple walk on Z^2 are independent fair +-1 walks (Spitzer,
    Principles of Random Walk), so P(X_k = (x, y)) = W[k, x + y] W[k, x - y].
    Each further axis takes a ~ Bin(k, 1/axes_left) of the steps:
    nxt[k] = sum_a B[k, a] col[a] cur[k - a], one einsum over a zero-copy
    Toeplitz view of the zero-padded cur, so no Python loop runs over k.
    Only products and sums of probabilities: no overflow, ~1e-15 relative error.
    """
    n = tuple(int(x) for x in n)
    if len(n) != d:
        raise ValueError("site has wrong dimension")
    W = _walk_1d_table(kmax)
    if d == 1:
        return _walk_1d(W, n[0])
    cur = _walk_1d(W, n[-2] + n[-1]) * _walk_1d(W, n[-2] - n[-1])
    for axes_left, x in enumerate(reversed(n[:-2]), start=3):
        B = _binom_p_table(kmax, 1.0 / axes_left)
        # T[k, a] = cur[k - a], and 0 for a > k
        T = np.lib.stride_tricks.sliding_window_view(np.concatenate([np.zeros(kmax), cur]), kmax + 1)[:, ::-1]
        cur = np.einsum("ka,ka,a->k", B, T, _walk_1d(W, x))
    return cur


def _neville_to_zero(parts, xs):
    """Polynomial extrapolation of S(x) to x = 0; returns (value, spread)."""
    tab = [list(parts)]
    n = len(parts)
    for lvl in range(1, n):
        row = []
        for i in range(n - lvl):
            x0, x1 = xs[i], xs[i + lvl]
            a, b = tab[lvl - 1][i], tab[lvl - 1][i + 1]
            row.append(b + (b - a) * x1 / (x0 - x1))
        tab.append(row)
    est = tab[-1][0]
    prev = tab[-2][0] if n >= 2 else est
    return est, abs(est - prev)


def _critical_ladder(csum, levels, x, scale):
    """The critical series from its parity-paired partial sums csum, over scale.

    The partial sums at J = m/2^levels, ..., m/2, m (m = len(csum)) are
    extrapolated to x(J) -> 0; the ladder's spread plus 1e-13 is the error.
    """
    m = len(csum)
    Js = [max(2 + i, m >> (levels - i)) for i in range(levels + 1)]
    est, spread = _neville_to_zero([csum[J - 1] for J in Js], [x(J) for J in Js])
    return Estimate(float(est / scale), float((spread + 1e-13) / scale), "walk series")


def walk_series_oracle(d, gamma, n):
    """Independent series evaluation of the Green's function at one site.

    Critical d = 2: 4 w_n = sum_{k>=0} (P(X_k = n) - P(X_k = 0)); the k = 0
    term contributes delta_{n,0} - 1.  (Three closed-form values, -1/4 at
    (1,0), -1/pi at (1,1) and 1/4 - 2/pi at (2,1), pin this convention.)
    Critical d >= 3: 2d w_n = sum_{k>=0} P(X_k = n).  Dissipative
    gamma > 2d: gamma w_n = sum_{k>=0} (2d/gamma)^k P(X_k = n), a killed
    walk with survival 2d/gamma per step.

    Tails of the critical series are removed by extrapolation: after parity
    pairing, d = 2 partial sums expand in powers of 1/J and d = 3 in odd
    powers of J^{-1/2}; the ladder spread is the reported error bound.

    Every branch returns float value and err.  d < 1, critical d = 1,
    whose series diverges because the 1D walk is recurrent, and a gamma so
    close to 2d that the dissipative series needs over 2000 steps (integer
    gamma needs at most 232 up to d = 3) are refused before any table is
    built.
    """
    n = tuple(int(x) for x in n)
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if len(n) != d:
        raise ValueError("site has wrong dimension")
    if gamma < 2 * d:
        raise ValueError("gamma must be at least 2d")
    if gamma == 2 and d == 1:
        raise ValueError("the critical series diverges in d = 1 (the walk is recurrent)")
    if gamma != 2 * d:
        ratio = 2 * d / float(gamma)
        k_max = int(math.log(1e-15 * (gamma - 2 * d)) / math.log(ratio)) + 8
        if k_max > 2000:
            raise ValueError("gamma %r is too close to 2d: the series needs %d > 2000 steps" % (gamma, k_max))
        p = walk_distribution(d, n, k_max)
        weights = ratio ** np.arange(k_max + 1)
        value = float(np.dot(weights, p)) / gamma
        tail = ratio ** (k_max + 1) / (gamma - 2 * d)
        return Estimate(value, tail + 1e-14 * max(abs(value), 1.0), "walk series")
    k_max = 800 if d == 2 else 600
    m = k_max // 2
    if d == 2:
        if n == (0, 0):
            return Estimate(0.0, 0.0, "walk series")
        t = walk_distribution(2, n, k_max) - walk_distribution(2, (0, 0), k_max)
        # the k = 0 term is -1
        return _critical_ladder(np.cumsum(t[1::2][:m] + t[2::2][:m]) - 1.0, 3, lambda J: 1.0 / J, 4.0)
    p = walk_distribution(d, n, k_max)
    return _critical_ladder(np.cumsum(p[0::2][:m] + p[1::2][:m]), 4, lambda J: 1.0 / math.sqrt(J), 2 * d)


# -- residuals, multiplier fields, decay -------------------------------------


def fundamental_residual(table):
    """Max absolute defect of (stencil * w) - delta over the interior box."""
    R = table.radius
    if R < 1:
        raise ValueError("need radius >= 1")
    res = laplacian(table.values, float(table.gamma))[(slice(1, -1),) * table.dim]
    res[(R - 1,) * table.dim] -= 1.0
    return float(np.max(np.abs(res)))


@dataclass
class MultiplierTable:
    """Convolution g* . w restricted to the box where the table supports it."""

    radius: int
    values: np.ndarray
    entry_error: float


def multiplier_table(g, table):
    """Field v_n = sum_k g_k w_{n+k} on Q_{R - deg g}.

    The involution is built in: convolving with g* against the table equals
    this shifted sum.  Each entry inherits l1(g) times the table accuracy.
    """
    if g.dim != table.dim:
        raise ValueError("dimension mismatch")
    if not g:
        raise ValueError("zero multiplier")
    deg = g.max_degree()
    R_out = table.radius - deg
    if R_out < 0:
        raise ValueError("table radius %d too small for degree %d" % (table.radius, deg))
    d = table.dim
    size = 2 * R_out + 1
    out = np.zeros((size,) * d)
    for k, c in g.terms.items():
        idx = tuple(
            slice(table.radius + kk - R_out, table.radius + kk + R_out + 1) for kk in k
        )
        out += c * table.values[idx]
    return MultiplierTable(R_out, out, g.l1_norm() * table.accuracy)


@dataclass
class DecayProfile:
    """Max-norm shell sums of a centered field and the shell maxima's decay exponent (None when degenerate)."""

    radius: int
    shell_sum: np.ndarray
    exponent: float | None
    fit_range: tuple


def _log_log_slope(shells, R):
    """Log-log slope of the nonzero shells r in [R/2, R]; None when fewer than two are nonzero."""
    lo = max(1, R // 2)
    fit_r = np.arange(lo, R + 1)
    mask = shells[lo : R + 1] > 0
    if mask.sum() < 2:
        return None
    x = np.log(fit_r[mask].astype(float))
    y = np.log(shells[lo : R + 1][mask])
    return float(np.polyfit(x, y, 1)[0])


def decay_profile(values):
    """Shell sums by max-norm radius and a log-log decay fit of the shell maxima.

    The fit uses shells in [radius/2, radius]; it is degenerate, with
    exponent None, when fewer than two shells in that range are nonzero.
    """
    values = np.asarray(values)
    d = values.ndim
    side = values.shape[0]
    R = (side - 1) // 2
    idx = [np.abs(np.arange(side) - R) for _ in range(d)]
    shell_index = np.zeros(values.shape, dtype=int)
    for ax in range(d):
        sh = [1] * d
        sh[ax] = side
        shell_index = np.maximum(shell_index, idx[ax].reshape(sh))
    flat_shell = shell_index.ravel()
    flat_abs = np.abs(values).ravel()
    shell_max = np.zeros(R + 1)
    shell_sum = np.zeros(R + 1)
    np.maximum.at(shell_max, flat_shell, flat_abs)
    np.add.at(shell_sum, flat_shell, flat_abs)
    return DecayProfile(R, shell_sum, _log_log_slope(shell_max, R), (max(1, R // 2), R))


def tail_beyond(profile):
    """Bound the l1 mass of the shells beyond the profile radius.

    The last shell sum is extrapolated with the fitted shell-sum decay
    exponent softened by a +0.5 safety margin; the bound is 0 when that
    shell is empty or the fit is degenerate.
    """
    R = profile.radius
    slope = _log_log_slope(profile.shell_sum, R)
    last = float(profile.shell_sum[R])
    if slope is None or last == 0:
        return 0.0
    slope += 0.5
    if slope >= -1.0:
        slope = -1.01
    # sum_{r > R} last * (r/R)^slope, explicit to 100R then an integral bound
    r = np.arange(R + 1, max(R + 2, 100 * R))
    geom = float(np.sum((r / float(R)) ** slope))
    r_end = float(r[-1])
    geom += (r_end / float(R)) ** slope * r_end / (-slope - 1.0)
    return last * geom


# -- entropy -----------------------------------------------------------------


def _bump_log_moment(p):
    """Radial moment int_0^BUMP_OUTER bump(r) 2 log(2 pi r) r^p dr.

    On [0, BUMP_INNER] the bump is 1 and the integral has the closed form
    2 I^(p+1)/(p+1) (log(2 pi I) - 1/(p+1)); on the ramp the integrand is
    smooth with all derivatives vanishing at both ends, so 64 Gauss-Legendre
    nodes reach rounding level.
    """
    inner = BUMP_INNER
    exact = 2.0 * inner ** (p + 1) / (p + 1) * (math.log(2 * np.pi * inner) - 1.0 / (p + 1))
    r, w = _leggauss(64, BUMP_INNER, BUMP_OUTER)
    return exact + float(np.sum(w * _bump(r) * 2.0 * np.log(2 * np.pi * r) * r**p))


def _entropy_pass(d, gamma, N, n_r, n_ang):
    smooth = _smooth_part(d, gamma, N, 0, np.log).item()
    if gamma != 2 * d:
        return smooth
    # surface of the unit circle (d = 2) or sphere (d = 3) times the radial moment
    rad = (2 * np.pi if d == 2 else 4 * np.pi) * _bump_log_moment(d - 1)
    _, jac, radial, F = _patch_nodes(d, gamma, n_r, n_ang)
    u = F / (4 * np.pi**2 * radial**2)
    val = float(np.sum(_bump(radial) * np.log(u) * jac))
    return smooth + rad + val


def entropy_quadrature(d, gamma):
    """Specific entropy integral log(gamma - 2 sum cos) over the torus.

    Critical integrands get the bump split (the radial log moment is a 1D
    integral, the rest is smooth); dissipative ones use the plain tensor
    rule.  Error bound by node doubling.
    """
    _check_domain(d, gamma)
    if d == 2:
        N, pr, pa = 512, 48, 48
    else:
        N, pr, pa = 64, 32, 24
    _check_grid_budget(d, N)
    coarse = _entropy_pass(d, gamma, N, pr, pa)
    fine = _entropy_pass(d, gamma, 2 * N, 2 * pr, 2 * pa)
    err = _RICHARDSON_SAFETY * abs(fine - coarse) + 1e-14
    return Estimate(fine, err, "bump-split log quadrature" if gamma == 2 * d else "tensor trapezoid")
