"""Lattice Green's function tables, the walk-series oracle, and entropy integrals.

The Green's function of the lattice Laplacian polynomial is computed as a
Fourier integral over the d-torus,

    w_n = int e^{-2 pi i <n,t>} / (gamma - 2 sum_j cos 2 pi t_j) dt,

with the integrand regularized by subtracting 1 from the numerator when
gamma = 2d and d = 2.  For gamma > 2d the integrand is smooth and a plain
tensor trapezoid rule is spectrally accurate.  At the critical value
gamma = 2d the integrand has an integrable singularity at t = 0, handled by
one of:

* ``polar_patch`` (default): a smooth radial bump splits the integral into
  a C-infinity torus part, evaluated by the trapezoid rule, and a small
  disc/ball around the origin, evaluated in polar or spherical coordinates
  where the integrand is smooth again;
* ``none``: the plain tensor rule with the singular node dropped, which
  converges slowly but is honestly reported by the error model.

Only the coefficients a table uses are evaluated, and without an FFT.  The
torus integrand is even in each coordinate, so the N^d trapezoid sum folds
onto the octant {0..N//2}^d and factors into per-axis cosine sums, one
matrix contraction per axis.  The patch nodes are closed under each
coordinate sign flip, so the same per-axis cosine form is exact there.

Accuracy fields come from Richardson comparison of two node counts
(N versus 2N, patch node counts doubled), scaled by a safety factor.
The independent check is the random-walk series oracle: exact
dynamic-programming walk distributions combined per axis, with tails
removed by extrapolation ladders whose spread gives the error bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .window import laplacian

BUMP_OUTER = 0.24
BUMP_INNER = 0.08

_RICHARDSON_SAFETY = 2.0


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


_TREATMENTS = ("none", "polar_patch")


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and accuracy target for the torus quadrature."""

    nodes_per_axis: int
    singularity_treatment: str = "polar_patch"
    target_abs_error: float = 1e-6

    def __post_init__(self):
        if self.nodes_per_axis < 8:
            raise ValueError("nodes_per_axis must be >= 8")
        if self.singularity_treatment not in _TREATMENTS:
            raise ValueError("unknown singularity treatment %r" % (self.singularity_treatment,))
        if not self.target_abs_error > 0:
            raise ValueError("target_abs_error must be positive")

    @classmethod
    def default_for(cls, d, gamma):
        critical = gamma == 2 * d
        nodes = 1024 if d == 2 else 128
        return cls(
            nodes_per_axis=nodes,
            singularity_treatment="polar_patch" if critical else "none",
            target_abs_error=1e-6 if critical else 1e-8,
        )


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
        ]
        R = self.radius
        for site in itertools.product(*[range(-R, R + 1)] * self.dim):
            idx = tuple(x + R for x in site)
            lines.append(",".join(str(x) for x in site) + "," + repr(float(self.values[idx])))
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
        values = np.zeros((2 * R + 1,) * d)
        seen = 0
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != d + 1:
                raise ValueError("row %r has %d fields, expected %d" % (ln, len(parts), d + 1))
            site = tuple(int(p) for p in parts[:d])
            idx = tuple(x + R for x in site)
            values[idx] = float(parts[d])
            seen += 1
        if seen != values.size:
            raise ValueError("expected %d rows, found %d" % (values.size, seen))
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
    """Symbol F(t) and |t| on the octant {0..N//2}^d of the N^d sampling grid."""
    t = np.arange(N // 2 + 1) / N
    cos_axis = np.cos(2 * np.pi * t)
    sq_axis = t * t
    F = np.full((len(t),) * d, float(gamma))
    R2 = np.zeros_like(F)
    for ax in range(d):
        sh = [1] * d
        sh[ax] = len(t)
        F = F - 2.0 * cos_axis.reshape(sh)
        R2 = R2 + sq_axis.reshape(sh)
    return F, np.sqrt(R2)


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


def _fourier_block(d, gamma, N, radius, treatment):
    """Trapezoid coefficients of the smooth part of the integrand.

    Returns A with A[n] approximating the Fourier coefficient at n, for
    0 <= n_j <= radius, of (1-bump)/F for polar_patch and of 1/F with the
    singular node dropped for none.  Both are even in each coordinate, so
    they are sampled on the octant only and folded (see ``_fold``); the
    values equal the real part of the N^d DFT.
    """
    F, rho = _octant_grid(d, gamma, N)
    G = np.zeros_like(F)
    mask = F != 0
    G[mask] = 1.0 / F[mask]
    if treatment == "polar_patch" and gamma == 2 * d:
        near = rho < BUMP_OUTER  # the bump vanishes elsewhere
        G[near] *= 1.0 - _bump(rho[near])
    return _fold(G, N, radius)


# -- singular patches --------------------------------------------------------


def _leggauss(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


def _patch_nodes(d, n_r, n_ang):
    """Quadrature nodes/weights on the bump support, polar or spherical."""
    r, wr = _leggauss(n_r, 0.0, BUMP_OUTER)
    if d == 2:
        n_th = 2 * n_ang
        th = 2 * np.pi * np.arange(n_th) / n_th
        wth = 2 * np.pi / n_th
        RR, TT = np.meshgrid(r, th, indexing="ij")
        pts = np.stack([(RR * np.cos(TT)).ravel(), (RR * np.sin(TT)).ravel()])
        jac = (RR * (wr[:, None] * wth)).ravel()
        rad = RR.ravel()
    elif d == 3:
        c, wc = np.polynomial.legendre.leggauss(n_ang)
        n_az = 2 * n_ang
        az = 2 * np.pi * np.arange(n_az) / n_az
        waz = 2 * np.pi / n_az
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
        rad = RR.ravel()
    else:
        raise ValueError("patch quadrature implemented for d in {2, 3}")
    return pts, jac, rad


def _patch_values(d, gamma, radius, n_r, n_ang):
    """Integral of bump * e^{-2 pi i <n,t>} / F over the bump support, for
    0 <= n_j <= radius.

    Expanding cos(2 pi <n,x>) into per-axis cosines and sines, every term
    holding a sine is odd in that coordinate.  The node set is closed under
    each coordinate sign flip with unchanged weights (even angle counts,
    symmetric Gauss-Legendre), so those terms cancel and the sum is exactly
    the node weights contracted with per-axis tables cos(2 pi n_j x_j).
    """
    pts, jac, rad = _patch_nodes(d, n_r, n_ang)
    F = float(gamma) - 2.0 * np.cos(2 * np.pi * pts).sum(axis=0)
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


def _table_pass(d, gamma, radius, N, treatment, fine):
    """One evaluation at a given resolution: array of w_n for 0 <= n_j <= radius."""
    A = _fourier_block(d, gamma, N, radius, treatment)
    if gamma == 2 * d:
        if treatment == "polar_patch":
            A = A + _patch_values(d, gamma, radius, *_default_patch_counts(d, fine))
        if d == 2:
            # regularized numerator e^{-2 pi i <n,t>} - 1, so w_0 = 0 exactly
            A = A - A[0, 0]
    return A


def compute_green(d, gamma, radius, spec=None):
    """Green's function table on Q_radius with a certified accuracy estimate.

    Runs the quadrature at the spec's node count and at doubled nodes; the
    returned values come from the finer pass and the accuracy field is the
    maximum discrepancy times a safety factor.  Values are mirrored from one
    representative per symmetry class, so permutation and sign-flip symmetry
    is exact.  Inputs the quadrature cannot serve, or whose fine grid
    exceeds GRID_POINT_BUDGET, are refused before any grid is built.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if gamma < 2 * d:
        raise ValueError("gamma must be at least 2d")
    if spec is None:
        spec = QuadratureSpec.default_for(d, gamma)
    N = spec.nodes_per_axis
    if N < 4 * (radius + 1):
        raise ValueError(
            "nodes_per_axis=%d too small for radius %d (need >= %d)" % (N, radius, 4 * (radius + 1))
        )
    treatment = spec.singularity_treatment
    if treatment == "polar_patch" and gamma == 2 * d and d not in (2, 3):
        raise ValueError("patch quadrature implemented for d in {2, 3}")
    _check_grid_budget(d, N)
    coarse = _table_pass(d, gamma, radius, N, treatment, fine=False)
    fine = _table_pass(d, gamma, radius, 2 * N, treatment, fine=True)
    # index of each table site's canonical representative (sorted |n_j|)
    canon = tuple(np.sort(np.abs(np.indices((2 * radius + 1,) * d) - radius), axis=0))
    values = fine[canon]
    disc = float(np.max(np.abs(fine - coarse)[canon]))
    scale = float(np.max(np.abs(values)))
    accuracy = float(_RICHARDSON_SAFETY * disc + 1e-15 * max(scale, 1.0))
    # the label predates the folded sum; table headers and their readers parse it
    method = "fft+%s[N=%d]" % (treatment, 2 * N)
    return GreenTable(d, gamma, radius, values, accuracy, method)


# -- walk-series oracle ------------------------------------------------------


@dataclass(frozen=True)
class OracleValue:
    value: float
    err_bound: float
    k_max: int


@lru_cache(maxsize=4)
def _walk_1d_table(kmax):
    """W[m, x + kmax] = P(fair +-1 walk is at x after m steps), by DP."""
    W = np.zeros((kmax + 1, 2 * kmax + 1))
    W[0, kmax] = 1.0
    for m in range(kmax):
        W[m + 1, 1:] += 0.5 * W[m, :-1]
        W[m + 1, :-1] += 0.5 * W[m, 1:]
    return W


@lru_cache(maxsize=8)
def _binom_p_table(kmax, p):
    """B[k, a] = C(k, a) p^a (1-p)^(k-a), by the Pascal recurrence."""
    B = np.zeros((kmax + 1, kmax + 1))
    B[0, 0] = 1.0
    q = 1.0 - p
    for k in range(kmax):
        B[k + 1, : k + 2] = q * B[k, : k + 2]
        B[k + 1, 1 : k + 2] += p * B[k, : k + 1]
    return B


def walk_distribution(d, n, kmax):
    """P(X_k = n), k = 0..kmax, for the simple walk on Z^d.

    Steps are dealt to axes by iterated binomial allocation and each axis
    contributes an exact 1D fair-walk factor; everything is dynamic
    programming on probabilities, so no overflow and ~1e-14 relative error.
    """
    n = tuple(int(x) for x in n)
    if len(n) != d:
        raise ValueError("site has wrong dimension")
    W = _walk_1d_table(kmax)
    cur = W[:, kmax + n[-1]] if abs(n[-1]) <= kmax else np.zeros(kmax + 1)
    axes_left = 1
    for axis in range(d - 2, -1, -1):
        axes_left += 1
        B = _binom_p_table(kmax, 1.0 / axes_left)
        col = W[:, kmax + n[axis]] if abs(n[axis]) <= kmax else np.zeros(kmax + 1)
        nxt = np.zeros(kmax + 1)
        for k in range(kmax + 1):
            a = np.arange(k + 1)
            nxt[k] = np.dot(B[k, : k + 1], col[: k + 1] * cur[k - a])
        cur = nxt
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
    """
    n = tuple(int(x) for x in n)
    if len(n) != d:
        raise ValueError("site has wrong dimension")
    if gamma < 2 * d:
        raise ValueError("gamma must be at least 2d")
    if gamma != 2 * d:
        ratio = 2 * d / float(gamma)
        k_max = min(2000, int(math.log(1e-15 * (gamma - 2 * d)) / math.log(ratio)) + 8)
        p = walk_distribution(d, n, k_max)
        weights = ratio ** np.arange(k_max + 1)
        value = float(np.dot(weights, p)) / gamma
        tail = ratio ** (k_max + 1) / (gamma - 2 * d)
        return OracleValue(value, tail + 1e-14 * max(abs(value), 1.0), k_max)
    k_max = 800 if d == 2 else 600
    if d == 2:
        p_n = walk_distribution(2, n, k_max)
        p_0 = walk_distribution(2, (0, 0), k_max)
        t = p_n - p_0
        if n == (0, 0):
            return OracleValue(0.0, 0.0, k_max)
        const = -1.0  # k = 0 term
        m = k_max // 2
        u = t[1::2][:m] + t[2::2][:m]
        csum = np.cumsum(u) + const
        Js = [max(2, m // 8), max(3, m // 4), max(4, m // 2), m]
        parts = [csum[J - 1] for J in Js]
        xs = [1.0 / J for J in Js]
        est, spread = _neville_to_zero(parts, xs)
        err = spread + 1e-13
        return OracleValue(est / 4.0, err / 4.0, k_max)
    # critical, d >= 3
    p = walk_distribution(d, n, k_max)
    m = k_max // 2
    u = p[0::2][:m] + p[1::2][:m]
    csum = np.cumsum(u)
    Js = [max(2, m // 16), max(3, m // 8), max(4, m // 4), max(5, m // 2), m]
    parts = [csum[J - 1] for J in Js]
    xs = [1.0 / math.sqrt(J) for J in Js]
    est, spread = _neville_to_zero(parts, xs)
    err = spread + 1e-13
    return OracleValue(est / (2 * d), err / (2 * d), k_max)


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

    dim: int
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
    return MultiplierTable(d, R_out, out, g.l1_norm() * table.accuracy)


@dataclass
class DecayProfile:
    """Max-norm shell statistics of a centered field and a power-law fit."""

    radius: int
    shell_max: np.ndarray
    shell_sum: np.ndarray
    exponent: float | None
    degenerate: bool
    fit_range: tuple


def decay_profile(values):
    """Shell maxima/sums by max-norm radius and a log-log decay fit.

    The fit uses shells in [radius/2, radius]; it is reported degenerate
    when fewer than two shells in that range are nonzero.
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
    lo = max(1, R // 2)
    fit_r = np.arange(lo, R + 1)
    mask = shell_max[lo : R + 1] > 0
    if mask.sum() < 2:
        return DecayProfile(R, shell_max, shell_sum, None, True, (lo, R))
    x = np.log(fit_r[mask].astype(float))
    y = np.log(shell_max[lo : R + 1][mask])
    slope = float(np.polyfit(x, y, 1)[0])
    return DecayProfile(R, shell_max, shell_sum, slope, False, (lo, R))


def tail_beyond(profile, radius):
    """Bound the l1 mass of shells with index >= radius.

    Measured shell sums are used up to the profile radius; past it, the
    last nonzero shell sum is extrapolated with the fitted shell-sum decay
    exponent softened by a +0.5 safety margin.
    """
    R = profile.radius
    radius = max(0, int(radius))
    total = float(profile.shell_sum[min(radius, R + 1) : R + 1].sum())
    lo = max(1, R // 2)
    fit_r = np.arange(lo, R + 1)
    mask = profile.shell_sum[lo : R + 1] > 0
    if mask.sum() < 2 or profile.shell_sum[R] == 0:
        return total
    x = np.log(fit_r[mask].astype(float))
    y = np.log(profile.shell_sum[lo : R + 1][mask])
    slope = float(np.polyfit(x, y, 1)[0]) + 0.5
    if slope >= -1.0:
        slope = -1.01
    last = float(profile.shell_sum[R])
    # sum_{r >= start} last * (r/R)^slope, explicit to 100R then an integral bound
    start = max(radius, R + 1)
    r = np.arange(start, max(start + 1, 100 * R))
    geom = float(np.sum((r / float(R)) ** slope))
    r_end = float(r[-1])
    geom += (r_end / float(R)) ** slope * r_end / (-slope - 1.0)
    return total + last * geom


# -- entropy -----------------------------------------------------------------


@dataclass(frozen=True)
class EntropyResult:
    value: float
    err_bound: float
    method: str


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
    F, rho = _octant_grid(d, gamma, N)
    if gamma != 2 * d:
        return _fold(np.log(F), N, 0).item()
    G = np.zeros_like(F)
    mask = F != 0
    G[mask] = np.log(F[mask])
    near = rho < BUMP_OUTER
    G[near] *= 1.0 - _bump(rho[near])
    smooth = _fold(G, N, 0).item()
    # surface of the unit circle (d = 2) or sphere (d = 3) times the radial moment
    rad = (2 * np.pi if d == 2 else 4 * np.pi) * _bump_log_moment(d - 1)
    pts, jac, radial = _patch_nodes(d, n_r, n_ang)
    Fpt = float(gamma) - 2.0 * np.cos(2 * np.pi * pts).sum(axis=0)
    u = Fpt / (4 * np.pi**2 * radial**2)
    val = float(np.sum(_bump(radial) * np.log(u) * jac))
    return smooth + rad + val


def entropy_quadrature(d, gamma, spec=None):
    """Specific entropy integral log(gamma - 2 sum cos) over the torus.

    Critical integrands get the bump split (the radial log moment is a 1D
    integral, the rest is smooth); dissipative ones use the plain tensor
    rule.  Error bound by node doubling.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if gamma < 2 * d:
        raise ValueError("gamma must be at least 2d")
    if spec is None:
        nodes = 512 if d == 2 else 64
        spec = QuadratureSpec(nodes_per_axis=nodes, singularity_treatment="polar_patch", target_abs_error=1e-5)
    if gamma == 2 * d and d not in (2, 3):
        raise ValueError("critical entropy implemented for d in {2, 3}")
    N = spec.nodes_per_axis
    _check_grid_budget(d, N)
    if d == 2:
        pr, pa = 48, 48
    else:
        pr, pa = 32, 24
    coarse = _entropy_pass(d, gamma, N, pr, pa)
    fine = _entropy_pass(d, gamma, 2 * N, 2 * pr, 2 * pa)
    err = _RICHARDSON_SAFETY * abs(fine - coarse) + 1e-14
    return EntropyResult(fine, err, "bump-split log quadrature" if gamma == 2 * d else "tensor trapezoid")
