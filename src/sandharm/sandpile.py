"""Abelian sandpile dynamics on finite box windows.

A height configuration assigns an integer number of grains to each site of a
box window.  Sites holding at least ``gamma`` grains topple, sending one
grain to each of the 2d nearest lattice neighbours; grains sent outside the
window vanish (open boundary), and for gamma > 2d each toppling additionally
dissipates gamma - 2d grains.  Stabilization is order-independent (the
abelian property), and its odometer is the least nonnegative integer field
whose toppling leaves the configuration stable (least action, Fey-Levine-
Peres).  ``stabilize`` uses both: it topples a provable lower bound on the
odometer in one step (the continuous solve L^-1 (h - (gamma - 1)) by DST-I),
finishes with bulk sweeps, and certifies minimality with a burning test on
the odometer's support, untoppling any stuck set.  The sweeps run in int32
whenever a bound on the odometer, proved from the input and the head start,
keeps every value they produce below 2^30, and in int64 otherwise; integer
arithmetic that cannot overflow is exact, so both give the same result.
``stabilize_serial``, which topples one site at a time, is kept for
randomized cross-checks.

Recurrent configurations are characterized by the burning test: repeatedly
remove every site whose height is at least its count of not-yet-removed
neighbours; the configuration is recurrent exactly when all sites burn.
The burning kernel returns each site's burn round as an int array and,
after the first round, rechecks only the neighbours of the sites that
burnt in the round before, deduplicated without a sort.  It works in int32
on heights clipped to [-1, 2d], which is exact because a site's count of
unburnt neighbours lies in [0, 2d].  The number of recurrent configurations
equals the determinant of the toppling matrix, computed here
exactly (fraction-free elimination confined to the matrix's band, with the
box laid out longest axis first) or in the log domain through the exact
eigenvalues available on box windows.

The correction operator turns an arbitrary bounded integer field into one
whose restriction to a centered box is recurrent by adding a multiple of
the lattice Laplacian polynomial, following a two-phase scheme: first
subtract at sites holding 2d or more, then add rounds of 0/1 indicator
polynomials supported on the stuck set until the burning test passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft, ndimage

from .laurent import LaurentPoly, laplacian_poly
from .window import BoxWindow, laplacian, neighbour_sum


# -- height configurations ---------------------------------------------------


@dataclass
class HeightConfig:
    """Integer heights on a box window, with the toppling threshold gamma.

    Heights may exceed gamma - 1 (unstable) and, where an operation
    explicitly permits, go negative.  ``stable`` means every height lies in
    [0, gamma - 1].
    """

    window: BoxWindow
    gamma: int
    heights: np.ndarray

    def __post_init__(self):
        if self.gamma < 2 * self.window.dim:
            raise ValueError("gamma must be at least 2d")
        arr = np.asarray(self.heights)
        if arr.shape != self.window.shape:
            raise ValueError(
                "heights shape %s does not match window shape %s" % (arr.shape, self.window.shape)
            )
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("heights must be integers")
        self.heights = arr.astype(np.int64)

    @property
    def dim(self):
        return self.window.dim

    @property
    def is_stable(self):
        return bool((self.heights >= 0).all() and (self.heights <= self.gamma - 1).all())

    def copy(self):
        return HeightConfig(self.window, self.gamma, self.heights.copy())

    def height_at(self, site):
        return int(self.heights[self.window.index_of(site)])

    @classmethod
    def constant(cls, window, gamma, value):
        return cls(window, gamma, np.full(window.shape, int(value), dtype=np.int64))

    @classmethod
    def all_max(cls, window, gamma):
        return cls.constant(window, gamma, gamma - 1)

    @classmethod
    def delta(cls, window, gamma, site, amount):
        h = np.zeros(window.shape, dtype=np.int64)
        h[window.index_of(site)] = int(amount)
        return cls(window, gamma, h)

    def to_text(self):
        """Grid text form: ``d gamma s1 ... sd`` then rows of heights.

        For d >= 3 the leading axes are flattened into blocks of rows; the
        window's absolute position is not stored.
        """
        dims = " ".join(str(s) for s in self.window.shape)
        lines = ["%d %d %s" % (self.dim, self.gamma, dims)]
        flat = self.heights.reshape(-1, self.window.shape[-1])
        for row in flat:
            lines.append(" ".join(str(int(x)) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        rows = [ln.strip() for ln in text.splitlines()]
        rows = [ln for ln in rows if ln and not ln.startswith("#")]
        if not rows:
            raise ValueError("empty grid text")
        head = rows[0].split()
        if len(head) < 3:
            raise ValueError("header must be 'd gamma s1 ... sd'")
        d = int(head[0])
        gamma = int(head[1])
        shape = tuple(int(t) for t in head[2:])
        if len(shape) != d:
            raise ValueError("header lists %d sizes for dimension %d" % (len(shape), d))
        body = [[int(t) for t in ln.split()] for ln in rows[1:]]
        expected_rows = int(np.prod(shape[:-1]))
        if len(body) != expected_rows:
            raise ValueError("expected %d height rows, found %d" % (expected_rows, len(body)))
        for ln in body:
            if len(ln) != shape[-1]:
                raise ValueError("rows must have %d entries" % shape[-1])
        heights = np.array(body, dtype=np.int64).reshape(shape)
        window = BoxWindow.from_shape(shape)
        return cls(window, gamma, heights)


@dataclass
class Odometer:
    """Per-site toppling counts plus the total number of grains lost.

    ``total_mass_lost`` counts every grain that left the system: those sent
    across the window boundary and, for gamma > 2d, the gamma - 2d grains
    dissipated by each toppling.
    """

    counts: np.ndarray
    total_mass_lost: int


@dataclass(eq=False)
class BurnReport:
    """Outcome of the burning test: each site's 1-based burn round, 0 if it never burns."""

    window: BoxWindow
    rounds: np.ndarray

    @property
    def recurrent(self):
        return bool(self.rounds.all())

    def burn_sequence(self):
        """Rounds and window sites of the burnt sites, by round, lexicographic within one."""
        flat = self.rounds.ravel()
        order = np.argsort(flat, kind="stable")[np.count_nonzero(flat == 0) :]
        sites = np.column_stack(np.unravel_index(order, self.rounds.shape)) + self.window.lo
        return flat[order], sites

    @property
    def burn_order(self):
        rounds, sites = self.burn_sequence()
        return tuple(zip(rounds.tolist(), zip(*sites.T.tolist())))

    @property
    def stuck_set(self):
        stuck = np.argwhere(self.rounds == 0) + self.window.lo
        return frozenset(zip(*stuck.T.tolist()))


# -- elementary operations ---------------------------------------------------


def topple_at(v, site):
    """Single toppling: site loses gamma, in-window neighbours gain one."""
    idx = v.window.index_of(site)
    if v.heights[idx] < v.gamma:
        raise ValueError("site %r is not unstable" % (site,))
    unit = np.zeros_like(v.heights)
    unit[idx] = 1
    return HeightConfig(v.window, v.gamma, v.heights - laplacian(unit, v.gamma))


def _flat_layout(shape):
    """Padded shape and flat axis strides of an array with a one-site border.

    On the flattened padded array the 2d neighbours of a site lie at +-stride,
    so stencil updates become contiguous 1-d slice operations.
    """
    padded = tuple(n + 2 for n in shape)
    return padded, [math.prod(padded[ax + 1 :]) for ax in range(len(shape))]


# the sweeps run in int32 when every value they can produce lies strictly
# within +-_INT32_LIMIT; the padded border (a sink, which never reaches gamma)
# then starts at -_INT32_LIMIT, and at _INT64_SINK in the int64 fallback
_INT32_LIMIT = 1 << 30
_INT64_SINK = -(1 << 62)


def _box_eigenvalues(shape, gamma):
    """Eigenvalues gamma - 2 sum cos(pi k_j/(s_j+1)) of the toppling matrix on a box.

    The eigenvectors are products of sines, so DST-I diagonalizes the matrix.
    """
    grids = np.meshgrid(
        *[2.0 * np.cos(np.pi * np.arange(1, s + 1) / (s + 1)) for s in shape],
        indexing="ij",
        sparse=True,
    )
    return float(gamma) - sum(grids)


def _odometer_floor(heights, gamma):
    """Integer lower bound on the odometer that stabilizes nonnegative heights.

    The odometer u satisfies L u = h - h_stable >= h - (gamma - 1), and
    L^-1 is entrywise nonnegative, so u >= L^-1 (h - (gamma - 1)), solved
    exactly up to rounding by DST-I.  The 1e-6 margin keeps the floor below
    the true odometer; ``stabilize`` does not rely on it being exact.
    """
    rhs = fft.dstn(heights - (gamma - 1.0), type=1) / _box_eigenvalues(heights.shape, gamma)
    bound = np.floor(fft.idstn(rhs, type=1) - 1e-6)
    return np.maximum(bound, 0).astype(np.int64)


def _sweep_dtype(heights, start, gamma):
    """int32 when no value of the sweeps from ``start`` can leave +-_INT32_LIMIT, else int64.

    A bound U on the odometer u: final heights are >= 0, so L u <= h and,
    L^-1 being entrywise nonnegative, u <= L^-1 h = L^-1 (h - (gamma - 1))
    + (gamma - 1) L^-1 1.  The first term is the DST solve x whose floor,
    less 1e-6 and clipped at 0, is the head start, so x < max(start) + 2
    for any rounding error below 1/2.  For the second, the 1-d torsion
    function phi = t (n + 1 - t) / 2 along the shortest axis (t = 1..n)
    has L phi >= (gamma - 2d) phi + 1 >= 1, so L^-1 1 <= phi <= (n + 1)^2 / 8.

    The sweeps count w <= u + c, c = max(start - u)^+ <= max(start): u + c
    is stabilizing (L 1 >= 0) and lies above ``start``, so legal topplings
    from ``start`` never pass it (least action).  This holds even for a
    head start that overshoots.  So w <= W = U + max(start), a height in
    the window lies in [-gamma max(start), max(h) + 2d W], and a border
    site holds the sink plus at most W.
    """
    top = int(start.max(initial=0))
    odometer = 2 * top + 2 + (gamma - 1) * (min(heights.shape) + 1) ** 2 / 8
    bound = max(int(heights.max(initial=0)) + 2 * heights.ndim * odometer, gamma * top)
    return np.int32 if bound < _INT32_LIMIT else np.int64


def stabilize(v):
    """Topple until stable; returns the final configuration and odometer.

    Least action (Fey-Levine-Peres): the odometer u is the smallest
    nonnegative integer field with h - L u <= gamma - 1, and any field
    below u stays below it under legal topplings.  So ``stabilize``

    1. topples the head start ``_odometer_floor`` in one step;
    2. sweeps legally, toppling floor(h / gamma) times at every site at or
       above gamma until none is left, on a flat padded array whose border
       is a sink;
    3. certifies the result.  A stable s = h - L w is the stabilization
       exactly when the burning test run on supp(w) alone burns all of it;
       a stuck set A is then forbidden, and w - 1_A still stabilizes, so A
       is untoppled and the test repeated.

    The sweeps run in int32, half the memory traffic of int64, whenever
    ``_sweep_dtype`` proves from the input and the head start that no
    height, border value or count can reach 2^30: the odometer is at most
    L^-1 (h - (gamma - 1)), which the head start's DST already bounds, plus
    (gamma - 1) (n + 1)^2 / 8 for the shortest side n.  Otherwise the same
    loop runs in int64.  Integer arithmetic that does not overflow is exact,
    so the result does not depend on the dtype.

    The certificate makes the result exact even if rounding in the head
    start overshoots.  final = initial - L counts holds by construction.
    """
    if (v.heights < 0).any():
        raise ValueError("stabilize requires nonnegative heights")
    gamma = v.gamma
    start = _odometer_floor(v.heights, gamma)
    dtype = _sweep_dtype(v.heights, start, gamma)
    sink = -_INT32_LIMIT if dtype == np.int32 else _INT64_SINK
    padded, strides = _flat_layout(v.window.shape)
    h = np.pad((v.heights - laplacian(start, gamma)).astype(dtype), 1, constant_values=sink)
    flat = h.ravel()
    swept = np.zeros_like(flat)
    k = np.empty_like(flat)
    tmp = np.empty_like(flat)
    # np.maximum against an array of zeros, not the scalar 0, and k.max()
    # rather than k.any() (k >= 0): measured 5x and 3x faster on 258^2 int32
    zeros = np.zeros_like(flat)
    while True:
        np.floor_divide(flat, gamma, out=k)
        np.maximum(k, zeros, out=k)
        if not k.max():
            break
        swept += k
        flat -= np.multiply(k, gamma, out=tmp)
        for st in strides:
            flat[st:] += k[:-st]
            flat[:-st] += k[st:]
    inner = (slice(1, -1),) * v.dim
    counts, stable = start + swept.reshape(padded)[inner], h[inner].astype(np.int64)
    while True:
        stuck = counts > 0
        stuck &= _burn_rounds(stable, stuck) == 0
        if not stuck.any():
            break
        counts -= stuck
        stable += laplacian(stuck.astype(np.int64), gamma)
    lost = int(v.heights.sum() - stable.sum())
    return HeightConfig(v.window, v.gamma, stable), Odometer(counts, lost)


def stabilize_serial(v, rng=None):
    """Reference stabilization toppling one random unstable site at a time.

    Slow; exists so tests can exercise the abelian property against the
    bulk-sweep driver with genuinely different toppling orders.
    """
    if (v.heights < 0).any():
        raise ValueError("stabilize requires nonnegative heights")
    if rng is None:
        rng = np.random.default_rng()
    h = v.heights.copy()
    counts = np.zeros_like(h)
    gamma = v.gamma
    while True:
        unstable = np.argwhere(h >= gamma)
        if len(unstable) == 0:
            break
        idx = tuple(unstable[rng.integers(len(unstable))])
        h[idx] -= gamma
        counts[idx] += 1
        for ax in range(v.dim):
            for step in (-1, 1):
                nb = list(idx)
                nb[ax] += step
                if 0 <= nb[ax] < h.shape[ax]:
                    h[tuple(nb)] += 1
    lost = int(v.heights.sum() - h.sum())
    return HeightConfig(v.window, v.gamma, h), Odometer(counts, lost)


def _burn_rounds(heights, alive):
    """Parallel burn round of each site: 1-based, or 0 if it never burns.

    Only ``alive`` sites take part; the others count as burnt from the
    start.  A site burns in round r when its height is at least its number
    of alive neighbours not burnt before round r.  A site's count changes
    only when a neighbour burns, so after round 1 the kernel rechecks just
    the alive neighbours of the previous round's sites, on flat padded
    arrays.

    A site next to several burnt sites is a candidate once per such
    neighbour, and the unbuffered ``np.subtract.at`` decrements its count
    once per entry.  So the front must hold each site once: each candidate
    that passes writes its position into ``owner`` at its site, and only
    the one that still owns the site joins the front.  This dedupe costs
    O(candidates), with no sort.  The arrays are int32, the returned rounds
    too: counts lie in [0, 2d], so clipping the heights to [-1, 2d] leaves
    every comparison h >= count unchanged; candidate positions are below
    2d|E|, which fits while |E| < 2^31 / 2d (2^28 sites in d = 3).
    """
    padded, strides = _flat_layout(heights.shape)
    offsets = [step * st for st in strides for step in (-1, 1)]
    h = np.pad(np.clip(heights, -1, 2 * heights.ndim).astype(np.int32), 1).ravel()
    live = np.pad(alive, 1).ravel()
    count = np.pad(neighbour_sum(alive.astype(np.int32)), 1).ravel()
    rounds = np.zeros(h.size, dtype=np.int32)
    owner = np.empty(h.size, dtype=np.int32)
    one = np.int32(1)  # a scalar of count's dtype: np.subtract.at is then 20x faster
    front = np.flatnonzero(live & (h >= count))
    rnd = 0
    while front.size:
        rnd += 1
        rounds[front] = rnd
        live[front] = False
        cand = np.concatenate([front + off for off in offsets])
        np.subtract.at(count, cand, one)
        cand = cand[live[cand]]
        cand = cand[h[cand] >= count[cand]]
        position = np.arange(cand.size, dtype=np.int32)
        owner[cand] = position
        front = cand[owner[cand] == position]
    return rounds.reshape(padded)[(slice(1, -1),) * len(padded)]


def burning_test(v):
    """Dhar's burning test with parallel rounds, as a per-site rounds array.

    Each round removes every remaining site whose height is at least its
    count of remaining neighbours (``_burn_rounds``, which checks only the
    neighbours of the previous round's sites).  Heights may be arbitrary
    integers (negative sites simply never burn), but a height above
    gamma - 1 is rejected since the test is only meaningful for stable
    configurations.  The report's ``burn_order`` lists sites by round,
    lexicographically within a round; ``stuck_set`` holds those that
    never burn.
    """
    if (v.heights > v.gamma - 1).any():
        raise ValueError("burning test requires heights <= gamma - 1")
    alive = np.ones(v.window.shape, dtype=bool)
    return BurnReport(v.window, _burn_rounds(v.heights, alive).astype(np.int64))


def is_recurrent(v):
    return burning_test(v).recurrent


# -- counting ----------------------------------------------------------------


def toppling_matrix(window, gamma):
    """Dense toppling matrix: gamma on the diagonal, -1 at adjacent pairs.

    Sites are in lexicographic order, so the neighbour of site i one step up
    axis j is site i + stride_j (the product of the later sides), present
    when i is not on that axis's last layer.  All those pairs are set in
    one assignment, both ways round.
    """
    n = window.size
    mat = np.diag(np.full(n, gamma, dtype=np.int64))
    site = np.arange(n).reshape(window.shape)
    lower = [site.take(np.arange(s - 1), axis=ax).ravel() for ax, s in enumerate(window.shape)]
    upper = [i + math.prod(window.shape[ax + 1 :]) for ax, i in enumerate(lower)]
    lower, upper = np.concatenate(lower), np.concatenate(upper)
    mat[np.r_[lower, upper], np.r_[upper, lower]] = -1
    return mat


def _banded_det(mat, band):
    """Exact determinant of a positive definite integer matrix of half-bandwidth ``band``.

    Fraction-free (Bareiss) elimination without pivoting: the pivot of step k
    is the leading principal minor of order k + 1, positive for a positive
    definite matrix, so a pivot <= 0 means the matrix is not (RuntimeError),
    and each division by the previous pivot is exact.  An index more than
    ``band`` past the pivot has a zero multiplier, so a step only rescales
    its entries by pivot / previous pivot; by Sylvester's identity these
    factors telescope, and the elimination keeps a (band + 1)-wide working
    block whose entering row and column are scaled once, by the latest
    pivot.  Each step costs O(band^2) big-integer operations on a numpy
    object array of Python ints.
    """
    n = len(mat)
    width = min(band + 1, n)
    block = mat[:width, :width].astype(object)
    prev = 1
    for k in range(n):
        pivot = block[0, 0]
        if pivot <= 0:
            raise RuntimeError("pivot %d at step %d: matrix is not positive definite" % (pivot, k))
        rest = (pivot * block[1:, 1:] - np.multiply.outer(block[1:, 0], block[0, 1:])) // prev
        prev = pivot
        m = k + width
        if m < n:
            block = np.empty((width, width), dtype=object)
            block[:-1, :-1] = rest
            block[-1, :] = mat[m, k + 1 : m + 1].astype(object) * pivot
            block[:-1, -1] = mat[k + 1 : m, m].astype(object) * pivot
        else:
            block = rest
    return prev


# largest window, in sites, for the exact determinant: its banded elimination
# costs O(|E| b^2) big-integer operations, b the product of all sides but the
# longest (0.05 s on 16x16, about 1 s on 7x7x7)
EXACT_DET_MAX_SITES = 400


def toppling_determinant_exact(window, gamma):
    """det of the toppling matrix as an exact integer (small windows).

    The determinant does not depend on the order of the axes, so the box is
    laid out longest axis first: its lexicographic half-bandwidth is then the
    product of the other sides.
    """
    if window.size > EXACT_DET_MAX_SITES:
        raise ValueError("exact determinant limited to %d sites" % EXACT_DET_MAX_SITES)
    shape = sorted(window.shape, reverse=True)
    return _banded_det(toppling_matrix(BoxWindow.from_shape(shape), gamma), math.prod(shape[1:]))


def _log_det_box(window, gamma):
    """log det via the exact eigenvalues gamma - 2 sum cos(pi i_j/(s_j+1))."""
    eig = _box_eigenvalues(window.shape, gamma)
    if (eig <= 0).any():
        raise ValueError("toppling matrix not positive definite")
    return float(np.log(eig).sum())


def _burn_all(configs, adj):
    """Vectorized burning test over many stable configs (rows of heights).

    ``adj`` is the window's site adjacency matrix, -toppling_matrix(window, 0),
    built once by the caller however many chunks it burns.  The alive-neighbour
    counts are one float32 BLAS product per round.  They are at most 2d, so
    float32 holds them exactly, and rounding a height to float32 is monotone,
    so comparing it with a count gives the integer answer.
    """
    adj = adj.astype(np.float32, copy=False)
    V = np.asarray(configs, dtype=np.float32)
    alive = np.ones(V.shape, dtype=bool)
    for _ in range(len(adj)):
        n_alive = alive.astype(np.float32) @ adj
        eligible = alive & (V >= n_alive)
        if not eligible.any():
            break
        alive &= ~eligible
    return ~alive.any(axis=1)


def count_recurrent(window, gamma, backend="determinant"):
    """Number of recurrent configurations on the window.

    ``bruteforce`` enumerates all gamma^|E| stable configurations, in chunks
    of 2^16 built as the base-gamma digits of an index range, and counts
    burning-test passes, returning an exact integer; ``determinant`` returns
    the log of det of the toppling matrix, evaluated through its exact box
    eigenvalues.
    """
    size = window.size
    if backend == "bruteforce":
        total = gamma**size
        if total > 10**7:
            raise ValueError("bruteforce limited to gamma^|E| <= 1e7")
        place = gamma ** np.arange(size - 1, -1, -1, dtype=np.int64)
        adj = -toppling_matrix(window, 0).astype(np.float32)
        count = 0
        chunk = 1 << 16
        for start in range(0, total, chunk):
            index = np.arange(start, min(start + chunk, total), dtype=np.int64)
            count += int(_burn_all(index[:, None] // place % gamma, adj).sum())
        return count
    if backend == "determinant":
        if size > 10**6:
            raise ValueError("determinant backend limited to 1e6 sites")
        return _log_det_box(window, gamma)
    raise ValueError("unknown backend %r" % (backend,))


def finite_entropy_estimate(side, d, gamma):
    """log of the recurrent count per site on a side^d window."""
    if side < 1:
        raise ValueError("side must be >= 1")
    window = BoxWindow.from_shape((side,) * d)
    return count_recurrent(window, gamma, backend="determinant") / float(side**d)


# -- polynomial bridges ------------------------------------------------------


def poly_heights(window, poly):
    """Coefficient field of a Laurent polynomial laid out on a window.

    Raises when the support does not fit, so nothing is silently dropped.
    """
    if poly.dim != window.dim:
        raise ValueError("dimension mismatch")
    arr = np.zeros(window.shape, dtype=np.int64)
    for site, coeff in poly.terms.items():
        if site not in window:
            raise ValueError("support site %r outside window" % (site,))
        arr[window.index_of(site)] = coeff
    return arr


def add_poly(v, poly):
    """New configuration with the polynomial's coefficients added on."""
    return HeightConfig(v.window, v.gamma, v.heights + poly_heights(v.window, poly))


# -- correction operator -----------------------------------------------------


def correct_to_recurrent(v, M):
    """Polynomial h with support in Q_M making v + h*f recurrent on Q_M.

    Two phases.  Phase 1 subtracts f at any Q_M site holding at least 2d
    grains (like toppling without a boundary: the surplus lands on the
    M+1 shell, which the window must contain).  Phase 2 adds rounds of 0/1
    polynomials: each round's support is the burning-test stuck set (which
    holds every negative site), extended until the addition creates no fresh
    negatives; heights on Q_M stay below 2d throughout, so the rounds
    decrease the stuck region monotonically in an onion-peeling fashion.
    The result is unique regardless of these order choices.

    The critical threshold 2d is used no matter the configuration's gamma:
    the corrected patch is recurrent for the critical model that the
    construction belongs to.
    """
    d = v.dim
    if M < 1:
        raise ValueError("M must be >= 1")
    inner = BoxWindow.centered(d, M)
    outer = BoxWindow.centered(d, M + 1)
    if not v.window.contains_window(outer):
        raise ValueError("window must contain the centered box of radius M+1")
    two_d = 2 * d
    cur = v.heights.copy()
    off = tuple(-l for l in v.window.lo)

    def box_view(arr, box):
        sl = tuple(slice(lo + o, hi + o + 1) for lo, hi, o in zip(box.lo, box.hi, off))
        return arr[sl]

    h_net = np.zeros(inner.shape, dtype=np.int64)

    # phase 1: subtract f wherever Q_M holds 2d or more
    while True:
        sub = box_view(cur, inner)
        k = sub // two_d
        np.maximum(k, 0, out=k)
        if not k.any():
            break
        h_net -= k
        sub -= two_d * k
        box_view(cur, outer)[...] += neighbour_sum(np.pad(k, 1))

    # phase 2: add 0/1 rounds on the stuck set until recurrent
    for _ in range(1_000_000):
        sub = box_view(cur, inner)
        # negative sites never burn, so the stuck set holds them all
        support = burning_test(HeightConfig(inner, two_d, sub)).rounds == 0
        if not support.any():
            break
        while True:
            s_mask = support.astype(np.int64)
            fresh = (sub + laplacian(s_mask, two_d) < 0) & ~support
            if not fresh.any():
                break
            support |= fresh
        h_net += s_mask
        box_view(cur, outer)[...] += laplacian(np.pad(s_mask, 1), two_d)
    else:
        raise RuntimeError("correction did not converge")

    terms = {}
    for idx in np.argwhere(h_net != 0):
        terms[inner.site_of(tuple(idx))] = int(h_net[tuple(idx)])
    return LaurentPoly(d, terms)


def apply_correction(v, h):
    """v + h * f for the critical Laplacian of v's dimension."""
    f = laplacian_poly(v.dim)
    return add_poly(v, h * f)


# -- group operation ---------------------------------------------------------


def group_add(v, w):
    """Sandpile-group addition: pointwise sum, then stabilization."""
    if v.window != w.window or v.gamma != w.gamma:
        raise ValueError("operands must share window and gamma")
    if not is_recurrent(v) or not is_recurrent(w):
        raise ValueError("group_add requires recurrent operands")
    total = HeightConfig(v.window, v.gamma, v.heights + w.heights)
    out, _ = stabilize(total)
    return out


def random_recurrent(window, gamma, rng):
    """Recurrent sample: all-max plus U{0..gamma-1} grains per site, stabilized.

    Adding to a recurrent configuration and stabilizing lands back in the
    recurrent set, so the result always passes the burning test.  The sample
    is not uniform over the recurrent set: enumerating every input on a 2x2
    window produces each recurrent configuration 1 to 3 times.
    """
    extra = rng.integers(0, gamma, size=window.shape)
    loaded = HeightConfig(window, gamma, extra + (gamma - 1))
    out, _ = stabilize(loaded)
    return out


# -- max-height diagnostics --------------------------------------------------


def components(mask, connectivity="max"):
    """Connected components of a boolean site mask.

    ``max`` connectivity joins sites at max-norm distance 1 (the convention
    the surrounding theory uses for maximal-height sets); ``lattice`` joins
    only the 2d nearest neighbours.
    """
    mask = np.asarray(mask, dtype=bool)
    d = mask.ndim
    if connectivity == "max":
        structure = np.ones((3,) * d, dtype=bool)
    elif connectivity == "lattice":
        structure = ndimage.generate_binary_structure(d, 1)
    else:
        raise ValueError("connectivity must be 'max' or 'lattice'")
    labels, n = ndimage.label(mask, structure=structure)
    return labels, int(n)


@dataclass
class WitnessReport:
    max_set_connected: bool
    complement_components: int
    complement_touches_boundary: bool
    min_height: int
    recurrent: bool

    @property
    def satisfied(self):
        return (
            self.max_set_connected
            and not self.complement_touches_boundary
            and self.min_height == 0
            and self.recurrent
        )


def injectivity_witness(window, gamma):
    """Configuration whose maximal-height set is connected and co-finite.

    Height gamma - 1 everywhere except at sites with all coordinates even,
    which hold 0; the maximal set forms a connected grout pattern and the
    complement splits into isolated single-site cells.  On a centered box
    of odd radius the boundary ring has an odd coordinate everywhere, so
    the zero cells stay interior.
    """
    idx = np.indices(window.shape)
    all_even = np.ones(window.shape, dtype=bool)
    for ax in range(window.dim):
        all_even &= (idx[ax] + window.lo[ax]) % 2 == 0
    heights = np.where(all_even, 0, gamma - 1).astype(np.int64)
    return HeightConfig(window, gamma, heights)


def witness_report(v):
    """Check the injectivity-witness conditions at finite scale.

    Connectivity of the maximal set uses max-norm adjacency; a complement
    component is provisionally finite when it avoids the window boundary
    (the implied extension fills the outside with maximal heights).
    """
    max_set = v.heights == v.gamma - 1
    _, n_max = components(max_set, connectivity="max")
    comp_labels, n_comp = components(~max_set, connectivity="max")
    touches = False
    d = v.dim
    for ax in range(d):
        for edge in (0, -1):
            sl = [slice(None)] * d
            sl[ax] = edge
            if (comp_labels[tuple(sl)] > 0).any():
                touches = True
    return WitnessReport(
        max_set_connected=n_max == 1,
        complement_components=n_comp,
        complement_touches_boundary=touches,
        min_height=int(v.heights.min()),
        recurrent=is_recurrent(v),
    )
