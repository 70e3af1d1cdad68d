"""Abelian sandpile dynamics on finite box windows.

A height configuration assigns an integer number of grains to each site of a
box window.  Sites holding at least ``gamma`` grains topple, sending one
grain to each of the 2d nearest lattice neighbours; grains sent outside the
window vanish (open boundary; ``with_outflow`` reads them back off the
odometer), and for gamma > 2d each toppling additionally dissipates
gamma - 2d grains.  Stabilization is order-independent (the
abelian property), and its odometer is the least nonnegative integer field
whose toppling leaves the configuration stable (least action, Fey-Levine-
Peres).  ``stabilize`` uses both: it topples a provable lower bound on the
odometer in one step, exactly, in int64 (the continuous solve
L^-1 (h - (gamma - 1)), ``window.box_green``), finishes with red-black
half-sweeps (one colour of a flat-index parity colouring at a time, about
as many as full sweeps would take), and certifies minimality with a
burning test on the odometer's support, untoppling any stuck set.  The
result is exact whatever the head start's rounding.  The sweeps run in
the narrowest of int16, int32 and int64 that a bound on the residual
odometer, about (gamma - 1) (n + 1)^2 / 8 for the shortest side n
whatever the load, proves they fit; integer arithmetic that cannot
overflow is exact, so all three agree.

The kernels work on stacks: several configurations on one window, laid
one after another along a leading axis, each with its own sink border,
transformed, swept, certified and burnt together (``stabilize_stack``,
``burning_test_stack``, ``group_add_stack``).  On small windows numpy's
cost per call outweighs the arithmetic, so a stack is several times
faster per configuration; ``stabilize`` and ``burning_test`` are stacks
of one.

Recurrent configurations are characterized by the burning test: repeatedly
remove every site whose height is at least its count of not-yet-removed
neighbours; the configuration is recurrent exactly when all sites burn.
The burning kernel returns each site's burn round as an int array and,
after the first round, rechecks only the neighbours of the sites that
burnt in the round before, deduplicated without a sort.  It works in int32
on heights clipped to [-1, 2d], which is exact because a site's count of
unburnt neighbours lies in [0, 2d].  The number of recurrent configurations
equals the determinant of the toppling matrix, computed here exactly (the
longest axis eliminated, leaving one fraction-free elimination of an m x m
matrix, m the product of the other sides) or in the log domain, within
1e-11 relative, through ``window.box_eigenvalues``.  The brute-force count
burns every stable configuration of a small window, in uint8.

The correction operator turns an arbitrary bounded integer field into one
whose restriction to a centered box is recurrent by adding a multiple of
the lattice Laplacian polynomial.  It is the sandpile group's identity
construction: two ``stabilize`` calls, one for the shift 2m - (2m)° (m
all-max) and one for the field plus enough multiples of that shift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .laurent import LaurentPoly
from .window import BoxWindow, box_eigenvalues, box_green, check_threshold, laplacian, neighbour_sum


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
        check_threshold(self.window.dim, self.gamma)
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
        return "\n".join(["%d %d %s" % (self.dim, self.gamma, dims)] + grid_rows(self.heights)) + "\n"

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
        try:
            heights = np.array(body, dtype=np.int64).reshape(shape)
        except OverflowError:
            raise ValueError("heights must fit in int64") from None
        window = BoxWindow.from_shape(shape)
        return cls(window, gamma, heights)


def grid_rows(array):
    """Text rows of an integer array: the last axis along a row, the leading axes flattened into blocks of rows."""
    return [" ".join(map(str, row)) for row in array.reshape(-1, array.shape[-1]).tolist()]


@dataclass
class Odometer:
    """Per-site toppling counts plus the total number of grains lost.

    ``total_mass_lost`` counts every grain that left the system: those sent
    across the window boundary and, for gamma > 2d, the gamma - 2d grains
    dissipated by each toppling.  It is read off the counts alone, as the
    sum of L counts over the window, so the mass balance
    initial - final - lost = 0 checks the stable heights against them.
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


def _flat_layout(shape):
    """Padded shape, flat axis strides and core index of a stack of arrays with a sink border.

    Each side n gets one border site before it and one after, plus a
    second after an even n, so every padded side is odd; the core, the
    array itself, is ``1 : n + 1`` on each axis.  On the flattened padded
    array the 2d neighbours of a site lie at +-stride, so stencil updates
    become contiguous 1-d slice operations.  Every stride and every
    member's padded size are products of odd sides, hence odd, so
    neighbours differ in the parity of their flat index: parity is a
    proper 2-colouring.  A stack of such arrays, one after another, keeps
    the same strides: an inner site's neighbours all lie in its own
    member's padding, so members never mix (consecutive members swap
    colours, which is harmless).
    """
    padded = tuple(n + 3 - n % 2 for n in shape)
    strides = [math.prod(padded[ax + 1 :]) for ax in range(len(shape))]
    return padded, strides, (slice(None),) + tuple(slice(1, n + 1) for n in shape)


def _pad_stack(stack, value=0):
    """Each member of a stack (leading axis) padded to ``_flat_layout``'s shape by a border of ``value``."""
    shape = stack.shape[1:]
    widths = [(1, p - n - 1) for n, p in zip(shape, _flat_layout(shape)[0])]
    return np.pad(stack, [(0, 0)] + widths, constant_values=value)


def _halves(stack, value=0):
    """The padded stack, flattened, as its even (red) and odd (black) flat positions, each contiguous."""
    flat = _pad_stack(stack, value).ravel()
    return [flat[0::2].copy(), flat[1::2].copy()]


def _join(halves, shape):
    """The flat array that ``_halves`` split, reshaped to ``shape``."""
    flat = np.empty(halves[0].size + halves[1].size, dtype=halves[0].dtype)
    flat[0::2], flat[1::2] = halves
    return flat.reshape(shape)


def _moves(strides, colour, sizes):
    """(target, source) slices that add a toppling of one colour's half into the other's neighbours.

    The site at position m of the red half is flat index 2m, of the black
    half 2m + 1.  Its neighbour at odd flat offset o then lies at position
    m + (o - 1)/2 of the black half if it is red, and at m + (o + 1)/2 of
    the red half if it is black: each of the 2d neighbour updates is one
    slice add, cut to the positions both halves hold.
    """
    out = []
    for st in strides:
        for q in ((st - 1) // 2 + colour, -(st + 1) // 2 + colour):
            t, s = max(q, 0), max(-q, 0)
            n = min(sizes[colour] - s, sizes[1 - colour] - t)
            out.append((slice(t, t + n), slice(s, s + n)))
    return out


# the stacked kernels take at most this many sites at once, so that configurations
# on a small window are worked on together (per-call overhead, not arithmetic,
# dominates there) while a window of this size or larger is a stack of one
STACK_SITES = 1 << 15


def stack_runs(items, sites):
    """The list ``items``, of ``sites`` sites each, in runs of at most STACK_SITES sites and at least one item."""
    per = max(1, STACK_SITES // sites)
    return [items[i : i + per] for i in range(0, len(items), per)]


def _stacks(configs):
    """The configurations in ``stack_runs``, with their stacked heights.

    They must share one window and gamma.  A run of one stacks a view of
    its heights, not a copy, so a large window takes the memory it took
    before stacking.
    """
    configs = list(configs)
    if not configs:
        return []
    window, gamma = configs[0].window, configs[0].gamma
    if any(v.window != window or v.gamma != gamma for v in configs):
        raise ValueError("a stack needs one window and gamma")
    return [(run, run[0].heights[None] if len(run) == 1 else np.stack([v.heights for v in run]))
            for run in stack_runs(configs, window.size)]


# the sweeps run in the first of these dtypes that ``_sweep_dtype`` proves they
# fit, each with its limit: a quarter of its range, where the padded border (a
# sink, which never reaches gamma) starts, at minus the limit
_INT64_LIMIT = 1 << 62
_SWEEP_LIMITS = {np.int16: 1 << 14, np.int32: 1 << 30, np.int64: _INT64_LIMIT}


def _odometer_floor(heights, gamma):
    """Integer lower bound on the odometer that stabilizes each member of a stack of nonnegative heights.

    The odometer u satisfies L u = h - h_stable >= h - (gamma - 1), and
    L^-1 is entrywise nonnegative, so u >= L^-1 (h - (gamma - 1)), exact up
    to rounding from ``box_green``.  The 1e-6 margin keeps the floor below
    the true odometer; ``stabilize`` does not rely on it being exact.
    """
    bound = np.floor(box_green(heights - (gamma - 1.0), gamma) - 1e-6)
    return np.maximum(bound, 0).astype(np.int64)


def _sweep_dtype(residual, gamma):
    """The narrowest dtype of ``_SWEEP_LIMITS`` that the sweeps of each member of a stack provably fit.

    ``residual`` holds each member's h1 = h - L start, its heights with the
    head start toppled, and the sweeps topple it legally from a zero
    odometer R.  A site that has toppled holds >= 0 and one that has not
    holds its h1, so every height stays >= min(h1, 0); hence L R <= h1^+ at
    every step, and, L^-1 being entrywise nonnegative, R <= L^-1 h1^+ =
    L^-1 h1 + L^-1 h1^-.  Here L^-1 h1 = x - start + (gamma - 1) L^-1 1,
    with x = L^-1 (h - (gamma - 1)) the DST solve whose floor, less 1e-6
    and clipped at 0, is the head start, so x - start < 2 for any rounding
    error below 1/2; a head start that overshoots only makes it smaller.
    The 1-d torsion function phi = t (n + 1 - t) / 2 along the shortest
    axis (t = 1..n) has L phi >= (gamma - 2d) phi + 1 >= 1, so L^-1 1 <=
    phi <= (n + 1)^2 / 8.  So R <= 2 + (gamma - 1 + max h1^-) (n + 1)^2 / 8,
    rounded down.

    A window height gains at most R per neighbour, so it lies in
    [min(h1, 0), max h1 + 2d R]; a border site has at most one window
    neighbour, so it holds the sink -limit plus at most R, and the second
    sink layer after an even side has none and keeps the sink.  One bound
    B = max h1^+ + 2d R below 2 limit, the top of the dtype's range, proves
    it all: B >= max h1^- keeps every height above the bottom, -2 limit,
    and R < limit keeps the border below 0, so it never topples; each
    product k gamma is at most the height it is taken from.  The proof uses
    only that every toppling is legal, never their order, so it covers the
    half-sweeps.  A member's B at or above 2^63 raises ValueError; a stack
    takes the widest of its members' dtypes.
    """
    side, d = min(residual.shape[1:]), residual.ndim - 1
    flat = residual.reshape(len(residual), -1)
    tops, deficits = flat.max(axis=1, initial=0).tolist(), (-flat.min(axis=1, initial=0)).tolist()
    bound = max(top + 2 * d * (2 + (gamma - 1 + m) * (side + 1) ** 2 // 8) for top, m in zip(tops, deficits))
    for dtype, limit in _SWEEP_LIMITS.items():
        if bound < 2 * limit:
            return dtype
    raise ValueError("stabilize cannot prove its sweeps fit int64 (bound %d, at or above 2^63)" % bound)


def stabilize(v):
    """Topple until stable; returns the final configuration and odometer.

    Least action (Fey-Levine-Peres): the odometer u is the smallest
    nonnegative integer field with h - L u <= gamma - 1, and any field
    below u stays below it under legal topplings.  So ``stabilize``

    1. topples the head start ``_odometer_floor`` in one step, exactly, in
       int64: h1 = h - L start;
    2. sweeps h1 legally from a zero residual odometer R, toppling
       floor(h / gamma) times at every site at or above gamma until none is
       left, on a flat padded array whose border is a sink.  Every padded
       side is odd (``_flat_layout``), so flat parity colours the sites red
       and black with no two neighbours alike; each half-sweep topples one
       colour, with the values the other left, and adds into the other.
       Each colour is one contiguous half, so each neighbour update is
       still one slice add.  The odometer is start + R;
    3. certifies the result.  A stable s = h - L w is the stabilization
       exactly when the burning test run on supp(w) alone burns all of it;
       a stuck set A is then forbidden, and w - 1_A still stabilizes, so A
       is untoppled and the test repeated.

    The sweeps run in the narrowest of int16, int32 and int64 that
    ``_sweep_dtype`` proves no height, border value or count of theirs can
    leave: R is at most 2 + (gamma - 1 + max h1^-) (n + 1)^2 / 8 for the
    shortest side n, whatever the load, since the head start has taken up
    the rest.  Narrower integers make each numpy call cheaper.  An input
    for which that bound, the head start's topple or the total mass
    |E| max(h) reaches the int64 range raises ValueError.  Integer
    arithmetic that does not overflow is exact, so the result does not
    depend on the dtype.

    The certificate makes the result exact even if rounding in the head
    start overshoots; a head start above the odometer's a priori bound is
    a fault and raises RuntimeError.  final = initial - L counts holds by
    construction.  This is ``stabilize_stack`` on a stack of one.
    """
    return stabilize_stack([v])[0]


def stabilize_stack(configs):
    """``stabilize`` of each configuration, worked on together; a list of (config, odometer).

    The configurations share one window and gamma.  Each run of at most
    STACK_SITES sites is stacked along a new leading axis and goes through
    every step of ``stabilize`` at once: one DST head start, toppled in
    int64 for the whole stack, one flat padded array whose member borders
    are all sinks, one run of half-sweeps over both colours of every
    member, one certificate.  The guards hold per member (the mass bound,
    the head-start ceiling, the topple's int64 bound, ``_sweep_dtype``), so
    a stack raises exactly when one of its members would raise alone; the
    sweeps run in the widest dtype a member needs.  L counts is initial -
    final at each site, which int64 holds exactly whatever gamma counts
    wraps to on the way (integer arithmetic is exact mod 2^64), and its
    partial sums lie between -sum(final) and the initial mass, so the loss
    sums exactly in int64.
    """
    out = []
    for run, heights in _stacks(configs):
        window, gamma = run[0].window, run[0].gamma
        stable, counts = _stabilize_heights(heights, gamma)
        for s, c in zip(stable, counts):
            out.append((HeightConfig(window, gamma, s), Odometer(c, int(laplacian(c, gamma).sum()))))
    return out


def _stabilize_heights(heights, gamma):
    """Stable heights and odometers of a stack (leading axis) of height arrays; see ``stabilize``."""
    if (heights < 0).any():
        raise ValueError("stabilize requires nonnegative heights")
    n, shape = heights.shape[0], heights.shape[1:]
    tops = heights.reshape(n, -1).max(axis=1, initial=0)
    if math.prod(shape) * int(tops.max()) >= _INT64_LIMIT:
        raise ValueError("total mass up to |E| max(h) must stay below 2^62 for int64 mass balance")
    start = _odometer_floor(heights, gamma)
    # u <= L^-1 h <= max(h) (n + 1)^2 / 8 for the shortest side n (see _sweep_dtype);
    # a head start far above that is a fault in the solve, not a rounding slip
    highs = start.reshape(n, -1).max(axis=1, initial=0)
    ceilings = tops * ((min(shape) + 1) ** 2 / 8) + 1
    over = np.flatnonzero(highs > ceilings)
    if over.size:
        raise RuntimeError("head start %d exceeds the odometer bound %.6g" % (highs[over[0]], ceilings[over[0]]))
    # toppled at once (toppling is linear), the head start leaves heights in
    # [-gamma max(start), max(h) + 2d max(start)]
    high = int(highs.max())
    if max(gamma * high, int(tops.max()) + 2 * len(shape) * high) >= _INT64_LIMIT:
        raise ValueError("stabilize cannot topple its head start within 2^62 in int64")
    residual = heights - laplacian(start, gamma, stacked=True)
    dtype = _sweep_dtype(residual, gamma)
    padded, strides, core = _flat_layout(shape)
    flat = _halves(residual.astype(dtype), -_SWEEP_LIMITS[dtype])
    sizes = [half.size for half in flat]
    swept = [np.zeros(size, dtype=dtype) for size in sizes]
    # k, tmp and zeros are cut to each colour's size once, so are the (target,
    # source) views of its neighbour updates, and gamma is a scalar of the
    # sweep dtype: less work per numpy call.  np.maximum against an array of
    # zeros, not the scalar 0, and k.max() rather than k.any() (k >= 0):
    # measured 5x and 3x faster on 258^2 int32
    k, tmp, zeros = ([row[:size] for size in sizes] for row in np.zeros((3, sizes[0]), dtype=dtype))
    adds = [[(flat[1 - c][t], k[c][s]) for t, s in _moves(strides, c, sizes)] for c in (0, 1)]
    g = dtype(gamma)
    # half-sweeps of alternate colours: one topples floor(h / gamma) times
    # wherever h >= gamma, which leaves its colour below gamma, so once a
    # half-sweep other than the first topples nothing, every site is stable
    half = 0
    while True:
        c = half % 2
        np.floor_divide(flat[c], g, out=k[c])
        np.maximum(k[c], zeros[c], out=k[c])
        if k[c].max():
            swept[c] += k[c]
            np.subtract(flat[c], np.multiply(k[c], g, out=tmp[c]), out=flat[c])
            for target, source in adds[c]:
                np.add(target, source, out=target)
        elif half:
            break
        half += 1
    counts = start + _join(swept, (n,) + padded)[core]
    stable = _join(flat, (n,) + padded)[core].astype(np.int64)
    while True:
        stuck = counts > 0
        stuck &= _burn_rounds(stable, stuck) == 0
        if not stuck.any():
            return stable, counts
        counts -= stuck
        stable += laplacian(stuck.astype(np.int64), gamma, stacked=True)


def _burn_rounds(heights, alive):
    """Parallel burn round of each site of a stack (leading axis): 1-based, or 0 if it never burns.

    Only ``alive`` sites take part; the others count as burnt from the
    start.  A site burns in round r when its height is at least its number
    of alive neighbours not burnt before round r.  A site's count changes
    only when a neighbour burns, so after round 1 the kernel rechecks just
    the alive neighbours of the previous round's sites, on flat padded
    arrays.  Each member's border is dead, so the members burn apart.

    A site next to several burnt sites is a candidate once per such
    neighbour, and the unbuffered ``np.subtract.at`` decrements its count
    once per entry.  So the front must hold each site once: each candidate
    that passes writes its position into ``owner`` at its site, and only
    the one that still owns the site joins the front.  This dedupe costs
    O(candidates), with no sort.  The arrays are int32, the returned rounds
    too: counts lie in [0, 2d], so clipping the heights to [-1, 2d] leaves
    every comparison h >= count unchanged; candidate positions are below
    2d|E|, |E| the stack's site count, which fits while |E| < 2^31 / 2d
    (2^28 sites in d = 3).
    """
    d = heights.ndim - 1
    padded, strides, core = _flat_layout(heights.shape[1:])
    h = _pad_stack(np.clip(heights, -1, 2 * d).astype(np.int32)).ravel()
    live = _pad_stack(alive).ravel()
    # alive-neighbour counts; a border site's count is never read, as it is never alive
    count = np.zeros(h.size, dtype=np.int32)
    for st in strides:
        count[st:] += live[:-st]
        count[:-st] += live[st:]
    rounds = np.zeros(h.size, dtype=np.int32)
    owner = np.empty(h.size, dtype=np.int32)
    one = np.int32(1)  # a scalar of count's dtype: np.subtract.at is then 20x faster
    offsets = [step * st for st in strides for step in (-1, 1)]
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
    return rounds.reshape((len(heights),) + padded)[core]


def burning_test(v):
    """Dhar's burning test with parallel rounds, as a per-site rounds array.

    Each round removes every remaining site whose height is at least its
    count of remaining neighbours (``_burn_rounds``, which checks only the
    neighbours of the previous round's sites).  Heights may be arbitrary
    integers (negative sites simply never burn), but a height above
    gamma - 1 is rejected since the test is only meaningful for stable
    configurations.  The report's ``burn_order`` lists sites by round,
    lexicographically within a round; ``stuck_set`` holds those that
    never burn.  This is ``burning_test_stack`` on a stack of one.
    """
    return burning_test_stack([v])[0]


def burning_test_stack(configs):
    """``burning_test`` of each configuration, burnt together in runs of at most STACK_SITES sites.

    The configurations share one window and gamma; any height above
    gamma - 1 raises, as it would alone.
    """
    out = []
    for run, heights in _stacks(configs):
        if (heights > run[0].gamma - 1).any():
            raise ValueError("burning test requires heights <= gamma - 1")
        rounds = _burn_rounds(heights, np.ones(heights.shape, dtype=bool)).astype(np.int64)
        out += [BurnReport(v.window, r) for v, r in zip(run, rounds)]
    return out


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


def _positive_definite_det(mat):
    """Exact determinant of a symmetric positive definite integer matrix, by fraction-free (Bareiss) elimination.

    No pivoting: the pivot of step k is the leading principal minor of order
    k + 1, positive for a positive definite matrix, so a pivot <= 0 means the
    matrix is not (RuntimeError, a fault in the program), and each division by
    the previous pivot is exact.  Each step keeps the trailing block
    symmetric, so it computes the upper triangle and mirrors it: one
    vectorized step per pivot, on numpy object arrays of Python ints.
    """
    a = np.array(mat, dtype=object)
    prev = 1
    for k in range(len(a)):
        pivot = a[0, 0]
        if pivot <= 0:
            raise RuntimeError("pivot %d at step %d: matrix is not positive definite" % (pivot, k))
        i, j = np.triu_indices(len(a) - 1)
        row = a[0, 1:]
        upper = (pivot * a[1:, 1:][i, j] - row[i] * row[j]) // prev
        a = np.empty((len(row),) * 2, dtype=object)
        a[i, j] = a[j, i] = upper
        prev = pivot
    return prev


def _longest_axis(shape):
    """(n, cross): the box's longest side, and the other sides (one site, for a path)."""
    n, *cross = sorted(shape, reverse=True)
    return n, tuple(cross) or (1,)


def _chebyshev_u(b, cross, gamma, n):
    """p_n(B) for B = ``b``, the toppling matrix of the cross-section ``cross``: p_0 = I, p_1 = B, p_{k+1} = B p_k - p_{k-1}.

    That is U_n(B/2), the Chebyshev polynomial of the second kind.  Each p_k
    is a polynomial in the symmetric B, so B p_k = p_k B: with each row of
    p_k laid out as a field on the cross-section, along a leading stack axis,
    B p_k is the stencil ``laplacian`` of that stack (gamma times it minus its
    shifted rows), not a dense product.  Python ints in object arrays, so
    every entry is exact.
    """
    m = len(b)
    prev, p = np.eye(m, dtype=np.int64).astype(object), b.astype(object)
    for _ in range(n - 1):
        prev, p = p, laplacian(p.reshape((m,) + cross), gamma, stacked=True).reshape(m, m) - prev
    return p


def toppling_determinant_exact(window, gamma):
    """det of the toppling matrix as an exact integer, by eliminating the box's longest axis.

    Laid out along its longest side n, the toppling matrix is block
    tridiagonal: each diagonal block is B, the toppling matrix gamma I - A of
    the cross-section (the other sides, m sites), and each off-diagonal block
    is -I.  Each -I is a unimodular pivot, so block elimination leaves
    det L = det p_n(B) (``_chebyshev_u``), the determinant of one m x m
    integer matrix.  B's eigenvalues exceed gamma - 2(d - 1) >= 2, and there
    U_n(x/2) is positive (sinh((n + 1)t)/sinh t at x = 2 cosh t), so p_n(B)
    is positive definite and its pivots are positive.  B's own elimination
    checks that B is: for even n, p_n(-B) = p_n(B) would hide a sign fault.
    ``check_exact_count`` bounds the work.
    """
    check_exact_count(window, gamma, log_recurrent_count(window, gamma))
    n, cross = _longest_axis(window.shape)
    b = toppling_matrix(BoxWindow.from_shape(cross), gamma)
    _positive_definite_det(b)
    return _positive_definite_det(_chebyshev_u(b, cross, gamma, n))


def _burn_all(configs, adj):
    """Burning test of many configurations at once (rows of heights >= 0): True where every site burns.

    ``adj`` is the window's site adjacency matrix, -toppling_matrix(window, 0),
    built once by the caller however many chunks it burns.  A site's count of
    unburnt neighbours is at most its degree, its number of neighbours, so
    clipping each height at its site's degree leaves every comparison
    h >= count unchanged, and heights and counts fit uint8.  Laid out
    site-major, one row per site, each round burns every alive site whose
    height reaches its count, and takes each burnt row off its neighbours'
    counts, once per adjacent pair.
    """
    degree = adj.sum(axis=1).astype(np.uint8)
    heights = np.ascontiguousarray(np.minimum(configs, degree).T, dtype=np.uint8)
    count = np.repeat(degree[:, None], heights.shape[1], axis=1)
    alive = np.ones(heights.shape, dtype=np.uint8)
    burnt = np.empty(heights.shape, dtype=np.uint8)
    pairs = list(zip(*np.nonzero(np.triu(adj))))
    for _ in range(len(adj)):
        np.greater_equal(heights, count, out=burnt)
        burnt &= alive
        if not burnt.any():
            break
        alive ^= burnt
        for i, j in pairs:
            count[i] -= burnt[j]
            count[j] -= burnt[i]
    return ~alive.any(axis=0)


def count_recurrent(window, gamma, backend="determinant"):
    """Number of recurrent configurations on the window, an exact integer; ``log_recurrent_count`` is its log.

    ``determinant`` is det of the toppling matrix (Dhar), by
    ``toppling_determinant_exact``; ``bruteforce`` runs the burning test on
    every one of the gamma^|E| stable configurations, for gamma^|E| <= 10^7.
    The test reads a height only up to its site's degree, so at each site the
    heights from top = min(gamma - 1, degree) up burn alike: the enumeration
    takes each site's height in [0, top], in uint8 chunks of at most 2^16
    configurations built by ``np.indices``, and a configuration stands for
    the product, over its sites at top, of gamma - top.
    """
    check_threshold(window.dim, gamma)
    size = window.size
    if backend == "bruteforce":
        if gamma**size > 10**7:
            raise ValueError("bruteforce limited to gamma^|E| <= 1e7")
        adj = -toppling_matrix(window, 0)
        top = np.minimum(adj.sum(axis=1), gamma - 1)
        # the trailing sites vary within a chunk: a degree is at most 8 here (|E| <= 23 leaves at most
        # four sides above 1), so every site fits uint8 and the last one a chunk
        inner = 1
        while inner < size and math.prod(top[size - inner - 1 :] + 1) <= 1 << 16:
            inner += 1
        block = np.indices(tuple(top[size - inner :] + 1), dtype=np.uint8).reshape(inner, -1)
        digits = np.empty((size, block.shape[1]), dtype=np.uint8)
        digits[size - inner :] = block
        count = 0
        for outer in itertools.product(*(range(t + 1) for t in top[: size - inner])):
            digits[: size - inner] = np.array(outer, dtype=np.uint8)[:, None]
            recurrent = digits[:, _burn_all(digits.T, adj)]
            # products and sums are at most gamma^|E| <= 10^7, so int64 holds them
            count += int(np.where(recurrent == top[:, None], gamma - top[:, None], 1).prod(axis=0).sum())
        return count
    if backend == "determinant":
        return toppling_determinant_exact(window, gamma)
    raise ValueError("unknown backend %r" % (backend,))


def check_log_count(window, gamma):
    """Refuse what ``log_recurrent_count`` cannot serve: a gamma off the threshold rule, a window over 10^6 sites."""
    check_threshold(window.dim, gamma)
    if window.size > 10**6:
        raise ValueError("the log count is limited to 10^6 sites; a %s window has %d"
                         % ("x".join(map(str, window.shape)), window.size))


# Largest work, m^3 b^2 + 1000 n (m b + 10^5), that ``check_exact_count`` admits.
EXACT_COUNT_WORK = 15 * 10**12


def check_exact_count(window, gamma, log_count):
    """Refuse what ``toppling_determinant_exact`` cannot serve: a window whose count takes more work than EXACT_COUNT_WORK.

    With n the longest side, m the product of the others and b the count's
    bit length, from ``log_count`` (``log_recurrent_count``, whose refusals
    stand), the elimination makes about m^3 / 6 steps on b-bit entries, each
    quadratic in their length, and the recurrence n steps on m^2 entries of
    up to b / m bits, each linear in their length, plus a fixed numpy cost.
    The weights and the limit are measured: on a 2-core host with Python
    3.11 the work costs 0.55-1.3e-13 s a unit, so the largest window served
    takes 0.8-2 s.
    """
    bits = log_count / math.log(2)
    n, cross = _longest_axis(window.shape)
    m = math.prod(cross)
    work = m**3 * bits**2 + 1000 * n * (m * bits + 10**5)
    if work > EXACT_COUNT_WORK:
        raise ValueError("the exact count is limited to work m^3 b^2 + 1000 n (m b + 10^5) <= %.3g, with n the "
                         "longest side, m the product of the others and b the count's bits; a %s window at gamma "
                         "%d has %.3g" % (EXACT_COUNT_WORK, "x".join(map(str, window.shape)), gamma, work))


def log_recurrent_count(window, gamma):
    """log of ``count_recurrent``: sum of logs of the toppling matrix's box eigenvalues, each above gamma - 2d >= 0."""
    check_log_count(window, gamma)
    return float(np.log(box_eigenvalues(window.shape, gamma)).sum())


def finite_entropy_estimate(side, d, gamma):
    """log of the recurrent count per site on a side^d window."""
    window = BoxWindow.from_shape((side,) * d)
    return log_recurrent_count(window, gamma) / float(side**d)


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


def window_poly(window, arr):
    """Laurent polynomial of the array's nonzero entries at their window sites; inverts ``poly_heights``."""
    idx = np.argwhere(arr)
    sites = map(tuple, (idx + window.lo).tolist())
    return LaurentPoly(window.dim, dict(zip(sites, arr[tuple(idx.T)].tolist())))


def add_poly(v, poly):
    """New configuration with the polynomial's coefficients added on."""
    return HeightConfig(v.window, v.gamma, v.heights + poly_heights(v.window, poly))


# -- correction operator -----------------------------------------------------


def correct_to_recurrent(v, M):
    """Polynomial h with support in Q_M making v + h*f recurrent on Q_M.

    On Q_M, with the M+1 shell as sink, adding h*f adds L h for the
    toppling matrix L at threshold 2d, and each class of Z^Q_M / L Z^Q_M
    holds exactly one recurrent configuration (Dhar), so h is unique (L is
    nonsingular).  Two ``stabilize`` calls find it.  With m the all-max
    patch and u_2m the odometer of 2m, delta = 2m - (2m)° = L u_2m lies in
    L Z^Q_M and is at least m, as (2m)° <= m (Creutz's identity
    construction).  With j = 1 + ceil(max(0, -min w) / (2d - 1)) for
    w = v|Q_M, w + j delta >= m, and adding grains to m and stabilizing
    stays recurrent.  That stabilization is w + L (j u_2m - u), u its
    odometer, so h = j u_2m - u.  The surplus of h*f lands on the M+1
    shell, which the window must contain.

    The critical threshold 2d is used no matter the configuration's gamma:
    the corrected patch is recurrent for the critical model that the
    construction belongs to.
    """
    d = v.dim
    if M < 1:
        raise ValueError("M must be >= 1")
    inner = BoxWindow.centered(d, M)
    if not v.window.contains_window(BoxWindow.centered(d, M + 1)):
        raise ValueError("window must contain the centered box of radius M+1")
    two_d = 2 * d
    w = v.heights[v.window.slices(inner)]
    two_m = 2 * (two_d - 1)
    s_2m, u_2m = stabilize(HeightConfig.constant(inner, two_d, two_m))
    delta = two_m - s_2m.heights
    j = 1 - min(0, int(w.min())) // (two_d - 1)
    _, u = stabilize(HeightConfig(inner, two_d, w + j * delta))
    return window_poly(inner, j * u_2m.counts - u.counts)


# -- group operation ---------------------------------------------------------


def group_add(v, w):
    """Sandpile-group addition: pointwise sum, then stabilization."""
    if v.window != w.window or v.gamma != w.gamma:
        raise ValueError("operands must share window and gamma")
    if not burning_test(v).recurrent or not burning_test(w).recurrent:
        raise ValueError("group_add requires recurrent operands")
    total = HeightConfig(v.window, v.gamma, v.heights + w.heights)
    out, _ = stabilize(total)
    return out


def group_add_stack(vs, ws):
    """``group_add`` of each pair (vs[i], ws[i]) with its odometer: a list of (config, odometer).

    The operands are burnt together and the sums stabilized together; the
    pairs share one window and gamma.  ``group_add`` itself stays a call of
    ``burning_test`` twice and ``stabilize`` once, each a stack of one.
    """
    vs, ws = list(vs), list(ws)
    if len(vs) != len(ws):
        raise ValueError("as many left as right operands are needed")
    if any(v.window != w.window or v.gamma != w.gamma for v, w in zip(vs, ws)):
        raise ValueError("operands must share window and gamma")
    if not all(report.recurrent for report in burning_test_stack(vs + ws)):
        raise ValueError("group_add requires recurrent operands")
    return stabilize_stack(HeightConfig(v.window, v.gamma, v.heights + w.heights) for v, w in zip(vs, ws))


def with_outflow(v, odometer):
    """v on its window W dilated by 1, with the grains its odometer k sent across the border on the shell.

    The shell holds e_n = sum_{m in W, m ~ n} k_m.  With k zero off W and L
    the full-lattice stencil, the load u, zero off W, is v + e + L k on Z^d,
    and a covering map sends L k to the integer field g* . k: it maps u and
    v + e to the same torus field.
    """
    heights = neighbour_sum(np.pad(odometer.counts, 1))
    heights[(slice(1, -1),) * v.dim] = v.heights
    return HeightConfig(v.window.dilated(1), v.gamma, heights)


def random_load(window, gamma, rng):
    """All-max plus U{0..gamma-1} grains per site: the unstabilized draw of ``random_recurrent``."""
    return HeightConfig(window, gamma, rng.integers(0, gamma, size=window.shape) + (gamma - 1))


def random_recurrent(window, gamma, rng):
    """Recurrent sample: ``random_load`` stabilized.

    Adding to a recurrent configuration and stabilizing lands back in the
    recurrent set, so the result always passes the burning test.  The sample
    is not uniform over the recurrent set: enumerating every input on a 2x2
    window produces each recurrent configuration 1 to 3 times.  Drawing
    several loads and passing them to ``stabilize_stack`` gives the same
    samples from the same generator state.
    """
    out, _ = stabilize(random_load(window, gamma, rng))
    return out
