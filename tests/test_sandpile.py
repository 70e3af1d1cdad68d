"""Sandpile dynamics: toppling, abelian stabilization, the burning test
against the raw forbidden-subconfiguration definition, counting, the
correction operator, and the group operation."""

import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandharm import sandpile, window
from sandharm.laurent import LaurentPoly, laplacian_poly
from sandharm.sandpile import (
    HeightConfig,
    burning_test,
    correct_to_recurrent,
    count_recurrent,
    finite_entropy_estimate,
    group_add,
    log_recurrent_count,
    random_recurrent,
    stabilize,
    toppling_determinant_exact,
    toppling_matrix,
)
from sandharm.sandpile import _burn_all, _burn_rounds
from sandharm.window import BoxWindow


def box(*shape):
    return BoxWindow.from_shape(shape)


def lattice_neighbours(site):
    for ax in range(len(site)):
        for step in (-1, 1):
            yield site[:ax] + (site[ax] + step,) + site[ax + 1 :]


def neighbour_sum(a):
    """Sum of the 2d nearest-neighbour values, zero outside the array."""
    padded = np.pad(a, 1)
    out = np.zeros_like(a)
    for ax in range(a.ndim):
        for step in (-1, 1):
            idx = [slice(1, -1)] * a.ndim
            idx[ax] = slice(1 + step, a.shape[ax] + 1 + step)
            out += padded[tuple(idx)]
    return out


def sweep_reference(heights, gamma):
    """Plain bulk sweeps from zero: every site topples floor(h / gamma) times per sweep."""
    h = heights.copy()
    counts = np.zeros_like(h)
    while True:
        k = np.maximum(h // gamma, 0)
        if not k.any():
            return h, counts
        counts += k
        h += neighbour_sum(k) - gamma * k


def stabilize_serial(v, rng):
    """Reference stabilization toppling one random unstable site at a time.

    Slow; it exercises the abelian property against the bulk-sweep driver
    with genuinely different toppling orders.
    """
    h = v.heights.copy()
    counts = np.zeros_like(h)
    while True:
        unstable = np.argwhere(h >= v.gamma)
        if len(unstable) == 0:
            break
        idx = tuple(unstable[rng.integers(len(unstable))])
        h[idx] -= v.gamma
        counts[idx] += 1
        for ax in range(v.dim):
            for step in (-1, 1):
                nb = list(idx)
                nb[ax] += step
                if 0 <= nb[ax] < h.shape[ax]:
                    h[tuple(nb)] += 1
    lost = int(v.heights.sum() - h.sum())
    return HeightConfig(v.window, v.gamma, h), sandpile.Odometer(counts, lost)


def is_stable(v):
    return bool(((v.heights >= 0) & (v.heights < v.gamma)).all())


def burn_rounds_reference(heights, alive):
    """Full-array parallel rounds: recount the live neighbours of every site each round."""
    rounds = np.zeros(heights.shape, dtype=np.int64)
    live = alive.copy()
    rnd = 0
    while True:
        rnd += 1
        eligible = live & (heights >= neighbour_sum(live.astype(np.int64)))
        if not eligible.any():
            return rounds
        rounds[eligible] = rnd
        live &= ~eligible


@st.composite
def sandpile_inputs(draw, even=False, grains=5000):
    """A window of dimension 1-3, a threshold 2d..2d+2, and a pile, an all-max + U load or a random field.

    With ``even`` every side is even, so the flat layout puts its second
    sink layer on every axis; a pile holds at most ``grains``.
    """
    d = draw(st.integers(1, 3))
    side = st.integers(1, (24, 9, 5)[d - 1])
    if even:
        side = st.integers(1, (12, 4, 3)[d - 1]).map(lambda n: 2 * n)
    shape = tuple(draw(st.lists(side, min_size=d, max_size=d)))
    gamma = draw(st.integers(2 * d, 2 * d + 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["pile", "all-max + U", "field"]))
    if kind == "pile":
        heights = np.zeros(shape, dtype=np.int64)
        heights[tuple(int(rng.integers(n)) for n in shape)] = draw(st.integers(0, grains))
    elif kind == "all-max + U":
        heights = gamma - 1 + rng.integers(0, gamma, size=shape)
    else:
        heights = rng.integers(0, 4 * gamma, size=shape)
    return HeightConfig(BoxWindow.from_shape(shape), gamma, heights)


@st.composite
def sandpile_stacks(draw):
    """1-6 members on one window of dimension 1-3 with one threshold 2d..2d+2.

    Members are all-max + U loads, single piles or random fields; in about
    half the stacks one member is a pile of 2^30 grains, whose head start
    tops 2^20 while its residual still sweeps in int16.
    """
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, (24, 9, 5)[d - 1]), min_size=d, max_size=d)))
    gamma = draw(st.integers(2 * d, 2 * d + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for kind in draw(st.lists(st.sampled_from(["pile", "all-max + U", "field"]), min_size=1, max_size=6)):
        if kind == "pile":
            heights = np.zeros(shape, dtype=np.int64)
            heights[tuple(int(rng.integers(n)) for n in shape)] = rng.integers(0, 5000)
        elif kind == "all-max + U":
            heights = gamma - 1 + rng.integers(0, gamma, size=shape)
        else:
            heights = rng.integers(0, 4 * gamma, size=shape)
        members.append(heights)
    if draw(st.booleans()):
        wide = np.zeros(shape, dtype=np.int64)
        wide[tuple(int(rng.integers(n)) for n in shape)] = 1 << 30
        members[draw(st.integers(0, len(members) - 1))] = wide
    window = BoxWindow.from_shape(shape)
    return [HeightConfig(window, gamma, h) for h in members]


@st.composite
def burn_stacks(draw):
    """A stack of 1-6 height arrays in [-2, gamma), a tenth far outside, with partial alive masks."""
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, (40, 11, 6)[d - 1]), min_size=d, max_size=d)))
    gamma = draw(st.integers(2 * d, 2 * d + 2))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    heights = rng.integers(-2, gamma, size=(n,) + shape)
    extreme = rng.random(heights.shape) < 0.1
    heights[extreme] = rng.choice([-(1 << 40), -(1 << 31) - 1, 1 << 31, 1 << 40], size=extreme.sum())
    alive = rng.random(heights.shape) < draw(st.sampled_from([0.5, 0.8, 1.0]))
    return heights, alive


def has_forbidden_subset(v):
    """Reference recurrence test straight from the definition.

    v is forbidden iff some nonempty subset F of sites has
    v_n < #(neighbours of n inside F) for every n in F.
    """
    sites = list(v.window.sites())
    pos = {s: i for i, s in enumerate(sites)}
    adj = [[pos[nb] for nb in lattice_neighbours(s) if nb in pos] for s in sites]
    h = [int(v.heights[v.window.index_of(s)]) for s in sites]
    n = len(sites)
    for mask in range(1, 1 << n):
        forbidden = True
        for i in range(n):
            if mask >> i & 1:
                cnt = sum(1 for j in adj[i] if mask >> j & 1)
                if h[i] >= cnt:
                    forbidden = False
                    break
        if forbidden:
            return True
    return False


def box_shapes(d, max_sites):
    """Every box shape of dimension d, in every axis order, with at most max_sites sites."""
    return [s for s in itertools.product(range(1, max_sites + 1), repeat=d) if math.prod(s) <= max_sites]


def det_reference(mat):
    """Exact determinant by full fraction-free elimination over every row and column."""
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


def smith_invariants(mat):
    """Invariant factors above 1 of a nonsingular integer matrix, by unimodular row and column operations.

    Each pass moves the trailing block's smallest nonzero entry to the pivot
    and reduces its row and column by it; a remainder is smaller, so the
    passes end.  A pivot that does not divide the whole block takes in a row
    that it does not divide, so the factors come out in divisibility order.
    """
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    factors = []
    for k in range(n):
        while True:
            _, i, j = min((abs(a[i][j]), i, j) for i in range(k, n) for j in range(k, n) if a[i][j])
            a[k], a[i] = a[i], a[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
            pivot = a[k][k]
            for i in range(k + 1, n):
                q = a[i][k] // pivot
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            for j in range(k + 1, n):
                q = a[k][j] // pivot
                for row in a:
                    row[j] -= q * row[k]
            if any(a[i][k] for i in range(k + 1, n)) or any(a[k][j] for j in range(k + 1, n)):
                continue
            stray = next((i for i in range(k + 1, n) if any(x % pivot for x in a[i][k + 1 :])), None)
            if stray is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[stray])]
        factors.append(abs(a[k][k]))
    return [f for f in factors if f > 1]


def burn_all_reference(configs, window):
    """Parallel burning rounds on many configs with int64 alive-neighbour counts."""
    sites = list(window.sites())
    pos = {s: i for i, s in enumerate(sites)}
    adj = np.zeros((len(sites), len(sites)), dtype=np.int64)
    for i, s in enumerate(sites):
        for nb in lattice_neighbours(s):
            if nb in pos:
                adj[i, pos[nb]] = 1
    alive = np.ones(configs.shape, dtype=bool)
    while True:
        eligible = alive & (configs >= alive.astype(np.int64) @ adj)
        if not eligible.any():
            return ~alive.any(axis=1)
        alive &= ~eligible


# -- elementary moves --------------------------------------------------------


def test_neighbour_sum_and_laplacian():
    ones = window.neighbour_sum(np.ones((3, 3), dtype=np.int64))
    assert (ones[1, 1], ones[0, 0], ones[1, 0]) == (4, 2, 3)
    assert window.neighbour_sum(np.ones((1, 1), dtype=np.int64))[0, 0] == 0
    assert window.neighbour_sum(np.ones((3, 3, 3), dtype=np.int64))[1, 1, 1] == 6
    rng = np.random.default_rng(11)
    shapes = [(1,), (2,), (7,), (1, 1), (1, 5), (4, 1), (3, 6), (1, 1, 1), (2, 1, 3), (1, 4, 1), (3, 4, 5)]
    for shape in shapes:
        for field in (rng.integers(-50, 50, size=shape), rng.normal(size=shape)):
            # integers must match exactly; float sums of at most 6 terms, added
            # in another order, may differ by a few ulps of the largest term
            atol = 0 if field.dtype.kind == "i" else 8 * np.finfo(float).eps * np.abs(field).max()
            expected = neighbour_sum(field)
            got = window.neighbour_sum(field)
            assert got.dtype == field.dtype
            np.testing.assert_allclose(got, expected, rtol=0, atol=atol)
            for gamma in (2 * len(shape), 2 * len(shape) + 3):
                np.testing.assert_allclose(window.laplacian(field, gamma), gamma * field - expected, rtol=0, atol=atol)


def test_single_toppling():
    # one toppling at the centre, which leaves the pile stable
    v = HeightConfig.delta(box(3, 3), 4, (1, 1), 4)
    out, odo = stabilize(v)
    assert np.array_equal(odo.counts, HeightConfig.delta(box(3, 3), 4, (1, 1), 1).heights)
    assert np.array_equal(out.heights, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert odo.total_mass_lost == 0  # interior toppling keeps all grains


def test_corner_toppling_loses_grains():
    v = HeightConfig.delta(box(2, 2), 4, (0, 0), 5)
    out, odo = stabilize(v)
    assert odo.counts.sum() == 1
    assert np.array_equal(out.heights, [[1, 1], [1, 0]])
    assert odo.total_mass_lost == 2


def test_topplings_commute():
    # two unstable ends, toppled in either order by the serial reference
    v = HeightConfig(box(1, 3), 4, np.array([[4, 0, 5]]))
    ref, _ = stabilize(v)
    firsts = set()
    for k in range(8):
        rng = np.random.default_rng(k)
        firsts.add(int(np.random.default_rng(k).integers(2)))
        out, _ = stabilize_serial(v, rng)
        assert np.array_equal(out.heights, ref.heights)
    assert firsts == {0, 1}


# -- stabilization -----------------------------------------------------------


def test_stabilize_matches_serial_reference(rng):
    v = HeightConfig.delta(box(5, 5), 4, (2, 2), 30)
    bulk, odo = stabilize(v)
    serial, odo2 = stabilize_serial(v, rng)
    assert np.array_equal(bulk.heights, serial.heights)
    assert np.array_equal(odo.counts, odo2.counts)
    assert is_stable(bulk)


def test_stabilize_identity_on_stable():
    v = HeightConfig.constant(box(4, 4), 4, 3)
    out, odo = stabilize(v)
    assert np.array_equal(out.heights, v.heights)
    assert not odo.counts.any()
    assert odo.total_mass_lost == 0


def test_stabilize_rejects_negative_heights():
    v = HeightConfig(box(2, 2), 4, np.array([[0, 0], [0, -1]]))
    with pytest.raises(ValueError):
        stabilize(v)


def test_exact_mass_balance(rng):
    gamma = 4
    for _ in range(5):
        heights = rng.integers(0, 3 * gamma, size=(6, 6))
        v = HeightConfig(box(6, 6), gamma, heights)
        out, odo = stabilize(v)
        assert int(v.heights.sum()) == int(out.heights.sum()) + odo.total_mass_lost
        # toppling identity: final = initial - gamma*counts + neighbour shifts
        shifted = np.zeros_like(odo.counts)
        for ax in (0, 1):
            for step in (-1, 1):
                shifted += np.roll(odo.counts, step, axis=ax) * 1
                # roll wraps; zero the wrapped slice
                sl = [slice(None)] * 2
                sl[ax] = 0 if step == 1 else -1
                shifted[tuple(sl)] -= np.take(odo.counts, -1 if step == 1 else 0, axis=ax)
        assert np.array_equal(out.heights, v.heights - gamma * odo.counts + shifted)


def test_abelian_under_random_orders(rng):
    for _ in range(3):
        heights = rng.integers(0, 9, size=(6, 6))
        v = HeightConfig(box(6, 6), 4, heights)
        ref, odo_ref = stabilize(v)
        for k in range(10):
            out, odo = stabilize_serial(v, np.random.default_rng(k))
            assert np.array_equal(out.heights, ref.heights)
            assert np.array_equal(odo.counts, odo_ref.counts)


@given(sandpile_inputs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_stabilize_matches_sweep_reference(v):
    ref_heights, ref_counts = sweep_reference(v.heights, v.gamma)
    out, odo = stabilize(v)
    assert np.array_equal(out.heights, ref_heights)
    assert np.array_equal(odo.counts, ref_counts)
    assert odo.total_mass_lost == int(v.heights.sum() - ref_heights.sum())


@given(sandpile_inputs(even=True, grains=400))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_even_sides_match_sweep_and_serial_references(v):
    # every side even: the second sink layer sits on every axis and must take no grain
    assert all(n % 2 == 0 for n in v.window.shape)
    ref_heights, ref_counts = sweep_reference(v.heights, v.gamma)
    serial, serial_odo = stabilize_serial(v, np.random.default_rng(0))
    out, odo = stabilize(v)
    for heights, counts in ((ref_heights, ref_counts), (serial.heights, serial_odo.counts)):
        assert np.array_equal(out.heights, heights)
        assert np.array_equal(odo.counts, counts)
    assert odo.total_mass_lost == serial_odo.total_mass_lost


def test_flat_layout_two_colours_every_member():
    # odd strides and member sizes; lattice neighbours, window and border alike, in opposite
    # halves; and each colour's slice adds land on exactly its flat neighbours at +-stride
    for d in (1, 2, 3):
        for shape in itertools.product(range(1, 8), repeat=d):
            padded, strides, core = sandpile._flat_layout(shape)
            assert all(st % 2 == 1 for st in strides) and math.prod(padded) % 2 == 1
            for n in (1, 2, 3):
                stack = np.arange(1, n * math.prod(shape) + 1).reshape((n,) + shape)
                halves = sandpile._halves(stack, -1)
                sizes = [h.size for h in halves]
                assert np.array_equal(sandpile._join(halves, (n,) + padded), sandpile._pad_stack(stack, -1))
                assert np.array_equal(sandpile._join(halves, (n,) + padded)[core], stack)
                colour = sandpile._join([np.zeros(sizes[0]), np.ones(sizes[1])], (n,) + padded)
                for ax in range(d):
                    assert (np.diff(colour, axis=ax + 1) != 0).all()
                for c in (0, 1):
                    ones = [np.full(sizes[0], c == 0, dtype=np.int64), np.full(sizes[1], c == 1, dtype=np.int64)]
                    flat = sandpile._join(ones, -1)
                    reference = np.zeros_like(flat)
                    for st in strides:
                        reference[st:] += flat[:-st]
                        reference[:-st] += flat[st:]
                    landed = [np.zeros(size, dtype=np.int64) for size in sizes]
                    for target, source in sandpile._moves(strides, c, sizes):
                        landed[1 - c][target] += ones[c][source]
                    assert np.array_equal(sandpile._join(landed, -1), reference)


def jacobi_sweeps(heights, gamma, start):
    """Full sweeps a one-colour (Jacobi) loop topples in from the head start ``start``."""
    h = heights - window.laplacian(start, gamma)
    sweeps = 0
    while True:
        k = np.maximum(h // gamma, 0)
        if not k.any():
            return sweeps
        sweeps += 1
        h -= window.laplacian(k, gamma)


def test_half_sweeps_take_no_more_passes_than_full_sweeps(monkeypatch):
    # counted, not timed: each half-sweep makes one np.floor_divide call on one colour's half,
    # and there are at most the Jacobi reference's sweeps plus 2, so the site updates halve;
    # a return to one-colour sweeps over the whole array doubles the updates and fails here
    rng = np.random.default_rng(3)
    for stack in ([sandpile.random_load(box(48, 48), 4, rng)],
                  [sandpile.random_load(box(6, 6, 6), 6, rng) for _ in range(5)]):
        heights, gamma = np.stack([v.heights for v in stack]), stack[0].gamma
        start = sandpile._odometer_floor(heights, gamma)
        jacobi = max(jacobi_sweeps(h, gamma, s) for h, s in zip(heights, start))
        sizes = []
        floor_divide = np.floor_divide

        def counting(a, *args, **kwargs):
            sizes.append(a.size)
            return floor_divide(a, *args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(np, "floor_divide", counting)
            results = sandpile.stabilize_stack(stack)
        sites = len(stack) * math.prod(sandpile._flat_layout(stack[0].window.shape)[0])
        assert jacobi > 10 and len(sizes) <= jacobi + 2
        assert max(sizes) <= (sites + 1) // 2
        for v, (out, odo) in zip(stack, results):
            ref_heights, ref_counts = sweep_reference(v.heights, gamma)
            assert np.array_equal(out.heights, ref_heights) and np.array_equal(odo.counts, ref_counts)


def head_start(heights, gamma):
    """``_odometer_floor`` of one height array, a stack of one."""
    return sandpile._odometer_floor(heights[None], gamma)[0]


SWEEP_DTYPES = (np.int16, np.int32, np.int64)


def sweep_dtype(heights, gamma, start=None):
    """The dtype ``stabilize`` sweeps one height array in, from ``start`` (its head start by default)."""
    start = head_start(heights, gamma) if start is None else start
    return sandpile._sweep_dtype((heights - window.laplacian(start, gamma))[None], gamma)


@contextlib.contextmanager
def sweeps_in(dtype):
    """The limits of the dtypes narrower than ``dtype`` set to 0, so no bound proves them."""
    with pytest.MonkeyPatch.context() as mp:
        for narrower in SWEEP_DTYPES[: SWEEP_DTYPES.index(dtype)]:
            mp.setitem(sandpile._SWEEP_LIMITS, narrower, 0)
        yield


def stabilize_in(v, dtype):
    """``stabilize`` with its sweeps forced to ``dtype`` through the limits."""
    with sweeps_in(dtype):
        assert sweep_dtype(v.heights, v.gamma) is dtype
        return stabilize(v)


@given(sandpile_inputs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_int16_int32_and_int64_sweeps_agree(v):
    assert sweep_dtype(v.heights, v.gamma) is np.int16
    ref_heights, ref_counts = sweep_reference(v.heights, v.gamma)
    for dtype in SWEEP_DTYPES:
        out, odo = stabilize_in(v, dtype)
        assert np.array_equal(out.heights, ref_heights)
        assert np.array_equal(odo.counts, ref_counts)
        assert odo.total_mass_lost == int(v.heights.sum() - ref_heights.sum())


@given(sandpile_stacks(), st.sampled_from(SWEEP_DTYPES))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_stacked_stabilize_matches_sweep_reference(stack, dtype):
    # each member of a stack comes out as the bulk sweeps give it alone, whatever its neighbours,
    # in each sweep dtype; a 2^30 pile's head start takes up all but an int16 residual
    gamma = stack[0].gamma
    wide = [v for v in stack if v.heights.max() == 1 << 30]
    for v in wide:
        assert head_start(v.heights, gamma).max() > 1 << 20
        assert sweep_dtype(v.heights, gamma) is np.int16
    with sweeps_in(dtype):
        assert {sweep_dtype(v.heights, gamma) for v in stack} == {dtype}
        results = sandpile.stabilize_stack(stack)
    assert len(results) == len(stack)
    for v, (out, odo) in zip(stack, results):
        ref_heights, ref_counts = sweep_reference(v.heights, gamma)
        assert out.window == v.window and out.gamma == gamma
        assert np.array_equal(out.heights, ref_heights)
        assert np.array_equal(odo.counts, ref_counts)
        assert odo.total_mass_lost == int(v.heights.sum() - ref_heights.sum())


def test_stack_sweeps_in_its_widest_members_dtype(monkeypatch):
    # an overshooting head start on one member alone: that member needs int32, so the stack
    # sweeps in int32, and every member still comes out as the bulk sweeps give it alone
    rng = np.random.default_rng(11)
    w = box(15, 15)
    stack = [sandpile.random_load(w, 4, rng) for _ in range(3)]
    floor = sandpile._odometer_floor

    def overshoot(heights, gamma):
        start = floor(heights, gamma)
        start[1, 7, 7] += 150
        return start

    lone = [sweep_dtype(v.heights, 4) for v in stack]
    monkeypatch.setattr(sandpile, "_odometer_floor", overshoot)
    starts = sandpile._odometer_floor(np.stack([v.heights for v in stack]), 4)
    assert lone == [np.int16] * 3 and sweep_dtype(stack[1].heights, 4, starts[1]) is np.int32
    residuals = np.stack([v.heights for v in stack]) - window.laplacian(starts, 4, stacked=True)
    assert sandpile._sweep_dtype(residuals, 4) is np.int32
    for v, (out, odo) in zip(stack, sandpile.stabilize_stack(stack)):
        ref_heights, ref_counts = sweep_reference(v.heights, 4)
        assert np.array_equal(out.heights, ref_heights) and np.array_equal(odo.counts, ref_counts)


def test_sandpile_bulk_inputs_sweep_in_int16(monkeypatch):
    # counted, not timed: every sweep of the benchmark's five stabilize inputs (the 128^2 and 32^3
    # loads, the 128^2 group sum, the 2^15 pile on 129^2, the M=30 correction) runs in int16; a
    # guard that widens the dtype fails here, not only in the benchmark's times
    rng = np.random.default_rng(0)
    w128 = box(128, 128)
    a, b = (random_recurrent(w128, 4, rng) for _ in range(2))
    field = BoxWindow.centered(2, 31)
    dtypes = []
    floor_divide = np.floor_divide

    def recording(x, *args, **kwargs):
        dtypes.append(x.dtype)
        return floor_divide(x, *args, **kwargs)

    monkeypatch.setattr(np, "floor_divide", recording)
    for run in (lambda: stabilize(sandpile.random_load(w128, 4, rng)),
                lambda: stabilize(sandpile.random_load(box(32, 32, 32), 6, rng)),
                lambda: group_add(a, b),
                lambda: stabilize(HeightConfig.delta(BoxWindow.centered(2, 64), 4, (0, 0), 2**15)),
                lambda: correct_to_recurrent(HeightConfig(field, 4, rng.integers(-3, 8, size=field.shape)), 30)):
        before = len(dtypes)
        run()
        assert len(dtypes) > before + 10
    assert set(dtypes) == {np.dtype(np.int16)}


@given(burn_stacks())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_stacked_burn_rounds_match_full_array_rounds(stack):
    heights, alive = stack
    rounds = _burn_rounds(heights, alive)
    assert rounds.shape == heights.shape
    for h, a, r in zip(heights, alive, rounds):
        assert np.array_equal(r, burn_rounds_reference(h, a))


def test_stack_guards_hold_per_member():
    # a stack raises exactly when one of its members would raise alone
    w = box(3, 3)
    fine = HeightConfig.constant(w, 4, 5)
    stable_reports = sandpile.burning_test_stack([HeightConfig.all_max(w, 4), HeightConfig.constant(w, 4, 0)])
    assert [r.recurrent for r in stable_reports] == [True, False]
    for bad, error in [
        (HeightConfig.constant(w, 4, -1), "nonnegative"),
        (HeightConfig.constant(w, 4, 1 << 60), "2\\^62"),
    ]:
        with pytest.raises(ValueError, match=error):
            stabilize(bad)
        with pytest.raises(ValueError, match=error):
            sandpile.stabilize_stack([fine, bad, fine])
    with pytest.raises(ValueError, match="gamma - 1"):
        sandpile.burning_test_stack([HeightConfig.all_max(w, 4), fine])
    with pytest.raises(ValueError, match="one window"):
        sandpile.stabilize_stack([fine, HeightConfig.constant(box(3, 4), 4, 5)])
    top, empty = HeightConfig.all_max(w, 4), HeightConfig.constant(w, 4, 0)
    with pytest.raises(ValueError, match="recurrent operands"):
        sandpile.group_add_stack([top, top], [top, empty])
    assert np.array_equal(sandpile.group_add_stack([top], [top])[0][0].heights, group_add(top, top).heights)
    assert sandpile.stabilize_stack([]) == [] and sandpile.burning_test_stack([]) == []


def test_group_add_stack_returns_the_odometers_of_the_sums(rng):
    # each pair's (config, odometer) is stabilize of the pointwise sum, and the config is group_add's
    w = box(5, 7)
    vs = [random_recurrent(w, 5, rng) for _ in range(4)]
    ws = [random_recurrent(w, 5, rng) for _ in range(4)]
    for v, vp, (s, k) in zip(vs, ws, sandpile.group_add_stack(vs, ws)):
        ref_s, ref_k = stabilize(HeightConfig(w, 5, v.heights + vp.heights))
        assert np.array_equal(s.heights, ref_s.heights) and np.array_equal(s.heights, group_add(v, vp).heights)
        assert np.array_equal(k.counts, ref_k.counts) and k.total_mass_lost == ref_k.total_mass_lost
        assert k.counts.any()


def test_outflow_is_the_grains_that_crossed_the_border(rng):
    # the load, zero off the window, minus L k on Z^d is the stable heights plus the outflow on
    # the exterior shell; the shell's grains and the dissipated ones make up the mass lost
    for w, gamma in ((box(6, 5), 4), (box(4, 3, 5), 7)):
        load = sandpile.random_load(w, gamma, rng)
        s, k = stabilize(load)
        ledger = sandpile.with_outflow(s, k)
        assert ledger.window == w.dilated(1) and ledger.gamma == gamma
        zero_k = np.pad(k.counts, 1)
        expected = np.pad(load.heights, 1) - (gamma * zero_k - window.neighbour_sum(zero_k))
        assert np.array_equal(ledger.heights, expected)
        inner = (slice(1, -1),) * w.dim
        assert np.array_equal(ledger.heights[inner], s.heights)
        outflow = ledger.heights.sum() - s.heights.sum()
        assert outflow > 0
        assert outflow + (gamma - 2 * w.dim) * k.counts.sum() == k.total_mass_lost


def test_stacks_split_at_the_site_budget(monkeypatch, rng):
    # runs of at most STACK_SITES sites, a larger window alone; the results do not depend on the split
    w = box(6, 5)
    loads = [sandpile.random_load(w, 4, rng) for _ in range(7)]
    whole = sandpile.stabilize_stack(loads)
    monkeypatch.setattr(sandpile, "STACK_SITES", 65)
    assert [len(run) for run, _ in sandpile._stacks(loads)] == [2, 2, 2, 1]
    split = sandpile.stabilize_stack(loads)
    for (a, odo_a), (b, odo_b) in zip(whole, split):
        assert np.array_equal(a.heights, b.heights) and np.array_equal(odo_a.counts, odo_b.counts)
    monkeypatch.setattr(sandpile, "STACK_SITES", 10)
    runs = sandpile._stacks(loads)
    assert [len(run) for run, _ in runs] == [1] * 7
    assert all(np.shares_memory(heights, run[0].heights) for run, heights in runs)


def test_sweep_dtype_guard():
    # the torsion bound the guard uses: L^-1 1 <= (n + 1)^2 / 8 for the shortest side n,
    # with equality at the middle of an odd path when gamma = 2
    for shape, gamma in [((9,), 2), ((7, 12), 4), ((12, 7), 5), ((4, 5, 6), 6), ((6, 6, 3), 8)]:
        ones = np.linalg.solve(toppling_matrix(box(*shape), gamma), np.ones(math.prod(shape)))
        assert ones.max() <= (min(shape) + 1) ** 2 / 8 * (1 + 1e-12)
    # the int16 bound on concrete shapes: R <= 6242 on a 128^2 load and 6339 on the 129^2 pile,
    # so 2d R < 2^15; a 256^2 load (R <= 24770) takes int32
    rng = np.random.default_rng(2)
    for v, dtype in [(sandpile.random_load(box(128, 128), 4, rng), np.int16),
                     (HeightConfig.delta(BoxWindow.centered(2, 64), 4, (0, 0), 2**15), np.int16),
                     (sandpile.random_load(box(32, 32, 32), 6, rng), np.int16),
                     (sandpile.random_load(box(256, 256), 4, rng), np.int32)]:
        assert sweep_dtype(v.heights, v.gamma) is dtype
    # the head start takes up a pile, however large: its residual sweeps in int16
    w = box(65, 65)
    for grains in (1 << 20, 1 << 31, 1 << 40):
        heights = HeightConfig.delta(w, 4, (32, 32), grains).heights
        assert sweep_dtype(heights, 4) is np.int16
    # a head start that overshoots far enough widens the dtype, even on a stable pile
    heights = np.zeros((3, 3), dtype=np.int64)
    for top, dtype in [(1 << 8, np.int16), (1 << 20, np.int32), (1 << 28, np.int64)]:
        assert sweep_dtype(heights, 4, np.full((3, 3), top)) is dtype


def test_int64_guard_refuses_unprovable_sweeps(monkeypatch):
    # the same bound in int64: at 2^63 or more it is refused
    heights = np.zeros((3, 3), dtype=np.int64)
    assert sweep_dtype(heights, 4, np.full((3, 3), 1 << 58)) is np.int64
    with pytest.raises(ValueError, match="2\\^63"):
        sweep_dtype(heights, 4, np.full((3, 3), 1 << 60))
    # a threshold that large makes the odometer bound itself pass 2^63
    with pytest.raises(ValueError, match="2\\^63"):
        stabilize(HeightConfig.constant(box(3, 3), 1 << 62, 1))
    # a head start within its ceiling whose topple would leave int64 is refused before it is toppled
    v = HeightConfig.delta(box(1000), 64, (500,), 1 << 40)
    monkeypatch.setattr(sandpile, "_odometer_floor", lambda h, gamma: np.full(h.shape, 1 << 56))
    with pytest.raises(ValueError, match="topple its head start"):
        stabilize(v)


def test_certificate_repairs_an_overshooting_head_start(monkeypatch):
    # the head start is only a floor up to rounding; if it ever overshoots,
    # the least-action certificate must untopple back to the exact odometer
    floor = sandpile._odometer_floor
    rng = np.random.default_rng(7)
    monkeypatch.setattr(
        sandpile, "_odometer_floor", lambda h, gamma: floor(h, gamma) + rng.integers(0, 4, size=h.shape)
    )
    cases = [
        HeightConfig.delta(box(15, 15), 4, (7, 7), 600),
        HeightConfig(box(12, 10), 5, 4 + rng.integers(0, 5, size=(12, 10))),
        HeightConfig(box(5, 4, 6), 6, rng.integers(0, 12, size=(5, 4, 6))),
        HeightConfig(box(30), 2, rng.integers(0, 6, size=(30,))),
    ]
    for v in cases:
        ref_heights, ref_counts = sweep_reference(v.heights, v.gamma)
        for out, odo in (stabilize_in(v, dtype) for dtype in SWEEP_DTYPES):
            assert np.array_equal(out.heights, ref_heights)
            assert np.array_equal(odo.counts, ref_counts)
            assert odo.total_mass_lost == int(v.heights.sum() - ref_heights.sum())


def test_gross_head_start_overshoot_is_an_error(monkeypatch, rng):
    # the inverse DST left unscaled overshoots by prod 2 (s + 1) = 1156; the
    # certificate would untopple that one pass at a time, so stabilize refuses it
    def unscaled_floor(heights, gamma):
        rhs = sandpile._dst1(heights - (gamma - 1.0)) / sandpile._box_eigenvalues(heights.shape[1:], gamma)
        return np.maximum(np.floor(sandpile._dst1(rhs) - 1e-6), 0).astype(np.int64)

    monkeypatch.setattr(sandpile, "_odometer_floor", unscaled_floor)
    w = box(16, 16)
    v = HeightConfig(w, 4, HeightConfig.all_max(w, 4).heights + rng.integers(0, 4, size=w.shape))
    with pytest.raises(RuntimeError, match="exceeds the odometer bound"):
        stabilize(v)


def test_odometer_floor_is_below_the_odometer(rng):
    cases = [
        HeightConfig.delta(box(33, 33), 4, (16, 16), 5000),
        HeightConfig(box(20, 20), 4, 3 + rng.integers(0, 4, size=(20, 20))),
        HeightConfig(box(8, 8, 8), 7, rng.integers(0, 14, size=(8, 8, 8))),
        HeightConfig(box(17), 2, rng.integers(0, 9, size=(17,))),
    ]
    for i, v in enumerate(cases):
        start = head_start(v.heights, v.gamma)
        _, counts = sweep_reference(v.heights, v.gamma)
        assert (start <= counts).all()
        if i == 0:
            assert start.sum() > counts.sum() // 2  # on a pile, most of the work


def test_dst1_matches_pocketfft_dst_pair(rng):
    # the head start's transforms, against the library route they replaced, for
    # each member of a stack of three; side 2730 gives 1/5462 different rounded
    # from long double than in double
    from scipy import fft

    shapes = [(1,), (2,), (7,), (256,), (2730,), (1, 1), (1, 6), (9, 1), (65, 65), (3, 256)]
    shapes += [(1, 1, 1), (4, 1, 7), (17, 9, 5), (1, 2, 3, 4), (2, 1, 1, 3), (5, 5, 5, 5)]
    for shape in shapes:
        x = rng.normal(size=(3,) + shape) * 100.0
        scale = float(1 / np.longdouble(math.prod(2 * (s + 1) for s in shape)))
        forward, inverse = sandpile._dst1(x), sandpile._dst1(x, scale)
        assert forward.flags.c_contiguous and inverse.flags.c_contiguous
        gamma = 2 * len(shape) + 1
        heights = rng.integers(0, 40, size=(3,) + shape)
        start = sandpile._odometer_floor(heights, gamma)
        for i in range(3):
            assert np.array_equal(forward[i], fft.dstn(x[i], type=1))
            assert np.array_equal(inverse[i], fft.idstn(x[i], type=1))
            rhs = fft.dstn(heights[i] - (gamma - 1.0), type=1) / sandpile._box_eigenvalues(shape, gamma)
            floor = np.maximum(np.floor(fft.idstn(rhs, type=1) - 1e-6), 0).astype(np.int64)
            assert np.array_equal(start[i], floor)


def test_dissipative_stabilization_stays_local():
    # gamma = 2d+1 kills mass; per-site work must not grow with the window
    gamma = 5
    results = {}
    for side in (16, 32):
        v = HeightConfig.constant(box(side, side), gamma, 2 * gamma)
        out, odo = stabilize(v)
        assert is_stable(out)
        results[side] = odo.counts
    center16 = results[16][8, 8]
    center32 = results[32][16, 16]
    assert center32 == center16  # interior behaviour independent of the box
    assert results[32].max() <= 50
    assert results[32].sum() <= 10 * 32 * 32


# -- burning test ------------------------------------------------------------


def test_burning_two_site_examples():
    w = box(1, 2)
    stuck = burning_test(HeightConfig(w, 4, np.array([[0, 0]])))
    assert not stuck.recurrent
    assert stuck.stuck_set == {(0, 0), (0, 1)}
    ok = burning_test(HeightConfig(w, 4, np.array([[1, 0]])))
    assert ok.recurrent
    assert ok.stuck_set == frozenset()
    rounds = [r for r, _ in ok.burn_order]
    assert rounds == sorted(rounds)
    assert ok.rounds.dtype == np.int64


def test_burn_rounds_match_full_array_rounds(rng):
    for shape, gamma in [((40,), 2), ((9, 11), 4), ((7, 7), 6), ((5, 4, 6), 6), ((6, 6, 6), 8)]:
        for _ in range(10):
            heights = rng.integers(-2, gamma, size=shape)
            # heights far outside [-1, 2d] must burn as if unclipped
            extreme = rng.random(shape) < 0.1
            heights[extreme] = rng.choice([-(1 << 40), -(1 << 31) - 1, 1 << 31, 1 << 40], size=extreme.sum())
            alive = rng.random(shape) < 0.8
            expected = burn_rounds_reference(heights, alive)
            assert np.array_equal(_burn_rounds(heights[None], alive[None])[0], expected)
            assert not expected[~alive].any()


def test_all_max_is_recurrent():
    for w, gamma in [(box(4, 4), 4), (box(3, 3, 3), 6), (box(5, 5), 7)]:
        assert burning_test(HeightConfig.all_max(w, gamma)).recurrent


def test_burning_rejects_unstable():
    v = HeightConfig.delta(box(2, 2), 4, (0, 0), 4)
    with pytest.raises(ValueError):
        burning_test(v)


def test_negative_heights_never_burn():
    v = HeightConfig(box(1, 2), 4, np.array([[3, -1]]))
    rep = burning_test(v)
    assert not rep.recurrent
    assert (0, 1) in rep.stuck_set


def test_burning_matches_definition_two_by_two():
    w = box(2, 2)
    matches = 0
    for heights in itertools.product(range(4), repeat=4):
        v = HeightConfig(w, 4, np.array(heights).reshape(2, 2))
        assert burning_test(v).recurrent == (not has_forbidden_subset(v))
        matches += 1
    assert matches == 256


def test_burning_matches_definition_random_3x3(rng):
    w = box(3, 3)
    gamma = 4
    n_cfg = 100_000
    V = rng.integers(0, gamma, size=(n_cfg, 9))
    recurrent = _burn_all(V, -toppling_matrix(w, 0))

    sites = list(w.sites())
    pos = {s: i for i, s in enumerate(sites)}
    masks = []
    for mask in range(1, 1 << 9):
        idx = [i for i in range(9) if mask >> i & 1]
        counts = []
        for i in idx:
            counts.append(sum(1 for nb in lattice_neighbours(sites[i]) if pos.get(nb) in idx))
        masks.append((np.array(idx), np.array(counts)))
    masks.sort(key=lambda m: len(m[0]))  # small subsets catch most failures early

    forbidden = np.zeros(n_cfg, dtype=bool)
    for idx, counts in masks:
        rows = np.nonzero(~forbidden)[0]
        if rows.size == 0:
            break
        hit = (V[rows][:, idx] < counts).all(axis=1)
        forbidden[rows[hit]] = True
    assert np.array_equal(recurrent, ~forbidden)

    for row in rng.choice(n_cfg, size=100, replace=False):
        v = HeightConfig(w, gamma, V[row].reshape(3, 3))
        assert burning_test(v).recurrent == bool(recurrent[row])


def test_recurrent_plus_stencil_goes_unstable(rng):
    # for recurrent v and 0/1 h, some site of supp(h) reaches gamma under h*f
    w = BoxWindow.centered(2, 4)
    gamma = 4
    f = laplacian_poly(2, gamma)
    for _ in range(20):
        v = random_recurrent(w, gamma, rng)
        terms = {}
        for site in itertools.product(range(-2, 3), repeat=2):
            if rng.integers(2):
                terms[site] = 1
        if not terms:
            terms[(0, 0)] = 1
        h = LaurentPoly(2, terms)
        fh = f * h
        assert any(fh.terms.get(s, 0) + v.heights[v.window.index_of(s)] >= gamma for s in terms)


# -- counting ----------------------------------------------------------------


def test_small_window_counts():
    assert count_recurrent(box(1, 2), 4, backend="bruteforce") == 15
    assert count_recurrent(box(2, 2), 4, backend="bruteforce") == 192
    assert count_recurrent(box(1, 1), 4, backend="bruteforce") == 4
    assert toppling_determinant_exact(box(1, 2), 4) == 15
    assert toppling_determinant_exact(box(2, 2), 4) == 192
    assert toppling_determinant_exact(BoxWindow.from_shape((1, 1, 2)), 6) == 35


def test_count_backends_agree():
    cases = [
        (box(1, 2), 4),
        (box(2, 2), 4),
        (box(2, 3), 4),
        (box(3, 3), 4),
        (box(1, 5), 4),
        (box(2, 2), 5),
        (BoxWindow.from_shape((1, 1, 2)), 6),
    ]
    for w, gamma in cases:
        brute = count_recurrent(w, gamma, backend="bruteforce")
        assert brute == count_recurrent(w, gamma, backend="determinant") == toppling_determinant_exact(w, gamma)
        assert brute == round(math.exp(log_recurrent_count(w, gamma)))


def test_counts_are_exact_integers_and_the_log_a_float():
    for shape in [(2, 2), (3, 3), (16, 16)]:
        w = BoxWindow.from_shape(shape)
        backends = ("determinant", "bruteforce") if w.size <= 9 else ("determinant",)
        for backend in backends:
            assert type(count_recurrent(w, 4, backend)) is int, (shape, backend)
        assert type(log_recurrent_count(w, 4)) is float
    # 100x100 is over the exact count's work limit, but has its log
    with pytest.raises(ValueError, match="limited to work .* a 100x100 window at gamma 4 has"):
        count_recurrent(box(100, 100), 4)
    assert log_recurrent_count(box(100, 100), 4) > 0


@pytest.mark.parametrize(
    "gamma,message", [(3, "at least 2d"), (2**63, "does not fit in int64")], ids=["below-2d", "beyond-int64"]
)
def test_every_counting_entry_point_shares_one_threshold_rule(gamma, message):
    w = box(2, 2)
    entry_points = [
        lambda: HeightConfig(w, gamma, np.zeros((2, 2), dtype=np.int64)),
        lambda: count_recurrent(w, gamma),
        lambda: count_recurrent(w, gamma, "bruteforce"),
        lambda: log_recurrent_count(w, gamma),
        lambda: toppling_determinant_exact(w, gamma),
        lambda: finite_entropy_estimate(2, 2, gamma),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match=message):
            call()
    # the rule admits the int64 maximum itself
    assert toppling_determinant_exact(box(1, 1), 2**63 - 1) == 2**63 - 1


def test_bruteforce_matches_exact_determinant():
    cases = [
        (shape, gamma)
        for d in (1, 2, 3)
        for gamma in range(2 * d, 2 * d + 3)
        for shape in box_shapes(d, max(n for n in range(1, 17) if gamma**n <= 10**5))
    ]
    # 3^11 = 2 * 2^16 + 46075: the last chunk of the enumeration is partial
    cases.append(((11,), 3))
    for shape, gamma in cases:
        w = BoxWindow.from_shape(shape)
        assert count_recurrent(w, gamma, backend="bruteforce") == toppling_determinant_exact(w, gamma), shape


def test_burn_all_uint8_matches_int64_reference(rng):
    for shape in [(9,), (4, 5), (2, 7), (1, 3, 3), (3, 2, 2)]:
        w = BoxWindow.from_shape(shape)
        gamma = 2 * w.dim + 2
        V = rng.integers(0, gamma, size=(5000, w.size))
        V[0] = gamma - 1
        V[1] = 0
        assert np.array_equal(_burn_all(V, -toppling_matrix(w, 0)), burn_all_reference(V, w))


def test_axis_reduction_matches_full_elimination():
    """Every box in every axis order, gamma = 2d..2d+2; at most 40 sites in d = 1, 36 in d = 2, 27 in d = 3.

    ``toppling_determinant_exact`` must find the longest axis itself, and
    the cross-section's layout follows the order it is given in.
    """
    for d, max_sites in ((1, 40), (2, 36), (3, 27)):
        for shape in sorted({tuple(sorted(s)) for s in box_shapes(d, max_sites)}):
            for gamma in range(2 * d, 2 * d + 3):
                expected = det_reference(toppling_matrix(BoxWindow.from_shape(shape), gamma))
                for order in set(itertools.permutations(shape)):
                    assert toppling_determinant_exact(BoxWindow.from_shape(order), gamma) == expected, (order, gamma)


def test_banded_det_matches_full_elimination():
    """``_banded_det`` on every axis order at gamma = 2d, with that order's half-bandwidth, the product of all sides but the first."""
    for d, max_sites in ((1, 40), (2, 36), (3, 27)):
        for shape in sorted({tuple(sorted(s)) for s in box_shapes(d, max_sites)}):
            expected = det_reference(toppling_matrix(BoxWindow.from_shape(shape), 2 * d))
            for order in set(itertools.permutations(shape)):
                mat = toppling_matrix(BoxWindow.from_shape(order), 2 * d)
                assert _banded_det(mat, math.prod(order[1:])) == expected, order
    # the path with gamma = 2 has det n + 1; its leading n x n block is the path of n sites
    path = toppling_matrix(box(100), 2)
    for n in range(1, 101):
        assert _banded_det(path[:n, :n], 1) == n + 1


def test_exact_determinant_anchors():
    # the path with gamma = 2 has det n + 1, past 400 sites too
    assert toppling_determinant_exact(box(1000), 2) == 1001
    for shape, gamma in (((16, 16), 4), ((40, 40), 4), ((7, 7, 7), 6)):
        w = BoxWindow.from_shape(shape)
        log_det = math.log(toppling_determinant_exact(w, gamma))
        assert abs(log_det - log_recurrent_count(w, gamma)) <= 1e-12 * log_det, shape


def test_brute_force_domain_is_within_the_exact_count():
    """``sandpile count --backend both`` compares with the exact count on every window the brute force admits.

    gamma^|E| <= 10^7 leaves |E| <= 23, so at most four sides above 1; a side
    of 1 adds no neighbour, so the count, and the work, are those of the box
    without it.  Every box with |E| >= 2 runs at every admitted gamma, and a
    single site at gamma = 2 and 10^7, since its work grows with gamma.
    """
    checked = 0
    for d in (1, 2, 3, 4):
        for shape in box_shapes(d, 23):
            if min(shape) < 2:
                continue
            size = math.prod(shape)
            for gamma in range(2 * d, math.floor(10 ** (7 / size)) + 2):
                if gamma**size <= 10**7:
                    sandpile.check_exact_count(BoxWindow.from_shape(shape), gamma)
                    checked += 1
    for gamma in (2, 10**7):
        sandpile.check_exact_count(box(1), gamma)
    assert checked > 3000


@pytest.mark.parametrize("shape,gamma", [((2, 2), 4), ((2, 3), 4), ((3, 3), 4), ((3, 4), 5), ((2, 2, 2), 6)],
                         ids=["2x2-4", "2x3-4", "3x3-4", "3x4-5", "2x2x2-6"])
def test_axis_reduction_keeps_the_sandpile_group(shape, gamma):
    # Z^E / L Z^E and Z^m / p_n(B) Z^m have the same invariant factors, not only the same order
    n, cross = sandpile._longest_axis(shape)
    b = toppling_matrix(BoxWindow.from_shape(cross), gamma)
    full = smith_invariants(toppling_matrix(BoxWindow.from_shape(shape), gamma))
    assert smith_invariants(sandpile._chebyshev_u(b, cross, gamma, n)) == full
    assert math.prod(full) == toppling_determinant_exact(BoxWindow.from_shape(shape), gamma)
    if shape == (2, 2):
        assert full == [8, 24]


def test_banded_det_rejects_indefinite_matrix():
    # a non-positive pivot is an internal fault, not an input error, here and in the exact count's elimination
    for mat in ([[1, 2], [2, 1]], [[0, 1], [1, 0]]):
        for det in (lambda a: _banded_det(a, 1), sandpile._positive_definite_det):
            with pytest.raises(RuntimeError, match="not positive definite"):
                det(np.array(mat, dtype=np.int64))


def test_toppling_matrix_layout():
    m = toppling_matrix(box(1, 2), 4)
    assert np.array_equal(m, [[4, -1], [-1, 4]])
    assert np.array_equal(toppling_matrix(box(1, 1), 5), [[5]])
    w = BoxWindow((0, -1, 2), (1, 1, 3))
    sites = list(w.sites())
    expected = np.array([[7 if s == t else -int(t in set(lattice_neighbours(s))) for t in sites] for s in sites])
    assert np.array_equal(toppling_matrix(w, 7), expected)


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        count_recurrent(box(5, 5), 4, backend="bruteforce")
    with pytest.raises(ValueError):
        count_recurrent(box(2, 2), 4, backend="nonsense")


def test_entropy_estimate_single_site():
    assert finite_entropy_estimate(1, 2, 4) == pytest.approx(math.log(4))
    with pytest.raises(ValueError, match="empty window"):  # the window's own rule refuses side 0
        finite_entropy_estimate(0, 2, 4)


# -- group operation ---------------------------------------------------------


def two_site_recurrents():
    w = box(1, 2)
    out = []
    for a in range(4):
        for b in range(4):
            v = HeightConfig(w, 4, np.array([[a, b]]))
            if burning_test(v).recurrent:
                out.append(v)
    return out


def test_all_max_sum_returns_all_max():
    w = box(1, 2)
    v = HeightConfig.all_max(w, 4)
    out = group_add(v, v)
    assert np.array_equal(out.heights, v.heights)
    assert burning_test(out).recurrent


def test_group_identity_exists_and_is_unique():
    group = two_site_recurrents()
    assert len(group) == 15
    identities = []
    for e in group:
        if all(
            np.array_equal(group_add(v, e).heights, v.heights) for v in group
        ):
            identities.append(e)
    assert len(identities) == 1


def test_group_add_commutes_exhaustively():
    group = two_site_recurrents()
    for v, w in itertools.combinations(group, 2):
        ab = group_add(v, w)
        ba = group_add(w, v)
        assert np.array_equal(ab.heights, ba.heights)
        assert burning_test(ab).recurrent


def test_group_add_rejects_bad_operands():
    w = box(1, 2)
    good = HeightConfig.all_max(w, 4)
    bad = HeightConfig(w, 4, np.array([[0, 0]]))
    with pytest.raises(ValueError):
        group_add(good, bad)
    other = HeightConfig.all_max(box(2, 1), 4)
    with pytest.raises(ValueError):
        group_add(good, other)


def test_random_recurrent_is_recurrent(rng):
    for w, gamma in [(box(5, 5), 4), (BoxWindow.from_shape((3, 3, 3)), 6)]:
        for _ in range(5):
            assert burning_test(random_recurrent(w, gamma, rng)).recurrent


# -- correction operator -----------------------------------------------------


def rel_patch(v, M):
    """Restriction to the centered box Q_M at the critical threshold."""
    d = v.dim
    inner = BoxWindow.centered(d, M)
    idx = tuple(
        slice(lo - wl, hi - wl + 1) for lo, hi, wl in zip(inner.lo, inner.hi, v.window.lo)
    )
    return HeightConfig(inner, 2 * d, v.heights[idx])


def apply_correction(v, h):
    """v + h * f for the critical Laplacian of v's dimension."""
    return sandpile.add_poly(v, h * laplacian_poly(v.dim))


def correct_two_phase(v, M):
    """Reference correction by the earlier two-phase relaxation.

    Phase 1 subtracts f wherever Q_M holds 2d or more.  Phase 2 adds 0/1
    rounds on the burning test's stuck set (which holds every negative
    site), grown until the addition makes no fresh negative site, until
    the patch burns.  Slow on deep negatives: a round lifts the stuck set
    by about one grain.
    """
    d = v.dim
    two_d = 2 * d
    inner = BoxWindow.centered(d, M)
    inner_sl, outer_sl = v.window.slices(inner), v.window.slices(BoxWindow.centered(d, M + 1))
    cur = v.heights.copy()
    sub = cur[inner_sl]  # a view: updates through cur show in it
    h_net = np.zeros(inner.shape, dtype=np.int64)
    while True:
        k = np.maximum(sub // two_d, 0)
        if not k.any():
            break
        h_net -= k
        sub -= two_d * k
        cur[outer_sl] += neighbour_sum(np.pad(k, 1))
    while True:
        support = burning_test(HeightConfig(inner, two_d, sub)).rounds == 0
        if not support.any():
            return sandpile.window_poly(inner, h_net)
        while True:
            s_mask = support.astype(np.int64)
            fresh = (sub + window.laplacian(s_mask, two_d) < 0) & ~support
            if not fresh.any():
                break
            support |= fresh
        h_net += s_mask
        cur[outer_sl] += window.laplacian(np.pad(s_mask, 1), two_d)


@pytest.mark.parametrize("d, M", [(2, 1), (2, 2), (2, 3), (2, 5), (2, 8), (3, 1), (3, 2), (3, 3)])
def test_correction_matches_two_phase_reference(d, M, rng):
    # signed heights, with -min w kept small: the reference peels one grain a round
    w = BoxWindow.centered(d, M + 1)
    for gamma, lo, hi in ((2 * d, -6, 8), (2 * d, -2, 2), (2 * d, 0, 1), (2 * d + 1, 0, 40)):
        v = HeightConfig(w, gamma, rng.integers(lo, hi, size=w.shape))
        assert correct_to_recurrent(v, M) == correct_two_phase(v, M)


@pytest.mark.parametrize("d, gamma", [(3, 6), (3, 9), (2, 7)])
def test_correction_postconditions_any_d_and_gamma(d, gamma, rng):
    w = BoxWindow.centered(d, 4)
    for M in (1, 2, 3):
        v = HeightConfig(w, gamma, rng.integers(-5, 2 * gamma, size=w.shape))
        h = correct_to_recurrent(v, M)
        assert all(max(abs(x) for x in e) <= M for e in h.terms)
        vp = apply_correction(v, h)
        assert burning_test(rel_patch(vp, M)).recurrent  # at the critical threshold 2d, whatever gamma
        far = np.ones(w.shape, dtype=bool)
        far[w.slices(BoxWindow.centered(d, M + 1))] = False
        assert np.array_equal(vp.heights[far], v.heights[far])
        assert vp.heights.sum() == v.heights.sum()  # f has coefficient sum 0


def test_correction_of_recurrent_is_zero(rng):
    w = BoxWindow.centered(2, 3)
    for _ in range(3):
        v = random_recurrent(w, 4, rng)
        assert not correct_to_recurrent(v, 2)
    assert not correct_to_recurrent(HeightConfig.all_max(w, 4), 1)


def test_correction_of_zero_config():
    w = BoxWindow.centered(2, 4)
    v = HeightConfig.constant(w, 4, 0)
    h = correct_to_recurrent(v, 1)
    # the acceptance suite re-derives this by exhaustive search; it is the
    # all-ones polynomial on Q_1
    assert h == LaurentPoly(2, {s: 1 for s in itertools.product((-1, 0, 1), repeat=2)})
    vp = apply_correction(v, h)
    assert burning_test(rel_patch(vp, 1)).recurrent
    # untouched beyond Q_2, exact conservation inside it
    outside = vp.heights.copy()
    outside[2:7, 2:7] = 0
    assert not outside.any()
    assert vp.heights[2:7, 2:7].sum() == 0


def test_correction_postconditions_random(rng):
    w = BoxWindow.centered(2, 5)
    for M in (1, 2, 3):
        for _ in range(3):
            v = HeightConfig(w, 4, rng.integers(0, 4, size=w.shape))
            h = correct_to_recurrent(v, M)
            for e in h.terms:
                assert max(abs(x) for x in e) <= M
            vp = apply_correction(v, h)
            assert burning_test(rel_patch(vp, M)).recurrent
            mask = np.ones(w.shape, dtype=bool)
            c = 5  # index of the origin
            mask[c - M - 1 : c + M + 2, c - M - 1 : c + M + 2] = False
            assert np.array_equal(vp.heights[mask], v.heights[mask])
            shell = np.abs(vp.heights[~mask]).sum() - np.abs(
                vp.heights[c - M : c + M + 1, c - M : c + M + 1]
            ).sum()
            assert shell <= (2 * M + 3) ** 2 * v.heights.max()


def test_correction_requires_room():
    v = HeightConfig.constant(BoxWindow.centered(2, 1), 4, 0)
    with pytest.raises(ValueError):
        correct_to_recurrent(v, 1)
    with pytest.raises(ValueError):
        correct_to_recurrent(HeightConfig.constant(BoxWindow.centered(2, 3), 4, 0), 0)


# -- config plumbing ---------------------------------------------------------


def test_height_config_validation():
    with pytest.raises(ValueError):
        HeightConfig(box(2, 2), 3, np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError):
        HeightConfig(box(2, 2), 4, np.zeros((3, 2), dtype=int))


def test_text_round_trip():
    v = HeightConfig(box(2, 3), 5, np.arange(6).reshape(2, 3))
    back = HeightConfig.from_text(v.to_text())
    assert back.gamma == v.gamma
    assert back.window == v.window
    assert np.array_equal(back.heights, v.heights)


def test_window_poly_lists_the_nonzero_entries_in_c_order(rng):
    # the terms, their order and their int coefficients are those of one site_of per entry,
    # and poly_heights lays them back out
    for d, lo in ((1, (-3,)), (2, (-30, 4)), (3, (2, -1, 0))):
        w = BoxWindow(lo, tuple(x + 6 for x in lo))
        arr = rng.integers(-5, 6, size=w.shape) * (rng.random(w.shape) < 0.6)
        poly = sandpile.window_poly(w, arr)
        expected = [(w.site_of(idx), int(arr[tuple(idx)])) for idx in np.argwhere(arr)]
        assert list(poly.terms.items()) == expected
        assert all(type(x) is int for site, c in poly.terms.items() for x in site + (c,))
        assert np.array_equal(sandpile.poly_heights(w, poly), arr)
