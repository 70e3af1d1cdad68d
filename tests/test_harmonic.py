"""Covering maps into the torus: the symbol route against the multiplier
tables, periodic and window requests, the three witness families, residual
suites (harmonicity, equivariance, intertwining), separation of distinct
recurrent patches, and additivity under the group operation."""

import io
import math
import tracemalloc

import numpy as np
import pytest

from sandharm import checks, harmonic, sandpile
from sandharm.checks import suite_window
from sandharm.green import multiplier_table
from sandharm.harmonic import (
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
    separation_difference,
    shifted_config,
    standard_specs,
    torus_distance,
    window_period,
    xi_apply,
    xi_apply_stack,
)
from sandharm.harmonic import _alias_table
from sandharm.laurent import LaurentPoly, divide_by, laplacian_poly, multiplier_sum, standard_polys
from sandharm.sandpile import (
    HeightConfig,
    add_poly,
    group_add,
    poly_heights,
    random_recurrent,
    stabilize,
    with_outflow,
)
from sandharm.window import BoxWindow


@pytest.fixture(scope="module")
def specs_d2():
    return standard_specs(2, 4)


@pytest.fixture(scope="module")
def spec_d2(specs_d2):
    return specs_d2[0]


# -- basic mapping ------------------------------------------------------------


def test_zero_field_maps_to_zero_exactly(specs_d2):
    v = HeightConfig.constant(suite_window(2, 8), 4, 0)
    assert len(specs_d2) == 3
    for spec in specs_d2:
        x = xi_apply(spec, v)
        assert np.all(x.values == 0.0)
        assert x.err == 0.0


def torus_kernel(spec, period):
    """K_N, the kernel periodized on the torus: the inverse DFT of the sampled symbol."""
    return np.fft.irfftn(spec.symbol(period)[0], s=period, axes=range(len(period)))


def kernel_beyond(spec, radius):
    """The kernel mass outside the box Q_radius by the symbol route, and the aliasing l1 over the box."""
    period = window_period(BoxWindow.centered(spec.dim, radius))
    at_box = np.ix_(*[np.arange(-radius, radius + 1) % n for n in period])
    kernel = torus_kernel(spec, period)
    alias = _alias_table(spec.symbol(period)[0], period)[alias_offsets(radius, period)]
    return float(kernel.sum() - kernel[at_box].sum()), float(alias.sum())


def alias_offsets(radius, period):
    """Index arrays of the differences |y_j| <= radius in an alias box, y at offset y + N_j/4 - 1."""
    return np.ix_(*[np.arange(-radius, radius + 1) + n // 4 - 1 for n in period])


def test_valid_convolution_matches_fftconvolve(specs_d2, rng):
    # a periodic image is the circular convolution of the field with K_N: scipy's valid-mode
    # convolution of the field wrapped once around its torus
    from scipy.signal import fftconvolve

    for specs, side in ((specs_d2, 16), (specs_d2, 7), (standard_specs(3, 6), 6)):
        for spec in specs:
            d = spec.dim
            period = (side + 3,) * d
            v = HeightConfig(suite_window(d, side), spec.gamma, rng.integers(0, spec.gamma, size=(side,) * d))
            field = np.zeros(period)
            field[np.ix_(*[np.arange(l, h + 1) % n for l, h, n in zip(v.window.lo, v.window.hi, period)])] = v.heights
            wrapped = np.pad(field, [(n - 1, 0) for n in period], mode="wrap")
            expected = fftconvolve(wrapped, torus_kernel(spec, period), mode="valid")
            x = xi_apply(spec, v, period=period)
            at_window = expected[np.ix_(*[np.arange(l, h + 1) % n for l, h, n in zip(v.window.lo, v.window.hi, period)])]
            assert 0 < x.err <= 1e-9
            assert float(torus_distance(x.values, at_window).max()) <= 2 * x.err


def assert_each_image_is_its_lone_image(spec, configs, out_windows=None, period=None):
    """Each image of a stack is bitwise, values and err, the image a fresh spec gives its member alone."""
    stacked = xi_apply_stack(spec, configs, out_windows, period)
    for v, w, x in zip(configs, out_windows or [None] * len(configs), stacked):
        alone = xi_apply(XiSpec.build(spec.g, spec.dim, spec.gamma), v, w, period)
        assert x.window == alone.window
        assert np.array_equal(x.values, alone.values) and x.err == alone.err


def test_shared_kernel_spectrum_is_bitwise_a_fresh_transform(specs_d2, rng, monkeypatch):
    # the images of a stack share the cached symbol and their runs' FFT pair; each is bitwise the image
    # a fresh spec gives alone
    for spec, side in [(specs_d2[0], 50), (specs_d2[2], 37)] + [(s, 12) for s in standard_specs(3, 6)[:3]]:
        window = suite_window(spec.dim, side)
        configs = [HeightConfig(window, spec.gamma, rng.integers(0, 6, size=window.shape)) for _ in range(4)]
        for period in (None, (side + 3,) * spec.dim):
            assert_each_image_is_its_lone_image(spec, configs, period=period)
    for spec in (specs_d2[1], standard_specs(3, 7)[0]):
        d, window = spec.dim, suite_window(spec.dim, 6)
        configs = [HeightConfig(window, spec.gamma, rng.integers(-2, 6, size=window.shape)) for _ in range(5)]
        # a mixed stack as equivariance builds it, periodic: each field, then its shifts on the common windows
        shifted = [shifted_config(v, m) for v in configs[:2] for m in ((1,) + (0,) * (d - 1), (-2,) + (1,) * (d - 1))]
        commons = [window.intersection(u.window) for u in shifted]
        assert_each_image_is_its_lone_image(spec, configs + shifted, [window] * 5 + commons, (9,) * d)
        # window requests on two output windows need two tori: one call maps on one, so the stack is refused
        outs = [window, BoxWindow.centered(d, 1).shifted((7,) + (0,) * (d - 1))] * 2 + [window]
        assert len({window_period(v.window, w) for v, w in zip(configs, outs)}) == 2
        with pytest.raises(ValueError, match="need 2 tori"):
            xi_apply_stack(spec, configs, outs)
        # runs of two members, the last a run of one
        for period in (None, (9,) * d):
            with monkeypatch.context() as m:
                m.setattr(sandpile, "STACK_SITES", 2 * math.prod(period or window_period(window)) + 1)
                assert_each_image_is_its_lone_image(spec, configs, period=period)


def test_one_fft_pair_per_run_and_one_alias_table_per_torus(rng, monkeypatch):
    calls = {"rfftn": 0, "irfft": 0, "alias": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harmonic.np.fft, "rfftn", counted("rfftn", np.fft.rfftn))
    # the inverse of a run or of an alias table ends in one real inverse along the last axis
    monkeypatch.setattr(harmonic.np.fft, "irfft", counted("irfft", np.fft.irfft))
    monkeypatch.setattr(harmonic, "_alias_table", counted("alias", harmonic._alias_table))

    def calls_of(f, *args):
        before = dict(calls)
        f(*args)
        return {k: calls[k] - before[k] for k in calls}

    # 30 fields of one d=3 window: a window request on the 16^3 torus, runs of 8, and periodic on 9^3, one run
    spec = XiSpec.build(standard_polys(3)[0], 3, 6)
    window = suite_window(3, 4)
    configs = [HeightConfig(window, 6, rng.integers(0, 6, size=window.shape)) for _ in range(30)]
    assert window_period(window) == (16,) * 3 and sandpile.STACK_SITES // 16**3 == 8
    # each alias table is one inverse transform of its own
    assert calls_of(xi_apply_stack, spec, configs) == {"rfftn": 4, "irfft": 4 + 1, "alias": 1}
    assert calls_of(xi_apply_stack, spec, configs) == {"rfftn": 4, "irfft": 4, "alias": 0}
    assert calls_of(xi_apply_stack, spec, configs, None, (9, 9, 9)) == {"rfftn": 1, "irfft": 1, "alias": 0}
    # a separation pair: one run on the window torus, one alias table per spec
    for spec in standard_specs(3, 6):
        w = suite_window(3, 5)
        v = HeightConfig.all_max(w, 6)
        vp = HeightConfig(w, 6, v.heights - poly_heights(w, LaurentPoly(3, {(0, 0, 0): 1})))
        q = BoxWindow((0, 0, 0), (0, 0, 0))
        difference = separation_difference(v, vp, q)
        assert calls_of(separation_check, spec, difference, w) == {"rfftn": 1, "irfft": 1 + 1, "alias": 1}
        assert calls_of(separation_check, spec, difference, w) == {"rfftn": 1, "irfft": 1, "alias": 0}


def torus_alias_table(spec, period):
    """|K_{N/2} - K_N| on the whole N-torus: the fold of K_N, tiled, minus K_N."""
    d = len(period)
    kernel = torus_kernel(spec, period)
    half = kernel.reshape([m for n in period for m in (2, n // 2)]).sum(axis=tuple(range(0, 2 * d, 2)))
    return np.abs(np.tile(half, (2,) * d) - kernel)


def test_alias_table_is_the_torus_table_on_its_box():
    # the differences |y_j| < N_j/4, gathered from the whole-torus table, bit for bit; on the tori of
    # cubic and non-cubic windows, among them the 256^2 and 64^3 of a 64^2 and a 16^3 `xi apply`
    shapes = {2: [(64, 64), (6, 5), (3, 9)], 3: [(16, 16, 16), (5, 3, 4), (2, 7, 3)]}
    for d, gamma in ((2, 4), (2, 5), (3, 6), (3, 7)):
        for spec in standard_specs(d, gamma):
            for shape in shapes[d]:
                period = window_period(BoxWindow.from_shape(shape))
                box = np.ix_(*[np.arange(1 - n // 4, n // 4) % n for n in period])
                table = _alias_table(spec.symbol(period)[0], period)
                assert table.shape == tuple(n // 2 - 1 for n in period)
                assert np.array_equal(table, torus_alias_table(spec, period)[box]), (spec.g, shape)


def test_stack_images_are_the_fft_pair_bit_for_bit(rng, monkeypatch):
    # each image of a window or periodic stack, values and err, is irfftn(rfftn(grid) * S) of its member
    # alone read on its output window, with the whole-torus aliasing l1 for a window request; the
    # stack split into runs of one, two and all of its members; periodic tori with odd last sides
    def at(window, period):
        return np.ix_(*[np.arange(l, h + 1) % n for l, h, n in zip(window.lo, window.hi, period)])

    cases = [(standard_specs(2, 4)[1], (6, 5), [None, (9, 7)]), (XiSpec.build(None, 2, 5), (4, 7), [None, (8, 9)]),
             (standard_specs(3, 6)[0], (4, 3, 5), [None, (7, 6, 5)]), (XiSpec.build(None, 3, 8), (3, 3, 3), [(4, 5, 7)])]
    for spec, shape, periods in cases:
        d = spec.dim
        window = BoxWindow.from_shape(shape, lo=tuple(int(x) for x in rng.integers(-4, 4, size=d)))
        configs = [HeightConfig(window, spec.gamma, rng.integers(-3, 9, size=shape)) for _ in range(5)]
        outs = [window.intersection(window.shifted((k - 2,) + (1,) * (d - 1))) for k in range(5)]
        for period in periods:
            torus = period or window_period(window)
            expected = []
            for v, w in zip(configs, outs):
                grid = np.zeros(torus)
                grid[at(v.window, torus)] = v.heights
                x = np.fft.irfftn(np.fft.rfftn(grid) * spec.symbol(torus)[0], s=torus, axes=range(d))
                alias = 0.0
                if period is None:
                    diffs = BoxWindow(tuple(a - b for a, b in zip(w.lo, v.window.hi)),
                                      tuple(a - b for a, b in zip(w.hi, v.window.lo)))
                    alias = float(torus_alias_table(spec, torus)[at(diffs, torus)].sum())
                expected.append(TorusPoint(w, x[at(w, torus)], spec.field_err(np.abs(v.heights).max(), torus, alias)))
            for per_run in (1, 2, 5):
                monkeypatch.setattr(sandpile, "STACK_SITES", per_run * math.prod(torus))
                got = xi_apply_stack(XiSpec.build(spec.g, d, spec.gamma), configs, outs, period)
                for x, e in zip(got, expected, strict=True):
                    assert x.window == e.window and np.array_equal(x.values, e.values) and x.err == e.err


def test_a_request_holds_the_symbol_and_two_work_arrays(rng):
    # tracemalloc peaks of cold requests on a 16^3 grid, in float64 bytes of their 64^3 torus: the
    # cached symbol (about 1), the grid and its spectrum (1 each), and a window request's alias box
    window = BoxWindow.from_shape((16,) * 3)
    v = HeightConfig(window, 6, rng.integers(0, 6, size=window.shape))
    g = standard_polys(3)[0]
    period = window_period(window)
    torus_bytes = 8 * math.prod(period)
    xi_apply(XiSpec.build(g, 3, 6), v, period=(16, 16, 16))  # numpy's FFT module and plans loaded

    def peak(request):
        tracemalloc.start()
        try:
            request()
            return tracemalloc.get_traced_memory()[1] / torus_bytes
        finally:
            tracemalloc.stop()

    assert period == (64,) * 3
    assert peak(lambda: xi_apply(XiSpec.build(g, 3, 6), v)) <= 3.5
    assert peak(lambda: xi_apply(XiSpec.build(g, 3, 6), v, period=period)) <= 3.5
    spec = XiSpec.build(g, 3, 6)
    assert peak(lambda: harmonic._symbol(spec, period)) <= 2.75


def test_the_map_refuses_a_torus_over_the_budget(spec_d2, monkeypatch):
    # a window request on a 6x5 grid takes the 24x20 torus, a periodic request the torus it names;
    # one point over the budget, each is refused before any transform runs, and at the budget it maps
    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran for a torus over the budget")

    v = HeightConfig(BoxWindow.from_shape((6, 5)), 4, np.ones((6, 5), dtype=np.int64))
    requests = {(24, 20): lambda: [xi_apply(spec_d2, v)], (7, 9): lambda: xi_apply_stack(spec_d2, [v] * 3, period=(7, 9))}
    for torus, request in requests.items():
        points = math.prod(torus)
        with monkeypatch.context() as m:
            m.setattr("sandharm.window.GRID_POINT_BUDGET", points - 1)
            m.setattr(np.fft, "rfftn", no_fft)
            with pytest.raises(ValueError, match="a 6x5 grid needs a %dx%d torus of %d points, over the budget of %d "
                               "points" % (torus + (points, points - 1))):
                request()
        monkeypatch.setattr("sandharm.window.GRID_POINT_BUDGET", points)
        assert all(x.window == v.window for x in request())


def test_window_period_is_four_times_the_extent():
    box = BoxWindow((-3, 0, 5), (3, 22, 5))
    out = BoxWindow((0, 30, 5), (1, 31, 7))
    # extents 7, 23, 1 alone and 7, 32, 3 with the output window
    assert window_period(box) == (28, 92, 4)
    assert window_period(box, out) == (28, 128, 12)


def test_spec_build_rejects_non_summable():
    u1 = LaurentPoly(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        XiSpec.build(LaurentPoly.one(2) - u1, 2, 4)
    with pytest.raises(ValueError):
        XiSpec.build(None, 2, 4)
    with pytest.raises(ValueError):
        XiSpec.build(None, 2, 3)  # below the critical threshold the symbol has poles
    with pytest.raises(ValueError):
        XiSpec.build(standard_polys(3)[1], 2, 4)


def test_dissipative_spec_defaults_to_fundamental_solution():
    spec = XiSpec.build(None, 2, 5)
    assert spec.g == LaurentPoly.one(2) and spec.certificate is None
    window = suite_window(2, 8)
    v = HeightConfig.constant(window, 5, 1)
    x = xi_apply(spec, v, period=window.shape)
    # constant 1 on the torus maps to the total mass 1/(gamma-2d) = 1 == 0 on the torus
    assert float(torus_distance(x.values).max()) <= x.err + 1e-9


def test_f_multiple_lands_on_integers(spec_d2):
    h = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 2): -1})
    w = suite_window(2, 12)
    v = HeightConfig(w, 4, poly_heights(w, laplacian_poly(2) * h))
    x = xi_apply(spec_d2, v)
    assert float(torus_distance(x.values).max()) <= x.err


def test_standard_specs_one_per_generator(table_d2_g4, table_d2_g5, table_d3_g6, table_d3_g7):
    specs = standard_specs(2, 4)
    assert [s.g for s in specs] == list(standard_polys(2))
    assert len(standard_specs(2, 5)) == 1
    # the symbol route's kernel is the multiplier table, within the table's entry error and the
    # aliasing measured against the half-size torus
    for table in (table_d2_g4, table_d2_g5, table_d3_g6, table_d3_g7):
        for spec in standard_specs(table.dim, table.gamma):
            mult = multiplier_table(spec.g, table)
            box = BoxWindow.centered(table.dim, mult.radius)
            period = window_period(box)
            at_box = np.ix_(*[np.arange(-mult.radius, mult.radius + 1) % n for n in period])
            alias = _alias_table(spec.symbol(period)[0], period)[alias_offsets(mult.radius, period)]
            gap = np.abs(torus_kernel(spec, period)[at_box] - mult.values)
            assert np.all(gap <= mult.entry_error + alias), spec.g


# -- residual suites -----------------------------------------------------------


def images_are_harmonic(specs, rng):
    """Three random recurrent configurations per map, each image periodic on the 18^2 torus and
    harmonic mod 1 within (4d + 1) err."""
    w = suite_window(2, 16)
    for spec in specs:
        for _ in range(3):
            v = random_recurrent(w, 4, rng)
            x = xi_apply(spec, v, period=(18, 18))
            if not harmonicity_residual(x, 4) <= 9 * x.err:
                return False
    return True


def test_images_are_harmonic_mod_one(specs_d2, rng):
    assert images_are_harmonic(specs_d2, rng)


def test_harmonicity_needs_interior(spec_d2):
    x = TorusPoint(BoxWindow.from_shape((2, 2)), np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        harmonicity_residual(x, 4)


def test_harmonicity_residual_of_known_fields():
    # a linear field is harmonic for gamma = 2d; a bump b at one interior
    # site leaves residual 2d b there and b at its neighbours
    for shape in ((6, 7), (4, 5, 6)):
        d = len(shape)
        linear = np.tensordot([0.3, 0.45, 0.7][:d], np.indices(shape), axes=1)
        x = TorusPoint(BoxWindow.from_shape(shape), linear, 0.0)
        assert harmonicity_residual(x, 2 * d) <= 1e-12
        bump = np.zeros(shape)
        bump[(2,) * d] = 0.05
        x = TorusPoint(BoxWindow.from_shape(shape), bump, 0.0)
        assert harmonicity_residual(x, 2 * d) == pytest.approx(2 * d * 0.05, abs=1e-12)


def test_equivariance_zero_shift_is_exact(spec_d2, rng):
    v = random_recurrent(suite_window(2, 12), 4, rng)
    assert equivariance_residual(spec_d2, v, (0, 0), (14, 14))[0] == 0.0


def test_equivariance_under_shifts(specs_d2, rng):
    w = suite_window(2, 16)
    v = random_recurrent(w, 4, rng)
    for spec in specs_d2:
        x = xi_apply(spec, v, period=(18, 18))
        for m in [(1, 0), (1, 1), (-2, 1)]:
            defect, bound = equivariance_residual(spec, v, m, (18, 18))
            assert defect <= bound == 2 * x.err


def test_shifted_config_moves_window():
    v = HeightConfig.constant(BoxWindow.from_shape((3, 3)), 4, 1)
    out = shifted_config(v, (2, -1))
    assert out.window.lo == (-2, 1)
    assert np.array_equal(out.heights, v.heights)


# -- kernel witnesses ----------------------------------------------------------


def witnessed(images):
    """Every map's residual is within its error bound."""
    return all(torus_distance(x.values).max() <= x.err for x in images)


def test_constant_witness(specs_d2):
    v, images = kernel_witness("constant", specs_d2, suite_window(2, 12))
    assert np.all(v.heights == 3)
    assert len(images) == len(specs_d2) and witnessed(images)


def test_f_multiple_witness(specs_d2):
    h = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 2): -1})
    _, images = kernel_witness("f_multiple", specs_d2, suite_window(2, 12), h=h)
    assert witnessed(images)


def test_periodic_witness_quarter_beta(specs_d2):
    # the parity field is f.y + 1/2 for y repeating (0, 1/4) along axis 0
    v, images = kernel_witness("periodic_family", specs_d2, suite_window(2, 16))
    assert witnessed(images)
    # the height field repeats with the period along the chosen axis
    assert np.array_equal(v.heights[:4], v.heights[4:8])


def test_periodic_witness_is_parity_of_absolute_first_coordinate(specs_d2):
    window = BoxWindow((-3, -2), (6, 5))
    v, images = kernel_witness("periodic_family", specs_d2, window)
    assert witnessed(images)
    for site in v.window.sites():
        assert v.heights[v.window.index_of(site)] == site[0] % 2


@pytest.mark.parametrize("d, gamma", [(2, 4), (2, 5), (3, 6)])
def test_witnesses_are_periodic_fields_on_their_window(d, gamma):
    # each witness lies on the window, its period, and maps as that periodic field, bit for bit
    specs = standard_specs(d, gamma)
    excess = gamma - 2 * d
    window = suite_window(d, 16 if d == 2 else 8).dilated(1)
    h = LaurentPoly.one(d) + LaurentPoly.variable(d, 0) - LaurentPoly.variable(d, d - 1) ** 2
    field = HeightConfig(window, gamma, poly_heights(window, laplacian_poly(d, gamma) * h))
    v, images = kernel_witness("f_multiple", specs, window, h)
    assert v.window == window and np.array_equal(v.heights, field.heights)
    for spec, x in zip(specs, images):
        ref = xi_apply(spec, field, period=window.shape)
        assert x.window == ref.window and x.err == ref.err <= 1e-9, spec.g
        assert np.array_equal(x.values, ref.values), spec.g
    v, _ = kernel_witness("constant", specs, window, h)
    assert v.window == window and np.array_equal(v.heights, np.full(window.shape, 3 * excess if excess else 3))
    v, _ = kernel_witness("periodic_family", specs, window, h)
    first = np.arange(window.lo[0], window.hi[0] + 1).reshape((-1,) + (1,) * (d - 1))
    parity = (2 * excess * (excess + 4) if excess else 1) * (first % 2) * np.ones(window.shape, dtype=np.int64)
    assert v.window == window and np.array_equal(v.heights, parity)
    with pytest.raises(ValueError, match="even side"):
        kernel_witness("periodic_family", specs, BoxWindow(window.lo, (window.hi[0] + 1,) + window.hi[1:]))


@pytest.mark.parametrize("d", [2, 3])
def test_parity_images_are_integers(d):
    """x_n = mass(g)/2 - (-1)^{n_0} g(-1,1,...,1)/8 is an integer for each generator."""
    for g in standard_polys(d):
        at_flip = sum(c * (-1) ** k[0] for k, c in g.terms.items())
        mass = multiplier_sum(g)
        assert (4 * mass + at_flip) % 8 == 0
        assert (4 * mass - at_flip) % 8 == 0


def test_witness_kind_validation(specs_d2):
    with pytest.raises(ValueError):
        kernel_witness("volcano", specs_d2, suite_window(2, 8))
    with pytest.raises(ValueError):
        kernel_witness("f_multiple", specs_d2, suite_window(2, 8))


# -- separation ----------------------------------------------------------------


def test_separated_pair_clears_quarter_gap(spec_d2):
    w = suite_window(2, 16)
    v = HeightConfig.all_max(w, 4)
    vp = HeightConfig(w, 4, v.heights - poly_heights(w, LaurentPoly(2, {(0, 0): 1})))
    Q = BoxWindow((0, 0), (0, 0))
    gap, _ = separation_check(spec_d2, separation_difference(v, vp, Q), w)
    x = xi_apply(spec_d2, v)
    assert gap >= 1 / 8 - 2 * x.err


def test_separation_gap_is_the_gap_between_the_two_images(rng):
    # the map is linear, so the one image of vp - v is the difference of the two images, within their
    # errs; its own err scales with that difference, and stays under the 1/4d floor, the d=3 defaults too
    for d, gamma, side in ((2, 4, 16), (2, 5, 16), (3, 6, 8), (3, 7, 8)):
        window = suite_window(d, side)
        origin = (0,) * d
        v = HeightConfig.all_max(window, gamma)
        pairs = [(v, HeightConfig(window, gamma, v.heights - poly_heights(window, LaurentPoly(d, {origin: 1}))),
                  BoxWindow(origin, origin))]
        for _ in range(2):
            u = random_recurrent(window, gamma, rng)
            idx = tuple(rng.choice(np.argwhere(u.heights <= gamma - 2)))
            site = window.site_of(idx)
            pairs.append((u, add_poly(u, LaurentPoly(d, {site: 1})), BoxWindow(site, site)))
        # two sites of Q, not neighbours, one grain below the maximum each
        q = BoxWindow.centered(d, 1)
        two = LaurentPoly(d, {origin: 1, (1,) * d: 1})
        pairs.append((v, HeightConfig(window, gamma, v.heights - poly_heights(window, two)), q))
        for spec in standard_specs(d, gamma):
            for a, b, q in pairs:
                gap, err = separation_check(spec, separation_difference(a, b, q), window)
                x, xp = xi_apply_stack(spec, [a, b])
                assert abs(gap - float(torus_distance(x.values, xp.values).max())) <= x.err + xp.err
                assert err < 1 / (4 * d), (poly_label(spec.g), err)


def test_separation_rejects_equal_and_stencil_differences():
    w = suite_window(2, 16)
    v = HeightConfig.all_max(w, 4)
    Q = BoxWindow.centered(2, 1)
    with pytest.raises(ValueError):
        separation_difference(v, HeightConfig(w, 4, v.heights), Q)
    vp = add_poly(v, laplacian_poly(2) * LaurentPoly(2, {(0, 0): 1}))
    with pytest.raises(ValueError):
        separation_difference(v, vp, Q)  # difference is a stencil multiple
    zeros = HeightConfig.constant(w, 4, 0)
    bumped = add_poly(zeros, LaurentPoly(2, {(0, 0): 1}))
    with pytest.raises(ValueError, match="^both inputs must be recurrent$"):
        separation_difference(zeros, bumped, Q)  # neither input recurrent
    forbidden = HeightConfig(w, 4, v.heights - poly_heights(w, LaurentPoly(2, {(0, 0): 3, (1, 0): 3})))
    for pair in ((v, forbidden), (forbidden, v)):  # two adjacent empty sites never burn
        with pytest.raises(ValueError, match="^both inputs must be recurrent$"):
            separation_difference(*pair, Q)


def test_separation_rejects_difference_outside_q():
    w = suite_window(2, 16)
    v = HeightConfig.all_max(w, 4)
    vp = HeightConfig(w, 4, v.heights - poly_heights(w, LaurentPoly(2, {(5, 5): 1})))
    with pytest.raises(ValueError):
        separation_difference(v, vp, BoxWindow((0, 0), (0, 0)))


def test_separation_checks_each_pair_once(monkeypatch, rng):
    # counted: at the d=3 defaults every pair is burnt and divided by the stencil once, however
    # many specs map its difference
    counts = {"burn": 0, "divide": 0, "map": 0}

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(sandpile, "burning_test_stack", counted("burn", sandpile.burning_test_stack))
    monkeypatch.setattr(harmonic, "divide_by", counted("divide", harmonic.divide_by))
    monkeypatch.setattr(checks, "separation_check", counted("map", checks.separation_check))
    (check,) = checks.separation(standard_specs(3, 6), suite_window(3, 8), rng, 10)
    assert check.passed
    assert counts["burn"] == counts["divide"] == 10 and counts["map"] > 10


# -- tuples and additivity -----------------------------------------------------


def test_additivity_under_group_add(specs_d2, rng):
    # xi(v) + xi(v') = xi(s + e) mod 1, with s the stabilized sum and e its outflow on the shell,
    # exact on the torus that holds the window and its shell
    w = suite_window(2, 16)
    out = BoxWindow.centered(2, 2)
    for specs, gamma in ((specs_d2, 4), (standard_specs(2, 5), 5)):
        for _ in range(3):
            v = random_recurrent(w, gamma, rng)
            vp = random_recurrent(w, gamma, rng)
            s, k = stabilize(HeightConfig(w, gamma, v.heights + vp.heights))
            assert np.array_equal(s.heights, group_add(v, vp).heights)
            ledger = with_outflow(s, k)
            for spec in specs:
                xv, xvp, xs = xi_apply_stack(spec, [v, vp, ledger], [out] * 3, (18, 18))
                assert point_distance(xs, point_sum(xv, xvp)) <= xv.err + xvp.err + xs.err <= 1e-9


def test_exact_linearity_with_zero_extension(spec_d2, rng):
    # before wrapping, convolution is linear; with the same zero extension the
    # pointwise sum of fields maps to the sum of images up to fp noise
    w = suite_window(2, 12)
    a = HeightConfig(w, 4, rng.integers(0, 4, size=w.shape))
    b = HeightConfig(w, 4, rng.integers(0, 4, size=w.shape))
    both = HeightConfig(w, 4, a.heights + b.heights)
    xa = xi_apply(spec_d2, a)
    xb = xi_apply(spec_d2, b)
    xab = xi_apply(spec_d2, both)
    assert point_distance(xab, point_sum(xa, xb)) <= 1e-10


def test_window_request_err_covers_the_gap_to_a_four_times_larger_torus(rng):
    # the aliasing term is measured, not proved: here it covers the move to a torus 4x as large
    for d, gamma, side, out in ((2, 4, 16, None), (2, 5, 12, None), (2, 4, 16, BoxWindow.centered(2, 2)),
                                (3, 6, 6, None), (3, 7, 6, BoxWindow.centered(3, 1))):
        window = suite_window(d, side)
        v = random_recurrent(window, gamma, rng)
        period = window_period(window, out or window)
        for spec in standard_specs(d, gamma)[:4]:
            x = xi_apply(spec, v, out_window=out)
            larger = xi_apply(spec, v, out_window=out, period=tuple(4 * n for n in period))
            assert point_distance(x, larger) <= x.err, spec.g


# -- intertwining and grain addition -------------------------------------------


def test_polynomial_intertwining(specs_d2, rng):
    # mapping with g*h equals acting by h on the image of g
    h = LaurentPoly(2, {(0, 0): 1, (1, 0): 1})
    w = suite_window(2, 16)
    v = random_recurrent(w, 4, rng)
    for spec in specs_d2:
        gh_spec = XiSpec.build(spec.g * h, 2, 4)
        x_g = xi_apply(spec, v, period=(18, 18))
        rhs = poly_action(h, x_g)
        lhs = xi_apply(gh_spec, v, out_window=rhs.window, period=(18, 18))
        assert point_distance(lhs, rhs) <= lhs.err + rhs.err


def test_poly_action_window_geometry(spec_d2, rng):
    v = random_recurrent(suite_window(2, 12), 4, rng)
    x = xi_apply(spec_d2, v)
    acted = poly_action(LaurentPoly(2, {(1, 1): 1}), x)
    assert acted.window.lo == (-7, -7)
    assert acted.window.hi == (4, 4)
    tiny = TorusPoint(BoxWindow((0, 0), (0, 0)), np.zeros((1, 1)), 0.0)
    with pytest.raises(ValueError):
        poly_action(LaurentPoly(2, {(1, 0): 1, (0, 0): 1}), tiny)


def test_addition_demo_matches_direct_difference(spec_d2):
    # the demo's mismatch is the ledger computed here one image at a time, from the same draw
    out = BoxWindow.centered(2, 2)
    delta, mismatch, bound = addition_operator_demo(spec_d2, (0, 0), out, np.random.default_rng(0))
    assert delta.window == out
    v = random_recurrent(out.dilated(2), 4, np.random.default_rng(0))
    s, k = stabilize(add_poly(v, LaurentPoly(2, {(0, 0): 1})))
    assert k.counts.any()
    # periodic on the torus that holds v's window and its outflow shell
    before = xi_apply(spec_d2, v, out_window=out, period=(11, 11))
    after = xi_apply(spec_d2, with_outflow(s, k), out_window=out, period=(11, 11))
    assert mismatch == point_distance(after, point_sum(before, delta))
    assert bound == after.err + before.err + delta.err
    assert mismatch <= bound <= 1e-9


def test_addition_demo_on_zero_background(spec_d2, table_d2_g4):
    # with v = 0 and zero extension the delta image is the kernel slice of the multiplier table
    out = BoxWindow.centered(2, 1)
    cfg = HeightConfig.delta(BoxWindow((0, 0), (0, 0)), 4, (0, 0), 1)
    x = xi_apply(spec_d2, cfg, out_window=out)
    mult = multiplier_table(spec_d2.g, table_d2_g4)
    T = mult.radius
    sl = mult.values[T - 1 : T + 2, T - 1 : T + 2]
    assert float(torus_distance(x.values, sl).max()) <= x.err + mult.entry_error


# -- dissipative injectivity ---------------------------------------------------


def test_dissipative_images_separate_non_stencil_perturbations(rng):
    spec = XiSpec.build(None, 2, 5)
    w = suite_window(2, 12)
    f5 = laplacian_poly(2, 5)
    hits = 0
    for _ in range(20):
        terms = {
            tuple(int(x) for x in rng.integers(-2, 3, size=2)): int(c)
            for c in rng.integers(-3, 4, size=3)
            if c
        }
        p = LaurentPoly(2, terms)
        if not p or divide_by(p, f5) is not None:
            continue
        hits += 1
        v = HeightConfig.constant(w, 5, 2)
        vp = add_poly(v, p)
        x = xi_apply(spec, v)
        xp = xi_apply(spec, vp)
        assert point_distance(x, xp) > 3 * (x.err + xp.err)
    assert hits >= 15


# -- torus point plumbing ------------------------------------------------------


def read_point_csv(text):
    """The torus point a CSV holds, read with numpy: a box of sites in C order, one err."""
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=2, ndmin=2)
    sites = rows[:, :-2].astype(np.int64)
    window = BoxWindow(tuple(sites.min(axis=0)), tuple(sites.max(axis=0)))
    assert np.array_equal(sites, np.array(list(window.sites())))
    return TorusPoint(window, rows[:, -2].reshape(window.shape), rows[:, -1].max())


def test_point_csv_round_trip(spec_d2, rng):
    v = random_recurrent(suite_window(2, 8), 4, rng)
    x = xi_apply(spec_d2, v)
    back = read_point_csv(x.to_csv())
    assert back.window == x.window
    assert back.err == x.err
    assert np.array_equal(back.values, x.values)


def test_point_csv_rows_follow_the_window_sites(rng):
    # one row per site in window.sites() order, each value looked up at its site
    for shape, lo in [((5, 7), (-2, 3)), ((3, 1, 4), (0, -1, 2)), ((6,), (-3,))]:
        window = BoxWindow.from_shape(shape, lo)
        x = TorusPoint(window, rng.random(shape), 1.25e-7)
        rows = x.to_csv().splitlines()[2:]
        expected = ["%s,%r,%r" % (",".join(map(str, site)), float(x.values[window.index_of(site)]), 1.25e-7)
                    for site in window.sites()]
        assert rows == expected


def test_point_sum_wraps_and_distance_is_metric():
    w = BoxWindow.from_shape((1, 2))
    a = TorusPoint(w, np.array([[0.75, 0.5]]), 0.0)
    b = TorusPoint(w, np.array([[0.75, 0.5]]), 0.0)
    s = point_sum(a, b)
    assert np.allclose(s.values, [[0.5, 0.0]])
    assert point_distance(a, b) == 0.0
    c = TorusPoint(w, np.array([[0.70, 0.95]]), 0.0)
    # wrap-around: |0.5 - 0.95| on the torus is 0.45, but |0.75-0.70| stays 0.05
    assert point_distance(a, c) == pytest.approx(0.45)
