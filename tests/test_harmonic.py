"""Covering maps into the torus: kernel construction, the three witness
families, residual suites (harmonicity, equivariance, intertwining),
separation of distinct recurrent patches, and additivity under the group
operation."""

from fractions import Fraction

import numpy as np
import pytest

from sandharm.harmonic import (
    EXTENSIONS,
    TorusPoint,
    XiSpec,
    addition_operator_demo,
    equivariance_residual,
    harmonicity_residual,
    kernel_witness,
    point_distance,
    point_sum,
    poly_action,
    separation_check,
    shifted_config,
    standard_specs,
    torus_distance,
    xi_apply,
    xi_tuple,
)
from sandharm.harmonic import _convolve_valid, _extended_heights
from sandharm.laurent import LaurentPoly, divide_by, laplacian_poly, standard_polys
from sandharm.sandpile import (
    HeightConfig,
    add_poly,
    group_add,
    poly_heights,
    random_recurrent,
)
from sandharm.window import BoxWindow


def suite_window(d, side=16):
    lo = tuple(-(side // 2) for _ in range(d))
    return BoxWindow.from_shape((side,) * d, lo=lo)


@pytest.fixture(scope="module")
def specs_d2(table_d2_g4):
    return standard_specs(table_d2_g4)


@pytest.fixture(scope="module")
def spec_d2(specs_d2):
    return specs_d2[0]


# -- basic mapping ------------------------------------------------------------


def test_zero_field_maps_to_zero_exactly(spec_d2):
    v = HeightConfig.constant(suite_window(2, 8), 4, 0)
    x = xi_apply(spec_d2, v, extension="zero")
    assert np.all(x.values == 0.0)
    assert x.err == 0.0


def test_valid_convolution_matches_fftconvolve(specs_d2, table_d3_g6, rng):
    # the slabs and kernels xi_apply convolves, for every extension rule
    from scipy.signal import fftconvolve

    for specs, side in ((specs_d2, 16), (specs_d2, 7), (standard_specs(table_d3_g6), 6)):
        for spec in specs:
            d = spec.dim
            v = HeightConfig(suite_window(d, side), spec.gamma, rng.integers(0, spec.gamma, size=(side,) * d))
            for extension in EXTENSIONS:
                slab = _extended_heights(v, v.window.dilated(spec.trunc_radius), extension, spec.gamma - 1)
                expected = fftconvolve(slab, spec.kernel, mode="valid")
                assert np.array_equal(_convolve_valid(slab, spec.kernel), expected)


def test_spec_build_rejects_non_summable(table_d2_g4):
    u1 = LaurentPoly(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        XiSpec.build(LaurentPoly.one(2) - u1, table_d2_g4)
    with pytest.raises(ValueError):
        XiSpec.build(None, table_d2_g4)


def test_dissipative_spec_defaults_to_fundamental_solution(table_d2_g5):
    spec = XiSpec.build(None, table_d2_g5)
    assert spec.g == LaurentPoly.one(2)
    v = HeightConfig.constant(suite_window(2, 8), 5, 1)
    x = xi_apply(spec, v, extension="constant", constant=1)
    # constant 1 maps to the total mass 1/(gamma-2d) = 1 == 0 on the torus
    assert float(torus_distance(x.values).max()) <= x.err + 1e-9


def test_f_multiple_lands_on_integers(spec_d2):
    h = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 2): -1})
    w = suite_window(2, 12)
    v = HeightConfig(w, 4, poly_heights(w, laplacian_poly(2) * h))
    x = xi_apply(spec_d2, v, extension="zero")
    assert float(torus_distance(x.values).max()) <= x.err


def test_standard_specs_one_per_generator(table_d2_g4, table_d2_g5):
    specs = standard_specs(table_d2_g4)
    assert [s.g for s in specs] == list(standard_polys(2).generators)
    assert len(standard_specs(table_d2_g5)) == 1


# -- residual suites -----------------------------------------------------------


def test_images_are_harmonic_mod_one(specs_d2, rng):
    w = suite_window(2, 16)
    for spec in specs_d2:
        for _ in range(3):
            v = random_recurrent(w, 4, rng)
            x = xi_apply(spec, v)
            assert harmonicity_residual(x, 4) <= 9 * x.err


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
    assert equivariance_residual(spec_d2, v, (0, 0)) == 0.0


def test_equivariance_under_shifts(specs_d2, rng):
    w = suite_window(2, 16)
    v = random_recurrent(w, 4, rng)
    for spec in specs_d2:
        x = xi_apply(spec, v)
        for m in [(1, 0), (1, 1), (-2, 1)]:
            assert equivariance_residual(spec, v, m) <= 2 * x.err


def test_shifted_config_moves_window():
    v = HeightConfig.constant(BoxWindow.from_shape((3, 3)), 4, 1)
    out = shifted_config(v, (2, -1))
    assert out.window.lo == (-2, 1)
    assert np.array_equal(out.heights, v.heights)


# -- kernel witnesses ----------------------------------------------------------


def test_constant_witness(specs_d2):
    v, report = kernel_witness("constant", specs_d2, suite_window(2, 12), m=3)
    assert report.passed
    assert np.all(v.heights == 3)
    for label, res in report.residuals.items():
        assert res <= report.err_bounds[label]


def test_f_multiple_witness(specs_d2):
    h = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 2): -1})
    _, report = kernel_witness("f_multiple", specs_d2, suite_window(2, 12), h=h)
    assert report.passed


def test_periodic_witness_quarter_beta(specs_d2):
    v, report = kernel_witness(
        "periodic_family", specs_d2, suite_window(2, 16), beta=Fraction(1, 4)
    )
    assert report.passed
    assert report.correction == Fraction(1, 2)
    # the height field repeats with the period along the chosen axis
    assert np.array_equal(v.heights[:4], v.heights[4:8])


def test_periodic_witness_rejects_non_integral_profile(specs_d2):
    with pytest.raises(ValueError):
        kernel_witness("periodic_family", specs_d2, suite_window(2, 12), beta=Fraction(1, 3))


def test_periodic_witness_needs_matching_window(specs_d2):
    # the default profile alternates with period 2; an odd side cannot hold it
    with pytest.raises(ValueError):
        kernel_witness("periodic_family", specs_d2, suite_window(2, 9), beta=Fraction(1, 4))


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
    gap = separation_check(spec_d2, v, vp, Q)
    x = xi_apply(spec_d2, v)
    assert gap >= 1 / 8 - 2 * x.err


def test_separation_rejects_equal_and_stencil_differences(spec_d2):
    w = suite_window(2, 16)
    v = HeightConfig.all_max(w, 4)
    Q = BoxWindow.centered(2, 1)
    with pytest.raises(ValueError):
        separation_check(spec_d2, v, v.copy(), Q)
    vp = add_poly(v, laplacian_poly(2) * LaurentPoly(2, {(0, 0): 1}))
    with pytest.raises(ValueError):
        separation_check(spec_d2, v, vp, Q)  # difference is a stencil multiple
    zeros = HeightConfig.constant(w, 4, 0)
    bumped = add_poly(zeros, LaurentPoly(2, {(0, 0): 1}))
    with pytest.raises(ValueError):
        separation_check(spec_d2, zeros, bumped, Q)  # neither input recurrent


def test_separation_rejects_difference_outside_q(spec_d2):
    w = suite_window(2, 16)
    v = HeightConfig.all_max(w, 4)
    vp = HeightConfig(w, 4, v.heights - poly_heights(w, LaurentPoly(2, {(5, 5): 1})))
    with pytest.raises(ValueError):
        separation_check(spec_d2, v, vp, BoxWindow((0, 0), (0, 0)))


# -- tuples and additivity -----------------------------------------------------


def test_xi_tuple_components(specs_d2):
    v = HeightConfig.constant(suite_window(2, 8), 4, 0)
    xs = xi_tuple(v, specs_d2, extension="zero")
    assert len(xs) == 3
    for x in xs:
        assert np.all(x.values == 0.0)
    with pytest.raises(ValueError):
        xi_tuple(v, [])


def test_additivity_under_group_add(specs_d2, rng):
    w = suite_window(2, 16)
    out = BoxWindow.centered(2, 2)
    for _ in range(3):
        v = random_recurrent(w, 4, rng)
        vp = random_recurrent(w, 4, rng)
        s = group_add(v, vp)
        for spec in specs_d2:
            xv = xi_apply(spec, v, out_window=out)
            xvp = xi_apply(spec, vp, out_window=out)
            xs = xi_apply(spec, s, out_window=out)
            assert point_distance(xs, point_sum(xv, xvp)) <= xv.err + xvp.err + xs.err


def test_exact_linearity_with_zero_extension(spec_d2, rng):
    # before wrapping, convolution is linear; with the same zero extension the
    # pointwise sum of fields maps to the sum of images up to fp noise
    w = suite_window(2, 12)
    a = HeightConfig(w, 4, rng.integers(0, 4, size=w.shape))
    b = HeightConfig(w, 4, rng.integers(0, 4, size=w.shape))
    both = HeightConfig(w, 4, a.heights + b.heights)
    xa = xi_apply(spec_d2, a, extension="zero")
    xb = xi_apply(spec_d2, b, extension="zero")
    xab = xi_apply(spec_d2, both, extension="zero")
    assert point_distance(xab, point_sum(xa, xb)) <= 1e-10


# -- intertwining and grain addition -------------------------------------------


def test_polynomial_intertwining(specs_d2, table_d2_g4, rng):
    # mapping with g*h equals acting by h on the image of g
    h = LaurentPoly(2, {(0, 0): 1, (1, 0): 1})
    w = suite_window(2, 16)
    v = random_recurrent(w, 4, rng)
    for spec in specs_d2:
        gh_spec = XiSpec.build(spec.g * h, table_d2_g4)
        x_g = xi_apply(spec, v)
        rhs = poly_action(h, x_g)
        lhs = xi_apply(gh_spec, v, out_window=rhs.window)
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


def test_addition_demo_matches_direct_difference(spec_d2, rng):
    out = BoxWindow.centered(2, 2)
    delta, mismatch = addition_operator_demo(spec_d2, (0, 0), out, rng=rng)
    assert delta.window == out
    v = random_recurrent(out.dilated(2), 4, rng)
    before = xi_apply(spec_d2, v, out_window=out)
    assert mismatch <= before.err + delta.err + before.err


def test_addition_demo_on_zero_background(spec_d2):
    # with v = 0 and zero extension the delta image is exactly the kernel slice
    out = BoxWindow.centered(2, 1)
    cfg = HeightConfig.delta(BoxWindow((0, 0), (0, 0)), 4, (0, 0), 1)
    x = xi_apply(spec_d2, cfg, extension="zero", out_window=out)
    T = spec_d2.trunc_radius
    sl = spec_d2.kernel[T - 1 : T + 2, T - 1 : T + 2]
    assert np.allclose(x.values, sl % 1.0, atol=1e-12)


# -- dissipative injectivity ---------------------------------------------------


def test_dissipative_images_separate_non_stencil_perturbations(table_d2_g5, rng):
    spec = XiSpec.build(None, table_d2_g5)
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
        x = xi_apply(spec, v, extension="constant", constant=2)
        xp = xi_apply(spec, vp, extension="constant", constant=2)
        assert point_distance(x, xp) > 3 * (x.err + xp.err)
    assert hits >= 15


# -- torus point plumbing ------------------------------------------------------


def test_point_csv_round_trip(spec_d2, rng):
    v = random_recurrent(suite_window(2, 8), 4, rng)
    x = xi_apply(spec_d2, v)
    back = TorusPoint.from_csv(x.to_csv())
    assert back.window == x.window
    assert back.err == x.err
    assert np.array_equal(back.values, x.values)


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
