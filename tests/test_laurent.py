"""Exact polynomial arithmetic, ideal certificates, and box windows."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sandharm.laurent import (
    LaurentPoly,
    divide_by,
    ideal_certificate,
    laplacian_poly,
    multiplier_sum,
    parse_poly,
    standard_polys,
)
from sandharm.window import BoxWindow


def u(d, axis):
    return LaurentPoly.variable(d, axis)


def uinv(d, axis):
    e = [0] * d
    e[axis] = -1
    return LaurentPoly.monomial(d, tuple(e))


one2 = LaurentPoly.one(2)


# -- ring operations ----------------------------------------------------------


def test_difference_of_squares():
    p = (one2 - u(2, 0)) * (one2 + u(2, 0))
    assert p == one2 - u(2, 0) ** 2


def test_laplacian_from_generator_combination():
    # sum_i (1-u_i^-1)(1-u_i)^2 minus sum_i (1-u_i)^2 telescopes to the stencil,
    # since (1-u_i)^2 (1 - (1-u_i^-1)) = u_i - 2 + u_i^-1
    total = LaurentPoly.zero(2)
    for ax in range(2):
        sq = (one2 - u(2, ax)) ** 2
        total = total + (one2 - uinv(2, ax)) * sq - sq
    assert total == laplacian_poly(2)


def test_multiply_by_zero_annihilates():
    p = one2 + 3 * u(2, 1) - u(2, 0) ** 2
    assert p * LaurentPoly.zero(2) == LaurentPoly.zero(2)
    assert not (p * 0)


def test_no_zero_coefficients_stored():
    p = (one2 - u(2, 0)) + (u(2, 0) - one2)
    assert p.terms == {}
    q = one2 + u(2, 0) - u(2, 0)
    assert set(q.terms) == {(0, 0)}


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LaurentPoly.one(2) + LaurentPoly.one(3)
    with pytest.raises(ValueError):
        LaurentPoly.one(2) * LaurentPoly.one(3)


def test_power_matches_repeated_products():
    for base in (one2 - u(2, 0), 2 * one2 - u(2, 0) + 3 * uinv(2, 1)):
        acc = one2
        for n in range(18):
            assert base**n == acc
            acc = acc * base


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        (one2 + u(2, 0)) ** -1


def test_negative_powers_invert_units():
    assert u(2, 0) ** -3 * u(2, 0) ** 3 == one2
    assert (-u(2, 0) * u(2, 1) ** 2) ** -1 == LaurentPoly.monomial(2, (-1, -2), -1)


@pytest.mark.parametrize("base, n", [(one2 - u(2, 0), 10**20), (one2 - u(2, 0) - u(2, 1), 100)])
def test_huge_powers_are_refused_before_multiplying(monkeypatch, base, n):
    def no_mul(self, other):
        raise AssertionError("multiplied a power that must be refused")

    monkeypatch.setattr(LaurentPoly, "__mul__", no_mul)
    with pytest.raises(ValueError, match="too large to expand"):
        base**n


def polys(d):
    """Up to 6 terms with exponents in [-3, 3] and coefficients in [-5, 5] (zero ones dropped)."""
    term = st.tuples(st.tuples(*[st.integers(-3, 3)] * d), st.integers(-5, 5))
    return st.builds(lambda terms: LaurentPoly(d, dict(terms)), st.lists(term, max_size=6))


@given(st.integers(1, 3).flatmap(polys))
@example(LaurentPoly.zero(2))
@settings(max_examples=200, deadline=None)
def test_parse_poly_reads_repr_back(p):
    head = "LaurentPoly(%d, " % p.dim
    text = repr(p)
    assert text.startswith(head) and text.endswith(")")
    assert parse_poly(text[len(head) : -1], p.dim) == p


small_polys = st.builds(
    lambda terms: LaurentPoly(2, dict(terms)),
    st.lists(
        st.tuples(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.integers(-4, 4),
        ),
        max_size=5,
    ),
)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


# -- standard polynomials -----------------------------------------------------


def test_standard_polys_d2():
    f = laplacian_poly(2)
    assert len(f.terms) == 5
    assert f[(0, 0)] == 4
    gens = standard_polys(2)
    assert isinstance(gens, tuple)
    assert len(gens) == 3
    g1, g2, g3 = gens
    assert g1 == (one2 - u(2, 0)) ** 2 * (one2 - u(2, 1))
    assert g2 == (one2 - u(2, 0)) * (one2 - u(2, 1)) ** 2
    assert g3 == (one2 - u(2, 0)) ** 2 + (one2 - u(2, 1)) ** 2


def test_standard_polys_d3():
    f = laplacian_poly(3)
    assert len(f.terms) == 7
    gens = standard_polys(3)
    # stencil itself plus every triple product (u_i-1)(u_j-1)(u_k-1) with
    # repetition allowed: 10 distinct triples
    assert len(gens) == 11
    assert len(set(gens)) == 11
    assert gens[0] == f


def test_standard_polys_dissipative_constant():
    f5 = laplacian_poly(2, 5)
    assert f5[(0, 0)] == 5
    assert f5 - laplacian_poly(2) == LaurentPoly.constant(2, 1)


def test_standard_polys_validation():
    with pytest.raises(ValueError):
        standard_polys(1)


# -- ideal certificates -------------------------------------------------------


def test_certificate_laplacian():
    cert = ideal_certificate(laplacian_poly(2))
    assert cert.member
    assert cert.common_second_moment == -2


def test_certificate_cube():
    assert ideal_certificate((one2 - u(2, 0)) ** 3).member


def test_certificate_first_moment_failure():
    cert = ideal_certificate(one2 - u(2, 0))
    assert not cert.member
    condition, axes, value = cert.failing
    assert condition == "B"
    assert axes == (1,)
    assert value == -1


def test_certificate_requires_dim_two():
    with pytest.raises(ValueError):
        ideal_certificate(LaurentPoly.one(1))


@pytest.mark.parametrize("d", [2, 3])
def test_membership_closed_under_multiplication(d, rng):
    """Products h*g stay in the ideal for random h up to degree 3."""
    gens = standard_polys(d)
    for g in gens:
        assert ideal_certificate(g).member
        for _ in range(5):
            terms = {}
            for _ in range(4):
                expo = tuple(int(x) for x in rng.integers(-3, 4, size=d))
                coeff = int(rng.integers(-3, 4))
                if coeff:
                    terms[expo] = coeff
            h = LaurentPoly(d, terms)
            assert ideal_certificate(h * g).member


@pytest.mark.parametrize("d", [2, 3])
def test_second_moments_axis_independent(d):
    for g in standard_polys(d):
        moments = []
        for j in range(d):
            powers = [0] * d
            powers[j] = 2
            moments.append(g.moment(powers))
        assert len(set(moments)) == 1


# -- multiplier mass ----------------------------------------------------------


def test_multiplier_sum_values():
    gens = standard_polys(2)
    assert multiplier_sum(gens[2]) == -1
    assert multiplier_sum(gens[0]) == 0
    assert multiplier_sum(laplacian_poly(2)) == 1


def test_multiplier_sum_rejects_non_members():
    with pytest.raises(ValueError):
        multiplier_sum(one2 - u(2, 0))


def test_cubic_ideal_elements_have_zero_mass(rng):
    """Triple products annihilate the mass functional, also after multiplying."""
    for d in (2, 3):
        # keep only the products of three (1 - u_i) factors: drop the stencil
        # and, in d=2, the quadratic sum (1-u1)^2 + (1-u2)^2
        skip = {laplacian_poly(d)}
        if d == 2:
            quad = LaurentPoly.zero(2)
            for ax in range(2):
                quad = quad + (LaurentPoly.one(2) - u(2, ax)) ** 2
            skip.add(quad)
        gens = [g for g in standard_polys(d) if g not in skip]
        assert len(gens) >= 2
        for g in gens:
            assert multiplier_sum(g) == 0
            for _ in range(3):
                terms = {
                    tuple(int(x) for x in rng.integers(-2, 3, size=d)): int(c)
                    for c in rng.integers(-2, 3, size=3)
                    if c
                }
                h = LaurentPoly(d, terms)
                if h:
                    assert multiplier_sum(h * g) == 0


# -- exact division -----------------------------------------------------------


def test_divide_exact_multiple():
    f = laplacian_poly(2)
    assert divide_by(u(2, 0) * f, f) == u(2, 0)


def test_divide_unit_absent():
    assert divide_by(one2, laplacian_poly(2)) is None


def test_divide_cube_plus_f_absent():
    f = laplacian_poly(2)
    g = (one2 - u(2, 0)) ** 3 + f
    assert divide_by(g, f) is None


def test_divide_recovers_random_factor(rng):
    f = laplacian_poly(2)
    for _ in range(10):
        terms = {}
        for _ in range(6):
            expo = tuple(int(x) for x in rng.integers(-3, 4, size=2))
            coeff = int(rng.integers(-5, 6))
            if coeff:
                terms[expo] = coeff
        h = LaurentPoly(2, terms)
        if not h:
            continue
        assert divide_by(h * f, f) == h


def random_poly(rng, d, n_terms, span, coeff_max):
    terms = {}
    for _ in range(n_terms):
        expo = tuple(int(x) for x in rng.integers(-span, span + 1, size=d))
        terms[expo] = terms.get(expo, 0) + int(rng.integers(-coeff_max, coeff_max + 1))
    return LaurentPoly(d, terms)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_divide_recovers_factor_of_random_divisors(d, rng):
    """h is recovered from h*f for random f, leading coefficients other than +-1 included."""
    leads = set()
    for _ in range(40):
        f = random_poly(rng, d, 4, 2, 5)
        h = random_poly(rng, d, 5, 2, 6)
        if not f:
            continue
        leads.add(abs(max(f.terms.items())[1]))
        assert divide_by(h * f, f) == h
        # times a monomial and a non-unit constant the quotient moves with it
        assert divide_by(LaurentPoly.monomial(d, (-3,) * d, 7) * h * f, f) == LaurentPoly.monomial(d, (-3,) * d, 7) * h
    assert leads - {1}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_divide_refuses_odd_over_even(d, rng):
    """g(1,...,1) = h(1,...,1) f(1,...,1) is even when f(1,...,1) is, so an odd g has no quotient."""
    checked = 0
    for _ in range(60):
        f = random_poly(rng, d, 4, 2, 5)
        g = random_poly(rng, d, 5, 2, 6)
        if f.coeff_sum() % 2 or g.coeff_sum() % 2 == 0:
            continue
        checked += 1
        assert divide_by(g, f) is None
    assert checked >= 5
    assert divide_by(one2, 2 * one2) is None
    assert divide_by(3 * one2 + 2 * u(2, 0), 2 * one2 - 4 * u(2, 1)) is None


def test_divide_zero_divisor_rejected():
    with pytest.raises(ValueError):
        divide_by(one2, LaurentPoly.zero(2))


# -- text form ----------------------------------------------------------------


def test_poly_text_round_trip():
    p = 2 * one2 - 3 * u(2, 0) * u(2, 1) + uinv(2, 1) ** 2
    text = p.to_text()
    assert text == "0 -2 : 1\n0 0 : 2\n1 1 : -3\n"
    terms = {}
    for line in text.splitlines():
        left, right = line.split(":")
        terms[tuple(int(e) for e in left.split())] = int(right)
    assert LaurentPoly(2, terms) == p
    assert LaurentPoly.zero(2).to_text() == ""


# -- windows ------------------------------------------------------------------


def test_window_basics():
    w = BoxWindow.centered(2, 2)
    assert w.shape == (5, 5)
    assert w.size == 25
    assert (0, 0) in w and (3, 0) not in w
    assert w.index_of((-2, -2)) == (0, 0)
    assert w.site_of((4, 4)) == (2, 2)
    sites = list(w.sites())
    assert len(sites) == 25 and sites[0] == (-2, -2)


def test_window_geometry():
    a = BoxWindow.from_shape((4, 4))
    b = a.shifted((2, 2))
    assert a.intersection(b) == BoxWindow((2, 2), (3, 3))
    assert a.intersection(a.shifted((10, 0))) is None
    assert a.dilated(1) == BoxWindow((-1, -1), (4, 4))
    assert a.contains_window(BoxWindow((1, 1), (2, 2)))


def test_window_slices_pick_the_sub_window():
    w = BoxWindow((-3, 2), (4, 6))
    arr = np.arange(w.size).reshape(w.shape)
    sub = BoxWindow((-1, 3), (2, 6))
    picked = arr[w.slices(sub)]
    assert picked.shape == sub.shape
    for site in sub.sites():
        assert picked[sub.index_of(site)] == arr[w.index_of(site)]
    assert np.array_equal(arr[w.slices(w)], arr)


def test_window_validation():
    with pytest.raises(ValueError):
        BoxWindow((0, 0), (-1, 0))
    with pytest.raises(KeyError):
        BoxWindow.from_shape((2, 2)).index_of((5, 5))
