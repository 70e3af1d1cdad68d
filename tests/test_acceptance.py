"""Acceptance gate: eleven numbered criteria, one test per criterion.

Run ``pytest -v tests/test_acceptance.py`` for a pass/fail line per
criterion; each test also prints the measured quantities next to their
tolerances (visible with ``-s`` or on failure).
"""

import itertools
import math
import time

import numpy as np
import pytest

from sandharm import checks
from sandharm.green import (
    compute_green,
    decay_profile,
    entropy_quadrature,
    fundamental_residual,
    multiplier_table,
    walk_series_oracle,
)
from sandharm.harmonic import XiSpec, point_distance, point_sum, standard_specs, xi_apply_stack
from sandharm.laurent import (
    LaurentPoly,
    ideal_certificate,
    laplacian_poly,
    multiplier_sum,
    standard_polys,
)
from sandharm.sandpile import (
    HeightConfig,
    _burn_all,
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
    with_outflow,
)
from sandharm.window import BoxWindow

from test_harmonic import kernel_beyond
from test_sandpile import apply_correction, has_forbidden_subset, stabilize_serial


def test_criterion_01_entropy_constants():
    t0 = time.monotonic()
    h2 = entropy_quadrature(2, 4)
    t2 = time.monotonic() - t0
    t0 = time.monotonic()
    h3 = entropy_quadrature(3, 6)
    t3 = time.monotonic() - t0
    print(
        "criterion 1: h2 = %.6f (target 1.166 +- 0.001, %.1fs), "
        "h3 = %.6f (target 1.673 +- 0.001, %.1fs)" % (h2.value, t2, h3.value, t3)
    )
    assert abs(h2.value - 1.166) <= 1e-3
    assert abs(h3.value - 1.673) <= 1e-3
    assert t2 < 10.0 and t3 < 10.0


def test_criterion_02_green_anchors():
    t0 = time.monotonic()
    w2 = compute_green(2, 4, 16)
    w3 = compute_green(3, 6, 8)
    elapsed = time.monotonic() - t0
    near = w2.value((1, 0))
    diag = w2.value((1, 1))
    oracle = walk_series_oracle(3, 6, (0, 0, 0))
    center3 = w3.value((0, 0, 0))
    series_tol = 6 * (oracle.err_bound + 10 * w3.accuracy)
    print(
        "criterion 2: w2(0,0) = %r (exact 0), w2(1,0)+1/4 = %.2e (tol 1e-6), "
        "w2(1,1)+1/pi = %.2e (tol 1e-5), |6 w3(0) - series| = %.2e (tol %.2e), %.1fs"
        % (w2.value((0, 0)), near + 0.25, diag + 1 / math.pi,
           abs(6 * center3 - 6 * oracle.value), series_tol, elapsed)
    )
    assert w2.value((0, 0)) == 0.0
    assert abs(near + 0.25) <= 1e-6
    assert abs(diag + 1 / math.pi) <= 1e-5
    assert abs(6 * center3 - 6 * oracle.value) <= series_tol
    assert elapsed < 60.0


def test_criterion_03_stencil_identity(table_d2_g4, table_d2_g5, table_d3_g6, table_d3_g7):
    parts = []
    for t in (table_d2_g4, table_d2_g5, table_d3_g6, table_d3_g7):
        res = fundamental_residual(t)
        parts.append("(%d,%g): %.2e <= %.2e" % (t.dim, t.gamma, res, 10 * t.accuracy))
        assert res <= 10 * t.accuracy
    print("criterion 3: residual vs 10x accuracy " + "; ".join(parts))


def test_criterion_04_ideal_membership(table_d2_g4, table_d3_g6_r16, table_d2_g4_r32):
    one2 = LaurentPoly.one(2)
    u1 = LaurentPoly(2, {(1, 0): 1})
    assert ideal_certificate(laplacian_poly(2)).member
    assert ideal_certificate(laplacian_poly(3)).member
    assert ideal_certificate((one2 - u1) ** 3).member
    for d in (2, 3):
        for g in standard_polys(d):
            assert ideal_certificate(g).member
    assert not ideal_certificate(one2 - u1).member

    fits = []
    for table in (table_d2_g4, table_d3_g6_r16):
        d = table.dim
        for g in standard_polys(d):
            m = multiplier_table(g, table)
            vals = m.values.copy()
            vals[np.abs(vals) < m.entry_error] = 0.0
            prof = decay_profile(vals)
            if prof.exponent is None:
                # the stencil's multiplier is the point mass: everything
                # beyond shell zero is below the entry error, which beats
                # any power law
                assert float(np.abs(vals).sum()) == abs(vals[(m.radius,) * d])
                fits.append("d=%d compact" % d)
            else:
                assert prof.exponent <= -(d + 1) + 0.5
                fits.append("d=%d %.2f" % (d, prof.exponent))

    # 1 - u1 is not summable: its l1 partial sums keep growing to radius 32
    m = multiplier_table(one2 - u1, table_d2_g4_r32)
    prof = decay_profile(m.values)
    sums = np.cumsum(prof.shell_sum)
    s = [float(sums[r]) for r in (8, 16, 24, 31)]
    inc = np.diff(s)
    print(
        "criterion 4: fits [%s] all <= -(d+1)+0.5; 1-u1 partial sums %.3f -> %.3f -> %.3f -> %.3f"
        % (", ".join(fits), *s)
    )
    assert np.all(inc > 0)
    assert inc[-1] >= 0.8 * inc[0]


def test_criterion_05_conservation(table_d2_g4, table_d3_g6_r16, rng):
    worst = 0.0
    for table in (table_d2_g4, table_d3_g6_r16):
        d = table.dim
        for g in standard_polys(d):
            # the table's multiplier on its box, and the mass beyond the box by the symbol route
            m = multiplier_table(g, table)
            beyond, alias = kernel_beyond(XiSpec.build(g, d, table.gamma), m.radius)
            total = float(m.values.sum()) + beyond
            target = multiplier_sum(g)
            bound = m.values.size * m.entry_error + alias
            assert abs(total - target) <= bound
            worst = max(worst, abs(total - target) / bound)

    checked = 0
    for d in (2, 3):
        cubics = [
            g for g in standard_polys(d)
            if multiplier_sum(g) == 0 and g != laplacian_poly(d)
        ]
        for _ in range(5):
            g = cubics[rng.integers(len(cubics))]
            terms = {
                tuple(int(x) for x in rng.integers(-2, 3, size=d)): int(c)
                for c in rng.integers(-3, 4, size=3)
                if c
            }
            h = LaurentPoly(d, terms)
            if not h:
                h = LaurentPoly.one(d)
            assert multiplier_sum(h * g) == 0
            checked += 1
    print(
        "criterion 5: coefficient sums within bounds (worst ratio %.3f); "
        "multiplier mass 0 exactly on %d random cubic-ideal elements" % (worst, checked)
    )


def test_criterion_06_sandpile_counting():
    two_site = BoxWindow.from_shape((1, 2))
    square = BoxWindow.from_shape((2, 2))
    brute_two = count_recurrent(two_site, 4, backend="bruteforce")
    brute_sq = count_recurrent(square, 4, backend="bruteforce")
    assert brute_two == 15
    assert brute_sq == 192
    assert toppling_determinant_exact(two_site, 4) == 15
    assert toppling_determinant_exact(square, 4) == 192
    assert brute_two == count_recurrent(two_site, 4) and brute_sq == count_recurrent(square, 4)
    assert brute_two == round(math.exp(log_recurrent_count(two_site, 4)))
    assert brute_sq == round(math.exp(log_recurrent_count(square, 4)))

    agreements = 0
    for heights in itertools.product(range(4), repeat=4):
        v = HeightConfig(square, 4, np.array(heights).reshape(2, 2))
        assert burning_test(v).recurrent == (not has_forbidden_subset(v))
        agreements += 1
    print(
        "criterion 6: counts 15 and 192 match the determinant exactly; "
        "burning test matches the forbidden-set definition on all %d configs" % agreements
    )


def test_criterion_07_abelian_property(rng):
    window = BoxWindow.from_shape((8, 8))
    runs = 0
    for _ in range(10):
        v = HeightConfig(window, 4, rng.integers(0, 12, size=(8, 8)))
        ref, odo_ref = stabilize(v)
        assert int(v.heights.sum()) == int(ref.heights.sum()) + odo_ref.total_mass_lost
        for k in range(10):
            out, odo = stabilize_serial(v, np.random.default_rng(k))
            assert np.array_equal(out.heights, ref.heights)
            assert np.array_equal(odo.counts, odo_ref.counts)
            assert int(v.heights.sum()) == int(out.heights.sum()) + odo.total_mass_lost
            runs += 1
    print(
        "criterion 7: %d serial stabilizations reproduced the bulk result "
        "and balanced exactly" % runs
    )


def test_criterion_08_finite_volume_entropy(entropy_d2_critical):
    sides = (8, 16, 32, 64)
    crit = [finite_entropy_estimate(s, 2, 4) for s in sides]
    gaps = [abs(e - entropy_d2_critical.value) for e in crit]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.1

    ref5 = entropy_quadrature(2, 5)
    diss = [finite_entropy_estimate(s, 2, 5) for s in sides]
    gaps5 = [abs(e - ref5.value) for e in diss]
    assert all(a > b for a, b in zip(gaps5, gaps5[1:]))
    assert gaps5[-1] <= 0.1
    print(
        "criterion 8: gamma=4 estimates %s approach %.4f (last gap %.4f); "
        "gamma=5 estimates approach %.4f (last gap %.4f)"
        % (["%.4f" % e for e in crit], entropy_d2_critical.value, gaps[-1], ref5.value, gaps5[-1])
    )


def test_criterion_09_xi_map_suites():
    t0 = time.monotonic()
    lines = []
    for d, side in ((2, 16), (3, 8)):
        specs = standard_specs(d, 2 * d)
        window = checks.suite_window(d, side)
        rng = np.random.default_rng(d)
        results = []
        results += checks.harmonicity(specs, window, rng, 20)
        results += checks.equivariance(specs, window, rng, 5)
        results += checks.kernel(specs, window)
        results += checks.separation(specs, window, rng, 25)
        results += checks.intertwining(specs, window, rng, 3)
        for c in results:
            assert c.passed, "d=%d %s: %s" % (d, c.name, c.detail)
        lines.append("d=%d all %d checks passed" % (d, len(results)))
    elapsed = time.monotonic() - t0
    print("criterion 9: %s; 50 separation pairs total; %.1fs" % ("; ".join(lines), elapsed))
    assert elapsed < 300.0


def test_criterion_10_correction_operator(rng):
    window = BoxWindow.centered(2, 5)
    checked = 0
    for M in (1, 2, 3):
        for _ in range(7):
            v = HeightConfig(window, 4, rng.integers(0, 8, size=window.shape))
            h = correct_to_recurrent(v, M)
            for e in h.terms:  # (1) support inside Q_M
                assert max(abs(x) for x in e) <= M
            vp = apply_correction(v, h)
            c = 5
            patch = HeightConfig(
                BoxWindow.centered(2, M), 4, vp.heights[c - M : c + M + 1, c - M : c + M + 1]
            )
            assert burning_test(patch).recurrent  # (2) the Q_M patch is recurrent
            far = np.ones(window.shape, dtype=bool)
            far[c - M - 1 : c + M + 2, c - M - 1 : c + M + 2] = False
            assert np.array_equal(vp.heights[far], v.heights[far])  # (3)
            ring = np.abs(vp.heights[~far]).sum() - np.abs(
                vp.heights[c - M : c + M + 1, c - M : c + M + 1]
            ).sum()
            assert ring <= (2 * M + 3) ** 2 * int(v.heights.max())  # (4)
            checked += 1
    assert checked == 21

    # uniqueness for M=1, d=2: the map h -> (v + h f)|Q1 is the bijection
    # w = v|Q1 + T h with T the 3x3 toppling matrix, so searching all h with
    # coefficients in [-3,3] is the same as searching all stable patches w
    # and keeping those whose h = T^-1 (w - v|Q1) is integral and bounded
    q1 = BoxWindow.centered(2, 1)
    T = toppling_matrix(q1, 4)
    det = toppling_determinant_exact(q1, 4)
    adj = np.rint(det * np.linalg.inv(T)).astype(np.int64)
    assert np.array_equal(adj @ T, det * np.eye(9, dtype=np.int64))

    patches = np.indices((4,) * 9).reshape(9, -1).T.astype(np.int64)
    recurrent = np.zeros(len(patches), dtype=bool)
    q1_adj = -toppling_matrix(q1, 0)
    for start in range(0, len(patches), 1 << 16):
        block = patches[start : start + (1 << 16)]
        recurrent[start : start + (1 << 16)] = _burn_all(block, q1_adj)

    for label, v in (
        ("zero", HeightConfig.constant(BoxWindow.centered(2, 2), 4, 0)),
        ("random", HeightConfig(BoxWindow.centered(2, 2), 4,
                                np.random.default_rng(1).integers(0, 4, size=(5, 5)))),
    ):
        h_alg = correct_to_recurrent(v, 1)
        v_q1 = v.heights[1:4, 1:4].reshape(-1)
        Y = (patches - v_q1) @ adj.T
        integral = (Y % det == 0).all(axis=1)
        H = Y // det
        ok = recurrent & integral & (np.abs(H) <= 3).all(axis=1)
        assert int(ok.sum()) == 1, "expected a unique correction for the %s input" % label
        h_vec = np.array([h_alg.terms.get(s, 0) for s in q1.sites()])
        assert np.array_equal(H[ok][0], h_vec)
    print(
        "criterion 10: postconditions (1)-(4) on %d random inputs; uniqueness "
        "confirmed against all %d stable 3x3 patches for two inputs" % (checked, len(patches))
    )


def test_criterion_11_quotient_additivity(rng):
    specs = standard_specs(2, 4)
    window = checks.suite_window(2, 16)
    out = BoxWindow.centered(2, 2)
    worst = 0.0
    for _ in range(20):
        v = random_recurrent(window, 4, rng)
        vp = random_recurrent(window, 4, rng)
        # the group sum, with the grains its stabilization sent off the window on the shell
        s, k = stabilize(HeightConfig(window, 4, v.heights + vp.heights))
        assert np.array_equal(s.heights, group_add(v, vp).heights)
        ledger = with_outflow(s, k)
        for spec in specs:
            # periodic on the torus that holds the window and its outflow shell, where it is exact
            xv, xvp, xs = xi_apply_stack(spec, [v, vp, ledger], [out] * 3, checks.suite_torus(window).shape)
            budget = xv.err + xvp.err + xs.err
            dist = point_distance(xs, point_sum(xv, xvp))
            assert dist <= budget
            worst = max(worst, dist / budget)
    print(
        "criterion 11: image additivity, outflow counted, held on 20 random recurrent pairs "
        "(worst mismatch %.3e of the error budget)" % worst
    )
