"""The invariant suites of the covering maps: every suite returns typed
checks whose verdict is the documented comparison of measured and bound."""

import math

import numpy as np
import pytest

from sandharm import checks, harmonic, sandpile
from sandharm.harmonic import (XiSpec, equivariance_residual, harmonicity_residual, kernel_witness,
                               point_distance, point_sum, poly_action, standard_specs, torus_distance,
                               xi_apply)
from sandharm.laurent import LaurentPoly, poly_label
from sandharm.sandpile import HeightConfig, group_add, random_recurrent, stabilize, with_outflow
from sandharm.window import BoxWindow


def test_every_suite_verdict_follows_its_rule():
    specs = standard_specs(2, 4)
    window = checks.suite_window(2, 16)
    assert window.shape == (16, 16) and window.lo == (-8, -8)
    rng = np.random.default_rng(3)
    for name, (suite, counted, _) in checks.SUITES.items():
        assert counted in ("configs", "pairs", None)
        results = suite(specs, window, rng, 2)
        assert results
        for c in results:
            assert isinstance(c, checks.Check)
            assert c.name.split("[")[0] == name
            if name == "separation":
                assert c.bound == 0.0 and c.passed == (c.measured > c.bound)
            else:
                assert c.passed == (c.measured <= c.bound)
            if name in ("kernel", "additivity"):
                assert c.bound == 1.0
            assert c.passed, "%s: %s" % (c.name, c.detail)


@pytest.mark.parametrize("d, gamma", [(2, 5), (2, 6), (3, 7)])
def test_kernel_suite_passes_on_dissipative_tables(d, gamma):
    # the witnesses are scaled so that the map of mass 1/(gamma - 2d) sends them to integers
    specs = standard_specs(d, gamma)
    window = checks.suite_window(d, 16 if d == 2 else 8)
    results = checks.kernel(specs, window)
    assert [c.name for c in results] == ["kernel[constant]", "kernel[f_multiple]", "kernel[periodic_family]"]
    for c in results:
        assert c.passed, "%s: %s" % (c.name, c.detail)
    excess = gamma - 2 * d
    v, _ = kernel_witness("constant", specs, window)
    assert np.all(v.heights == 3 * excess)
    v, _ = kernel_witness("periodic_family", specs, window)
    assert set(np.unique(v.heights)) == {0, 2 * excess * (excess + 4)}


@pytest.mark.parametrize("d, gamma", [(2, 5), (2, 6), (3, 7)])
def test_additivity_suite_passes_on_dissipative_tables(d, gamma):
    # the grains that leave the window are laid on its shell: without them (the comparison of
    # the stabilized sum alone) the mismatch is far above the rounding-level err budget here
    specs = standard_specs(d, gamma)
    window = checks.suite_window(d, 16 if d == 2 else 8)
    (c,) = checks.additivity(specs, window, np.random.default_rng(0), 4)
    assert c.name == "additivity" and c.bound == 1.0
    assert c.passed, c.detail


# -- the stacked suites against one-at-a-time references ----------------------


def reference_suite(name, specs, window, rng, n):
    """The suite computed one configuration at a time, drawing in the same order."""
    gamma, d = specs[0].gamma, specs[0].dim
    period = checks.suite_torus(window).shape
    if name == "additivity":
        out_window = BoxWindow.centered(d, 2)
        worst = 0.0
        for _ in range(n):
            v = random_recurrent(window, gamma, rng)
            vp = random_recurrent(window, gamma, rng)
            w, k = stabilize(HeightConfig(window, gamma, v.heights + vp.heights))
            assert np.array_equal(w.heights, group_add(v, vp).heights)
            ledger = with_outflow(w, k)
            for spec in specs:
                xv, xvp, xw = (xi_apply(spec, u, out_window=out_window, period=period) for u in (v, vp, ledger))
                worst = max(worst, point_distance(xw, point_sum(xv, xvp)) / (xv.err + xvp.err + xw.err))
        detail = "max image mismatch over %d pairs: %.3e of the combined err budget" % (n, worst)
        return [checks.Check("additivity", worst <= 1.0, worst, 1.0, detail)]
    h = LaurentPoly.one(d) + LaurentPoly.variable(d, 0)
    unit = (1,) + (0,) * (d - 1)
    results = []
    for spec in specs:
        worst = 0.0
        for _ in range(n):
            v = random_recurrent(window, gamma, rng)
            if name == "harmonicity":
                x = xi_apply(spec, v, period=period)
                residual, bound = harmonicity_residual(x, gamma), (4 * d + 1) * x.err
                detail = "max residual %.3e <= (4d+1) err %.3e over %d configs"
            elif name == "equivariance":
                shift = tuple(int(x) for x in rng.integers(-2, 3, size=d))
                pairs = [equivariance_residual(spec, v, m, period) for m in (shift, unit)]
                residual, bound = max(defect for defect, _ in pairs), min(b for _, b in pairs)
                detail = "max shift defect %.3e <= 2 err %.3e over %d configs"
            else:
                rhs = poly_action(h, xi_apply(spec, v, period=period))
                lhs = xi_apply(XiSpec.build(spec.g * h, d, gamma), v, out_window=rhs.window, period=period)
                residual = float(torus_distance(lhs.values - rhs.values).max())
                bound = lhs.err + rhs.err
                detail = "max defect %.3e <= combined err %.3e over %d configs"
            worst = max(worst, residual)
        label = "%s[%s]" % (name, poly_label(spec.g))
        results.append(checks.Check(label, worst <= bound, worst, bound, detail % (worst, bound, n)))
    return results


STACKED = ("harmonicity", "equivariance", "intertwining", "additivity")


@pytest.mark.parametrize("table", ["table_d2_g4", "table_d3_g6", "table_d2_g5"])
def test_stacked_suites_equal_one_at_a_time(table, request, monkeypatch):
    # the table fixture names the dimension and threshold; the map reads nothing else from it
    t = request.getfixturevalue(table)
    specs = standard_specs(t.dim, t.gamma)
    d = specs[0].dim
    window = checks.suite_window(d, 16 if d == 2 else 8)
    n = 2
    for name in STACKED:
        suite = checks.SUITES[name][0]
        expected = reference_suite(name, specs, window, np.random.default_rng(5), n)
        rng = np.random.default_rng(5)
        assert suite(specs, window, rng, n) == expected, name
        # the suite leaves the generator where the one-at-a-time loop leaves it
        reference_rng = np.random.default_rng(5)
        reference_suite(name, specs, window, reference_rng, n)
        assert rng.integers(2**62) == reference_rng.integers(2**62)
    # runs cut at three members give the same checks
    monkeypatch.setattr(sandpile, "STACK_SITES", 3 * window.size)
    for name in STACKED:
        suite = checks.SUITES[name][0]
        assert suite(specs, window, np.random.default_rng(5), n) == \
            reference_suite(name, specs, window, np.random.default_rng(5), n), name


@pytest.mark.parametrize("d, gamma", [(2, 4), (2, 5)])
def test_every_suite_fails_on_a_nan_symbol(d, gamma, monkeypatch):
    # a nan symbol must fail every check, not read as a residual of 0
    symbol = harmonic._symbol
    monkeypatch.setattr(harmonic, "_symbol", lambda spec, period: (np.full_like(symbol(spec, period)[0], np.nan),
                                                                    symbol(spec, period)[1]))
    specs = standard_specs(d, gamma)
    window = checks.suite_window(2, 16)
    for name, (suite, *_) in checks.SUITES.items():
        results = suite(specs, window, np.random.default_rng(2), 2)
        assert results
        for c in results:
            assert not c.passed, "%s: %s" % (c.name, c.detail)
            assert not math.isfinite(c.measured) or not math.isfinite(c.bound), c


def test_identity_suites_report_rounding_level_err():
    # on the suite torus every identity is exact; its err is the stated FFT rounding term
    for d, gamma in ((2, 4), (2, 5), (3, 6), (3, 7)):
        specs = standard_specs(d, gamma)
        window = checks.suite_window(d, 16 if d == 2 else 8)
        rng = np.random.default_rng(1)
        for name in ("harmonicity", "equivariance", "intertwining"):
            for c in checks.SUITES[name][0](specs, window, rng, 2):
                assert c.passed and c.bound <= 1e-9, (d, gamma, c)
