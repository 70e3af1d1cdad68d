"""The invariant suites of the covering maps: every suite returns typed
checks whose verdict is the documented comparison of measured and bound."""

import numpy as np
import pytest

from sandharm import checks
from sandharm.green import compute_green
from sandharm.harmonic import kernel_witness, standard_specs


def test_every_suite_verdict_follows_its_rule(table_d2_g4):
    specs = standard_specs(table_d2_g4)
    window = checks.suite_window(2, 16)
    assert window.shape == (16, 16) and window.lo == (-8, -8)
    rng = np.random.default_rng(3)
    for name, (suite, counted) in checks.SUITES.items():
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
    specs = standard_specs(compute_green(d, gamma, 12 if d == 2 else 8))
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
