"""The invariant suites of the covering maps: every suite returns typed
checks whose verdict is the documented comparison of measured and bound."""

import numpy as np

from sandharm import checks
from sandharm.harmonic import standard_specs


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
