"""Mutation catalogue: each check must be able to fail.

Each mutant breaks one piece of the program in-process, by ``monkeypatch``
(no source edits, no copies), and lists the cases it is run against, each a
check on a small window.  A case the mutant leaves passing is a survivor.
``KNOWN_SURVIVORS`` holds the survivors no check kills yet, and the test
asserts that the observed survivors are exactly that set: a new survivor
fails it, and so does a survivor a later change kills, until it is taken
out of the set.  Every case passes on the unmutated program, so each kill
is the mutant's doing.

Run with ``-s`` to see "k of m mutants killed" per paper claim.
"""

import dataclasses

import numpy as np
import pytest

from sandharm import checks, sandpile
from sandharm.harmonic import XiSpec, addition_operator_demo, standard_specs
from sandharm.window import BoxWindow

TABLES = {(2, 4): "table_d2_g4", (2, 5): "table_d2_g5", (3, 6): "table_d3_g6", (3, 7): "table_d3_g7"}


def additivity_case(d, gamma):
    def run(tables):
        specs = standard_specs(tables[d, gamma])
        window = checks.suite_window(d, 8 if d == 2 else 6)
        (c,) = checks.additivity(specs, window, np.random.default_rng(0), 3)
        return c.passed

    return "additivity d=%d gamma=%d" % (d, gamma), run


def demo_case(d, gamma, seed):
    # at d=2 gamma=5 the draw of seed 0 topples 7 times after the grain is added
    def run(tables):
        (spec,) = standard_specs(tables[d, gamma])
        _, mismatch, bound = addition_operator_demo(spec, (0,) * d, BoxWindow.centered(d, 2),
                                                    np.random.default_rng(seed))
        return mismatch <= bound

    return "demo-addition d=%d gamma=%d seed %d" % (d, gamma, seed), run


CASES = dict([additivity_case(2, 4), additivity_case(2, 5), additivity_case(3, 6), additivity_case(3, 7),
              demo_case(2, 5, 0)])


def drop_outflow(monkeypatch):
    """The comparisons map the stabilized sum alone, as if no grain left the window."""
    for module in (sandpile, checks):
        monkeypatch.setattr(module, "with_outflow", lambda v, odometer: v)


def random_kernel(monkeypatch):
    """Every map's kernel replaced by uniform noise on [-1, 1], its error terms kept."""
    build = XiSpec.build.__func__

    def noisy(cls, g, table):
        spec = build(cls, g, table)
        return dataclasses.replace(spec, kernel=np.random.default_rng(7).uniform(-1, 1, size=spec.kernel.shape))

    monkeypatch.setattr(XiSpec, "build", classmethod(noisy))


# name -> (the paper claim it guards, the patch, the cases it is run against)
MUTANTS = {
    "outflow dropped": (
        "additivity on the sandpile group",
        drop_outflow,
        ("additivity d=2 gamma=4", "additivity d=2 gamma=5", "additivity d=3 gamma=6", "additivity d=3 gamma=7"),
    ),
    "random kernel": (
        "additivity on the sandpile group",
        random_kernel,
        ("additivity d=2 gamma=5", "demo-addition d=2 gamma=5 seed 0"),
    ),
}

# the outflow is there on critical tables too, but their err of 2 to 5 hides a mismatch of
# about 0.1; it shows once the critical err falls well below that
KNOWN_SURVIVORS = {
    ("outflow dropped", "additivity d=2 gamma=4"),
    ("outflow dropped", "additivity d=3 gamma=6"),
}


@pytest.fixture
def tables(request):
    return {key: request.getfixturevalue(name) for key, name in TABLES.items()}


def test_every_case_passes_unmutated(tables):
    for name, run in CASES.items():
        assert run(tables), name


def test_survivors_are_exactly_the_known_ones(tables):
    survivors, kills = set(), {}
    for name, (claim, patch, cases) in MUTANTS.items():
        with pytest.MonkeyPatch.context() as mp:
            patch(mp)
            alive = {case for case in cases if CASES[case](tables)}
        survivors |= {(name, case) for case in alive}
        killed, total = kills.get(claim, (0, 0))
        kills[claim] = (killed + (len(alive) < len(cases)), total + 1)
    for claim, (killed, total) in kills.items():
        print("%s: %d of %d mutants killed" % (claim, killed, total))
    assert survivors == KNOWN_SURVIVORS
