"""Mutation catalogue: each check must be able to fail.

Each mutant breaks one piece of the program in-process, by ``monkeypatch``
(no source edits, no copies of the tree; a change inside a loop replaces
that one function by a copy with the change), and lists the cases it is run
against, each a check on a small window.  A case the mutant leaves passing
is a survivor.  ``KNOWN_SURVIVORS`` holds the survivors no check kills yet,
and the test asserts that the observed survivors are exactly that set: a
new survivor fails it, and so does a survivor a later change kills, until
it is taken out of the set.  Every case passes on the unmutated program, so each kill
is the mutant's doing.

Run with ``-s`` to see "k of m mutants killed" per paper claim.
"""

import math

import numpy as np
import pytest

from sandharm import checks, harmonic, sandpile
from sandharm.harmonic import addition_operator_demo, standard_specs
from sandharm.sandpile import HeightConfig
from sandharm.window import BoxWindow, laplacian

from test_harmonic import images_are_harmonic
from test_sandpile import sweep_reference


def additivity_case(d, gamma):
    def run():
        specs = standard_specs(d, gamma)
        window = checks.suite_window(d, 8 if d == 2 else 6)
        (c,) = checks.additivity(specs, window, np.random.default_rng(0), 3)
        return c.passed

    return "additivity d=%d gamma=%d" % (d, gamma), run


def demo_case(d, gamma, seed):
    # at d=2 gamma=5 the draw of seed 0 topples 7 times after the grain is added
    def run():
        (spec,) = standard_specs(d, gamma)
        _, mismatch, bound = addition_operator_demo(spec, (0,) * d, BoxWindow.centered(d, 2),
                                                    np.random.default_rng(seed))
        return mismatch <= bound

    return "demo-addition d=%d gamma=%d seed %d" % (d, gamma, seed), run


def suite_case(name, d, gamma):
    """Every check of one suite passes on the default window."""
    def run():
        window = checks.suite_window(d, 16 if d == 2 else 8)
        results = checks.SUITES[name][0](standard_specs(d, gamma), window, np.random.default_rng(0), 2)
        return all(c.passed for c in results)

    return "%s d=%d gamma=%d" % (name, d, gamma), run


def stabilize_case(name, make):
    """``stabilize`` gives the plain bulk sweeps' heights and odometer."""
    def run():
        v = make(np.random.default_rng(0))
        out, odo = sandpile.stabilize(v)
        heights, counts = sweep_reference(v.heights, v.gamma)
        return np.array_equal(out.heights, heights) and np.array_equal(odo.counts, counts)

    return "stabilize " + name, run


def two_zeros_case():
    """All-max on 32x32 with two adjacent zeros: the pair is a forbidden subconfiguration."""
    def run():
        v = HeightConfig.all_max(BoxWindow.from_shape((32, 32)), 4)
        v.heights[10, 10:12] = 0
        return not sandpile.burning_test(v).recurrent

    return "burning test 32x32 two adjacent zeros", run


def exact_count_case(shape, gamma, check):
    """The exact count on a box passes ``check(count, window, gamma)``."""
    def run():
        window = BoxWindow.from_shape(shape)
        return check(sandpile.toppling_determinant_exact(window, gamma), window, gamma)

    return "exact count %s gamma=%d" % ("x".join(map(str, shape)), gamma), run


def matches_log(count, window, gamma):
    return abs(math.log(count) - sandpile.log_recurrent_count(window, gamma)) <= 1e-12 * math.log(count)


def bruteforce_case(shape, gamma):
    """The brute-force count equals the exact count."""
    def run():
        window = BoxWindow.from_shape(shape)
        return sandpile.count_recurrent(window, gamma, "bruteforce") == sandpile.toppling_determinant_exact(window, gamma)

    return "bruteforce = determinant %s gamma=%d" % ("x".join(map(str, shape)), gamma), run


CASES = dict([additivity_case(2, 4), additivity_case(2, 5), additivity_case(3, 6), additivity_case(3, 7),
              demo_case(2, 5, 0), suite_case("kernel", 2, 4), suite_case("kernel", 2, 5),
              suite_case("harmonicity", 2, 4), suite_case("harmonicity", 3, 6), suite_case("separation", 3, 6),
              ("test_images_are_harmonic_mod_one", lambda: images_are_harmonic(standard_specs(2, 4),
                                                                                np.random.default_rng(0))),
              stabilize_case("12x10 gamma=5", lambda rng: HeightConfig(BoxWindow.from_shape((12, 10)), 5,
                                                                       4 + rng.integers(0, 5, size=(12, 10)))),
              stabilize_case("pile 600 15x15 gamma=4",
                             lambda rng: HeightConfig.delta(BoxWindow.from_shape((15, 15)), 4, (7, 7), 600)),
              stabilize_case("5x4x6 gamma=6", lambda rng: HeightConfig(BoxWindow.from_shape((5, 4, 6)), 6,
                                                                      rng.integers(0, 12, size=(5, 4, 6)))),
              two_zeros_case(),
              exact_count_case((1000,), 2, lambda count, window, gamma: count == 1001),
              exact_count_case((16, 16), 4, matches_log),
              bruteforce_case((5,), 3), bruteforce_case((3, 3), 5), bruteforce_case((2, 2, 2), 7)])


def drop_outflow(monkeypatch):
    """The comparisons map the stabilized sum alone, as if no grain left the window."""
    for module in (sandpile, checks):
        monkeypatch.setattr(module, "with_outflow", lambda v, odometer: v)


def _patch_symbol(monkeypatch, change):
    """Every map's sampled symbol passed through ``change(symbol, period)``, its rounding term kept."""
    symbol = harmonic._symbol

    def patched(spec, period):
        s, rounding = symbol(spec, period)
        return change(s, period), rounding

    monkeypatch.setattr(harmonic, "_symbol", patched)


def random_kernel(monkeypatch):
    """Every map's symbol replaced by uniform noise on [-1, 1], its err rule kept."""
    _patch_symbol(monkeypatch, lambda s, period: np.random.default_rng(7).uniform(-1, 1, size=s.shape))


def rolled_symbol(monkeypatch):
    """S_g times e^{i t_0}: the kernel moved by one site along axis 0, which is the map of u1 g."""
    def roll(s, period):
        t0 = 2 * np.pi * np.fft.fftfreq(period[0]).reshape((-1,) + (1,) * (len(period) - 1))
        return s * np.exp(1j * t0)

    _patch_symbol(monkeypatch, roll)


def wrong_mass(monkeypatch):
    """S_g(0) + 1: a constant 1/N^d added to the periodized kernel."""
    def shift(s, period):
        s = s.copy()
        s[(0,) * len(period)] += 1
        return s

    _patch_symbol(monkeypatch, shift)


def skip_neighbour(monkeypatch):
    """The harmonicity residual forgets the neighbour n + e_0."""
    def skipping(field, gamma):
        out = laplacian(field, gamma)
        out[:-1] += field[1:]
        return out

    monkeypatch.setattr(harmonic, "laplacian", skipping)


def zeroed_field(monkeypatch):
    """The map sees no grain: ``xi_apply`` maps the zero field on the same windows."""
    xi_apply = harmonic.xi_apply

    def zeroed(spec, v, out_window=None, period=None):
        return xi_apply(spec, HeightConfig(v.window, v.gamma, np.zeros_like(v.heights)), out_window, period)

    monkeypatch.setattr(harmonic, "xi_apply", zeroed)


def even_side(monkeypatch):
    """The flat layout pads the last axis to an even side, so flat parity no longer 2-colours the sites."""
    layout = sandpile._flat_layout

    def even(shape):
        padded, _, core = layout(shape)
        padded = padded[:-1] + (shape[-1] + 2 + shape[-1] % 2,)
        return padded, [math.prod(padded[ax + 1 :]) for ax in range(len(shape))], core

    monkeypatch.setattr(sandpile, "_flat_layout", even)


def int16_border_at_zero(monkeypatch):
    """The int16 sweeps' padded border starts at 0, not at the sink, so a border site can topple back."""
    halves = sandpile._halves
    monkeypatch.setattr(sandpile, "_halves",
                        lambda stack, value=0: halves(stack, 0 if stack.dtype == np.int16 else value))


def always_recurrent(monkeypatch):
    """Every site burns in round 1, whatever its height."""
    monkeypatch.setattr(sandpile, "_burn_rounds", lambda heights, alive: np.ones(heights.shape, dtype=np.int32))


def chebyshev_plus(monkeypatch):
    """p_{k+1} = B p_k + p_{k-1}: the axis reduction adds the step before instead of subtracting it."""
    def plus(b, cross, gamma, n):
        m = len(b)
        prev, p = np.eye(m, dtype=np.int64).astype(object), b.astype(object)
        for _ in range(n - 1):
            prev, p = p, laplacian(p.reshape((m,) + cross), gamma, stacked=True).reshape(m, m) + prev
        return p

    monkeypatch.setattr(sandpile, "_chebyshev_u", plus)


def clip_below_degree(monkeypatch):
    """The brute force burns heights clipped one below the most neighbours a site has (2d - 1 on a full box)."""
    burn_all = sandpile._burn_all
    monkeypatch.setattr(sandpile, "_burn_all",
                        lambda configs, adj: burn_all(np.minimum(configs, adj.sum(axis=1).max() - 1), adj))


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
    "rolled symbol": (
        "harmonic image",
        rolled_symbol,
        ("harmonicity d=2 gamma=4", "kernel d=2 gamma=4", "additivity d=2 gamma=4", "demo-addition d=2 gamma=5 seed 0"),
    ),
    "wrong S(0)": (
        "kernel of xi_g",
        wrong_mass,
        ("kernel d=2 gamma=4", "kernel d=2 gamma=5"),
    ),
    "harmonicity skips one neighbour": (
        "harmonic image",
        skip_neighbour,
        ("harmonicity d=2 gamma=4", "harmonicity d=3 gamma=6", "test_images_are_harmonic_mod_one"),
    ),
    "map of a zeroed field": (
        "separation",
        zeroed_field,
        ("separation d=3 gamma=6",),
    ),
    "even padded side": (
        "stabilization",
        even_side,
        ("stabilize 12x10 gamma=5", "stabilize pile 600 15x15 gamma=4", "stabilize 5x4x6 gamma=6"),
    ),
    # only the pile sends gamma or more grains onto one border site; on the two loads each border
    # site holds fewer, never topples back, and the mutant changes nothing
    "int16 border at 0": (
        "stabilization",
        int16_border_at_zero,
        ("stabilize pile 600 15x15 gamma=4",),
    ),
    "burning test always recurrent": (
        "stabilization",
        always_recurrent,
        ("burning test 32x32 two adjacent zeros",),
    ),
    "p_{k+1} = B p_k + p_{k-1}": (
        "the recurrent count is det L",
        chebyshev_plus,
        ("exact count 1000 gamma=2", "exact count 16x16 gamma=4"),
    ),
    # in the critical case every height is below 2d already, so only gamma > 2d can show the clip
    "brute force clips at 2d - 1": (
        "the recurrent count is det L",
        clip_below_degree,
        ("bruteforce = determinant 5 gamma=3", "bruteforce = determinant 3x3 gamma=5",
         "bruteforce = determinant 2x2x2 gamma=7"),
    ),
}

# the rolled symbol is the map of u1 g, also a summable multiplier: its images are those of a
# genuine covering map, so every comparison mod 1 accepts them; only a comparison of the exact
# identity f x = g* v before reduction mod 1 could tell the two apart
KNOWN_SURVIVORS = {
    ("rolled symbol", "harmonicity d=2 gamma=4"),
    ("rolled symbol", "kernel d=2 gamma=4"),
    ("rolled symbol", "additivity d=2 gamma=4"),
    ("rolled symbol", "demo-addition d=2 gamma=5 seed 0"),
}


def test_every_case_passes_unmutated():
    for name, run in CASES.items():
        assert run(), name


def test_survivors_are_exactly_the_known_ones():
    survivors, kills = set(), {}
    for name, (claim, patch, cases) in MUTANTS.items():
        with pytest.MonkeyPatch.context() as mp:
            patch(mp)
            alive = {case for case in cases if CASES[case]()}
        survivors |= {(name, case) for case in alive}
        killed, total = kills.get(claim, (0, 0))
        kills[claim] = (killed + (len(alive) < len(cases)), total + 1)
    for claim, (killed, total) in kills.items():
        print("%s: %d of %d mutants killed" % (claim, killed, total))
    assert survivors == KNOWN_SURVIVORS
