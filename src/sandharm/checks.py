"""Invariant suites for the covering maps xi_g, each returning a list of ``Check``.

The covering map is harmonic mod 1, shift-equivariant, annihilates the
stencil multiples, separates recurrent configurations, is additive on the
sandpile group, and intertwines multiplication by h with the action of h.
Each suite tests one property on random recurrent configurations of a
suite window; additivity counts the grains the group sum sent off the
window.  All but separation map periodic fields on ``suite_torus``, where
the map is exact up to FFT rounding; separation's window request, a
pair's difference, carries the measured aliasing term.  A check compares:

- harmonicity, equivariance, intertwining: the worst residual against the
  smallest error bound, passing when it is at most that bound;
- kernel, additivity: the worst ratio of residual to err, passing when it
  is at most 1;
- separation: the worst margin above the 1/4d - err floor, passing only
  when it is strictly above 0.

Every err is the one ``xi_apply_stack`` attached to the images compared.
A nan or inf residual, ratio or err fails its check.

Every suite takes ``(specs, window, rng, n)`` and draws from ``rng`` in a
fixed order; ``SUITES`` maps each name to its suite, to what n counts and
to the grid points it holds at once.  The suites draw all their
configurations first, in the order of drawing them one at a time, then
stabilize, burn and map them as stacks (``stabilize_stack``,
``group_add_stack``, ``xi_apply_stack``), which give the one-at-a-time
results bit for bit.  Separation draws one pair at a time, as its redraws
depend on the heights drawn.
"""

import math
from typing import NamedTuple

import numpy as np

from .harmonic import (XiSpec, equivariance_residuals, harmonicity_residual, kernel_witness, point_distance, point_sum,
                       poly_action, poly_label, separation_check, separation_difference, torus_distance, window_period,
                       xi_apply_stack)
from .laurent import LaurentPoly
from .sandpile import HeightConfig, group_add_stack, random_load, random_recurrent, stabilize_stack, with_outflow
from .window import BoxWindow


class Check(NamedTuple):
    """One verdict: ``passed`` compares ``measured`` with ``bound``."""

    name: str
    passed: bool
    measured: float
    bound: float
    detail: str


def _at_most(name, measured, bound, detail):
    """Passes when measured <= bound, both finite: a nan or inf certifies nothing."""
    return Check(name, math.isfinite(measured) and math.isfinite(bound) and measured <= bound, measured, bound, detail)


def _worst(values):
    """Largest value, nan if any value is nan (Python's max skips a nan that is not first)."""
    return float(np.max(list(values)))


def _ratio(residual, err):
    """residual / err, nan unless err is finite: an infinite budget certifies nothing."""
    return residual / err if math.isfinite(err) else math.nan


def suite_window(d, side):
    """The d-cube of the given side with its centre at the origin."""
    lo = tuple(-(side // 2) for _ in range(d))
    return BoxWindow.from_shape((side,) * d, lo=lo)


def suite_torus(window):
    """The window and its outflow shell, each odd side one longer: the periodic suites' even-sided torus."""
    grown = window.dilated(1)
    return BoxWindow(grown.lo, tuple(h + s % 2 for h, s in zip(grown.hi, grown.shape)))


def _recurrent(loads):
    """The stabilized loads, worked on as stacks: ``random_recurrent`` of each draw."""
    return [v for v, _ in stabilize_stack(loads)]


def _worst_per_spec(suite, specs, n, measure, detail):
    """One check per spec: the worst residual of ``measure(spec, part)`` against the smallest bound.

    Spec k's configurations are the slice ``part`` = [k n, (k + 1) n) of the
    suite's draws, the ones it drew when each spec drew its own.
    ``measure`` returns the residuals and, for each, the bound the err of
    its images gives it; a nan bound makes the smallest nan.  ``detail`` is
    formatted with the worst residual, the bound and n.
    """
    checks = []
    for k, spec in enumerate(specs):
        residuals, bounds = measure(spec, slice(k * n, (k + 1) * n))
        worst, bound = _worst(residuals), float(np.min(bounds))
        label = "%s[%s]" % (suite, poly_label(spec.g))
        checks.append(_at_most(label, worst, bound, detail % (worst, bound, n)))
    return checks


def harmonicity(specs, window, rng, n):
    """gamma x_n - sum of neighbours vanishes mod 1 within (4d + 1) err."""
    gamma, d = specs[0].gamma, specs[0].dim
    configs = _recurrent(random_load(window, gamma, rng) for _ in range(len(specs) * n))
    period = suite_torus(window).shape

    def measure(spec, part):
        images = xi_apply_stack(spec, configs[part], period=period)
        return [harmonicity_residual(x, gamma) for x in images], [(4 * d + 1) * x.err for x in images]

    detail = "max residual %.3e <= (4d+1) err %.3e over %d configs"
    return _worst_per_spec("harmonicity", specs, n, measure, detail)


def equivariance(specs, window, rng, n):
    """Mapping a shifted field equals shifting its image, within the two images' err.

    Each configuration is checked under one random shift in [-2, 2]^d,
    drawn right after the configuration, and under the unit shift along
    axis 0.
    """
    gamma, d = specs[0].gamma, specs[0].dim
    unit = (1,) + (0,) * (d - 1)
    loads, shifts = [], []
    for _ in range(len(specs) * n):
        loads.append(random_load(window, gamma, rng))
        shifts.append([tuple(int(x) for x in rng.integers(-2, 3, size=d)), unit])
    configs = _recurrent(loads)
    period = suite_torus(window).shape

    def measure(spec, part):
        pairs = [pair for row in equivariance_residuals(spec, configs[part], shifts[part], period) for pair in row]
        return [defect for defect, _ in pairs], [bound for _, bound in pairs]

    detail = "max shift defect %.3e <= 2 err %.3e over %d configs"
    return _worst_per_spec("equivariance", specs, n, measure, detail)


def intertwining(specs, window, rng, n):
    """xi_{g h} equals h acting on xi_g, for h = 1 + u1, within the combined err."""
    gamma, d = specs[0].gamma, specs[0].dim
    h = LaurentPoly.one(d) + LaurentPoly.variable(d, 0)
    gh_specs = {spec: XiSpec.build(spec.g * h, d, gamma) for spec in specs}
    configs = _recurrent(random_load(window, gamma, rng) for _ in range(len(specs) * n))
    period = suite_torus(window).shape

    def measure(spec, part):
        rhs = [poly_action(h, x) for x in xi_apply_stack(spec, configs[part], period=period)]
        lhs = xi_apply_stack(gh_specs[spec], configs[part], [r.window for r in rhs], period)
        residuals = [float(torus_distance(a.values - b.values).max()) for a, b in zip(lhs, rhs)]
        return residuals, [a.err + b.err for a, b in zip(lhs, rhs)]

    detail = "max defect %.3e <= combined err %.3e over %d configs"
    return _worst_per_spec("intertwining", specs, n, measure, detail)


def kernel(specs, window, rng=None, n=None):
    """The three kernel witnesses, periodic on the suite torus, map to 0 under every spec, within err.

    The witnesses are fixed fields, so ``rng`` and ``n`` are unused.
    """
    d = specs[0].dim
    h = LaurentPoly.one(d) + LaurentPoly.variable(d, 0) - LaurentPoly.variable(d, d - 1) ** 2
    checks = []
    for kind in ("constant", "f_multiple", "periodic_family"):
        _, images = kernel_witness(kind, specs, suite_torus(window), h)
        residuals = [float(torus_distance(x.values).max()) for x in images]
        worst = _worst(residuals)
        slack = float(np.min([x.err - r for x, r in zip(images, residuals)]))
        ratio = _worst(_ratio(r, x.err) for x, r in zip(images, residuals))
        detail = "max residual %.3e, min slack to err %.3e over %d maps" % (worst, slack, len(images))
        checks.append(_at_most("kernel[%s]" % kind, ratio, 1.0, detail))
    return checks


def _separation_pair(window, gamma, rng):
    """A recurrent config, a one-grain raise at a site below gamma - 1, and that site as the box Q."""
    while True:
        v = random_recurrent(window, gamma, rng)
        candidates = np.argwhere(v.heights <= gamma - 2)
        if len(candidates):
            idx = tuple(candidates[rng.integers(len(candidates))])
            bumped = v.heights.copy()
            bumped[idx] += 1
            return v, HeightConfig(window, gamma, bumped), BoxWindow(window.site_of(idx), window.site_of(idx))


def separation(specs, window, rng, n):
    """n pairs of recurrent configs one grain apart: some map separates each pair.

    A pair's hypotheses are checked once (``separation_difference``).  Its
    margin is the best, over the specs tried, of the gap of its difference
    image less the floor 1/4d - err (``separation_check``); the specs are
    tried in order until one clears both 0 and the raw floor 1/4d.
    The detail reports the largest err: the window request's measured
    aliasing term plus its rounding.
    """
    gamma, d = specs[0].gamma, specs[0].dim
    floor = 1.0 / (4 * d)
    margins, gaps, errs = [], [], []
    for _ in range(n):
        v, vp, q = _separation_pair(window, gamma, rng)
        difference = separation_difference(v, vp, q)
        best, best_gap = -math.inf, 0.0
        for spec in specs:
            gap, err = separation_check(spec, difference, window)
            errs.append(err)
            margin = gap - (floor - err)
            if not math.isfinite(margin):
                continue  # a non-finite gap or err separates nothing
            if margin > best:
                best, best_gap = margin, gap
            if margin > 0 and gap >= floor:
                break
        margins.append(best)
        gaps.append(best_gap)
    worst = min(margins)
    detail = "min margin over %d pairs: %.4f above the 1/4d - err floor (min raw gap %.4f, floor %.4f, " \
        "max err %.3e of the difference image, mostly measured aliasing)" % (n, worst, min(gaps), floor, _worst(errs))
    return [Check("separation", math.isfinite(worst) and worst > 0, worst, 0.0, detail)]


def additivity(specs, window, rng, n):
    """xi(v) + xi(v') = xi(v + v' stabilized, its outflow on the shell) on n random recurrent pairs.

    The rest of the load is L k for the odometer k, which every map sends
    to integers (``with_outflow``).  Compared on the radius-2 box at the
    origin, within the three images' err, all periodic on the suite torus.
    """
    gamma, d = specs[0].gamma, specs[0].dim
    out_window = BoxWindow.centered(d, 2)
    if window.intersection(out_window) != out_window:
        raise ValueError("suite window too small for the additivity output box")
    # each pair draws its two operands in turn
    operands = _recurrent(random_load(window, gamma, rng) for _ in range(2 * n))
    vs, vps = operands[0::2], operands[1::2]
    ws = [with_outflow(w, k) for w, k in group_add_stack(vs, vps)]
    period = suite_torus(window).shape
    ratios = []
    for spec in specs:
        images = xi_apply_stack(spec, vs + vps + ws, [out_window] * (3 * n), period)
        for xv, xvp, xw in zip(images[:n], images[n : 2 * n], images[2 * n :]):
            dist = point_distance(xw, point_sum(xv, xvp))
            ratios.append(_ratio(dist, xv.err + xvp.err + xw.err))
    worst = _worst(ratios)
    detail = "max image mismatch over %d pairs: %.3e of the combined err budget" % (n, worst)
    return [_at_most("additivity", worst, 1.0, detail)]


def _configs_held(specs, window, n):
    return len(specs) * n * window.size


# name -> (suite, what its n counts: "configs" or "pairs", None where unused, the grid points it holds at
# once given (specs, window, n): n draws per spec; the witnesses on the suite torus; the window request's
# torus; per pair two operands and their sum with its outflow shell)
SUITES = {
    "harmonicity": (harmonicity, "configs", _configs_held),
    "equivariance": (equivariance, "configs", _configs_held),
    "kernel": (kernel, None, lambda specs, window, n: suite_torus(window).size),
    "separation": (separation, "pairs", lambda specs, window, n: math.prod(window_period(window))),
    "additivity": (additivity, "pairs", lambda specs, window, n: n * (2 * window.size + window.dilated(1).size)),
    "intertwining": (intertwining, "configs", _configs_held),
}
