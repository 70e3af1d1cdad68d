"""Invariant suites for the covering maps xi_g, each returning a list of ``Check``.

The covering map is harmonic mod 1, shift-equivariant, annihilates the
stencil multiples, separates recurrent configurations, is additive on the
sandpile group, and intertwines multiplication by h with the action of h.
Each suite tests one property on random recurrent configurations of a
suite window.  A check compares two numbers:

- harmonicity, equivariance, intertwining: the worst residual against its
  error bound, passing when it is at most the bound;
- kernel, additivity: the worst ratio of residual to err, passing when it
  is at most 1;
- separation: the worst margin above the 1/4d - 2 err floor, passing only
  when it is strictly above 0.

Every suite takes ``(specs, window, rng, n)`` and draws from ``rng`` in a
fixed order; ``SUITES`` maps each name to its suite and to what n counts.
"""

import math
from typing import NamedTuple

import numpy as np

from .harmonic import (XiSpec, equivariance_residual, harmonicity_residual, kernel_witness, point_distance,
                       point_sum, poly_action, poly_label, separation_check, torus_distance, xi_apply)
from .laurent import LaurentPoly
from .sandpile import HeightConfig, group_add, random_recurrent
from .window import BoxWindow


class Check(NamedTuple):
    """One verdict: ``passed`` compares ``measured`` with ``bound``."""

    name: str
    passed: bool
    measured: float
    bound: float
    detail: str


def _at_most(name, measured, bound, detail):
    return Check(name, measured <= bound, measured, bound, detail)


def suite_window(d, side):
    """The d-cube of the given side with its centre at the origin."""
    lo = tuple(-(side // 2) for _ in range(d))
    return BoxWindow.from_shape((side,) * d, lo=lo)


def _worst_per_spec(suite, specs, window, rng, n, measure, detail):
    """One check per spec: the worst ``measure(spec, v)`` over n random recurrent v.

    ``measure`` returns a residual and its bound; the bound is the same for
    every v, whose extended field always has sup gamma - 1.  ``detail`` is
    formatted with the worst residual, the bound and n.
    """
    gamma = specs[0].gamma
    checks = []
    for spec in specs:
        worst, bound = 0.0, None
        for _ in range(n):
            residual, bound = measure(spec, random_recurrent(window, gamma, rng))
            worst = max(worst, residual)
        label = "%s[%s]" % (suite, poly_label(spec.g))
        checks.append(_at_most(label, worst, bound, detail % (worst, bound, n)))
    return checks


def harmonicity(specs, window, rng, n):
    """gamma x_n - sum of neighbours vanishes mod 1 within (4d + 1) err."""
    gamma, d = specs[0].gamma, specs[0].dim

    def measure(spec, v):
        x = xi_apply(spec, v)
        return harmonicity_residual(x, gamma), (4 * d + 1) * x.err

    detail = "max residual %.3e <= (4d+1) err %.3e over %d configs"
    return _worst_per_spec("harmonicity", specs, window, rng, n, measure, detail)


def equivariance(specs, window, rng, n):
    """Mapping a shifted field equals shifting its image, within 2 err.

    Each configuration is checked under one random shift in [-2, 2]^d and
    under the unit shift along axis 0.
    """
    gamma, d = specs[0].gamma, specs[0].dim
    unit = (1,) + (0,) * (d - 1)

    def measure(spec, v):
        shift = tuple(int(x) for x in rng.integers(-2, 3, size=d))
        residual = max(equivariance_residual(spec, v, m) for m in (shift, unit))
        return residual, 2.0 * spec.field_err(gamma - 1)

    detail = "max shift defect %.3e <= 2 err %.3e over %d configs"
    return _worst_per_spec("equivariance", specs, window, rng, n, measure, detail)


def intertwining(specs, window, rng, n):
    """xi_{g h} equals h acting on xi_g, for h = 1 + u1, within the combined err."""
    d = specs[0].dim
    h = LaurentPoly.one(d) + LaurentPoly.variable(d, 0)
    gh_specs = {spec: XiSpec.build(spec.g * h, spec.table) for spec in specs}

    def measure(spec, v):
        rhs = poly_action(h, xi_apply(spec, v))
        lhs = xi_apply(gh_specs[spec], v, out_window=rhs.window)
        return float(torus_distance(lhs.values - rhs.values).max()), lhs.err + rhs.err

    detail = "max defect %.3e <= combined err %.3e over %d configs"
    return _worst_per_spec("intertwining", specs, window, rng, n, measure, detail)


def kernel(specs, window, rng=None, n=None):
    """The three kernel witnesses map to 0 under every spec, within err.

    The witnesses are fixed fields, so ``rng`` and ``n`` are unused.
    """
    d = specs[0].dim
    h = LaurentPoly.one(d) + LaurentPoly.variable(d, 0) - LaurentPoly.variable(d, d - 1) ** 2
    checks = []
    for kind in ("constant", "f_multiple", "periodic_family"):
        _, report = kernel_witness(kind, specs, window, h)
        residuals, errs = report.residuals, report.err_bounds
        worst = max(residuals.values())
        slack = min(errs[k] - residuals[k] for k in residuals)
        ratio = max(residuals[k] / errs[k] for k in residuals)
        detail = "max residual %.3e, min slack to err %.3e over %d maps" % (worst, slack, len(residuals))
        checks.append(_at_most("kernel[%s]" % kind, ratio, 1.0, detail))
    return checks


def _separation_pair(window, gamma, rng):
    """A recurrent config and a one-grain raise at a site below gamma - 1."""
    while True:
        v = random_recurrent(window, gamma, rng)
        candidates = np.argwhere(v.heights <= gamma - 2)
        if len(candidates):
            idx = tuple(candidates[rng.integers(len(candidates))])
            site = window.site_of(idx)
            bumped = v.heights.copy()
            bumped[idx] += 1
            return v, HeightConfig(window, gamma, bumped), site


def separation(specs, window, rng, n):
    """n pairs of recurrent configs one grain apart: some map separates each pair.

    A pair's margin is the best, over the specs tried, of its image gap
    less the floor 1/4d - 2 err; the specs are tried in order until one
    clears both 0 and the raw floor 1/4d.
    """
    gamma, d = specs[0].gamma, specs[0].dim
    floor = 1.0 / (4 * d)
    margins, gaps = [], []
    for _ in range(n):
        v, vp, site = _separation_pair(window, gamma, rng)
        q = BoxWindow(site, site)
        best, best_gap = -math.inf, 0.0
        for spec in specs:
            gap = separation_check(spec, v, vp, q)
            margin = gap - (floor - 2.0 * spec.field_err(gamma - 1))
            if margin > best:
                best, best_gap = margin, gap
            if margin > 0 and gap >= floor:
                break
        margins.append(best)
        gaps.append(best_gap)
    worst = min(margins)
    detail = "min margin over %d pairs: %.4f above the 1/4d - 2 err floor (min raw gap %.4f, floor %.4f)" % (
        n, worst, min(gaps), floor
    )
    return [Check("separation", worst > 0, worst, 0.0, detail)]


def additivity(specs, window, rng, n):
    """xi(v + v') = xi(v) + xi(v') on the group sum of n random recurrent pairs.

    Compared on the radius-2 box at the origin, within the three images' err.
    """
    gamma, d = specs[0].gamma, specs[0].dim
    out_window = BoxWindow.centered(d, 2)
    if window.intersection(out_window) != out_window:
        raise ValueError("suite window too small for the additivity output box")
    worst = 0.0
    for _ in range(n):
        v = random_recurrent(window, gamma, rng)
        vp = random_recurrent(window, gamma, rng)
        w = group_add(v, vp)
        for spec in specs:
            xv, xvp, xw = (xi_apply(spec, u, out_window=out_window) for u in (v, vp, w))
            dist = point_distance(xw, point_sum(xv, xvp))
            worst = max(worst, dist / (xv.err + xvp.err + xw.err))
    detail = "max image mismatch over %d pairs: %.3f of the combined err budget" % (n, worst)
    return [_at_most("additivity", worst, 1.0, detail)]


# name -> (suite, what its n counts: "configs" or "pairs"; None where unused)
SUITES = {
    "harmonicity": (harmonicity, "configs"),
    "equivariance": (equivariance, "configs"),
    "kernel": (kernel, None),
    "separation": (separation, "pairs"),
    "additivity": (additivity, "pairs"),
    "intertwining": (intertwining, "configs"),
}
