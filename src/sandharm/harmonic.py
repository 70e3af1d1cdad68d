"""Covering maps from sandpile configurations onto the harmonic model.

A multiplier g with summable kernel g* . w turns any bounded integer field
v into a torus-valued field

    x_n = sum_k v_{n-k} (g* . w)_k  (mod 1),

which satisfies the harmonicity relation gamma.x_n = sum of neighbours
(mod 1) up to certified error.  Everything here works on finite windows:
the kernel is truncated at a declared radius, the discarded mass is
bounded by measured shell sums with an extrapolated decay, and every
output carries the resulting error bound.  Comparisons always use the
torus metric min(|t - n| : n integer), never raw subtraction.

The truncation calculus follows one rule: a result's err is the sup of
the input field times (kernel tail + per-entry table error times kernel
size), propagated additively through any further linear step.  Thresholds
downstream are stated relative to err, never as bare constants.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import fft

from . import sandpile
from .green import decay_profile, multiplier_table, tail_beyond
from .laurent import LaurentPoly, divide_by, ideal_certificate, laplacian_poly, multiplier_sum, standard_polys
from .sandpile import HeightConfig
from .window import BoxWindow, laplacian

EXTENSIONS = ("zero", "constant", "periodic")

# margin for floating accumulation inside an FFT convolution, per unit of
# field sup times kernel l1 mass; generous next to a certified tail bound
_FFT_SLOP = 1e-12


def torus_distance(a, b=0.0):
    """Elementwise distance on the circle of circumference 1."""
    r = np.mod(np.asarray(a, dtype=float) - b, 1.0)
    return np.minimum(r, 1.0 - r)


def poly_label(g):
    """One-line tag for report keys: the exponent:coefficient list."""
    return "; ".join(
        "%s:%d" % (",".join(str(e) for e in exp), coeff) for exp, coeff in g.items()
    )


def _wrap_unit(values):
    vals = np.mod(np.asarray(values, dtype=float), 1.0)
    # mod can round up to exactly 1.0 for tiny negatives
    vals[vals >= 1.0] = 0.0
    return vals


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """Torus-valued field on a window with a uniform certified error.

    ``err`` bounds, per site, the torus distance between the stored value
    and the mathematical quantity the producing operation approximates.
    """

    window: BoxWindow
    values: np.ndarray
    err: float

    def __post_init__(self):
        vals = _wrap_unit(self.values)
        if vals.shape != self.window.shape:
            raise ValueError("values shape %r does not match window %r" % (vals.shape, self.window.shape))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "err", float(self.err))
        if self.err < 0:
            raise ValueError("negative error bound")

    @property
    def dim(self):
        return self.window.dim

    def restricted(self, window):
        if not self.window.contains_window(window):
            raise ValueError("restriction window not contained")
        sl = tuple(
            slice(lo - wlo, hi - wlo + 1)
            for lo, hi, wlo in zip(window.lo, window.hi, self.window.lo)
        )
        return TorusPoint(window, self.values[sl].copy(), self.err)

    def shifted(self, offset):
        """Relabel sites: the value at n moves to n + offset."""
        return TorusPoint(self.window.shifted(offset), self.values, self.err)

    def to_csv(self):
        lines = ["# torus point d=%d lo=%s hi=%s err=%r" % (
            self.dim,
            ",".join(str(x) for x in self.window.lo),
            ",".join(str(x) for x in self.window.hi),
            float(self.err),
        )]
        lines.append(",".join("n%d" % (i + 1) for i in range(self.dim)) + ",value,err")
        for site in self.window.sites():
            lines.append("%s,%r,%r" % (
                ",".join(str(x) for x in site),
                float(self.values[self.window.index_of(site)]),
                float(self.err),
            ))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        rows = {}
        err = 0.0
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("n1"):
                continue
            parts = line.split(",")
            site = tuple(int(x) for x in parts[:-2])
            rows[site] = float(parts[-2])
            err = max(err, float(parts[-1]))
        if not rows:
            raise ValueError("no data rows")
        sites = list(rows)
        d = len(sites[0])
        lo = tuple(min(s[i] for s in sites) for i in range(d))
        hi = tuple(max(s[i] for s in sites) for i in range(d))
        window = BoxWindow(lo, hi)
        if window.size != len(rows):
            raise ValueError("site set is not a full box")
        values = np.zeros(window.shape)
        for site, val in rows.items():
            values[window.index_of(site)] = val
        return cls(window, values, err)


def point_distance(x, y):
    """Max torus distance over the common window of two points."""
    common = x.window.intersection(y.window)
    if common is None:
        raise ValueError("windows do not overlap")
    a = x.restricted(common)
    b = y.restricted(common)
    return float(torus_distance(a.values, b.values).max())


def point_sum(x, y):
    """Pointwise torus sum on the common window; error bounds add."""
    common = x.window.intersection(y.window)
    if common is None:
        raise ValueError("windows do not overlap")
    a = x.restricted(common)
    b = y.restricted(common)
    return TorusPoint(common, _wrap_unit(a.values + b.values), a.err + b.err)


# -- the map specification ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class XiSpec:
    """Truncated kernel of one covering map, with its error budget.

    ``kernel`` holds (g* . w)_k for |k|_max <= trunc_radius.  ``tail_bound``
    is the discarded l1 mass per unit sup of the input field: measured
    shell sums beyond the truncation radius, extended past the table by a
    decay fit softened by 0.5.  ``entry_error`` bounds each kernel entry's
    inherited table error.
    """

    g: LaurentPoly
    table: object
    trunc_radius: int
    kernel: np.ndarray
    tail_bound: float
    entry_error: float

    @property
    def dim(self):
        return self.table.dim

    @property
    def gamma(self):
        return self.table.gamma

    @property
    def is_critical(self):
        return self.table.is_critical

    def field_err(self, sup):
        """Certified per-site error of the map on fields with |v| <= sup."""
        sup = float(sup)
        kernel_l1 = float(np.abs(self.kernel).sum())
        return sup * (self.tail_bound + self.kernel.size * self.entry_error + _FFT_SLOP * kernel_l1)

    @classmethod
    def build(cls, g, table, trunc_radius=None):
        """Assemble the kernel, tail bound and entry error for g over a table.

        Critical tables require g to carry an exact summability
        certificate; dissipative tables accept any polynomial (their
        fundamental solution is already absolutely summable) and default
        to g = 1 when None is passed.
        """
        if g is None:
            if table.is_critical:
                raise ValueError("a multiplier is required on critical tables")
            g = LaurentPoly.one(table.dim)
        if g.dim != table.dim:
            raise ValueError("dimension mismatch")
        if table.is_critical:
            cert = ideal_certificate(g)
            if not cert.member:
                raise ValueError(
                    "multiplier is not summable against the critical table; failing condition %r"
                    % (cert.failing,)
                )
        mult = multiplier_table(g, table)
        if trunc_radius is None:
            trunc_radius = mult.radius
        trunc_radius = int(trunc_radius)
        if not 0 <= trunc_radius <= mult.radius:
            raise ValueError("trunc_radius must lie in [0, %d]" % mult.radius)
        cut = mult.radius - trunc_radius
        if cut:
            sl = tuple(slice(cut, -cut) for _ in range(table.dim))
            kernel = mult.values[sl].copy()
        else:
            kernel = mult.values.copy()
        profile = decay_profile(mult.values)
        tail = float(tail_beyond(profile, trunc_radius + 1))
        return cls(g, table, trunc_radius, kernel, tail, float(mult.entry_error))


def standard_specs(table, trunc_radius=None):
    """One XiSpec per standard summable generator (critical tables), or
    the single fundamental-solution spec (dissipative tables)."""
    if table.is_critical:
        gens = standard_polys(table.dim).generators
        return [XiSpec.build(g, table, trunc_radius) for g in gens]
    return [XiSpec.build(None, table, trunc_radius)]


# -- applying the map ---------------------------------------------------------


def _extended_heights(v, slab_window, extension, constant):
    """Height data of v on a slab, filled by the declared extension rule."""
    if extension not in EXTENSIONS:
        raise ValueError("extension must be one of %r" % (EXTENSIONS,))
    if extension == "periodic":
        axes = [
            (np.arange(lo, hi + 1) - vlo) % span
            for lo, hi, vlo, span in zip(slab_window.lo, slab_window.hi, v.window.lo, v.window.shape)
        ]
        return v.heights[np.ix_(*axes)].astype(float)
    fill = 0.0 if extension == "zero" else float(constant)
    out = np.full(slab_window.shape, fill)
    common = slab_window.intersection(v.window)
    if common is not None:
        dst = tuple(
            slice(lo - slo, hi - slo + 1)
            for lo, hi, slo in zip(common.lo, common.hi, slab_window.lo)
        )
        src = tuple(
            slice(lo - vlo, hi - vlo + 1)
            for lo, hi, vlo in zip(common.lo, common.hi, v.window.lo)
        )
        out[dst] = v.heights[src]
    return out


def _convolve_valid(field, kernel):
    """Valid-mode linear convolution of two real float arrays by real FFTs.

    The arithmetic of ``scipy.signal.fftconvolve(field, kernel, "valid")``:
    transforms zero-padded to ``next_fast_len`` of the full length, product,
    inverse, then the valid part, which starts at kernel.shape - 1.
    """
    full = [a + b - 1 for a, b in zip(field.shape, kernel.shape)]
    fshape = [fft.next_fast_len(n, True) for n in full]
    conv = fft.irfftn(fft.rfftn(field, fshape) * fft.rfftn(kernel, fshape), fshape)
    return conv[tuple(slice(b - 1, a) for a, b in zip(field.shape, kernel.shape))]


def xi_apply(spec, v, extension="constant", constant=None, out_window=None):
    """Image of an integer field under the truncated covering map.

    The field is read from v inside its window and from the extension rule
    outside; ``constant`` defaults to gamma - 1, the all-max extension that
    keeps recurrent configurations recurrent.  The output window defaults
    to v's window.  Every site's value is

        x_n = sum_{|k| <= trunc_radius} v_{n-k} kernel_k  (mod 1)

    and err covers the kernel tail, the table error across all kernel
    entries, and FFT accumulation, all scaled by the sup of the extended
    field.
    """
    if spec.dim != v.dim:
        raise ValueError("dimension mismatch")
    if constant is None:
        constant = spec.gamma - 1
    if out_window is None:
        out_window = v.window
    T = spec.trunc_radius
    slab_window = out_window.dilated(T)
    slab = _extended_heights(v, slab_window, extension, constant)
    conv = _convolve_valid(slab, spec.kernel)
    if conv.shape != out_window.shape:
        raise AssertionError("convolution shape %r != window %r" % (conv.shape, out_window.shape))
    sup = float(np.abs(slab).max()) if slab.size else 0.0
    return TorusPoint(out_window, _wrap_unit(conv), spec.field_err(sup))


def xi_tuple(v, specs, extension="constant", constant=None, out_window=None):
    """Component-wise application of several covering maps to one field."""
    specs = list(specs)
    if not specs:
        raise ValueError("no specs given")
    if len({s.dim for s in specs}) != 1:
        raise ValueError("specs mix dimensions")
    return [xi_apply(s, v, extension=extension, constant=constant, out_window=out_window) for s in specs]


# -- residuals ----------------------------------------------------------------


def harmonicity_residual(x, gamma):
    """Max torus distance of gamma.x_n - sum of neighbours from 0, interior only."""
    if any(s < 3 for s in x.window.shape):
        raise ValueError("window has empty interior")
    acc = laplacian(x.values, gamma)[(slice(1, -1),) * x.dim]
    return float(np.abs(acc - np.round(acc)).max()) if acc.size else 0.0


def shifted_config(v, m):
    """The field n -> v_{n+m}: same heights, window moved by -m."""
    off = tuple(-int(x) for x in m)
    return HeightConfig(v.window.shifted(off), v.gamma, v.heights.copy())


def equivariance_residual(spec, v, m):
    """Shift-commutation defect: map the shifted field vs shift the mapped field.

    Both routes approximate the same torus field, each within the spec's
    err, so the result is at most 2 err; with the window carried along by
    the shift the two computations see identical data and the residual
    reduces to floating-point variation between FFT sizes.
    """
    shifted = shifted_config(v, m)
    common = v.window.intersection(shifted.window)
    if common is None:
        raise ValueError("shift leaves no overlap")
    a = xi_apply(spec, shifted, out_window=common)
    b = xi_apply(spec, v)
    b_shifted = b.shifted(tuple(-int(x) for x in m))
    return point_distance(a, b_shifted)


def poly_action(h, x):
    """Field (h(alpha) x)_n = sum_i h_i x_{n+i} mod 1, on the eroded window.

    The error bound scales by the l1 mass of h, since each site combines
    that much of the input.
    """
    if h.dim != x.dim:
        raise ValueError("dimension mismatch")
    if not h:
        return TorusPoint(x.window, np.zeros(x.window.shape), 0.0)
    blo, bhi = h.bounding_box()
    lo = tuple(wl - bl for wl, bl in zip(x.window.lo, blo))
    hi = tuple(wh - bh for wh, bh in zip(x.window.hi, bhi))
    if any(l > h_ for l, h_ in zip(lo, hi)):
        raise ValueError("window too small for the polynomial action")
    out = BoxWindow(lo, hi)
    acc = np.zeros(out.shape)
    for expo, coeff in h.terms.items():
        off = tuple(o + e - wl for o, e, wl in zip(out.lo, expo, x.window.lo))
        sl = tuple(slice(o, o + s) for o, s in zip(off, out.shape))
        acc += coeff * x.values[sl]
    l1 = h.l1_norm()
    return TorusPoint(out, _wrap_unit(acc), x.err * l1 + 1e-15 * l1)


# -- kernel witnesses ---------------------------------------------------------


@dataclass
class KernelWitnessReport:
    """Exact and numerical evidence that a field maps to zero everywhere."""

    kind: str
    integer_valued: bool
    residuals: dict
    err_bounds: dict
    multiplier_sums: dict
    correction: Fraction = None

    @property
    def passed(self):
        return self.integer_valued and all(
            self.residuals[k] <= self.err_bounds[k] for k in self.residuals
        )


def _check_third_differences(profiles):
    for ax, prof in enumerate(profiles):
        L = len(prof)
        for t in range(L):
            diff = prof[t % L] - 3 * prof[(t - 1) % L] + 3 * prof[(t - 2) % L] - prof[(t - 3) % L]
            if diff.denominator != 1:
                raise ValueError(
                    "axis %d profile has non-integer third difference %s" % (ax, diff)
                )


def kernel_witness(kind, specs, window, m=3, h=None, beta=None):
    """Construct a field annihilated by every given map, with its report.

    Three families are supported:

    - ``constant``: the constant field m; the kernel's coefficient sum is
      an exact integer, so m times it vanishes mod 1.
    - ``f_multiple``: the Laplacian stencil convolved with a finite h; the
      kernel inverts the stencil, leaving the integer field (g* . h).
    - ``periodic_family``: f.y + c for the rational field y that repeats
      (0, beta) along axis 0 (beta defaults to 1/4) and is constant along
      the others; its cyclic third differences must be integers, and c in
      [0,1) is the unique constant making the sum integer.

    The report records exact integrality and the measured residual of
    every map next to its error bound.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("no specs given")
    d = specs[0].dim
    gamma = specs[0].gamma
    if window.dim != d:
        raise ValueError("window dimension mismatch")

    correction = None
    if kind == "constant":
        v = HeightConfig.constant(window, gamma, int(m))
        extension, const = "constant", int(m)
    elif kind == "f_multiple":
        if h is None:
            raise ValueError("f_multiple needs the finite factor h")
        f = laplacian_poly(d)
        v = HeightConfig(window, gamma, sandpile.poly_heights(window, f * h))
        extension, const = "zero", None
    elif kind == "periodic_family":
        beta = Fraction(1, 4) if beta is None else Fraction(beta)
        profiles = [[Fraction(0), beta]] + [[Fraction(0)]] * (d - 1)
        _check_third_differences(profiles)
        for ax, prof in enumerate(profiles):
            if window.shape[ax] % len(prof) != 0:
                raise ValueError(
                    "window side %d is not a multiple of the axis-%d period %d"
                    % (window.shape[ax], ax, len(prof))
                )
        # the Laplacian of a separable periodic field splits into per-axis
        # second differences
        second = [
            [2 * prof[t] - prof[(t - 1) % len(prof)] - prof[(t + 1) % len(prof)] for t in range(len(prof))]
            for prof in profiles
        ]
        fracs = {
            Fraction(sum(second[ax][t % len(second[ax])] for ax, t in enumerate(combo)) % 1)
            for combo in itertools.product(*[range(len(s)) for s in second])
        }
        if len(fracs) != 1:
            raise ValueError("profiles do not admit a single integral correction")
        frac_part = fracs.pop()
        correction = (-frac_part) % 1
        heights = np.zeros(window.shape, dtype=np.int64)
        for idx_combo, site in zip(np.ndindex(*window.shape), window.sites()):
            total = sum(
                second[ax][site[ax] % len(second[ax])] for ax in range(d)
            ) + correction
            if total.denominator != 1:
                raise AssertionError("correction failed to clear denominators")
            heights[idx_combo] = int(total)
        v = HeightConfig(window, gamma, heights)
        extension, const = "periodic", None
    else:
        raise ValueError("kind must be constant, f_multiple or periodic_family")

    residuals = {}
    errs = {}
    sums = {}
    for spec in specs:
        x = xi_apply(spec, v, extension=extension, constant=const)
        label = poly_label(spec.g)
        residuals[label] = float(torus_distance(x.values).max())
        errs[label] = x.err
        if spec.is_critical:
            sums[label] = multiplier_sum(spec.g)
    report = KernelWitnessReport(
        kind=kind,
        integer_valued=True,
        residuals=residuals,
        err_bounds=errs,
        multiplier_sums=sums,
        correction=correction,
    )
    return v, report


# -- separation ---------------------------------------------------------------


def separation_check(spec, v, vp, Q):
    """Largest torus gap between the images of two configurations.

    The inputs must be recurrent, agree outside Q, and differ by something
    the Laplacian stencil does not divide; under those hypotheses the
    images differ by at least 1/4d somewhere within the truncation reach
    of Q, so values clearing 1/4d - 2 err certify genuine separation.
    """
    if v.window != vp.window or v.gamma != vp.gamma:
        raise ValueError("inputs must share window and gamma")
    diff = vp.heights.astype(np.int64) - v.heights.astype(np.int64)
    if not diff.any():
        raise ValueError("inputs are equal")
    outside = np.ones(v.window.shape, dtype=bool)
    common = v.window.intersection(Q)
    if common is not None:
        sl = tuple(
            slice(lo - wlo, hi - wlo + 1)
            for lo, hi, wlo in zip(common.lo, common.hi, v.window.lo)
        )
        outside[sl] = False
    if diff[outside].any():
        raise ValueError("inputs differ outside Q")
    terms = {}
    for idx in np.argwhere(diff != 0):
        terms[v.window.site_of(tuple(idx))] = int(diff[tuple(idx)])
    diff_poly = LaurentPoly(v.dim, terms)
    f = laplacian_poly(v.dim, spec.gamma)
    if divide_by(diff_poly, f) is not None:
        raise ValueError("difference is a stencil multiple; the images coincide")
    if not sandpile.is_recurrent(v) or not sandpile.is_recurrent(vp):
        raise ValueError("both inputs must be recurrent")
    out_window = Q.dilated(spec.trunc_radius)
    x = xi_apply(spec, v, out_window=out_window)
    xp = xi_apply(spec, vp, out_window=out_window)
    return float(torus_distance(x.values - xp.values).max())


# -- grain addition -----------------------------------------------------------


def addition_operator_demo(spec, site, out_window, rng=None):
    """Image increment caused by dropping one grain at a site.

    Returns the kernel translated to the site (as a torus point on
    ``out_window``) together with the measured mismatch against a direct
    before/after evaluation on a random recurrent configuration on
    ``out_window`` dilated by 2; linearity makes the mismatch at most 2 err.
    """
    site = tuple(int(x) for x in site)
    d = spec.dim
    if len(site) != d:
        raise ValueError("site dimension mismatch")
    delta_window = BoxWindow(site, site)
    delta_cfg = HeightConfig.delta(delta_window, spec.gamma, site, amount=1)
    delta = xi_apply(spec, delta_cfg, extension="zero", out_window=out_window)
    rng = rng if rng is not None else np.random.default_rng(0)
    v = sandpile.random_recurrent(out_window.dilated(2), spec.gamma, rng)
    if site not in v.window:
        raise ValueError("site must lie in the configuration's window")
    before = xi_apply(spec, v, out_window=out_window)
    bumped = HeightConfig(v.window, v.gamma, v.heights + sandpile.poly_heights(
        v.window, LaurentPoly(d, {site: 1})))
    after = xi_apply(spec, bumped, out_window=out_window)
    predicted = point_sum(before, delta)
    mismatch = point_distance(after, predicted)
    return delta, mismatch
