"""Covering maps from sandpile configurations onto the harmonic model.

A multiplier g with summable kernel g* . w turns any bounded integer field
v into a torus-valued field

    x_n = sum_k v_{n-k} (g* . w)_k  (mod 1),

which satisfies the harmonicity relation gamma.x_n = sum of neighbours
(mod 1) up to certified error.  Everything here works on finite windows:
a field is zero outside its window, the kernel is the whole multiplier
table, the mass beyond its reach is bounded by an extrapolated shell-sum
decay, and every output carries the resulting error bound.  Comparisons
always use the torus metric min(|t - n| : n integer), never raw
subtraction.  Those that stabilize map the grains that left the window
too, laid on its shell by ``sandpile.with_outflow``.

The truncation calculus follows one rule, ``XiSpec.field_err``, which
only ``xi_apply_stack`` applies: an image's err is the sup of its slab
field times (kernel tail + per-entry table error times kernel size + FFT
rounding), propagated additively through any further linear step.  Every
comparison reads the err of the images it compares, never a budget
worked out again from an assumed sup.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import sandpile
from .green import decay_profile, multiplier_table, tail_beyond
from .laurent import LaurentPoly, divide_by, ideal_certificate, laplacian_poly, standard_polys
from .sandpile import HeightConfig
from .window import BoxWindow, laplacian, site_rows

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
        return TorusPoint(window, self.values[self.window.slices(window)], self.err)

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
        err = repr(float(self.err))
        lines += [row + "," + err for row in site_rows(self.window, self.values)]
        return "\n".join(lines) + "\n"


def _on_common_window(x, y):
    """Both points restricted to the common window of the two."""
    common = x.window.intersection(y.window)
    if common is None:
        raise ValueError("windows do not overlap")
    return x.restricted(common), y.restricted(common)


def point_distance(x, y):
    """Max torus distance over the common window of two points."""
    a, b = _on_common_window(x, y)
    return float(torus_distance(a.values, b.values).max())


def point_sum(x, y):
    """Pointwise torus sum on the common window; error bounds add."""
    a, b = _on_common_window(x, y)
    return TorusPoint(a.window, a.values + b.values, a.err + b.err)


# -- the map specification ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class XiSpec:
    """Kernel of one covering map, with its error budget.

    ``kernel`` holds (g* . w)_k for |k|_max <= trunc_radius, the radius of
    the multiplier table, as far as the Green's table supports it.
    ``tail_bound`` is the l1 mass beyond that radius per unit sup of the
    input field, extrapolated by a shell-sum decay fit softened by 0.5.
    ``entry_error`` bounds each kernel entry's inherited table error.
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

    def field_err(self, sup):
        """Certified per-site error of the map on fields with |v| <= sup."""
        sup = float(sup)
        kernel_l1 = float(np.abs(self.kernel).sum())
        return sup * (self.tail_bound + self.kernel.size * self.entry_error + _FFT_SLOP * kernel_l1)

    @classmethod
    def build(cls, g, table):
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
        tail = float(tail_beyond(decay_profile(mult.values)))
        return cls(g, table, mult.radius, mult.values, tail, float(mult.entry_error))


def standard_specs(table):
    """One XiSpec per standard summable generator (critical tables), or
    the single fundamental-solution spec (dissipative tables)."""
    if table.is_critical:
        return [XiSpec.build(g, table) for g in standard_polys(table.dim)]
    return [XiSpec.build(None, table)]


# -- applying the map ---------------------------------------------------------


def _next_fast_len(n):
    """Smallest 5-smooth size 2^a 3^b 5^c >= n, the padded length of a real FFT."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _spectrum(a, fshape):
    """Real FFT of ``a`` zero-padded to fshape: rfft on the last axis, then fft on the others in increasing order."""
    spec = np.zeros(fshape[:-1] + [fshape[-1] // 2 + 1], dtype=complex)
    np.fft.rfft(a, fshape[-1], axis=-1, out=spec[tuple(slice(0, s) for s in a.shape[:-1])])
    for ax in range(a.ndim - 1):
        np.fft.fft(spec, axis=ax, out=spec)
    return spec


def _convolve_valid(fields, kernel):
    """Valid-mode linear convolutions of real float arrays of one shape with one kernel, by real FFTs.

    Bit for bit pocketfft's n-dimensional real transform pair, the route
    images were computed by before numpy became the only dependency, so no
    image changed with it.  The arrays are zero-padded to
    ``_next_fast_len`` of the full length; rfft runs on the last axis, then
    fft on the others in increasing order (``numpy.fft.rfftn`` goes in
    reverse order, which moves the last bits).  The product is inverted
    unscaled, ifft on the leading axes then irfft, and scaled once by
    1/prod(fshape) formed in long double, as pocketfft does (a per-axis
    scaling also moves the last bits).  The valid part starts at
    kernel.shape - 1.

    The kernel is transformed once for all the fields, which are
    transformed one at a time; every product is the one a single field
    would get, so sharing the spectrum changes no bit.
    """
    full = [a + b - 1 for a, b in zip(fields[0].shape, kernel.shape)]
    fshape = [_next_fast_len(n) for n in full]
    valid = tuple(slice(b - 1, a) for a, b in zip(fields[0].shape, kernel.shape))
    scale = float(1 / np.longdouble(math.prod(fshape)))
    kernel_spec = _spectrum(kernel, fshape)
    out = []
    for i, field in enumerate(fields):
        # in place throughout, and the kernel's spectrum freed before the last
        # inverse allocates: fewer live grids, fewer fresh pages per call
        spec = _spectrum(field, fshape)
        spec *= kernel_spec
        if i == len(fields) - 1:
            del kernel_spec
        for ax in range(field.ndim - 1):
            np.fft.ifft(spec, axis=ax, norm="forward", out=spec)
        conv = np.fft.irfft(spec, fshape[-1], axis=-1, norm="forward")
        conv *= scale
        out.append(conv[valid].copy())  # the full grid is freed now, not when the last field is done
    return out


def xi_apply(spec, v, out_window=None):
    """Image of an integer field under the covering map.

    The field is v's heights inside its window and zero outside it; the
    output window defaults to v's window.  Every site's value is

        x_n = sum_{|k| <= trunc_radius} v_{n-k} kernel_k  (mod 1)

    and err covers the kernel tail, the table error across all kernel
    entries, and FFT accumulation, all scaled by the sup of the field on
    the slab the output window reads.  This is ``xi_apply_stack`` on a
    stack of one.
    """
    return xi_apply_stack(spec, [v], None if out_window is None else [out_window])[0]


def xi_apply_stack(spec, configs, out_windows=None):
    """``xi_apply`` of each configuration, each on its own output window (default its own window).

    The slabs (output window dilated by the kernel radius) are grouped by
    shape, and each group is convolved with one kernel spectrum, freed
    before the next group's is formed; the images are the ones
    ``xi_apply`` gives one at a time, bit for bit.
    """
    configs = list(configs)
    if any(spec.dim != v.dim for v in configs):
        raise ValueError("dimension mismatch")
    if out_windows is None:
        out_windows = [v.window for v in configs]
    if len(out_windows) != len(configs):
        raise ValueError("%d output windows for %d configurations" % (len(out_windows), len(configs)))
    slabs, by_shape = [], {}
    for i, (v, w) in enumerate(zip(configs, out_windows)):
        slab_window = w.dilated(spec.trunc_radius)
        slabs.append(np.zeros(slab_window.shape))
        common = slab_window.intersection(v.window)
        if common is not None:
            slabs[i][slab_window.slices(common)] = v.heights[v.window.slices(common)]
        by_shape.setdefault(slabs[i].shape, []).append(i)
    images = [None] * len(slabs)
    for group in by_shape.values():
        for i, conv in zip(group, _convolve_valid([slabs[i] for i in group], spec.kernel)):
            if conv.shape != out_windows[i].shape:
                raise AssertionError("convolution shape %r != window %r" % (conv.shape, out_windows[i].shape))
            images[i] = TorusPoint(out_windows[i], conv, spec.field_err(np.abs(slabs[i]).max()))
    return images


# -- residuals ----------------------------------------------------------------


def harmonicity_residual(x, gamma):
    """Max torus distance of gamma.x_n - sum of neighbours from 0, interior only."""
    if any(s < 3 for s in x.window.shape):
        raise ValueError("window has empty interior")
    return float(torus_distance(laplacian(x.values, gamma)[(slice(1, -1),) * x.dim]).max())


def shifted_config(v, m):
    """The field n -> v_{n+m}: same heights, window moved by -m."""
    off = tuple(-int(x) for x in m)
    return HeightConfig(v.window.shifted(off), v.gamma, v.heights.copy())


def equivariance_residual(spec, v, m):
    """Shift-commutation defect: map the shifted field vs shift the mapped field.

    Both routes approximate the same torus field, each within its image's
    err, so the result is at most the two images' err; with the window
    carried along by the shift the two computations see identical data and
    the residual reduces to floating-point variation between FFT sizes.
    """
    return equivariance_residuals(spec, [v], [[m]])[0][0][0]


def equivariance_residuals(spec, configs, shifts):
    """``equivariance_residual`` of each configuration under each of its shifts, with its bound.

    ``shifts[i]`` lists the shifts of ``configs[i]``, and the result nests
    the same way, each entry a pair (defect, the two images' err summed).
    Each configuration is mapped once whatever its number of shifts, and
    all the images come from one ``xi_apply_stack`` call.
    """
    fields, windows = list(configs), [v.window for v in configs]
    for v, ms in zip(configs, shifts):
        for m in ms:
            shifted = shifted_config(v, m)
            common = v.window.intersection(shifted.window)
            if common is None:
                raise ValueError("shift leaves no overlap")
            fields.append(shifted)
            windows.append(common)
    images = xi_apply_stack(spec, fields, out_windows=windows)
    moved = iter(images[len(configs) :])
    pairs = [[(next(moved), b.shifted(tuple(-int(x) for x in m))) for m in ms] for b, ms in zip(images, shifts)]
    return [[(point_distance(a, b), a.err + b.err) for a, b in row] for row in pairs]


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
        acc += coeff * x.values[x.window.slices(out.shifted(expo))]
    l1 = h.l1_norm()
    return TorusPoint(out, acc, x.err * l1 + 1e-15 * l1)


# -- kernel witnesses ---------------------------------------------------------


def kernel_witness(kind, specs, window, h=None):
    """Construct a field annihilated by every given map, with its image under each.

    With S the kernel's sum, the three families are:

    - ``constant``: the constant field c.  On critical tables S is the
      integer mass(g) = ``multiplier_sum(g)`` and c = 3; on dissipative
      ones S = g(1)/(gamma - 2d), so c = 3(gamma - 2d) maps to 3 g(1).
    - ``f_multiple``: the stencil f_gamma convolved with a finite h; the
      kernel inverts f_gamma, leaving the integer field (g* . h).
    - ``periodic_family``: A times the parity field n_0 mod 2 of the
      absolute first coordinate.  As n_0 mod 2 = (1 - (-1)^{n_0})/2, and
      the kernel sums against (-1)^{k_0} to
      g(-1,1,...,1)/f_gamma(-1,1,...,1) = g(-1,1,...,1)/(gamma - 2d + 4),
      the parity field maps to
      S/2 - (-1)^{n_0} g(-1,1,...,1)/(2(gamma - 2d + 4)).  On critical
      tables A = 1 and the image mass(g)/2 - (-1)^{n_0} g(-1,1,...,1)/8
      is an integer for every standard generator.  On dissipative ones
      A = 2(gamma - 2d)(gamma - 2d + 4) gives the integer
      (gamma - 2d + 4) g(1) - (-1)^{n_0} (gamma - 2d) g(-1,1,...,1).

    Each field is laid out on ``window`` dilated by the largest kernel
    radius, which holds every site any image on ``window`` reads, and is
    mapped onto ``window``.  The field's heights are exact integers by
    construction.  Returns the field and its images, one per spec in order,
    each with its err.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("no specs given")
    d = specs[0].dim
    gamma = specs[0].gamma
    if window.dim != d:
        raise ValueError("window dimension mismatch")
    excess = gamma - 2 * d
    reach = window.dilated(max(spec.trunc_radius for spec in specs))

    if kind == "constant":
        v = HeightConfig.constant(reach, gamma, 3 * excess if excess else 3)
    elif kind == "f_multiple":
        if h is None:
            raise ValueError("f_multiple needs the finite factor h")
        v = HeightConfig(reach, gamma, sandpile.poly_heights(reach, laplacian_poly(d, gamma) * h))
    elif kind == "periodic_family":
        scale = 2 * excess * (excess + 4) if excess else 1
        parity = scale * (np.arange(reach.lo[0], reach.hi[0] + 1) % 2)
        v = HeightConfig(reach, gamma, np.broadcast_to(parity.reshape((-1,) + (1,) * (d - 1)), reach.shape))
    else:
        raise ValueError("kind must be constant, f_multiple or periodic_family")

    return v, [xi_apply(spec, v, out_window=window) for spec in specs]


# -- separation ---------------------------------------------------------------


def separation_check(spec, v, vp, Q):
    """Largest torus gap between the images of two configurations, and the two images' err summed.

    The inputs must be recurrent, agree outside Q, and differ by something
    the Laplacian stencil does not divide; under those hypotheses the
    images differ by at least 1/4d somewhere within the truncation reach
    of Q, so gaps clearing 1/4d less that err certify genuine separation.
    """
    if v.window != vp.window or v.gamma != vp.gamma:
        raise ValueError("inputs must share window and gamma")
    diff = vp.heights.astype(np.int64) - v.heights.astype(np.int64)
    if not diff.any():
        raise ValueError("inputs are equal")
    outside = np.ones(v.window.shape, dtype=bool)
    common = v.window.intersection(Q)
    if common is not None:
        outside[v.window.slices(common)] = False
    if diff[outside].any():
        raise ValueError("inputs differ outside Q")
    f = laplacian_poly(v.dim, spec.gamma)
    if divide_by(sandpile.window_poly(v.window, diff), f) is not None:
        raise ValueError("difference is a stencil multiple; the images coincide")
    if not sandpile.is_recurrent(v) or not sandpile.is_recurrent(vp):
        raise ValueError("both inputs must be recurrent")
    out_window = Q.dilated(spec.trunc_radius)
    x, xp = xi_apply_stack(spec, [v, vp], out_windows=[out_window] * 2)
    return float(torus_distance(x.values - xp.values).max()), x.err + xp.err


# -- grain addition -----------------------------------------------------------


def addition_operator_demo(spec, site, out_window, rng):
    """The addition operator a_n: one grain dropped at a site, then stabilized.

    Returns the kernel translated to the site (as a torus point on
    ``out_window``), the measured mismatch of the ledger
    xi(v) + K_{.-n} = xi(a_n v + e) (mod 1) on a random recurrent
    configuration v on ``out_window`` dilated by 2, with e the grains the
    stabilization sent across the border (``sandpile.with_outflow``), and
    its bound, the three images' err summed.
    """
    site = tuple(int(x) for x in site)
    d = spec.dim
    if len(site) != d:
        raise ValueError("site dimension mismatch")
    delta = xi_apply(spec, HeightConfig.delta(BoxWindow(site, site), spec.gamma, site, amount=1), out_window=out_window)
    v = sandpile.random_recurrent(out_window.dilated(2), spec.gamma, rng)
    if site not in v.window:
        raise ValueError("site must lie in the configuration's window")
    added = sandpile.with_outflow(*sandpile.stabilize(sandpile.add_poly(v, LaurentPoly(d, {site: 1}))))
    before, after = xi_apply_stack(spec, [v, added], out_windows=[out_window] * 2)
    mismatch = point_distance(after, point_sum(before, delta))
    return delta, mismatch, after.err + before.err + delta.err
