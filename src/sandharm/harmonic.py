"""Covering maps from sandpile configurations onto the harmonic model.

A multiplier g in the summable ideal turns any bounded integer field v
into the torus-valued field x_n = sum_k v_{n-k} (g* . w)_k (mod 1), which
satisfies gamma.x_n = sum of neighbours (mod 1).  The kernel K = g* . w
has the symbol S_g(t) = g(e^{it}) / f(t), f = ``window.lattice_symbol``,
bounded and continuous as g is in the summable ideal, with S_g(0) the
integer -c/2 = ``multiplier_sum(g)`` on critical tables.  K is summable,
so by Poisson summation the inverse DFT of S_g sampled on an N-torus is
sum_z K(. + N z), and one real FFT pair computes the map of the
N-periodic extension of v, exactly up to float rounding.  No Green's
table is read.  ``xi_apply_stack`` maps a stack of fields on one torus,
one FFT pair per run of them, in place: the transforms of ``irfftn(rfftn(.))``
in their order.  A request holds the cached symbol, the grid and its spectrum
(about the torus's float64 bytes each) and a window request's aliasing table,
kept per spec and torus on the 1/2^d of the torus it reads.  A request is either:

- periodic (a ``period`` given): err is the stated FFT rounding.  The
  identity comparisons run so, on a torus that holds their window and its
  outflow shell: periodization is linear and commutes with the stencil,
  so every identity of the map on Z^d holds for the periodized fields;
- a window request: v is zero outside its window, the torus is at least
  4 times the extent, and err adds the aliasing term, measured, not proved.
  ``xi apply`` makes one per grid, and separation one per pair: its difference.

``XiSpec.field_err``, which only ``xi_apply_stack`` applies, is the one
err rule; every comparison reads the err of the images it compares, with
the torus metric min(|t - n| : n integer).  Those that stabilize map the
grains that left the window too, laid on its shell by
``sandpile.with_outflow``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import sandpile
from .laurent import IdealCertificate, LaurentPoly, divide_by, ideal_certificate, laplacian_poly, standard_polys
from .sandpile import HeightConfig, check_threshold
from .window import BoxWindow, check_grid_points, laplacian, lattice_symbol, site_rows

# unit roundoff of float64
_U = 2.0**-53


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


def _symbol(spec, period):
    """S_g on the ``numpy.fft.rfftn`` grid of the torus ``period`` (t = 2 pi k / N), and its rounding per unit sup.

    On critical tables f vanishes only at t = 0, where S_g(0) is set to
    the certificate's -c/2.  Rounding, with u = 2^-53 and M points: Higham,
    *Accuracy and Stability of Numerical Algorithms* (2nd ed., section
    24.1, Theorem 24.2) bounds a radix-2 FFT by ||y' - y||_2 <= log2(M)
    eta ||y||_2, eta < 7u.  Transform, product and inverse then leave
    ||x' - x||_2 <= ||v||_2 (||S||_inf (14 log2 M + 3) u + ||dS||_inf),
    where the computed symbol is off by |dS| <= u l1(g) (7 |j|_1 + d +
    terms + 4) / f + (d + 14) u |S|: the phases j.t carry 2 pi |j|_1 u, the
    quotient u, and f an error of (d + 13) u f.  t_j is off by 4u relative
    (1/N and k/N in ``fftfreq``, np.pi and 2 pi k/N), which sin(t_j / 2)
    inherits as |t_j / 2| <= pi / 2; numpy's sin adds 1 ulp = 2u (its
    validation set's tolerance); the square makes 2 (6u) + u; and the d
    sums of ``lattice_symbol``'s nonnegative terms add u f each.  A site's
    error is below the l2 norm, ||v||_2 <= sup sqrt(M), and pocketfft's
    mixed radices are taken at twice the radix-2 constant: per unit sup,
    sqrt(M) (||S||_inf (28 log2 M + 6) u + ||dS||_inf).  g's terms are
    summed into S one at a time; the quotient and dS are formed in place.
    """
    d = len(period)
    freqs = [np.fft.fftfreq(n) for n in period[:-1]] + [np.fft.rfftfreq(period[-1])]
    t = [2 * np.pi * k.reshape((-1,) + (1,) * (d - 1 - a)) for a, k in enumerate(freqs)]
    s = np.zeros(period[:-1] + (period[-1] // 2 + 1,), dtype=complex)
    for expo, c in spec.g.items():
        term = math.prod(np.exp(1j * j * ta) for j, ta in zip(expo, t))
        s += np.multiply(term, c, out=term)
        del term
    f = lattice_symbol(spec.gamma, *t)
    origin = (0,) * d
    if spec.certificate is not None:
        s[origin], f[origin] = -(spec.certificate.common_second_moment // 2), 1.0  # S_g(0) = -c/2 exactly
    s /= f
    deg = max(sum(abs(j) for j in expo) for expo in spec.g.terms)
    ds = np.divide(spec.g.l1_norm() * (7 * deg + d + len(spec.g) + 4), f, out=f)
    ds += (d + 14) * np.abs(s)
    ds *= _U
    if spec.certificate is not None:
        ds[origin] = 0.0
    m = math.prod(period)
    rounding = math.sqrt(m) * (float(np.abs(s).max()) * (28 * math.log2(m) + 6) * _U + float(ds.max()))
    return s, rounding


@dataclass(frozen=True, eq=False)
class XiSpec:
    """One covering map: the multiplier g at threshold gamma, with its certificate on critical tables.

    ``symbols`` caches, per torus shape, S_g on the rfftn grid with its
    rounding per unit sup (``_symbol``); ``alias_tables`` caches, per torus
    shape, the window requests' ``_alias_table``, 1/2^d of the torus.  A
    request adds its grid and spectrum, about the torus's float64 bytes each.
    """

    g: LaurentPoly
    gamma: int
    certificate: IdealCertificate | None
    symbols: dict = field(default_factory=dict, repr=False)
    alias_tables: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self):
        return self.g.dim

    def symbol(self, period):
        """(S_g on the rfftn grid of the torus ``period``, rounding per unit sup), computed once per shape."""
        if period not in self.symbols:
            self.symbols[period] = _symbol(self, period)
        return self.symbols[period]

    def alias_table(self, period):
        """``_alias_table`` of the symbol on the torus ``period``, computed once per shape."""
        if period not in self.alias_tables:
            self.alias_tables[period] = _alias_table(self.symbol(period)[0], period)
        return self.alias_tables[period]

    def field_err(self, sup, period, alias_l1=0.0):
        """Per-site err of an image of |v| <= sup on the torus: FFT rounding plus a window request's aliasing l1."""
        return float(sup) * (self.symbol(period)[1] + alias_l1)

    @classmethod
    def build(cls, g, d, gamma):
        """The map of g at threshold gamma on Z^d.

        Critical tables (gamma = 2d) require g to carry an exact
        summability certificate; dissipative ones accept any polynomial
        (their fundamental solution is already absolutely summable) and
        default to g = 1 when None is passed.
        """
        check_threshold(d, gamma)
        critical = gamma == 2 * d
        if g is None:
            if critical:
                raise ValueError("a multiplier is required on critical tables")
            g = LaurentPoly.one(d)
        if g.dim != d:
            raise ValueError("dimension mismatch")
        if not g:
            raise ValueError("zero multiplier")
        cert = ideal_certificate(g) if critical else None
        if critical and not cert.member:
            raise ValueError(
                "multiplier is not summable against the critical table; failing condition %r" % (cert.failing,)
            )
        return cls(g, int(gamma), cert)


def standard_specs(d, gamma):
    """One XiSpec per standard summable generator (critical tables), or
    the single fundamental-solution spec (dissipative tables)."""
    if gamma == 2 * d:
        return [XiSpec.build(g, d, gamma) for g in standard_polys(d)]
    return [XiSpec.build(None, d, gamma)]


# -- applying the map ---------------------------------------------------------


def window_period(*windows):
    """The torus of a window request: per axis, 4 times the side of the box that bounds the windows.

    Every difference of two of their sites is then below a quarter of the
    torus side, and stays apart on the half-size torus the aliasing term
    compares with.
    """
    lo = [min(w.lo[a] for w in windows) for a in range(windows[0].dim)]
    hi = [max(w.hi[a] for w in windows) for a in range(windows[0].dim)]
    return tuple(4 * (h - l + 1) for l, h in zip(lo, hi))


def _torus_index(window, period):
    """Index arrays that lay the window's sites on the torus ``period``, site n at n mod period."""
    return np.ix_(*[np.arange(l, h + 1) % n for l, h, n in zip(window.lo, window.hi, period)])


def _irfftn_into(spectrum, out, axes):
    """``irfftn`` of ``spectrum`` over ``axes`` into ``out``, its transforms in its order, in place in ``spectrum``."""
    for ax in axes[:-1]:
        np.fft.ifft(spectrum, axis=ax, out=spectrum)
    return np.fft.irfft(spectrum, n=out.shape[axes[-1]], axis=axes[-1], out=out)


def _alias_table(symbol, period):
    """|K_{N/2} - K_N| at the differences |y_j| < N_j/4 of a window request's sites, y at offset y + N/4 - 1.

    K_N is the inverse DFT of the symbol; by Poisson summation K_{N/2}(y) =
    sum_{z in {0,1}^d} K_N(y + z N/2), a fold of K_N, and |K_{N/2} - K_N| is
    the kernel mass that wraps onto y at half the torus side.
    """
    k = _irfftn_into(symbol.copy(), np.empty(period), range(len(period)))
    half = k.reshape([m for n in period for m in (2, n // 2)]).sum(axis=tuple(range(0, 2 * len(period), 2)))
    box = BoxWindow(tuple(1 - n // 4 for n in period), tuple(n // 4 - 1 for n in period))
    table = half[_torus_index(box, [n // 2 for n in period])]
    table -= k[_torus_index(box, period)]
    return np.abs(table, out=table)


def _alias_l1(spec, period, window, out_window):
    """The l1 of the spec's cached ``_alias_table`` over the differences out_window - window, y at y + N/4 - 1."""
    diffs = BoxWindow(tuple(a - b + n // 4 - 1 for a, b, n in zip(out_window.lo, window.hi, period)),
                      tuple(a - b + n // 4 - 1 for a, b, n in zip(out_window.hi, window.lo, period)))
    # a slice and one contiguous copy: a gather holds more, and a strided sum adds in another order
    return float(np.ascontiguousarray(spec.alias_table(period)[BoxWindow.from_shape(period).slices(diffs)]).sum())


def xi_apply(spec, v, out_window=None, period=None):
    """Image of an integer field under the covering map.

    The output window defaults to v's window.  With a ``period``, v is read
    as periodic with that period, and its window must fit in the torus;
    without one, v is zero outside its window.  This is ``xi_apply_stack``
    on a stack of one.
    """
    return xi_apply_stack(spec, [v], None if out_window is None else [out_window], period)[0]


def xi_apply_stack(spec, configs, out_windows=None, period=None):
    """``xi_apply`` of each configuration, each on its own output window (default its own window).

    The one evaluation step: lay the field on the torus, site n at n mod
    period, multiply its real FFT by the cached symbol, invert, and read
    the output window mod period.  A window request takes the torus
    ``window_period(v.window, out_window)`` and adds to the rounding term
    of err the aliasing term ``_alias_l1``, a Richardson-type estimate like
    the tables' accuracy, on critical and dissipative tables alike:
    measured, not proved.  A call maps on one torus, ``period`` or the one
    its window requests share; window requests that need two are refused.
    A torus over the grid-point budget is refused before any grid is
    built, and the symbol and aliasing l1s before the grids.  The runs
    of ``sandpile.stack_runs`` each take one in-place FFT pair; a line is
    transformed alone, so a stack gives each member's lone image bit for bit.
    """
    configs = list(configs)
    if any(spec.dim != v.dim for v in configs):
        raise ValueError("dimension mismatch")
    if out_windows is None:
        out_windows = [v.window for v in configs]
    if len(out_windows) != len(configs):
        raise ValueError("%d output windows for %d configurations" % (len(out_windows), len(configs)))
    if not configs:
        return []
    if period is None:
        tori = {window_period(v.window, w) for v, w in zip(configs, out_windows)}
        if len(tori) != 1:
            raise ValueError("the window requests need %d tori; one call maps on one torus" % len(tori))
        window_requests, period = True, tori.pop()
    else:
        window_requests, period = False, tuple(int(n) for n in period)
        if len(period) != spec.dim or any(s > n for v in configs for s, n in zip(v.window.shape, period)):
            raise ValueError("a window does not fit in the torus %r" % (period,))
    points = math.prod(period)
    check_grid_points(points, "a %s grid needs a %s torus of %d points" % (
        "x".join(map(str, configs[0].window.shape)), "x".join(map(str, period)), points))
    symbol = spec.symbol(period)[0]
    alias = {(v.window, w): _alias_l1(spec, period, v.window, w)
             for v, w in zip(configs, out_windows) if window_requests}
    axes = range(1, spec.dim + 1)
    index = {w: _torus_index(w, period) for w in {v.window for v in configs} | set(out_windows)}
    runs = sandpile.stack_runs(list(zip(configs, out_windows)), points)
    grids = np.empty((len(runs[0]),) + period)
    spectra = np.empty(grids.shape[:-1] + symbol.shape[-1:], dtype=complex)
    images = []
    for run in runs:
        grid, spectrum = grids[: len(run)], spectra[: len(run)]
        grid.fill(0.0)
        for member, (v, _) in zip(grid, run):
            member[index[v.window]] = v.heights
        np.multiply(np.fft.rfftn(grid, axes=axes, out=spectrum), symbol, out=spectrum)
        _irfftn_into(spectrum, grid, axes)
        for image, (v, w) in zip(grid, run):
            err = spec.field_err(np.abs(v.heights).max(), period, alias.get((v.window, w), 0.0))
            images.append(TorusPoint(w, image[index[w]], err))
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


def equivariance_residual(spec, v, m, period):
    """Shift-commutation defect on the torus ``period`` and its bound, the two images' err summed.

    The map of the shifted field and the shifted map of the field are the
    same torus field, each within its image's err.
    """
    return equivariance_residuals(spec, [v], [[m]], period)[0][0]


def equivariance_residuals(spec, configs, shifts, period):
    """``equivariance_residual`` of each configuration under each of its shifts, with its bound.

    ``shifts[i]`` lists the shifts of ``configs[i]``, and the result nests
    the same way, each entry a pair (defect, the two images' err summed).
    Each configuration is mapped once whatever its number of shifts, and
    all the images come from one periodic ``xi_apply_stack`` call on the
    torus ``period``.
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
    images = xi_apply_stack(spec, fields, windows, period)
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
    """Construct a periodic field annihilated by every given map, with its image under each.

    Each field lives on ``window`` and is read as periodic with the
    window's shape as its period, so its image is exact up to rounding.
    With S_g the symbol, the three families are:

    - ``constant``: the constant field c, whose image is c S_g(0).  On
      critical tables S_g(0) is the integer mass(g) = ``multiplier_sum(g)``
      and c = 3; on dissipative ones S_g(0) = g(1)/(gamma - 2d), so
      c = 3(gamma - 2d) maps to 3 g(1).
    - ``f_multiple``: the stencil f_gamma times a finite h, laid on the
      window (its support must fit).  Periodized, it is f_gamma times the
      periodized h, and maps to the integer field g* . h periodized.
    - ``periodic_family``: A times the parity field n_0 mod 2 of the
      absolute first coordinate; its period needs an even side along
      axis 0.  As n_0 mod 2 = (1 - (-1)^{n_0})/2, and
      S_g(pi,0,...,0) = g(-1,1,...,1)/(gamma - 2d + 4), the parity field
      maps to S_g(0)/2 - (-1)^{n_0} g(-1,1,...,1)/(2(gamma - 2d + 4)).  On
      critical tables A = 1 and the image mass(g)/2 - (-1)^{n_0}
      g(-1,1,...,1)/8 is an integer for every standard generator.  On
      dissipative ones A = 2(gamma - 2d)(gamma - 2d + 4) gives the integer
      (gamma - 2d + 4) g(1) - (-1)^{n_0} (gamma - 2d) g(-1,1,...,1).

    Returns the field and its images on ``window``, one per spec in order,
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

    if kind == "constant":
        v = HeightConfig.constant(window, gamma, 3 * excess if excess else 3)
    elif kind == "f_multiple":
        if h is None:
            raise ValueError("f_multiple needs the finite factor h")
        v = HeightConfig(window, gamma, sandpile.poly_heights(window, laplacian_poly(d, gamma) * h))
    elif kind == "periodic_family":
        if window.shape[0] % 2:
            raise ValueError("the parity witness needs an even side along axis 0")
        scale = 2 * excess * (excess + 4) if excess else 1
        parity = scale * (np.arange(window.lo[0], window.hi[0] + 1) % 2)
        v = HeightConfig(window, gamma, np.broadcast_to(parity.reshape((-1,) + (1,) * (d - 1)), window.shape))
    else:
        raise ValueError("kind must be constant, f_multiple or periodic_family")

    return v, [xi_apply(spec, v, period=window.shape) for spec in specs]


# -- separation ---------------------------------------------------------------


def separation_difference(v, vp, Q):
    """vp - v on the part of Q in their window, once the pair meets the hypotheses of separation.

    The inputs must be recurrent, agree outside Q, and differ by something
    the Laplacian stencil does not divide; their images then differ by at
    least 1/4d somewhere.  None of this depends on the map, so a pair is
    checked once, however many specs map its difference.
    """
    if v.window != vp.window or v.gamma != vp.gamma:
        raise ValueError("inputs must share window and gamma")
    diff = vp.heights.astype(np.int64) - v.heights.astype(np.int64)
    if not diff.any():
        raise ValueError("inputs are equal")
    common = v.window.intersection(Q)
    if common is None or np.count_nonzero(diff[v.window.slices(common)]) < np.count_nonzero(diff):
        raise ValueError("inputs differ outside Q")
    if divide_by(sandpile.window_poly(v.window, diff), laplacian_poly(v.dim, v.gamma)) is not None:
        raise ValueError("difference is a stencil multiple; the images coincide")
    if not all(report.recurrent for report in sandpile.burning_test_stack([v, vp])):
        raise ValueError("both inputs must be recurrent")
    return HeightConfig(common, v.gamma, diff[v.window.slices(common)])


def separation_check(spec, difference, window):
    """Largest torus gap on ``window`` between a pair's images, and its err, from their ``separation_difference``.

    The map is linear, so the gap is the image of the difference alone, one
    window request whose err (rounding and aliasing) scales with the
    difference, not with the heights.
    """
    x = xi_apply(spec, difference, out_window=window)
    return float(torus_distance(x.values).max()), x.err


# -- grain addition -----------------------------------------------------------


def addition_operator_demo(spec, site, out_window, rng):
    """The addition operator a_n: one grain dropped at a site, then stabilized.

    Returns the grain's image (the kernel translated to the site) on
    ``out_window``, the measured mismatch of the ledger xi(v) + K_{.-n} =
    xi(a_n v + e) (mod 1) on a random recurrent v on ``out_window`` dilated
    by 2, with e the grains the stabilization sent across the border
    (``sandpile.with_outflow``), and its bound, the three images' err
    summed.  The images are periodic on the torus that holds v's window
    and its outflow shell, where the ledger is exact.
    """
    site = tuple(int(x) for x in site)
    d = spec.dim
    if len(site) != d:
        raise ValueError("site dimension mismatch")
    period = out_window.dilated(3).shape
    grain = HeightConfig.delta(BoxWindow(site, site), spec.gamma, site, amount=1)
    delta = xi_apply(spec, grain, out_window=out_window, period=period)
    v = sandpile.random_recurrent(out_window.dilated(2), spec.gamma, rng)
    if site not in v.window:
        raise ValueError("site must lie in the configuration's window")
    added = sandpile.with_outflow(*sandpile.stabilize(sandpile.add_poly(v, LaurentPoly(d, {site: 1}))))
    before, after = xi_apply_stack(spec, [v, added], [out_window] * 2, period)
    mismatch = point_distance(after, point_sum(before, delta))
    return delta, mismatch, after.err + before.err + delta.err
