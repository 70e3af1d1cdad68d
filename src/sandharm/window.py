"""Axis-aligned boxes of lattice sites, the nearest-neighbour stencil and its symbol.

A BoxWindow is the finite set of integer points between two corners,
inclusive.  Windows carry the geometry shared by the sandpile dynamics,
the Green-table bookkeeping and the covering-map evaluation: containment
and the mapping between sites and array indices.

``laplacian`` applies the lattice Laplacian gamma - sum_i (u_i + u_i^-1),
the one operator behind toppling, recurrence, the Green's function and
the harmonic model, to a field on a box; ``neighbour_sum`` is its
off-diagonal part.  Both treat the field as zero outside the array.
``lattice_symbol`` is L's Fourier side; the box's toppling matrix has it
as its eigenvalues (``box_eigenvalues``), and ``box_green`` solves with it.

``check_grid_points`` is the one check of the grid-point budget, called
where each grid is sized and before it is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Largest grid, in points, that one request may evaluate or hold; only
# ``check_grid_points`` reads it.  A map request at the budget holds 420 MB: grid
# 134, spectrum and symbol 135 each, alias box 16 (`xi apply` 64^3: maxrss 442 MB).
GRID_POINT_BUDGET = 2**24


def check_grid_points(points, needs):
    """Refuse a grid of ``points`` points over GRID_POINT_BUDGET; ``needs`` says what needs them."""
    if points > GRID_POINT_BUDGET:
        raise ValueError("%s, over the budget of %d points" % (needs, GRID_POINT_BUDGET))


@dataclass(frozen=True)
class BoxWindow:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(int(x) for x in self.lo)
        hi = tuple(int(x) for x in self.hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("corner dimensions differ or are empty")
        if any(l > h for l, h in zip(lo, hi)):
            raise ValueError("empty window: lo %r exceeds hi %r" % (lo, hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def centered(cls, dim, radius):
        """The box Q_radius = [-radius, radius]^dim."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        return cls((-radius,) * dim, (radius,) * dim)

    @classmethod
    def from_shape(cls, shape, lo=None):
        shape = tuple(int(s) for s in shape)
        if lo is None:
            lo = (0,) * len(shape)
        lo = tuple(int(x) for x in lo)
        return cls(lo, tuple(l + s - 1 for l, s in zip(lo, shape)))

    @property
    def dim(self):
        return len(self.lo)

    @property
    def shape(self):
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def size(self):
        n = 1
        for s in self.shape:
            n *= s
        return n

    def __contains__(self, site):
        return all(l <= x <= h for x, l, h in zip(site, self.lo, self.hi))

    def sites(self):
        """All sites in lexicographic (row-major) order."""
        return itertools.product(*[range(l, h + 1) for l, h in zip(self.lo, self.hi)])

    def index_of(self, site):
        """Array index tuple of a site."""
        if site not in self:
            raise KeyError("site %r outside window" % (site,))
        return tuple(x - l for x, l in zip(site, self.lo))

    def site_of(self, index):
        return tuple(int(i) + l for i, l in zip(index, self.lo))

    def shifted(self, offset):
        off = tuple(int(x) for x in offset)
        return BoxWindow(
            tuple(l + o for l, o in zip(self.lo, off)),
            tuple(h + o for h, o in zip(self.hi, off)),
        )

    def dilated(self, margin):
        """Minkowski sum with Q_margin (margin may be negative to shrink)."""
        m = int(margin)
        return BoxWindow(tuple(l - m for l in self.lo), tuple(h + m for h in self.hi))

    def intersection(self, other):
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return BoxWindow(lo, hi)

    def slices(self, sub):
        """Array slices that pick the sub-window ``sub`` out of this window's array."""
        return tuple(slice(lo - wlo, hi - wlo + 1) for lo, hi, wlo in zip(sub.lo, sub.hi, self.lo))

    def contains_window(self, other):
        return all(a <= b for a, b in zip(self.lo, other.lo)) and all(
            a >= b for a, b in zip(self.hi, other.hi)
        )


def site_rows(window, values):
    """CSV rows ``n1,...,nd,value`` of a field on the window, in C order, each value as repr(float)."""
    # window.sites() runs in C order, the order of values.ravel()
    rows = zip(window.sites(), values.ravel().tolist())
    return ["%s,%r" % (",".join(map(str, site)), value) for site, value in rows]


def neighbour_sum(field, stacked=False):
    """Sum of the 2d nearest-neighbour values at each site, zero outside the array.

    With ``stacked`` the first axis lists separate arrays, not a lattice axis.
    """
    out = np.zeros_like(field)
    for ax in range(int(stacked), field.ndim):
        lower = [slice(None)] * field.ndim
        upper = [slice(None)] * field.ndim
        lower[ax] = slice(None, -1)
        upper[ax] = slice(1, None)
        out[tuple(lower)] += field[tuple(upper)]
        out[tuple(upper)] += field[tuple(lower)]
    return out


def laplacian(field, gamma, stacked=False):
    """Toppling-matrix product L field, with L = gamma I - A on the array's box (each member's, if ``stacked``)."""
    return gamma * field - neighbour_sum(field, stacked)


def lattice_symbol(gamma, *angles):
    """L's symbol gamma - 2 sum_j cos theta_j at the angles theta_j, one broadcastable array per axis; a new array.

    Evaluated as (gamma - 2d) + sum_j 4 sin^2(theta_j / 2): the terms are
    nonnegative and do not cancel near theta = 0, each formed in place.
    """
    f = float(gamma - 2 * len(angles))
    for theta in angles:
        term = np.multiply(theta, 0.5)
        f = f + np.multiply(np.square(np.sin(term, out=term), out=term), 4.0, out=term)
    return f


def box_eigenvalues(shape, gamma):
    """Eigenvalues of the toppling matrix on a box, diagonalized by DST-I: the symbol at theta_j = pi k_j / (s_j + 1)."""
    angles = [np.pi * np.arange(1, s + 1) / (s + 1) for s in shape]
    return lattice_symbol(gamma, *np.meshgrid(*angles, indexing="ij", sparse=True))


def _dst1(x, scale=1.0):
    """Unnormalized DST-I of each member of a float stack, over every axis but the first, times ``scale``.

    Bit for bit pocketfft's multi-axis DST-I of each member alone, forward
    for scale 1 and inverse for scale 1/prod(2 (s + 1)) formed in long
    double: the axes in increasing order, each transformed as minus the
    imaginary part of the rfft of the odd extension [0, x, 0, -x reversed],
    and the scale applied to the first transformed axis's output, where
    pocketfft applies it (negation is exact, so one multiply by -scale does
    both).  Each 1-d transform is computed alone, so stacking changes no
    bit.  Returns a new C-ordered array.
    """
    for ax in range(1, x.ndim):
        n = x.shape[ax]
        lead = (slice(None),) * ax
        odd = np.zeros(x.shape[:ax] + (2 * n + 2,) + x.shape[ax + 1 :])
        odd[lead + (slice(1, n + 1),)] = x
        np.negative(np.flip(x, ax), out=odd[lead + (slice(n + 2, None),)])
        x = np.multiply(np.fft.rfft(odd, axis=ax).imag[lead + (slice(1, n + 1),)], -scale if ax == 1 else -1.0)
    return x


def box_green(sources, gamma):
    """L^-1 times each member of a float stack of sources on a box, by DST-I, the eigenvalues and the inverse DST-I."""
    shape = sources.shape[1:]
    scale = float(1 / np.prod([2 * (s + 1) for s in shape], dtype=np.longdouble))
    return _dst1(_dst1(sources) / box_eigenvalues(shape, gamma), scale)
