"""Axis-aligned boxes of lattice sites, and the nearest-neighbour stencil.

A BoxWindow is the finite set of integer points between two corners,
inclusive.  Windows carry the geometry shared by the sandpile dynamics,
the Green-table bookkeeping and the covering-map evaluation: containment
and the mapping between sites and array indices.

``laplacian`` applies the lattice Laplacian gamma - sum_i (u_i + u_i^-1),
the one operator behind toppling, recurrence, the Green's function and
the harmonic model, to a field on a box; ``neighbour_sum`` is its
off-diagonal part.  Both treat the field as zero outside the array.

``check_grid_points`` is the one check of the grid-point budget, called
where each grid is sized and before it is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Largest grid, in points, that one request may evaluate or hold.  Only
# ``check_grid_points`` reads it.
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
