"""Integer Laurent polynomials in d commuting variables and the summable ideal.

A Laurent polynomial is stored sparsely as a map from exponent vectors
(tuples of ints, possibly negative) to nonzero integer coefficients.  All
ring arithmetic is exact.

The module also implements the membership certificate for the ideal of
multipliers g whose convolution with the lattice Green's function is
absolutely summable.  Membership is equivalent to four families of exact
integer moment conditions on the coefficients:

    A:  sum_k g_k            = 0
    B:  sum_k g_k k_i        = 0   for every axis i
    C:  sum_k g_k k_i k_j    = 0   for every pair i < j
    D:  sum_k g_k (k_i^2 - k_j^2) = 0   for every pair i < j

When all four hold, the common second moment c = sum_k g_k k_i^2 is
independent of the axis i and the total mass of the multiplier field
equals -c/2, an integer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


class LaurentPoly:
    """Sparse integer Laurent polynomial in ``dim`` variables."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        clean = {}
        for key, coeff in (terms or {}).items():
            key = tuple(int(k) for k in key)
            if len(key) != dim:
                raise ValueError("exponent %r does not have dim %d" % (key, dim))
            coeff = int(coeff)
            if coeff:
                clean[key] = clean.get(key, 0) + coeff
        self.dim = dim
        self.terms = {k: c for k, c in clean.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def one(cls, dim):
        return cls(dim, {(0,) * dim: 1})

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: int(value)})

    @classmethod
    def monomial(cls, dim, exponent, coeff=1):
        return cls(dim, {tuple(exponent): coeff})

    @classmethod
    def variable(cls, dim, axis):
        """The variable u_{axis+1}, axes counted from 0."""
        if not 0 <= axis < dim:
            raise ValueError("axis out of range")
        exp = [0] * dim
        exp[axis] = 1
        return cls(dim, {tuple(exp): 1})

    # -- basic protocol ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, exponent):
        return self.terms.get(tuple(exponent), 0)

    def items(self):
        """Terms in lexicographic exponent order."""
        return sorted(self.terms.items())

    def support(self):
        return sorted(self.terms)

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(%d, 0)" % self.dim
        bits = []
        for exp, coeff in self.items():
            mono = "*".join(
                "u%d^%d" % (i + 1, e) if e != 1 else "u%d" % (i + 1)
                for i, e in enumerate(exp)
                if e
            )
            bits.append("%+d%s" % (coeff, "*" + mono if mono else ""))
        return "LaurentPoly(%d, %s)" % (self.dim, " ".join(bits))

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, other.dim))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.dim, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_dim(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return LaurentPoly(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.dim, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.dim, {k: c * other for k, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_dim(other)
        terms = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                terms[key] = terms.get(key, 0) + ca * cb
        return LaurentPoly(self.dim, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = LaurentPoly.one(self.dim)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def star(self):
        """Involution u_i -> u_i^{-1}: negates every exponent vector."""
        return LaurentPoly(self.dim, {tuple(-e for e in k): c for k, c in self.terms.items()})

    def shifted(self, offset):
        """Multiply by the monomial u^offset."""
        off = tuple(offset)
        return LaurentPoly(self.dim, {tuple(a + b for a, b in zip(k, off)): c for k, c in self.terms.items()})

    # -- measurements ------------------------------------------------------

    def coeff_sum(self):
        """Value at u = (1, ..., 1)."""
        return sum(self.terms.values())

    def l1_norm(self):
        return sum(abs(c) for c in self.terms.values())

    def max_degree(self):
        """Largest max-norm of an exponent in the support (0 for the zero poly)."""
        if not self.terms:
            return 0
        return max(max(abs(e) for e in k) for k in self.terms)

    def bounding_box(self):
        """Componentwise (lo, hi) of the support; None for the zero polynomial."""
        if not self.terms:
            return None
        lo = tuple(min(k[i] for k in self.terms) for i in range(self.dim))
        hi = tuple(max(k[i] for k in self.terms) for i in range(self.dim))
        return lo, hi

    def moment(self, powers):
        """Exact weighted moment sum_k g_k * prod_i k_i^powers[i]."""
        total = 0
        for k, c in self.terms.items():
            w = c
            for e, p in zip(k, powers):
                for _ in range(p):
                    w *= e
            total += w
        return total

    # -- text form ---------------------------------------------------------

    def to_text(self):
        """One term per line, ``k1 k2 ... kd : coeff``, lexicographic order."""
        lines = []
        for exp, coeff in self.items():
            lines.append("%s : %d" % (" ".join(str(e) for e in exp), coeff))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text, dim=None):
        terms = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise ValueError("line %d: expected 'k1 ... kd : coeff'" % lineno)
            left, right = line.rsplit(":", 1)
            try:
                exp = tuple(int(tok) for tok in left.split())
                coeff = int(right.strip())
            except ValueError as exc:
                raise ValueError("line %d: %s" % (lineno, exc)) from None
            if dim is None:
                dim = len(exp)
            if len(exp) != dim:
                raise ValueError("line %d: exponent has %d entries, expected %d" % (lineno, len(exp), dim))
            terms[exp] = terms.get(exp, 0) + coeff
        if dim is None:
            raise ValueError("empty polynomial text and no dimension given")
        return cls(dim, terms)


# -- standard polynomials ---------------------------------------------------


@dataclass(frozen=True)
class StandardPolys:
    """The lattice Laplacian polynomials and the ideal generator list."""

    dim: int
    gamma: int
    laplacian: LaurentPoly
    dissipative: LaurentPoly
    generators: tuple


def laplacian_poly(d, gamma=None):
    """gamma - sum_i (u_i + u_i^{-1}); the critical value is gamma = 2d."""
    if gamma is None:
        gamma = 2 * d
    terms = {(0,) * d: int(gamma)}
    for i in range(d):
        for s in (1, -1):
            exp = [0] * d
            exp[i] = s
            terms[tuple(exp)] = -1
    return LaurentPoly(d, terms)


def standard_polys(d, gamma=None):
    """Laplacian, dissipative Laplacian and ideal generators for dimension d.

    For d = 2 the generators are
    (1-u1)^2 (1-u2), (1-u1)(1-u2)^2 and (1-u1)^2 + (1-u2)^2.
    For d >= 3 they are the critical Laplacian together with all triple
    products (u_i - 1)(u_j - 1)(u_k - 1), indices with repetition, one
    polynomial per multiset of axes.
    """
    if d < 2:
        raise ValueError("need dimension >= 2")
    if gamma is None:
        gamma = 2 * d
    if gamma < 2 * d:
        raise ValueError("gamma must be at least 2d")
    f = laplacian_poly(d)
    f_gamma = laplacian_poly(d, gamma)
    one = LaurentPoly.one(d)
    u = [LaurentPoly.variable(d, i) for i in range(d)]
    if d == 2:
        a = one - u[0]
        b = one - u[1]
        gens = (a * a * b, a * b * b, a * a + b * b)
    else:
        gens = [f]
        seen = set()
        for idx in itertools.combinations_with_replacement(range(d), 3):
            g = LaurentPoly.one(d)
            for i in idx:
                g = g * (u[i] - one)
            if g not in seen:
                seen.add(g)
                gens.append(g)
        gens = tuple(gens)
    return StandardPolys(d, gamma, f, f_gamma, tuple(gens))


# -- ideal membership --------------------------------------------------------


@dataclass(frozen=True)
class IdealCertificate:
    """Outcome of the exact moment conditions for summable-ideal membership.

    ``failing`` is None when the polynomial is a member, otherwise a tuple
    ``(condition, axes, value)`` naming the first violated condition in the
    order A, B, C, D, the axis or axis pair involved (1-based), and the
    nonzero integer value of the offending moment.
    """

    member: bool
    failing: tuple | None
    common_second_moment: int | None

    def __bool__(self):
        return self.member


def ideal_certificate(g):
    """Decide membership of g in the summable-multiplier ideal, exactly.

    Requires dim >= 2.  Checks, in order: total coefficient sum (A), first
    moments per axis (B), mixed second moments per axis pair (C), and
    equality of the pure second moments across axes (D).
    """
    d = g.dim
    if d < 2:
        raise ValueError("ideal membership is defined for dimension >= 2")
    total = g.coeff_sum()
    if total != 0:
        return IdealCertificate(False, ("A", (), total), None)
    for i in range(d):
        powers = [0] * d
        powers[i] = 1
        m = g.moment(powers)
        if m != 0:
            return IdealCertificate(False, ("B", (i + 1,), m), None)
    for i, j in itertools.combinations(range(d), 2):
        powers = [0] * d
        powers[i] = 1
        powers[j] = 1
        m = g.moment(powers)
        if m != 0:
            return IdealCertificate(False, ("C", (i + 1, j + 1), m), None)
    second = []
    for i in range(d):
        powers = [0] * d
        powers[i] = 2
        second.append(g.moment(powers))
    for i, j in itertools.combinations(range(d), 2):
        diff = second[i] - second[j]
        if diff != 0:
            return IdealCertificate(False, ("D", (i + 1, j + 1), diff), None)
    return IdealCertificate(True, None, second[0])


def multiplier_sum(g):
    """Total mass of the summable multiplier field of g, as an exact integer.

    Equals -sum_k g_k k_j (k_j - 1) / 2 for any axis j; the value is
    asserted to agree across axes, which holds for ideal members.  Raises
    ValueError if g fails the membership certificate.
    """
    cert = ideal_certificate(g)
    if not cert.member:
        raise ValueError("multiplier_sum requires an ideal member; failing condition %r" % (cert.failing,))
    d = g.dim
    values = []
    for j in range(d):
        acc = 0
        for k, c in g.terms.items():
            acc += c * k[j] * (k[j] - 1)
        if acc % 2 != 0:
            raise AssertionError("k(k-1) sum must be even")
        values.append(-acc // 2)
    assert all(v == values[0] for v in values), "axis-independent by conditions B and D"
    return values[0]


# -- exact division ----------------------------------------------------------


def _solve_exact(rows, rhs):
    """Gaussian elimination over Fractions.

    Returns the unique solution vector or None if the system is
    inconsistent.  The matrix is expected to have full column rank, which
    holds for convolution-by-f systems since the ring has no zero divisors.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivot_cols = []
    r = 0
    for col in range(n):
        pivot = None
        for i in range(r, m):
            if aug[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pr = aug[r]
        inv = pr[col]
        for i in range(m):
            if i == r:
                continue
            factor = aug[i][col]
            if factor == 0:
                continue
            row_i = aug[i]
            scale = factor / inv
            for jj in range(col, n + 1):
                row_i[jj] -= scale * pr[jj]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for row_idx, col in enumerate(pivot_cols):
        sol[col] = aug[row_idx][n] / aug[row_idx][col]
    # columns without pivots would be free; full column rank is expected,
    # but a zero solution for them is consistent if they occur
    return sol


def divide_by(g, f):
    """Exact quotient h with h * f = g, or None when no such h exists.

    The unknown support of h is the exact Newton-box difference of the
    supports of g and f, which always contains the quotient when one
    exists, so absence is a proof of absence.
    """
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    if not f:
        raise ValueError("division by the zero polynomial")
    if not g:
        return LaurentPoly.zero(g.dim)
    d = g.dim
    fbox = f.bounding_box()
    gbox = g.bounding_box()
    lo = tuple(gl - fl for gl, fl in zip(gbox[0], fbox[0]))
    hi = tuple(gh - fh for gh, fh in zip(gbox[1], fbox[1]))
    if any(l > h for l, h in zip(lo, hi)):
        return None
    unknowns = list(itertools.product(*[range(l, h + 1) for l, h in zip(lo, hi)]))
    index = {k: i for i, k in enumerate(unknowns)}
    # equations: every exponent reachable as unknown + supp(f), plus supp(g)
    eq_sites = set(g.terms)
    for k in unknowns:
        for kf in f.terms:
            eq_sites.add(tuple(a + b for a, b in zip(k, kf)))
    eq_sites = sorted(eq_sites)
    rows = []
    rhs = []
    for site in eq_sites:
        row = [0] * len(unknowns)
        for kf, cf in f.terms.items():
            kh = tuple(s - e for s, e in zip(site, kf))
            col = index.get(kh)
            if col is not None:
                row[col] += cf
        rows.append(row)
        rhs.append(g.terms.get(site, 0))
    sol = _solve_exact(rows, rhs)
    if sol is None:
        return None
    terms = {}
    for k, val in zip(unknowns, sol):
        if val == 0:
            continue
        if val.denominator != 1:
            return None
        terms[k] = int(val)
    h = LaurentPoly(d, terms)
    if h * f != g:
        return None
    return h
