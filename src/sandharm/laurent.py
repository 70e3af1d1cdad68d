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


class LaurentPoly:
    """Sparse integer Laurent polynomial in ``dim`` variables."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        clean = {}
        for key, coeff in (terms or {}).items():
            key = tuple(map(int, key))
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
            n >>= 1
            if n:
                base = base * base
        return out

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


# -- standard polynomials ---------------------------------------------------


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


def standard_polys(d):
    """The summable-ideal generators for dimension d, as a tuple.

    For d = 2 the generators are
    (1-u1)^2 (1-u2), (1-u1)(1-u2)^2 and (1-u1)^2 + (1-u2)^2.
    For d >= 3 they are the critical Laplacian together with all triple
    products (u_i - 1)(u_j - 1)(u_k - 1), indices with repetition, one
    polynomial per multiset of axes.
    """
    if d < 2:
        raise ValueError("need dimension >= 2")
    one = LaurentPoly.one(d)
    u = [LaurentPoly.variable(d, i) for i in range(d)]
    if d == 2:
        a = one - u[0]
        b = one - u[1]
        gens = (a * a * b, a * b * b, a * a + b * b)
    else:
        # distinct multisets give distinct products: u_i - 1 are distinct primes
        gens = (laplacian_poly(d),) + tuple(
            (u[i] - one) * (u[j] - one) * (u[k] - one)
            for i, j, k in itertools.combinations_with_replacement(range(d), 3)
        )
    return gens


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

    def moment(*axes):
        """sum_k g_k prod_{i in axes} k_i over a multiset of axes."""
        return g.moment([axes.count(i) for i in range(d)])

    pairs = list(itertools.combinations(range(d), 2))
    second = [moment(i, i) for i in range(d)]
    conditions = (
        [("A", (), g.coeff_sum())]
        + [("B", (i + 1,), moment(i)) for i in range(d)]
        + [("C", (i + 1, j + 1), moment(i, j)) for i, j in pairs]
        + [("D", (i + 1, j + 1), second[i] - second[j]) for i, j in pairs]
    )
    failing = next((c for c in conditions if c[2] != 0), None)
    return IdealCertificate(failing is None, failing, second[0] if failing is None else None)


def multiplier_sum(g):
    """Total mass of the summable multiplier field of g, as an exact integer.

    Equals -sum_k g_k k_j (k_j - 1) / 2 for any axis j.  By conditions B
    and D that sum is the certificate's common second moment c, which is
    even as each k_j (k_j - 1) is, so the mass is -c/2.  Raises ValueError
    if g fails the membership certificate.
    """
    cert = ideal_certificate(g)
    if not cert.member:
        raise ValueError("multiplier_sum requires an ideal member; failing condition %r" % (cert.failing,))
    return -cert.common_second_moment // 2


# -- exact division ----------------------------------------------------------


def divide_by(g, f):
    """Exact quotient h with h * f = g, or None when no such h exists.

    Lexicographic long division in Z[u].  Shifted by their least exponents,
    f and g have least exponent 0 on every axis, so f is divisible by no
    variable; the least exponent on an axis adds under products (Z has no
    zero divisors), so a quotient of the shifted pair has least exponents 0
    too, a polynomial.  While one exists, the remainder's leading term is
    the divisor's leading term times a term of the rest of the quotient, so
    a leading term that fails to divide it, as a monomial or in its integer
    coefficient, proves there is none.  Each step lowers the remainder's
    leading exponent in lex order, a well-order, so the loop ends.  The
    quotient is shifted back by glo - flo.
    """
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    if not f:
        raise ValueError("division by the zero polynomial")
    if not g:
        return LaurentPoly.zero(g.dim)
    flo, glo = f.bounding_box()[0], g.bounding_box()[0]
    divisor = [(tuple(e - l for e, l in zip(k, flo)), c) for k, c in f.terms.items()]
    lead, lead_coeff = max(divisor)
    rem = {tuple(e - l for e, l in zip(k, glo)): c for k, c in g.terms.items()}
    quot = {}
    while rem:
        top = max(rem)
        q, r = divmod(rem[top], lead_coeff)
        expo = tuple(a - b for a, b in zip(top, lead))
        if r or min(expo) < 0:
            return None
        quot[expo] = q
        for k, c in divisor:
            key = tuple(a + b for a, b in zip(expo, k))
            value = rem.get(key, 0) - q * c
            if value:
                rem[key] = value
            else:
                del rem[key]
    return LaurentPoly(g.dim, quot).shifted(tuple(a - b for a, b in zip(glo, flo)))
