"""Exact polynomial algebra in position x and momentum p with [x, p] = i.

Every operator is stored in normal order: all x factors to the left of all
p factors.  Normal order is a canonical form, so two polynomials are equal
iff their term maps are equal.  Coefficients are double-precision complex;
after each operation, terms whose magnitude falls below 1e-14 of the largest
coefficient of the result are pruned, which keeps small-integer computations
exact while suppressing cancellation dust.  A NaN or infinite coefficient,
given or reached by overflow, raises NonFiniteError.

The reduction rule is the closed-form reordering

    p^n x^m = sum_k (-i)^k k! C(n,k) C(m,k) x^(m-k) p^(n-k)

which follows from [x, p] = i.
"""

from __future__ import annotations

import cmath
import math
from types import MappingProxyType

PRUNE_REL = 1e-14

__all__ = [
    "NonFiniteError",
    "WeylPoly",
    "X",
    "P",
    "ONE",
    "ZERO",
    "monomial",
    "x_polynomial",
    "commutator",
    "adjoint",
    "pt_transform",
    "is_pt_symmetric",
    "substitute_linear",
    "gauge_conjugate",
]


class NonFiniteError(ValueError):
    """A NaN or infinite entry; from finite arguments, an overflow on the way."""


def _pruned(terms):
    """Drop exact zeros and coefficients below PRUNE_REL of the largest one."""
    if not terms:
        return {}
    cutoff = PRUNE_REL * max(abs(c) for c in terms.values())
    return {k: c for k, c in terms.items() if c != 0 and abs(c) > cutoff}


def _reorder(n1, m2):
    """p^n1 x^m2 in normal order, as ((m, n), weight) pairs."""
    for k in range(min(n1, m2) + 1):
        w = (-1j) ** k * math.factorial(k) * math.comb(n1, k) * math.comb(m2, k)
        yield (m2 - k, n1 - k), w


class WeylPoly:
    """Normal-ordered polynomial sum c_mn x^m p^n with [x, p] = i."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (m, n), c in terms.items():
                if m < 0 or n < 0 or m != int(m) or n != int(n):
                    raise ValueError(f"exponents must be non-negative integers, got {(m, n)}")
                c = complex(c)
                if not cmath.isfinite(c):
                    raise NonFiniteError(f"coefficient of x^{m} p^{n} must be finite, got {c!r}")
                if c != 0:
                    clean[(int(m), int(n))] = clean.get((int(m), int(n)), 0) + c
        self._terms = _pruned(clean)

    @property
    def terms(self):
        """Read-only view of the canonical term map."""
        return MappingProxyType(self._terms)

    def coefficient(self, m, n):
        return self._terms.get((m, n), 0j)

    @property
    def is_zero(self):
        return not self._terms

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((m + n for m, n in self._terms), default=-1)

    def max_abs_coefficient(self):
        return max((abs(c) for c in self._terms.values()), default=0.0)

    @staticmethod
    def _operand(other):
        """other as a WeylPoly (a number is a constant), or NotImplemented."""
        if isinstance(other, (int, float, complex)):
            return WeylPoly({(0, 0): other})
        if not isinstance(other, WeylPoly):
            return NotImplemented
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for k, c in other._terms.items():
            terms[k] = terms.get(k, 0) + c
        return WeylPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return WeylPoly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return WeylPoly({k: c * other for k, c in self._terms.items()})
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for (m1, n1), c1 in self._terms.items():
            for (m2, n2), c2 in other._terms.items():
                for (m, n), w in _reorder(n1, m2):
                    key = (m1 + m, n + n2)
                    terms[key] = terms.get(key, 0) + c1 * c2 * w
        return WeylPoly(terms)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k):
        if k != int(k) or k < 0:
            raise ValueError("powers must be non-negative integers")
        out = WeylPoly({(0, 0): 1.0})
        for _ in range(int(k)):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, WeylPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"WeylPoly({dict(sorted(self._terms.items()))!r})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (m, n) in sorted(self._terms):
            factors = []
            if m:
                factors.append("x" if m == 1 else f"x^{m}")
            if n:
                factors.append("p" if n == 1 else f"p^{n}")
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({self._terms[(m, n)]})*{mono}")
        return " + ".join(parts)

    def isclose(self, other, rel_tol=1e-12, abs_tol=0.0):
        """Coefficient-wise comparison with tolerance scaled to the larger poly."""
        other = self._operand(other)
        if other is NotImplemented:
            raise TypeError("cannot compare")
        scale = max(self.max_abs_coefficient(), other.max_abs_coefficient(), 1.0)
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self.coefficient(*k) - other.coefficient(*k)) <= abs_tol + rel_tol * scale
            for k in keys
        )


X = WeylPoly({(1, 0): 1.0})
P = WeylPoly({(0, 1): 1.0})
ONE = WeylPoly({(0, 0): 1.0})
ZERO = WeylPoly({})


def monomial(m, n, coefficient=1.0):
    """The single term coefficient * x^m p^n."""
    return WeylPoly({(m, n): coefficient})


def x_polynomial(*coefficients):
    """Polynomial in x alone from ascending coefficients (c0, c1, ...)."""
    return WeylPoly({(m, 0): c for m, c in enumerate(coefficients)})


def commutator(a, b):
    """AB - BA."""
    return a * b - b * a


def adjoint(a):
    """Formal Hermitian conjugate: conjugate coefficients, reverse monomials.

    (x^m p^n)+ = p^n x^m, which is then reordered, so the result is again in
    canonical form.  Involution and antihomomorphism on products.
    """
    out = ZERO
    for (m, n), c in a.terms.items():
        # p^n x^m reordered term by term
        reordered = {}
        for key, w in _reorder(n, m):
            reordered[key] = reordered.get(key, 0) + c.conjugate() * w
        out = out + WeylPoly(reordered)
    return out


def pt_transform(a):
    """Parity (x -> -x) composed with time reversal (i -> -i, p -> -p).

    Net action on a monomial: c x^m p^n -> conj(c) (-1)^m x^m p^n, since the
    two p sign flips cancel.
    """
    return WeylPoly({(m, n): c.conjugate() * (-1) ** m for (m, n), c in a.terms.items()})


def is_pt_symmetric(a, rel_tol=1e-12):
    return pt_transform(a).isclose(a, rel_tol=rel_tol)


def substitute_linear(a, transform):
    """Image of a under x -> U11 x + U12 p, p -> U21 x + U22 p.

    The transform must have unit determinant, which makes the substitution an
    algebra homomorphism preserving [x, p] = i.  Each image monomial is built
    by repeated normal-ordered multiplication.
    """
    det = transform.u11 * transform.u22 - transform.u21 * transform.u12
    if abs(det - 1) > 1e-12:
        raise ValueError(f"transform determinant {det} is not 1")
    x_img = WeylPoly({(1, 0): transform.u11, (0, 1): transform.u12})
    p_img = WeylPoly({(1, 0): transform.u21, (0, 1): transform.u22})
    return _substitute(a, x_img, p_img)


def _substitute(a, x_img, p_img):
    max_m = max((m for m, _ in a.terms), default=0)
    max_n = max((n for _, n in a.terms), default=0)
    x_pow = _powers(x_img, max_m)
    p_pow = _powers(p_img, max_n)
    out = ZERO
    for (m, n), c in a.terms.items():
        out = out + c * (x_pow[m] * p_pow[n])
    return out


def _powers(base, up_to):
    pows = [ONE]
    for _ in range(up_to):
        pows.append(pows[-1] * base)
    return pows


def gauge_conjugate(h, u):
    """Image of h under conjugation by exp(u(x)) for polynomial u in x alone.

    Conjugation fixes x and shifts p -> p + i u'(x); the shift is exact
    because [u, [u, p]] = 0 terminates the commutator series.
    """
    if any(n != 0 for _, n in u.terms):
        raise ValueError("gauge exponent must be a polynomial in x only")
    du = WeylPoly({(m - 1, 0): m * c for (m, _), c in u.terms.items() if m > 0})
    p_img = P + 1j * du
    return _substitute(h, X, p_img)
