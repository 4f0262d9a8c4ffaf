"""Exact polynomial algebra in position x and momentum p with [x, p] = i.

Every operator is stored in normal order: all x factors to the left of all
p factors (and all creation operators left of annihilation operators for the
ladder form).  Normal order is a canonical form, so two polynomials are equal
iff their term maps are equal.  Coefficients are double-precision complex;
after each operation, terms whose magnitude falls below 1e-14 of the largest
coefficient of the result are pruned, which keeps small-integer computations
exact while suppressing cancellation dust.  A NaN or infinite coefficient,
given or reached by overflow, raises NonFiniteError.

The reduction rules are the closed-form reorderings

    p^n x^m = sum_k (-i)^k k! C(n,k) C(m,k) x^(m-k) p^(n-k)
    a^s (a+)^r = sum_k k! C(s,k) C(r,k) (a+)^(r-k) a^(s-k)

which follow from [x, p] = i and [a, a+] = 1.
"""

from __future__ import annotations

import cmath
import math
from types import MappingProxyType

import numpy as np

PRUNE_REL = 1e-14

__all__ = [
    "NonFiniteError",
    "WeylPoly",
    "LadderPoly",
    "X",
    "P",
    "ONE",
    "ZERO",
    "monomial",
    "x_polynomial",
    "add",
    "mul",
    "commutator",
    "adjoint",
    "pt_transform",
    "is_pt_symmetric",
    "substitute_linear",
    "gauge_conjugate",
    "to_ladder",
    "to_weyl",
    "fock_bands",
    "fock_matrix",
]


class NonFiniteError(ValueError):
    """A NaN or infinite entry; from finite arguments, an overflow on the way."""


def _frequency(omega):
    """omega as a float; NonFiniteError unless finite, ValueError unless positive."""
    omega = float(omega)
    if not math.isfinite(omega):
        raise NonFiniteError(f"omega must be finite, got {omega}")
    if omega <= 0:
        raise ValueError(f"frequency must be positive, got {omega}")
    return omega


def _pruned(terms):
    """Drop exact zeros and coefficients below PRUNE_REL of the largest one."""
    if not terms:
        return {}
    cutoff = PRUNE_REL * max(abs(c) for c in terms.values())
    return {k: c for k, c in terms.items() if c != 0 and abs(c) > cutoff}


def _format_terms(terms, sym1, sym2):
    if not terms:
        return "0"
    parts = []
    for (m, n) in sorted(terms):
        c = terms[(m, n)]
        factors = []
        if m:
            factors.append(sym1 if m == 1 else f"{sym1}^{m}")
        if n:
            factors.append(sym2 if n == 1 else f"{sym2}^{n}")
        mono = "*".join(factors) if factors else "1"
        parts.append(f"({c})*{mono}")
    return " + ".join(parts)


class _Poly:
    """Shared mechanics of the two normal-ordered polynomial rings."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (m, n), c in terms.items():
                if m < 0 or n < 0 or m != int(m) or n != int(n):
                    raise ValueError(f"exponents must be non-negative integers, got {(m, n)}")
                c = complex(c)
                if not cmath.isfinite(c):
                    sym1, sym2 = self._SYMBOLS
                    raise NonFiniteError(
                        f"coefficient of {sym1}^{m} {sym2}^{n} must be finite, got {c!r}")
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

    def _binary_terms(self, other):
        if isinstance(other, (int, float, complex)):
            other = type(self)._scalar(self, other)
        if type(other) is not type(self):
            return NotImplemented
        self._check_compatible(other)
        return other

    def _check_compatible(self, other):
        pass

    def __add__(self, other):
        other = self._binary_terms(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for k, c in other._terms.items():
            terms[k] = terms.get(k, 0) + c
        return self._wrap(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._binary_terms(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._wrap({k: c * other for k, c in self._terms.items()})
        other = self._binary_terms(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for (m1, n1), c1 in self._terms.items():
            for (m2, n2), c2 in other._terms.items():
                for (m, n), w in self._reorder(n1, m2):
                    key = (m1 + m, n + n2)
                    terms[key] = terms.get(key, 0) + c1 * c2 * w
        return self._wrap(terms)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k):
        if k != int(k) or k < 0:
            raise ValueError("powers must be non-negative integers")
        out = self._wrap({(0, 0): 1.0})
        for _ in range(int(k)):
            out = out * self
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms and self._same_context(other)

    def _same_context(self, other):
        return True

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        return _format_terms(self._terms, *self._SYMBOLS)

    def isclose(self, other, rel_tol=1e-12, abs_tol=0.0):
        """Coefficient-wise comparison with tolerance scaled to the larger poly."""
        other = self._binary_terms(other)
        if other is NotImplemented:
            raise TypeError("cannot compare")
        scale = max(self.max_abs_coefficient(), other.max_abs_coefficient(), 1.0)
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self.coefficient(*k) - other.coefficient(*k)) <= abs_tol + rel_tol * scale
            for k in keys
        )


class WeylPoly(_Poly):
    """Normal-ordered polynomial sum c_mn x^m p^n with [x, p] = i."""

    __slots__ = ()
    _SYMBOLS = ("x", "p")

    @staticmethod
    def _reorder(n1, m2):
        # p^n1 x^m2 -> normal order
        for k in range(min(n1, m2) + 1):
            w = (-1j) ** k * math.factorial(k) * math.comb(n1, k) * math.comb(m2, k)
            yield (m2 - k, n1 - k), w

    def _scalar(self, c):
        return WeylPoly({(0, 0): c})

    def _wrap(self, terms):
        return WeylPoly(terms)

    def __repr__(self):
        return f"WeylPoly({dict(sorted(self._terms.items()))!r})"


class LadderPoly(_Poly):
    """Normal-ordered polynomial sum c_rs (a+)^r a^s with [a, a+] = 1.

    Carries the frequency omega of the (x, p) -> (a, a+) substitution that
    produced it; binary operations require matching frequencies.
    """

    __slots__ = ("omega",)
    _SYMBOLS = ("a+", "a")

    def __init__(self, terms=None, omega=1.0):
        omega = _frequency(omega)
        super().__init__(terms)
        self.omega = omega

    @staticmethod
    def _reorder(s1, r2):
        # a^s1 (a+)^r2 -> normal order
        for k in range(min(s1, r2) + 1):
            w = math.factorial(k) * math.comb(s1, k) * math.comb(r2, k)
            yield (r2 - k, s1 - k), w

    def _scalar(self, c):
        return LadderPoly({(0, 0): c}, self.omega)

    def _wrap(self, terms):
        return LadderPoly(terms, self.omega)

    def _check_compatible(self, other):
        if self.omega != other.omega:
            raise ValueError(f"frequency mismatch: {self.omega} vs {other.omega}")

    def _same_context(self, other):
        return self.omega == other.omega

    def __repr__(self):
        return f"LadderPoly({dict(sorted(self._terms.items()))!r}, omega={self.omega})"


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


def add(a, b):
    """Coefficient-wise sum in canonical form."""
    return a + b


def mul(a, b):
    """Associative product, renormalized with p x = x p - i."""
    return a * b


def commutator(a, b):
    """AB - BA."""
    return a * b - b * a


def adjoint(a):
    """Formal Hermitian conjugate: conjugate coefficients, reverse monomials.

    (x^m p^n)+ = p^n x^m, which is then reordered, so the result is again in
    canonical form.  Involution and antihomomorphism on products.
    """
    if isinstance(a, LadderPoly):
        out = LadderPoly({}, a.omega)
        for (r, s), c in a.terms.items():
            out = out + LadderPoly({(s, r): c.conjugate()}, a.omega)
        return out
    out = ZERO
    for (m, n), c in a.terms.items():
        # p^n x^m reordered term by term
        reordered = {}
        for key, w in WeylPoly._reorder(n, m):
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
    return _substitute(a, x_img, p_img, WeylPoly)


def _substitute(a, x_img, p_img, ring, **ring_kwargs):
    max_m = max((m for m, _ in a.terms), default=0)
    max_n = max((n for _, n in a.terms), default=0)
    x_pow = _powers(x_img, max_m, ring, **ring_kwargs)
    p_pow = _powers(p_img, max_n, ring, **ring_kwargs)
    out = ring({}, **ring_kwargs)
    for (m, n), c in a.terms.items():
        out = out + c * (x_pow[m] * p_pow[n])
    return out


def _powers(base, up_to, ring, **ring_kwargs):
    pows = [ring({(0, 0): 1.0}, **ring_kwargs)]
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
    return _substitute(h, X, p_img, WeylPoly)


def to_ladder(a, omega):
    """Rewrite in ladder form via x = (a + a+)/sqrt(2 w), p = i sqrt(w/2)(a+ - a)."""
    omega = _frequency(omega)
    rx = 1.0 / math.sqrt(2.0 * omega)
    rp = math.sqrt(omega / 2.0)
    x_img = LadderPoly({(1, 0): rx, (0, 1): rx}, omega)
    p_img = LadderPoly({(1, 0): 1j * rp, (0, 1): -1j * rp}, omega)
    return _substitute(a, x_img, p_img, LadderPoly, omega=omega)


def to_weyl(lad):
    """Inverse of to_ladder: a = sqrt(w/2) x + i p/sqrt(2 w), a+ its adjoint."""
    omega = lad.omega
    rx = math.sqrt(omega / 2.0)
    rp = 1.0 / math.sqrt(2.0 * omega)
    adag_img = WeylPoly({(1, 0): rx, (0, 1): -1j * rp})
    a_img = WeylPoly({(1, 0): rx, (0, 1): 1j * rp})
    # term (r, s) maps to (a+)^r a^s with creation on the left
    return _substitute(lad, adag_img, a_img, WeylPoly)


@np.errstate(over="ignore", invalid="ignore")
def fock_bands(lad, size):
    """Bands {d: band} of a ladder polynomial on the number basis |0>..|size-1>,
    one per offset d = r - s of a term (a+)^r a^s; band[j] is entry
    (j + max(d, 0), j - min(d, 0)).

    Entry (m, n) of (a+)^r a^s is sqrt(n!/(n-s)!) sqrt((n-s+r)!/(n-s)!) at
    m = n - s + r, computed as ratio products so no factorial overflows up to
    size ~ 1e4.  An entry that overflows raises OverflowError.
    """
    size = int(size)
    if size < 1:
        raise ValueError("matrix size must be at least 1")
    bands = {}
    # a term's entries grow with n, so the sum of the terms' last entries
    # bounds every entry; only when it overflows are the entries checked
    bound = 0.0
    for (r, s), c in lad.terms.items():
        d = r - s
        band = bands.setdefault(d, np.zeros(max(size - abs(d), 0), dtype=complex))
        n = np.arange(s, size - max(d, 0), dtype=float)
        if n.size == 0:
            continue
        amp = np.ones_like(n)
        for j in range(s):
            amp *= n - j
        for j in range(1, r + 1):
            amp *= n - s + j
        values = c * np.sqrt(amp)
        bound += abs(values[-1])
        # entry (n + d, n) sits at index min(n + d, n), from min(r, s) on
        band[min(r, s) : min(r, s) + n.size] += values
    if not math.isfinite(bound) and not all(np.isfinite(b).all() for b in bands.values()):
        raise OverflowError(f"number-basis matrix of size {size} overflows")
    return bands


def fock_matrix(lad, size):
    """Dense matrix of `fock_bands`, the tests' reference for the banded route."""
    bands = fock_bands(lad, size)
    out = np.zeros((int(size), int(size)), dtype=complex)
    for d, band in bands.items():
        j = np.arange(band.size)
        out[j + max(d, 0), j - min(d, 0)] = band
    return out
