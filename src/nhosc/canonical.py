"""Linear canonical transformations of (x, p) and their quadratic targets.

A transform maps x -> u11 x + u12 p, p -> u21 x + u22 p with unit
determinant, which is exactly the condition that [x, p] = i is preserved.
Named families cover the gauge conjugation exp(g x^2 / 2), the two-parameter
coordinate-momentum mix, and the general three-parameter exponential
generator; all of them compose and invert as a group.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import weyl
from .weyl import NonFiniteError

DET_TOL = 1e-12
# the modulus of 1 + alpha*beta (rath_mallick) or u22 - i u12 (normalizable)
# below which a transform is singular
SINGULAR_TOL = 1e-12
_THETA_SERIES_CUTOFF = 1e-6

__all__ = [
    "NonFiniteError",
    "CanonicalTransform",
    "Generator",
    "QuadraticHamiltonian",
    "NormalizabilityResult",
    "from_matrix",
    "from_generator",
    "rath_mallick",
    "gauge",
    "compose",
    "inverse",
    "identity",
    "apply_to_quadratic",
    "normalizable",
    "generator_ratio_check",
    "harmonic_oscillator",
    "scaled_oscillator",
    "ahmed_oscillator",
    "ahmed_hermitian",
]


def _finite_complex(name, value):
    """value as a complex; NonFiniteError naming the field when NaN or infinite."""
    value = complex(value)
    if not cmath.isfinite(value):
        raise NonFiniteError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class CanonicalTransform:
    """2x2 complex matrix of a canonical transformation, det = 1."""

    u11: complex
    u12: complex
    u21: complex
    u22: complex

    def __post_init__(self):
        for name in ("u11", "u12", "u21", "u22"):
            object.__setattr__(self, name, _finite_complex(name, getattr(self, name)))
        det = self.determinant
        # relative to the products it cancels, which round by about their size
        # times EPS (large near a singular mix point); a NaN determinant or an
        # overflowed product fails
        scale = abs(self.u11 * self.u22) + abs(self.u21 * self.u12)
        if not abs(det - 1) <= DET_TOL * scale < math.inf:
            raise ValueError(f"determinant must be 1, measured {det!r}")

    @property
    def determinant(self):
        return self.u11 * self.u22 - self.u21 * self.u12

    def matrix(self):
        return np.array([[self.u11, self.u12], [self.u21, self.u22]])

    def isclose(self, other, tol=1e-12):
        scale = max(1.0, *(abs(getattr(self, f)) for f in ("u11", "u12", "u21", "u22")))
        return all(
            abs(getattr(self, f) - getattr(other, f)) <= tol * scale
            for f in ("u11", "u12", "u21", "u22")
        )


@dataclass(frozen=True)
class Generator:
    """Exponent parameters of U = exp[(a/2) x^2 + (c/2)(xp+px) + (b/2) p^2]."""

    a: complex
    b: complex
    c: complex = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @property
    def theta(self):
        """Either branch of sqrt(c^2 - a b); the transform is branch independent."""
        return cmath.sqrt(self.c * self.c - self.a * self.b)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = c_pp p^2 + c_xp (xp + px) + c_xx x^2."""

    c_pp: complex
    c_xp: complex
    c_xx: complex

    def __post_init__(self):
        for name in ("c_pp", "c_xp", "c_xx"):
            object.__setattr__(self, name, _finite_complex(name, getattr(self, name)))

    def weyl_poly(self):
        return (
            self.c_pp * weyl.P ** 2
            + self.c_xp * (weyl.X * weyl.P + weyl.P * weyl.X)
            + self.c_xx * weyl.X ** 2
        )

    @property
    def frequency_scale(self):
        """Principal branch of sqrt(c_pp c_xx - c_xp^2); spectrum is this times (2n+1)."""
        return cmath.sqrt(self.c_pp * self.c_xx - self.c_xp * self.c_xp)

    def is_hermitian(self, tol=1e-12):
        scale = max(1.0, abs(self.c_pp), abs(self.c_xp), abs(self.c_xx))
        return all(
            abs(c.imag) <= tol * scale for c in (self.c_pp, self.c_xp, self.c_xx)
        )

    def isclose(self, other, tol=1e-12):
        scale = max(
            1.0,
            *(abs(getattr(h, f)) for h in (self, other) for f in ("c_pp", "c_xp", "c_xx")),
        )
        return all(
            abs(getattr(self, f) - getattr(other, f)) <= tol * scale
            for f in ("c_pp", "c_xp", "c_xx")
        )


class NormalizabilityResult(NamedTuple):
    normalizable: bool
    margin: float


def identity():
    return CanonicalTransform(1.0, 0.0, 0.0, 1.0)


def from_matrix(u11, u12, u21, u22):
    """Validated transform from explicit matrix entries."""
    return CanonicalTransform(u11, u12, u21, u22)


def _cosh_sinhc(theta):
    """(cosh t, sinh(t)/t); both even in t, series-evaluated near t = 0."""
    if abs(theta) < _THETA_SERIES_CUTOFF:
        t2 = theta * theta
        cosh = 1 + t2 / 2 * (1 + t2 / 12 * (1 + t2 / 30 * (1 + t2 / 56)))
        sinhc = 1 + t2 / 6 * (1 + t2 / 20 * (1 + t2 / 42 * (1 + t2 / 72)))
        return cosh, sinhc
    return cmath.cosh(theta), cmath.sinh(theta) / theta


def from_generator(gen):
    """Transform of the exponential generator with parameters (a, b, c).

    Entries are cosh(t) -+ (c/t) sinh(t) on the diagonal and
    -(b/t) sinh(t), (a/t) sinh(t) off it, with t = sqrt(c^2 - a b); the
    determinant is cosh^2 - sinh^2 = 1 identically and the branch of the
    square root is irrelevant.
    """
    cosh, sinhc = _cosh_sinhc(gen.theta)
    return CanonicalTransform(
        cosh - gen.c * sinhc,
        -gen.b * sinhc,
        gen.a * sinhc,
        cosh + gen.c * sinhc,
    )


def rath_mallick(alpha, beta):
    """Two-parameter mix x -> (x + i a p)/s, p -> (p + i b x)/s, s = sqrt(1+ab)."""
    alpha, beta = complex(alpha), complex(beta)
    denom = 1 + alpha * beta
    # s = 1/sqrt(denom) is finite and nonzero whenever denom is finite and not singular
    if not cmath.isfinite(denom):
        raise NonFiniteError(f"mix transform overflows: 1 + alpha*beta = {denom!r}")
    if abs(denom) < SINGULAR_TOL:
        raise ValueError(f"singular parameters: 1 + alpha*beta = {denom!r}")
    s = 1 / cmath.sqrt(denom)
    return CanonicalTransform(s, 1j * alpha * s, 1j * beta * s, s)


def gauge(g):
    """Conjugation by exp(g x^2 / 2): fixes x, shifts p -> p + i g x."""
    return CanonicalTransform(1.0, 0.0, 1j * float(g), 1.0)


def compose(u, v):
    """Matrix product of the two transforms."""
    return CanonicalTransform(
        u.u11 * v.u11 + u.u12 * v.u21,
        u.u11 * v.u12 + u.u12 * v.u22,
        u.u21 * v.u11 + u.u22 * v.u21,
        u.u21 * v.u12 + u.u22 * v.u22,
    )


def inverse(u):
    return CanonicalTransform(u.u22, -u.u12, -u.u21, u.u11)


def apply_to_quadratic(u, h):
    """Quadratic image of h under the substitution x -> x~, p -> p~.

    Collecting coefficients directly; agrees with the symbolic route through
    weyl.substitute_linear.  No scalar term appears because the symmetrized
    cross term transforms into itself plus squares.  NonFiniteError on overflow.
    """
    try:
        return QuadraticHamiltonian(
            c_pp=h.c_pp * u.u22 ** 2 + 2 * h.c_xp * u.u12 * u.u22 + h.c_xx * u.u12 ** 2,
            c_xp=h.c_pp * u.u21 * u.u22
            + h.c_xp * (u.u11 * u.u22 + u.u12 * u.u21)
            + h.c_xx * u.u11 * u.u12,
            c_xx=h.c_pp * u.u21 ** 2 + 2 * h.c_xp * u.u11 * u.u21 + h.c_xx * u.u11 ** 2,
        )
    # both are finite, so only an overflow makes the image non-finite
    except (OverflowError, NonFiniteError):
        raise NonFiniteError(
            "quadratic image under the transform overflows: transform entries up to "
            f"{max(map(abs, vars(u).values())):.3g}, quadratic coefficients up to "
            f"{max(map(abs, vars(h).values())):.3g} in modulus") from None


def normalizable(u):
    """Square-integrability of the transformed oscillator eigenfunctions.

    The ground state has Gaussian width (u11 + i u21)/(u22 - i u12); its real
    part is returned as a signed margin so parameter scans can bracket the
    boundary by sign change.
    """
    denom = u.u22 - 1j * u.u12
    if abs(denom) < SINGULAR_TOL:
        raise ValueError("degenerate transform: u22 - i u12 vanishes")
    margin = ((u.u11 + 1j * u.u21) / denom).real
    return NormalizabilityResult(margin > 0, margin)


def generator_ratio_check(gen):
    """Recover the mix parameters (alpha, beta) of exp(a x^2 + b p^2).

    Only defined for c = 0; the recovered pair satisfies alpha/beta = -b/a.
    """
    if gen.c != 0:
        raise ValueError("parameter recovery requires c = 0")
    if gen.a == 0 or gen.b == 0:
        raise ValueError("parameter recovery requires nonzero a and b")
    theta = cmath.sqrt(-gen.a * gen.b)
    i_alpha = (theta / gen.a) * cmath.tanh(theta)
    i_beta = -(theta / gen.b) * cmath.tanh(theta)
    return i_alpha / 1j, i_beta / 1j


def harmonic_oscillator():
    """H = (p^2 + x^2)/2, spectrum n + 1/2."""
    return QuadraticHamiltonian(0.5, 0.0, 0.5)


def scaled_oscillator(k):
    """H = p^2/2 + k x^2/2, spectrum sqrt(k)(n + 1/2) for k > 0."""
    return QuadraticHamiltonian(0.5, 0.0, k / 2.0)


def ahmed_oscillator(alpha, beta):
    """H = (p + i b x)^2/2 + (a^2 + b^2) x^2/2 in collected form."""
    return QuadraticHamiltonian(0.5, 0.5j * beta, 0.5 * alpha * alpha)


def ahmed_hermitian(gamma, alpha=None, k=None):
    """H = (p - g x)^2/2 + k x^2/2; k defaults to alpha^2 - gamma^2.

    With the default k the spectrum turns complex for gamma > alpha; any
    fixed k > 0 keeps it real for every gamma.
    """
    if k is None:
        if alpha is None:
            raise ValueError("provide either k or alpha")
        k = alpha * alpha - gamma * gamma
    return QuadraticHamiltonian(0.5, -0.5 * gamma, 0.5 * (gamma * gamma + k))
