"""Position-space eigenfunctions: Hermite functions, transformed ground
states, synthesis from Fock coefficients, quadrature norms, node counting.

Hermite functions are evaluated by the stable three-term recurrence in the
scaled coordinate sqrt(w) x and carry the frequency in their normalization,
so they are orthonormal on the line for every w > 0.  Default grids span
+-12/sqrt(w), which covers the Gaussian tail far below double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_GRID_POINTS = 4001
DEFAULT_SPAN_SIGMAS = 12.0

__all__ = [
    "NonNormalizableError",
    "Grid",
    "WavefunctionSample",
    "uniform_grid",
    "default_grid",
    "hermite_function",
    "hermite_basis",
    "rm_ground_width",
    "rm_ground_state",
    "synthesize",
    "quadrature_norm",
    "count_nodes",
]


class NonNormalizableError(ValueError):
    """Requested state is not square integrable; carries the signed margin."""

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


@dataclass(frozen=True)
class Grid:
    """Strictly increasing sample points."""

    points: np.ndarray

    def __post_init__(self):
        pts = _finite_samples(self.points, "grid points")
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def size(self):
        return self.points.size

    @property
    def spacing(self):
        """Uniform spacing, or None when the grid is non-uniform."""
        steps = np.diff(self.points)
        span = self.points[-1] - self.points[0]
        if steps.max() - steps.min() <= 1e-12 * span:
            return float(steps[0])
        return None


@dataclass(frozen=True)
class WavefunctionSample:
    """Complex values on a grid, tagged with frequency and provenance."""

    grid: Grid
    values: np.ndarray
    omega: float
    source: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise ValueError("value count must equal grid size")
        object.__setattr__(self, "values", vals)


def uniform_grid(halfwidth, n_points=DEFAULT_GRID_POINTS):
    """n_points equally spaced on [-halfwidth, halfwidth]; OverflowError when
    the width 2 * halfwidth overflows."""
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")
    if halfwidth < math.inf and 2.0 * halfwidth == math.inf:
        raise OverflowError(f"grid width 2 * {halfwidth:g} overflows")
    return Grid(np.linspace(-halfwidth, halfwidth, int(n_points)))


def default_grid(omega, n_points=DEFAULT_GRID_POINTS):
    return uniform_grid(DEFAULT_SPAN_SIGMAS / math.sqrt(_check_omega(omega)), n_points)


def _check_omega(omega):
    omega = float(omega)
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    if omega <= 0:
        raise ValueError(f"frequency must be positive, got {omega}")
    return omega


def _finite_samples(x, name="x"):
    """x as a float array; ValueError naming it when a sample is NaN or infinite."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def hermite_basis(n_max, omega, x):
    """Rows 0..n_max of the orthonormal oscillator eigenfunctions at x."""
    omega = _check_omega(omega)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    x = _finite_samples(x)
    # y and y * y overflow only where the Gaussian's exact value, and so every
    # row's, underflows to 0; a finite y there keeps the rows from inf * 0
    with np.errstate(over="ignore"):
        y = math.sqrt(omega) * x
        out = np.empty((n_max + 1,) + np.shape(y), dtype=float)
        out[0] = (omega / math.pi) ** 0.25 * np.exp(-0.5 * y * y)
    y = np.where(np.isinf(y), 0.0, y)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for k in range(1, n_max):
        out[k + 1] = (
            math.sqrt(2.0 / (k + 1)) * y * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
        )
    return out


def hermite_function(n, omega, x):
    """n-th orthonormal eigenfunction of p^2/2 + w^2 x^2/2 at frequency w."""
    values = hermite_basis(int(n), omega, x)[int(n)]
    if np.ndim(x) == 0:
        return float(values)
    return values


def rm_ground_width(alpha, beta):
    """Width (1-beta)/(1+alpha) of the two-parameter ground state.

    It is also the signed square-integrability margin; NonNormalizableError
    outside the region beta < 1, alpha > -1.
    """
    alpha, beta = float(alpha), float(beta)
    if alpha == -1.0:
        raise NonNormalizableError("alpha = -1 is degenerate", margin=None)
    width = (1.0 - beta) / (1.0 + alpha)
    if not (beta < 1.0 and alpha > -1.0):
        raise NonNormalizableError(
            f"state is not square integrable (margin {width:g}); "
            "requires beta < 1 and alpha > -1",
            margin=width,
        )
    return width


def rm_ground_state(alpha, beta, x):
    """Ground state of the two-parameter transformed oscillator.

    A Gaussian of width rm_ground_width(alpha, beta), normalized to unit
    square integral; defined only on the region beta < 1, alpha > -1.
    """
    width = rm_ground_width(alpha, beta)
    x = _finite_samples(x)
    values = (width / math.pi) ** 0.25 * np.exp(-0.5 * width * x * x)
    if np.ndim(values) == 0:
        return float(values)
    return values


def synthesize(pair, omega, grid):
    """Pointwise sum of Hermite functions weighted by the Fock coefficients."""
    omega = _check_omega(omega)
    coeffs = np.asarray(pair.coefficients, dtype=complex)
    support = np.nonzero(np.abs(coeffs) > 0)[0]
    top = int(support.max()) if support.size else 0
    basis = hermite_basis(top, omega, grid.points)
    values = coeffs[: top + 1] @ basis
    return WavefunctionSample(
        grid=grid,
        values=values,
        omega=omega,
        source=f"eigenpair k={pair.excitation} s={pair.parity} branch={pair.branch:+d}",
    )


def quadrature_norm(sample):
    """L2 norm by composite Simpson on the uniform grid."""
    dx = sample.grid.spacing
    if dx is None:
        raise ValueError("quadrature requires a uniform grid")
    density = np.abs(sample.values) ** 2
    return math.sqrt(_simpson(density, dx))


def _simpson(values, dx):
    n = values.size
    if n < 3:
        return float(np.trapezoid(values, dx=dx))
    end = n if n % 2 == 1 else n - 1
    weights = np.ones(end)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    total = float(weights @ values[:end]) * dx / 3.0
    if end != n:
        total += 0.5 * dx * float(values[-2] + values[-1])
    return total


def count_nodes(sample, imag_tol=1e-10, value_floor=1e-9):
    """Sign changes of a real-valued sample, ignoring near-zero samples.

    Rejects genuinely complex samples; callers must strip any known global
    phase first, since node counting is only meaningful for real functions.
    """
    values = sample.values
    scale = float(np.abs(values).max())
    if scale == 0.0:
        return 0
    if float(np.abs(values.imag).max()) > imag_tol * scale:
        raise ValueError("sample is genuinely complex; node counting rejected")
    real = values.real
    significant = real[np.abs(real) >= value_floor * float(np.abs(real).max())]
    if significant.size < 2:
        return 0
    signs = np.sign(significant)
    return int((np.diff(signs) != 0).sum())
