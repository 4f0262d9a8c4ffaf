"""Position-space eigenfunctions: Hermite functions, transformed ground
states, synthesis from Fock coefficients, quadrature norms, node counting.

Hermite functions are evaluated by the stable three-term recurrence in the
scaled coordinate sqrt(w) x and carry the frequency in their normalization,
so they are orthonormal on the line for every w > 0.  Where the Gaussian
underflows, each point carries a power-of-two exponent through the
recurrence, so the tails of high levels stay accurate.  Default grids span
+-12/sqrt(w), which covers the Gaussian tail far below double precision, or
for level n its turning point sqrt(2n+1)/sqrt(w) plus 6/sqrt(w) of tail, when
that is wider (n >= 18).  Level n needs POINTS_PER_NODE_SPACING points per
node spacing pi/sqrt((2n+1) w) across that width (`min_grid_points`), more
than DEFAULT_GRID_POINTS from level 675 on, and on any other grid a spacing
no wider than that (`max_grid_spacing`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_GRID_POINTS = 4001
DEFAULT_SPAN_SIGMAS = 12.0
# grid points per node spacing pi/sqrt((2n+1) w) that level n needs
POINTS_PER_NODE_SPACING = 4
FAR_RESCALE_BITS = 500

__all__ = [
    "NonNormalizableError",
    "Grid",
    "WavefunctionSample",
    "uniform_grid",
    "default_halfwidth",
    "min_grid_points",
    "max_grid_spacing",
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


def default_halfwidth(omega, level=0):
    """Half-width within which level n at frequency omega lives:
    max(12, sqrt(2n+1) + 6)/sqrt(omega)."""
    return max(DEFAULT_SPAN_SIGMAS, math.sqrt(2 * level + 1) + 6.0) / math.sqrt(_check_omega(omega))


def min_grid_points(level):
    """Fewest points of a default-width grid that resolve level n:
    POINTS_PER_NODE_SPACING per node spacing pi/sqrt((2n+1) w), the spacing
    of its nodes near the origin, and the scale of the state at levels 0
    and 1 too; at any w, since width and spacing both scale as 1/sqrt(w)."""
    spacings = 2.0 * default_halfwidth(1.0, level) * math.sqrt(2 * level + 1) / math.pi
    return math.ceil(POINTS_PER_NODE_SPACING * spacings) + 1


def max_grid_spacing(level, omega):
    """Widest grid spacing that resolves level n at frequency omega: the node
    spacing pi/sqrt((2n+1) w) over POINTS_PER_NODE_SPACING."""
    node_spacing = math.pi / (math.sqrt(2 * level + 1) * math.sqrt(_check_omega(omega)))
    return node_spacing / POINTS_PER_NODE_SPACING


def default_grid(omega, n_points=DEFAULT_GRID_POINTS, level=0):
    return uniform_grid(default_halfwidth(omega, level), n_points)


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


def _hermite_rows(n_max, omega, x):
    """Rows 0..n_max of the orthonormal oscillator eigenfunctions at the flat
    array x, one at a time, holding O(x.size) memory.

    Each point carries a power-of-two exponent through the recurrence.  Where
    the Gaussian is subnormal or underflows to 0, it starts from the
    Gaussian's mantissa; a point's rows are divided by 2**FAR_RESCALE_BITS
    whenever the newest passes that bound, and each row is scaled back by
    ldexp, so a row underflows only where its own value does.  Elsewhere the
    exponent is 0 and no row nears the bound, so the arithmetic is the plain
    recurrence's.
    """
    scale = (omega / math.pi) ** 0.25
    # y and y * y overflow only where the Gaussian's exact value, and so every
    # row's, underflows to 0; a finite y there keeps the rows from inf * 0
    with np.errstate(over="ignore"):
        y = math.sqrt(omega) * x
        half_square = 0.5 * y * y
    y = np.where(np.isinf(y), 0.0, y)
    # beyond 2**30 every row of any level that fits in memory underflows
    far = (scale * np.exp(-half_square) < np.finfo(float).tiny) & (half_square < 2.0 ** 59)
    exponent = np.where(far, np.floor(-half_square / math.log(2.0)), 0.0)
    prev = np.zeros_like(y)
    cur = scale * np.exp(-half_square - exponent * math.log(2.0))
    exponent = exponent.astype(np.int64)
    yield np.ldexp(cur, exponent)
    for k in range(n_max):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * y * cur - math.sqrt(k / (k + 1.0)) * prev
        big = np.abs(cur) > 2.0 ** FAR_RESCALE_BITS
        prev[big] = np.ldexp(prev[big], -FAR_RESCALE_BITS)
        cur[big] = np.ldexp(cur[big], -FAR_RESCALE_BITS)
        exponent[big] += FAR_RESCALE_BITS
        yield np.ldexp(cur, exponent)


def _hermite_args(n_max, omega, x):
    omega = _check_omega(omega)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return omega, _finite_samples(x)


def hermite_basis(n_max, omega, x):
    """Rows 0..n_max of the orthonormal oscillator eigenfunctions at x (see
    `_hermite_rows`)."""
    omega, x = _hermite_args(n_max, omega, x)
    out = np.empty((n_max + 1, x.size))
    for k, row in enumerate(_hermite_rows(n_max, omega, x.ravel())):
        out[k] = row
    return out.reshape((n_max + 1,) + x.shape)


def hermite_function(n, omega, x):
    """n-th orthonormal eigenfunction of p^2/2 + w^2 x^2/2 at frequency w:
    row n of `hermite_basis`, bit for bit, in O(x.size) memory."""
    n = int(n)
    omega, x = _hermite_args(n, omega, x)
    for row in _hermite_rows(n, omega, x.ravel()):
        pass
    if np.ndim(x) == 0:
        return float(row[0])
    return row.reshape(x.shape)


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
