"""Complex eigensolvers for the parity blocks of quadratic truncations.

Every parity block is a `Tridiagonal`.  Its eigenvalues come from implicit QL
with complex orthogonal rotations on the symmetrized matrix, O(n) per sweep;
its eigenvectors from inverse iteration on an O(n) LU with partial pivoting.

Asked for the lowest L eigenvalues, QL stops as soon as the values it has
deflated are proved to include them, by either of two certificates (see
`_ql_symmetric`): Bendixson's theorem with a Gershgorin bound on the block
still to deflate, or a count of the eigenvalues left of a vertical line by the
argument principle.  The count walks a contour around a weighted-Bendixson box
(`_box`) that holds every eigenvalue left of the line, spaced by the
eigenvalues already found (`_contour`), and evaluates det(T - z) and its
log-derivative by the O(n) continuant (`_det_phase`), vectorised over the
contour points.

A segment on which QL breaks down goes to Aberth's iteration (`_aberth`) on the
same continuant, which the same count certifies when asked for the lowest L.

A `Tridiagonal` holds its bands as numpy complex128 arrays; numpy is used for
storage and vectorized arithmetic only.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

DEFLATION_REL = 1e-14
EPS = 2.220446049250313e-16
# QL sweeps spent on one eigenvalue before giving up
MAX_SWEEPS = 30
# largest |c| or |s| accepted in a complex orthogonal QL rotation
ROTATION_BOUND = 1e4
# The eigenvalue solvers scale a matrix whose largest modulus lies outside
# [SCALE_MIN, SCALE_MAX] by a power of two towards 1, so that squares and
# products of its entries neither overflow nor underflow; other matrices are
# solved as given.
SCALE_MIN = 2.0 ** -256
SCALE_MAX = 2.0 ** 256
# The eigenvalue count (`_count_below`): the largest change in the phase of
# det(T - z), in radians, that one contour step may show, both as estimated
# from the log-derivative and as measured; the contour points it may evaluate
# per row of the segment, and the passes over the rows it may make, before it
# gives up; the fewest rows on which QL tries it (on fewer, QL reaches the
# Bendixson exit for less than a count costs); the relative gap below which
# two real parts are a tie it cannot split (a conjugate pair's differ only by
# rounding); the points per side at which the first contour samples its
# density, and the phase change per step it aims at (`_contour`): a tenth
# under COUNT_STEP / 2, so that the few percent its estimate of g falls short
# near the box's left edge rarely costs a second pass.
COUNT_STEP = 1.0
COUNT_POINTS_PER_ROW = 16
COUNT_ROUNDS = 6
COUNT_MIN_ROWS = 64
COUNT_TIE_REL = 1e-8
COUNT_SAMPLES = 256
COUNT_FIRST_STEP = 0.45
# Aberth's iteration: the points whose pairwise terms one array holds
ABERTH_CHUNK = 256
# Inverse iteration's accepted residual, relative to ||t||_F, and its solves
EIGENVECTOR_TOL = 1e-12
EIGENVECTOR_MAX_ITER = 20

__all__ = [
    "EigenConvergenceError",
    "frobenius_norm",
    "Tridiagonal",
    "TridiagonalLU",
    "tridiagonal_eigenvalues",
    "tridiagonal_lu",
    "tridiagonal_eigenvectors",
]


class EigenConvergenceError(RuntimeError):
    """Aberth's iteration or inverse iteration failed to converge; for inverse
    iteration it carries the best residual achieved."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _norm(modulus):
    """sqrt(sum(modulus ** 2)) of non-negative entries, without overflow or
    underflow.

    Bit for bit the plain formula whenever the sum of squares is finite and
    normal; when it overflows, or is 0 or subnormal while some entry is not,
    the entries are divided by the largest one first.
    """
    with np.errstate(over="ignore"):
        total = float((modulus ** 2).sum())
    if total == math.inf or total < sys.float_info.min:
        big = float(modulus.max(initial=0.0))
        if 0.0 < big < math.inf:
            return big * math.sqrt(float(((modulus / big) ** 2).sum()))
    return math.sqrt(total)


def frobenius_norm(a):
    return _norm(np.abs(a))


def _radix_scale(modulus):
    """Power of two bringing the largest of modulus near 1 when it lies outside
    [SCALE_MIN, SCALE_MAX]; 1.0 otherwise."""
    big = float(modulus.max())
    if big == 0.0 or SCALE_MIN <= big <= SCALE_MAX or not math.isfinite(big):
        return 1.0
    # 2^1023, the largest power of two, lifts even a subnormal big above SCALE_MIN
    return math.ldexp(1.0, min(-math.frexp(big)[1], 1023))


def _order(values):
    """Indices sorting complex values by real then imaginary part, stably: the
    package's one eigenvalue order."""
    return np.lexsort((values.imag, values.real))


def _lifted_pivot(pivot, floor, k):
    """The pivot, raised to modulus floor when at or below it; 0 with floor 0 raises."""
    if abs(pivot) > floor:
        return pivot
    if floor == 0.0:
        raise EigenConvergenceError(f"singular pivot at column {k}")
    return (pivot / abs(pivot) if pivot != 0 else 1.0) * floor


@dataclass(frozen=True)
class Tridiagonal:
    """Tridiagonal matrix by its bands: diag[k] = T[k, k], lower[k] = T[k+1, k],
    upper[k] = T[k, k+1]."""

    diag: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        bands = [np.array(getattr(self, name), dtype=complex)
                 for name in ("diag", "lower", "upper")]
        n = bands[0].size
        if bands[0].shape != (n,) or n < 1:
            raise ValueError("diagonal must be a non-empty vector")
        if bands[1].shape != (n - 1,) or bands[2].shape != (n - 1,):
            raise ValueError(f"off-diagonals of a size-{n} tridiagonal need {n - 1} entries")
        if not all(np.isfinite(band).all() for band in bands):
            raise ValueError("matrix entries must be finite")
        for name, band in zip(("diag", "lower", "upper"), bands):
            object.__setattr__(self, name, band)

    @property
    def size(self):
        return self.diag.size

    def norm(self):
        """Frobenius norm."""
        return frobenius_norm(np.concatenate((self.diag, self.lower, self.upper)))

    def adjoint(self):
        return Tridiagonal(self.diag.conj(), self.upper.conj(), self.lower.conj())

    def scaled(self, factor):
        """factor * T, exactly when factor is a power of two."""
        return Tridiagonal(self.diag * factor, self.lower * factor, self.upper * factor)

    def matvec(self, v):
        """T v for a vector of shape (n,) or each column of an (n, k) array."""
        return _band_matvec(self.diag, self.lower, self.upper, v)


def _band_matvec(diag, lower, upper, v):
    """The tridiagonal with bands diag, lower, upper (arrays) times v, a vector
    or each column of an (n, k) array."""
    shape = (-1,) + (1,) * (v.ndim - 1)
    out = diag.reshape(shape) * v
    out[:-1] += upper.reshape(shape) * v[1:]
    out[1:] += lower.reshape(shape) * v[:-1]
    return out


def _radix_scaled(t):
    """(s, s * t) for the power of two s = _radix_scale of t's moduli; t
    itself when s is 1."""
    scale = _radix_scale(np.abs(np.concatenate((t.diag, t.lower, t.upper))))
    return scale, (t if scale == 1.0 else t.scaled(scale))


def _symmetric_offdiagonal(t):
    """+-sqrt(upper * lower), formed without overflowing the product.

    The complex symmetric tridiagonal with t's diagonal and this off-diagonal
    has t's eigenvalues: it is diagonally similar to t where no product
    vanishes, and where one does both split there into the same blocks.
    """
    return np.sqrt(t.upper) * np.sqrt(t.lower)


def _box(d, e, c):
    """(left, height) such that every eigenvalue with real part below c of the
    complex symmetric tridiagonal A + iB with diagonal d and off-diagonal e
    lies in [left, c] x [-height, height].

    For an eigenvector v with weights w_k = |v_k|^2 / v*v, Re lambda = v*Av/v*v
    is at least sum w_k sigma_k with sigma_k = A_kk - |A_k,k-1| - |A_k,k+1|, and
    |Im lambda| = |v*Bv|/v*v at most sum w_k rho_k with rho_k = |B_kk| +
    |B_k,k-1| + |B_k,k+1|.  When Re lambda < c, sum w_k (c - sigma_k) > 0, so for
    every alpha >= 0, |Im lambda| <= max_k rho_k + alpha (c - sigma_k); the
    height is that bound at a near-minimizing alpha, found by bisection on the
    slope of the active row.
    """
    re_e, im_e = np.abs(e.real), np.abs(e.imag)
    sigma = d.real.copy()
    sigma[:-1] -= re_e
    sigma[1:] -= re_e
    rho = np.abs(d.imag)
    rho[:-1] += im_e
    rho[1:] += im_e
    slope = c - sigma
    falling = slope < 0
    # at hi every falling row is at most 0, below every rising row
    lo, hi = 0.0, (float(rho.max() / -slope[falling].max()) if falling.any() else 0.0)
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if slope[np.argmax(rho + mid * slope)] > 0:
            hi = mid
        else:
            lo = mid
    return float(sigma.min()), float((rho + hi * slope).max())


def _det_phase(d, e2, z):
    """(phase of det(T - z), d/dz log det(T - z)) at the points z, for the
    complex symmetric tridiagonal T with diagonal d and squared off-diagonal
    e2 (lists), by the ratio continuant r_k = d_k - z - e2_{k-1} / r_{k-1}.

    det(T - z) is the product of the r_k, and its log-derivative the sum of
    r_k' / r_k; the running product is renormalised every 8 rows.  A
    vanishing r_k makes the values non-finite, and no warning is raised.
    """
    with np.errstate(all="ignore"):
        r = d[0] - z
        slope = -1.0 / r  # r_k' / r_k
        g = slope.copy()
        phase = r.copy()
        q = np.empty_like(z)
        for k in range(1, len(d)):
            np.divide(e2[k - 1], r, out=q)
            slope *= q
            slope -= 1.0
            np.subtract(d[k], z, out=r)
            r -= q
            slope /= r
            g += slope
            phase *= r
            if k % 8 == 0:
                phase /= np.abs(phase)
        return phase / np.abs(phase), g


def _contour(corners, found, rest):
    """Points along the closed polygon `corners`, counterclockwise, the first
    repeated at the end, spaced so that |g| |dz| is about COUNT_FIRST_STEP.

    g, the log-derivative of det(T - z), is estimated as |sum 1/(z - mu)| over
    the eigenvalues `found` plus the constant `rest` for the others.  That
    density is sampled at COUNT_SAMPLES points per side, and the points are
    placed where its running integral crosses whole numbers.  None when a
    found eigenvalue lies on a sample.
    """
    s = np.linspace(0.0, 1.0, COUNT_SAMPLES + 1)
    sides = []
    for a, b in zip(corners, corners[1:]):
        z = a + s * (b - a)
        with np.errstate(divide="ignore", invalid="ignore"):
            density = np.abs((1.0 / (z[:, None] - found)).sum(axis=1)) + rest
        steps = np.maximum(density[1:], density[:-1]) * (abs(b - a) / COUNT_SAMPLES)
        total = np.concatenate(([0.0], np.cumsum(steps))) / COUNT_FIRST_STEP
        if not math.isfinite(total[-1]):
            return None
        # at least one point per side, the corner
        points = np.interp(np.arange(max(math.ceil(total[-1]), 1)), total, s)
        sides.append(a + points * (b - a))
    return np.concatenate(sides + [corners[:1]])


def _count_below(d, e, c, pad, found):
    """How many eigenvalues of the complex symmetric tridiagonal with diagonal
    d and off-diagonal e (arrays) have real part below c, or None when the
    count cannot be trusted; found holds the eigenvalues already known, those
    of the first len(found) rows.

    The argument principle on the rectangle of `_box`, padded by pad on the
    left, top and bottom, with its right edge on Re z = c (Delves & Lyness,
    Math. Comp. 21 (1967) 543).  The first contour (`_contour`) is graded by
    the found eigenvalues, and the other rows add half their sum of
    1 / max(|Re d_k - c|, pad), so usually one pass over the rows is enough.
    Each contour step is split into ceil(need) pieces until |g| |dz| at both
    ends and the phase change of det over it are at most COUNT_STEP; the
    winding is then read from the phase changes, and read again after
    refining to COUNT_STEP / 2.  The count stands only when both windings are
    within 1e-3 of the same integer.  It gives None on a non-finite value, on
    a step within COUNT_STEP by g whose phase turns other than g's trapezoid
    rule says by more than a quarter step (rounding has swamped det there, as
    near eigenvalues with condition numbers near 1e13), or past
    COUNT_POINTS_PER_ROW points per row or COUNT_ROUNDS passes over the rows.
    """
    left, height = _box(d, e, c)
    x, y = left - pad, height + pad
    corners = [complex(x, -y), complex(c, -y), complex(c, y), complex(x, y), complex(x, -y)]
    rest = 0.5 * float((1.0 / np.maximum(np.abs(d.real[len(found):] - c), pad)).sum())
    z = _contour(corners, found, rest)
    budget = COUNT_POINTS_PER_ROW * len(d)
    if z is None or z.size > budget:
        return None
    d, e2 = d.tolist(), (e * e).tolist()
    phase, g = _det_phase(d, e2, z)
    spent, rounds = z.size, 1
    counts = []
    for step in (COUNT_STEP, 0.5 * COUNT_STEP):
        while True:
            if not (np.isfinite(phase).all() and np.isfinite(g).all()):
                return None
            dz = np.diff(z)
            turn = np.angle(phase[1:] * phase[:-1].conj())
            bound = np.maximum(np.abs(g[1:]), np.abs(g[:-1])) * np.abs(dz)
            # on a step the log-derivative resolves, the phase must turn as
            # its trapezoid rule says; where it does not, rounding swamps det
            trapezoid = (0.5 * (g[1:] + g[:-1]) * dz).imag
            if np.any(np.abs(turn - trapezoid)[bound <= step] > 0.25 * step):
                return None
            need = np.maximum(bound, np.abs(turn))
            extra = np.ceil(np.minimum(need / step, budget)).astype(int) - 1
            extra[extra < 0] = 0
            total = int(extra.sum())
            if total == 0:
                break
            spent += total
            rounds += 1
            if spent > budget or rounds > COUNT_ROUNDS:
                return None
            # extra[j] points evenly inside step j, evaluated, then put in place
            seg = np.repeat(np.arange(dz.size), extra)
            frac = (np.arange(total) - np.repeat(np.cumsum(extra) - extra, extra) + 1.0) / (extra[seg] + 1)
            new = z[seg] + frac * dz[seg]
            new_phase, new_g = _det_phase(d, e2, new)
            z, phase, g = (np.insert(old, seg + 1, fresh)
                           for old, fresh in ((z, new), (phase, new_phase), (g, new_g)))
        winding = float(turn.sum()) / (2.0 * math.pi)
        if abs(winding - round(winding)) > 1e-3:
            return None
        counts.append(round(winding))
    return counts[0] if counts[0] == counts[1] else None


class _QLBreakdown(Exception):
    """Complex orthogonal QL stalled or needed an oversized rotation."""


def _ql_symmetric(d, e, floor, lowest=None):
    """Eigenvalues of the complex symmetric tridiagonal with diagonal d and
    off-diagonal e (e[k] couples k and k+1; e[-1] = 0), by implicit QL.

    Both lists are overwritten.  The rotations satisfy c^2 + s^2 = 1 but are not
    unitary: one with |c| or |s| above ROTATION_BOUND, or more than MAX_SWEEPS
    sweeps for one eigenvalue, raises _QLBreakdown.

    With `lowest`, returns d[:found] as soon as the values deflated so far
    provably hold the `lowest` of smallest real part, by one of two
    certificates.  Later sweeps never touch d[:found], so the values returned
    are those of the full solve.

    - Bendixson, tried after every deflation: every eigenvalue of the trailing
      block T' has real part at least the smallest eigenvalue of its Hermitian
      part, which for a complex symmetric T' is Re T'; the Gershgorin bound of
      that real tridiagonal, less floor, must exceed the lowest-th smallest
      real part found.  The rotations inflate Re T', so on truncations this
      often fires only after most of the block has deflated.
    - The count, tried once, at found = lowest + 1, when Bendixson has not
      fired and the segment has at least COUNT_MIN_ROWS rows: with c midway
      between the lowest-th and the next real part found, `_count_below`
      counts the eigenvalues of the segment as given that have real part below
      c.  Exactly `lowest` means no eigenvalue still in T' lies left of c.
      Its contour encloses the weighted-Bendixson box of `_box`: with the
      segment A + iB, sigma_k = A_kk - |A_k,k-1| - |A_k,k+1| and rho_k =
      |B_kk| + |B_k,k-1| + |B_k,k+1|, every eigenvalue with real part below c
      lies in [min sigma, c] x [-H, H], H = max_k rho_k + alpha (c - sigma_k)
      for any alpha >= 0.  Unlike the theorem's box, its height does not grow
      with the segment.  When the count gives up, or a tie leaves no room for
      c, QL goes on.
    """
    n = len(d)
    # read once, as locals: the loops below test them at every step
    deflation_rel, max_sweeps = DEFLATION_REL, MAX_SWEEPS
    count = lowest is not None and lowest + 1 < n and n >= COUNT_MIN_ROWS
    if count:
        # the count reads the segment as given; the sweeps overwrite d and e
        segment = np.array(d), np.array(e[:-1])
    for lo in range(n):
        sweeps = 0
        while True:
            m = lo
            while m < n - 1:
                thresh = deflation_rel * (abs(d[m]) + abs(d[m + 1])) or floor
                if abs(e[m]) <= thresh:
                    break
                m += 1
            if m == lo:
                break
            if sweeps == max_sweeps:
                raise _QLBreakdown
            sweeps += 1
            # Wilkinson shift from the leading 2x2, entering only through g
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            r = cmath.sqrt(g * g + 1.0)
            g = d[m] - d[lo] + e[lo] / (g + r if abs(g + r) >= abs(g - r) else g - r)
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, lo - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = cmath.sqrt(f * f + g * g)
                e[i + 1] = r
                size = abs(f) + abs(g)
                if abs(r) * ROTATION_BOUND < size:
                    raise _QLBreakdown
                if size == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[lo] -= p
                e[lo] = g
                e[m] = 0.0
        found = lo + 1
        if lowest is not None and lowest <= found < n:
            real = sorted(v.real for v in d[:found])
            x = real[lowest - 1]
            # Gershgorin rows of Re T' (e[lo], below the deflation threshold, is
            # dropped as the sweeps drop it), stopping at the first that fails
            rows = zip(d[found:], chain((0.0,), e[found:]), e[found:])
            if all(v.real - abs(a.real) - abs(b.real) - floor > x for v, a, b in rows):
                return d[:found]
            if count and found == lowest + 1 and real[lowest] - x > COUNT_TIE_REL * abs(x):
                line = 0.5 * (x + real[lowest])
                if _count_below(*segment, line, line - x, np.array(d[:found])) == lowest:
                    return d[:found]
    return d


def _aberth(d, e, lowest=None):
    """Eigenvalues of the complex symmetric tridiagonal with diagonal d and
    off-diagonal e (arrays), sorted by `_order`, by Aberth's iteration (Math.
    Comp. 27 (1973) 339): the fallback where QL breaks down.

    From n points on the Gershgorin circle about mean(d), each step moves z_k
    by N / (1 - N sum_{j != k} 1 / (z_k - z_j)), N = 1 / g the Newton step of
    the continuant (`_det_phase`); z_k freezes for good once its step is at
    most EPS (|z_k| + ||T||_F).  Returns all once all are frozen or, with
    `lowest` = L < n, the lowest L once they are frozen and `_count_below`
    finds exactly L eigenvalues left of the line midway to the next real part.
    Past 4 (MAX_SWEEPS + n) steps it raises EigenConvergenceError; a multiple
    eigenvalue is approached linearly (~80 steps on a nilpotent 3 x 3 block).
    """
    n = d.size
    norm = _norm(np.abs(np.concatenate((d, e, e))))
    edges = np.abs(np.concatenate(([0.0], e, [0.0])))
    radius = float((np.abs(d - d.mean()) + edges[:-1] + edges[1:]).max())
    # the first angle is off the real axis, so the points have no mirror symmetry
    z = d.mean() + radius * np.exp(1j * (2.0 * math.pi * np.arange(n) / n + 0.7))
    frozen = np.zeros(n, dtype=bool)
    d_list, e2 = d.tolist(), (e * e).tolist()
    tried = 0
    for _ in range(4 * (MAX_SWEEPS + n)):
        moving = np.flatnonzero(~frozen)
        pull = np.empty(moving.size, dtype=complex)
        with np.errstate(all="ignore"):
            for lo in range(0, moving.size, ABERTH_CHUNK):
                rows = moving[lo : lo + ABERTH_CHUNK]
                diff = z[rows, None] - z
                diff[np.arange(rows.size), rows] = math.inf
                pull[lo : lo + ABERTH_CHUNK] = (1.0 / diff).sum(axis=1)
            # g is infinite where det(T - z_k) = 0, and NaN where an earlier
            # row of the continuant vanishes: that point stays, unfrozen
            g = _det_phase(d_list, e2, z[moving])[1]
            newton = np.where(np.isinf(g), 0.0, 1.0 / g)
            step = newton / (1.0 - newton * pull)
            usable = np.isfinite(step)
            z[moving[usable]] -= step[usable]
            frozen[moving] = np.abs(step) <= EPS * (np.abs(z[moving]) + norm)
        order = _order(z)
        if frozen.all():
            return z[order]
        # the count is tried again only once more points have frozen
        if lowest is not None and lowest < n and frozen[order[:lowest]].all() and frozen.sum() > tried:
            tried = frozen.sum()
            x, right = z.real[order[lowest - 1]], z.real[order[lowest]]
            line = 0.5 * (x + right)
            if right - x > COUNT_TIE_REL * abs(x):
                if _count_below(d, e, line, line - x, z[frozen]) == lowest:
                    return z[order[:lowest]]
    raise EigenConvergenceError(
        f"Aberth iteration on a {n}-row segment did not converge in {4 * (MAX_SWEEPS + n)} steps")


def tridiagonal_eigenvalues(t, lowest=None):
    """All eigenvalues of a Tridiagonal, sorted by `_order`, or with `lowest`
    only the first `lowest` of them.

    The matrix splits wherever a product upper[k] * lower[k] is negligible by
    QL's deflation test; at an exact zero it is block triangular.  Each
    unreduced segment is diagonally similar to the complex symmetric
    tridiagonal with off-diagonal sqrt(upper[k] * lower[k]), which implicit QL
    with complex orthogonal rotations keeps in that form at O(n) work per
    sweep (Cullum & Willoughby, SIAM J. Matrix Anal. Appl. 17 (1996) 83).  A
    segment on which QL breaks down goes to `_aberth` instead.

    With `lowest`, QL on each segment stops once the values it has deflated
    provably include the segment's `lowest` of smallest real part, by
    Bendixson's theorem or by counting the eigenvalues left of a line (see
    `_ql_symmetric`).  The result is the first `lowest` values of the full
    solve, unless that solve would break down on a segment only after the
    point where this one stopped, and go to `_aberth` there.
    """
    scale, scaled = _radix_scaled(t)
    if scale != 1.0:
        return tridiagonal_eigenvalues(scaled, lowest) / scale
    n = t.size
    floor = EPS * t.norm()
    offdiag = _symmetric_offdiagonal(t)
    thresh = DEFLATION_REL * (np.abs(t.diag[:-1]) + np.abs(t.diag[1:]))
    thresh[thresh == 0.0] = floor
    cuts = np.flatnonzero(np.abs(offdiag) <= thresh).tolist()
    eig = []
    lo = 0
    for hi in cuts + [n - 1]:
        hi += 1
        if hi - lo == 1:
            eig.append(t.diag[lo])
        else:
            d = t.diag[lo:hi].tolist()
            e = offdiag[lo : hi - 1].tolist() + [0j]
            try:
                eig.extend(_ql_symmetric(d, e, floor, lowest))
            except _QLBreakdown:
                eig.extend(_aberth(t.diag[lo:hi], offdiag[lo : hi - 1], lowest))
        lo = hi
    eig = np.array(eig, dtype=complex)
    return eig[_order(eig)][:lowest]


@dataclass(frozen=True)
class TridiagonalLU:
    """P T = L U with partial pivoting for a Tridiagonal T (LAPACK gttrf layout).

    L is unit lower bidiagonal with multipliers `lower`; U has the diagonal
    `diag` and two superdiagonals `upper`, `upper2` (fill-in from row swaps);
    `swapped[k]` records whether rows k and k+1 were exchanged.
    """

    lower: list
    diag: list
    upper: list
    upper2: list
    swapped: list

    def solve(self, b):
        """x with T x = b, in O(n)."""
        dl, d, du, du2 = self.lower, self.diag, self.upper, self.upper2
        x = np.asarray(b, dtype=complex).tolist()
        n = len(d)
        for k in range(n - 1):
            if self.swapped[k]:
                x[k], x[k + 1] = x[k + 1], x[k] - dl[k] * x[k + 1]
            else:
                x[k + 1] -= dl[k] * x[k]
        x[n - 1] /= d[n - 1]
        if n > 1:
            x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
        for k in range(n - 3, -1, -1):
            x[k] = (x[k] - du[k] * x[k + 1] - du2[k] * x[k + 2]) / d[k]
        return np.array(x, dtype=complex)


def tridiagonal_lu(t, pivot_floor=0.0):
    """O(n) LU with partial pivoting of a Tridiagonal; pivots of modulus at most
    pivot_floor are lifted to it (inverse iteration), or raise when it is 0."""
    return _lu_factor(t.lower.tolist(), t.diag.tolist(), t.upper.tolist(), pivot_floor)


def _lu_factor(dl, d, du, pivot_floor):
    """`tridiagonal_lu` of the tridiagonal with bands dl, d, du (lists of
    complex, overwritten and kept by the result)."""
    n = len(d)
    du2 = [0j] * max(n - 2, 0)
    swapped = [False] * (n - 1)
    for k in range(n - 1):
        pivot, sub = d[k], dl[k]
        if abs(pivot) >= abs(sub):
            if abs(pivot) <= pivot_floor:
                pivot = d[k] = _lifted_pivot(pivot, pivot_floor, k)
            fact = sub / pivot
            d[k + 1] -= fact * du[k]
        else:
            if abs(sub) <= pivot_floor:
                sub = _lifted_pivot(sub, pivot_floor, k)
            fact = pivot / sub
            d[k] = sub
            du[k], d[k + 1] = d[k + 1], du[k] - fact * d[k + 1]
            if k < n - 2:
                du2[k] = du[k + 1]
                du[k + 1] = -fact * du[k + 1]
            swapped[k] = True
        dl[k] = fact
    d[n - 1] = _lifted_pivot(d[n - 1], pivot_floor, n - 1)
    return TridiagonalLU(dl, d, du, du2, swapped)


@functools.lru_cache(maxsize=8)
def _start_vector(n):
    """Inverse iteration's seeded unit start vector of size n, read-only; it is
    drawn once per size and shared by every call."""
    rng = np.random.default_rng(1914)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start /= math.sqrt(float((np.abs(start) ** 2).sum()))
    start.flags.writeable = False
    return start


def tridiagonal_eigenvectors(t, lams):
    """Unit right eigenvectors of a Tridiagonal for approximate eigenvalues, as
    the columns of an (n, len(lams)) array, by inverse iteration on the O(n)
    LU of t - lam for each lam in lams.

    Each is accepted within EIGENVECTOR_MAX_ITER solves when ||(t - lam) v||
    <= EIGENVECTOR_TOL * ||t||_F; otherwise EigenConvergenceError is raised
    with the best residual achieved.  Pivots are lifted to EPS times the
    largest modulus of t - lam (EPS when t - lam is 0), and t and lam are
    radix-scaled first, so the result does not depend on the scale of t.

    The scaling and ||t||_F are computed once per call, as LAPACK's xSTEIN
    does, and the seeded start vector once per size, so each shift costs
    little more than its LU and solves; each column is what a call with its
    lam alone returns.
    """
    radix, t = _radix_scaled(t)
    tol = EIGENVECTOR_TOL * (t.norm() or 1.0)
    n = t.size
    lower, upper = t.lower.tolist(), t.upper.tolist()
    offdiag = float(np.abs(np.concatenate((t.lower, t.upper))).max(initial=0.0))
    start = _start_vector(n)
    vectors = np.empty((n, len(lams)), dtype=complex)
    for k, lam in enumerate(lams):
        diag = t.diag - (complex(lam) * radix if radix != 1.0 else complex(lam))
        if not np.isfinite(diag).all():
            raise ValueError("matrix entries must be finite")
        floor = EPS * (max(float(np.abs(diag).max()), offdiag) or 1.0)
        lu = _lu_factor(lower[:], diag.tolist(), upper[:], floor)
        v = start
        best_res = math.inf
        for _ in range(EIGENVECTOR_MAX_ITER):
            w = lu.solve(v)
            # near a defective eigenvalue w can be too large to square
            wmax = float(np.abs(w).max())
            if wmax == 0.0 or not np.isfinite(wmax):
                break
            w = w / wmax
            v = w / math.sqrt(float((np.abs(w) ** 2).sum()))
            res = _norm(np.abs(_band_matvec(diag, t.lower, t.upper, v)))
            best_res = min(best_res, res)
            if res <= tol:
                break
        if not best_res <= tol:
            best_res /= radix
            raise EigenConvergenceError(f"inverse iteration did not reach tol {EIGENVECTOR_TOL:g}; "
                                        f"best residual {best_res:.3e}", residual=best_res)
        vectors[:, k] = v
    return vectors
