"""Complex eigensolvers for the parity blocks of quadratic truncations.

Every parity block is a `Tridiagonal`.  Its eigenvalues come from implicit QL
with complex orthogonal rotations on the symmetrized matrix, O(n) per sweep;
its eigenvectors from inverse iteration on an O(n) LU with partial pivoting.

The dense `eigenvalues` (diagonal balancing, Householder reduction to upper
Hessenberg form, single-shift QR with Wilkinson shifts, deflating one or two
eigenvalues at a time) has two roles only: it solves a segment on which QL
breaks down, and the tests use it as the reference for the tridiagonal solver.

Matrices are plain numpy complex128 arrays (bands for a `Tridiagonal`); numpy
is used for storage and vectorized arithmetic only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

DEFLATION_REL = 1e-14
EPS = 2.220446049250313e-16
# largest |c| or |s| accepted in a complex orthogonal QL rotation
ROTATION_BOUND = 1e4
# The eigenvalue solvers scale a matrix whose largest modulus lies outside
# [SCALE_MIN, SCALE_MAX] by a power of two towards 1, so that squares and
# products of its entries neither overflow nor underflow; other matrices are
# solved as given.
SCALE_MIN = 2.0 ** -256
SCALE_MAX = 2.0 ** 256

__all__ = [
    "EigenConvergenceError",
    "as_cmatrix",
    "frobenius_norm",
    "balance",
    "eigenvalues",
    "Tridiagonal",
    "TridiagonalLU",
    "tridiagonal_eigenvalues",
    "tridiagonal_lu",
    "tridiagonal_eigenvector",
]


class EigenConvergenceError(RuntimeError):
    """QR or inverse iteration failed to converge.

    Carries how far the computation got: eigenvalues already deflated for the
    QR loop, or the best residual achieved for inverse iteration.
    """

    def __init__(self, message, deflated=None, residual=None):
        super().__init__(message)
        self.deflated = deflated
        self.residual = residual


def as_cmatrix(m):
    """Validate and copy into a non-empty square complex128 array."""
    a = np.array(m, dtype=complex, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimensions must be positive")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _norm(modulus):
    """sqrt(sum(modulus ** 2)) of non-negative entries, without overflow.

    Bit for bit the plain formula whenever that is finite; when the sum of
    squares overflows, the entries are divided by the largest one first.
    """
    with np.errstate(over="ignore"):
        total = float((modulus ** 2).sum())
    if total == math.inf:
        big = float(modulus.max())
        if big < math.inf:
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


def balance(m, max_sweeps=10):
    """Diagonal similarity scaling by powers of two equalizing row/col norms.

    Leaves the spectrum unchanged and introduces no rounding error since the
    scale factors are exact powers of the radix.
    """
    a = as_cmatrix(m)
    n = a.shape[0]
    for _ in range(max_sweeps):
        changed = False
        for i in range(n):
            r = np.abs(a[i]).sum() - abs(a[i, i])
            c = np.abs(a[:, i]).sum() - abs(a[i, i])
            if r == 0.0 or c == 0.0:
                continue
            f = 2.0 ** round(math.log2(math.sqrt(r / c)))
            if f != 1.0 and (r / f + c * f) < 0.95 * (r + c):
                a[i, :] /= f
                a[:, i] *= f
                changed = True
        if not changed:
            break
    return a


def _householder_vector(col):
    """Unit reflector v with (I - 2 v v+) col = alpha e1, or None if skippable."""
    norm = _norm(np.abs(col))
    if norm == 0.0:
        return None
    a0 = col[0]
    phase = a0 / abs(a0) if a0 != 0 else 1.0
    v = col.copy()
    v[0] += phase * norm
    vnorm = _norm(np.abs(v))
    if vnorm == 0.0:
        return None
    return v / vnorm


def _hessenberg_reduce(a):
    """Upper Hessenberg H = Q+ a Q by Householder reflections (Q not formed)."""
    h = a.copy()
    for k in range(h.shape[0] - 2):
        v = _householder_vector(h[k + 1 :, k])
        if v is None:
            continue
        h[k + 1 :, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1 :, k:])
        h[:, k + 1 :] -= 2.0 * np.outer(h[:, k + 1 :] @ v, v.conj())
        h[k + 2 :, k] = 0.0
    return h


def _eig2(a, b, c, d):
    """Eigenvalues of [[a, b], [c, d]], larger-magnitude root first."""
    mid = 0.5 * (a + d)
    q = cmath.sqrt(0.25 * (a - d) ** 2 + b * c)
    l1 = mid + q if abs(mid + q) >= abs(mid - q) else mid - q
    det = a * d - b * c
    l2 = det / l1 if l1 != 0 else mid - q
    return l1, l2


def _is_triangular(a):
    return not np.tril(a, -1).any() or not np.triu(a, 1).any()


def _qr_sweep(h, lo, hi, shift):
    """One implicit-shift QR step (bulge chase) on the block h[lo:hi, lo:hi].

    The shift enters only the first rotation, so large shifts never touch
    entries far from the bulge; each rotation is a similarity applied
    immediately on both sides.
    """
    x = h[lo, lo] - shift
    z = h[lo + 1, lo]
    for k in range(lo, hi - 1):
        r = math.hypot(abs(x), abs(z))
        if r == 0.0:
            c, s = 1.0 + 0j, 0j
        else:
            c, s = x.conjugate() / r, z.conjugate() / r
        col0 = k - 1 if k > lo else lo
        top = h[k, col0:hi].copy()
        bot = h[k + 1, col0:hi]
        h[k, col0:hi] = c * top + s * bot
        h[k + 1, col0:hi] = -s.conjugate() * top + c.conjugate() * bot
        if k > lo:
            h[k + 1, k - 1] = 0.0
        row_end = min(k + 3, hi)
        left = h[lo:row_end, k].copy()
        right = h[lo:row_end, k + 1]
        h[lo:row_end, k] = c.conjugate() * left + s.conjugate() * right
        h[lo:row_end, k + 1] = -s * left + c * right
        if k + 2 < hi:
            x = h[k + 1, k]
            z = h[k + 2, k]


def eigenvalues(m, max_iter=30, tol=1e-12):
    """All eigenvalues, sorted by real part then imaginary part.

    max_iter bounds the QR sweeps spent per deflation; exceeding it raises
    EigenConvergenceError carrying the number of eigenvalues already found.
    Triangular input short-circuits to the diagonal.
    """
    a = as_cmatrix(m)
    n = a.shape[0]
    if n == 1 or _is_triangular(a):
        return _sorted_eigs(np.diagonal(a).astype(complex))
    scale = _radix_scale(np.abs(a))
    if scale != 1.0:
        return eigenvalues(a * scale, max_iter=max_iter, tol=tol) / scale
    h = _hessenberg_reduce(balance(a))
    hnorm = frobenius_norm(h)
    # a tighter requested tolerance postpones deflation; the default keeps
    # the standard 1e-14 relative threshold
    deflation_rel = min(DEFLATION_REL, max(float(tol), EPS))
    eig = np.empty(n, dtype=complex)
    hi = n
    sweeps = 0
    while hi > 0:
        for k in range(1, hi):
            thresh = deflation_rel * (abs(h[k - 1, k - 1]) + abs(h[k, k]))
            if thresh == 0.0:
                thresh = EPS * hnorm
            if abs(h[k, k - 1]) <= thresh:
                h[k, k - 1] = 0.0
        lo = hi - 1
        while lo > 0 and h[lo, lo - 1] != 0.0:
            lo -= 1
        if lo == hi - 1:
            eig[hi - 1] = h[hi - 1, hi - 1]
            hi -= 1
            sweeps = 0
            continue
        if lo == hi - 2:
            eig[hi - 2], eig[hi - 1] = _eig2(
                h[lo, lo], h[lo, lo + 1], h[lo + 1, lo], h[lo + 1, lo + 1]
            )
            hi -= 2
            sweeps = 0
            continue
        if sweeps >= max_iter:
            raise EigenConvergenceError(
                f"QR iteration stalled on block [{lo}, {hi}) after {sweeps} sweeps",
                deflated=n - hi,
            )
        sweeps += 1
        if sweeps % 10 == 0:
            # exceptional shift to break symmetry-induced cycles
            shift = h[hi - 1, hi - 1] + 0.75 * abs(h[hi - 1, hi - 2])
        else:
            l1, l2 = _eig2(
                h[hi - 2, hi - 2], h[hi - 2, hi - 1], h[hi - 1, hi - 2], h[hi - 1, hi - 1]
            )
            corner = h[hi - 1, hi - 1]
            shift = l1 if abs(l1 - corner) <= abs(l2 - corner) else l2
        _qr_sweep(h, lo, hi, shift)
    return _sorted_eigs(eig)


def _sorted_eigs(eig):
    order = np.lexsort((eig.imag, eig.real))
    return eig[order]


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

    def matvec(self, v):
        """T v for a vector of shape (n,) or each column of an (n, k) array."""
        shape = (-1,) + (1,) * (v.ndim - 1)
        out = self.diag.reshape(shape) * v
        out[:-1] += self.upper.reshape(shape) * v[1:]
        out[1:] += self.lower.reshape(shape) * v[:-1]
        return out

    def dense(self):
        n = self.size
        a = np.diag(self.diag)
        a[np.arange(1, n), np.arange(n - 1)] = self.lower
        a[np.arange(n - 1), np.arange(1, n)] = self.upper
        return a


class _QLBreakdown(Exception):
    """Complex orthogonal QL stalled or needed an oversized rotation."""


def _ql_symmetric(d, e, deflation_rel, floor, max_iter, lowest=None):
    """Eigenvalues of the complex symmetric tridiagonal with diagonal d and
    off-diagonal e (e[k] couples k and k+1; e[-1] = 0), by implicit QL.

    Both lists are overwritten.  The rotations satisfy c^2 + s^2 = 1 but are not
    unitary: one with |c| or |s| above ROTATION_BOUND, or more than max_iter
    sweeps for one eigenvalue, raises _QLBreakdown.

    With `lowest`, returns d[:found] as soon as the values deflated so far
    provably hold the `lowest` of smallest real part.  By Bendixson's theorem
    every eigenvalue of the trailing block T' has real part at least the
    smallest eigenvalue of its Hermitian part, which for a complex symmetric T'
    is Re T'; the Gershgorin bound of that real tridiagonal, less floor, must
    exceed the lowest-th smallest real part found.  Later sweeps never touch
    d[:found], so the values returned are those of the full solve.
    """
    n = len(d)
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
            if sweeps == max_iter:
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
            x = sorted(v.real for v in d[:found])[lowest - 1]
            # Gershgorin rows of Re T' (e[lo], below the deflation threshold, is
            # dropped as the sweeps drop it), stopping at the first that fails
            rows = zip(d[found:], chain((0.0,), e[found:]), e[found:])
            if all(v.real - abs(a.real) - abs(b.real) - floor > x for v, a, b in rows):
                return d[:found]
    return d


def tridiagonal_eigenvalues(t, max_iter=30, tol=1e-12, lowest=None):
    """All eigenvalues of a Tridiagonal, sorted like `eigenvalues`, or with
    `lowest` only the first `lowest` of them.

    The matrix splits wherever a product upper[k] * lower[k] is negligible by
    the deflation test of `eigenvalues`; at an exact zero it is block
    triangular.  Each unreduced segment is diagonally similar to the complex
    symmetric tridiagonal with off-diagonal sqrt(upper[k] * lower[k]), which
    implicit QL with complex orthogonal rotations keeps in that form at O(n)
    work per sweep (Cullum & Willoughby, SIAM J. Matrix Anal. Appl. 17 (1996)
    83).  A segment on which QL breaks down goes to the dense QR instead.

    With `lowest`, QL on each segment stops once the values it has deflated
    provably include the segment's `lowest` of smallest real part (see
    `_ql_symmetric`).  The result is the first `lowest` values of the full
    solve, unless that solve would break down on a segment only after the
    point where this one stopped, and go to the dense QR there.
    """
    n = t.size
    scale = _radix_scale(np.abs(np.concatenate((t.diag, t.lower, t.upper))))
    if scale != 1.0:
        scaled = Tridiagonal(t.diag * scale, t.lower * scale, t.upper * scale)
        return tridiagonal_eigenvalues(scaled, max_iter=max_iter, tol=tol,
                                       lowest=lowest) / scale
    deflation_rel = min(DEFLATION_REL, max(float(tol), EPS))
    floor = EPS * t.norm()
    # +-sqrt(upper * lower), formed without overflowing the product
    offdiag = np.sqrt(t.upper) * np.sqrt(t.lower)
    thresh = deflation_rel * (np.abs(t.diag[:-1]) + np.abs(t.diag[1:]))
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
                eig.extend(_ql_symmetric(d, e, deflation_rel, floor, max_iter, lowest))
            except _QLBreakdown:
                segment = Tridiagonal(t.diag[lo:hi], t.lower[lo : hi - 1], t.upper[lo : hi - 1])
                eig.extend(eigenvalues(segment.dense(), max_iter=max_iter, tol=tol))
        lo = hi
    return _sorted_eigs(np.array(eig, dtype=complex))[:lowest]


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
    n = t.size
    dl = t.lower.tolist()
    d = t.diag.tolist()
    du = t.upper.tolist()
    du2 = [0j] * max(n - 2, 0)
    swapped = [False] * (n - 1)
    for k in range(n - 1):
        if abs(d[k]) >= abs(dl[k]):
            d[k] = _lifted_pivot(d[k], pivot_floor, k)
            fact = dl[k] / d[k]
            d[k + 1] -= fact * du[k]
        else:
            pivot = _lifted_pivot(dl[k], pivot_floor, k)
            fact = d[k] / pivot
            d[k] = pivot
            du[k], d[k + 1] = d[k + 1], du[k] - fact * d[k + 1]
            if k < n - 2:
                du2[k] = du[k + 1]
                du[k + 1] = -fact * du[k + 1]
            swapped[k] = True
        dl[k] = fact
    d[n - 1] = _lifted_pivot(d[n - 1], pivot_floor, n - 1)
    return TridiagonalLU(dl, d, du, du2, swapped)


def tridiagonal_eigenvector(t, lam, tol=1e-12, max_iter=20):
    """Unit right eigenvector of a Tridiagonal for an approximate eigenvalue, by
    inverse iteration on the O(n) LU of t - lam.

    Accepts when ||(t - lam) v|| <= tol * ||t||_F; otherwise raises
    EigenConvergenceError with the best residual achieved.
    """
    scale = t.norm()
    if scale == 0.0:
        scale = 1.0
    shifted = Tridiagonal(t.diag - complex(lam), t.lower, t.upper)
    bands = np.concatenate((shifted.diag, shifted.lower, shifted.upper))
    floor = EPS * max(1.0, float(np.abs(bands).max()))
    lu = tridiagonal_lu(shifted, pivot_floor=floor)
    rng = np.random.default_rng(1914)
    v = rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size)
    v /= math.sqrt(float((np.abs(v) ** 2).sum()))
    best_res = math.inf
    for _ in range(max_iter):
        w = lu.solve(v)
        # near a defective eigenvalue w can be too large to square
        wmax = float(np.abs(w).max())
        if wmax == 0.0 or not np.isfinite(wmax):
            break
        w = w / wmax
        v = w / math.sqrt(float((np.abs(w) ** 2).sum()))
        res = _norm(np.abs(shifted.matvec(v)))
        best_res = min(best_res, res)
        if res <= tol * scale:
            return v
    raise EigenConvergenceError(
        f"inverse iteration did not reach tol {tol:g}; best residual {best_res:.3e}",
        residual=best_res,
    )
