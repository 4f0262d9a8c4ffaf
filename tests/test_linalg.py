import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fock_reference import dense_tridiagonal
from hypothesis.extra.numpy import arrays

from nhosc import linalg


def charpoly_coeffs(mat):
    """det(lambda I - M) by cofactor expansion over polynomial coefficients.

    Entries are small Gaussian integers, so double-precision complex
    arithmetic is exact; coefficients returned ascending in lambda.
    """
    n = len(mat)

    def poly_add(p, q):
        out = [0j] * max(len(p), len(q))
        for i, c in enumerate(p):
            out[i] += c
        for i, c in enumerate(q):
            out[i] += c
        return out

    def poly_mul(p, q):
        out = [0j] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    def entry(i, j):
        if i == j:
            return [-complex(mat[i][j]), 1.0]
        return [-complex(mat[i][j])]

    def det(rows, cols):
        if len(rows) == 1:
            return entry(rows[0], cols[0])
        total = [0j]
        for pos, col in enumerate(cols):
            sign = 1 if pos % 2 == 0 else -1
            minor = det(rows[1:], cols[:pos] + cols[pos + 1 :])
            term = poly_mul(entry(rows[0], col), minor)
            if sign < 0:
                term = [-c for c in term]
            total = poly_add(total, term)
        return total

    return det(list(range(n)), list(range(n)))


def charpoly_roots(mat):
    import mpmath as mp

    coeffs = charpoly_coeffs(mat)
    with mp.workdps(40):
        roots = mp.polyroots([mp.mpc(c) for c in reversed(coeffs)], maxsteps=200)
    return np.array([complex(r) for r in roots])


def greedy_match_distance(found, expected):
    found = list(found)
    worst = 0.0
    for target in expected:
        best = min(range(len(found)), key=lambda i: abs(found[i] - target))
        worst = max(worst, abs(found[best] - target))
        found.pop(best)
    return worst


def random_tridiagonal(rng, n):
    return linalg.Tridiagonal(*(rng.normal(size=k) + 1j * rng.normal(size=k)
                                for k in (n, n - 1, n - 1)))


def graded(t, g):
    """D t D^-1 with D = diag(g^k): upper times g, lower divided by g."""
    return linalg.Tridiagonal(t.diag, t.lower / g, t.upper * g)


def broken_ql(*args):
    raise linalg._QLBreakdown


class TestEigenvalues:
    """`tridiagonal_eigenvalues` with QL broken down on every segment, so that
    Aberth's iteration (`_aberth`) solves each segment of more than one row."""

    @pytest.fixture(autouse=True)
    def breakdown(self, monkeypatch):
        monkeypatch.setattr(linalg, "_ql_symmetric", broken_ql)

    def test_nilpotent(self):
        eig = linalg.tridiagonal_eigenvalues(linalg.Tridiagonal([0, 0], [0], [1]))
        assert np.abs(eig).max() == 0.0

    @pytest.mark.parametrize("shift", [0.0, -1.0, 1j])
    def test_nilpotent_symmetric_cycle(self, monkeypatch, shift):
        # symmetrized, a complex symmetric nilpotent matrix (plus shift): a
        # triple eigenvalue, which Aberth's points approach only linearly
        t = linalg.Tridiagonal([shift] * 3, [1 - 1j, 1 - 1j], [-1j, 1j])
        bound = 10 * np.finfo(float).eps ** (1 / 3) * t.norm()
        solved = [linalg.tridiagonal_eigenvalues(t)]
        monkeypatch.undo()
        solved.append(linalg.tridiagonal_eigenvalues(t))
        for eig in solved:
            assert eig.size == 3 and np.abs(eig - shift).max() <= bound

    def test_rotation_generator(self):
        eig = linalg.tridiagonal_eigenvalues(linalg.Tridiagonal([0, 0], [-1], [1]))
        assert np.abs(eig - np.array([-1j, 1j])).max() < 1e-14

    def test_against_characteristic_polynomial(self):
        rng = np.random.default_rng(109)

        def gaussian_integers(k):
            return rng.integers(-4, 5, size=k) + 1j * rng.integers(-4, 5, size=k)

        for _ in range(12):
            t = linalg.Tridiagonal(*(gaussian_integers(k) for k in (6, 5, 5)))
            eig = linalg.tridiagonal_eigenvalues(t)
            assert greedy_match_distance(eig, charpoly_roots(dense_tridiagonal(t))) < 1e-8

    @pytest.mark.parametrize("size", [10, 40, 100])
    def test_trace(self, size):
        rng = np.random.default_rng(113 + size)
        t = random_tridiagonal(rng, size)
        eig = linalg.tridiagonal_eigenvalues(t)
        assert abs(eig.sum() - t.diag.sum()) < 1e-10 * t.norm()

    def test_similarity_invariance(self):
        # a graded copy is diagonally similar, with bands of very unequal size
        rng = np.random.default_rng(127)
        t = random_tridiagonal(rng, 15)
        assert greedy_match_distance(
            linalg.tridiagonal_eigenvalues(graded(t, 1e6)), linalg.tridiagonal_eigenvalues(t)
        ) < 1e-8

    def test_triangular_shortcut_exact(self):
        # a vanishing band leaves every subdiagonal entry 0: all deflate at once
        rng = np.random.default_rng(131)
        t = random_tridiagonal(rng, 12)
        t = linalg.Tridiagonal(t.diag, np.zeros(11), t.upper)
        eig = linalg.tridiagonal_eigenvalues(t)
        assert sorted(eig.tolist(), key=lambda z: (z.real, z.imag)) == sorted(
            t.diag.tolist(), key=lambda z: (z.real, z.imag)
        )

    def test_lower_triangular_shortcut(self):
        t = linalg.Tridiagonal([1.0, 5.0, 9.0], [4.0, 8.0], [0.0, 0.0])
        eig = linalg.tridiagonal_eigenvalues(t)
        assert set(eig.tolist()) == set(t.diag.tolist())

    def test_defective_jordan_block(self):
        t = linalg.Tridiagonal(np.full(6, 2.0), np.zeros(5), np.ones(5))
        assert np.array_equal(linalg.tridiagonal_eigenvalues(t), np.full(6, 2.0))
        # a subdiagonal eps splits it into 2 + 2 sqrt(eps) cos(k pi / 7), which
        # the symmetrized matrix, normal here, resolves to rounding
        t = linalg.Tridiagonal(np.full(6, 2.0), np.full(5, 1e-15), np.ones(5))
        expected = 2.0 + 2.0 * math.sqrt(1e-15) * np.cos(np.arange(6, 0, -1) * math.pi / 7)
        assert np.abs(linalg.tridiagonal_eigenvalues(t) - expected).max() < 1e-14

    def test_sorted_output(self):
        rng = np.random.default_rng(139)
        eig = linalg.tridiagonal_eigenvalues(random_tridiagonal(rng, 12))
        keys = [(z.real, z.imag) for z in eig]
        assert keys == sorted(keys)


class TestEigenvector:
    """Inverse iteration in `tridiagonal_eigenvectors`."""

    def test_diagonal_basis_vector(self):
        t = linalg.Tridiagonal([1.0, 3.0, -2.0], [0.0, 0.0], [0.0, 0.0])
        vec = linalg.tridiagonal_eigenvectors(t, [3.0])[:, 0]
        assert abs(abs(vec[1]) - 1.0) < 1e-12
        assert np.abs(vec[[0, 2]]).max() < 1e-12

    def test_upper_triangular(self):
        t = linalg.Tridiagonal([1.0, 4.0], [0.0], [2.0])
        vec = linalg.tridiagonal_eigenvectors(t, [4.0])[:, 0]
        residual = np.abs(t.matvec(vec) - 4.0 * vec).max()
        assert residual < 1e-12 * t.norm()

    def test_random_residuals(self):
        rng = np.random.default_rng(149)
        t = random_tridiagonal(rng, 25)
        lams = linalg.tridiagonal_eigenvalues(t)[:5]
        for lam, vec in zip(lams, linalg.tridiagonal_eigenvectors(t, lams).T):
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
            assert np.linalg.norm(t.matvec(vec) - lam * vec) < 1e-10 * t.norm()

    def test_far_from_spectrum_fails_with_residual(self, monkeypatch):
        monkeypatch.setattr(linalg, "EIGENVECTOR_TOL", 1e-14)
        t = linalg.Tridiagonal([1.0, 2.0, 3.0], [0.0, 0.0], [0.0, 0.0])
        # 1.0 converges; the shift far from the spectrum still raises
        with pytest.raises(linalg.EigenConvergenceError) as info:
            linalg.tridiagonal_eigenvectors(t, [1.0, 100.0])
        assert info.value.residual is not None and info.value.residual > 0


class TestSolve:
    """`TridiagonalLU.solve`."""

    def test_residual(self):
        rng = np.random.default_rng(151)
        t = random_tridiagonal(rng, 30)
        rhs = rng.normal(size=30) + 1j * rng.normal(size=30)
        x = linalg.tridiagonal_lu(t).solve(rhs)
        assert np.abs(t.matvec(x) - rhs).max() < 1e-10 * t.norm()

    def test_singular_rejected(self):
        with pytest.raises(linalg.EigenConvergenceError, match="singular"):
            linalg.tridiagonal_lu(linalg.Tridiagonal([1.0, 1.0], [1.0], [1.0]))


class TestValidation:
    """The solvers take a Tridiagonal, which holds only finite, non-empty bands."""

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            linalg.Tridiagonal([np.nan, 1], [0], [0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            linalg.Tridiagonal([], [], [])


@pytest.fixture
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestOverflow:
    """Huge and tiny inputs: finite norms, and solves of an exactly scaled copy."""

    @given(arrays(complex, st.integers(1, 40),
                  elements=st.complex_numbers(max_magnitude=1e150, allow_nan=False,
                                              allow_infinity=False)))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_norm_is_the_plain_formula_when_finite(self, a):
        total = float((np.abs(a) ** 2).sum())
        if total >= sys.float_info.min:
            assert linalg.frobenius_norm(a) == math.sqrt(total)
        else:
            # the squares underflow: rescaled, so 0 only for the zero vector
            assert linalg.frobenius_norm(a) == pytest.approx(math.hypot(*np.abs(a)), rel=1e-14)

    def test_norm_does_not_overflow(self, no_warnings):
        assert linalg.frobenius_norm([1e200, 1e200]) == 1e200 * math.sqrt(2.0)
        assert linalg.frobenius_norm(np.full((3, 3), 1e300j)) == 3e300

    def test_norm_does_not_underflow(self, no_warnings):
        # every square is 0 or subnormal, so the plain formula reads 0 or less
        assert linalg.Tridiagonal([2.7e-216], [], []).norm() == 2.7e-216
        assert linalg.frobenius_norm([1e-170, 1e-170]) == 1e-170 * math.sqrt(2.0)
        assert linalg.frobenius_norm([0.0, 5e-324]) == 5e-324
        assert linalg.frobenius_norm([0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("power", [600, -600])
    def test_tridiagonal_scaled_exactly(self, no_warnings, power):
        rng = np.random.default_rng(7)
        bands = [rng.normal(size=k) + 1j * rng.normal(size=k) for k in (12, 11, 11)]
        # largest modulus in [1/2, 1): the solver's scaling maps the huge copy back onto t
        top = max(float(np.abs(band).max()) for band in bands)
        t = linalg.Tridiagonal(*(band / (2 * top) * 1.5 for band in bands))
        huge = linalg.Tridiagonal(*(band * 2.0 ** power for band in (t.diag, t.lower, t.upper)))
        expected = linalg.tridiagonal_eigenvalues(t) * 2.0 ** power
        assert np.array_equal(linalg.tridiagonal_eigenvalues(huge), expected)

    @pytest.mark.parametrize("power", [600, -600])
    def test_dense_scaled_exactly(self, monkeypatch, no_warnings, power):
        # the breakdown fallback, `_aberth`, sees the scaled copy mapped back onto t
        monkeypatch.setattr(linalg, "_ql_symmetric", broken_ql)
        rng = np.random.default_rng(8)
        t = random_tridiagonal(rng, 8)
        top = max(float(np.abs(band).max()) for band in (t.diag, t.lower, t.upper))
        t = t.scaled(0.75 / top)
        expected = linalg.tridiagonal_eigenvalues(t) * 2.0 ** power
        assert np.array_equal(linalg.tridiagonal_eigenvalues(t.scaled(2.0 ** power)), expected)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-80, 1e-8, 1e-3, 1.0, 1e80, 1e200])
    def test_eigenvector_at_every_scale(self, no_warnings, scale):
        rng = np.random.default_rng(10)
        t = random_tridiagonal(rng, 10).scaled(scale)
        # the residual is measured on a copy scaled exactly to modulus ~1
        unit = math.ldexp(1.0, -math.frexp(scale)[1])
        reference = t.scaled(unit)
        lams = linalg.tridiagonal_eigenvalues(t)
        for lam, v in zip(lams, linalg.tridiagonal_eigenvectors(t, lams).T):
            residual = np.linalg.norm(reference.matvec(v) - lam * unit * v)
            assert residual <= 1e-13 * reference.norm()

    def test_eigenvector_of_huge_tridiagonal(self, no_warnings):
        rng = np.random.default_rng(10)
        bands = [(rng.normal(size=k) + 1j * rng.normal(size=k)) * 1e200 for k in (10, 9, 9)]
        t = linalg.Tridiagonal(*bands)
        lam = linalg.tridiagonal_eigenvalues(t)[0]
        v = linalg.tridiagonal_eigenvectors(t, [lam])[:, 0]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
