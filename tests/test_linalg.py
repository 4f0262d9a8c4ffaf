import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestHessenberg:
    """The Householder reduction inside the dense `eigenvalues`."""

    def test_diagonal_fixed_point(self):
        mat = np.diag(np.array([1.0, 2.0, -3.0, 4.0j]))
        assert np.array_equal(linalg._hessenberg_reduce(mat), mat)

    def test_hessenberg_input_moduli_preserved(self):
        rng = np.random.default_rng(103)
        mat = np.triu(random_complex(rng, 8), -1)
        h = linalg._hessenberg_reduce(mat)
        assert np.abs(np.abs(h) - np.abs(mat)).max() < 1e-12

    def test_reconstruction(self):
        # a unitary similarity keeps the Frobenius norm and the trace
        rng = np.random.default_rng(107)
        mat = random_complex(rng, 20)
        h = linalg._hessenberg_reduce(mat)
        norm = linalg.frobenius_norm(mat)
        assert abs(linalg.frobenius_norm(h) - norm) < 1e-12 * norm
        assert abs(np.trace(h) - np.trace(mat)) < 1e-12 * norm
        assert np.abs(np.tril(h, -2)).max() == 0.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            linalg.eigenvalues(np.zeros((2, 3)))


class TestEigenvalues:
    def test_nilpotent(self):
        eig = linalg.eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.abs(eig).max() == 0.0

    def test_rotation_generator(self):
        eig = linalg.eigenvalues(np.array([[0, 1], [-1, 0]], dtype=complex))
        assert np.abs(eig - np.array([-1j, 1j])).max() < 1e-14

    def test_against_characteristic_polynomial(self):
        rng = np.random.default_rng(109)
        for _ in range(12):
            mat = rng.integers(-4, 5, size=(6, 6)) + 1j * rng.integers(-4, 5, size=(6, 6))
            mat = mat.astype(complex)
            eig = linalg.eigenvalues(mat)
            assert greedy_match_distance(eig, charpoly_roots(mat)) < 1e-8

    @pytest.mark.parametrize("size", [10, 40, 100])
    def test_trace(self, size):
        rng = np.random.default_rng(113 + size)
        mat = random_complex(rng, size)
        eig = linalg.eigenvalues(mat)
        norm = linalg.frobenius_norm(mat)
        assert abs(eig.sum() - np.trace(mat)) < 1e-10 * norm

    def test_similarity_invariance(self):
        rng = np.random.default_rng(127)
        mat = random_complex(rng, 15)
        mix = np.eye(15) + 0.4 * random_complex(rng, 15) / math.sqrt(15)
        conjugated = mix @ mat @ np.linalg.inv(mix)
        assert greedy_match_distance(
            linalg.eigenvalues(conjugated), linalg.eigenvalues(mat)
        ) < 1e-8

    def test_triangular_shortcut_exact(self):
        rng = np.random.default_rng(131)
        mat = np.triu(random_complex(rng, 12))
        eig = linalg.eigenvalues(mat)
        assert sorted(eig.tolist(), key=lambda z: (z.real, z.imag)) == sorted(
            np.diagonal(mat).tolist(), key=lambda z: (z.real, z.imag)
        )

    def test_lower_triangular_shortcut(self):
        mat = np.tril(np.arange(9, dtype=complex).reshape(3, 3) + 1)
        eig = linalg.eigenvalues(mat)
        assert set(eig.tolist()) == set(np.diagonal(mat).tolist())

    def test_balance_preserves_spectrum(self):
        rng = np.random.default_rng(137)
        mat = random_complex(rng, 10)
        mat[0] *= 1e6
        mat[:, 0] *= 1e-6
        balanced = linalg.balance(mat)
        assert greedy_match_distance(
            linalg.eigenvalues(balanced), linalg.eigenvalues(mat)
        ) < 1e-9

    def test_defective_jordan_block(self):
        mat = np.diag(np.ones(5), 1).astype(complex)
        mat += 2.0 * np.eye(6)
        eig = linalg.eigenvalues(mat)
        # defective eigenvalue splits into a cluster of radius ~eps^(1/6)
        assert np.abs(eig - 2.0).max() < 1e-2
        assert abs(eig.sum() - 12.0) < 1e-10

    def test_sorted_output(self):
        rng = np.random.default_rng(139)
        eig = linalg.eigenvalues(random_complex(rng, 12))
        keys = [(z.real, z.imag) for z in eig]
        assert keys == sorted(keys)


def random_tridiagonal(rng, n):
    return linalg.Tridiagonal(*(rng.normal(size=k) + 1j * rng.normal(size=k)
                                for k in (n, n - 1, n - 1)))


class TestEigenvector:
    """Inverse iteration in `tridiagonal_eigenvector`."""

    def test_diagonal_basis_vector(self):
        t = linalg.Tridiagonal([1.0, 3.0, -2.0], [0.0, 0.0], [0.0, 0.0])
        vec = linalg.tridiagonal_eigenvector(t, 3.0)
        assert abs(abs(vec[1]) - 1.0) < 1e-12
        assert np.abs(vec[[0, 2]]).max() < 1e-12

    def test_upper_triangular(self):
        t = linalg.Tridiagonal([1.0, 4.0], [0.0], [2.0])
        vec = linalg.tridiagonal_eigenvector(t, 4.0)
        residual = np.abs(t.matvec(vec) - 4.0 * vec).max()
        assert residual < 1e-12 * t.norm()

    def test_random_residuals(self):
        rng = np.random.default_rng(149)
        t = random_tridiagonal(rng, 25)
        for lam in linalg.tridiagonal_eigenvalues(t)[:5]:
            vec = linalg.tridiagonal_eigenvector(t, lam)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
            assert np.linalg.norm(t.matvec(vec) - lam * vec) < 1e-10 * t.norm()

    def test_far_from_spectrum_fails_with_residual(self):
        t = linalg.Tridiagonal([1.0, 2.0, 3.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(linalg.EigenConvergenceError) as info:
            linalg.tridiagonal_eigenvector(t, 100.0, tol=1e-14)
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
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            linalg.eigenvalues(np.array([[np.nan, 0], [0, 1]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            linalg.eigenvalues(np.zeros((0, 0)))


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
        assert linalg.frobenius_norm(a) == float(np.sqrt((np.abs(a) ** 2).sum()))

    def test_norm_does_not_overflow(self, no_warnings):
        assert linalg.frobenius_norm([1e200, 1e200]) == 1e200 * math.sqrt(2.0)
        assert linalg.frobenius_norm(np.full((3, 3), 1e300j)) == 3e300

    def test_householder_on_huge_matrix(self, no_warnings):
        rng = np.random.default_rng(4)
        huge = random_complex(rng, 6) * 2.0 ** 900
        h = linalg._hessenberg_reduce(huge)
        assert np.isfinite(h).all() and np.abs(np.tril(h, -2)).max() == 0.0
        # the reflections are unitary: the norm is kept
        norm = linalg.frobenius_norm(huge)
        assert abs(linalg.frobenius_norm(h) - norm) < 1e-13 * norm

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
    def test_dense_scaled_exactly(self, no_warnings, power):
        rng = np.random.default_rng(8)
        a = random_complex(rng, 8)
        a = a / float(np.abs(a).max()) * 0.75
        expected = linalg.eigenvalues(a) * 2.0 ** power
        assert np.array_equal(linalg.eigenvalues(a * 2.0 ** power), expected)

    def test_eigenvector_of_huge_tridiagonal(self, no_warnings):
        rng = np.random.default_rng(10)
        bands = [(rng.normal(size=k) + 1j * rng.normal(size=k)) * 1e200 for k in (10, 9, 9)]
        t = linalg.Tridiagonal(*bands)
        lam = linalg.tridiagonal_eigenvalues(t)[0]
        v = linalg.tridiagonal_eigenvector(t, lam)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
