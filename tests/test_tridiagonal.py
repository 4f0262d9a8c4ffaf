"""The tridiagonal eigensolver and O(n) LU against LAPACK, and Aberth's
fallback, which solves the same symmetrized segment as QL."""

import math

import numpy as np
import pytest
from fock_reference import dense, dense_tridiagonal, weyl_truncation
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nhosc import canonical, cli, linalg, spectra

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def random_tridiagonal(rng, n):
    def band(k):
        return rng.normal(size=k) + 1j * rng.normal(size=k)

    return linalg.Tridiagonal(band(n), band(n - 1), band(n - 1))


@st.composite
def tridiagonals(draw, max_size=30):
    """Complex tridiagonals, some of whose off-diagonal products are exactly 0.

    Real and imaginary parts are 0 or between 1e-3 and 4 in modulus, so the
    checks' own arithmetic never overflows.
    """
    n = draw(st.integers(1, max_size))
    part = st.floats(-4.0, 4.0).map(lambda v: 0.0 if abs(v) < 1e-3 else v)

    def band(k):
        return draw(arrays(float, k, elements=part)) + 1j * draw(arrays(float, k, elements=part))

    diag, lower, upper = band(n), band(n - 1), band(n - 1)
    cut = draw(arrays(bool, n - 1))
    cut_lower = draw(arrays(bool, n - 1))
    lower[cut & cut_lower] = 0.0
    upper[cut & ~cut_lower] = 0.0
    return linalg.Tridiagonal(diag, lower, upper)


def one_shift_columns(t, lams):
    """tridiagonal_eigenvectors(t, lams), after checking that each column is,
    bit for bit, the call with its shift alone."""
    vectors = linalg.tridiagonal_eigenvectors(t, lams)
    for lam, column in zip(lams, vectors.T):
        assert column.tobytes() == linalg.tridiagonal_eigenvectors(t, [lam]).tobytes()
    return vectors


def lapack_eigenvalues_and_condition(dense):
    """LAPACK eigenvalues and kappa_i = ||x_i|| ||y_i|| / |y_i^H x_i|."""
    values, right = np.linalg.eig(dense)
    try:
        left_h = np.linalg.inv(right)  # rows are y_i^H with y_i^H x_i = 1
    except np.linalg.LinAlgError:
        return values, np.full(values.size, np.inf)
    with np.errstate(over="ignore"):  # a defective eigenvalue has kappa = inf
        return values, np.linalg.norm(right, axis=0) * np.linalg.norm(left_h, axis=1)


class TestTridiagonalProperties:
    @PROPERTY_SETTINGS
    @given(tridiagonals())
    def test_eigenvalues_match_lapack_within_condition(self, t):
        found = linalg.tridiagonal_eigenvalues(t)
        expected, kappa = lapack_eigenvalues_and_condition(dense_tridiagonal(t))
        assert found.size == t.size
        scale = max(t.norm(), np.finfo(float).tiny)
        unused = list(found)
        # best-conditioned first, so a loose tolerance never claims a tight one's match
        for i in np.argsort(kappa):
            nearest = min(range(len(unused)), key=lambda j: abs(unused[j] - expected[i]))
            assert abs(unused.pop(nearest) - expected[i]) <= 1e-10 * kappa[i] * scale

    @PROPERTY_SETTINGS
    @given(tridiagonals())
    def test_inverse_iteration_residuals(self, t):
        scale = t.norm()
        lams = linalg.tridiagonal_eigenvalues(t)
        for matrix, shifts in ((t, lams), (t.adjoint(), lams.conj())):
            for lam, v in zip(shifts, one_shift_columns(matrix, shifts).T):
                assert np.linalg.norm(matrix.matvec(v) - lam * v) <= 1e-12 * scale

    @PROPERTY_SETTINGS
    @given(tridiagonals(), st.integers(0, 2**32 - 1))
    def test_lu_solves(self, t, seed):
        rng = np.random.default_rng(seed)
        rhs = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
        dense = dense_tridiagonal(t)
        try:
            x = linalg.tridiagonal_lu(t).solve(rhs)
        except linalg.EigenConvergenceError:  # an exactly zero pivot
            x = None
        if x is None or not np.isfinite(x).all():
            assert np.linalg.matrix_rank(dense) < t.size
            return
        # backward stable: partial pivoting on a tridiagonal grows entries at most 2x
        assert np.linalg.norm(dense @ x - rhs) <= 1e-12 * t.norm() * np.linalg.norm(x)


class TestTridiagonal:
    def test_dense_round_trip_and_adjoint(self):
        t = random_tridiagonal(np.random.default_rng(3), 6)
        dense = dense_tridiagonal(t)
        assert np.array_equal(np.diagonal(dense, -1), t.lower)
        assert np.array_equal(np.diagonal(dense, 1), t.upper)
        assert np.array_equal(dense_tridiagonal(t.adjoint()), dense.conj().T)
        v = np.arange(6) + 1j
        assert np.allclose(t.matvec(v), dense @ v, rtol=1e-15, atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="entries"):
            linalg.Tridiagonal([1, 2, 3], [1], [1, 2])
        with pytest.raises(ValueError, match="finite"):
            linalg.Tridiagonal([1, np.nan], [0], [0])

    def test_matches_dense_route(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 40):
            t = random_tridiagonal(rng, n)
            found = linalg.tridiagonal_eigenvalues(t)
            dense = np.sort_complex(np.linalg.eigvals(dense_tridiagonal(t)))
            assert np.abs(found - dense).max() <= 1e-10 * t.norm()

    def test_triangular_returns_exact_diagonal(self):
        rng = np.random.default_rng(13)
        t = random_tridiagonal(rng, 20)
        t = linalg.Tridiagonal(t.diag, np.zeros(19), t.upper)
        found = linalg.tridiagonal_eigenvalues(t)
        assert sorted(found.tolist(), key=lambda z: (z.real, z.imag)) == sorted(
            t.diag.tolist(), key=lambda z: (z.real, z.imag)
        )

    @pytest.mark.parametrize("force", ["rotation_bound", "max_iter"])
    def test_breakdown_falls_back_to_dense_qr(self, monkeypatch, force):
        t = random_tridiagonal(np.random.default_rng(17), 12)
        calls = []
        aberth = linalg._aberth
        max_sweeps = linalg.MAX_SWEEPS

        def spy(d, e, lowest=None):
            calls.append(d.size)
            # Aberth gets the usual step budget even where QL was denied one
            monkeypatch.setattr(linalg, "MAX_SWEEPS", max_sweeps)
            return aberth(d, e, lowest)

        monkeypatch.setattr(linalg, "_aberth", spy)
        if force == "rotation_bound":
            # |c|, |s| <= 1 fails for almost every rotation
            monkeypatch.setattr(linalg, "ROTATION_BOUND", 1.0)
        else:
            monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
        found = linalg.tridiagonal_eigenvalues(t)
        assert calls == [12]
        assert np.array_equal(found, aberth(*symmetrized(t)))

    @pytest.mark.parametrize("grade", [1.0, 1e6, 1e-6])
    @pytest.mark.parametrize("bands", [
        ([2, -1j, 1 - 1j], [-1, 1], [1 + 1j, 1]),
        ([1j, -1j, -1j, -1j], [-1, 1j, 1j], [-1, -1, -1j]),
    ], ids=["size3", "size4"])
    def test_natural_breakdown_falls_back_to_qr(self, monkeypatch, bands, grade):
        """QL breaks down on these unforced; Aberth's iteration on the
        symmetrized segment solves them, and a graded (diagonally similar)
        copy alike."""
        diag, lower, upper = bands
        t = linalg.Tridiagonal(diag, np.array(lower) / grade, np.array(upper) * grade)
        raised = []

        class Spy(linalg._QLBreakdown):
            def __init__(self):
                raised.append(True)
                super().__init__()

        monkeypatch.setattr(linalg, "_QLBreakdown", Spy)
        found = linalg.tridiagonal_eigenvalues(t)
        assert raised == [True]
        expected, kappa = lapack_eigenvalues_and_condition(dense_tridiagonal(t))
        for value, k in zip(expected, kappa):
            assert np.abs(found - value).min() <= 1e-10 * k * t.norm()
        monkeypatch.undo()
        ungraded = linalg.Tridiagonal(diag, lower, upper)
        ungraded_found = linalg.tridiagonal_eigenvalues(ungraded)
        assert np.abs(found - ungraded_found).max() <= 1e-13 * ungraded.norm()

    def test_lu_pivots_and_rejects_singular(self):
        # a zero leading diagonal forces a row swap, and so fill-in in upper2
        t = linalg.Tridiagonal([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [2.0, 1.0, 1.0])
        lu = linalg.tridiagonal_lu(t)
        assert lu.swapped[0] and lu.upper2[0] != 0
        rhs = np.array([1.0, -2.0, 3.0j, 0.5])
        assert np.abs(dense_tridiagonal(t) @ lu.solve(rhs) - rhs).max() < 1e-14
        singular = linalg.Tridiagonal([1.0, 0.0], [0.0], [1.0])
        with pytest.raises(linalg.EigenConvergenceError, match="singular"):
            linalg.tridiagonal_lu(singular)


def dense_pseudo_hermiticity_defect(mat, solved):
    """eta_check's pseudo-Hermiticity defect with M the dense matrix `mat`.

    The eigenvectors are those eta_check computes, one shift per call; only
    the products with M and M+ and the Frobenius norm of M are formed densely.
    """
    retained, parities = solved.eigenvalues, solved.parities
    phi = np.zeros((mat.shape[0], retained.size), dtype=complex)
    chi = np.zeros_like(phi)
    for k, (lam, par) in enumerate(zip(retained, parities)):
        block = solved.fock.blocks[par]
        phi[par::2, k] = linalg.tridiagonal_eigenvectors(block, [lam])[:, 0]
        chi[par::2, k] = linalg.tridiagonal_eigenvectors(block.adjoint(), [lam.conjugate()])[:, 0]
    chi = chi / np.diagonal(chi.conj().T @ phi).conj()
    norm = linalg.frobenius_norm(mat)
    if norm > linalg.SCALE_MAX:
        scale = math.ldexp(1.0, -math.frexp(norm)[1])
        mat, norm = mat * scale, norm * scale
    residual = (chi @ (chi.conj().T @ (mat @ phi))
                - mat.conj().T @ (chi @ (chi.conj().T @ phi)))
    if norm == 0:
        return 0.0
    col_scale = np.sqrt((np.abs(chi) ** 2).sum(axis=0)) * norm
    return float((np.sqrt((np.abs(residual) ** 2).sum(axis=0)) / col_scale).max())


@st.composite
def quadratics(draw):
    """Raw three-parameter oscillators, and images of an oscillator under
    admissible mix, gauge and explicit (det = 1) transforms."""
    kind = draw(st.sampled_from(["three_param", "mix", "gauge", "explicit"]))
    if kind == "three_param":
        coeff = st.floats(-5.0, 5.0)
        return spectra.ThreeParamOscillator(draw(coeff), draw(coeff), draw(coeff)).as_quadratic()
    unit = st.floats(-0.95, 0.95)
    if kind == "mix":
        transform = canonical.rath_mallick(draw(unit), draw(unit))
    elif kind == "gauge":
        transform = canonical.gauge(draw(st.floats(-5.0, 5.0)))
    else:
        u11 = complex(draw(st.floats(0.5, 2.0)), draw(unit))
        u12, u21 = (complex(draw(unit), draw(unit)) for _ in range(2))
        transform = canonical.from_matrix(u11, u12, u21, (1 + u12 * u21) / u11)
    base = canonical.scaled_oscillator(draw(st.sampled_from([1.0, 0.25, 3.0])))
    return canonical.apply_to_quadratic(transform, base)


class TestStructuredRoute:
    def test_critical_frequency_gives_exact_diagonal(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            osc = spectra.ThreeParamOscillator(
                rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(0.05, 2.0)
            )
            omega = spectra.critical_frequencies(osc).omega_plus
            if omega <= 0:
                continue
            fock = spectra.quadratic_fock_matrix(osc.as_quadratic(), omega, 60)
            mat = dense(fock)
            assert not np.tril(mat, -1).any()
            solved = spectra.parity_spectrum(fock)
            assert np.array_equal(np.sort_complex(solved.eigenvalues),
                                  np.sort_complex(np.diagonal(mat)))

    def test_mix_sweep_agrees_with_lapack(self):
        """Admissible mix points where LAPACK resolves the lowest 8 levels."""
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 12:
            alpha, beta = rng.uniform(-0.95, 0.95, size=2)
            if 1 + alpha * beta < 0.1:
                continue
            size = (80, 200)[checked % 2]
            osc = spectra.rath_mallick_oscillator(alpha, beta)
            fock = spectra.quadratic_fock_matrix(osc.as_quadratic(), 1.0, size)
            mat = dense(fock)
            lapack = np.concatenate([np.linalg.eigvals(mat[p::2, p::2]) for p in (0, 1)])
            lapack = lapack[np.lexsort((lapack.imag, lapack.real))][:8]
            exact = np.arange(8) + 0.5
            if np.abs(lapack - exact).max() > 1e-8:
                continue
            found = spectra.parity_spectrum(fock).eigenvalues[:8]
            assert np.abs(found - exact).max() <= 1e-8
            assert np.abs(np.sort_complex(found) - np.sort_complex(lapack)).max() <= 1e-8
            checked += 1

    def test_empty_truncation_rejected(self):
        with pytest.raises(ValueError, match="matrix size must be at least 1"):
            spectra.quadratic_fock_matrix(canonical.harmonic_oscillator(), 1.0, 0)

    @PROPERTY_SETTINGS
    @given(quadratics(), st.floats(0.1, 10.0),
           st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 41)))
    def test_quadratic_truncation_blocks_are_tridiagonal(self, quad, omega, size):
        fallback = []
        aberth = linalg._aberth

        def spy(d, e, lowest=None):
            fallback.append(d.size)
            return aberth(d, e, lowest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_aberth", spy)
            self.check_truncation(quad, omega, size)
        # QL solved every block: the Aberth fallback never ran
        assert fallback == []

    @staticmethod
    def check_truncation(quad, omega, size):
        fock = spectra.quadratic_fock_matrix(quad, omega, size)
        assert len(fock.blocks) == min(size, 2)
        assert all(isinstance(block, linalg.Tridiagonal) for block in fock.blocks)
        # the blocks hold the whole matrix-reference truncation, which is banded;
        # the routes round differently, and the band formula drops a +-2
        # amplitude below PRUNE_REL = 1e-14 of its terms, hence 10 * PRUNE_REL;
        # relative to the largest entry or, where every entry cancels to 0
        # (i (xp + px) at N = 2, whose diagonal is -1 + 1), to the
        # largest coefficient, the scale of the terms the reference rounds
        mat = dense(fock)
        poly = quad.weyl_poly()
        reference = weyl_truncation(poly, omega, size)
        scale = np.abs(mat).max() or max(map(abs, poly.terms.values()), default=0.0)
        assert np.abs(mat - reference).max() <= 1e-13 * scale
        rows, cols = np.nonzero(mat)
        assert set((rows - cols).tolist()) <= {-2, 0, 2}
        solved = spectra.parity_spectrum(fock)
        assert solved.eigenvalues.size == size
        lowest = spectra.parity_spectrum(fock, levels=min(size, 4))
        try:
            report = spectra.eta_check(lowest)
        except (spectra.DegenerateEigenvaluesError, linalg.EigenConvergenceError):
            return
        for par, block in enumerate(fock.blocks):
            lams = lowest.eigenvalues[lowest.parities == par]
            one_shift_columns(block, lams)
            one_shift_columns(block.adjoint(), lams.conj())
        expected = dense_pseudo_hermiticity_defect(mat, lowest)
        assert report.pseudo_hermiticity_defect == pytest.approx(expected, rel=0, abs=1e-12)

    def test_eta_check_reuses_solution(self):
        transform = canonical.rath_mallick(0.3, 0.2)
        iso = spectra.verify_isospectral(transform, trunc=120, n_levels=8)
        assert iso.passed
        solved = iso.solved
        assert solved.fock.size == 120 and solved.eigenvalues.size == 8
        assert np.array_equal(solved.eigenvalues, [level.eigenvalue for level in iso.levels])
        target = canonical.apply_to_quadratic(transform, canonical.harmonic_oscillator())
        fock = spectra.quadratic_fock_matrix(target, 1.0, 120)
        from_solution = spectra.eta_check(solved)
        assert from_solution == spectra.eta_check(spectra.parity_spectrum(fock, levels=8))
        assert from_solution.pseudo_hermiticity_defect < 1e-12


@st.composite
def graded_tridiagonals(draw, max_size=30):
    """Real symmetric, imaginary-off-diagonal symmetric or general complex
    tridiagonals, the diagonal graded like a truncation's so that QL can stop
    early on some of them."""
    kind = draw(st.sampled_from(["real_symmetric", "imaginary_offdiagonal", "complex"]))
    t = draw(tridiagonals(max_size))
    grade = draw(st.sampled_from([0.0, 1.0, 4.0]))
    diag = t.diag + grade * np.arange(t.size)
    if kind == "complex":
        return linalg.Tridiagonal(diag, t.lower, t.upper)
    if kind == "real_symmetric":
        return linalg.Tridiagonal(diag.real, t.lower.real, t.lower.real)
    return linalg.Tridiagonal(diag.real, 1j * t.lower.real, 1j * t.lower.real)


def lowest_prefixes(t):
    """(k, tridiagonal_eigenvalues(t, lowest=k), full[:k]) for every k."""
    full = linalg.tridiagonal_eigenvalues(t)
    return [(k, linalg.tridiagonal_eigenvalues(t, lowest=k), full[:k])
            for k in range(1, t.size + 1)]


def gamma_block(trunc):
    """Even block of the gamma-family truncation (p - x/4)^2/2 + (1 - 1/16) x^2/2."""
    quad = canonical.ahmed_hermitian(0.25, alpha=1.0)
    block = spectra.quadratic_fock_matrix(quad, 1.0, trunc).blocks[0]
    assert isinstance(block, linalg.Tridiagonal)
    return block


def mix_block(alpha, beta, trunc):
    """Odd block of the mix-family truncation at (alpha, beta)."""
    quad = spectra.rath_mallick_oscillator(alpha, beta).as_quadratic()
    return spectra.quadratic_fock_matrix(quad, 1.0, trunc).blocks[1]


def broken_ql(*args):
    raise linalg._QLBreakdown


SEEDED_KINDS = ("mix", "gauge", "three_param", "gamma")


def seeded_quadratic(kind, seed):
    """A quadratic of the family `kind` with parameters drawn from `seed`."""
    rng = np.random.default_rng([seed, SEEDED_KINDS.index(kind)])
    oscillator = canonical.harmonic_oscillator()
    if kind == "mix":
        alpha, beta = rng.uniform(-0.7, 0.7, size=2)
        return canonical.apply_to_quadratic(canonical.rath_mallick(alpha, beta), oscillator)
    if kind == "gauge":
        return canonical.apply_to_quadratic(canonical.gauge(rng.uniform(-0.8, 0.8)), oscillator)
    if kind == "three_param":
        h11, h22 = rng.uniform(0.3, 0.7, size=2)
        return spectra.ThreeParamOscillator(h11, rng.uniform(-0.4, 0.4), h22).as_quadratic()
    alpha = rng.uniform(0.8, 1.2)
    return canonical.ahmed_hermitian(rng.uniform(-0.6, 0.6) * alpha, alpha=alpha)


class TestLowestLevels:
    """`lowest` stops QL early and returns the full solve's first values."""

    @PROPERTY_SETTINGS
    @given(graded_tridiagonals())
    def test_prefix_of_full_solve(self, t):
        for k, lowest, prefix in lowest_prefixes(t):
            assert np.array_equal(lowest, prefix), k

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0, 4.0]), st.booleans())
    def test_prefix_of_full_solve_where_the_count_runs(self, seed, grade, real_symmetric):
        # unreduced graded segments of at least COUNT_MIN_ROWS rows
        rng = np.random.default_rng(seed)
        t = random_tridiagonal(rng, int(rng.integers(linalg.COUNT_MIN_ROWS, 130)))
        diag = t.diag + grade * np.arange(t.size)
        if real_symmetric:
            t = linalg.Tridiagonal(diag.real, t.lower.real, t.lower.real)
        else:
            t = linalg.Tridiagonal(diag, t.lower, t.upper)
        full = linalg.tridiagonal_eigenvalues(t)
        for k in (1, 3, 10, 25):
            assert np.array_equal(linalg.tridiagonal_eigenvalues(t, lowest=k), full[:k]), k

    @PROPERTY_SETTINGS
    @given(graded_tridiagonals())
    def test_k_smallest_real_parts_of_lapack(self, t):
        expected, kappa = lapack_eigenvalues_and_condition(dense_tridiagonal(t))
        scale = max(t.norm(), np.finfo(float).tiny)
        # every eigenvalue within its tolerance of LAPACK's moves each order
        # statistic of the real parts by at most the largest tolerance
        slack = 1e-10 * kappa.max() * scale
        smallest = np.sort(expected.real)
        for k in range(1, t.size + 1):
            found = linalg.tridiagonal_eigenvalues(t, lowest=k)
            assert found.size == k
            assert np.all(np.abs(np.sort(found.real) - smallest[:k]) <= slack)

    @pytest.mark.parametrize("force", ["rotation_bound", "raise"])
    def test_prefix_under_breakdown(self, monkeypatch, force):
        rng = np.random.default_rng(29)
        t = random_tridiagonal(rng, 12)
        t = linalg.Tridiagonal(t.diag + 3.0 * np.arange(12), t.lower, t.upper)
        if force == "rotation_bound":
            monkeypatch.setattr(linalg, "ROTATION_BOUND", 1.0)
        else:
            monkeypatch.setattr(linalg, "_ql_symmetric", broken_ql)
        full = linalg.tridiagonal_eigenvalues(t)
        assert np.array_equal(full, linalg._aberth(*symmetrized(t)))
        for k in range(1, 13):
            assert np.array_equal(linalg.tridiagonal_eigenvalues(t, lowest=k), full[:k])

    def test_breakdown_prefix_is_certified_by_the_count(self, monkeypatch):
        counts = []
        count_below = linalg._count_below

        def spy(*args):
            counts.append(count_below(*args))
            return counts[-1]

        block = mix_block(0.3, 0.2, 200)
        expected = linalg.tridiagonal_eigenvalues(block, lowest=10)
        monkeypatch.setattr(linalg, "_count_below", spy)
        monkeypatch.setattr(linalg, "_ql_symmetric", broken_ql)
        found = linalg.tridiagonal_eigenvalues(block, lowest=10)
        assert counts == [10]
        assert np.abs(found - expected).max() <= 1e-11

    def test_breakdown_refuses_what_it_cannot_certify(self, monkeypatch, capsys):
        # at (0.6, 0.6) the high levels have kappa near 1e13: their points
        # never freeze, and the count gives up on the lowest 10
        monkeypatch.setattr(linalg, "_ql_symmetric", broken_ql)
        with pytest.raises(linalg.EigenConvergenceError, match="Aberth"):
            linalg.tridiagonal_eigenvalues(mix_block(0.6, 0.6, 200), lowest=10)
        assert cli.main(["spectrum", "--rm-alpha", "0.6", "--rm-beta", "0.6",
                         "-N", "200", "-n", "18"]) == cli.EXIT_NUMERIC
        assert "Aberth iteration" in capsys.readouterr().err

    def test_aberth_sums_in_chunks_without_changing_a_bit(self, monkeypatch):
        d, e = symmetrized(random_tridiagonal(np.random.default_rng(53), 40))
        whole = linalg._aberth(d, e)
        monkeypatch.setattr(linalg, "ABERTH_CHUNK", 7)
        assert np.array_equal(linalg._aberth(d, e), whole)

    def test_prefix_of_radix_scaled_matrix(self):
        block = gamma_block(80)
        huge = linalg.Tridiagonal(block.diag * 1e200, block.lower * 1e200, block.upper * 1e200)
        full = linalg.tridiagonal_eigenvalues(huge)
        for k in (1, 5, 10, 40):
            assert np.array_equal(linalg.tridiagonal_eigenvalues(huge, lowest=k), full[:k])

    def test_subnormal_matrix_is_scaled(self):
        # scaling 2^-1030 to 1 needs more than 2^1023; the largest power of two
        # is enough
        tiny = math.ldexp(1.0, -1030)
        t = linalg.Tridiagonal([3 * tiny, tiny, 2 * tiny], [tiny, 0.0], [tiny, 0.0])
        found = linalg.tridiagonal_eigenvalues(t)
        assert not found.imag.any()
        # a subnormal keeps 2^-1074 absolute precision, about 44 bits here
        expected = [2 - math.sqrt(2), 2, 2 + math.sqrt(2)]
        assert np.abs(np.ldexp(found.real, 1030) - expected).max() <= 2.0 ** -40

    def test_exit_fires_on_gamma_block(self, monkeypatch):
        block = gamma_block(400)
        returned = []
        ql = linalg._ql_symmetric

        def spy(*args):
            values = ql(*args)
            returned.append(len(values))
            return values

        monkeypatch.setattr(linalg, "_ql_symmetric", spy)
        lowest = linalg.tridiagonal_eigenvalues(block, lowest=10)
        assert block.size == 200 and len(returned) == 1 and returned[0] <= 3 * 10
        monkeypatch.undo()
        assert np.array_equal(lowest, linalg.tridiagonal_eigenvalues(block)[:10])

    @pytest.mark.parametrize("trunc", [100, 400])
    @pytest.mark.parametrize("quad", [
        canonical.apply_to_quadratic(canonical.rath_mallick(0.5, 0.3),
                                     canonical.harmonic_oscillator()),
        spectra.ThreeParamOscillator(0.5, 0.3, 0.6).as_quadratic(),
        canonical.ahmed_hermitian(-0.4, alpha=1.1),
    ] + [seeded_quadratic(kind, seed) for kind in SEEDED_KINDS for seed in (1, 2)],
        ids=["mix", "three_param", "gamma"]
        + [f"{kind}-{seed}" for kind in SEEDED_KINDS for seed in (1, 2)])
    def test_parity_spectrum_levels(self, quad, trunc):
        fock = spectra.quadratic_fock_matrix(quad, 1.0, trunc)
        full = spectra.parity_spectrum(fock)
        for levels in (1, 2, 7, 10, 25):
            solved = spectra.parity_spectrum(fock, levels=levels)
            assert solved.eigenvalues.size == levels and full.eigenvalues.size == trunc
            assert np.array_equal(solved.eigenvalues, full.eigenvalues[:levels])
            assert np.array_equal(solved.parities, full.parities[:levels])

    @pytest.mark.parametrize("odd_low, asked, odd_levels", [
        # the even block's 6th value is the merged 6th: solved again
        ([], [6, 6, 10], 0),
        # the merged 9th, with the even block's 7th the merged 10th: solved again
        ([0.5, 1.5, 2.5], [6, 6, 10], 3),
        # the merged 10th: every value it did not return sorts after it
        ([0.5, 1.5, 2.5, 3.5], [6, 6], 4),
    ], ids=["none", "three", "four"])
    def test_block_solved_again_when_its_kth_value_sorts_early(self, monkeypatch, odd_low, asked,
                                                                odd_levels):
        # the even block's levels sit near 0, 1, 2, ...; the odd block holds
        # those near odd_low, and the rest from 100 on
        rng = np.random.default_rng(47)
        even, odd = (random_tridiagonal(rng, 80) for _ in range(2))
        odd_diag = np.concatenate((odd_low, 100.0 + np.arange(80 - len(odd_low))))
        even = linalg.Tridiagonal(1e-3 * even.diag + np.arange(80),
                                  1e-3 * even.lower, 1e-3 * even.upper)
        odd = linalg.Tridiagonal(1e-3 * odd.diag + odd_diag, 1e-3 * odd.lower, 1e-3 * odd.upper)
        fock = spectra.FockMatrix(blocks=(even, odd), size=160)
        expected = [linalg.tridiagonal_eigenvalues(block, lowest=10) for block in (even, odd)]
        values = np.concatenate(expected)
        order = np.lexsort((values.imag, values.real))[:10]
        calls = []
        solve = linalg.tridiagonal_eigenvalues

        def spy(t, lowest=None):
            calls.append(lowest)
            return solve(t, lowest)

        monkeypatch.setattr(linalg, "tridiagonal_eigenvalues", spy)
        solved = spectra.parity_spectrum(fock, levels=10)
        assert calls == asked
        assert np.array_equal(solved.eigenvalues, values[order])
        assert np.array_equal(solved.parities, np.repeat([0, 1], 10)[order])
        assert np.count_nonzero(solved.parities) == odd_levels

    def test_checks_cover_exactly_the_solved_levels(self, monkeypatch):
        iso = spectra.verify_isospectral(canonical.rath_mallick(0.3, 0.2), trunc=120, n_levels=4)
        assert iso.passed and len(iso.levels) == iso.solved.eigenvalues.size == 4
        shifts = []
        solve = linalg.tridiagonal_eigenvectors

        def spy(t, lams):
            shifts.append(len(lams))
            return solve(t, lams)

        monkeypatch.setattr(linalg, "tridiagonal_eigenvectors", spy)
        assert spectra.eta_check(iso.solved).passed
        # one call per parity block and side, and a right and a left vector
        # per solved level, and no more
        assert len(shifts) == 4 and sum(shifts) == 8

    def test_verify_draws_one_start_vector_per_block_size(self, monkeypatch, capsys):
        draws = []
        default_rng = np.random.default_rng

        def spy(seed):
            draws.append(seed)
            return default_rng(seed)

        linalg._start_vector.cache_clear()
        monkeypatch.setattr(np.random, "default_rng", spy)
        # N = 121: an even block of 61 and an odd block of 60, each solved
        # for right and left vectors
        assert cli.main(["verify", "--rm-alpha", "0.3", "--rm-beta", "0.2",
                         "-N", "121", "-n", "8"]) == cli.EXIT_OK
        assert len(draws) == 2
        # the next verify of the same size draws none
        assert cli.main(["verify", "--gauge-g", "0.3", "-N", "121", "-n", "8"]) == cli.EXIT_OK
        assert len(draws) == 2
        capsys.readouterr()
        start = linalg._start_vector(61)
        assert not start.flags.writeable and abs(np.linalg.norm(start) - 1.0) < 1e-15

    def test_at_least_one_level(self):
        fock = spectra.quadratic_fock_matrix(canonical.harmonic_oscillator(), 1.0, 8)
        with pytest.raises(ValueError, match="at least one level"):
            spectra.parity_spectrum(fock, levels=0)


def symmetrized(t):
    """(diag, off-diagonal) of the complex symmetric form QL and the count solve."""
    return t.diag, linalg._symmetric_offdiagonal(t)


@st.composite
def symmetrized_segments(draw):
    """Random complex tridiagonals, and parity blocks of truncations of every
    family, in the symmetrized form."""
    if draw(st.booleans()):
        return symmetrized(draw(tridiagonals()))
    fock = spectra.quadratic_fock_matrix(draw(quadratics()), 1.0, draw(st.integers(2, 120)))
    return symmetrized(fock.blocks[draw(st.integers(0, 1))])


def admissible_blocks(rng, count):
    """(name, block) for `count` seeded parity blocks of mix, three-parameter,
    gamma and explicit-transform truncations, N from 8 to 400."""
    for k in range(count):
        kind = ("mix", "three_param", "gamma", "explicit")[k % 4]
        if kind == "mix":
            alpha, beta = rng.uniform(-0.7, 0.7, size=2)
            quad = spectra.rath_mallick_oscillator(alpha, beta).as_quadratic()
        elif kind == "three_param":
            h11, h22 = rng.uniform(0.3, 0.7, size=2)
            quad = spectra.ThreeParamOscillator(h11, rng.uniform(-0.4, 0.4), h22).as_quadratic()
        elif kind == "gamma":
            alpha = rng.uniform(0.8, 1.2)
            quad = canonical.ahmed_hermitian(rng.uniform(-0.6, 0.6) * alpha, alpha=alpha)
        else:
            u11 = complex(rng.uniform(0.7, 1.4), rng.uniform(-0.4, 0.4))
            u12, u21 = (complex(*rng.uniform(-0.4, 0.4, size=2)) for _ in range(2))
            transform = canonical.from_matrix(u11, u12, u21, (1 + u12 * u21) / u11)
            quad = canonical.apply_to_quadratic(transform, canonical.harmonic_oscillator())
        trunc = int(rng.choice([8, 16, 40, 100, 160, 200, 300, 400]))
        block = spectra.quadratic_fock_matrix(quad, 1.0, trunc).blocks[k // 4 % 2]
        yield f"{kind} N={trunc} parity={k // 4 % 2}", block


# (argv, sizes QL returns per block) for commands whose blocks QL stops early
QL_RUNS = [
    # README: the oscillator splits into 1 x 1 segments, which QL never sees
    (["spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5", "-n", "5"], []),
    (["spectrum", "--rm-alpha", "0.3", "--rm-beta", "0.2", "-n", "10", "-N", "200"], [7, 7]),
    (["verify", "--rm-alpha", "0.3", "--rm-beta", "0.2", "-N", "200", "-n", "8"], [6, 6]),
    # the N = 400 spectrum workload points of seed 1; Bendixson alone needed
    # about 70 of the 200 rows
    (["spectrum", "--h11=0.5103847594360817", "--h12=0.2574171661963569",
      "--h22=0.37622130850727764", "-n", "10", "-N", "400"], [7, 7]),
    (["spectrum", "--rm-alpha=0.7218889872961263", "--rm-beta=-0.17155837111220518",
      "-n", "10", "-N", "400"], [7, 7]),
    # Bendixson alone needed 562 and 476 of the 1000 rows
    (["verify", "--rm-alpha", "0.3", "--rm-beta", "0.2", "-N", "2000", "-n", "8"], [6, 6]),
]


class TestEigenvalueCount:
    """The second certificate of `lowest`: count the eigenvalues left of c by
    the argument principle on the weighted-Bendixson box."""

    @PROPERTY_SETTINGS
    @given(symmetrized_segments())
    # the two edge cases described below, pinned: the draws move with the
    # package's numeric literals
    @example((np.zeros(2, dtype=complex), np.array([1j * math.sqrt(2.0)])))
    @example((np.array([2.7e-216, -1.1e-216 + 0.8e-216j, 0.5e-216j]),
              np.array([1e-216 + 0.3e-216j, -0.7e-216j])))
    def test_box_holds_every_eigenvalue_left_of_c(self, segment):
        d, e = segment
        sym = linalg.Tridiagonal(d, e, e)
        values, kappa = lapack_eigenvalues_and_condition(dense_tridiagonal(sym))
        # LAPACK's own error, kappa * eps * ||T||, with room for rounding;
        # ||T|| from the entries over the largest, whose squares cannot
        # underflow (those of a 1e-216 matrix do, and sym.norm() reads 0)
        big = float(np.abs(dense_tridiagonal(sym)).max())
        norm = big * np.linalg.norm(dense_tridiagonal(sym) / big) if big > 0 else 0.0
        slack = 1e-12 * kappa * max(norm, np.finfo(float).tiny)
        real = np.sort(values.real)
        for c in np.concatenate(((real[1:] + real[:-1]) / 2, [real[-1] + 1.0])):
            left, height = linalg._box(d, e, c)
            inside = values.real < c
            assert np.all(values.real[inside] >= left - slack[inside])
            # within its error an eigenvalue LAPACK puts just left of c may lie
            # right of it, where the box of c can be empty (i sqrt(2) off the
            # diagonal of a zero 2 x 2 reads real part -5.6e-17 by LAPACK): it lies in
            # the box of c plus its error
            for value, err in zip(values[inside], slack[inside]):
                if math.isfinite(err):
                    assert abs(value.imag) <= linalg._box(d, e, c + err)[1] + err

    def test_box_is_far_lower_than_bendixson(self):
        # Bendixson's box has height ||Im T||_2, ~940 on this block
        quad = spectra.rath_mallick_oscillator(0.3, 0.2).as_quadratic()
        d, e = symmetrized(spectra.quadratic_fock_matrix(quad, 1.0, 2000).blocks[0])
        left, height = linalg._box(d, e, 16.5)
        assert left <= 0.5 and height < 10

    def test_count_matches_lapack(self):
        rng = np.random.default_rng(41)
        counted = 0
        for name, block in admissible_blocks(rng, 48):
            d, e = symmetrized(block)
            sym = dense_tridiagonal(linalg.Tridiagonal(d, e, e))
            values = np.linalg.eigvals(sym)
            real = np.sort(values.real)
            lowest = int(rng.integers(1, min(12, block.size - 1) + 1))
            c = 0.5 * (real[lowest - 1] + real[lowest])
            # where relative changes of 1e-13 in the entries move an eigenvalue
            # across c, as at the truncation edge, LAPACK's count is not certain
            jitter = 1.0 + 1e-13 * rng.uniform(-1.0, 1.0, size=sym.shape)
            if np.count_nonzero(np.linalg.eigvals(sym * jitter).real < c) != lowest:
                continue
            found = values[np.argsort(values.real)][:lowest + 1]
            count = linalg._count_below(d, e, c, c - real[lowest - 1], found)
            assert count in (None, lowest), name
            counted += count == lowest
        assert counted >= 36

    def test_fired_count_returns_the_full_prefix(self, monkeypatch):
        fired = []
        count_below = linalg._count_below

        def spy(*args):
            count = count_below(*args)
            fired.append(count is not None)
            return count

        monkeypatch.setattr(linalg, "_count_below", spy)
        rng = np.random.default_rng(43)
        for name, block in admissible_blocks(rng, 24):
            full = linalg.tridiagonal_eigenvalues(block)
            for lowest in (1, 8, 20):
                if lowest < block.size:
                    assert np.array_equal(linalg.tridiagonal_eigenvalues(block, lowest=lowest),
                                          full[:lowest]), (name, lowest)
        assert sum(fired) >= 12

    def test_gives_up_on_an_eigenvalue_on_the_contour(self):
        # the contour's right edge passes through the eigenvalue 3 at z = 3
        d = np.arange(80.0) + 0j
        e = np.zeros(79, dtype=complex)
        assert linalg._count_below(d, e, 3.0, 0.5, d[:5]) is None
        assert linalg._count_below(d, e, 3.5, 0.5, d[:5]) == 4

    def test_given_up_count_leaves_the_full_prefix(self, monkeypatch):
        # at (0.6, 0.6) the levels from about 20 on have kappa near 1e13, and
        # the count gives up on both blocks
        counts = []
        count_below = linalg._count_below

        def spy(*args):
            counts.append(count_below(*args))
            return counts[-1]

        monkeypatch.setattr(linalg, "_count_below", spy)
        quad = spectra.rath_mallick_oscillator(0.6, 0.6).as_quadratic()
        for block in spectra.quadratic_fock_matrix(quad, 1.0, 400).blocks:
            lowest = linalg.tridiagonal_eigenvalues(block, lowest=28)
            assert np.array_equal(lowest, linalg.tridiagonal_eigenvalues(block)[:28])
        assert counts == [None, None]

    @pytest.mark.parametrize("argv, returned", QL_RUNS)
    def test_ql_stops_at_lowest_plus_one(self, monkeypatch, argv, returned):
        # each block is asked for its lowest L // 2 + 1 levels, and QL stops one past them
        sizes = []
        ql = linalg._ql_symmetric

        def spy(d, e, floor, lowest=None):
            values = ql(d, e, floor, lowest)
            sizes.append(len(values))
            return values

        monkeypatch.setattr(linalg, "_ql_symmetric", spy)
        assert cli.main(argv) == 0
        assert sizes == returned

    @pytest.mark.parametrize("argv, returned", [run for run in QL_RUNS if run[1]])
    def test_each_count_is_one_pass(self, monkeypatch, argv, returned):
        # the first contour, graded around the found values, already resolves
        # every step, so the refinement evaluates no further points
        passes = []
        count_below, det_phase = linalg._count_below, linalg._det_phase

        def count_spy(*args):
            passes.append(0)
            count = count_below(*args)
            assert count is not None
            return count

        def det_spy(*args):
            passes[-1] += 1
            return det_phase(*args)

        monkeypatch.setattr(linalg, "_count_below", count_spy)
        monkeypatch.setattr(linalg, "_det_phase", det_spy)
        assert cli.main(argv) == 0
        assert passes == [1, 1]
