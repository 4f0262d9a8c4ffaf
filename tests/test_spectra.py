import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from fock_reference import dense, dense_tridiagonal, weyl_truncation

from nhosc import canonical, linalg, spectra
from nhosc.spectra import ThreeParamOscillator

SHO = ThreeParamOscillator(0.5, 0.0, 0.5)


def random_oscillator(rng, positive=True):
    h11 = rng.uniform(0.1, 2.0)
    h12 = rng.uniform(-1.0, 1.0)
    h22 = rng.uniform(0.05, 2.0)
    if not positive:
        h11 *= (-1) ** int(rng.integers(2))
    return ThreeParamOscillator(h11, h12, h22)


def truncation(osc, omega, size):
    """Dense truncation of a three-parameter oscillator."""
    return dense(spectra.quadratic_fock_matrix(osc.as_quadratic(), omega, size))


def fock_coefficients(osc, omega, n):
    """(A_n, B_n, C_n): the |n-2>, |n>, |n+2> amplitudes of H|n>, read off the truncation."""
    mat = truncation(osc, omega, n + 3)
    return (mat[n - 2, n] if n >= 2 else 0.0), mat[n, n], mat[n + 2, n]


class TestFockCoefficients:
    def test_sho_diagonal(self):
        for n in range(6):
            a, b, c = fock_coefficients(SHO, 1.0, n)
            assert a == 0.0 and c == 0.0
            assert abs(b - (n + 0.5)) < 1e-15

    def test_displayed_values(self):
        a2, b2, c2 = fock_coefficients(SHO, 2.0, 2)
        assert abs(a2 - (-0.5 + 0.125) * math.sqrt(2)) < 1e-15
        assert abs(b2 - (0.5 + 0.125) * 5) < 1e-15
        assert abs(c2 - (-0.5 + 0.125) * math.sqrt(12)) < 1e-15

    def test_vanishing_lowering_below_two(self):
        mat = truncation(ThreeParamOscillator(0.4, 0.3, 0.6), 0.8, 6)
        for n in (0, 1):
            assert np.nonzero(mat[:, n])[0].tolist() == [n, n + 2]

    def test_against_ladder_route(self):
        rng = np.random.default_rng(157)
        for _ in range(15):
            osc = random_oscillator(rng)
            omega = rng.uniform(0.3, 2.5)
            n = int(rng.integers(0, 41))
            size = n + 3
            mat = weyl_truncation(osc.as_quadratic().weyl_poly(), omega, size)
            a, b, c = fock_coefficients(osc, omega, n)
            scale = max(1.0, abs(b))
            assert abs(mat[n, n] - b) < 1e-12 * scale
            if n >= 2:
                assert abs(mat[n - 2, n] - a) < 1e-12 * scale
            assert abs(mat[n + 2, n] - c) < 1e-12 * scale

    def test_rejects_zero_frequency(self):
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="frequency must be finite and nonzero"):
                spectra.quadratic_fock_matrix(SHO.as_quadratic(), bad, 3)


class TestCriticalFrequencies:
    def test_sho(self):
        crit = spectra.critical_frequencies(SHO)
        assert crit.kind == "pair"
        assert abs(crit.omega_plus - 1.0) < 1e-15
        assert abs(crit.omega_minus + 1.0) < 1e-15
        assert crit.sign_contract

    def test_mix_family_formulas(self):
        rng = np.random.default_rng(163)
        for _ in range(25):
            lam, beta = rng.uniform(-0.7, 0.7, size=2)
            osc = spectra.rath_mallick_oscillator(lam, beta)
            crit = spectra.critical_frequencies(osc)
            assert abs(crit.omega_plus - (1 - beta) / (1 + lam)) < 1e-12
            assert abs(crit.omega_minus - (1 + beta) / (lam - 1)) < 1e-12

    @pytest.mark.parametrize("h11, h12, h22", [
        (1e-12, 0.5, 0.5), (1e-12, -0.5, 0.5), (1e-17, 0.5, 0.5), (-1e-17, -0.5, 0.5),
        (1e-9, 3.0, -2.0), (0.3, 0.2, 0.5), (0.5, -0.2, 0.4), (2.0, 1e-9, 3.0),
        # D = h11 h22 + h12^2 overflows, the roots do not
        (1e200, 1e200, 1e200), (1e200, -1e200, 1e200), (1.7e308, 1.7e308, 1.7e308),
        (1e300, 1e300, -2e299), (-1e250, 3e250, 1e250), (1e290, 1e300, -1e290),
    ])
    def test_roots_free_of_cancellation(self, h11, h12, h22):
        """Both roots of h11 w^2 + 2 h12 w - h22 = 0 to a few ulps, when
        h11 h22 << h12^2 as well: 40-digit roots as the reference."""
        mpmath = pytest.importorskip("mpmath")
        crit = spectra.critical_frequencies(ThreeParamOscillator(h11, h12, h22))
        with mpmath.workdps(40):
            a, b, c = (mpmath.mpf(v) for v in (h11, h12, h22))
            root = mpmath.sqrt(a * c + b * b)
            for got, exact in ((crit.omega_plus, (root - b) / a),
                               (crit.omega_minus, -(root + b) / a)):
                assert abs(mpmath.mpf(got) / exact - 1) < 1e-15, (got, exact)

    def test_broken_phase(self):
        crit = spectra.critical_frequencies(ThreeParamOscillator(0.5, 0.0, -0.5))
        assert crit.kind == "complex_pair"
        assert crit.discriminant == -0.25

    def test_single_root(self):
        crit = spectra.critical_frequencies(ThreeParamOscillator(0.0, 0.5, 1.0))
        assert crit.kind == "single"
        assert abs(crit.omega_single - 1.0) < 1e-15

    def test_no_root(self):
        assert spectra.critical_frequencies(ThreeParamOscillator(0.0, 0.0, 1.0)).kind == "none"

    def test_exceptional_point(self):
        crit = spectra.critical_frequencies(ThreeParamOscillator(1.0, 1.0, -1.0))
        assert crit.kind == "degenerate"

    def test_sign_contract_can_fail_with_negative_h22(self):
        crit = spectra.critical_frequencies(ThreeParamOscillator(1.0, 2.0, -1.0 + 0.5))
        assert crit.kind == "pair"
        assert crit.sign_contract is False

    def test_overflowing_discriminant_of_a_real_pair(self):
        # D = -inf + inf is NaN, but the scaled D is 0: the exceptional point
        # of (1, 1, -1) scaled by 1e200
        crit = spectra.critical_frequencies(ThreeParamOscillator(1e200, 1e200, -1e200))
        assert crit.kind == "degenerate" and crit.omega_single == -1.0
        crit = spectra.critical_frequencies(ThreeParamOscillator(-1e200, 1e150, 1e200))
        assert crit.kind == "complex_pair" and crit.discriminant == -math.inf

    @pytest.mark.parametrize("h, branch, message", [
        # D = h11 h22 + h12^2 overflows, and the root divided by a tiny h11
        (ThreeParamOscillator(1e-300, -1e300, 1.0), 1, "frequency of the \\+ branch overflows: inf"),
        (ThreeParamOscillator(1e-300, 1e300, 1.0), -1, "frequency of the - branch overflows: -inf"),
        # h11 = 0: h22 / (2 h12) overflows
        (ThreeParamOscillator(0.0, 1e-300, 1e10), 1, "frequency of the \\+ branch overflows: inf"),
    ])
    def test_overflowing_branch_frequency_is_non_finite(self, h, branch, message):
        with pytest.raises(canonical.NonFiniteError, match=f"^{message}$"):
            spectra.branch_frequency(h, branch)

    @pytest.mark.parametrize("h12", [1e300, -1e300])
    def test_other_branch_of_an_overflowing_pair(self, h12):
        # h22 / (sqrt(D) + |h12|), with no division by the tiny h11
        branch = 1 if h12 > 0 else -1
        omega = spectra.branch_frequency(ThreeParamOscillator(1e-300, h12, 1.0), branch)
        assert omega == pytest.approx(branch * 0.5e-300, rel=1e-15)


class TestClosedForm:
    def test_sho_levels(self):
        for n in range(8):
            assert spectra.closed_form_eigenvalue(SHO, n, 1) == n + 0.5

    def test_mix_discriminant_quarter(self):
        osc = spectra.rath_mallick_oscillator(0.3, 0.2)
        for n in range(5):
            assert abs(spectra.closed_form_eigenvalue(osc, n, 1) - (2 * n + 1) / 2) < 1e-14

    def test_negative_branch_exact_negation(self):
        rng = np.random.default_rng(167)
        for _ in range(20):
            osc = random_oscillator(rng)
            for n in range(6):
                plus = spectra.closed_form_eigenvalue(osc, n, 1)
                minus = spectra.closed_form_eigenvalue(osc, n, -1)
                assert minus == -plus

    def test_broken_phase_raises(self):
        with pytest.raises(spectra.BrokenPhaseError):
            spectra.closed_form_eigenvalue(ThreeParamOscillator(0.5, 0.0, -0.5), 0, 1)

    def test_is_the_general_spectrum_on_the_branch(self):
        rng = np.random.default_rng(173)
        for _ in range(20):
            osc = random_oscillator(rng)
            for n in range(6):
                general = spectra.general_quadratic_spectrum(osc.as_quadratic(), n)
                assert spectra.closed_form_eigenvalue(osc, n, 1) == general.real
                assert spectra.closed_form_eigenvalue(osc, n, -1) == -general.real


def three_param_bands(h, omega, size):
    """(diag, lower, upper) by the three-parameter formula in real arithmetic."""
    half_diff = -0.5 * h.h11 * omega + 0.5 * h.h22 / omega
    n = np.arange(size, dtype=float)
    low = n[: max(size - 2, 0)]
    high = n[2:]
    return ((0.5 * h.h11 * omega + 0.5 * h.h22 / omega) * (2 * n + 1),
            (half_diff - h.h12) * np.sqrt((low + 1) * (low + 2)),
            (half_diff + h.h12) * np.sqrt(high * (high - 1)))


class TestBuildFockMatrix:
    def test_sho_diagonal(self):
        mat = truncation(SHO, 1.0, 5)
        assert np.abs(mat - np.diag(np.arange(5) + 0.5)).max() < 1e-15

    def test_triangular_at_critical_frequency(self):
        rng = np.random.default_rng(173)
        for _ in range(20):
            osc = random_oscillator(rng)
            crit = spectra.critical_frequencies(osc)
            for omega in (crit.omega_plus, crit.omega_minus):
                # the C_n cancel at a critical frequency: exactly 0, not dust
                assert not np.tril(truncation(osc, omega, 40), -1).any()

    def test_matches_ladder_route(self):
        rng = np.random.default_rng(179)
        for _ in range(10):
            osc = random_oscillator(rng)
            omega = rng.uniform(0.3, 2.0)
            size = int(rng.integers(5, 30))
            direct = truncation(osc, omega, size)
            reference = weyl_truncation(osc.as_quadratic().weyl_poly(), omega, size)
            scale = max(1.0, np.abs(direct).max())
            assert np.abs(direct - reference).max() < 1e-12 * scale

    def test_three_param_bands_bit_for_bit(self):
        """The general formula, fed h11, i h12, h22, computes the real
        three-parameter formula's bands, at both signs of omega."""
        rng = np.random.default_rng(181)
        for _ in range(100):
            osc = random_oscillator(rng, positive=False)
            size = int(rng.integers(1, 40))
            omega = rng.uniform(0.2, 3.0) * (-1) ** int(rng.integers(2))
            fock = spectra.quadratic_fock_matrix(osc.as_quadratic(), omega, size)
            for band, expected in zip(("diag", "lower", "upper"),
                                      three_param_bands(osc, omega, size)):
                got = np.concatenate([getattr(block, band) for block in fock.blocks])
                want = np.concatenate([expected[par::2] for par in range(min(size, 2))])
                assert got.real.tobytes() == want.tobytes()
                assert not got.imag.any()

    def test_band_structure(self):
        mat = truncation(ThreeParamOscillator(0.4, 0.3, 0.6), 0.9, 12)
        for offset in (1, 3, 4, 5):
            assert np.abs(np.diagonal(mat, offset)).max() == 0.0
            assert np.abs(np.diagonal(mat, -offset)).max() == 0.0


class TestEigenvectorCoefficients:
    def test_ground_state_single_term(self):
        osc = ThreeParamOscillator(0.4, 0.3, 0.6)
        for parity in (0, 1):
            pair = spectra.eigenvector_coefficients(osc, 1, 0, parity)
            support = np.nonzero(np.abs(pair.coefficients) > 0)[0]
            assert support.tolist() == [parity]

    def test_diagonal_case_unit_vectors(self):
        pair = spectra.eigenvector_coefficients(SHO, 1, 2, 1)
        support = np.nonzero(np.abs(pair.coefficients) > 0)[0]
        assert support.tolist() == [5]
        assert abs(pair.eigenvalue - 5.5) < 1e-14

    def test_cancelled_lowering_band_gives_unit_vector(self):
        # A_n = 2 h12 sqrt(n(n-1)) is dust next to h11 w/2 = 0.25: the block is
        # diagonal, where the recurrence would divide by it and overflow
        pair = spectra.eigenvector_coefficients(ThreeParamOscillator(0.5, 1e-200, 0.5), 1, 3, 0)
        assert np.nonzero(pair.coefficients)[0].tolist() == [6]
        assert pair.eigenvalue == 6.5 and pair.residual == 0.0

    def test_generic_residual_on_large_truncation(self):
        osc = ThreeParamOscillator(0.4, 0.3, 0.6)
        pair = spectra.eigenvector_coefficients(osc, 1, 3, 1, trunc=200)
        assert pair.residual < 1e-10

    def test_residual_of_huge_coefficients_does_not_overflow(self):
        # (M - E) d has entries near 1e285, whose squares overflow; their norm does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = spectra.eigenvector_coefficients(
                ThreeParamOscillator(1.0, -1e300, 1e300), 1, 10, 0)
        assert math.isfinite(pair.residual)
        assert pair.residual <= 1e-12 * abs(pair.eigenvalue)

    def test_support_parity(self):
        osc = ThreeParamOscillator(0.4, 0.3, 0.6)
        pair = spectra.eigenvector_coefficients(osc, 1, 4, 0)
        support = np.nonzero(np.abs(pair.coefficients) > 0)[0]
        assert all(idx % 2 == 0 for idx in support)
        assert support.max() == 8

    def test_recurrence_exact_on_support(self):
        rng = np.random.default_rng(181)
        for _ in range(10):
            osc = random_oscillator(rng)
            if osc.h12 == 0:
                continue
            pair = spectra.eigenvector_coefficients(osc, 1, 3, 0)
            omega = pair.frequency
            d = pair.coefficients
            for n in range(0, 7, 2):
                _, b_n, _ = fock_coefficients(osc, omega, n)
                a_plus = fock_coefficients(osc, omega, n + 2)[0]
                c_prev = fock_coefficients(osc, omega, n - 2)[2] if n >= 2 else 0.0
                lhs = a_plus * d[n + 2] + (b_n - pair.eigenvalue) * d[n]
                if n >= 2:
                    lhs += c_prev * d[n - 2]
                assert abs(lhs) < 1e-12

    def test_excited_states_mix_occupation_vectors(self):
        osc = ThreeParamOscillator(0.4, 0.3, 0.6)
        for k in range(1, 4):
            pair = spectra.eigenvector_coefficients(osc, 1, k, 0)
            assert (np.abs(pair.coefficients) > 0).sum() >= 2

    def test_negative_branch(self):
        osc = ThreeParamOscillator(0.4, 0.3, 0.6)
        pair = spectra.eigenvector_coefficients(osc, -1, 2, 0, trunc=120)
        assert pair.eigenvalue.real < 0
        assert pair.residual < 1e-10

    def test_broken_phase_rejected(self):
        with pytest.raises(spectra.BrokenPhaseError):
            spectra.eigenvector_coefficients(ThreeParamOscillator(0.5, 0.0, -0.5), 1, 1, 0)

    @pytest.mark.parametrize("excitation", [300, 400])
    def test_normalized_where_the_sum_of_squares_overflows(self, excitation):
        # the largest coefficient of the unnormalized recurrence exceeds 1e154
        pair = spectra.eigenvector_coefficients(ThreeParamOscillator(0.5, 0.2, 0.5), 1,
                                                excitation, 0)
        assert abs(linalg.frobenius_norm(pair.coefficients) - 1.0) <= 1e-14
        assert np.abs(pair.coefficients).max() > 0.1

    def test_overflowing_recurrence_names_the_excitation(self):
        with pytest.raises(canonical.NonFiniteError,
                           match="^eigenvector coefficients of excitation 600 overflow$"):
            spectra.eigenvector_coefficients(ThreeParamOscillator(0.5, 0.2, 0.5), 1, 600, 0)

    @pytest.mark.parametrize("excitation, parity, top", [(0, 0, 0), (0, 1, 1), (3, 1, 7)])
    def test_top(self, excitation, parity, top):
        assert spectra.eigenvector_top(excitation, parity) == top
        pair = spectra.eigenvector_coefficients(ThreeParamOscillator(0.4, 0.3, 0.6), 1,
                                                excitation, parity)
        assert np.nonzero(pair.coefficients)[0].max() == top

    @pytest.mark.parametrize("excitation, parity, message", [
        (0, 2, "parity must be 0 or 1"), (-1, 5, "parity must be 0 or 1"),
        (-1, 0, "excitation must be non-negative")])
    def test_top_rejects(self, excitation, parity, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            spectra.eigenvector_top(excitation, parity)


class TestGeneralQuadraticSpectrum:
    def test_harmonic(self):
        h = canonical.harmonic_oscillator()
        for n in range(5):
            assert abs(spectra.general_quadratic_spectrum(h, n) - (n + 0.5)) < 1e-14

    def test_gamma_family_transition(self):
        below = canonical.ahmed_hermitian(0.5, alpha=1.0)
        above = canonical.ahmed_hermitian(1.5, alpha=1.0)
        assert abs(spectra.general_quadratic_spectrum(below, 3).imag) < 1e-14
        assert abs(spectra.general_quadratic_spectrum(above, 3).imag) > 0.1

    def test_fixed_force_constant_always_real(self):
        for gamma in (0.0, 1.0, 5.0, 20.0):
            h = canonical.ahmed_hermitian(gamma, k=2.0)
            value = spectra.general_quadratic_spectrum(h, 4)
            assert abs(value.imag) < 1e-12
            assert abs(value - math.sqrt(2) / 2 * 9) < 1e-10

    def test_matches_truncation_for_random_transforms(self):
        rng = np.random.default_rng(191)
        base = canonical.harmonic_oscillator()
        checked = 0
        while checked < 20:
            gen = canonical.Generator(*(0.35 * (rng.normal(size=3) + 1j * rng.normal(size=3))))
            u = canonical.from_generator(gen)
            if canonical.normalizable(u).margin < 0.3:
                continue
            # truncation converges only when both the eigenvectors and their
            # biorthogonal partners (entrywise-conjugate transform) decay in
            # the omega = 1 number basis
            w_right = (u.u11 + 1j * u.u21) / (u.u22 - 1j * u.u12)
            w_left = (u.u11.conjugate() + 1j * u.u21.conjugate()) / (
                u.u22.conjugate() - 1j * u.u12.conjugate()
            )
            rates = [abs((1 - w) / (1 + w)) for w in (w_right, w_left)]
            if max(rates) > 0.75:
                continue
            target = canonical.apply_to_quadratic(u, base)
            fock = spectra.quadratic_fock_matrix(target, 1.0, 80)
            eigs = spectra.parity_spectrum(fock).eigenvalues
            for n in range(4):
                expected = spectra.general_quadratic_spectrum(target, n)
                assert abs(eigs[n] - expected) < 1e-8
            checked += 1


class TestBrokenPhase:
    def test_gamma_family_transition(self):
        assert not spectra.broken_phase(canonical.ahmed_hermitian(0.5, alpha=1.0))
        assert not spectra.broken_phase(canonical.ahmed_hermitian(1.0, alpha=1.0))
        assert spectra.broken_phase(canonical.ahmed_hermitian(1.5, alpha=1.0))

    def test_rounding_is_not_broken(self):
        # Omega^2 = 1 - 1e-26 j: Im Omega = -5e-27, below 1e-12 |Omega|
        assert not spectra.broken_phase(canonical.QuadraticHamiltonian(1.0, 1e-13 + 5e-14j, 1.0))
        # Im Omega = 1e-6 is well above it
        assert spectra.broken_phase(canonical.QuadraticHamiltonian(1.0, 0.0, -1e-12))


class TestSolveLevels:
    def test_broken_phase_reference(self):
        """The closed forms are kept; the deviations from them are None."""
        q = canonical.ahmed_hermitian(1.5, alpha=1.0)
        report = spectra.solve_levels(q, 1.0, 40, 4, reference=q)
        levels, solved = report.levels, report.solved
        assert report.broken_phase
        assert solved.eigenvalues.size == 4 and solved.fock.size == 40
        assert [level.index for level in levels] == [0, 1, 2, 3]
        assert [level.eigenvalue for level in levels] == list(solved.eigenvalues)
        assert [level.parity for level in levels] == list(solved.parities)
        assert [level.reference for level in levels] == [
            spectra.general_quadratic_spectrum(q, n) for n in range(4)]
        assert all(level.deviation is level.matched is None for level in levels)
        assert report.max_deviation is report.normalizable is report.passed is None
        assert report.notes == ()

    def test_against_a_reference(self):
        base = canonical.scaled_oscillator(2.0)
        target = canonical.apply_to_quadratic(canonical.rath_mallick(0.3, 0.2), base)
        report = spectra.solve_levels(target, 1.0, 80, 6, reference=base)
        for level, eig in zip(report.levels, report.solved.eigenvalues):
            reference = spectra.general_quadratic_spectrum(base, level.index)
            assert level.reference == reference
            assert level.deviation == abs(eig - reference) < 1e-10
            assert level.matched is None
        assert report.max_deviation == max(level.deviation for level in report.levels)
        assert not report.broken_phase
        assert report.normalizable is report.passed is None

    def test_verify_matches_its_levels(self):
        transform = canonical.rath_mallick(0.3, 0.2)
        report = spectra.verify_isospectral(transform, trunc=80, n_levels=6, tol=1e-8)
        solved = spectra.solve_levels(
            canonical.apply_to_quadratic(transform, canonical.harmonic_oscillator()),
            1.0, 80, 6, reference=canonical.harmonic_oscillator(), transform=transform)
        assert report == dataclasses.replace(
            solved, passed=True,
            levels=tuple(dataclasses.replace(level, matched=True) for level in solved.levels))
        assert report.max_deviation == max(level.deviation for level in solved.levels)
        assert report.normalizable == canonical.normalizable(transform)

    @pytest.mark.parametrize("trunc, n_levels, message", [
        (40, 0, "levels must be at least 1"),
        (39, 10, "trunc must be at least 4*levels, got 39 < 40"),
    ])
    def test_level_budget_is_checked_first(self, monkeypatch, trunc, n_levels, message):
        """Before the references and the truncation: the budget bounds both."""
        def unreachable(*args):
            raise AssertionError("built before the budget check")

        for name in ("general_quadratic_spectrum", "quadratic_fock_matrix"):
            monkeypatch.setattr(spectra, name, unreachable)
        with pytest.raises(ValueError) as caught:
            spectra.solve_levels(canonical.harmonic_oscillator(), 1.0, trunc, n_levels,
                                 reference=canonical.harmonic_oscillator())
        assert str(caught.value) == message

    def test_references_come_before_the_truncation(self):
        # the scale overflows, and so would the truncation's bands
        q = canonical.QuadraticHamiltonian(1e200, 1e200j, -1e200)
        with pytest.raises(canonical.NonFiniteError, match="non-finite spectrum scale"):
            spectra.solve_levels(q, 1.0, 8, 2, reference=q)

    @pytest.mark.parametrize("alpha, beta, margin", [(0.3, 0.2, 0.8 / 1.3), (-1.0, 0.5, None)])
    def test_normalizability_of_the_transform(self, alpha, beta, margin):
        """canonical.normalizable's verdict, None on the degenerate line alpha = -1."""
        transform = canonical.rath_mallick(alpha, beta)
        q = canonical.apply_to_quadratic(transform, canonical.harmonic_oscillator())
        report = spectra.solve_levels(q, 1.0, 40, 4, reference=q, transform=transform)
        if margin is None:
            assert report.normalizable is None
        else:
            assert report.normalizable == canonical.normalizable(transform)
            assert report.normalizable.margin == pytest.approx(margin)


class TestVerifyIsospectral:
    def test_identity(self):
        report = spectra.verify_isospectral(canonical.identity(), trunc=40, n_levels=6)
        assert report.passed and report.max_deviation < 1e-13

    def test_mix_transform(self):
        report = spectra.verify_isospectral(
            canonical.rath_mallick(0.3, 0.2), trunc=120, n_levels=8, tol=1e-8
        )
        assert report.passed
        assert report.normalizable is not None and report.normalizable.normalizable

    def test_gauge_on_shifted_base(self):
        alpha, beta = 1.1, 0.6
        base = canonical.scaled_oscillator(alpha**2 + beta**2)
        report = spectra.verify_isospectral(
            canonical.gauge(beta), trunc=120, n_levels=6, tol=1e-8, base=base
        )
        assert report.passed
        scale = math.sqrt(alpha**2 + beta**2)
        for level in report.levels:
            assert abs(level.reference - scale * (level.index + 0.5) * 2 / 2) < 1e-12

    def test_parity_labels(self):
        report = spectra.verify_isospectral(canonical.rath_mallick(0.2, 0.1), trunc=60, n_levels=6)
        assert [level.parity for level in report.levels] == [0, 1, 0, 1, 0, 1]

    def test_level_budget_enforced(self):
        # solve_levels's message, the command line's
        with pytest.raises(ValueError, match=r"trunc must be at least 4\*levels, got 40 < 44"):
            spectra.verify_isospectral(canonical.identity(), trunc=40, n_levels=11)


class TestEtaCheck:
    def test_hermitian_projector(self):
        fock = spectra.quadratic_fock_matrix(canonical.harmonic_oscillator(), 1.0, 50)
        report = spectra.eta_check(spectra.parity_spectrum(fock, levels=5), tol=1e-10)
        assert report.passed
        assert report.biorthonormality_defect < 1e-12
        assert report.pseudo_hermiticity_defect < 1e-12

    def test_mix_truncation(self):
        target = canonical.apply_to_quadratic(
            canonical.rath_mallick(0.3, 0.2), canonical.harmonic_oscillator()
        )
        fock = spectra.quadratic_fock_matrix(target, 1.0, 100)
        report = spectra.eta_check(spectra.parity_spectrum(fock, levels=6), tol=1e-6)
        assert report.passed
        assert report.biorthonormality_defect <= 1e-8

    def test_degenerate_rejection(self):
        # diag(1, 1 + 1e-9, 2): 1 and 2 in the even block, 1 + 1e-9 in the odd
        fock = spectra.FockMatrix(
            blocks=(linalg.Tridiagonal([1.0, 2.0], [0.0], [0.0]),
                    linalg.Tridiagonal([1.0 + 1e-9], [], [])),
            size=3)
        with pytest.raises(spectra.DegenerateEigenvaluesError) as info:
            spectra.eta_check(spectra.parity_spectrum(fock, levels=2))
        assert info.value.pair is not None

    def test_zero_operator_has_zero_defect(self):
        fock = spectra.quadratic_fock_matrix(canonical.QuadraticHamiltonian(0, 0, 0), 1.0, 6)
        report = spectra.eta_check(spectra.parity_spectrum(fock, levels=1))
        assert report.pseudo_hermiticity_defect == 0.0 and report.passed

    def test_tiny_truncation_keeps_its_defect(self):
        # the mix (0.3, 0.2) quadratic and its copy scaled by 1e-200, whose
        # truncation's entries all square to 0
        target = canonical.apply_to_quadratic(
            canonical.rath_mallick(0.3, 0.2), canonical.harmonic_oscillator()
        )
        tiny = canonical.QuadraticHamiltonian(*(1e-200 * c for c in
                                                (target.c_pp, target.c_xp, target.c_xx)))
        plain, scaled = (spectra.eta_check(spectra.parity_spectrum(
            spectra.quadratic_fock_matrix(q, 1.0, 40), levels=4)).pseudo_hermiticity_defect
            for q in (target, tiny))
        assert 0.0 < plain < 1e-15
        assert plain / 10 <= scaled <= 10 * plain

    @staticmethod
    def mix_kappa(alpha, beta, size):
        target = canonical.apply_to_quadratic(
            canonical.rath_mallick(alpha, beta), canonical.harmonic_oscillator())
        solved = spectra.parity_spectrum(
            spectra.quadratic_fock_matrix(target, 1.0, size), levels=8)
        return solved, np.array(spectra.eta_check(solved).kappa)

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.2), (0.9, -0.5), (0.6, 0.6)])
    @pytest.mark.parametrize("size", [40, 200])
    def test_kappa_matches_lapack_left_and_right_vectors(self, alpha, beta, size):
        """kappa_n = ||x|| ||y|| / |y^H x| from LAPACK's left and right
        eigenvectors of the dense parity block, level by level."""
        scipy_linalg = pytest.importorskip("scipy.linalg")
        solved, kappa = self.mix_kappa(alpha, beta, size)
        blocks = [scipy_linalg.eig(dense_tridiagonal(block), left=True)
                  for block in solved.fock.blocks]
        expected = []
        for lam, par in zip(solved.eigenvalues, solved.parities):
            values, left, right = blocks[par]
            k = np.argmin(np.abs(values - lam))
            x, y = right[:, k], left[:, k]
            expected.append(np.linalg.norm(x) * np.linalg.norm(y) / abs(np.vdot(y, x)))
        assert np.abs(kappa / expected - 1).max() <= 1e-8
        assert kappa.min() >= 1.0

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.2), (0.9, -0.5), (0.6, 0.6)])
    def test_kappa_settles_with_the_truncation(self, alpha, beta):
        """Levels 0-7 lie far below the truncation edge, so their kappa_n is the
        operator's, the same at N = 200 and N = 2000."""
        small, large = (self.mix_kappa(alpha, beta, size)[1] for size in (200, 2000))
        assert np.abs(small / large - 1).max() <= 1e-6

    def test_kappa_grows_with_the_level(self):
        # the values at levels 0 and 7 that ROADMAP item 3 lists for the mix (0.3, 0.2)
        kappa = self.mix_kappa(0.3, 0.2, 200)[1]
        assert np.all(np.diff(kappa) > 0)
        assert abs(kappa[0] - 1.065) < 1e-3 and abs(kappa[7] - 10.30) < 1e-2

    def test_level_count_bounded_by_truncation(self):
        fock = spectra.quadratic_fock_matrix(canonical.harmonic_oscillator(), 1.0, 3)
        with pytest.raises(ValueError, match="at most 3 levels"):
            spectra.parity_spectrum(fock, levels=5)
        solved = spectra.parity_spectrum(fock, levels=3)
        assert solved.eigenvalues.size == 3
        assert spectra.eta_check(solved, tol=1e-10).passed


class TestStructuralInvariants:
    def test_exactness_at_critical_frequency(self):
        rng = np.random.default_rng(193)
        for _ in range(10):
            osc = random_oscillator(rng)
            crit = spectra.critical_frequencies(osc)
            fock = spectra.quadratic_fock_matrix(osc.as_quadratic(), crit.omega_plus, 50)
            # each parity block is triangular here; LAPACK solves it block by block
            eigs = np.sort_complex(np.concatenate(
                [np.linalg.eigvals(dense_tridiagonal(b)) for b in fock.blocks]))
            expected = np.sort(
                [spectra.closed_form_eigenvalue(osc, n, 1) for n in range(50)]
            )
            scale = max(1.0, abs(expected[-1]))
            assert np.abs(eigs - expected).max() < 1e-10 * scale

    def test_branch_symmetry_on_triangular_diagonal(self):
        rng = np.random.default_rng(197)
        for _ in range(10):
            osc = random_oscillator(rng)
            crit = spectra.critical_frequencies(osc)
            minus = truncation(osc, crit.omega_minus, 30)
            diag = np.real(np.diagonal(minus))
            expected = np.array(
                [spectra.closed_form_eigenvalue(osc, n, -1) for n in range(30)]
            )
            assert np.abs(diag - expected).max() < 1e-12 * max(1.0, np.abs(expected).max())

    def test_truncation_convergence_is_monotone(self):
        osc = spectra.rath_mallick_oscillator(0.3, 0.2)
        target_level = 10
        deviations = []
        for size in (50, 100, 200, 400):
            fock = spectra.quadratic_fock_matrix(osc.as_quadratic(), 1.0, size)
            eigs = spectra.parity_spectrum(fock).eigenvalues
            deviations.append(abs(eigs[target_level] - (target_level + 0.5)))
        for previous, current in zip(deviations, deviations[1:]):
            assert current <= previous + 1e-12


def held_arrays(value):
    """Every numpy array reachable through the fields of a (nested) dataclass."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            yield from held_arrays(getattr(value, item.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from held_arrays(item)


def test_truncation_memory_is_linear_in_size():
    """A truncation is stored as its bands; nothing N x N is built or kept."""
    size = 2000
    target = canonical.apply_to_quadratic(
        canonical.rath_mallick(0.3, 0.2), canonical.harmonic_oscillator()
    )
    tracemalloc.start()
    try:
        fock = spectra.quadratic_fock_matrix(target, 1.0, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense route peaked at 61 MiB here
    assert peak < 2 ** 20
    gamma = spectra.quadratic_fock_matrix(canonical.ahmed_hermitian(0.3, alpha=1.0), 1.0, size)
    solved = spectra.parity_spectrum(gamma, levels=8)
    for held in (fock, gamma, solved):
        sizes = [array.size for array in held_arrays(held)]
        assert sizes and max(sizes) <= 3 * size


class TestMixIdentityChain:
    def test_transform_agrees_with_coefficient_map(self):
        rng = np.random.default_rng(199)
        for _ in range(20):
            lam, beta = rng.uniform(-0.7, 0.7, size=2)
            osc = spectra.rath_mallick_oscillator(lam, beta)
            image = canonical.apply_to_quadratic(
                canonical.rath_mallick(lam, beta), canonical.harmonic_oscillator()
            )
            assert image.isclose(osc.as_quadratic(), tol=1e-13)


class TestThreeParamOscillatorValue:
    """Fields are converted and checked in __post_init__; the generated
    __init__, eq, hash and repr are the dataclass ones."""

    def test_fields_equality_hash_repr(self):
        osc = ThreeParamOscillator(0.5, 0, 1)
        assert [f.name for f in dataclasses.fields(ThreeParamOscillator)] == ["h11", "h12", "h22"]
        assert osc == ThreeParamOscillator(h22=1.0, h11=0.5, h12=0.0)
        assert osc == ThreeParamOscillator(0.5, h12=0.0, h22=1.0)
        assert osc != SHO and osc != (0.5, 0.0, 1.0)
        assert hash(osc) == hash((0.5, 0.0, 1.0))
        assert repr(osc) == "ThreeParamOscillator(h11=0.5, h12=0.0, h22=1.0)"
        assert dataclasses.replace(osc, h12=0.25) == ThreeParamOscillator(0.5, 0.25, 1.0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SHO.h11 = 1.0
        assert SHO.h11 == 0.5

    @pytest.mark.parametrize("half", [0.5, np.float64(0.5), np.float32(0.5), np.int64(2) / 4])
    def test_fields_stored_as_float(self, half):
        osc = ThreeParamOscillator(half, 0, np.int64(1))
        assert all(type(v) is float for v in (osc.h11, osc.h12, osc.h22))
        assert osc == ThreeParamOscillator(0.5, 0.0, 1.0)

    @pytest.mark.parametrize("position", range(3))
    def test_first_non_finite_field_is_named(self, position):
        coeffs = [0.5, 0.0, 0.5][:position] + [math.nan, math.inf, -math.inf][position:]
        name = ("h11", "h12", "h22")[position]
        with pytest.raises(ValueError) as raised:
            ThreeParamOscillator(*coeffs)
        assert str(raised.value) == f"{name} must be finite"
