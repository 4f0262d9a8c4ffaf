import math
import warnings

import numpy as np
import pytest

from nhosc import canonical, spectra, wavefun
from nhosc.spectra import ThreeParamOscillator
from nhosc.wavefun import Grid, WavefunctionSample

# 30-digit reference values for the orthonormal n = 20 function at unit
# frequency, computed once with an extended-precision evaluation of
# H_20(x) exp(-x^2/2) / sqrt(2^20 20! sqrt(pi))
HERMITE_20_REFERENCE = {
    0.0: 0.31529120094180283317151225812,
    1.0: 0.315816475077235169487476643122,
    5.0: -0.395580603296076457574645272424,
}


def gauss_legendre_overlap(m, n, omega, nodes=400):
    half = 12.0 / math.sqrt(omega)
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = x * half
    w = w * half
    fm = wavefun.hermite_function(m, omega, x)
    fn = wavefun.hermite_function(n, omega, x)
    return float(np.sum(w * fm * fn))


class TestHermiteFunction:
    def test_ground_state_formula(self):
        for omega in (0.5, 1.0, 3.0):
            x = np.linspace(-2, 2, 9)
            expected = (omega / math.pi) ** 0.25 * np.exp(-0.5 * omega * x**2)
            assert np.abs(wavefun.hermite_function(0, omega, x) - expected).max() < 1e-15

    def test_first_excited_odd(self):
        assert wavefun.hermite_function(1, 1.0, 0.0) == 0.0

    def test_orthonormality_by_quadrature(self):
        omega = 0.8
        for m in range(0, 21, 5):
            for n in range(m, 21, 5):
                overlap = gauss_legendre_overlap(m, n, omega)
                expected = 1.0 if m == n else 0.0
                assert abs(overlap - expected) < 1e-10

    def test_reference_values(self):
        for x, reference in HERMITE_20_REFERENCE.items():
            value = wavefun.hermite_function(20, 1.0, x)
            assert abs(value - reference) < 1e-10 * abs(reference)

    def test_frequency_scaling(self):
        # h_n at frequency w is w^(1/4) h_n(sqrt(w) x) at unit frequency
        omega, x = 2.5, 0.7
        lhs = wavefun.hermite_function(6, omega, x)
        rhs = omega**0.25 * wavefun.hermite_function(6, 1.0, math.sqrt(omega) * x)
        assert abs(lhs - rhs) < 1e-13

    def test_extreme_argument_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = wavefun.hermite_function(3, 1.0, np.array([-1e300, -40.0, 40.0, 1e300]))
        assert np.isfinite(values).all()
        # (1e300)^2 overflows, but the Gaussian's limit is an exact 0
        assert values[0] == values[-1] == 0.0
        # so does the scaled coordinate sqrt(omega) x, and every row's limit is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = wavefun.hermite_basis(1, 1e200, np.array([-1e250, 0.0, 1e250]))
        assert np.isfinite(basis).all()
        assert not basis[:, [0, 2]].any() and basis[0, 1] > 0

    def test_tail_beyond_gaussian_underflow(self):
        # exp(-x^2/2) is subnormal beyond |x| = 37.6 and 0 beyond 38.6, where
        # level 1000 is still O(0.1)
        import mpmath as mp

        x = np.array([-45.0, -40.0, -38.0, 0.5, 37.0, 50.0])
        values = wavefun.hermite_function(1000, 1.0, x)
        with mp.workdps(40):
            scale = mp.sqrt(2**1000 * mp.factorial(1000) * mp.sqrt(mp.pi))
            for point, value in zip(x, values):
                point = mp.mpf(float(point))
                reference = float(mp.exp(-point * point / 2) * mp.hermite(1000, point) / scale)
                assert abs(value - reference) <= 1e-12 * abs(reference)
        # points where the Gaussian is normal keep the plain recurrence, bit for bit
        assert np.array_equal(wavefun.hermite_basis(1000, 1.0, x[3:5]),
                              wavefun.hermite_basis(1000, 1.0, x)[:, 3:5])

    @pytest.mark.parametrize("n", [0, 1, 17, 1000])
    def test_row_of_the_basis_bit_for_bit(self, n):
        # far points (|x| > 38.6) carry an exponent through the recurrence
        x = np.concatenate((np.linspace(-60.0, 60.0, 241), [-1e300, 1e-300, 1e300]))
        assert np.array_equal(wavefun.hermite_function(n, 0.7, x),
                              wavefun.hermite_basis(n, 0.7, x)[n])
        grid = x.reshape(4, -1)
        assert np.array_equal(wavefun.hermite_function(n, 0.7, grid),
                              wavefun.hermite_basis(n, 0.7, grid)[n])
        assert wavefun.hermite_function(n, 0.7, 2.5) == wavefun.hermite_basis(n, 0.7, 2.5)[n]

    def test_memory_independent_of_level(self):
        import tracemalloc

        x = np.linspace(-50.0, 50.0, 20001)
        tracemalloc.start()
        try:
            wavefun.hermite_function(1000, 1.0, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a few rows of 8-byte samples, not the 1001 rows of the basis
        assert peak < 16 * x.size * 8

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            wavefun.hermite_function(0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_frequency(self, bad):
        with pytest.raises(ValueError, match=f"omega must be finite, got {bad}"):
            wavefun.hermite_function(2, bad, np.zeros(3))
        with pytest.raises(ValueError, match="omega must be finite"):
            wavefun.default_grid(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="x must be finite"):
            wavefun.hermite_function(2, 1.0, np.array([0.0, bad]))
        with pytest.raises(ValueError, match="x must be finite"):
            wavefun.rm_ground_state(0.3, 0.2, bad)


class TestRmGroundState:
    def test_reduces_to_oscillator(self):
        x = np.linspace(-3, 3, 11)
        assert np.abs(
            wavefun.rm_ground_state(0.0, 0.0, x) - wavefun.hermite_function(0, 1.0, x)
        ).max() < 1e-15

    def test_width_parameter(self):
        # exponent coefficient is half of (1-beta)/(1+alpha)
        width = (1 - 0.2) / (1 + 0.3)
        assert abs(width - 8.0 / 13.0) < 1e-15
        x = 1.3
        value = wavefun.rm_ground_state(0.3, 0.2, x)
        expected = (width / math.pi) ** 0.25 * math.exp(-0.5 * width * x * x)
        assert abs(value - expected) < 1e-15

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (0.0, 1.5), (-1.2, 0.0), (-1.0, 0.5)])
    def test_outside_region_rejected(self, alpha, beta):
        with pytest.raises(wavefun.NonNormalizableError):
            wavefun.rm_ground_state(alpha, beta, 0.0)

    def test_rejection_carries_margin(self):
        with pytest.raises(wavefun.NonNormalizableError) as info:
            wavefun.rm_ground_state(0.5, 2.0, 0.0)
        assert info.value.margin is not None and info.value.margin < 0

    def test_width_is_the_margin_of_the_mix(self):
        for alpha, beta in [(0.3, 0.2), (-0.6, 0.9), (1.4, -0.9), (0.0, 0.0)]:
            width = wavefun.rm_ground_width(alpha, beta)
            assert width == (1 - beta) / (1 + alpha)
            margin = canonical.normalizable(canonical.rath_mallick(alpha, beta)).margin
            assert abs(width - margin) <= 1e-14 * width

    @pytest.mark.parametrize("alpha,beta,message", [
        (0.3, 1.0, "state is not square integrable (margin 0); requires beta < 1 and alpha > -1"),
        (-1.5, 0.2, "state is not square integrable (margin -1.6); "
                    "requires beta < 1 and alpha > -1"),
        (-1.0, 0.2, "alpha = -1 is degenerate"),
    ])
    def test_width_rejection_messages(self, alpha, beta, message):
        with pytest.raises(wavefun.NonNormalizableError) as info:
            wavefun.rm_ground_width(alpha, beta)
        assert str(info.value) == message

    def test_unit_norm_across_region(self):
        for alpha in np.linspace(-0.6, 1.4, 5):
            for beta in np.linspace(-0.9, 0.9, 5):
                width = (1 - beta) / (1 + alpha)
                grid = wavefun.default_grid(width, 2001)
                values = wavefun.rm_ground_state(alpha, beta, grid.points)
                sample = WavefunctionSample(grid, values, width, "rm")
                assert abs(wavefun.quadrature_norm(sample) - 1.0) < 1e-10


class TestSynthesize:
    def test_unit_pair_is_hermite(self):
        pair = spectra.eigenvector_coefficients(ThreeParamOscillator(0.5, 0, 0.5), 1, 2, 0)
        grid = wavefun.default_grid(1.0, 801)
        sample = wavefun.synthesize(pair, 1.0, grid)
        assert np.abs(sample.values - wavefun.hermite_function(4, 1.0, grid.points)).max() < 1e-12

    def test_quadrature_norm_matches_coefficients(self):
        osc = ThreeParamOscillator(0.4, 0.3, 0.6)
        for k, s in ((1, 0), (3, 1), (5, 0)):
            pair = spectra.eigenvector_coefficients(osc, 1, k, s)
            omega = pair.frequency
            grid = wavefun.default_grid(omega, 2001)
            sample = wavefun.synthesize(pair, omega, grid)
            coeff_norm = float(np.sqrt((np.abs(pair.coefficients) ** 2).sum()))
            assert abs(wavefun.quadrature_norm(sample) - coeff_norm) < 1e-8

    def test_parity(self):
        osc = ThreeParamOscillator(0.4, 0.3, 0.6)
        for s in (0, 1):
            pair = spectra.eigenvector_coefficients(osc, 1, 2, s)
            grid = wavefun.default_grid(pair.frequency, 1001)
            sample = wavefun.synthesize(pair, pair.frequency, grid)
            mirrored = sample.values[::-1]
            sign = 1.0 if s == 0 else -1.0
            scale = np.abs(sample.values).max()
            assert np.abs(sample.values - sign * mirrored).max() <= 1e-12 * scale


class TestCountNodes:
    def make_sample(self, n, omega=1.0, points=2001):
        grid = wavefun.default_grid(omega, points)
        values = wavefun.hermite_function(n, omega, grid.points)
        return WavefunctionSample(grid, values, omega, f"hermite {n}")

    def test_third_level(self):
        assert wavefun.count_nodes(self.make_sample(3)) == 3

    @pytest.mark.parametrize("omega", [0.3, 1.0, 4.0])
    def test_ground_state_nodeless(self, omega):
        assert wavefun.count_nodes(self.make_sample(0, omega)) == 0

    def test_node_theorem(self):
        for n in range(11):
            assert wavefun.count_nodes(self.make_sample(n)) == n

    def test_real_gauge_factor_preserves_nodes(self):
        # eigenfunctions of the real-gauge transformed operator carry a
        # positive weight exp(beta x^2 / 2); node count is unchanged
        beta = 0.3
        grid = wavefun.default_grid(1.0, 2001)
        for n in range(7):
            values = np.exp(0.5 * beta * grid.points**2) * wavefun.hermite_function(
                n, 1.0, grid.points
            )
            sample = WavefunctionSample(grid, values, 1.0, "gauged")
            assert wavefun.count_nodes(sample) == n

    def test_rejects_complex_sample(self):
        grid = wavefun.default_grid(1.0, 501)
        values = np.exp(0.5j * grid.points**2) * wavefun.hermite_function(2, 1.0, grid.points)
        sample = WavefunctionSample(grid, values, 1.0, "phased")
        with pytest.raises(ValueError, match="complex"):
            wavefun.count_nodes(sample)


class TestGrid:
    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_requires_finite_points(self, bad):
        with pytest.raises(ValueError, match="grid points must be finite"):
            Grid(np.array([0.0, 1.0, bad]))

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            Grid(np.array([1.0]))

    def test_spacing_detection(self):
        assert Grid(np.linspace(0, 1, 11)).spacing == pytest.approx(0.1)
        assert Grid(np.array([0.0, 0.5, 2.0])).spacing is None

    def test_width_overflow_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflows"):
                wavefun.uniform_grid(1e308, 5)
            assert wavefun.uniform_grid(8e307, 5).points[-1] == 8e307

    def test_low_levels_take_the_spacing_rule(self):
        # 4 points per pi/sqrt((2n+1) w) hold at levels 0 and 1 as at 2 and up
        assert [wavefun.min_grid_points(n) for n in range(3)] == [32, 54, 70]
        assert wavefun.max_grid_spacing(0, 4.0) == math.pi / 8
        assert wavefun.max_grid_spacing(1, 1.0) == math.pi / math.sqrt(3) / 4

    def test_sample_length_checked(self):
        grid = wavefun.uniform_grid(1.0, 11)
        with pytest.raises(ValueError):
            WavefunctionSample(grid, np.zeros(5), 1.0, "bad")
