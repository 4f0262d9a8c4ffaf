import math

import numpy as np
import pytest
from fock_reference import weyl_truncation

from nhosc import weyl
from nhosc.weyl import ONE, P, X, WeylPoly

GAUSSIAN_INTS = [1, -1, 1j, -1j, 2, 1 + 1j, -2j, 3]


def random_poly(rng, max_exp=2, n_terms=3):
    """Random polynomial with small Gaussian-integer coefficients (exact arithmetic)."""
    terms = {}
    for _ in range(n_terms):
        key = (int(rng.integers(0, max_exp + 1)), int(rng.integers(0, max_exp + 1)))
        terms[key] = terms.get(key, 0) + GAUSSIAN_INTS[int(rng.integers(len(GAUSSIAN_INTS)))]
    return WeylPoly(terms)


def fock(poly, size=20, omega=1.0):
    return weyl_truncation(poly, omega, size)


class TestAdd:
    def test_additive_inverse(self):
        assert (X + (-X)).is_zero

    def test_sum_of_squares(self):
        assert dict((P**2 + X**2).terms) == {(0, 2): 1 + 0j, (2, 0): 1 + 0j}

    def test_imaginary_parts_cancel(self):
        xp = weyl.monomial(1, 1)
        assert (xp + 1j * ONE) + (xp - 1j * ONE) == 2 * xp


class TestMul:
    def test_ordered_product(self):
        assert X * P == weyl.monomial(1, 1)

    def test_single_commutation(self):
        assert P * X == weyl.monomial(1, 1) - 1j * ONE

    def test_p2_x2(self):
        expected = WeylPoly({(2, 2): 1, (1, 1): -4j, (0, 0): -2})
        assert P**2 * X**2 == expected

    def test_p2_x2_fock_oracle(self):
        # representation of the product vs product of representations,
        # compared on the leading block unaffected by truncation
        size, deg = 20, 4
        lhs = fock(P**2 * X**2, size)
        rhs = fock(P**2, size) @ fock(X**2, size)
        block = np.s_[: size - deg, : size - deg]
        assert np.abs(lhs[block] - rhs[block]).max() < 1e-10

    def test_associative_and_distributive(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_canonical_form_identity(self):
        assert P * X + 1j * ONE == X * P

    def test_relative_pruning(self):
        # coefficients below 1e-14 of the largest one are cancellation dust
        dusty = X + 1e-20 * ONE
        assert dusty == X
        # comparable magnitudes survive
        assert (1e-20 * X + 2e-20 * ONE).coefficient(1, 0) != 0


class TestCommutator:
    def test_x_p(self):
        assert weyl.commutator(X, P) == 1j * ONE

    def test_self_commutator(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            h = random_poly(rng)
            assert weyl.commutator(h, h).is_zero

    def test_x2_p(self):
        assert weyl.commutator(X**2, P) == 2j * X

    def test_x2_p_fock_oracle(self):
        size = 20
        lhs = fock(weyl.commutator(X**2, P), size)
        rhs = fock(X**2, size) @ fock(P, size) - fock(P, size) @ fock(X**2, size)
        block = np.s_[: size - 3, : size - 3]
        assert np.abs(lhs[block] - rhs[block]).max() < 1e-10


class TestAdjoint:
    def test_shifted_momentum(self):
        beta = 0.75
        assert weyl.adjoint(P + 1j * beta * X) == P - 1j * beta * X

    def test_hermitian_monomial(self):
        assert weyl.adjoint(X**2) == X**2

    def test_antihermitian_combination(self):
        op = 1j * (X * P + P * X)
        assert weyl.adjoint(op) == -op

    def test_matches_conjugate_transpose(self):
        op = 1j * (X * P + P * X) + 0.5 * P**2 - 2j * X
        assert np.abs(fock(weyl.adjoint(op), 18) - fock(op, 18).conj().T).max() < 1e-12

    def test_involution(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = random_poly(rng)
            assert weyl.adjoint(weyl.adjoint(a)) == a

    def test_antihomomorphism(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a, b = random_poly(rng), random_poly(rng)
            assert weyl.adjoint(a * b) == weyl.adjoint(b) * weyl.adjoint(a)


class TestPTTransform:
    def test_even_monomial(self):
        assert weyl.pt_transform(X**2) == X**2

    def test_symmetric_dilation(self):
        op = 1j * (X * P + P * X)
        assert weyl.pt_transform(op) == op
        assert weyl.is_pt_symmetric(op)

    def test_parity_of_x(self):
        assert weyl.pt_transform(X) == -X

    def test_ix_symmetric(self):
        assert weyl.is_pt_symmetric(1j * X)

    def test_involution(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = random_poly(rng)
            assert weyl.pt_transform(weyl.pt_transform(a)) == a


class TestSubstituteLinear:
    def test_identity(self):
        from nhosc import canonical

        assert weyl.substitute_linear(X, canonical.identity()) == X

    def test_rath_mallick_on_oscillator(self):
        from nhosc import canonical

        alpha, beta = 0.3, 0.2
        u = canonical.rath_mallick(alpha, beta)
        image = weyl.substitute_linear(0.5 * (P**2 + X**2), u)
        scale = 1.0 / (2.0 * (1.0 + alpha * beta))
        expected = scale * ((P + 1j * beta * X) ** 2 + (X + 1j * alpha * P) ** 2)
        assert image.isclose(expected)

    def test_commutator_preserved(self):
        from nhosc import canonical

        rng = np.random.default_rng(37)
        for _ in range(20):
            g = canonical.Generator(*(rng.normal(size=3) + 1j * rng.normal(size=3)) * 0.5)
            u = canonical.from_generator(g)
            assert weyl.substitute_linear(weyl.commutator(X, P), u).isclose(1j * ONE)
            a, b = random_poly(rng), random_poly(rng)
            lhs = weyl.substitute_linear(weyl.commutator(a, b), u)
            rhs = weyl.commutator(
                weyl.substitute_linear(a, u), weyl.substitute_linear(b, u)
            )
            assert lhs.isclose(rhs, rel_tol=1e-9)

    def test_homomorphism(self):
        from nhosc import canonical

        rng = np.random.default_rng(41)
        g = canonical.Generator(0.2 + 0.1j, -0.3, 0.15j)
        u = canonical.from_generator(g)
        for _ in range(10):
            a, b = random_poly(rng), random_poly(rng)
            lhs = weyl.substitute_linear(a * b, u)
            rhs = weyl.substitute_linear(a, u) * weyl.substitute_linear(b, u)
            assert lhs.isclose(rhs, rel_tol=1e-9)

    def test_rejects_non_unit_determinant(self):
        from nhosc import canonical

        # the transform checks its determinant as it is built, the one place
        # the determinant is checked
        with pytest.raises(ValueError, match="determinant"):
            weyl.substitute_linear(X, canonical.from_matrix(2.0, 0.0, 0.0, 1.0))

    def test_accepts_every_transform_that_can_be_built(self):
        from nhosc import canonical

        # near the singular mix line the determinant rounds to 1 + 1.5e-8,
        # within the transform's bound relative to the products it cancels
        u = canonical.rath_mallick(1, -0.99999999)
        oscillator = canonical.harmonic_oscillator()
        image = weyl.substitute_linear(oscillator.weyl_poly(), u)
        assert image.isclose(canonical.apply_to_quadratic(u, oscillator).weyl_poly(), rel_tol=1e-15)


def ahmed_h_beta(alpha, beta):
    return 0.5 * (P + 1j * beta * X) ** 2 + 0.5 * (alpha**2 + beta**2) * X**2


class TestGaugeConjugate:
    def test_zero_exponent(self):
        h = ahmed_h_beta(0.5, 0.25)
        assert weyl.gauge_conjugate(h, weyl.ZERO) == h

    def test_full_gauge_gives_adjoint(self):
        alpha, beta = 0.75, 0.5
        h = ahmed_h_beta(alpha, beta)
        u = weyl.x_polynomial(0, 0, -beta)
        assert weyl.gauge_conjugate(h, u) == weyl.adjoint(h)

    def test_half_gauge_gives_oscillator(self):
        alpha, beta = 0.75, 0.5
        h = ahmed_h_beta(alpha, beta)
        u = weyl.x_polynomial(0, 0, -beta / 2)
        expected = 0.5 * P**2 + 0.5 * (alpha**2 + beta**2) * X**2
        assert weyl.gauge_conjugate(h, u) == expected

    def test_quartic_exponent_supported(self):
        # non-quadratic u: conjugation still an exact algebra map
        u = weyl.x_polynomial(0, 0, 0.5, 0, -0.25)
        h = 0.5 * P**2 + X**2
        image = weyl.gauge_conjugate(h, u)
        back = weyl.gauge_conjugate(image, -1 * u)
        assert back.isclose(h)

    def test_rejects_momentum_exponent(self):
        with pytest.raises(ValueError, match="x only"):
            weyl.gauge_conjugate(X, P)


class TestFockMatrix:
    """WeylPoly products against products of number-basis matrices."""

    def test_oscillator_diagonal(self):
        mat = fock(0.5 * (P**2 + X**2), 12)
        assert np.abs(mat - np.diag(np.arange(12) + 0.5)).max() < 1e-14

    def test_truncation_homomorphism(self):
        rng = np.random.default_rng(53)
        size = 24
        for _ in range(8):
            a, b = random_poly(rng), random_poly(rng)
            deg = max(a.degree, 0) + max(b.degree, 0)
            lhs = fock(a * b, size)
            rhs = fock(a, size) @ fock(b, size)
            block = np.s_[: size - deg, : size - deg]
            scale = max(1.0, np.abs(lhs[block]).max())
            assert np.abs(lhs[block] - rhs[block]).max() < 1e-10 * scale


class TestNonFiniteCoefficients:
    """NaN and infinite coefficients are rejected, not pruned to the zero polynomial."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
    def test_weyl_poly_names_the_term(self, bad):
        with pytest.raises(weyl.NonFiniteError) as raised:
            WeylPoly({(2, 0): bad, (0, 2): 1.0})
        assert str(raised.value) == f"coefficient of x^2 p^0 must be finite, got {complex(bad)!r}"

    def test_overflow_in_arithmetic_is_caught(self):
        huge = WeylPoly({(1, 0): 1e200})
        with pytest.raises(weyl.NonFiniteError):
            huge * huge
        with pytest.raises(weyl.NonFiniteError):
            huge * 1e200

    def test_non_finite_error_is_a_value_error(self):
        assert issubclass(weyl.NonFiniteError, ValueError)

    def test_finite_coefficients_still_prune(self):
        assert WeylPoly({(2, 0): 1.0, (0, 2): 1e-20}) == WeylPoly({(2, 0): 1.0})
        assert str(WeylPoly({(2, 0): 1.0})) == "((1+0j))*x^2"
