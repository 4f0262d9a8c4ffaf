import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhosc import canonical, spectra, weyl
from nhosc.canonical import CanonicalTransform, Generator, QuadraticHamiltonian

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def expm_taylor(mat, terms=40):
    """Scaled-and-squared Taylor series exponential; oracle for from_generator."""
    norm = float(np.abs(mat).sum())
    squarings = max(0, int(math.ceil(math.log2(max(norm, 1e-30)))) + 1)
    small = mat / (2.0**squarings)
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ small / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def generator_action_matrix(gen):
    # the (x, p) column transforms by exp of this matrix under conjugation
    return np.array([[-gen.c, -gen.b], [gen.a, gen.c]], dtype=complex)


def random_transform(rng, scale=0.5):
    gen = Generator(*(scale * (rng.normal(size=3) + 1j * rng.normal(size=3))))
    return canonical.from_generator(gen)


class TestFromMatrix:
    def test_identity(self):
        u = canonical.from_matrix(1, 0, 0, 1)
        assert u == canonical.identity()

    @pytest.mark.parametrize("beta", [0.1, 1.0, -2.5, 3j])
    def test_gauge_column_always_valid(self, beta):
        u = canonical.from_matrix(1, 0, 1j * beta, 1)
        assert abs(u.determinant - 1) < 1e-14

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="determinant"):
            canonical.from_matrix(1, 1, 1, 1)

    def test_determinant_message(self):
        with pytest.raises(ValueError, match=r"^determinant must be 1, measured \(4\+0j\)$"):
            canonical.from_matrix(2, 0, 0, 2)


class TestFiniteEntries:
    """Non-finite entries are rejected when a transform or quadratic is built."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    @pytest.mark.parametrize("position", range(4))
    def test_transform_rejects_non_finite(self, bad, position):
        entries = [1, 0, 0, 1]
        entries[position] = bad
        name = ("u11", "u12", "u21", "u22")[position]
        with pytest.raises(canonical.NonFiniteError, match=f"^{name} must be finite"):
            canonical.CanonicalTransform(*entries)

    def test_overflowing_determinant_rejected(self):
        # each entry is finite, but the products overflow and the determinant is NaN
        with pytest.raises(ValueError, match="determinant must be 1"):
            canonical.from_matrix(1e200, 1e200, 1e200, 1e200)

    def test_infinite_determinant_rejected(self):
        # |det - 1| and its bound relative to the products are both infinite
        with pytest.raises(ValueError, match="determinant must be 1"):
            canonical.from_matrix(1e200, 0, 0, 1e200)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, 1)])
    @pytest.mark.parametrize("position", range(3))
    def test_quadratic_rejects_non_finite(self, bad, position):
        coeffs = [0.5, 0.0, 0.5]
        coeffs[position] = bad
        name = ("c_pp", "c_xp", "c_xx")[position]
        with pytest.raises(canonical.NonFiniteError, match=f"^{name} must be finite"):
            canonical.QuadraticHamiltonian(*coeffs)

    def test_overflow_in_a_family_is_caught(self):
        # k = alpha^2 - gamma^2 is inf - inf
        with pytest.raises(canonical.NonFiniteError, match="c_xx"):
            canonical.ahmed_hermitian(1e200, alpha=1e200)

    @pytest.mark.parametrize("alpha, beta", [(1e200, 1e200), (1e200, -1e200)])
    def test_overflowing_mix_is_non_finite(self, alpha, beta):
        # 1 + alpha beta overflows, so s = 1/sqrt(1 + alpha beta) would be 0
        with pytest.raises(canonical.NonFiniteError, match="^mix transform overflows"):
            canonical.rath_mallick(alpha, beta)

    @pytest.mark.parametrize("transform, base", [
        # u21**2 and u11**2 raise OverflowError
        (canonical.gauge(1e300), canonical.harmonic_oscillator()),
        (canonical.from_matrix(1e200, 0, 0, 1e-200), canonical.harmonic_oscillator()),
        # c_xx u11**2 is inf
        (canonical.from_matrix(1e100, 0, 0, 1e-100), canonical.scaled_oscillator(1e200)),
    ])
    def test_overflowing_image_is_non_finite(self, transform, base):
        with pytest.raises(canonical.NonFiniteError,
                           match="^quadratic image under the transform overflows"):
            canonical.apply_to_quadratic(transform, base)

    def test_non_finite_error_is_a_value_error(self):
        assert issubclass(canonical.NonFiniteError, ValueError)


class TestFromGenerator:
    def test_pure_dilation(self):
        t = 0.8
        u = canonical.from_generator(Generator(0, 0, t))
        assert abs(u.u11 - math.exp(-t)) < 1e-14
        assert abs(u.u22 - math.exp(t)) < 1e-14
        assert abs(u.u12) == 0 and abs(u.u21) == 0

    def test_degenerate_theta(self):
        # c^2 = a b collapses theta to zero; entries become linear in (a, b, c)
        a, c = 0.3, 0.6
        b = c * c / a
        u = canonical.from_generator(Generator(a, b, c))
        assert abs(u.u11 - (1 - c)) < 1e-12
        assert abs(u.u12 - (-b)) < 1e-12
        assert abs(u.u21 - a) < 1e-12
        assert abs(u.u22 - (1 + c)) < 1e-12

    def test_hyperbolic_mix(self):
        u = canonical.from_generator(Generator(1, -1, 0))
        expected = np.array(
            [[math.cosh(1), math.sinh(1)], [math.sinh(1), math.cosh(1)]]
        )
        assert np.abs(u.matrix() - expected).max() < 1e-14

    def test_matches_exponentiated_action(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            gen = Generator(*(0.7 * (rng.normal(size=3) + 1j * rng.normal(size=3))))
            u = canonical.from_generator(gen)
            oracle = expm_taylor(generator_action_matrix(gen))
            assert np.abs(u.matrix() - oracle).max() < 1e-12

    def test_branch_independent(self):
        gen = Generator(0.4 + 0.2j, -0.7, 0.3j)
        theta = gen.theta
        for branch in (theta, -theta):
            cosh, sinhc = canonical._cosh_sinhc(branch)
            assert abs((cosh - gen.c * sinhc) - canonical.from_generator(gen).u11) < 1e-14
            assert abs((-gen.b * sinhc) - canonical.from_generator(gen).u12) < 1e-14

    def test_series_region_accuracy(self):
        # just below and above the series switch, against the exponential oracle
        for eps in (1e-7, 1e-6, 2e-6):
            gen = Generator(eps, eps, eps)
            u = canonical.from_generator(gen)
            oracle = expm_taylor(generator_action_matrix(gen))
            assert np.abs(u.matrix() - oracle).max() < 1e-14


class TestRathMallick:
    def test_identity_at_origin(self):
        assert canonical.rath_mallick(0, 0) == canonical.identity()

    def test_singular_parameters(self):
        with pytest.raises(ValueError, match="singular"):
            canonical.rath_mallick(1, -1)

    def test_generic_determinant(self):
        u = canonical.rath_mallick(0.3, 0.2)
        assert abs(u.determinant - 1) < 1e-14

    @pytest.mark.parametrize("beta", [-0.99999999, -0.9999999999, -0.999999999998])
    def test_near_singular_determinant_accepted(self, beta):
        # s = 1/sqrt(1 + beta) is large and det = s*s + beta*s*s rounds by
        # about s*s*EPS, far above DET_TOL in absolute terms
        u = canonical.rath_mallick(1.0, beta)
        assert abs(u.determinant - 1) <= 4 * np.finfo(float).eps * abs(u.u11 * u.u22)

    @pytest.mark.parametrize("entries", [(2, 0, 0, 1), (1, 1e-11, 1, 1), (1e6, 0, 0, 1e-6 + 1e-15)])
    def test_wrong_determinant_rejected(self, entries):
        with pytest.raises(ValueError, match="^determinant must be 1"):
            canonical.from_matrix(*entries)


class TestGauge:
    def test_zero_is_identity(self):
        assert canonical.gauge(0) == canonical.identity()

    def test_undoes_shifted_oscillator(self):
        alpha, beta = 0.8, 0.45
        h_beta = canonical.ahmed_oscillator(alpha, beta)
        image = canonical.apply_to_quadratic(canonical.gauge(-beta), h_beta)
        assert image.isclose(canonical.scaled_oscillator(alpha**2 + beta**2))

    def test_double_gauge_gives_adjoint(self):
        alpha, beta = 0.8, 0.45
        h_beta = canonical.ahmed_oscillator(alpha, beta)
        image = canonical.apply_to_quadratic(canonical.gauge(-2 * beta), h_beta)
        adjoint = QuadraticHamiltonian(
            h_beta.c_pp.conjugate(), h_beta.c_xp.conjugate(), h_beta.c_xx.conjugate()
        )
        assert image.isclose(adjoint)


class TestGroupStructure:
    def test_inverse(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            u = random_transform(rng)
            assert canonical.compose(u, canonical.inverse(u)).isclose(canonical.identity())

    def test_gauge_subgroup(self):
        u = canonical.compose(canonical.gauge(0.7), canonical.gauge(-0.3))
        assert u.isclose(canonical.gauge(0.4))

    def test_associativity_and_determinant(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            u, v, w = (random_transform(rng) for _ in range(3))
            lhs = canonical.compose(canonical.compose(u, v), w)
            rhs = canonical.compose(u, canonical.compose(v, w))
            assert lhs.isclose(rhs)
            assert abs(canonical.compose(u, v).determinant - 1) < 1e-12

    def test_substitution_composition_order(self):
        # substituting by v then by u equals substituting by the product v*u
        rng = np.random.default_rng(73)
        u, v = random_transform(rng), random_transform(rng)
        a = weyl.X**2 * weyl.P + 2j * weyl.X
        twice = weyl.substitute_linear(weyl.substitute_linear(a, v), u)
        once = weyl.substitute_linear(a, canonical.compose(v, u))
        assert twice.isclose(once, rel_tol=1e-10)


class TestApplyToQuadratic:
    def test_identity_fixes(self):
        h = QuadraticHamiltonian(0.4, 0.1j, 0.7)
        assert canonical.apply_to_quadratic(canonical.identity(), h).isclose(h)

    def test_rath_mallick_coefficients(self):
        alpha, beta = 0.3, 0.2
        u = canonical.rath_mallick(alpha, beta)
        image = canonical.apply_to_quadratic(u, canonical.harmonic_oscillator())
        denom = 2 * (1 + alpha * beta)
        assert abs(image.c_pp - (1 - alpha**2) / denom) < 1e-14
        assert abs(image.c_xx - (1 - beta**2) / denom) < 1e-14
        assert abs(image.c_xp - 1j * (alpha + beta) / denom) < 1e-14

    def test_gauge_column_reproduces_shifted_oscillator(self):
        alpha, beta = 0.9, 0.35
        u = canonical.from_matrix(1, 0, 1j * beta, 1)
        base = QuadraticHamiltonian(0.5, 0.0, 0.5 * (alpha**2 + beta**2))
        assert canonical.apply_to_quadratic(u, base).isclose(
            canonical.ahmed_oscillator(alpha, beta)
        )

    def test_matches_weyl_substitution(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            u = random_transform(rng)
            h = QuadraticHamiltonian(
                *(rng.normal(size=3) + 1j * rng.normal(size=3))
            )
            image = canonical.apply_to_quadratic(u, h)
            symbolic = weyl.substitute_linear(h.weyl_poly(), u)
            assert symbolic.isclose(image.weyl_poly(), rel_tol=1e-12)

    def test_hermiticity_matches_adjoint_equality(self):
        rng = np.random.default_rng(83)
        base = canonical.harmonic_oscillator()
        cases = [random_transform(rng) for _ in range(8)]
        # real symplectic conjugation keeps the oscillator Hermitian
        cases.append(canonical.from_generator(Generator(0.5, -0.5, 0.0)))
        for u in cases:
            image = canonical.apply_to_quadratic(u, base)
            poly = image.weyl_poly()
            by_coeffs = image.is_hermitian(tol=1e-10)
            by_adjoint = weyl.adjoint(poly).isclose(poly, rel_tol=1e-10)
            assert by_coeffs == by_adjoint

    def test_pt_symmetry_from_coefficient_pattern(self):
        u = canonical.rath_mallick(0.3, 0.2)
        image = canonical.apply_to_quadratic(u, canonical.harmonic_oscillator())
        assert abs(image.c_pp.imag) < 1e-14 and abs(image.c_xx.imag) < 1e-14
        assert abs(image.c_xp.real) < 1e-14
        assert weyl.is_pt_symmetric(image.weyl_poly())
        skewed = canonical.apply_to_quadratic(
            canonical.from_generator(Generator(0.3 + 0.4j, 0.1, 0.2j)),
            canonical.harmonic_oscillator(),
        )
        assert not weyl.is_pt_symmetric(skewed.weyl_poly())


class TestNormalizable:
    def test_identity(self):
        result = canonical.normalizable(canonical.identity())
        assert result.normalizable and abs(result.margin - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.3, 0.2), (0.9, -0.5), (-0.5, 0.9), (0.5, 1.5), (-1.5, 0.5), (2.0, -0.3)],
    )
    def test_mix_margin_formula(self, alpha, beta):
        if abs(1 + alpha * beta) < 1e-9:
            pytest.skip("singular parameters")
        result = canonical.normalizable(canonical.rath_mallick(alpha, beta))
        expected = (1 - beta) / (1 + alpha)
        assert abs(result.margin - expected) < 1e-12
        assert result.normalizable == (expected > 0)

    def test_boundary_case(self):
        result = canonical.normalizable(canonical.from_matrix(1, 0, 1j, 1))
        assert result.margin == 0.0 and not result.normalizable

    def test_degenerate_denominator(self):
        u = canonical.from_matrix(-1, 1j, 0, -1)
        with pytest.raises(ValueError, match="degenerate"):
            canonical.normalizable(u)


class TestGeneratorRatioCheck:
    def test_symmetric_generator(self):
        alpha, beta = canonical.generator_ratio_check(Generator(0.4, 0.4, 0))
        assert abs(alpha / beta + 1) < 1e-12

    def test_ratio_formula(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            a, b = rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5) * (-1) ** int(rng.integers(2))
            alpha, beta = canonical.generator_ratio_check(Generator(a, b, 0))
            assert abs(alpha / beta - (-b / a)) < 1e-10

    def test_consistent_with_mix_family(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            a = rng.uniform(0.1, 0.8)
            b = -rng.uniform(0.1, 0.8)
            gen = Generator(a, b, 0)
            alpha, beta = canonical.generator_ratio_check(gen)
            direct = canonical.from_generator(gen)
            mix = canonical.rath_mallick(alpha, beta)
            assert direct.isclose(mix, tol=1e-10)

    def test_rejects_bad_generators(self):
        with pytest.raises(ValueError):
            canonical.generator_ratio_check(Generator(0.0, 1.0, 0))
        with pytest.raises(ValueError):
            canonical.generator_ratio_check(Generator(1.0, 1.0, 0.2))


class TestQuadraticHelpers:
    def test_frequency_scale_invariant_under_transforms(self):
        rng = np.random.default_rng(101)
        base = canonical.harmonic_oscillator()
        for _ in range(10):
            u = random_transform(rng)
            image = canonical.apply_to_quadratic(u, base)
            assert abs(image.frequency_scale - base.frequency_scale) < 1e-12

    def test_gamma_family_scale(self):
        assert abs(canonical.ahmed_hermitian(0.5, alpha=1.0).frequency_scale
                   - 0.5 * math.sqrt(1 - 0.25)) < 1e-14
        broken = canonical.ahmed_hermitian(2.0, alpha=1.0).frequency_scale
        assert abs(broken.real) < 1e-14 and broken.imag > 0
        fixed_k = canonical.ahmed_hermitian(5.0, k=2.0).frequency_scale
        assert abs(fixed_k - math.sqrt(2) / 2) < 1e-14


class TestValueObjects:
    """Fields are converted and checked in __post_init__; the generated
    __init__, eq, hash and repr are the dataclass ones."""

    def test_fields_in_order(self):
        assert [f.name for f in dataclasses.fields(CanonicalTransform)] == [
            "u11", "u12", "u21", "u22"]
        assert [f.name for f in dataclasses.fields(QuadraticHamiltonian)] == [
            "c_pp", "c_xp", "c_xx"]

    def test_keyword_and_positional_construction(self):
        u = canonical.rath_mallick(0.3, 0.2)
        by_keyword = CanonicalTransform(u22=u.u22, u21=u.u21, u12=u.u12, u11=u.u11)
        mixed = CanonicalTransform(u.u11, u.u12, u21=u.u21, u22=u.u22)
        assert by_keyword == u == mixed
        assert dataclasses.replace(u, u12=u.u12) == u
        h = QuadraticHamiltonian(c_xx=0.7, c_pp=0.4, c_xp=0.1j)
        assert h == QuadraticHamiltonian(0.4, 0.1j, 0.7)
        with pytest.raises(TypeError):
            QuadraticHamiltonian(0.4, 0.1j)

    def test_frozen(self):
        u, h = canonical.identity(), canonical.harmonic_oscillator()
        with pytest.raises(dataclasses.FrozenInstanceError):
            u.u11 = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.c_pp = 1.0
        assert u == canonical.identity() and h == canonical.harmonic_oscillator()

    def test_equality_hash_and_repr(self):
        u = CanonicalTransform(1, 0, 0, 1.0)
        assert u == canonical.identity() and u != canonical.gauge(0.5)
        assert u != (1, 0, 0, 1)
        assert hash(u) == hash((1 + 0j, 0j, 0j, 1 + 0j))
        assert repr(u) == "CanonicalTransform(u11=(1+0j), u12=0j, u21=0j, u22=(1+0j))"
        h = QuadraticHamiltonian(0.5, 0, 2)
        assert hash(h) == hash((0.5 + 0j, 0j, 2 + 0j))
        assert repr(h) == "QuadraticHamiltonian(c_pp=(0.5+0j), c_xp=0j, c_xx=(2+0j))"
        assert len({h, QuadraticHamiltonian(0.5, 0.0, 2.0), canonical.harmonic_oscillator()}) == 2

    @pytest.mark.parametrize("one", [1, 1.0, 1 + 0j, np.int64(1), np.float64(1.0),
                                     np.float32(1.0), np.complex128(1.0)])
    def test_fields_stored_as_complex(self, one):
        u = CanonicalTransform(one, 0, 0, one)
        h = QuadraticHamiltonian(one, one, one)
        for value in (u.u11, u.u12, u.u21, u.u22, h.c_pp, h.c_xp, h.c_xx):
            assert type(value) is complex
        assert u == canonical.identity() and h == QuadraticHamiltonian(1, 1, 1)

    @pytest.mark.parametrize("position", range(4))
    def test_first_non_finite_entry_is_named(self, position):
        # every entry from `position` on is NaN; the first one is reported
        entries = [1, 0, 0, 1][:position] + [math.nan] * (4 - position)
        name = ("u11", "u12", "u21", "u22")[position]
        with pytest.raises(canonical.NonFiniteError) as raised:
            CanonicalTransform(*entries)
        assert str(raised.value) == f"{name} must be finite, got (nan+0j)"

    @pytest.mark.parametrize("position", range(3))
    def test_first_non_finite_coefficient_is_named(self, position):
        coeffs = [0.5, 0.0, 0.5][:position] + [complex(1, math.inf)] * (3 - position)
        name = ("c_pp", "c_xp", "c_xx")[position]
        with pytest.raises(canonical.NonFiniteError) as raised:
            QuadraticHamiltonian(*coeffs)
        assert str(raised.value) == f"{name} must be finite, got (1+infj)"

    def test_non_finite_error_is_weyl_class(self):
        assert canonical.NonFiniteError is weyl.NonFiniteError


def _complexes(bound):
    parts = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
    return st.builds(complex, parts, parts)


# random SL(2, C) elements: exponentials of generators with |a|, |b|, |c| <= sqrt(2)
transforms = st.builds(
    lambda a, b, c: canonical.from_generator(Generator(a, b, c)),
    _complexes(1.0), _complexes(1.0), _complexes(1.0),
)
quadratics = st.builds(QuadraticHamiltonian, _complexes(2.0), _complexes(2.0), _complexes(2.0))

# rounding of a few products of doubles, relative to the size of the operands
REL_TOL = 1e-13


def _size(u):
    return max(1.0, abs(u.u11), abs(u.u12), abs(u.u21), abs(u.u22))


def _entries_close(u, v, scale):
    return all(abs(getattr(u, f) - getattr(v, f)) <= REL_TOL * scale
               for f in ("u11", "u12", "u21", "u22"))


def _discriminant(h):
    return h.c_pp * h.c_xx - h.c_xp * h.c_xp


class TestGroupLawProperties:
    """Group laws and isospectrality over random SL(2, C) transforms."""

    @given(transforms, transforms, transforms)
    @PROPERTY_SETTINGS
    def test_compose_is_associative(self, u, v, w):
        lhs = canonical.compose(canonical.compose(u, v), w)
        rhs = canonical.compose(u, canonical.compose(v, w))
        assert _entries_close(lhs, rhs, _size(u) * _size(v) * _size(w))

    @given(transforms)
    @PROPERTY_SETTINGS
    def test_inverse_composes_to_identity(self, u):
        for product in (canonical.compose(u, canonical.inverse(u)),
                        canonical.compose(canonical.inverse(u), u)):
            assert _entries_close(product, canonical.identity(), _size(u) ** 2)

    @given(transforms)
    @PROPERTY_SETTINGS
    def test_identity_is_neutral(self, u):
        assert canonical.compose(canonical.identity(), u) == u
        assert canonical.compose(u, canonical.identity()) == u

    @given(transforms, transforms, quadratics)
    @PROPERTY_SETTINGS
    def test_apply_agrees_with_composition(self, u, v, h):
        # substituting by u, then by v, is substituting by the product u v
        twice = canonical.apply_to_quadratic(v, canonical.apply_to_quadratic(u, h))
        once = canonical.apply_to_quadratic(canonical.compose(u, v), h)
        scale = max(1.0, abs(h.c_pp), abs(h.c_xp), abs(h.c_xx)) * (_size(u) * _size(v)) ** 2
        for f in ("c_pp", "c_xp", "c_xx"):
            assert abs(getattr(twice, f) - getattr(once, f)) <= REL_TOL * scale

    @given(transforms, quadratics)
    @PROPERTY_SETTINGS
    def test_discriminant_and_closed_form_spectrum_invariant(self, u, h):
        image = canonical.apply_to_quadratic(u, h)
        # the size of the products that cancel in c_pp c_xx - c_xp^2
        scale = (max(1.0, abs(h.c_pp), abs(h.c_xp), abs(h.c_xx)) * _size(u) ** 2) ** 2
        gap = abs(_discriminant(image) - _discriminant(h))
        assert gap <= REL_TOL * scale
        # E_n = sqrt(D)(2n+1) up to the branch of the root; for any complex a, b
        # min |sqrt(a) -+ sqrt(b)| <= sqrt|a - b|
        for n in range(4):
            e_h = spectra.general_quadratic_spectrum(h, n)
            e_image = spectra.general_quadratic_spectrum(image, n)
            miss = min(abs(e_image - e_h), abs(e_image + e_h))
            assert miss <= (2 * n + 1) * math.sqrt(REL_TOL * scale) + 1e-14 * abs(e_h)

