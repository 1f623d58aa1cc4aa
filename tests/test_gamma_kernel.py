import math
import random
from fractions import Fraction

import pytest

from asymconv.expansion_algebra import Chirality, _natural_sum
from asymconv.gamma_kernel import (
    F_const,
    G_q,
    RHO_NORM,
    GammaPoleError,
    _gamma_ratio,
    _integer_case_log2,
    beta_tail_integral,
    binomial_gamma_sum,
    degenerate_case1_coeff,
    fourier_coefficient,
    gauss_sum,
    integer_case_log_coeff,
    tilde_F_const,
)

F = Fraction
HOLO = Chirality.HOLO
ANTI = Chirality.ANTI


def gamma(x):
    return math.gamma(x)


class TestReciprocalGamma:
    # 1/Gamma through _gamma_ratio, the one function every constant uses
    def test_exact_zeros_at_poles(self):
        assert _gamma_ratio([1.0], [0.0]) == 0.0
        assert _gamma_ratio([1.0], [-3.0]) == 0.0
        assert _gamma_ratio([1.0], [-17.0]) == 0.0

    def test_unit_value(self):
        assert _gamma_ratio([], [1.0]) == 1.0

    def test_reflection_identity(self):
        # 1/Gamma(x) * 1/Gamma(1-x) = sin(pi x)/pi away from the integers
        rng = random.Random(20240811)
        for _ in range(40):
            x = rng.uniform(-20, 20)
            if abs(x - round(x)) < 1e-3:
                continue
            lhs = _gamma_ratio([], [x, 1.0 - x])
            rhs = math.sin(math.pi * x) / math.pi
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


class TestExactInputs:
    def test_classifiers_refuse_floats(self):
        with pytest.raises(TypeError):
            G_q(-0.6, F(-7, 10), 0)
        with pytest.raises(TypeError):
            F_const(0, 0, F(-3, 5), -0.7, HOLO)
        with pytest.raises(TypeError):
            fourier_coefficient(0.3, 0, 0)
        with pytest.raises(TypeError):
            degenerate_case1_coeff(0, 0, 0.0, F(-3, 10), HOLO)

    def test_float_collapse_onto_a_pole_raises(self):
        # a+b+1 = 1e-20 is not natural, but in floats -a-b-1 lands on 0
        near = F(-1, 2) + F(1, 10**20)
        with pytest.raises(GammaPoleError):
            F_const(0, 0, near, F(-1, 2), HOLO)
        with pytest.raises(GammaPoleError):
            G_q(near, F(-1, 2), 0)

    def test_float_that_lost_the_fraction_is_refused(self):
        # a, b = 1e17 + 1/3, 1e17 + 1/4: the floats of a and b are integers,
        # so -a and -b would read as poles of Gamma; a is refused by name
        # before any pole is counted, not taken as a (signed) zero
        a, b = F(10**17) + F(1, 3), F(10**17) + F(1, 4)
        for p, chirality in ((1, ANTI), (1, HOLO), (2, ANTI)):
            with pytest.raises(ValueError, match="a is 300000000000000001/3, whose float "
                               "1e[+]17 has lost the fractional part") as info:
                F_const(p, 1, a, b, chirality)
            assert type(info.value) is ValueError

    def test_resonance_test_matches_fraction_arithmetic(self):
        # every pair of exponents > -1 with denominators 1..12, up to 2
        grid = [F(n, d) for d in range(1, 13) for n in range(-d + 1, 2 * d + 1)]
        for a in grid:
            for b in grid:
                total = a + b + 1
                natural = total.denominator == 1 and total >= 0
                assert _natural_sum(a, b) == (int(total) if natural else None)

    def test_slice_bound_is_exact(self):
        # a + p/2 = -1 + 1e-20 is admissible, although in floats it is -1
        near = F(-3, 2) + F(1, 10**20)
        assert math.isfinite(F_const(1, 0, near, F(-1, 4), HOLO))
        with pytest.raises(ValueError):
            F_const(1, 0, F(-3, 2), F(-1, 4), HOLO)


class TestGammaBeyondFloatRange:
    """A Gamma argument past lgamma's range (~2.5e305) is a ValueError that
    names it, never an OverflowError (test_input_contract holds one case
    per entry point); every earlier refusal keeps its place."""

    def test_the_pair_names_its_own_argument(self):
        # each exponent's lgamma is finite at p = q = 2e305, but the pair's
        # Gamma(a+b+p+q+2), at 4e305, is not
        with pytest.raises(ValueError) as info:
            F_const(2 * 10**305, 2 * 10**305, F(-1, 3), F(-1, 4), HOLO)
        assert type(info.value) is ValueError
        assert str(info.value) == "Gamma(4e+305) is beyond float range"

    def test_factorial_and_pole_refusals_come_first(self):
        # n! at a natural exponent, then a pole, before the magnitude
        with pytest.raises(ValueError, match="171! at the natural exponent 171"):
            degenerate_case1_coeff(10**306, 0, F(171), F(-1, 4), HOLO)
        with pytest.raises(GammaPoleError, match="uncancelled Gamma pole"):
            F_const(10**306, 1, F(-1, 3), F(-1, 4), ANTI)


class TestBetaTailIntegral:
    def test_arctan_case(self):
        assert beta_tail_integral(1.0, 0.0) == pytest.approx(math.pi / 2, rel=1e-13)

    def test_elementary_case(self):
        assert beta_tail_integral(2.0, 1.0) == pytest.approx(0.5, rel=1e-13)

    def test_sqrt_case(self):
        assert beta_tail_integral(1.5, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_divergence_rejected(self):
        with pytest.raises(ValueError):
            beta_tail_integral(0.5, 0.0)
        with pytest.raises(ValueError):
            beta_tail_integral(2.0, -1.0)


class TestGq:
    def test_natural_a_kills_the_value(self):
        assert G_q(1, F(-13, 5), 2) == 0.0

    def test_generic_value(self):
        out = G_q(F(-3, 5), F(-7, 10), 0)
        expected = (
            0.5
            * gamma(0.4)
            * gamma(0.3)
            * gamma(0.3)
            / (gamma(0.6) * gamma(0.7) * gamma(0.7))
        )
        assert out == pytest.approx(expected, rel=1e-12)

    def test_resonant_pole_flag(self):
        with pytest.raises(GammaPoleError):
            G_q(F(-1, 2), F(-1, 2), 0)

    def test_is_the_normalized_holo_constant(self):
        # one RHO_NORM: G_q is the p = 0 holo F_const in the convolution's measure
        assert G_q(F(-1, 3), F(-1, 4), 2) == RHO_NORM * F_const(0, 2, F(-1, 3), F(-1, 4), HOLO)

    def test_involution(self):
        # G is stable under b -> -(a+b+q+2) on the negative-sum slice
        samples = [
            (F(-3, 5), F(-7, 10), 0),
            (F(-3, 10), F(-9, 10), 0),
            (F(-7, 10), F(-9, 10), 1),
            (F(-4, 5), F(-3, 4), 1),
            (F(-7, 10), F(-7, 5), 2),
        ]
        for a, b, q in samples:
            assert a + b + 1 + F(q, 2) < 0
            direct = G_q(a, b, q)
            reflected = G_q(a, -(a + b + q + 2), q)
            assert direct == pytest.approx(reflected, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            G_q(F(-6, 5), F(3, 10), 0)


class TestFourierCoefficient:
    def test_parity_zero(self):
        for a in (F(37, 100), F(-1, 2), 2, F(7, 3)):
            assert fourier_coefficient(a, 0, 1) == 0.0
            assert fourier_coefficient(a, 1, 2) == 0.0
            assert fourier_coefficient(a, 2, 5) == 0.0

    def test_integer_example(self):
        # |1 - x e^(-i theta)|^2 averages to 1 + x^2
        assert fourier_coefficient(1, 0, 2) == 1.0
        assert fourier_coefficient(1, 0, 0) == 1.0
        assert fourier_coefficient(1, 0, 4) == 0.0

    def test_constant_term_is_one(self):
        for a in (F(4, 5), F(-1, 2), F(3, 4), 2):
            assert fourier_coefficient(a, 0, 0) == pytest.approx(1.0, rel=1e-13)

    def test_support_window_below_q(self):
        assert fourier_coefficient(F(3, 10), 3, 1) == 0.0

    def test_gamma_formula_matches_binomial_at_integers(self):
        # approach a = n from below and Richardson-extrapolate in epsilon
        eps = F(1, 10**7)
        for n in range(4):
            for q, r in [(0, 0), (0, 2), (1, 1), (1, 3), (2, 2), (0, 4)]:
                if (r + q) // 2 > n:
                    continue
                exact = fourier_coefficient(n, q, r)
                near = fourier_coefficient(n - eps, q, r)
                nearer = fourier_coefficient(n - eps / 2, q, r)
                extrapolated = 2 * nearer - near
                assert extrapolated == pytest.approx(exact, rel=1e-6, abs=1e-6)

    def test_beyond_float_range_is_a_value_error(self):
        # log|coefficient| = 711.76 > log(DBL_MAX) = 709.78
        with pytest.raises(ValueError, match="beyond float range") as info:
            fourier_coefficient(F(1958, 3), 280, 832)
        assert type(info.value) is ValueError


class TestBinomialGammaSum:
    def test_single_term(self):
        for x, y in [(1.3, 0.7), (2.5, 1.1)]:
            assert binomial_gamma_sum(0, x, y) == pytest.approx(
                gamma(x) / gamma(x + y), rel=1e-12
            )

    def test_small_cases(self):
        assert binomial_gamma_sum(1, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert binomial_gamma_sum(2, 1.0, 1.0) == pytest.approx(1 / 3, rel=1e-12)

    def test_recurrence(self):
        # A_{p+1}(x, y) = A_p(x, y) - A_p(x+1, y)
        rng = random.Random(991)
        for _ in range(12):
            x = rng.uniform(0.1, 5.0)
            y = rng.uniform(0.1, 5.0)
            for p in range(8):
                lhs = binomial_gamma_sum(p + 1, x, y)
                rhs = binomial_gamma_sum(p, x, y) - binomial_gamma_sum(p, x + 1, y)
                assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-14)

    def test_explicit_alternating_sum(self):
        rng = random.Random(992)
        for _ in range(8):
            x = rng.uniform(0.2, 4.0)
            y = rng.uniform(0.2, 4.0)
            for p in range(5):
                direct = sum(
                    (-1) ** j
                    * math.comb(p, j)
                    * gamma(x + j)
                    / gamma(x + y + j)
                    for j in range(p + 1)
                )
                assert binomial_gamma_sum(p, x, y) == pytest.approx(
                    direct, rel=1e-10, abs=1e-13
                )


def gauss_series(x, y, z, terms=6000):
    total = 0.0
    term = gamma(x) * gamma(y) / gamma(z)
    for j in range(terms):
        total += term
        term *= (j + x) * (j + y) / ((j + z) * (j + 1))
    # the omitted tail behaves like term_j ~ A j^(-s-1) with s = z-x-y,
    # so sum_{j>=J} is close to term_J * J / s (integral estimate)
    s = z - x - y
    return total + term * terms / s


class TestGaussSum:
    def test_telescoping_case(self):
        assert gauss_sum(1.0, 1.0, 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_quarter_case(self):
        # the convention question: the convergent series fixes the value 1/4
        assert gauss_sum(1.0, 1.0, 4.0) == pytest.approx(0.25, rel=1e-12)
        assert gauss_series(1.0, 1.0, 4.0) == pytest.approx(0.25, rel=1e-6)

    def test_half_integer_case(self):
        assert gauss_sum(0.5, 0.5, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_against_truncated_series(self):
        # the terms decay like j^(-(z-x-y)-1); keeping z-x-y >= 2.5 makes
        # the truncation tail at 6000 terms smaller than 1e-9 relative
        rng = random.Random(4321)
        for _ in range(20):
            x = rng.uniform(0.3, 2.5)
            y = rng.uniform(0.3, 2.5)
            z = x + y + rng.uniform(2.5, 4.0)
            assert gauss_sum(x, y, z) == pytest.approx(
                gauss_series(x, y, z), rel=1e-8
            )

    def test_divergence_rejected(self):
        with pytest.raises(ValueError):
            gauss_sum(1.0, 1.0, 1.5)


class TestFConst:
    def test_zero_at_natural_exponent(self):
        assert F_const(0, 0, 2, F(-3, 10), HOLO) == 0.0
        assert F_const(1, 2, F(-1, 2), 3, ANTI) == 0.0

    def test_pole_on_resonance(self):
        with pytest.raises(GammaPoleError):
            F_const(0, 0, F(-1, 2), F(-1, 2), HOLO)

    def test_generic_positive_value(self):
        out = F_const(0, 0, F(-3, 5), F(-7, 10), HOLO)
        expected = (
            gamma(0.4) * gamma(0.3) * gamma(0.3) / (gamma(0.7) * gamma(0.6) * gamma(0.7))
        )
        assert out == pytest.approx(expected, rel=1e-12)
        assert out > 0

    def test_chirality_agrees_when_one_power_vanishes(self):
        points = [(F(-3, 5), F(-7, 10)), (F(-3, 10), F(-11, 20)), (F(-7, 20), F(-4, 5))]
        for a, b in points:
            for p in range(3):
                holo = F_const(p, 0, a, b, HOLO)
                anti = F_const(p, 0, a, b, ANTI)
                assert holo == pytest.approx(anti, rel=1e-12)
            for q in range(3):
                holo = F_const(0, q, a, b, HOLO)
                anti = F_const(0, q, a, b, ANTI)
                assert holo == pytest.approx(anti, rel=1e-12)

    def test_joint_swap_symmetry(self):
        for chirality in (HOLO, ANTI):
            left = F_const(1, 2, F(-3, 5), F(-7, 10), chirality)
            right = F_const(2, 1, F(-7, 10), F(-3, 5), chirality)
            assert left == pytest.approx(right, rel=1e-12)


class TestTildeFConst:
    def test_reference_value(self):
        assert tilde_F_const(0, 0, F(-1, 2), F(-1, 2), HOLO) == pytest.approx(
            -1.0, rel=1e-12
        )

    def test_anti_example(self):
        value = tilde_F_const(1, 2, F(-1, 2), F(-1, 2), ANTI)
        expected = -gamma(1.5) * gamma(2.5) / (
            gamma(0.5) ** 2 * gamma(3.0) * gamma(2.0)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_even_sum_prefactor(self):
        # a+b = 0 flips the prefactor relative to a+b = -1; by hand the
        # value at (-1/2, 1/2) collapses to Gamma(3/2)/Gamma(-1/2) = -1/4
        value = tilde_F_const(0, 0, F(-1, 2), F(1, 2), HOLO)
        assert value == pytest.approx(-0.25, rel=1e-12)

    def test_never_zero_on_locus(self):
        samples = [
            (0, 0, F(-1, 3), F(-2, 3)),
            (1, 1, F(-1, 4), F(1, 4)),
            (2, 0, F(-3, 4), F(7, 4)),
        ]
        for p, q, a, b in samples:
            for chirality in (HOLO, ANTI):
                assert tilde_F_const(p, q, a, b, chirality) != 0.0

    def test_requires_resonance_and_non_integers(self):
        with pytest.raises(ValueError):
            tilde_F_const(0, 0, F(-1, 2), F(-1, 4), HOLO)
        with pytest.raises(ValueError):
            tilde_F_const(0, 0, F(0), F(0), HOLO)
        with pytest.raises(TypeError):
            tilde_F_const(0, 0, -0.5, -0.5, HOLO)


class TestIntegerCaseLogCoeff:
    def test_base_value(self):
        assert integer_case_log_coeff(0, 0, 0, 0, HOLO) == F(-1, 4)
        assert integer_case_log_coeff(0, 0, 0, 0, ANTI) == F(-1, 4)

    def test_anti_example(self):
        assert integer_case_log_coeff(0, 1, 0, 0, ANTI) == F(-1, 8)

    def test_holo_example_with_monomials(self):
        expected = F(-1, 4) * F(1, 2) * F(1, 12)
        assert integer_case_log_coeff(1, 1, 1, 0, HOLO) == expected

    def test_anti_product_rule_at_zero_exponents(self):
        for p in range(7):
            for q in range(7):
                assert integer_case_log_coeff(p, q, 0, 0, ANTI) == F(
                    -1, 4 * (p + 1) * (q + 1)
                )

    def test_holo_matches_product_rule_when_one_power_vanishes(self):
        for q in range(7):
            assert integer_case_log_coeff(0, q, 0, 0, HOLO) == F(-1, 4 * (q + 1))
            assert integer_case_log_coeff(q, 0, 0, 0, HOLO) == F(-1, 4 * (q + 1))

    def test_joint_swap_symmetry(self):
        for chirality in (HOLO, ANTI):
            assert integer_case_log_coeff(1, 3, 2, 0, chirality) == integer_case_log_coeff(
                3, 1, 0, 2, chirality
            )

    def test_never_zero(self):
        for p in range(4):
            for q in range(4):
                for a in range(3):
                    for b in range(3):
                        for chirality in (HOLO, ANTI):
                            assert integer_case_log_coeff(p, q, a, b, chirality) != 0

    def test_rejects_non_integer_exponents(self):
        with pytest.raises(ValueError):
            integer_case_log_coeff(0, 0, -1, 0, HOLO)

    def test_lgamma_estimate_is_within_its_bound(self):
        # the BothInteger range check reads this estimate instead of the
        # factorials; it must stay inside its own error bound
        for p, q, a, b in [(0, 0, 0, 0), (1, 3, 2, 0), (5, 2, 40, 7), (0, 6, 270, 270),
                           (3, 0, 400, 400), (9, 9, 123, 4567)]:
            for chirality in (HOLO, ANTI):
                exact = integer_case_log_coeff(p, q, a, b, chirality)
                log2 = 2 + math.log2(abs(exact.numerator)) - math.log2(exact.denominator)
                estimate, error = _integer_case_log2(p, q, float(a), float(b), chirality)
                assert 0 <= error < 1e-6
                assert abs(estimate - log2) <= error


class TestDegenerateCase1Coeff:
    def test_zero_exponent_example(self):
        value = degenerate_case1_coeff(0, 0, F(0), F(-3, 10), HOLO)
        expected = -gamma(1.0) * gamma(0.7) * gamma(-0.7) / (gamma(1.7) * gamma(0.3))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_sign_alternates_with_the_natural_exponent(self):
        value = degenerate_case1_coeff(0, 0, F(1), F(-3, 10), HOLO)
        expected = gamma(2.0) * gamma(0.7) * gamma(-1.7) / (gamma(2.7) * gamma(0.3))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_natural_b_mirrors_natural_a(self):
        left = degenerate_case1_coeff(0, 0, F(0), F(-3, 10), HOLO)
        right = degenerate_case1_coeff(0, 0, F(-3, 10), F(0), HOLO)
        assert left == pytest.approx(right, rel=1e-12)

    def test_rejects_wrong_integrality(self):
        with pytest.raises(ValueError):
            degenerate_case1_coeff(0, 0, F(1, 2), F(-1, 4), HOLO)
        with pytest.raises(ValueError):
            degenerate_case1_coeff(0, 0, F(0), F(1), HOLO)


class TestLeadingCoefficientLimits:
    """Each case constant is the limit of F_const across its own locus:
    the residue u*F at a resonance, the derivative F/e across a natural
    exponent, and F*u/(e_a*e_b) at two natural exponents."""

    DELTA = F(1, 10**7)
    PQ = [(p, q) for p in range(3) for q in range(3)]

    @pytest.mark.parametrize("chirality", [HOLO, ANTI])
    @pytest.mark.parametrize("p,q", PQ)
    @pytest.mark.parametrize("a,b", [(F(-1, 2), F(-1, 2)), (F(1, 3), F(2, 3))])
    def test_resonant_is_the_residue(self, p, q, a, b, chirality):
        near = float(self.DELTA) * F_const(p, q, a + self.DELTA, b, chirality)
        exact = tilde_F_const(p, q, a, b, chirality)
        assert near == pytest.approx(exact, rel=1e-5)

    @pytest.mark.parametrize("chirality", [HOLO, ANTI])
    @pytest.mark.parametrize("p,q", PQ)
    @pytest.mark.parametrize("a,b", [(F(0), F(-3, 10)), (F(1), F(2, 5)), (F(-1, 3), F(2))])
    def test_one_natural_is_the_derivative(self, p, q, a, b, chirality):
        if a.denominator == 1:
            near = F_const(p, q, a + self.DELTA, b, chirality)
        else:
            near = F_const(p, q, a, b + self.DELTA, chirality)
        exact = degenerate_case1_coeff(p, q, a, b, chirality)
        assert near / float(self.DELTA) == pytest.approx(exact, rel=1e-5)

    @pytest.mark.parametrize("chirality", [HOLO, ANTI])
    @pytest.mark.parametrize("p,q", PQ)
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (2, 1)])
    def test_both_natural_is_minus_four_times_the_exact_rational(
        self, p, q, a, b, chirality
    ):
        e_a, e_b = self.DELTA, 2 * self.DELTA
        near = F_const(p, q, a + e_a, b + e_b, chirality) * float(
            (e_a + e_b) / (e_a * e_b)
        )
        exact = -4 * integer_case_log_coeff(p, q, a, b, chirality)
        assert near == pytest.approx(float(exact), rel=1e-5)
