"""Closed forms of the two explicit families and the sample ladder family."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heunic import (
    DomainError,
    FamilyParamsNeg,
    FamilyParamsPos,
    FMethod,
    GeneralHeunParams,
    PoleError,
    SeriesOptions,
    eval_F,
    eval_family_negative,
    eval_family_positive,
    eval_heun_local,
    eval_sample_family,
    pochhammer,
)

TIGHT = SeriesOptions(max_terms=20000, rel_tol=1e-15)


def family_positive_mp(fp, x):
    """The positive family at 60 digits: (1-2x)^(-2(n-gamma+theta)) times its
    Gauss sum, summed exactly, since its terms cancel by many digits."""
    n, gamma, theta = fp.n, int(fp.gamma), Fraction(fp.theta)
    z = 4 * Fraction(x) * (1 - Fraction(x))
    total, term = Fraction(0), Fraction(1)
    for k in range(n - gamma + 1):
        total += term
        term *= (k + gamma - n) * (gamma - theta + k) / ((k + 1) * (gamma + k)) * z
    with mpmath.workdps(60):
        exponent = -2 * (n - gamma + mpmath.mpf(fp.theta))
        return (1 - 2 * mpmath.mpf(x)) ** exponent * total.numerator / total.denominator


def binomial_square_sum(n, x):
    """Definitional index-of-coincidence oracle for the two-outcome family."""
    return sum((math.comb(n, k) * x**k * (1 - x) ** (n - k)) ** 2
               for k in range(n + 1))


class TestPochhammer:
    def test_zero_order_is_exactly_one(self):
        assert pochhammer(3.7, 0) == 1
        assert pochhammer(-2.0, 0) == 1

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_rising_from_one_is_factorial(self, k):
        assert pochhammer(1, k) == math.factorial(k)

    def test_half(self):
        assert pochhammer(0.5, 2) == pytest.approx(0.75)

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)


class TestNegativeFamily:
    @pytest.mark.parametrize("x", [-2.0, 0.0, 0.3, 5.0])
    def test_order_zero_is_one(self, x):
        assert eval_family_negative(FamilyParamsNeg(0, 0.7, 1.3), x).value == 1.0

    def test_theta_equals_gamma_collapses_to_even_power(self):
        fp = FamilyParamsNeg(1, 1.0, 1.0)
        assert eval_family_negative(fp, 0.25).value == pytest.approx(0.25, abs=1e-16)
        fp3 = FamilyParamsNeg(3, 2.0, 2.0)
        assert eval_family_negative(fp3, 0.3).value == pytest.approx((1 - 0.6) ** 6,
                                                                    rel=1e-15)

    def test_matches_definitional_index_sum(self):
        fp = FamilyParamsNeg(2, 0.5, 1.0)
        assert eval_family_negative(fp, 0.5).value == pytest.approx(
            binomial_square_sum(2, 0.5), abs=1e-16)
        assert eval_family_negative(fp, 0.5).value == pytest.approx(0.375, abs=1e-16)

    @given(ticks=st.integers(-3072, 3072), n=st.integers(0, 8),
           theta=st.floats(-2, 3), gamma=st.floats(0.6, 3))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_in_x_and_one_minus_x(self, ticks, n, theta, gamma):
        # dyadic x keeps 1 - x exactly representable, so the exact rational
        # evaluation makes the symmetry bit-for-bit
        x = ticks / 1024
        fp = FamilyParamsNeg(n, theta, gamma)
        assert eval_family_negative(fp, x) == eval_family_negative(fp, 1 - x)

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("n", [0, 1, 3, 7, 10])
    def test_agrees_with_series_engine(self, n, theta, gamma):
        fp = FamilyParamsNeg(n, theta, gamma)
        params = GeneralHeunParams(0.5, -2 * n * theta, -2 * n, 2 * theta,
                                   gamma, gamma)
        for i in range(-9, 10):
            x = 0.05 * i
            closed = eval_family_negative(fp, x).value
            series = eval_heun_local(params, x, TIGHT).value
            assert abs(closed - series) <= 1e-12 * max(abs(closed), abs(series), 1.0)

    def test_derivative_steps_down_the_ladder(self):
        # d/dx of the (n+1, theta, gamma) member equals
        # (4(n+1)theta/gamma)(2x-1) times the (n, theta+1, gamma+1) member
        n, theta, gamma = 3, 0.8, 1.4
        upper = FamilyParamsNeg(n + 1, theta, gamma)
        lower = FamilyParamsNeg(n, theta + 1.0, gamma + 1.0)
        h = 1e-3
        for x in (-0.2, 0.1, 0.35):
            fd = (-eval_family_negative(upper, x + 2 * h).value
                  + 8 * eval_family_negative(upper, x + h).value
                  - 8 * eval_family_negative(upper, x - h).value
                  + eval_family_negative(upper, x - 2 * h).value) / (12 * h)
            rhs = (4 * (n + 1) * theta / gamma) * (2 * x - 1) \
                * eval_family_negative(lower, x).value
            assert fd == pytest.approx(rhs, abs=1e-6)

    def test_rejects_degenerate_gamma(self):
        with pytest.raises(DomainError):
            FamilyParamsNeg(2, 1.0, -3.0)
        with pytest.raises(DomainError):
            FamilyParamsNeg(-1, 1.0, 1.0)


class TestPositiveFamily:
    def test_gamma_equals_n_collapses_to_negative_power(self):
        fp = FamilyParamsPos(1, 1.0, 1)
        assert eval_family_positive(fp, 0.25).value == pytest.approx(4.0, rel=1e-15)
        fp4 = FamilyParamsPos(4, 0.5, 4)
        assert eval_family_positive(fp4, 0.2).value == pytest.approx(
            (1 - 0.4) ** (-1.0), rel=1e-14)

    def test_normalized_at_origin(self):
        assert eval_family_positive(FamilyParamsPos(5, 2.5, 2), 0.0).value == 1.0

    def test_waiting_time_value(self):
        # gamma=1, theta=1/2, n=1 at x=-0.3 equals 1/(1+0.6)
        fp = FamilyParamsPos(1, 0.5, 1)
        assert eval_family_positive(fp, -0.3).value == pytest.approx(0.625, rel=1e-15)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_agrees_with_series_engine(self, n, theta):
        for gamma in range(1, n + 1):
            fp = FamilyParamsPos(n, theta, gamma)
            params = GeneralHeunParams(0.5, 2 * n * theta, 2 * n, 2 * theta,
                                       float(gamma), float(gamma))
            for i in range(-9, 10):
                x = 0.05 * i
                closed = eval_family_positive(fp, x).value
                series = eval_heun_local(params, x, TIGHT).value
                assert abs(closed - series) <= 1e-11 * max(abs(closed),
                                                           abs(series), 1.0)

    def test_non_integral_exponent_bounds_the_rounding_of_its_prefactor(self):
        # (1-2x)^e is rounded apart from the exact Gauss sum: the first case
        # is 2.6e-14 off relative, where the estimate was 0
        rng = random.Random("family-pos-estimate")
        cases = [(FamilyParamsPos(116, 1.040549083762685, 1), -0.00479456307094589)]
        for _ in range(60):
            n = rng.randint(1, 120)
            cases.append((FamilyParamsPos(n, rng.uniform(0.01, 5.0), rng.randint(1, n)),
                          rng.choice([rng.uniform(-1.0, 0.5), rng.uniform(0.45, 0.5)])))
        checked = 0
        for fp, x in cases:
            result = eval_family_positive(fp, x)
            if not math.isfinite(result.value):  # (1-2x)^e beyond the float range
                assert not result.converged
                continue
            assert result.converged
            assert abs(result.value - family_positive_mp(fp, x)) <= result.error_estimate
            checked += 1
        assert checked > 40

    def test_integral_exponent_is_exact(self):
        result = eval_family_positive(FamilyParamsPos(7, 2.5, 3), 0.3)
        assert result.error_estimate == 0.0
        assert result.value == float(family_positive_mp(FamilyParamsPos(7, 2.5, 3), 0.3))

    def test_pole_at_half_for_negative_exponent(self):
        with pytest.raises(PoleError):
            eval_family_positive(FamilyParamsPos(3, 1.0, 1), 0.5)

    def test_refuses_complex_branch(self):
        # non-integer exponent with 1 - 2x < 0 has no real value
        with pytest.raises(DomainError):
            eval_family_positive(FamilyParamsPos(3, 0.7, 1), 0.8)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            FamilyParamsPos(0, 0.5, 1)
        with pytest.raises(DomainError):
            FamilyParamsPos(3, 1.0, 0)
        with pytest.raises(DomainError):
            FamilyParamsPos(3, 1.0, 4)
        with pytest.raises(DomainError):
            FamilyParamsPos(5, 0.3, 2.5)

    def test_integral_float_gamma_is_the_integer(self):
        assert eval_family_positive(FamilyParamsPos(5, 0.3, 2.0), 0.2) \
            == eval_family_positive(FamilyParamsPos(5, 0.3, 2), 0.2)


class TestSampleFamily:
    @pytest.mark.parametrize("x", [-1.0, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_top_rung_is_constant_one(self, n, x):
        assert eval_sample_family(n, n, x).value == pytest.approx(1.0, rel=1e-15)

    def test_bottom_rung_is_two_outcome_index(self):
        for x in (-0.4, 0.0, 0.3, 0.7):
            assert eval_sample_family(2, 0, x).value == pytest.approx(
                binomial_square_sum(2, x), rel=1e-13)
        assert eval_sample_family(2, 0, 0.3).value == pytest.approx(
            eval_F(2, 0.3, FMethod.ESTABLISHED).value, rel=1e-15)

    def test_midpoint_reduces_to_single_term(self):
        n, i = 4, 1
        expected = (2.0 / 1.0) * 4.0 ** (-n) / math.comb(n, i) \
            * math.comb(2 * i, i) * math.comb(2 * n - 2 * i, n - i)
        assert eval_sample_family(n, i, 0.5).value == pytest.approx(expected, rel=1e-15)

    def test_matches_series_engine(self):
        n, i = 3, 1
        params = GeneralHeunParams(0.5, (i - n) * (2 * i + 1), 2.0 * (i - n),
                                   2.0 * i + 1, i + 1.0, i + 1.0)
        for x in (0.1, 0.2, 0.35, 0.44):
            series = eval_heun_local(params, x, TIGHT).value
            assert eval_sample_family(n, i, x).value == pytest.approx(series, rel=1e-11)

    def test_index_validation(self):
        with pytest.raises(DomainError):
            eval_sample_family(3, 4, 0.1)
        with pytest.raises(DomainError):
            eval_sample_family(0, 0, 0.1)
