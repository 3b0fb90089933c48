"""Hypergeometric series, closed forms, and the Heun bridge."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from heunic import (
    Clausen3F2Params,
    DivergentSeriesError,
    DomainError,
    Gauss2F1Params,
    GeneralHeunParams,
    SeriesOptions,
    clausen_3f2_unit,
    coefficient_a,
    eval_heun_local,
    eval_hl_hypergeometric,
    gauss_2f1,
    gauss_2f1_closed,
    harmonic,
)
from heunic.series import _EPS, _sum_recurrence

TIGHT = SeriesOptions(max_terms=20000, rel_tol=1e-15)
LOOSE = SeriesOptions(max_terms=300000, rel_tol=1e-13)


class TestGauss2F1:
    def test_empty_sum_at_origin(self):
        assert gauss_2f1(Gauss2F1Params(1.3, -0.2, 0.7), 0.0).value == 1.0

    def test_log_case(self):
        r = gauss_2f1(Gauss2F1Params(1, 1, 2), 0.5, TIGHT)
        assert r.value == pytest.approx(-math.log(0.5) / 0.5, rel=1e-14)
        assert r.converged

    def test_second_log_case(self):
        expected = -2 * (0.5 + math.log(0.5)) / 0.25
        r = gauss_2f1(Gauss2F1Params(2, 1, 3), 0.5, TIGHT)
        assert r.value == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.545177, abs=5e-7)

    def test_terminating_series_accepts_large_argument(self):
        # a = -3 terminates after four terms; explicit oracle
        r = gauss_2f1(Gauss2F1Params(-3, 1.5, 2.2), 4.0, TIGHT)
        acc, t = 1.0, 1.0
        for j in range(3):
            t *= (-3 + j) * (1.5 + j) / ((2.2 + j) * (j + 1)) * 4.0
            acc += t
        assert r.value == pytest.approx(acc, rel=1e-14)

    def test_rejects_unit_argument_without_termination(self):
        with pytest.raises(DomainError):
            gauss_2f1(Gauss2F1Params(1.0, 1.0, 5.0), 1.0)

    def test_rejects_degenerate_c(self):
        with pytest.raises(DomainError):
            Gauss2F1Params(1.0, 1.0, 0.0)

    def test_parameter_increment_identity(self):
        # d/dx 2F1(a,b;c;x) = (ab/c) 2F1(a+1,b+1;c+1;x), derivative taken
        # termwise on the truncated series
        a, b, c = 0.7, -1.3, 1.9
        for x in (0.0, 0.2, 0.45):
            term, ds = 1.0, 0.0
            for j in range(400):
                nxt = term * (a + j) * (b + j) / ((c + j) * (j + 1))
                ds += nxt * (j + 1) * x**j
                term = nxt
            rhs = (a * b / c) * gauss_2f1(Gauss2F1Params(a + 1, b + 1, c + 1),
                                          x, TIGHT).value
            assert abs(ds - rhs) < 1e-10

    def test_series_kernel_sums_the_gauss_recurrence(self):
        # f, f', f'' on the trial domain of rel_5_2, against mpmath's
        # f^(i) = (a)_i (b)_i / (c)_i 2F1(a+i, b+i; c+i; x).  The kernel forms
        # the coefficient ratio as k(k-1+c + a+b+1-c) + ab, which loses
        # relative accuracy where (k+a)(k+b) nearly vanishes, so the error is
        # relative to max(1, |f^(i)|), as in rel_5_2's own tests.
        opts = SeriesOptions(max_terms=6000, rel_tol=_EPS)
        rng = random.Random(57)
        with mpmath.workdps(30):
            for _ in range(200):
                a, b, c = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 3)
                x = rng.uniform(0, 0.45)
                got = _sum_recurrence(Gauss2F1Params(a, b, c), x, opts, 2)
                for i, r in enumerate(got):
                    ref = (mpmath.rf(a, i) * mpmath.rf(b, i) / mpmath.rf(c, i)
                           * mpmath.hyp2f1(a + i, b + i, c + i, x))
                    assert r.converged
                    assert abs(r.value - ref) <= 1e-13 * max(1.0, abs(ref)), (a, b, c, x, i)


class TestClausen3F2:
    def test_terminating_numerator_zero(self):
        r = clausen_3f2_unit(Clausen3F2Params(0.0, 1.2, 0.7, 1.5, 2.5))
        assert r.value == 1.0
        assert r.converged

    def test_telescoping_value(self):
        # terms reduce to 1/((k+1)(2k+1)); the sum telescopes to 2 ln 2
        r = clausen_3f2_unit(Clausen3F2Params(0.5, 1, 1, 1.5, 2), LOOSE)
        assert r.value == pytest.approx(2 * math.log(2), abs=1e-10)

    def test_against_long_truncation_with_tail(self):
        p = Clausen3F2Params(0.5, 0.5, 0.5, 1.0, 1.5)
        # raw oracle: 10^6 terms plus the leading algebraic tail correction
        terms = [1.0]
        for k in range(1_000_000 - 1):
            terms.append(terms[-1] * (0.5 + k) ** 3 / ((1.0 + k) * (1.5 + k) * (1 + k)))
        tail = terms[-1] * len(terms)
        oracle = math.fsum(terms) + tail
        got = clausen_3f2_unit(p, LOOSE).value
        assert got == pytest.approx(oracle, abs=5e-7)
        assert got == pytest.approx(1.1662436161232751, abs=1e-9)

    def test_divergent_parameters_raise(self):
        with pytest.raises(DivergentSeriesError):
            clausen_3f2_unit(Clausen3F2Params(1.0, 1.0, 1.0, 1.5, 1.5))

    def test_rejects_degenerate_denominators(self):
        with pytest.raises(DomainError):
            Clausen3F2Params(1.0, 1.0, 1.0, -2.0, 1.5)


class TestHeunBridge:
    def test_normalized_at_origin(self):
        assert eval_hl_hypergeometric(0.8, 0.0).value == pytest.approx(1.0)

    def test_waiting_time_value(self):
        r = eval_hl_hypergeometric(1.0, 0.3, TIGHT)
        assert r.value == pytest.approx(2.5, rel=1e-13)

    def test_against_series_engine(self):
        for q in (0.5, 1.0, 1.5, 2.0, 0.75):
            params = GeneralHeunParams(0.5, q, 2 * q, 1.0, 1.0, 1.0)
            for x in (0.05, 0.25, 0.45):
                bridge = eval_hl_hypergeometric(q, x, TIGHT).value
                series = eval_heun_local(params, x, TIGHT).value
                assert bridge == pytest.approx(series, rel=1e-11)

    def test_negative_arguments_use_reflected_series(self):
        for q in (0.5, 1.3):
            params = GeneralHeunParams(0.5, q, 2 * q, 1.0, 1.0, 1.0)
            for x in (-0.45, -0.25, -0.1):
                bridge = eval_hl_hypergeometric(q, x, TIGHT).value
                series = eval_heun_local(params, x, TIGHT).value
                assert bridge == pytest.approx(series, rel=1e-11)

    def test_excluded_orders(self):
        for q in (0.0, -1.0, -0.5, -1.5):
            with pytest.raises(DomainError):
                eval_hl_hypergeometric(q, 0.2)

    def test_domain_limits(self):
        with pytest.raises(DomainError):
            eval_hl_hypergeometric(1.0, 1.0)
        with pytest.raises(DomainError):
            eval_hl_hypergeometric(1.0, 0.5)


class TestExactCoefficients:
    def test_harmonic_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(3) == Fraction(11, 6)
        assert isinstance(harmonic(5), Fraction)

    def test_coefficient_values(self):
        assert coefficient_a(0, 0) == 0
        assert coefficient_a(0, 1) == Fraction(3, 4)
        assert coefficient_a(2, 0) == Fraction(1, 2)
        assert isinstance(coefficient_a(3, 2), Fraction)


class TestClosedForm2F1:
    def test_log_spot_values(self):
        assert gauss_2f1_closed(1, 0, 0.5) == pytest.approx(
            -math.log(0.5) / 0.5, rel=1e-13)
        assert gauss_2f1_closed(2, 0, 0.5) == pytest.approx(
            -2 * (0.5 + math.log(0.5)) / 0.25, rel=1e-13)

    def test_against_direct_series(self):
        for m, k in [(1, 1), (3, 2), (6, 4)]:
            for x in (0.1, 0.5, 0.9):
                closed = gauss_2f1_closed(m, k, x)
                direct = gauss_2f1(Gauss2F1Params(m, 1, m + 2 * k + 1), x,
                                   TIGHT).value
                assert closed == pytest.approx(direct, rel=1e-12)

    def test_against_high_precision_reference(self):
        rng = random.Random(20180115)
        with mpmath.workdps(50):
            for m in (1, 2, 5, 12, 30):
                for k in (0, 1, 3, 6):
                    for _ in range(3):
                        x = rng.uniform(0.1, 0.99)
                        ref = mpmath.hyp2f1(m, 1, m + 2 * k + 1, x)
                        got = gauss_2f1_closed(m, k, x)
                        assert abs(got - ref) <= 4e-16 * abs(ref), (m, k, x)

    def test_cancellation_guard(self):
        with pytest.raises(DomainError):
            gauss_2f1_closed(2, 1, 0.05)
        with pytest.raises(DomainError):
            gauss_2f1_closed(2, 1, 1.0)
        with pytest.raises(DomainError):
            gauss_2f1_closed(0, 1, 0.5)
