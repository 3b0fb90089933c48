"""Hypergeometric series, closed forms, and the Heun bridge."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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
        # f^(i) = (a)_i (b)_i / (c)_i 2F1(a+i, b+i; c+i; x)
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
                    assert abs(r.value - ref) <= 1e-13 * abs(ref), (a, b, c, x, i)

    def test_factored_coefficient_where_k_plus_a_times_k_plus_b_is_small(self):
        # (1+a)(1+b) = -1.5e-3: formed as k(k-1+c + a+b+1-c) + ab, the
        # coefficient cancelled, and f'' was 3.2e-13 off relative
        a, b, c = -1.0146223965745231, -1.0974360236593632, 1.2480488182524347
        x = 0.26390302432877843
        got = _sum_recurrence(Gauss2F1Params(a, b, c), x,
                              SeriesOptions(6000, 2.22e-16), 2)[2]
        with mpmath.workdps(40):
            ref = (mpmath.rf(a, 2) * mpmath.rf(b, 2) / mpmath.rf(c, 2)
                   * mpmath.hyp2f1(a + 2, b + 2, c + 2, x))
        assert got.converged
        assert abs(got.value - ref) <= 1e-15 * abs(ref)

    def test_accuracy_sweep(self):
        # a, b in (-3, 3), c in (0.5, 3), x in (-0.9, 0.9), against mpmath
        rng = random.Random(1)
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(300):
                p = Gauss2F1Params(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 3))
                x = rng.uniform(-0.9, 0.9)
                ref = mpmath.hyp2f1(p.a, p.b, p.c, x)
                worst = max(worst, float(abs(gauss_2f1(p, x).value - ref) / abs(ref)))
        assert worst <= 2e-14


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

    def test_terminating_sum_without_a_correct_digit_is_not_converged(self):
        # the 29 terms cancel: the sum is 32 % off, and its estimate, eps
        # times the sum of absolute terms, is above the value
        p = Clausen3F2Params(-28, 2.3411575291837483, 2.759361150156077,
                             0.8736096162278324, 2.271842607383319)
        r = clausen_3f2_unit(p)
        with mpmath.workdps(50):
            ref = float(mpmath.hyp3f2(-28, mpmath.mpf(p.a2), mpmath.mpf(p.a3),
                                      mpmath.mpf(p.b1), mpmath.mpf(p.b2), 1))
        assert not r.converged
        assert abs(r.value - ref) > 0.3 * abs(ref)
        assert abs(r.value - ref) <= r.error_estimate

    @pytest.mark.parametrize("max_terms, value, estimate", [
        (10, 1.3375428063508559, math.inf), (40, 1.3862935355204538, 0.0153)],
        ids=["10", "40"])
    def test_stops_at_max_terms_unconverged(self, max_terms, value, estimate):
        # 10 terms stop before three Richardson sums exist, 40 after; the
        # sum of 10 terms is 0.049 from 2 ln 2, and its last term, 0.0053,
        # bounded nothing
        r = clausen_3f2_unit(Clausen3F2Params(0.5, 1, 1, 1.5, 2),
                             SeriesOptions(max_terms=max_terms))
        assert (r.value, r.terms_used, r.converged) == (value, max_terms, False)
        assert r.error_estimate == pytest.approx(estimate, rel=0.01)
        assert abs(r.value - 2 * math.log(2)) <= r.error_estimate

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
        with pytest.raises(DomainError, match="no real branch"):
            eval_hl_hypergeometric(0.3, 0.7)


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

    def test_negative_indices_raise(self):
        for call in (lambda: harmonic(-1), lambda: coefficient_a(-1, 0)):
            with pytest.raises(DomainError):
                call()


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


def test_hl_hyp_beyond_one_half_is_bounded_in_q():
    # (1 - 2x)^(1 - 2q) beyond x = 1/2 is an exact power of 2e9 factors here;
    # in a subprocess first, as an unbudgeted power would not finish
    script = ("from heunic import DomainError, eval_hl_hypergeometric\n"
              "try:\n    eval_hl_hypergeometric(1e9, 0.7)\n"
              "except DomainError as exc:\n    print(exc)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=10)
    assert "work budget" in proc.stdout
    start = time.perf_counter()
    with pytest.raises(DomainError, match="work budget"):
        eval_hl_hypergeometric(1e9, 0.7)
    assert time.perf_counter() - start < 1.0
    # a power within the budget is still exact: (-0.4)^(-3) (1 - 0.84/2)
    assert eval_hl_hypergeometric(2.0, 0.7).value == pytest.approx(-9.0625, rel=1e-14)


def test_hl_hyp_refuses_non_finite_q_and_x():
    for q, x in [(math.nan, 0.3), (math.inf, 0.3), (-math.inf, 0.7), (1.0, math.nan)]:
        with pytest.raises(DomainError):
            eval_hl_hypergeometric(q, x)
