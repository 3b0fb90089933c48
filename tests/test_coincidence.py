"""Indices of coincidence, their routes, derivatives, and entropies."""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heunic import (
    ConfluentHeunParams,
    DomainError,
    FamilyParamsNeg,
    FamilyParamsPos,
    EntropyKind,
    EvalResult,
    FMethod,
    GMethod,
    SeriesOptions,
    entropy,
    eval_confluent_heun,
    eval_F,
    eval_family_negative,
    eval_family_positive,
    eval_G,
    eval_HC_family,
    eval_K,
    eval_K_derivative,
    k_derivative_quadrature,
)
from heunic.closed_forms import eval_sample_family

TIGHT = SeriesOptions(max_terms=20000, rel_tol=1e-15)


def negative_binomial_square_sum(n, x, terms=400):
    """Truncated definitional oracle for the waiting-time family."""
    return sum((math.comb(n + k - 1, k) * x**k * (1 + x) ** (-n - k)) ** 2
               for k in range(terms))


def poisson_square_sum(n, x, terms=80):
    return sum((math.exp(-n * x) * (n * x) ** k / math.factorial(k)) ** 2
               for k in range(terms))


class TestF:
    @pytest.mark.parametrize("method", list(FMethod))
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_value_one_at_origin(self, n, method):
        assert eval_F(n, 0.0, method).value == pytest.approx(1.0, abs=1e-15)

    def test_small_cases(self):
        assert eval_F(1, 0.25, FMethod.DEFINITIONAL).value == pytest.approx(0.625)
        assert eval_F(2, 0.5, FMethod.ESTABLISHED).value == pytest.approx(0.375)

    def test_definitional_domain(self):
        with pytest.raises(DomainError):
            eval_F(2, -0.1, FMethod.DEFINITIONAL)
        with pytest.raises(DomainError):
            eval_F(2, 1.1, FMethod.DEFINITIONAL)
        # closed forms accept any real x
        eval_F(2, -0.1, FMethod.FACTORED)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            eval_F(0, 0.5, FMethod.FACTORED)

    @pytest.mark.parametrize("method", ["factored", GMethod.FACTORED, None])
    def test_unknown_method_is_domain_error(self, method):
        with pytest.raises(DomainError, match="unknown F method"):
            eval_F(3, 0.2, method)

    @pytest.mark.parametrize("x", [0.3, -1.75, 2.5, 1e-300])
    @pytest.mark.parametrize("n", [1, 6, 40])
    def test_closed_forms_are_family_members(self, n, x):
        # F factored is the negative family at theta = 1/2, gamma = 1, and
        # F established the sample family at i = 0: the same exact values
        assert eval_F(n, x, FMethod.FACTORED) == eval_family_negative(
            FamilyParamsNeg(n, 0.5, 1.0), x)
        assert eval_F(n, x, FMethod.ESTABLISHED) == eval_sample_family(n, 0, x)

    @pytest.mark.parametrize("n", [1, 3, 7, 12])
    def test_routes_agree(self, n):
        for i in range(11):
            x = i / 10
            values = [eval_F(n, x, m).value for m in FMethod]
            assert max(values) - min(values) <= 1e-13 * max(values)

    @given(n=st.integers(1, 12), x=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_bounds_on_unit_interval(self, n, x):
        value = eval_F(n, x, FMethod.DEFINITIONAL).value
        assert 0.0 < value <= 1.0 + 1e-12


class TestG:
    @pytest.mark.parametrize("method", list(GMethod))
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_value_one_at_origin(self, n, method):
        assert eval_G(n, 0.0, method).value == pytest.approx(1.0, abs=1e-14)

    def test_geometric_case(self):
        # n = 1 collapses to 1/(1+2x)
        for x in (0.0, 0.5, 2.0):
            r = eval_G(1, x, GMethod.DEFINITIONAL)
            assert r.value == pytest.approx(1 / (1 + 2 * x), rel=1e-13)
        assert eval_G(1, 0.5, GMethod.FACTORED).value == pytest.approx(0.5)

    def test_second_order_value(self):
        expected = 5 / 27
        assert eval_G(2, 1.0, GMethod.FACTORED).value == pytest.approx(
            expected, rel=1e-15)
        oracle = negative_binomial_square_sum(2, 1.0)
        assert eval_G(2, 1.0, GMethod.DEFINITIONAL).value == pytest.approx(
            oracle, rel=1e-12)

    @pytest.mark.parametrize("method", ["factored", FMethod.EXPANDED, None])
    def test_unknown_method_is_domain_error(self, method):
        with pytest.raises(DomainError, match="unknown G method"):
            eval_G(3, 0.2, method)

    @pytest.mark.parametrize("method", [GMethod.FACTORED, GMethod.POWER, GMethod.ESTABLISHED])
    @pytest.mark.parametrize("x", [0.3, -0.7, 2.5, -3.25])
    @pytest.mark.parametrize("n", [1, 2, 9, 30])
    def test_closed_forms_reflect_F(self, n, x, method):
        # G_n(x) = (1+2x)^(1-2n) F_{n-1}(-x); F_0 = 1
        f = eval_F(n - 1, -x, FMethod(method.value)).value if n > 1 else 1.0
        expected = (1 + 2 * x) ** (1 - 2 * n) * f
        assert eval_G(n, x, method).value == pytest.approx(expected, rel=1e-13)

    def test_definitional_requires_nonnegative_x(self):
        with pytest.raises(DomainError):
            eval_G(2, -0.25, GMethod.DEFINITIONAL)

    @pytest.mark.parametrize("method",
                             [GMethod.FACTORED, GMethod.POWER, GMethod.ESTABLISHED])
    def test_closed_forms_pole(self, method):
        from heunic import PoleError
        with pytest.raises(PoleError):
            eval_G(3, -0.5, method)

    def test_definitional_tail_bound_is_honest(self):
        r = eval_G(4, 2.5, GMethod.DEFINITIONAL, TIGHT)
        exact = eval_G(4, 2.5, GMethod.ESTABLISHED).value
        assert r.converged
        assert abs(r.value - exact) <= r.error_estimate + 1e-15

    @pytest.mark.parametrize("n", [1, 3, 8, 15])
    def test_routes_agree(self, n):
        for i in range(0, 31, 3):
            x = 0.1 * i
            values = [eval_G(n, x, m, TIGHT).value for m in GMethod]
            assert max(values) - min(values) <= 1e-11 * max(values)

    @given(n=st.integers(1, 10), x=st.floats(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_bounds_on_half_line(self, n, x):
        value = eval_G(n, x, GMethod.ESTABLISHED).value
        assert 0.0 < value <= 1.0 + 1e-12


class TestK:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_value_one_at_origin(self, n):
        assert eval_K(n, 0.0).value == 1.0

    def test_against_truncated_oracle(self):
        r = eval_K(1, 0.1)
        assert r.value == pytest.approx(0.8269385516343293, abs=1e-14)
        assert r.value == pytest.approx(poisson_square_sum(1, 0.1), abs=1e-14)

    def test_rejects_negative_x(self):
        with pytest.raises(DomainError):
            eval_K(2, -0.5)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_ode_residual_via_quadrature(self, n):
        # x K'' + (4nx+1) K' + 2n K = 0 on (0, 1]
        for i in range(1, 11):
            x = 0.1 * i
            K = eval_K_derivative(n, 0, x).value
            dK = eval_K_derivative(n, 1, x).value
            ddK = eval_K_derivative(n, 2, x).value
            assert abs(x * ddK + (4 * n * x + 1) * dK + 2 * n * K) < 1e-8

    @given(n=st.integers(1, 10), x=st.floats(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_bounds_on_half_line(self, n, x):
        value = eval_K(n, x).value
        assert 0.0 < value <= 1.0 + 1e-12

    def test_cut_off_before_tolerance_is_not_converged(self):
        r = eval_K(50, 0.5, SeriesOptions(max_terms=141, rel_tol=1e-300))
        assert r.terms_used == 141  # stopped at max_terms
        assert not r.converged
        assert eval_K(50, 0.5).converged


def _rate_series_coefficients(n, terms):
    """Exact power-series coefficients of the rate-family index.

    Convolves the expansions of exp(-2nx) and sum (nx)^(2k)/(k!)^2 in
    rational arithmetic, staying independent of both the quadrature and
    the origin-value formula it is used to cross-check.
    """
    from fractions import Fraction
    coeffs = [Fraction(0)] * terms
    for m in range(terms):
        total = Fraction(0)
        for j in range(m // 2 + 1):
            total += (Fraction(n ** (2 * j), math.factorial(j) ** 2)
                      * Fraction((-2 * n) ** (m - 2 * j),
                                 math.factorial(m - 2 * j)))
        coeffs[m] = total
    return coeffs


class TestKDerivative:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_consistent_with_termwise_series_derivative(self, n):
        from fractions import Fraction
        coeffs = _rate_series_coefficients(n, 160)
        for j in range(5):
            for xi in range(5):
                x = Fraction(xi, 4)
                oracle = float(sum(
                    c * math.perm(m, j) * x ** (m - j)
                    for m, c in enumerate(coeffs) if m >= j))
                got = eval_K_derivative(n, j, float(x)).value
                assert abs(got - oracle) <= 1e-8 * max(1.0, abs(oracle)), (n, j, x)

    def test_zeroth_derivative_is_K(self):
        for n, x in [(1, 0.3), (4, 1.2)]:
            assert eval_K_derivative(n, 0, x).value == pytest.approx(
                eval_K(n, x).value, abs=1e-12)

    def test_origin_values(self):
        assert eval_K_derivative(2, 1, 0.0).value == pytest.approx(-4.0, rel=1e-13)
        assert eval_K_derivative(1, 2, 0.0).value == pytest.approx(6.0, rel=1e-13)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("j", range(0, 25))
    def test_origin_normalization(self, n, j):
        expected = (-n) ** j * math.comb(2 * j, j)
        assert abs(eval_K_derivative(n, j, 0.0).value - expected) <= 1e-10 * abs(expected)

    def test_first_derivative_against_five_point_stencil(self):
        n, x, h = 1, 0.1, 1e-3
        fd = (-eval_K(n, x + 2 * h, TIGHT).value
              + 8 * eval_K(n, x + h, TIGHT).value
              - 8 * eval_K(n, x - h, TIGHT).value
              + eval_K(n, x - 2 * h, TIGHT).value) / (12 * h)
        assert eval_K_derivative(n, 1, x).value == pytest.approx(fd, abs=1e-9)

    def test_doubling_error_estimate(self):
        value, err = k_derivative_quadrature(3, 2, 0.4)
        assert err < 1e-10 * max(1.0, abs(value))

    def test_error_estimate_bounds_the_error(self):
        # 4nx log-uniform over twelve decades, against the closed form
        # (-n)^j C(2j,j) 1F1(j+1/2; j+1; -4nx)
        rng = random.Random(4)
        with mpmath.workdps(40):
            for _ in range(300):
                n, j = rng.randint(1, 60), rng.randint(0, 12)
                x = 10 ** rng.uniform(-3, 9) / (4 * n)
                value, err = k_derivative_quadrature(n, j, x)
                ref = (-n) ** j * math.comb(2 * j, j) * mpmath.hyp1f1(j + 0.5, j + 1, -4 * n * x)
                assert 0.0 < err and abs(value - ref) <= err, (n, j, x)
        # 4nx = inf: no node but t = 0 resolves the peak
        result = eval_K_derivative(10**308, 0, 1.0)
        assert math.isfinite(result.value) and not result.converged
        # (-n)^j 4^j and the mean apart would be 3e23 and 3e-311, a subnormal
        # that has lost digits; the scaled mean keeps them
        value, err = k_derivative_quadrature(1, 39, 2.5e8)
        with mpmath.workdps(40):
            ref = -math.comb(78, 39) * mpmath.hyp1f1(39.5, 40, -1e9)
        assert 0.0 < err and abs(value - ref) <= err
        # a value below the normal range, here 1.4e-428, has lost digits itself
        assert not eval_K_derivative(1, 60, 2.5e8).converged

    def test_value_is_the_fine_rule_of_the_doubled_quadrature(self):
        rng = random.Random("K-derivative-fine-rule")
        for _ in range(200):
            n, j = rng.randint(1, 10**4), rng.randint(0, 12)
            x = rng.choice([0.0, rng.uniform(0, 0.01), rng.uniform(0, 3)])
            assert eval_K_derivative(n, j, x).value == k_derivative_quadrature(n, j, x)[0], (n, j, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_K_derivative(1, 1, -0.1)
        with pytest.raises(DomainError):
            eval_K_derivative(1, -1, 0.1)

    def test_nan_is_a_domain_error(self):
        for call in (lambda: k_derivative_quadrature(3, 0, math.nan),
                     lambda: eval_K_derivative(3, 1, math.nan),
                     lambda: eval_HC_family(3, 1, math.nan)):
            with pytest.raises(DomainError):
                call()


class TestHCFamily:
    def test_j_zero_is_K(self):
        for n, x in [(1, 0.1), (3, 0.7)]:
            assert eval_HC_family(n, 0, x).value == pytest.approx(
                eval_K(n, x).value, abs=1e-12)

    @pytest.mark.parametrize("j", [0, 1, 3])
    def test_normalized_at_origin(self, j):
        assert eval_HC_family(2, j, 0.0).value == pytest.approx(1.0, rel=1e-13)

    def test_against_independent_series_route(self):
        got = eval_HC_family(1, 1, 0.2).value
        series = eval_confluent_heun(ConfluentHeunParams(1, 2.0, 0.0, 1.5, 6.0),
                                     0.2, TIGHT).value
        assert got == pytest.approx(series, abs=1e-11)


class TestResults:
    """Each route returns an EvalResult, so a value it cannot vouch for says so."""

    @pytest.mark.parametrize("call, terms", [
        *[(lambda m=m: eval_F(7, 0.3, m), 8) for m in FMethod if m is not FMethod.DEFINITIONAL],
        *[(lambda m=m: eval_G(7, 0.3, m), 7) for m in GMethod if m is not GMethod.DEFINITIONAL],
        (lambda: eval_family_negative(FamilyParamsNeg(7, 0.3, 1.5), 0.3), 8),
        # an integral exponent keeps the prefactor exact
        (lambda: eval_family_positive(FamilyParamsPos(7, 0.5, 2), 0.2), 6),
        (lambda: eval_sample_family(7, 2, 0.3), 6),
    ], ids=[*(f"F-{m.value}" for m in FMethod if m is not FMethod.DEFINITIONAL),
            *(f"G-{m.value}" for m in GMethod if m is not GMethod.DEFINITIONAL),
            "family-neg", "family-pos", "sample-family"])
    def test_closed_forms_are_converged_with_estimate_zero(self, call, terms):
        result = call()
        assert result == EvalResult(result.value, terms, True, 0.0)

    def test_quadrature_past_its_node_cap_is_not_converged(self):
        # K_n(0.3) at n = 1e12 is 5.150e-7 (mpmath), and the finest rule
        # gives 9.537e-7: the peak is narrower than its nodes resolve
        k = eval_K_derivative(10**12, 0, 0.3)
        assert not k.converged
        assert eval_HC_family(10**12, 0, 0.3) == k

    def test_f_definitional_stops_at_max_terms(self):
        # the walk to eps takes about 5e8 terms around the mode at n = 1e16;
        # in a subprocess first: an unbudgeted walk here would not finish
        script = ("from heunic import FMethod, eval_F\n"
                  "print(eval_F(10**16, 0.3, FMethod.DEFINITIONAL).converged)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=10)
        assert proc.stdout == "False\n", proc.stderr
        start = time.perf_counter()
        result = eval_F(10**16, 0.3, FMethod.DEFINITIONAL)
        assert time.perf_counter() - start < 1.0
        assert not result.converged and result.terms_used == 10000
        # the default budget ends the walk at n = 1e7, a larger one does not
        assert not eval_F(10**7, 0.3, FMethod.DEFINITIONAL).converged
        assert eval_F(10**7, 0.3, FMethod.DEFINITIONAL, SeriesOptions(max_terms=20000)).converged


class TestEntropy:
    def test_unit_index_gives_zero(self):
        assert entropy(1.0, EntropyKind.RENYI) == 0.0
        assert entropy(1.0, EntropyKind.TSALLIS) == 0.0

    def test_values_from_index(self):
        s = eval_F(2, 0.5, FMethod.DEFINITIONAL).value
        assert s == pytest.approx(0.375)
        assert entropy(s, EntropyKind.RENYI) == pytest.approx(math.log(8 / 3))
        assert entropy(s, EntropyKind.TSALLIS) == pytest.approx(0.625)

    def test_logarithmic_kind_requires_positive_index(self):
        with pytest.raises(DomainError):
            entropy(0.0, EntropyKind.RENYI)
        with pytest.raises(DomainError):
            entropy(-0.2, EntropyKind.RENYI)
        assert entropy(-0.2, EntropyKind.TSALLIS) == pytest.approx(1.2)


@pytest.mark.parametrize("call", [
    lambda: eval_F(2.5, 0.3),
    lambda: eval_F(3.0, 0.3),
    lambda: eval_F(2.5, 0.3, FMethod.DEFINITIONAL),
    lambda: eval_G(2.5, 0.3),
    lambda: eval_G(2.5, 0.3, GMethod.DEFINITIONAL),
    lambda: eval_K(2.5, 0.3),
    lambda: eval_sample_family(2.5, 1, 0.3),
    lambda: eval_family_negative(FamilyParamsNeg(2.5, 0.3, 1.0), 0.3),
    lambda: eval_family_positive(FamilyParamsPos(5.5, 0.3, 2), 0.2),
], ids=["F", "F-integral-float", "F-definitional", "G", "G-definitional", "K",
        "sample-family", "family-neg", "family-pos"])
def test_an_order_that_is_not_an_int_is_a_domain_error(call):
    with pytest.raises(DomainError, match="integer"):
        call()


def test_the_quadrature_takes_a_real_order():
    assert eval_K_derivative(2.5, 1, 0.3).value == -0.7419711081661634
