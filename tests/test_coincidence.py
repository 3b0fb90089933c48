"""Indices of coincidence, their routes, derivatives, and entropies."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heunic import (
    ConfluentHeunParams,
    DomainError,
    FamilyParamsNeg,
    EntropyKind,
    FMethod,
    GMethod,
    SeriesOptions,
    entropy,
    eval_confluent_heun,
    eval_F,
    eval_family_negative,
    eval_G,
    eval_HC_family,
    eval_K,
    eval_K_derivative,
    k_derivative_quadrature,
)
from heunic.closed_forms import eval_sample_family
from heunic.coincidence import _gauss_legendre_quarter

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
        assert eval_F(n, 0.0, method) == pytest.approx(1.0, abs=1e-15)

    def test_small_cases(self):
        assert eval_F(1, 0.25, FMethod.DEFINITIONAL) == pytest.approx(0.625)
        assert eval_F(2, 0.5, FMethod.ESTABLISHED) == pytest.approx(0.375)

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
            values = [eval_F(n, x, m) for m in FMethod]
            assert max(values) - min(values) <= 1e-13 * max(values)

    @given(n=st.integers(1, 12), x=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_bounds_on_unit_interval(self, n, x):
        value = eval_F(n, x, FMethod.DEFINITIONAL)
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
        f = eval_F(n - 1, -x, FMethod(method.value)) if n > 1 else 1.0
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
            K = eval_K_derivative(n, 0, x)
            dK = eval_K_derivative(n, 1, x)
            ddK = eval_K_derivative(n, 2, x)
            assert abs(x * ddK + (4 * n * x + 1) * dK + 2 * n * K) < 1e-8

    @given(n=st.integers(1, 10), x=st.floats(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_bounds_on_half_line(self, n, x):
        value = eval_K(n, x).value
        assert 0.0 < value <= 1.0 + 1e-12

    def test_cut_off_before_tolerance_is_not_converged(self):
        r = eval_K(50, 0.5, SeriesOptions(rel_tol=1e-300))
        assert r.terms_used == 141  # stopped at max(50, 4nx + 40)
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
                got = eval_K_derivative(n, j, float(x))
                assert abs(got - oracle) <= 1e-8 * max(1.0, abs(oracle)), (n, j, x)

    def test_zeroth_derivative_is_K(self):
        for n, x in [(1, 0.3), (4, 1.2)]:
            assert eval_K_derivative(n, 0, x) == pytest.approx(
                eval_K(n, x).value, abs=1e-12)

    def test_origin_values(self):
        assert eval_K_derivative(2, 1, 0.0) == pytest.approx(-4.0, rel=1e-13)
        assert eval_K_derivative(1, 2, 0.0) == pytest.approx(6.0, rel=1e-13)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("j", range(0, 7))
    def test_origin_normalization(self, n, j):
        expected = (-n) ** j * math.comb(2 * j, j)
        assert abs(eval_K_derivative(n, j, 0.0) - expected) <= 1e-10 * abs(expected)

    def test_first_derivative_against_five_point_stencil(self):
        n, x, h = 1, 0.1, 1e-3
        fd = (-eval_K(n, x + 2 * h, TIGHT).value
              + 8 * eval_K(n, x + h, TIGHT).value
              - 8 * eval_K(n, x - h, TIGHT).value
              + eval_K(n, x - 2 * h, TIGHT).value) / (12 * h)
        assert eval_K_derivative(n, 1, x) == pytest.approx(fd, abs=1e-9)

    def test_doubling_error_estimate(self):
        value, err = k_derivative_quadrature(3, 2, 0.4)
        assert err < 1e-10 * max(1.0, abs(value))

    def test_error_estimate_bounds_the_error(self):
        rng = random.Random(4)
        with mpmath.workdps(30):
            for _ in range(40):
                n, j, x = rng.randint(1, 60), rng.randint(0, 6), rng.uniform(0, 2)
                value, err = k_derivative_quadrature(n, j, x)
                ref = 2 / mpmath.pi * 4**j * (-n) ** j * mpmath.quad(
                    lambda t: mpmath.sin(t) ** (2 * j)
                    * mpmath.exp(-4 * n * x * mpmath.sin(t) ** 2), [0, mpmath.pi / 2])
                assert 0.0 < err and abs(value - ref) <= err, (n, j, x)

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


def _legendre_rule_reference(nodes):
    """Sorted (sin^2 t, weight) on [0, pi/2] from Newton on P_nodes at 40 digits."""
    with mpmath.workdps(40):
        rule = []
        for i in range(nodes // 2):
            x = mpmath.cos(mpmath.pi * (i + 0.75) / (nodes + 0.5))
            for _ in range(50):
                p0, p1 = mpmath.mpf(1), x
                for k in range(1, nodes):
                    p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
                slope = nodes * (p0 - x * p1) / (1 - x * x)
                step = p1 / slope
                x -= step
                if abs(step) < mpmath.mpf(10) ** -38:
                    break
            # the step is below the working precision: slope is at the root
            weight = mpmath.pi / 2 / ((1 - x * x) * slope**2)
            rule += [(mpmath.sin(mpmath.pi / 4 * (1 + x)) ** 2, weight),
                     (mpmath.sin(mpmath.pi / 4 * (1 - x)) ** 2, weight)]
        return sorted(rule)


class TestGaussLegendreRule:
    @pytest.mark.parametrize("nodes", [64, 128])
    def test_against_high_precision_reference(self, nodes):
        s2, w = _gauss_legendre_quarter(nodes)
        assert len(s2) == len(w) == nodes
        for (ref_s2, ref_w), (got_s2, got_w) in zip(
                _legendre_rule_reference(nodes), sorted(zip(s2, w))):
            assert abs(got_s2 - ref_s2) <= 1e-14 * ref_s2
            assert abs(got_w - ref_w) <= 1e-14 * ref_w

    @pytest.mark.parametrize("nodes", [64, 128])
    def test_weights_sum_to_quarter_period(self, nodes):
        assert math.fsum(_gauss_legendre_quarter(nodes)[1]) == pytest.approx(
            math.pi / 2, rel=1e-15)


class TestHCFamily:
    def test_j_zero_is_K(self):
        for n, x in [(1, 0.1), (3, 0.7)]:
            assert eval_HC_family(n, 0, x) == pytest.approx(
                eval_K(n, x).value, abs=1e-12)

    @pytest.mark.parametrize("j", [0, 1, 3])
    def test_normalized_at_origin(self, j):
        assert eval_HC_family(2, j, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_against_independent_series_route(self):
        got = eval_HC_family(1, 1, 0.2)
        series = eval_confluent_heun(ConfluentHeunParams(1, 2.0, 0.0, 1.5, 6.0),
                                     0.2, TIGHT).value
        assert got == pytest.approx(series, abs=1e-11)


class TestEntropy:
    def test_unit_index_gives_zero(self):
        assert entropy(1.0, EntropyKind.RENYI) == 0.0
        assert entropy(1.0, EntropyKind.TSALLIS) == 0.0

    def test_values_from_index(self):
        s = eval_F(2, 0.5, FMethod.DEFINITIONAL)
        assert s == pytest.approx(0.375)
        assert entropy(s, EntropyKind.RENYI) == pytest.approx(math.log(8 / 3))
        assert entropy(s, EntropyKind.TSALLIS) == pytest.approx(0.625)

    def test_logarithmic_kind_requires_positive_index(self):
        with pytest.raises(DomainError):
            entropy(0.0, EntropyKind.RENYI)
        with pytest.raises(DomainError):
            entropy(-0.2, EntropyKind.RENYI)
        assert entropy(-0.2, EntropyKind.TSALLIS) == pytest.approx(1.2)
