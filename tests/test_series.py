"""Series engine: normalization, recurrences, residuals, transformation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heunic import series
from heunic import (
    ConfluentHeunParams,
    DomainError,
    GeneralHeunParams,
    SeriesOptions,
    confluent_ode_residual,
    eval_confluent_derivatives,
    eval_confluent_heun,
    eval_heun_derivatives,
    eval_heun_local,
    heun_ode_residual,
    heun_slope_at_origin,
    transform_homotopy,
)
from heunic.series import DEFAULT_OPTIONS

TIGHT = SeriesOptions(max_terms=20000, rel_tol=1e-15)


def poisson_coincidence_oracle(n, x, terms=50):
    """Truncated sum of squared rate-nx weights; independent of the engine."""
    return sum((math.exp(-n * x) * (n * x) ** k / math.factorial(k)) ** 2
               for k in range(terms))


class TestParamValidation:
    def test_rejects_singular_location_zero_or_one(self):
        with pytest.raises(DomainError):
            GeneralHeunParams(0.0, 1, 1, 1, 1, 1)
        with pytest.raises(DomainError):
            GeneralHeunParams(1.0, 1, 1, 1, 1, 1)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, -7.0])
    def test_rejects_degenerate_gamma_eagerly(self, gamma):
        with pytest.raises(DomainError):
            GeneralHeunParams(0.5, 1, 1, 1, gamma, 1)
        with pytest.raises(DomainError):
            ConfluentHeunParams(1.0, gamma, 0, 0.5, 2)

    def test_negative_noninteger_gamma_is_fine(self):
        GeneralHeunParams(0.5, 1, 1, 1, -2.5, 1)

    def test_rejects_zero_p(self):
        with pytest.raises(DomainError):
            ConfluentHeunParams(0.0, 1, 0, 0.5, 2)

    def test_epsilon_is_derived(self):
        p = GeneralHeunParams(0.5, 1, 2.0, 3.0, 1.5, 0.5)
        assert p.epsilon == 2.0 + 3.0 + 1.0 - 1.5 - 0.5

    def test_series_options_validation(self):
        with pytest.raises(DomainError):
            SeriesOptions(max_terms=1)
        with pytest.raises(DomainError):
            SeriesOptions(rel_tol=1.5)

    @pytest.mark.parametrize("max_terms", [2.5, 100.0, "100"])
    def test_series_options_reject_non_integer_max_terms(self, max_terms):
        with pytest.raises(DomainError):
            SeriesOptions(max_terms=max_terms)

    # integers beyond the float range included: math.isfinite overflows on them
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(10**400, id="int-10**400"),
                                     pytest.param(-10**400, id="int--10**400")])
    @pytest.mark.parametrize("slot", range(6))
    def test_rejects_non_finite_general_parameters(self, bad, slot):
        values = [0.5, 0.3, 1.0, 2.0, 1.5, 1.2]
        values[slot] = bad
        with pytest.raises(DomainError):
            GeneralHeunParams(*values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(10**400, id="int-10**400"),
                                     pytest.param(-10**400, id="int--10**400")])
    @pytest.mark.parametrize("slot", range(5))
    def test_rejects_non_finite_confluent_parameters(self, bad, slot):
        values = [1.0, 1.5, 0.0, 0.5, 2.0]
        values[slot] = bad
        with pytest.raises(DomainError):
            ConfluentHeunParams(*values)


class TestOverflowingConjugate:
    """Finite parameters whose rescue parameters overflow keep the direct sum."""

    @pytest.mark.parametrize("evaluate,params", [
        (eval_heun_derivatives, GeneralHeunParams(0.5, 0.3, 1e308, 1e308, 1.5, 1.2)),
        (eval_confluent_derivatives, ConfluentHeunParams(1e308, 1.5, 0.0, 0.5, 2.0)),
    ])
    def test_unconverged_direct_sum_is_returned(self, evaluate, params):
        # the direct terms overflow at once: the sums are not finite, and no
        # estimate is below its value
        u, du = evaluate(params, 0.3, 1)
        assert not u.converged and not du.converged
        assert not u.error_estimate < abs(u.value)
        assert not du.error_estimate < abs(du.value)

    @pytest.mark.parametrize("evaluate,params,x", [
        # e^(-4px) and (1 - x/a)^(-alpha-beta+gamma+delta) overflow
        (eval_confluent_derivatives, ConfluentHeunParams(1e200, 1.0, 1.0, 1.0, 2e200), -0.5),
        (eval_confluent_derivatives, ConfluentHeunParams(-1000.0, 1.0, 1.0, 1.0, 1.0), 0.3),
        (eval_heun_derivatives, GeneralHeunParams(0.5, 1.0, 400.0, 400.0, 1.0, 1.0), 0.49),
    ], ids=["confluent", "confluent-negative-p", "heun"])
    def test_overflowing_prefactor_keeps_the_direct_sum(self, evaluate, params, x):
        assert [repr(r) for r in evaluate(params, x, 1)] \
            == [repr(r) for r in series._sum_recurrence(params, x, DEFAULT_OPTIONS, 1)]


class TestNonFiniteX:
    GENERAL = GeneralHeunParams(0.5, 0.3, 1, 2, 1.5, 1.2)
    CONFLUENT = ConfluentHeunParams(1.0, 1.5, 0.0, 0.5, 2.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("evaluate,params", [
        (eval_heun_local, GENERAL),
        (eval_heun_derivatives, GENERAL),
        (heun_ode_residual, GENERAL),
        (eval_confluent_heun, CONFLUENT),
        (eval_confluent_derivatives, CONFLUENT),
        (confluent_ode_residual, CONFLUENT),
    ])
    def test_non_finite_x_is_a_domain_error(self, evaluate, params, x):
        with pytest.raises(DomainError):
            evaluate(params, x)


class TestGeneralSeries:
    def test_normalized_at_origin(self):
        p = GeneralHeunParams(0.5, -1.3, 0.7, 2.1, 1.2, 0.4)
        assert eval_heun_local(p, 0.0).value == 1.0

    @pytest.mark.parametrize("x", [-0.3, 0.0, 0.2, 0.44])
    @pytest.mark.parametrize("theta,gamma", [(0.5, 1.0), (2.0, 1.5)])
    def test_zero_accessory_zero_alpha_is_constant_one(self, x, theta, gamma):
        p = GeneralHeunParams(0.5, 0.0, 0.0, 2 * theta, gamma, gamma)
        assert eval_heun_local(p, x).value == pytest.approx(1.0, abs=1e-15)

    def test_polynomial_case_two_outcome_index(self):
        # parameters identified with the two-outcome index of coincidence, n=1
        p = GeneralHeunParams(0.5, -1, -2, 1, 1, 1)
        x = 0.25
        assert eval_heun_local(p, x).value == pytest.approx(
            x**2 + (1 - x) ** 2, abs=1e-15)

    def test_squared_linear_case(self):
        p = GeneralHeunParams(0.5, -2, -2, 2, 1, 1)
        r = eval_heun_local(p, 0.25)
        assert r.value == pytest.approx(0.25, abs=1e-14)
        assert r.converged

    def test_rejects_outside_disk(self):
        p = GeneralHeunParams(0.5, -1, -2, 1, 1, 1)
        with pytest.raises(DomainError):
            eval_heun_local(p, 0.5)
        with pytest.raises(DomainError):
            eval_heun_local(GeneralHeunParams(3.0, 1, 1, 1, 1, 1), 1.0)

    def test_nonconverged_flag_and_last_term_estimate(self):
        p = GeneralHeunParams(0.5, 0.3, 1.2, 0.7, 1.3, 0.8)
        r = eval_heun_local(p, 0.4, SeriesOptions(max_terms=4, rel_tol=1e-15))
        assert not r.converged
        assert r.terms_used <= 4
        assert r.error_estimate > 0


class TestConfluentSeries:
    def test_normalized_at_origin(self):
        p = ConfluentHeunParams(1.7, 1.2, -0.3, 0.4, 2.2)
        assert eval_confluent_heun(p, 0.0).value == 1.0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_leading_coefficients_match_squared_weight_expansion(self, n):
        # u = 1 - 2n x + 3 n^2 x^2 + O(x^3) for the rate-family parameters
        p = ConfluentHeunParams(n, 1.0, 0.0, 0.5, 2.0 * n)
        u, du, ddu = (r.value for r in eval_confluent_derivatives(p, 0.0, 2))
        assert u == 1.0
        assert du == pytest.approx(-2.0 * n, rel=1e-15)
        assert ddu == pytest.approx(6.0 * n**2, rel=1e-14)

    def test_value_against_truncated_squared_weight_sum(self):
        p = ConfluentHeunParams(1, 1.0, 0.0, 0.5, 2.0)
        expected = poisson_coincidence_oracle(1, 0.1)
        r = eval_confluent_heun(p, 0.1)
        assert expected == pytest.approx(0.8269385516343293, abs=1e-15)
        assert r.value == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_truncated_sum_on_wide_grid(self, n):
        # stays within 1e-10 up to x = 0.9 even where the direct series cancels
        p = ConfluentHeunParams(n, 1.0, 0.0, 0.5, 2.0 * n)
        for i in range(10):
            x = 0.1 * i
            expected = poisson_coincidence_oracle(n, x, terms=4 * n + 60)
            got = eval_confluent_heun(p, x, TIGHT).value
            assert abs(got - expected) < 1e-10

    def test_rejects_outside_unit_disk(self):
        with pytest.raises(DomainError):
            eval_confluent_heun(ConfluentHeunParams(1, 1, 0, 0.5, 2), 1.0)


class TestSlope:
    def test_formula(self):
        assert heun_slope_at_origin(
            GeneralHeunParams(0.5, -3, 1, 1, 1, 1)) == pytest.approx(-6.0)

    def test_zero_accessory(self):
        assert heun_slope_at_origin(GeneralHeunParams(0.5, 0, 1, 1, 2, 1)) == 0.0

    def test_against_richardson_difference_quotient(self):
        # q = a*alpha*beta with alpha=2, beta=3, gamma=2 gives slope 3
        p = GeneralHeunParams(0.5, 3.0, 2.0, 3.0, 2.0, 1.0)
        h = 1e-3

        def quotient(step):
            return (eval_heun_local(p, step, TIGHT).value - 1.0) / step

        first_a = 2 * quotient(h / 2) - quotient(h)
        first_b = 2 * quotient(h / 4) - quotient(h / 2)
        extrapolated = (4 * first_b - first_a) / 3
        assert extrapolated == pytest.approx(heun_slope_at_origin(p), abs=1e-6)
        assert heun_slope_at_origin(p) == pytest.approx(3.0)

    @given(q=st.floats(-3, 3), gamma=st.floats(0.5, 3), a=st.floats(0.3, 0.7))
    @settings(max_examples=30, deadline=None)
    def test_slope_matches_series_derivative(self, q, gamma, a):
        p = GeneralHeunParams(a, q, 1.1, -0.7, gamma, 1.3)
        du = eval_heun_derivatives(p, 0.0, 1)[1].value
        assert du == pytest.approx(heun_slope_at_origin(p), abs=1e-12)


class TestTransform:
    def test_prefactor_is_one_at_origin(self):
        p = GeneralHeunParams(0.5, 1.7, 0.9, -0.4, 1.1, 2.3)
        e, t = transform_homotopy(p)
        assert (1 - 0.0 / p.a) ** e == 1.0
        assert eval_heun_local(t, 0.0).value == 1.0

    def test_family_parameter_bookkeeping(self):
        # input (1/2, 2n
        # theta, 2n, 2theta, gamma, gamma) maps onto the negative family
        n, theta, gamma = 3, 0.8, 1.4
        p = GeneralHeunParams(0.5, 2 * n * theta, 2 * n, 2 * theta, gamma, gamma)
        e, t = transform_homotopy(p)
        assert e == pytest.approx(-2 * (n - gamma + theta))
        assert t.q == pytest.approx(2 * (gamma - n) * (gamma - theta))
        assert t.alpha == pytest.approx(-2 * (n - gamma))
        assert t.beta == pytest.approx(2 * (gamma - theta))
        assert (t.gamma, t.delta) == (gamma, gamma)

    def test_transform_is_an_involution(self):
        p = GeneralHeunParams(0.4, 1.7, 0.9, -0.4, 1.1, 2.3)
        _, t = transform_homotopy(p)
        _, back = transform_homotopy(t)
        for field in ("a", "q", "alpha", "beta", "gamma", "delta"):
            assert getattr(back, field) == pytest.approx(getattr(p, field),
                                                         rel=1e-15)

    def test_waiting_time_value_through_transform(self):
        # u(1/2, 1; 2, 1; 1, 1; 0.2) = 1/(1 - 0.4)
        p = GeneralHeunParams(0.5, 1, 2, 1, 1, 1)
        x = 0.2
        lhs = eval_heun_local(p, x, TIGHT).value
        e, t = transform_homotopy(p)
        rhs = (1 - x / p.a) ** e * eval_heun_local(t, x, TIGHT).value
        assert lhs == pytest.approx(1 / 0.6, rel=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(a=st.floats(0.3, 0.7), q=st.floats(-3, 3),
           alpha=st.floats(-3, 3), beta=st.floats(-3, 3),
           gamma=st.floats(0.5, 3), delta=st.floats(0.5, 3),
           frac=st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_transformation_invariance(self, a, q, alpha, beta, gamma, delta, frac):
        p = GeneralHeunParams(a, q, alpha, beta, gamma, delta)
        x = frac * 0.45 * p.radius
        lhs = eval_heun_local(p, x, TIGHT).value
        e, t = transform_homotopy(p)
        rhs = (1 - x / a) ** e * eval_heun_local(t, x, TIGHT).value
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


class TestOdeResiduals:
    @given(a=st.floats(0.3, 0.7), q=st.floats(-3, 3),
           alpha=st.floats(-3, 3), beta=st.floats(-3, 3),
           gamma=st.floats(0.5, 3), delta=st.floats(0.5, 3),
           frac=st.floats(0.05, 1))
    @settings(max_examples=40, deadline=None)
    def test_general_series_satisfies_equation(self, a, q, alpha, beta,
                                               gamma, delta, frac):
        p = GeneralHeunParams(a, q, alpha, beta, gamma, delta)
        x = frac * 0.45 * p.radius
        assert abs(heun_ode_residual(p, x, TIGHT)) < 1e-8

    @given(pp=st.floats(0.3, 2), gamma=st.floats(0.5, 3),
           delta=st.floats(-1, 2), alpha=st.floats(-3, 3),
           sigma=st.floats(-3, 3), frac=st.floats(0.05, 1))
    @settings(max_examples=40, deadline=None)
    def test_confluent_series_satisfies_equation(self, pp, gamma, delta,
                                                 alpha, sigma, frac):
        p = ConfluentHeunParams(pp, gamma, delta, alpha, sigma)
        x = frac * 0.45
        assert abs(confluent_ode_residual(p, x, TIGHT)) < 1e-8

    def test_residual_refuses_singular_points(self):
        p = GeneralHeunParams(0.5, -1, -2, 1, 1, 1)
        with pytest.raises(DomainError):
            heun_ode_residual(p, 0.0)
        for x in (0.0, 1.0):
            with pytest.raises(DomainError):
                confluent_ode_residual(ConfluentHeunParams(1.0, 1.5, 0.0, 0.5, 2.0), x)

    def test_wide_and_negative_singular_locations(self):
        # |a| > 1 widens the disk to 1; negative a is equally valid
        wide = GeneralHeunParams(3.0, 1.1, 0.7, -0.4, 1.2, 0.9)
        for x in (0.6, 0.8, -0.8):
            assert abs(heun_ode_residual(wide, x, TIGHT)) < 1e-10
        mirrored = GeneralHeunParams(-0.6, 0.5, 1.0, 2.0, 1.5, 0.7)
        for x in (0.25, -0.25):
            assert abs(heun_ode_residual(mirrored, x, TIGHT)) < 1e-10


def test_underflowing_rescue_prefactor_is_carried():
    # e^(-4px) = e^(-2000) and e^(-3800) underflow; carried apart from the
    # terms, the prefactor still rescues the direct sum, whose terms reach
    # e^(4|px|).  References: the direct recurrence summed in mpmath at 1800
    # digits, which agreed with 2200 digits to 20
    params = ConfluentHeunParams(-1000.0, 1.0, 1.0, 1.0, 1.0)
    for x, ref in ((-0.5, 0.66920812416799153071), (-0.95, 0.51485339049223069375)):
        result = eval_confluent_heun(params, x)
        assert not series._sum_recurrence(params, x, DEFAULT_OPTIONS, 0)[0].converged
        assert result.converged
        assert abs(result.value - ref) <= result.error_estimate <= 1e-12


def test_kept_direct_sum_without_a_correct_digit_is_not_converged():
    # the direct sum stops by its streak rule at -6.6e77 while the value is
    # 4.4e-32: its estimate reaches its value, so the kernel does not call it
    # converged, and the conjugate series, unconverged after 10000 terms,
    # cannot rescue it
    params = GeneralHeunParams(0.5, 1.0, -200.5, -200.5, 1.0, 1.0)
    direct = series._sum_recurrence(params, 0.49, DEFAULT_OPTIONS, 0)[0]
    assert direct.terms_used < 1000 and direct.error_estimate >= abs(direct.value)
    assert not direct.converged
    assert not eval_heun_local(params, 0.49).converged
