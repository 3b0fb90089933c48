"""Error estimates of the float sums against references mpmath computes here.

A result marked converged must lie within its ``error_estimate`` of the
true value: the defining sums of F, G and K, summed from their modes, K's
confluent series, rescued through the prefactor e^(-4nx), and the
unit-argument 3F2, extrapolated by Richardson's method.
"""

import math
import random
import time

import mpmath
import pytest

from heunic import (
    Clausen3F2Params,
    ConfluentHeunParams,
    DomainError,
    FMethod,
    Gauss2F1Params,
    GMethod,
    SeriesOptions,
    clausen_3f2_unit,
    eval_F,
    eval_G,
    eval_HC_family,
    eval_K,
    eval_confluent_heun,
    gauss_2f1,
)


def F_mp(n, x):
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return mpmath.fsum((mpmath.binomial(n, k) * x**k * (1 - x) ** (n - k)) ** 2
                           for k in range(n + 1))


def G_mp(n, x):
    # sum_k (C(n+k-1,k) t^k (1-t)^n)^2 = (1-t)^(2n) 2F1(n, n; 1; t^2), t = x/(1+x)
    with mpmath.workdps(40):
        t = mpmath.mpf(x) / (1 + mpmath.mpf(x))
        return (1 - t) ** (2 * n) * mpmath.hyp2f1(n, n, 1, t * t)


def K_mp(n, x):
    with mpmath.workdps(40):
        z = 2 * mpmath.mpf(n) * mpmath.mpf(x)
        return mpmath.exp(-z) * mpmath.besseli(0, z)


def clausen_mp(*params):
    """Unit-argument 3F2 from partial sums formed exactly in 128-bit fixed
    point, extrapolated by Richardson's method in 30-digit mpmath
    arithmetic until two successive differences fall below 1e-20.

    It starts further out and runs to far more terms than the float
    route; ``test_reference_agrees_with_hyp3f2`` checks it against
    mpmath's ``hyp3f2``, which costs about a second a call.
    """
    den = max(p.as_integer_ratio()[1] for p in params)  # a power of two
    a1, a2, a3, b1, b2 = (int(p * den) for p in params)
    one = 1 << 128
    term = total = one
    k = 0
    n = 16 + 2 * math.ceil(max(map(abs, params)))
    row = []
    with mpmath.workdps(30):
        s = mpmath.mpf(b1 + b2 - a1 - a2 - a3) / den
        for _ in range(14):
            while k + 1 < n:
                kd = k * den
                term = term * ((a1 + kd) * (a2 + kd) * (a3 + kd)) // (
                    (b1 + kd) * (b2 + kd) * (k + 1) * den)
                total += term
                k += 1
            new = [mpmath.mpf(total) / one]
            for i, prev in enumerate(row):
                f = mpmath.mpf(2) ** (s + i)
                new.append((f * new[i] - prev) / (f - 1))
            row = new
            if len(row) >= 3 and max(abs(row[-1] - row[-2]),
                                     abs(row[-2] - row[-3])) <= 1e-20 * abs(row[-1]):
                return row[-1]
            n *= 2
    raise AssertionError(f"the reference did not converge at {params}")


def within_estimate(result, ref):
    with mpmath.workdps(40):
        return abs(mpmath.mpf(result.value) - ref) <= result.error_estimate


class TestIndexSums:
    def test_f_sweep(self):
        rng = random.Random(101)
        draws = [(rng.randint(1, 400), rng.random()) for _ in range(150)]
        draws += [(2000, 0.3), (7, 0.0), (7, 1.0), (8, 0.5), (300, 1e-3), (300, 0.999)]
        for n, x in draws:
            r = eval_F(n, x, FMethod.DEFINITIONAL)
            assert r.converged, (n, x)
            assert within_estimate(r, F_mp(n, x)), (n, x, r)

    def test_f_large_order_matches_closed_form(self):
        assert abs(eval_F(2000, 0.3, FMethod.DEFINITIONAL).value - eval_F(2000, 0.3).value) <= 1e-14

    def test_g_sweep(self):
        rng = random.Random(102)
        draws = [(rng.randint(1, 120), rng.uniform(0.0, 6.0)) for _ in range(150)]
        draws += [(60, 1.3), (400, 5.0), (1, 0.0), (1, 2.5), (4, 2.5)]
        for n, x in draws:
            r = eval_G(n, x, GMethod.DEFINITIONAL)
            assert r.converged, (n, x)
            assert within_estimate(r, G_mp(n, x)), (n, x, r)

    def test_k_sweep(self):
        rng = random.Random(103)
        draws = [(rng.randint(1, 1000), rng.uniform(0.0, 1.2)) for _ in range(150)]
        draws += [(250, 0.8), (372, 1.0), (1000, 0.9), (1, 0.1), (5, 0.0), (20, 0.999)]
        for n, x in draws:
            r = eval_K(n, x)
            assert r.converged, (n, x)
            assert within_estimate(r, K_mp(n, x)), (n, x, r)

    def test_k_confluent_series_sweep(self):
        # K_n is the confluent solution (n, 1, 0, 1/2, 2n); 4nx log-uniform in
        # [1, 4000] needs up to about 4700 terms.  The rescue's estimate
        # counts the rounding of e^(-4nx) itself, |4nx| eps of its value
        rng = random.Random(105)
        for _ in range(300):
            lam, x = 4000.0 ** rng.random(), rng.uniform(0.05, 0.95)
            n = max(1, round(lam / (4 * x)))
            r = eval_confluent_heun(ConfluentHeunParams(n, 1.0, 0.0, 0.5, 2.0 * n), x)
            assert r.converged, (n, x, r)
            assert within_estimate(r, K_mp(n, x)), (n, x, r)

    def test_large_arguments_do_not_underflow(self):
        # the sums used to start at exp(-2 lambda) or (1+x)^(-2n) and return 0
        for r, ref in [(eval_K(372, 1.0), K_mp(372, 1.0)),
                       (eval_K(1000, 0.9), K_mp(1000, 0.9)),
                       (eval_G(400, 5.0, GMethod.DEFINITIONAL), G_mp(400, 5.0))]:
            assert r.converged
            assert within_estimate(r, ref)
            assert abs(r.value - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("evaluate", [
        lambda opts: eval_G(3, 1e6, GMethod.DEFINITIONAL, opts),
        lambda opts: eval_K(10**7, 100.0, opts),
    ])
    def test_spread_beyond_max_terms_is_not_converged(self, evaluate):
        # the walk stops at max_terms with its partial sum and its last term
        r = evaluate(SeriesOptions(max_terms=10000))
        assert not r.converged
        assert r.terms_used == 10000
        assert math.isfinite(r.value) and 0.0 < r.error_estimate < r.value

    @pytest.mark.parametrize("evaluate", [
        lambda: eval_K(10**8, 0.99),
        lambda: eval_K(10**8, 1.01),
        lambda: eval_G(10**4, 99.0, GMethod.DEFINITIONAL),
        lambda: eval_G(10**4, 101.0, GMethod.DEFINITIONAL),
    ], ids=["K-below", "K-above", "G-below", "G-above"])
    def test_walk_past_max_terms_returns_its_partial_sum(self, evaluate):
        # each pair straddles a spread of max_terms indices; both sides walk
        # to max_terms and return the same kind of result
        start = time.perf_counter()
        r = evaluate()
        assert time.perf_counter() - start < 0.1
        assert not r.converged
        assert r.terms_used == SeriesOptions().max_terms
        assert math.isfinite(r.value) and 0.0 < r.error_estimate < r.value

    def test_no_converged_zero_at_a_huge_order(self):
        # the mode weight used to round to 0, with an infinite estimate
        try:
            r = eval_F(12 * 10**153, 0.5, FMethod.DEFINITIONAL)
        except DomainError:
            return
        assert not r.converged

    @pytest.mark.parametrize("evaluate", [
        lambda x: eval_F(10**200, x, FMethod.DEFINITIONAL),
        lambda x: eval_G(10**200, x, GMethod.DEFINITIONAL),
        lambda x: eval_K(10**200, x),
    ], ids=["F", "G", "K"])
    def test_mode_past_the_float_range_of_stirlings_series_is_refused(self, evaluate):
        with pytest.raises(DomainError, match="Stirling"):
            evaluate(0.3)

    @pytest.mark.parametrize("evaluate", [
        lambda x: eval_G(3, x, GMethod.DEFINITIONAL),
        lambda x: eval_K(3, x),
    ], ids=["G", "K"])
    def test_non_finite_x_is_refused(self, evaluate):
        for x in (math.inf, math.nan):
            with pytest.raises(DomainError):
                evaluate(x)

    @pytest.mark.parametrize("n, j, x", [(10**15, 2, 1.0), (10**16, 5, 0.5)])
    def test_trapezoid_that_misses_its_peak_is_not_converged(self, n, j, x):
        # the peak of width 1/sqrt(4nx) falls between the nodes of the finest
        # rule, and every node's value is 0
        with mpmath.workdps(30):
            ref = mpmath.hyp1f1(j + 0.5, j + 1, -4 * mpmath.mpf(n) * x)
        r = eval_HC_family(n, j, x)
        assert not r.converged
        assert r.error_estimate != 0.0
        assert within_estimate(r, ref)

    @pytest.mark.parametrize("index, n, x", [
        ("F", 10**40, 1e-39), ("F", 10**200, 1e-199), ("G", 10**40, 1e-39)],
        ids=["F-1e40", "F-1e200", "G-1e40"])
    def test_small_mode_at_a_huge_order_is_within_its_estimate(self, index, n, x):
        # the mode is below 20, so the mode weight is a quotient of truncated
        # powers of about n factors, whose truncation error grows with n: at
        # n = 1e40 it used to leave no correct digit
        if index == "F":
            r = eval_F(n, x, FMethod.DEFINITIONAL)
        else:
            r = eval_G(n, x, GMethod.DEFINITIONAL)
        with mpmath.workdps(260):
            x = mpmath.mpf(x)
            if index == "F":
                weights = (mpmath.binomial(n, k) * x**k * (1 - x) ** (n - k) for k in range(120))
            else:
                weights = (mpmath.binomial(n + k - 1, k) * x**k * (1 + x) ** (-n - k)
                           for k in range(120))
            ref = mpmath.fsum(w**2 for w in weights)
        assert r.converged
        assert within_estimate(r, ref)

    def test_huge_order_forms_no_huge_integer(self):
        # the mode weights come from Stirling's series, not from a C(n, k)
        # of 10^8 bits; the leading asymptotic term is 1/sqrt(4 pi variance)
        n, x = 10**8, 0.3
        f = eval_F(n, x, FMethod.DEFINITIONAL, SeriesOptions(max_terms=100000))
        g = eval_G(n, x, GMethod.DEFINITIONAL, SeriesOptions(max_terms=100000))
        assert f.converged and g.converged
        assert f.value == pytest.approx((4 * math.pi * n * x * (1 - x)) ** -0.5, rel=1e-7)
        assert g.value == pytest.approx((4 * math.pi * n * x * (1 + x)) ** -0.5, rel=1e-7)


@pytest.mark.parametrize("max_terms", [9, 10])
def test_terminating_sum_cut_after_its_last_term_bounds_its_rounding(max_terms):
    # 2F1(-7, 2.5; 1.3; 0.8) has eight nonzero terms; cut at 9 or 10 terms
    # it stops unconverged on a zero term, 9.4e-15 off the true value
    r = gauss_2f1(Gauss2F1Params(-7.0, 2.5, 1.3), 0.8, SeriesOptions(max_terms=max_terms))
    with mpmath.workdps(40):
        ref = mpmath.hyp2f1(-7, 2.5, 1.3, 0.8)
    assert not r.converged
    assert r.error_estimate > 0.0
    assert within_estimate(r, ref), (r, ref)


class TestClausenRichardson:
    @pytest.mark.parametrize("params", [
        (0.5, 5.95, 5.95, 6.45, 6.95),
        (-2.7877250922441137, -2.911015369429159, 0.25689111207221726,
         2.2843435084848505, -6.7645329932136145),
        (0.7962445079742881, 2.482677439724881, 2.989331184557737,
         1.1276336871967476, 7.557187021518023),
    ])
    def test_reference_agrees_with_hyp3f2(self, params):
        # the last two are draws of the sweep below on which mpmath's nsum
        # with Levin's transform is wrong in the sixth digit
        with mpmath.workdps(25):
            ref = mpmath.hyp3f2(*params, 1)
            assert abs(clausen_mp(*params) - ref) <= 1e-19 * abs(ref)

    def test_two_log_two_at_q_one(self):
        r = clausen_3f2_unit(Clausen3F2Params(0.5, 1.0, 1.0, 1.5, 2.0))
        assert r.converged
        assert abs(r.value - 2 * math.log(2)) <= 2 * math.ulp(2 * math.log(2))
        assert r.terms_used <= 1024

    def test_paper_family_grid(self):
        # 3F2(1/2, q, q; q+1/2, q+1; 1), unit excess 1, on 120 q over (0.05, 6)
        for i in range(120):
            q = 0.05 + 5.95 * (i + 0.5) / 120
            params = (0.5, q, q, q + 0.5, q + 1.0)
            r = clausen_3f2_unit(Clausen3F2Params(*params))
            assert r.converged, q
            assert within_estimate(r, clausen_mp(*params)), (q, r)

    def test_seeded_unit_excess_sweep(self):
        rng = random.Random(104)
        for _ in range(500):
            s = rng.uniform(0.5, 4.0)
            a1, a2, a3 = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.1, 3)
            b1 = rng.uniform(0.5, 4.0)
            params = (a1, a2, a3, b1, a1 + a2 + a3 + s - b1)
            r = clausen_3f2_unit(Clausen3F2Params(*params))
            assert r.converged, params
            assert within_estimate(r, clausen_mp(*params)), (params, r)
