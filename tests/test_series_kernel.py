"""The fused series kernel is bit-identical to a generator-and-sum engine.

The references below are that engine: one generator per equation that
yields the recurrence's coefficients (P_k, Q_k, D_k), with P_k in the
library's form (k + e)(s k + t) + v, so that Gauss's (k + a)(k + b) is
two factors; one generator that runs the recurrence on the terms and
carries their binary exponent; and a separate loop that sums u, u', ...,
u^(max_order) from those terms.  The library runs the same recurrence
and the same sums in one loop, with the same float operations in the
same order, so every result must be equal, not close.  Results are
compared through ``repr`` so that NaN compares safely.
"""

import math
import random

import mpmath
import pytest

from heunic import series
from heunic.hypergeom import Gauss2F1Params
from heunic.series import (
    ConfluentHeunParams,
    EvalResult,
    GeneralHeunParams,
    SeriesOptions,
)

# ---------------------------------------------------------------------------
# reference engine: three coefficient generators, one term generator and one
# summation loop


def ref_general_coefficients(p):
    """a(k+1)(k+gamma) c_{k+1} = [k((1+a)k + (gamma-1)(1+a) + a delta + epsilon) + q] c_k
                                 - (k-1+alpha)(k-1+beta) c_{k-1}, k = 0, 1, ..."""
    a, q, ga, de, ep = p.a, p.q, p.gamma, p.delta, p.epsilon
    al, be = p.alpha, p.beta
    t = (ga - 1) * (1 + a) + a * de + ep
    k = 0
    while True:
        yield (k * ((1 + a) * k + t) + q,
               -((k - 1 + al) * (k - 1 + be)), a * (k + 1) * (k + ga))
        k += 1


def ref_confluent_coefficients(p):
    """(k+1)(k+gamma) c_{k+1} = [k(k+gamma+delta-4p-1) - sigma] c_k
                               + 4p(k-1+alpha) c_{k-1}, k = 0, 1, ..."""
    pp, ga, de, al, si = p.p, p.gamma, p.delta, p.alpha, p.sigma
    t = ga + de - 4 * pp - 1
    k = 0
    while True:
        yield k * (k + t) - si, 4 * pp * (k - 1 + al), (k + 1) * (k + ga)
        k += 1


def ref_gauss_coefficients(p):
    """(k+1)(k+c) c_{k+1} = (k+a)(k+b) c_k, k = 0, 1, ..."""
    k = 0
    while True:
        yield (k + p.a) * (k + p.b), 0.0, (k + 1) * (k + p.c)
        k += 1


REF_COEFFICIENTS = {GeneralHeunParams: ref_general_coefficients,
                    ConfluentHeunParams: ref_confluent_coefficients,
                    Gauss2F1Params: ref_gauss_coefficients}


def ref_terms(coeffs, x, max_order, log_f, carries):
    """(y_k, scale) with y_k 2^scale = e^log_f c_k x^(k - min(k, max_order)),
    from c_{-1} = 0 and c_0 = 1; each carry of 2^600 is appended to carries."""
    scale = round(log_f / series._LN2)
    y = math.exp((log_f - scale * series._LN2_HI) - scale * series._LN2_LO)
    y_prev = 0.0
    for k, (P, Q, D) in enumerate(coeffs):
        yield y, scale
        a = 1.0 if k < max_order else x          # y_{k+1} / c_{k+1} = a y_k / c_k
        b = 1.0 if k <= max_order else x         # and b y_{k-1} / c_{k-1} = y_k / c_k
        y_prev, y = y, (P * y + Q * b * y_prev) * a / D
        if scale <= -600 and abs(y) > 2.0**600:
            scale += 600
            y, y_prev = y * 2.0**-600, y_prev * 2.0**-600
            carries.append(k)


def ref_sum_terms(terms, x, opts, max_order):
    m1 = max_order + 1
    sums = [0.0] * m1
    abs_sums = [0.0] * m1
    last = [0.0] * m1
    streak = 0
    k = 0
    converged = False
    scale = None
    y_prev = y = 0.0
    for y_next, y_scale in terms:
        y_prev, y = y, y_next
        if scale is not None and y_scale != scale:
            factor = 2.0 ** (scale - y_scale)
            sums = [s * factor for s in sums]
            abs_sums = [s * factor for s in abs_sums]
            y_prev *= factor
        scale = y_scale
        all_small = True
        ff = 1.0
        top = min(k, max_order)
        for m in range(top + 1):
            xpow = 1.0
            for _ in range(top - m):
                xpow *= x
            term = y * ff * xpow
            sums[m] += term
            abs_sums[m] += abs(term)
            last[m] = term
            if abs(term) > opts.rel_tol * abs(sums[m]):
                all_small = False
            ff *= k - m
        if all_small and k >= max_order:
            streak += 1
        else:
            streak = 0
        k += 1
        if streak >= 3:
            converged = True
            break
        if k >= opts.max_terms:
            break
    # stopped while the terms still grow: the last term bounds nothing
    growing = not converged and y != 0.0 and abs(y) >= abs(y_prev)
    results = []
    for m in range(m1):
        est = math.inf if growing else max(abs(last[m]), series._EPS * abs_sums[m])
        value, est = math.ldexp(sums[m], scale), math.ldexp(est, scale)
        results.append(EvalResult(value, k, converged and est < abs(value), est))
    return results


def ref_kernel(params, x, opts, max_order, log_f=0.0, carries=None):
    coeffs = REF_COEFFICIENTS[type(params)](params)
    terms = ref_terms(coeffs, x, max_order, log_f, [] if carries is None else carries)
    return ref_sum_terms(terms, x, opts, max_order)


# ---------------------------------------------------------------------------
# seeded corpus

OPTIONS = [SeriesOptions(max_terms=n, rel_tol=tol)
           for n in (2, 3, 5, 40, 10000, 10000, 10000) for tol in (1e-3, 1e-9, 1e-15)]


def general_point(rng):
    # a small |a| makes the coefficients grow like |a|^-k, long before the terms fall
    a = rng.choice([rng.uniform(0.2, 0.9), rng.uniform(1.2, 4.0), rng.uniform(1e-3, 1e-2),
                    rng.uniform(-0.9, -0.2), rng.uniform(-4.0, -1.2)])
    gamma = rng.choice([rng.uniform(0.3, 3.0), rng.uniform(-2.9, -2.1)])
    params = GeneralHeunParams(a, rng.uniform(-4, 4), rng.uniform(-8, 4),
                               rng.uniform(-8, 4), gamma, rng.uniform(-2, 3))
    return params, rng.choice([-1, 1]) * rng.uniform(0.0, 0.95) * params.radius


def confluent_point(rng):
    p = rng.choice([rng.uniform(-3, 3) or 1.0, rng.uniform(5, 40), -rng.uniform(5, 40)])
    gamma = rng.choice([rng.uniform(0.3, 3.0), rng.uniform(-1.9, -1.1)])
    params = ConfluentHeunParams(p, gamma, rng.uniform(-2, 3), rng.uniform(-4, 4),
                                 rng.uniform(-4, 4) * max(1.0, abs(p)))
    return params, rng.choice([-1, 1]) * rng.uniform(0.0, 0.95)


def gauss_point(rng):
    # rel_5_2's and the 2f1 route's draws, x up to 0.95
    params = Gauss2F1Params(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 3))
    return params, rng.uniform(-0.95, 0.95)


def corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        point = rng.choice([general_point, confluent_point])
        params, x = point(rng)
        yield params, x, rng.choice(OPTIONS), rng.randrange(4)


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_routes_bit_identical_to_generator_engine(seed, monkeypatch):
    points = list(corpus(seed, 1100))
    fused = [repr(series._evaluate(p, x, opts, m)) for p, x, opts, m in points]
    calls = []

    def counting_ref(params, x, opts, max_order, log_f=0.0):
        calls.append(params)
        return ref_kernel(params, x, opts, max_order, log_f)

    monkeypatch.setattr(series, "_sum_recurrence", counting_ref)
    rescued = 0
    for (p, x, opts, m), got in zip(points, fused):
        calls.clear()
        assert got == repr(series._evaluate(p, x, opts, m)), (p, x, opts, m)
        rescued += len(calls) == 2
    # both the direct and the rescued path are exercised, at every order
    assert 100 < rescued < len(points) - 100
    assert {m for *_, m in points} == {0, 1, 2, 3}


@pytest.mark.parametrize("max_order", range(4))
def test_kernel_bit_identical_including_tiny_max_terms(max_order):
    rng = random.Random(100 + max_order)
    for _ in range(150):
        params, x = rng.choice([general_point, confluent_point, gauss_point])(rng)
        for opts in (SeriesOptions(max_terms=2, rel_tol=1e-3),
                     SeriesOptions(max_terms=3, rel_tol=1e-15),
                     SeriesOptions(max_terms=max_order + 2, rel_tol=1e-9)):
            for at in (x, 0.0, -0.0):  # at x = +-0 the term of order m is m! c_m
                assert (repr(series._sum_recurrence(params, at, opts, max_order))
                        == repr(ref_kernel(params, at, opts, max_order))), (params, at, opts)


@pytest.mark.parametrize("seed", range(2))
def test_gauss_kernel_bit_identical(seed):
    rng = random.Random(200 + seed)
    points = []
    for _ in range(400):
        params, x = gauss_point(rng)
        points.append((params, x, rng.choice(OPTIONS), rng.randrange(4)))
    # terminating sums of u alone: a = -m leaves m + 1 nonzero terms, and
    # max_terms cuts them one term before the last, at it and one after it
    for m in (1, 2, 7, 30):
        params = Gauss2F1Params(-float(m), rng.uniform(-3, 3), rng.uniform(0.5, 3))
        x = rng.uniform(-0.95, 0.95)
        for max_terms in (m, m + 1, m + 2):
            for tol in (1e-3, 1e-15):
                points.append((params, x, SeriesOptions(max(max_terms, 2), tol), 0))
    for params, x, opts, max_order in points:
        assert (repr(series._sum_recurrence(params, x, opts, max_order))
                == repr(ref_kernel(params, x, opts, max_order))), (params, x, opts, max_order)


# prefactors far below the float range: K's e^(-4nx) at n = 500 and 2000,
# e^(-3800) at p = -1000, and (1 - x/a)^403 = 2^-2274 of the four-point case
CARRIED = [
    (ConfluentHeunParams(500, 1.0, 0.0, 0.5, 1000), 0.9),
    (ConfluentHeunParams(2000, 1.0, 0.0, 0.5, 4000), 0.9),
    (ConfluentHeunParams(-1000.0, 1.0, 1.0, 1.0, 1.0), -0.95),
    (GeneralHeunParams(0.5, 1.0, -200.5, -200.5, 1.0, 1.0), 0.49),
]


@pytest.mark.parametrize("max_order", range(4))
def test_carried_exponent_bit_identical(max_order, monkeypatch):
    opts = series.DEFAULT_OPTIONS
    fused = [repr(series._evaluate(params, x, opts, max_order)) for params, x in CARRIED]
    carries = []

    def recording_ref(params, x, opts, max_order, log_f=0.0):
        return ref_kernel(params, x, opts, max_order, log_f, carries)

    monkeypatch.setattr(series, "_sum_recurrence", recording_ref)
    for (params, x), got in zip(CARRIED, fused):
        carries.clear()
        assert got == repr(series._evaluate(params, x, opts, max_order)), (params, x)
        assert carries, (params, x)  # the rescue carried 2^600 at least once


def heun_mp(params, x, max_order):
    """u, ..., u^(max_order) of the four-point equation at x, termwise in
    50-digit arithmetic until the terms fall below 1e-40 of every sum."""
    with mpmath.workdps(50):
        a, q, al, be, ga, de = (mpmath.mpf(v) for v in (
            params.a, params.q, params.alpha, params.beta, params.gamma, params.delta))
        ep, x = al + be + 1 - ga - de, mpmath.mpf(x)
        sums = [mpmath.mpf(0)] * (max_order + 1)
        c_prev, c = mpmath.mpf(0), mpmath.mpf(1)
        for k in range(100000):
            terms = [c * mpmath.ff(k, m) * x ** (k - m) if k >= m else 0
                     for m in range(max_order + 1)]
            sums = [s + t for s, t in zip(sums, terms)]
            if k > 20 and all(abs(t) <= 1e-40 * abs(s) for s, t in zip(sums, terms)):
                return sums
            c_prev, c = c, (((k * ((k - 1 + ga) * (1 + a) + a * de + ep) + q) * c
                             - (k - 1 + al) * (k - 1 + be) * c_prev) / (a * (k + 1) * (k + ga)))
    raise AssertionError("the reference did not converge")


@pytest.mark.parametrize("max_order", range(4))
def test_large_coefficients_match_mpmath(max_order):
    # the coefficients grow like a^-k = 1000^k and would overflow near k = 103,
    # long before the terms (x/a)^k fall to rel_tol; the terms do not.  The
    # 1e-13 beyond the estimate is the recurrence's rounding, which the
    # estimate does not yet count: u at x = 0.97e-3 is 2.8e-14 off, 30 times it
    params = GeneralHeunParams(1e-3, 2.0, 1.5, -0.5, 0.7, 0.4)
    for x in (0.97e-3, -0.97e-3, 0.9e-3):
        got = series._evaluate(params, x, series.DEFAULT_OPTIONS, max_order)
        for result, ref in zip(got, heun_mp(params, x, max_order)):
            assert result.converged, (x, result)
            assert abs(result.value - ref) <= result.error_estimate + 1e-13 * abs(ref), \
                (x, result, ref)
