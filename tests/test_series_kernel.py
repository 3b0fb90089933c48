"""The fused series kernel is bit-identical to a generator-and-sum engine.

The references below are that engine: one generator per equation that
yields the recurrence coefficients, and a separate loop that sums
u, u', ..., u^(max_order) from them.  The library runs the same
recurrence and the same sums in one loop, with the same float operations
in the same order, so every result must be equal, not close.  Results
are compared through ``repr`` so that NaN compares safely.
"""

import math
import random

import pytest

from heunic import series
from heunic.series import (
    ConfluentHeunParams,
    EvalResult,
    GeneralHeunParams,
    SeriesOptions,
)

# ---------------------------------------------------------------------------
# reference engine: two coefficient generators and one summation loop


def ref_general_coefficients(p):
    a, q, ga, de, ep = p.a, p.q, p.gamma, p.delta, p.epsilon
    al, be = p.alpha, p.beta
    c_prev = 1.0
    yield c_prev
    c_cur = q / (a * ga)
    yield c_cur
    k = 1
    while True:
        rhs = (k * ((k - 1 + ga) * (1 + a) + a * de + ep) + q) * c_cur
        rhs -= (k - 1 + al) * (k - 1 + be) * c_prev
        c_prev, c_cur = c_cur, rhs / (a * (k + 1) * (k + ga))
        yield c_cur
        k += 1


def ref_confluent_coefficients(p):
    pp, ga, de, al, si = p.p, p.gamma, p.delta, p.alpha, p.sigma
    c_prev = 1.0
    yield c_prev
    c_cur = -si / ga
    yield c_cur
    k = 1
    while True:
        rhs = (k * (k - 1 + ga + de - 4 * pp) - si) * c_cur
        rhs += 4 * pp * (k - 1 + al) * c_prev
        c_prev, c_cur = c_cur, rhs / ((k + 1) * (k + ga))
        yield c_cur
        k += 1


def ref_sum_series(coeffs, x, opts, max_order):
    m1 = max_order + 1
    sums = [0.0] * m1
    abs_sums = [0.0] * m1
    last = [0.0] * m1
    xpow = [0.0] * m1
    xpow[0] = 1.0
    streak = 0
    k = 0
    converged = False
    for c in coeffs:
        if not math.isfinite(c):
            break
        all_small = True
        ff = 1.0
        for m in range(min(k, max_order) + 1):
            term = c * ff * xpow[m]
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
        for m in range(max_order, 0, -1):
            xpow[m] = xpow[m - 1]
        xpow[0] *= x
    results = []
    for m in range(m1):
        est = abs(last[m])
        if converged:
            est = max(est, series._EPS * abs_sums[m])
        results.append(EvalResult(sums[m], k, converged, est))
    return results


def ref_kernel(params, x, opts, max_order):
    coeffs = (ref_general_coefficients if isinstance(params, GeneralHeunParams)
              else ref_confluent_coefficients)
    return ref_sum_series(coeffs(params), x, opts, max_order)


# ---------------------------------------------------------------------------
# seeded corpus

OPTIONS = [SeriesOptions(max_terms=n, rel_tol=tol)
           for n in (2, 3, 5, 40, 10000, 10000, 10000) for tol in (1e-3, 1e-9, 1e-15)]


def general_point(rng):
    # a small |a| makes the coefficients overflow before the sum converges
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

    def counting_ref(params, x, opts, max_order):
        calls.append(params)
        return ref_kernel(params, x, opts, max_order)

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
        params, x = rng.choice([general_point, confluent_point])(rng)
        for opts in (SeriesOptions(max_terms=2, rel_tol=1e-3),
                     SeriesOptions(max_terms=3, rel_tol=1e-15),
                     SeriesOptions(max_terms=max_order + 2, rel_tol=1e-9)):
            assert (repr(series._sum_recurrence(params, x, opts, max_order))
                    == repr(ref_kernel(params, x, opts, max_order)))


@pytest.mark.parametrize("max_order", range(4))
def test_overflowing_coefficients_abort_identically(max_order, monkeypatch):
    # the coefficients grow like a^-k = 1000^k and overflow near k = 103,
    # long before the terms (x/a)^k fall to rel_tol
    opts = SeriesOptions()
    params = GeneralHeunParams(1e-3, 2.0, 1.5, -0.5, 0.7, 0.4)
    xs = (0.97e-3, -0.97e-3, 0.9e-3)
    for x in xs:
        got = series._sum_recurrence(params, x, opts, max_order)
        assert repr(got) == repr(ref_kernel(params, x, opts, max_order))
        assert not got[0].converged and got[0].terms_used < 200
    fused = [repr(series._evaluate(params, x, opts, max_order)) for x in xs]
    monkeypatch.setattr(series, "_sum_recurrence", ref_kernel)
    assert fused == [repr(series._evaluate(params, x, opts, max_order)) for x in xs]
