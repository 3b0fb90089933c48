"""Every closed form is bit-identical to its exact rational sum rounded once.

The references below are the plain ``Fraction`` accumulation loops of the
closed forms; the library evaluates the same sums in integers.  Both
round the same exact value once, so the floats must be equal, not close.
"""

import functools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from heunic import (
    DomainError,
    FamilyParamsNeg,
    FamilyParamsPos,
    FMethod,
    GMethod,
    PoleError,
    coefficient_a,
    eval_F,
    eval_family_negative,
    eval_family_positive,
    eval_G,
    eval_sample_family,
    gauss_2f1_closed,
    harmonic,
    pochhammer,
)

F_CLOSED = [m for m in FMethod if m is not FMethod.DEFINITIONAL]
G_CLOSED = [m for m in GMethod if m is not GMethod.DEFINITIONAL]

# ---------------------------------------------------------------------------
# reference loops in exact rational arithmetic


@functools.lru_cache(maxsize=None)
def ref_alternating_quarter_sum(m, j):
    total = Fraction(0)
    for i in range(m + 1):
        total += Fraction((-1) ** i * math.comb(m, i) * math.comb(2 * i + 2 * j, i + j), 4**i)
    return total


def ref_stacked_binomial_sum(n, k):
    return sum(math.comb(j, k) * math.comb(2 * j, j) * math.comb(2 * n - 2 * j, n - j)
               for j in range(k, n + 1))


def ref_factored(n, w):
    total, wk = Fraction(0), Fraction(1)
    for k in range(n + 1):
        total += math.comb(n, k) * math.comb(2 * k, k) * wk
        wk *= w
    return total


def ref_power(n, s):
    total, sj = Fraction(0), Fraction(1)
    for j in range(n + 1):
        total += sj * Fraction(math.comb(n, j), 4**j) * ref_alternating_quarter_sum(n - j, j)
        sj *= s
    return total


def ref_established(n, s):
    total, sj = Fraction(0), Fraction(1)
    for j in range(n + 1):
        total += sj * Fraction(math.comb(2 * j, j) * math.comb(2 * n - 2 * j, n - j), 4**n)
        sj *= s
    return total


def ref_expanded(n, w):
    total, wk = Fraction(0), Fraction(1)
    for k in range(n + 1):
        total += wk * Fraction(4**k, 4**n) * ref_stacked_binomial_sum(n, k)
        wk *= w
    return total


def ref_F(n, x, method):
    xr = Fraction(x)
    if method in (FMethod.FACTORED, FMethod.EXPANDED):
        route = ref_factored if method is FMethod.FACTORED else ref_expanded
        return float(route(n, xr * xr - xr))
    route = ref_power if method is FMethod.POWER else ref_established
    return float(route(n, (1 - 2 * xr) ** 2))


def ref_G(n, x, method):
    xr = Fraction(x)
    if 1 + 2 * xr == 0:
        raise PoleError("pole")
    if method is GMethod.FACTORED:
        body = ref_factored(n - 1, xr * xr + xr)
    elif method is GMethod.POWER:
        body = ref_power(n - 1, (1 + 2 * xr) ** 2)
    else:
        body = ref_established(n - 1, (1 + 2 * xr) ** 2)
    return float((1 + 2 * xr) ** (1 - 2 * n) * body)


def ref_family_sum(terms, theta, gamma, w):
    total, wk, num, den = Fraction(0), Fraction(1), Fraction(1), Fraction(1)
    for k in range(terms + 1):
        total += (4**k * math.comb(terms, k)) * num / den * wk
        wk *= w
        num *= theta + k
        den *= gamma + k
    return total


def ref_family_negative(fp, x):
    xr = Fraction(x)
    return float(ref_family_sum(fp.n, Fraction(fp.theta), Fraction(fp.gamma), xr * xr - xr))


def ref_family_positive(fp, x):
    xr = Fraction(x)
    exponent = -2.0 * (fp.n - fp.gamma + fp.theta)
    base = 1 - 2 * xr
    if base == 0 and exponent < 0:
        raise PoleError("pole")
    body = ref_family_sum(fp.n - int(fp.gamma), Fraction(fp.gamma) - Fraction(fp.theta),
                          Fraction(fp.gamma), xr * xr - xr)
    if float(exponent).is_integer():
        return float(base ** int(exponent) * body)
    if base < 0:
        raise DomainError("no real branch")
    return float(base) ** exponent * float(body)


def ref_sample_family(n, i, x):
    u = (Fraction(x) - Fraction(1, 2)) ** 2
    total, uj = Fraction(0), Fraction(1)
    for j in range(n - i + 1):
        total += (4**j * math.comb(i + j, i) * math.comb(2 * i + 2 * j, i + j)
                  * math.comb(2 * n - 2 * i - 2 * j, n - i - j)) * uj
        uj *= u
    ratio = Fraction(4**i * math.factorial(i) ** 2, math.factorial(2 * i))
    return float(ratio / (4**n * math.comb(n, i)) * total)


def ref_gauss_2f1_closed(m, k, x):
    xr = Fraction(x)
    fact2k = math.factorial(2 * k)
    rational = harmonic(2 * k) * (1 - xr) ** (2 * k) / fact2k
    rational -= sum((coefficient_a(j, k) * xr**j for j in range(2 * k + 1)), Fraction(0))
    rational -= sum((xr ** (i + 2 * k + 1) / pochhammer(i + 1, 2 * k + 1)
                     for i in range(m - 1)), Fraction(0))
    log_weight = (1 - xr) ** (2 * k) / fact2k
    with localcontext() as ctx:
        ctx.prec = 40 + math.ceil((m + 2 * k + 1) * math.log10(1.0 / x)) + 2 * k
        bracket = (Decimal(rational.numerator) / rational.denominator
                   - Decimal(log_weight.numerator) / log_weight.denominator
                   * (1 - Decimal(x)).ln())
        x_power = Decimal(xr.denominator ** (m + 2 * k)) / xr.numerator ** (m + 2 * k)
        return float(pochhammer(m, 2 * k + 1) * bracket * x_power)


# ---------------------------------------------------------------------------
# the seeded grid


def _grid_x(rng):
    """Full-mantissa, dyadic, special, negative, tiny and large abscissas."""
    return ([0.0, 0.5, 1.0, 0.25, -0.75, 1e-300, -1e-300, 1e3, -1e3, 1.0 - 2.0**-52]
            + [rng.uniform(-1.5, 2.5) for _ in range(4)]
            + [rng.uniform(-1e3, 1e3)]
            + [rng.randint(-128, 192) / 64 for _ in range(2)])


GRID_NS = (1, 2, 3, 7, 16, 40)


def _outcome(func, *args):
    """The float a call returns, or the type of the error it raises."""
    try:
        return func(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("method", F_CLOSED, ids=lambda m: m.value)
def test_F_closed_forms_match_reference(method):
    rng = random.Random(f"F:{method.value}")
    for n in GRID_NS:
        for x in _grid_x(rng):
            assert _outcome(eval_F, n, x, method) == _outcome(ref_F, n, x, method), (n, x)


@pytest.mark.parametrize("method", G_CLOSED, ids=lambda m: m.value)
def test_G_closed_forms_match_reference(method):
    rng = random.Random(f"G:{method.value}")
    for n in GRID_NS:
        for x in _grid_x(rng):
            got = _outcome(lambda: eval_G(n, x, method).value)
            assert got == _outcome(ref_G, n, x, method), (n, x)


def test_families_match_reference():
    rng = random.Random("families")
    for n in GRID_NS:
        for x in _grid_x(rng):
            theta = rng.choice([rng.uniform(-3.0, 3.0), float(rng.randint(-3, 3)), 0.5])
            gamma = rng.choice([rng.uniform(0.2, 4.0), rng.uniform(-3.5, -0.1), 2.0])
            if not float(gamma).is_integer() or gamma > 0:
                fp = FamilyParamsNeg(n, theta, gamma)
                assert (_outcome(eval_family_negative, fp, x)
                        == _outcome(ref_family_negative, fp, x)), (fp, x)
            for theta_pos in (theta, rng.uniform(0.1, 2.0)):
                fp = FamilyParamsPos(n, theta_pos, rng.randint(1, n))
                got = _outcome(eval_family_positive, fp, x)
                assert got == _outcome(ref_family_positive, fp, x), (fp, x)
            i = rng.randint(0, n)
            assert (_outcome(eval_sample_family, n, i, x)
                    == _outcome(ref_sample_family, n, i, x)), (n, i, x)


def test_gauss_2f1_closed_matches_reference():
    rng = random.Random("2f1-closed")
    cases = [(1, 0, 0.1), (1, 0, 0.5), (200, 30, 0.999), (3, 2, 0.75)]
    cases += [(rng.randint(1, 200), rng.randint(0, 30), rng.uniform(0.1, 0.999))
              for _ in range(40)]
    for m, k, x in cases:
        assert gauss_2f1_closed(m, k, x) == ref_gauss_2f1_closed(m, k, x), (m, k, x)


# ---------------------------------------------------------------------------
# large order: every route rounds the same exact value


@pytest.mark.parametrize("x", [0.375, 0.8123456789012345, -0.3])
def test_F_routes_at_order_400_are_one_value(x):
    expected = ref_F(400, x, FMethod.ESTABLISHED)
    assert [eval_F(400, x, m) for m in F_CLOSED] == [expected] * len(F_CLOSED)


@pytest.mark.parametrize("x", [0.375, 1.2345678901234567])
def test_G_routes_at_order_400_are_one_value(x):
    expected = ref_G(400, x, GMethod.ESTABLISHED)
    assert [eval_G(400, x, m).value for m in G_CLOSED] == [expected] * len(G_CLOSED)


def test_families_at_order_400():
    x = 0.3141592653589793
    fp = FamilyParamsNeg(400, 1.75, 0.625)
    assert eval_family_negative(fp, x) == ref_family_negative(fp, x)
    assert eval_sample_family(400, 150, x) == ref_sample_family(400, 150, x)


# ---------------------------------------------------------------------------
# errors that stay the same


@pytest.mark.parametrize("method", G_CLOSED, ids=lambda m: m.value)
def test_G_pole_at_minus_half(method):
    with pytest.raises(PoleError):
        eval_G(5, -0.5, method)


@pytest.mark.parametrize("x, error", [(math.nan, ValueError), (math.inf, OverflowError),
                                      (-math.inf, OverflowError)])
def test_non_finite_x(x, error):
    calls = ([lambda m=m: eval_F(4, x, m) for m in F_CLOSED]
             + [lambda m=m: eval_G(4, x, m) for m in G_CLOSED]
             + [lambda: eval_family_negative(FamilyParamsNeg(4, 0.5, 1.5), x),
                lambda: eval_family_positive(FamilyParamsPos(4, 0.5, 2), x),
                lambda: eval_family_positive(FamilyParamsPos(4, 0.25, 2), x),
                lambda: eval_sample_family(4, 1, x)])
    for call in calls:
        with pytest.raises(error):
            call()
