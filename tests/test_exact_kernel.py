"""Every closed form is bit-identical to its exact rational sum rounded once.

The references below are the plain ``Fraction`` accumulation loops of the
closed forms; the library evaluates the same sums in integers.  Both
round the same exact value once, so the floats must be equal, not close.
"""

import functools
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

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
    eval_hl_hypergeometric,
    eval_sample_family,
    gauss_2f1_closed,
    harmonic,
    pochhammer,
)
from heunic import IDENTITY_A_SITES, IDENTITY_B_SITES, Mutation, check_identity_A, check_identity_B
from heunic import EvalResult, closed_forms
from heunic.closed_forms import _checked_ratio, _gauss_sum, _rounded
from heunic.coincidence import _expanded_coeffs, _power_coeffs
from heunic.identities import binomial_exact

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
            got = _outcome(lambda: eval_F(n, x, method).value)
            assert got == _outcome(ref_F, n, x, method), (n, x)


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
                assert (_outcome(lambda: eval_family_negative(fp, x).value)
                        == _outcome(ref_family_negative, fp, x)), (fp, x)
            for theta_pos in (theta, rng.uniform(0.1, 2.0)):
                fp = FamilyParamsPos(n, theta_pos, rng.randint(1, n))
                got = _outcome(lambda: eval_family_positive(fp, x).value)
                assert got == _outcome(ref_family_positive, fp, x), (fp, x)
            i = rng.randint(0, n)
            assert (_outcome(lambda: eval_sample_family(n, i, x).value)
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
    assert [eval_F(400, x, m).value for m in F_CLOSED] == [expected] * len(F_CLOSED)


@pytest.mark.parametrize("x", [0.375, 1.2345678901234567])
def test_G_routes_at_order_400_are_one_value(x):
    expected = ref_G(400, x, GMethod.ESTABLISHED)
    assert [eval_G(400, x, m).value for m in G_CLOSED] == [expected] * len(G_CLOSED)


def test_families_at_order_400():
    x = 0.3141592653589793
    fp = FamilyParamsNeg(400, 1.75, 0.625)
    assert eval_family_negative(fp, x).value == ref_family_negative(fp, x)
    assert eval_sample_family(400, 150, x).value == ref_sample_family(400, 150, x)


# ---------------------------------------------------------------------------
# errors that stay the same


@pytest.mark.parametrize("method", G_CLOSED, ids=lambda m: m.value)
def test_G_pole_at_minus_half(method):
    with pytest.raises(PoleError):
        eval_G(5, -0.5, method)


@pytest.mark.parametrize("x, error", [(math.nan, ValueError), (math.inf, DomainError),
                                      (-math.inf, DomainError)])
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


def test_nan_x_is_a_domain_error():
    for call in (lambda: eval_F(4, math.nan), lambda: eval_G(4, math.nan),
                 lambda: eval_sample_family(4, 1, math.nan)):
        with pytest.raises(DomainError, match="finite"):
            call()


# ---------------------------------------------------------------------------
# one rounding of (num/den) (r/q)^k


def _rounded_power(num, den, r, e, k):
    """The float of (num/den) (r/2^e)^k that ``_rounded`` returns, checked
    against its range rule; the power tests below call it."""
    result = _rounded(num, den, 7, r, e, k)
    assert result.terms_used == 7
    exact_zero = num == 0 or (r == 0 and k > 0)
    assert result.converged == (math.isfinite(result.value) and (result.value != 0 or exact_zero))
    assert result.error_estimate == (0.0 if result.converged else math.inf)
    return result.value


def test_times_power_rounds_the_fraction_power_once():
    rng = random.Random("times-power")
    bases = [-rng.uniform(0.0, 1.0) for _ in range(20)] + [-rng.uniform(1.0, 1e3) for _ in range(10)]
    for base in bases + [-1e-30, -0.5, -1.0]:
        r, q = base.as_integer_ratio()
        for k in range(-9, 10):
            assert _rounded_power(1, 1, r, q.bit_length() - 1, k) == float(Fraction(base) ** k)


def test_times_power_with_a_signed_fraction():
    rng = random.Random("times-power-fraction")
    for _ in range(200):
        num, den = rng.randint(-10**30, 10**30), rng.randint(1, 10**30)
        r, e = rng.choice([-1, 1]) * rng.randint(1, 10**20), rng.randint(0, 70)
        k = rng.randint(-12, 12)
        assert _rounded_power(num, den, r, e, k) == float(Fraction(num, den) * Fraction(r, 2**e) ** k)


# ---------------------------------------------------------------------------
# work budgets of the closed forms


@pytest.mark.parametrize("call", [
    lambda: eval_F(10**8, 0.3),
    lambda: eval_F(10**8, 0.3, FMethod.FACTORED),
    lambda: eval_G(10**8, 0.3),
    lambda: eval_F(401, 0.3, FMethod.POWER),
    lambda: eval_F(401, 0.3, FMethod.EXPANDED),
    lambda: eval_G(402, 0.3, GMethod.POWER),
    lambda: eval_F(400, 1e-300, FMethod.POWER),
    lambda: eval_family_negative(FamilyParamsNeg(10**6, 0.5, 1.5), 0.3),
    lambda: eval_family_positive(FamilyParamsPos(10**6, 0.5, 2), 0.3),
    lambda: eval_sample_family(10**6, 3, 0.3),
], ids=["F-established", "F-factored", "G-established", "F-power", "F-expanded",
        "G-power", "F-power-tiny-x", "family-neg", "family-pos", "sample-family"])
def test_work_past_the_budget_is_refused(call):
    with pytest.raises(DomainError, match="budget"):
        call()


def test_closed_forms_of_F_and_G_name_the_definitional_route():
    for call in (lambda: eval_F(10**8, 0.3), lambda: eval_G(500, 0.3, GMethod.POWER)):
        with pytest.raises(DomainError, match="--method definitional"):
            call()


def test_inputs_in_use_stay_admitted():
    assert eval_F(2000, 0.3).value == eval_F(2000, 0.3, FMethod.FACTORED).value
    assert eval_F(400, 0.3, FMethod.POWER).value == eval_F(400, 0.3, FMethod.EXPANDED).value
    assert eval_G(401, 0.3, GMethod.POWER).value == eval_G(401, 0.3).value


def test_family_positive_prefactor_is_bounded_in_theta():
    # (1 - 2x)^(-2 theta) is an exact power of 2e6 factors here; in a
    # subprocess first, as an unbudgeted power would take most of a minute
    script = ("from heunic import DomainError, FamilyParamsPos, eval_family_positive\n"
              "try:\n    eval_family_positive(FamilyParamsPos(1, 1e6, 1), -0.3)\n"
              "except DomainError as exc:\n    print(exc)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=10)
    assert "work budget" in proc.stdout
    for theta in (1e5, 1e6):
        with pytest.raises(DomainError, match="work budget"):
            eval_family_positive(FamilyParamsPos(1, theta, 1), -0.3)
    # a power within the budget is still exact: (1 - 2x)^-4 rounded once
    r = eval_family_positive(FamilyParamsPos(1, 2.0, 1), -0.3)
    assert r.value == float((1 - 2 * Fraction(-0.3)) ** -4)


def test_family_positive_admits_cheap_exact_powers():
    # (1 - 2x)^-14000 and (1 - 2x)^-40000 of 55-bit factors: 7.7e5 and 2.2e6 bits
    x = -0.00479456307094589
    for theta in (7000.0, 20000.0):
        fp = FamilyParamsPos(1, theta, 1)
        assert eval_family_positive(fp, x).value == ref_family_positive(fp, x), theta
    assert eval_family_positive(FamilyParamsPos(1, 7000.0, 1), x).value == 9.4340783960634679e-59


def test_the_power_budget_is_checked_before_the_sum(monkeypatch):
    def gauss_sum(*args):
        raise AssertionError("the Gauss sum was formed")

    monkeypatch.setattr(closed_forms, "_gauss_sum", gauss_sum)
    with pytest.raises(DomainError, match="exact power of 2008798 factors of 55 bits "
                                          "is past its work budget"):
        eval_family_positive(FamilyParamsPos(4400, 1e6, 1), -0.00479456307094589)


# ---------------------------------------------------------------------------
# the float range: a closed form past it, or a nonzero one that rounds to 0,
# is not converged, with an infinite estimate


@pytest.mark.parametrize("call,value", [
    (lambda: eval_F(2000, -0.3), math.inf),
    (lambda: eval_F(2000, -0.3, FMethod.FACTORED), math.inf),
    (lambda: eval_G(2000, -0.6), -math.inf),  # (1+2x)^(1-2n) < 0
    (lambda: eval_G(2000, -0.6, GMethod.FACTORED), -math.inf),
    (lambda: eval_family_negative(FamilyParamsNeg(2000, 0.5, 1), -0.3), math.inf),
    (lambda: eval_sample_family(2000, 0, -0.3), math.inf),
    (lambda: eval_family_positive(FamilyParamsPos(3, 400.0, 1), 0.4999), math.inf),
    (lambda: eval_family_positive(FamilyParamsPos(3, 400.3, 1), 0.4999), math.inf),
    (lambda: eval_hl_hypergeometric(2000.0, 0.9), -math.inf),
    (lambda: eval_family_positive(FamilyParamsPos(1, 800.0, 1), -0.3), 0.0),  # 2.6e-327
    (lambda: eval_family_positive(FamilyParamsPos(1, 800.3, 1), -0.3), 0.0),
], ids=["F", "F-factored", "G", "G-factored", "family-neg", "sample-family", "family-pos",
        "family-pos-float", "hl-hyp", "family-pos-underflow", "family-pos-float-underflow"])
def test_a_value_outside_the_float_range_is_not_converged(call, value):
    result = call()
    assert (result.value, result.converged, result.error_estimate) == (value, False, math.inf)


def test_a_subnormal_closed_form_is_correctly_rounded():
    fp = FamilyParamsPos(1, 759.5, 1)  # (1 - 2x)^-1519 at x = -0.3, about 8.7e-311
    result = eval_family_positive(fp, -0.3)
    assert 0.0 < result.value < sys.float_info.min
    assert (result.value, result.converged, result.error_estimate) == (
        ref_family_positive(fp, -0.3), True, 0.0)


def test_a_rounded_float_below_the_normal_range_is_not_converged():
    # 1.6^-1572.6 is about 1.0e-321, a subnormal of three digits, 8e-4 off
    # relative, where a relative estimate rounds to 0
    result = eval_family_positive(FamilyParamsPos(1, 786.3, 1), -0.3)
    assert (result.converged, result.error_estimate) == (False, math.inf)


@pytest.mark.parametrize("q,x", [(800.3, -0.3), (2000.0, 0.4999)], ids=["pfaff", "float-power"])
def test_hl_hyp_past_the_float_range_is_not_converged(q, x):
    # the Pfaff branch, x < 0, forms no power: its prefactor is 1/(1 - 2x);
    # (1 - 2x)^(1-2q) of a float base past the float range is infinite
    result = eval_hl_hypergeometric(q, x)
    assert not result.converged and not result.error_estimate < abs(result.value)


def _largest_admitted_order(x):
    """The largest G order n whose closed form, F_{n-1} at -x, the sums' budget admits."""
    lo, hi = 1, 1 << 20
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            _checked_ratio(-x, mid - 1)
            lo = mid
        except DomainError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("x", [0.3, -0.3, 1e-300, 1e3, -1.2345678901234567e-6, 2.5])
def test_no_G_order_the_sum_admits_is_refused_by_its_power(x):
    # G_n(x) = (1+2x)^(1-2n) F_{n-1}(-x): the admission of both at once
    n = _largest_admitted_order(x)
    _checked_ratio(-x, n - 1, power=1 - 2 * n)


def test_times_power_refuses_past_its_bit_budget():
    # |k| max(bits(q - 2p), bits(q) - 1) of (1 - 2x)^k, x = p/q, against
    # _POWER_BITS = 2.5e6 bits, refused before any integer of the power is formed
    cases = [(3 / 2**51, 51, 49019),  # 1 - 2x = (2^51 - 6)/2^51
             (-(2**50 + 1) / 2, 52, 48076),  # 1 - 2x = (2^51 + 4)/2: bits(r) wins
             (3 / 2**70, 70, 35714)]
    for x, bits, most in cases:
        p, q = x.as_integer_ratio()
        assert max((q - 2 * p).bit_length(), q.bit_length() - 1) == bits
        assert most * bits <= 2_500_000 < (most + 1) * bits
        for k in (most, -most, 0):
            assert _checked_ratio(x, 0, power=k) == (p, q)
        for k in (most + 1, -most - 1):
            with pytest.raises(DomainError, match=f"exact power of {most + 1} factors of "
                                                  f"{bits} bits is past its work budget"):
                _checked_ratio(x, 0, power=k)
    # the powers at the edge, rounded once
    r, e = (1 << 50) + 1, 50
    for k in (49019, -49019):
        assert _rounded_power(1, 1, r, e, k) == float(Fraction(r, 2**e) ** k)
    assert _rounded_power(1, 1, (1 << 70) - 1, 0, -35714) == float(Fraction(1, (1 << 70) - 1) ** 35714)


# ---------------------------------------------------------------------------
# the shifting kernels give the integers and floats of the multiplying ones


def ref_gauss_sum(m, b, c, z):
    total, term = Fraction(0), Fraction(1)
    for k in range(m + 1):
        total += term
        term *= (k - m) * (b + k) / ((k + 1) * (c + k)) * z
    return total


def ref_times_power(num, den, r, e, k):
    q = 2**e
    if k < 0:
        r, q, k = q, r, -k
    return num * r**k / (den * q**k)


def ref_power_coeffs(m):
    central = [math.comb(2 * i, i) for i in range(m + 1)]
    return tuple(math.comb(m, j) * sum((-1) ** i * 4 ** (m - j - i) * math.comb(m - j, i)
                                       * central[i + j] for i in range(m - j + 1))
                 for j in range(m + 1))


def ref_expanded_coeffs(m):
    outer = [math.comb(2 * j, j) * math.comb(2 * m - 2 * j, m - j) for j in range(m + 1)]
    return tuple(4**k * sum(math.comb(j, k) * outer[j] for j in range(k, m + 1))
                 for k in range(m + 1))


KERNEL_ORDERS = (*range(61), 400)


def _signed(rng, bits):
    return rng.choice([-1, 1]) * rng.getrandbits(bits)


def test_gauss_sum_matches_a_fraction_sum():
    rng = random.Random("gauss-sum")
    for order in KERNEL_ORDERS:
        for _ in range(3 if order < 400 else 1):
            # a half-integer c is never a pole c + k = 0
            b, c = (_signed(rng, 40), rng.getrandbits(30) + 1), (2 * _signed(rng, 30) + 1, 2)
            a, e = _signed(rng, 64), rng.randint(0, 120)
            num, den = _gauss_sum(order, b, c, a, e)
            ref = ref_gauss_sum(order, Fraction(*b), Fraction(*c), Fraction(a, 2**e))
            assert den > 0 and Fraction(num, den) == ref, (order, e)
    assert _gauss_sum(0, (3, 7), (-5, 2), -9, 4) == (1, 1)


def _side(rng):
    """An integer r: a positive or negative power of two, zero or any integer."""
    kind = rng.randrange(4)
    if kind == 3:
        return 0
    if kind == 0:
        return 1 << rng.randint(0, 80)
    if kind == 1:
        return -(1 << rng.randint(0, 80))
    return _signed(rng, rng.randint(1, 70)) or 3


def _in_range(func, num, den, r, e, k):
    """func's float, or the signed infinity of a value past the float range."""
    try:
        return func(num, den, r, e, k)
    except OverflowError:
        negative = (num < 0) != (r < 0 and k % 2 == 1)  # here den > 0 and num != 0
        return -math.inf if negative else math.inf


def test_times_power_matches_the_multiplying_kernel():
    rng = random.Random("times-power-kernel")
    for k in (*range(-60, 61), -400, 400):
        for _ in range(8):
            num, den = _signed(rng, rng.randint(1, 200)), rng.getrandbits(rng.randint(1, 200)) + 1
            r, e = _side(rng), rng.randint(0, 80)
            assert (_outcome(_rounded_power, num, den, r, e, k)
                    == _outcome(_in_range, ref_times_power, num, den, r, e, k)), (num, den, r, e, k)


def test_times_power_overflows_as_before():
    # past the float range the multiplying kernel raises; the closed forms'
    # rounding returns the signed infinity, not converged
    for r, e, k, inf in [((1 << 60) + 3, 0, 40, math.inf), (3, 60, -40, math.inf),
                         (-5, 60, -41, -math.inf), (7, 2, 2000, math.inf)]:
        with pytest.raises(OverflowError):
            ref_times_power(1, 1, r, e, k)
        assert _rounded(1, 1, 1, r, e, k) == EvalResult(inf, 1, False, math.inf)


@pytest.mark.parametrize("table,reference", [(_power_coeffs, ref_power_coeffs),
                                              (_expanded_coeffs, ref_expanded_coeffs)],
                         ids=["power", "expanded"])
def test_coefficient_tables_match_the_multiplying_loops(table, reference):
    for m in KERNEL_ORDERS:
        assert table(m) == reference(m), m


def _times_linear(c0, c1, poly, length):
    """The coefficients of (c0 + c1 v) poly(v), padded with zeros to ``length``."""
    padded = [*poly, *[0] * (length - len(poly))]
    return [c0 * padded[k] + c1 * (padded[k - 1] if k else 0) for k in range(length)]


# 4^m F_m(x) is P_m(s) in s = (1-2x)^2 and E_m(w) in w = x^2 - x, and
# F_m(x) = d^m L_m((1 + d^2)/(2d)) with d = 1 - 2x and L_m Legendre's
# polynomial, so both tables obey its recurrence, in (a0, a1) and (b0, b1):
# (m+1) T_{m+1}(v) = (2m+1) (a0 + a1 v) T_m(v) - m (b0 + b1 v) T_{m-1}(v)
@pytest.mark.parametrize("table,first,second,start", [
    (_power_coeffs, (2, 2), (0, 16), (2, 2)),
    (_expanded_coeffs, (4, 8), (16, 64), (4, 8)),
], ids=["power", "expanded"])
def test_coefficient_tables_satisfy_legendres_recurrence(table, first, second, start):
    assert table(0) == (1,) and table(1) == start
    for m in range(1, 119):
        lhs = [(m + 1) * c for c in table(m + 1)]
        rise = _times_linear(*first, table(m), m + 2)
        fall = _times_linear(*second, table(m - 1), m + 2)
        assert lhs == [(2 * m + 1) * u - m * d for u, d in zip(rise, fall)], m


# ---------------------------------------------------------------------------
# the identity checks give the results of the wrapper-based sums


def ref_binomial(mutation, site, upper, lower):
    if mutation is not None:
        if mutation.site == site:
            upper += mutation.delta
        elif mutation.site == site + 1:
            lower += mutation.delta
    return binomial_exact(upper, lower)


def ref_identity_A(n, k, mutation=None):
    if not 0 <= k <= n:
        raise DomainError("need 0 <= k <= n")
    if mutation is not None and not 0 <= mutation.site < len(IDENTITY_A_SITES):
        raise DomainError("unknown mutation site for identity A")
    lhs = sum(ref_binomial(mutation, 0, j, k) * ref_binomial(mutation, 2, 2 * j, j)
              * ref_binomial(mutation, 4, 2 * n - 2 * j, n - j)
              for j in range(k, n + 1))
    rhs = 4 ** (n - k) * ref_binomial(mutation, 6, n, k) * ref_binomial(mutation, 8, 2 * k, k)
    return (lhs == rhs, lhs, rhs)


def ref_identity_B(n, j, mutation=None):
    if not 0 <= j <= n:
        raise DomainError("need 0 <= j <= n")
    if mutation is not None and not 0 <= mutation.site < len(IDENTITY_B_SITES):
        raise DomainError("unknown mutation site for identity B")
    m = n - j
    lhs = sum((-1) ** i * 4 ** (m - i) * ref_binomial(mutation, 0, m, i)
              * ref_binomial(mutation, 2, 2 * i + 2 * j, i + j)
              for i in range(m + 1))
    denominator = ref_binomial(mutation, 8, n, j)
    if denominator == 0:
        return (False, Fraction(lhs, 4**m), None)
    rhs = ref_binomial(mutation, 4, 2 * j, j) * ref_binomial(mutation, 6, 2 * n - 2 * j, n - j)
    return (lhs * denominator == rhs, Fraction(lhs, 4**m), Fraction(rhs, 4**m * denominator))


def _check_outcome(check, *args):
    """The result of a check as a tuple of its fields and their types, or
    the type and message of the error it raises."""
    try:
        result = check(*args)
    except DomainError as exc:
        return DomainError, str(exc)
    return tuple(result), tuple(type(v) for v in result)


IDENTITY_PAIRS = [(n, k) for n in range(31) for k in range(n + 1)]


@pytest.mark.parametrize("check,reference", [(check_identity_A, ref_identity_A),
                                              (check_identity_B, ref_identity_B)],
                         ids=["A", "B"])
def test_unmutated_identity_checks_match_the_wrapper_sums(check, reference):
    for n, k in IDENTITY_PAIRS:
        assert _check_outcome(check, n, k) == _check_outcome(reference, n, k), (n, k)
    for n, k in [(3, 4), (3, -1)]:
        assert _check_outcome(check, n, k) == _check_outcome(reference, n, k), (n, k)


@pytest.mark.parametrize("site", range(-1, 11))
@pytest.mark.parametrize("check,reference", [(check_identity_A, ref_identity_A),
                                              (check_identity_B, ref_identity_B)],
                         ids=["A", "B"])
def test_mutated_identity_checks_match_the_wrapper_sums(check, reference, site):
    for delta in (1, -1, 2, -3):
        mutation = Mutation(site, delta)
        for n, k in IDENTITY_PAIRS:
            assert (_check_outcome(check, n, k, mutation)
                    == _check_outcome(reference, n, k, mutation)), (n, k, mutation)
