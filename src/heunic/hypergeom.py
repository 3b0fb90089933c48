"""Gauss and Clausen hypergeometric series and the Heun bridge they support.

Provides the direct 2F1 series, the unit-argument 3F2 with Richardson
extrapolation, a logarithmic closed form for 2F1(m, 1; m+2k+1; x), and the
hypergeometric-route evaluation of the Heun family
u(1/2, q; 2q, 1; 1, 1; x), which reduces to

    (1 - 2x)^(1-2q) * 2F1(1-q, 1/2; 1; 4x(1-x)).

The 2F1 series has one engine: the series kernel of ``heunic.series``,
run on Gauss's two-term recurrence.  The reduction above follows from
the closed form of the negative family continued to non-integer order
combined with the (1 - x/a)-power transformation; it reaches the Heun
function through Gauss's recurrence at another argument, not through
the four-point recurrence of the local series.  The normalizing value
at the origin of the underlying expansion is the unit-argument
3F2(1/2, q, q; q+1/2, q+1; 1), exposed through ``clausen_3f2_unit``.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .closed_forms import _checked_ratio, _horner, _rounded, pochhammer
from .errors import DivergentSeriesError, DomainError
from .series import (
    _EPS,
    DEFAULT_OPTIONS,
    EvalResult,
    SeriesOptions,
    _check_finite,
    _is_nonpositive_integer,
    _Record,
    _sum_recurrence,
)

class Gauss2F1Params(_Record, namedtuple("Gauss2F1Params", "a b c")):
    """Numerator pair (a, b) and denominator c, c not 0 or a negative integer."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float):
        self = tuple.__new__(cls, (a, b, c))
        _check_finite(self)
        if _is_nonpositive_integer(c):
            raise DomainError("c must not be zero or a negative integer")
        return self

    @property
    def terminates(self) -> bool:
        return _is_nonpositive_integer(self.a) or _is_nonpositive_integer(self.b)

    def _recurrence(self) -> tuple:
        """(k+1)(k+c) c_{k+1} = (k+a)(k+b) c_k, with no c_{k-1} term; the
        kernel forms the coefficient as its two factors, each rounded once,
        so it does not cancel where (k+a)(k+b) is small."""
        return self.a, 1.0, self.b, 0.0, 1.0, 0.0, 0.0, self.c, 0.0


class Clausen3F2Params(_Record, namedtuple("Clausen3F2Params", "a1 a2 a3 b1 b2")):
    """Numerators (a1, a2, a3) and denominators (b1, b2) of a 3F2."""

    __slots__ = ()

    def __new__(cls, a1: float, a2: float, a3: float, b1: float, b2: float):
        self = tuple.__new__(cls, (a1, a2, a3, b1, b2))
        _check_finite(self)
        if _is_nonpositive_integer(b1) or _is_nonpositive_integer(b2):
            raise DomainError("b1, b2 must not be zero or negative integers")
        return self

    @property
    def unit_excess(self) -> float:
        """b1 + b2 - a1 - a2 - a3; positive iff the series converges at 1."""
        return self.b1 + self.b2 - self.a1 - self.a2 - self.a3

    @property
    def terminates(self) -> bool:
        return any(_is_nonpositive_integer(a) for a in (self.a1, self.a2, self.a3))


def gauss_2f1(p: Gauss2F1Params, x: float,
              opts: SeriesOptions | None = None) -> EvalResult:
    """Direct series sum_j (a)_j (b)_j / ((c)_j j!) x^j, summed by the
    series kernel on the recurrence of ``Gauss2F1Params._recurrence``.

    The kernel's estimate, the larger of the last term and eps times the
    sum of absolute terms, is divided by 1 - r to bound the tail: the term
    ratio tends to x, so r = min(|x|, 0.999), and r = 0 for a terminating
    series.  The result is converged only if that bound stays below the
    value.  Requires |x| < 1 unless a or b is a nonpositive integer, in
    which case the series terminates and any x is accepted.
    """
    if abs(x) >= 1.0 and not p.terminates:
        raise DomainError("the series needs |x| < 1 unless it terminates")
    result = _sum_recurrence(p, x, opts or DEFAULT_OPTIONS, 0)[0]
    est = result.error_estimate / (1.0 - (0.0 if p.terminates else min(abs(x), 0.999)))
    return EvalResult(result.value, result.terms_used,
                      result.converged and est < abs(result.value), est)


def clausen_3f2_unit(p: Clausen3F2Params,
                     opts: SeriesOptions | None = None) -> EvalResult:
    """Unit-argument 3F2 by Richardson extrapolation of its partial sums.

    Terms decay like k^(-1-s) with s = b1+b2-a1-a2-a3, and the partial
    sum of N terms is the limit plus a series in N^-s, N^-(s+1),
    N^-(s+2), ...  The sums at N = N0 2^j, formed by ``fsum``, are
    extrapolated one known exponent at a time (Sidi, Practical
    Extrapolation Methods, 2003, ch. 1-2).  N0 = max(8, 2 ceil(P)), with
    P the largest parameter magnitude, so that the first sum already
    lies where that expansion holds.  The error estimate is the larger
    of the last two differences along the newest row of the table, with
    a floor of 4 eps times the sum of absolute terms times the factor by
    which the extrapolation can amplify rounding.  ``opts.max_terms``
    caps N; a sum cut before the table has three entries has an
    infinite estimate.  A terminating series is summed term by term, without
    extrapolation, and is converged only where its estimate, eps times
    the sum of absolute terms, stays below its value.  Raises
    DivergentSeriesError when s <= 0 and the series does not terminate.
    """
    opts = opts or DEFAULT_OPTIONS
    s = p.unit_excess
    if not p.terminates and not s > 0.0:
        raise DivergentSeriesError(
            "unit-argument series needs b1 + b2 - a1 - a2 - a3 > 0")
    a1, a2, a3, b1, b2 = params = (p.a1, p.a2, p.a3, p.b1, p.b2)
    term = 1.0
    total = 1.0
    abs_total = 1.0
    terms = [1.0]
    row: list[float] = []  # the Richardson row of the last checkpoint
    amplification = 1.0
    checkpoint = max(8, 2 * math.ceil(max(map(abs, params))))
    k = 0
    while k + 1 < opts.max_terms:
        term *= (a1 + k) * (a2 + k) * (a3 + k) / ((b1 + k) * (b2 + k) * (k + 1))
        total += term
        abs_total += abs(term)
        terms.append(term)
        k += 1
        if term == 0.0 or (abs(term) <= opts.rel_tol * abs(total) and p.terminates):
            value, est = math.fsum(terms), _EPS * abs_total
            return EvalResult(value, k + 1, est < abs(value), est)
        if k + 1 == checkpoint and not p.terminates:
            new = [math.fsum(terms)]
            for i, prev in enumerate(row):
                f = 2.0 ** (s + i)
                new.append((f * new[i] - prev) / (f - 1.0))
            if row:
                f = 2.0 ** (s + len(row) - 1)
                amplification *= (f + 1.0) / (f - 1.0)
            row = new
            checkpoint *= 2
            if len(row) >= 3:
                estimate = row[-1]
                est_err = max(abs(row[-1] - row[-2]), abs(row[-2] - row[-3]))
                floor = 4.0 * _EPS * abs_total * amplification
                if est_err <= max(opts.rel_tol * abs(estimate), floor):
                    return EvalResult(estimate, k + 1, True, max(est_err, floor))
    if len(row) >= 3:
        return EvalResult(estimate, k + 1, False, est_err)
    # too few sums to extrapolate: the last term bounds nothing
    return EvalResult(math.fsum(terms), k + 1, False, math.inf)


def eval_hl_hypergeometric(q: float, x: float,
                           opts: SeriesOptions | None = None) -> EvalResult:
    """Hypergeometric route for u(1/2, q; 2q, 1; 1, 1; x), normalized at 0.

    Evaluates (1-2x)^(1-2q) * 2F1(1-q, 1/2; 1; 4x(1-x)); the Gauss
    argument is mapped into (0, 1) by the Pfaff transformation when it
    falls below zero.  q must avoid {0, -1, ...} and {-1/2, -3/2, ...},
    and |x| < 1 with x != 1/2 (the function is singular there for
    q > 1/2 and the branch for x > 1/2 is only real when 2q is an
    integer; non-real branches are refused).
    """
    opts = opts or DEFAULT_OPTIONS
    if not math.isfinite(q):
        raise DomainError(f"q must be finite, got {q}")
    if _is_nonpositive_integer(q) or _is_nonpositive_integer(q + 0.5):
        raise DomainError("q must avoid 0, -1, ... and -1/2, -3/2, ...")
    if not abs(x) < 1.0:
        raise DomainError("the representation needs |x| < 1")
    if x == 0.5:
        raise DomainError("x = 1/2 is a singular point of the equation")
    exponent = 1.0 - 2.0 * q
    base = 1.0 - 2.0 * x
    if base < 0.0 and not float(exponent).is_integer():
        raise DomainError("no real branch beyond x = 1/2 for non-integer exponent")
    z = 4.0 * x * (1.0 - x)
    if z < 0.0:
        # Pfaff: 2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)), and here
        # c - b = 1/2 = b, so the parameter triple is unchanged; as 1 - z is
        # (1-2x)^2, the prefactor times (1-z)^(q-1) is 1/(1-2x)
        prefactor, z = 1.0 / base, z / (z - 1.0)
    elif base > 0.0:
        try:
            prefactor = base**exponent
        except OverflowError:
            prefactor = math.inf
    else:  # an exact power of |exponent| factors, under the closed forms' budget
        p, d = _checked_ratio(x, 0, power=int(exponent))  # 1 - 2x = (d - 2p)/d
        prefactor = _rounded(1, 1, 0, d - 2 * p, d.bit_length() - 1, int(exponent)).value
    inner = gauss_2f1(Gauss2F1Params(1.0 - q, 0.5, 1.0), z, opts)
    value = prefactor * inner.value
    if not 2.0**-1022 <= abs(value) < math.inf:  # past the float range or below its normal range
        return EvalResult(value, inner.terms_used, False, math.inf)
    return EvalResult(value, inner.terms_used, inner.converged,
                      abs(prefactor) * inner.error_estimate)


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number, 0 for n = 0 by the empty-sum convention."""
    from fractions import Fraction

    if n < 0:
        raise DomainError("harmonic index must be nonnegative")
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def coefficient_a(j: int, k: int) -> Fraction:
    """Exact rational coefficient

    a_{jk} = (1/(2k)!) ( sum_{i=0}^{j-1} C(2k,i) (-1)^i/(j-i)
                         + (-1)^j C(2k,j) e_{2k} )

    appearing in the logarithmic closed form of 2F1(m, 1; m+2k+1; x).
    """
    from fractions import Fraction

    if j < 0 or k < 0:
        raise DomainError("indices must be nonnegative")
    total = sum((Fraction(math.comb(2 * k, i) * (-1) ** i, j - i)
                 for i in range(j)), Fraction(0))
    total += (-1) ** j * math.comb(2 * k, j) * harmonic(2 * k)
    return total / math.factorial(2 * k)


@functools.lru_cache(maxsize=64)
def _closed_form_rational(m: int, k: int) -> tuple[tuple[int, ...], int]:
    """Integer coefficients and common denominator of the rational part of
    the bracket in ``gauss_2f1_closed``, a polynomial in x.

    The e_{2k} part of each a_{jk} cancels the x^j term of
    (1-x)^{2k} e_{2k}/(2k)!, leaving -(1/(2k)!) sum_{i<j} C(2k,i) (-1)^i/(j-i)
    for j <= 2k.
    """
    fact2k = math.factorial(2 * k)
    tail = [pochhammer(i + 1, 2 * k + 1) for i in range(m - 1)]
    den = math.lcm(fact2k * math.lcm(*range(1, 2 * k + 1)), *tail)
    head = [-sum((-1) ** i * math.comb(2 * k, i) * (den // (fact2k * (j - i)))
                 for i in range(j))
            for j in range(2 * k + 1)]
    return tuple(head + [-(den // t) for t in tail]), den


def gauss_2f1_closed(m: int, k: int, x: float) -> float:
    """Logarithmic closed form of 2F1(m, 1; m+2k+1; x) for 0.1 <= x < 1.

    Evaluates

        (m)_{2k+1} x^{-m-2k} ( (1-x)^{2k}/(2k)! (e_{2k} - log(1-x))
                               - sum_{j=0}^{2k} a_{jk} x^j
                               - sum_{i=0}^{m-2} x^{i+2k+1}/((i+1)_{2k+1}) ).

    The bracket is a difference of nearly equal quantities: it shrinks
    like x^{m+2k} while its pieces stay O(1), so the rational part is
    kept exact, as an integer polynomial in x = p/q over a common
    denominator, and the logarithm is taken with enough working digits
    to survive the cancellation.  Below x = 0.1 the cancellation outgrows
    any reasonable working precision budget for large m + 2k and the
    direct series must be used instead, so the closed form refuses.
    """
    from decimal import Decimal, localcontext

    if m < 1 or k < 0:
        raise DomainError("need m >= 1 and k >= 0")
    if not 0.1 <= x < 1.0:
        raise DomainError("closed form is restricted to 0.1 <= x < 1")
    p, q = x.as_integer_ratio()
    coeffs, den = _closed_form_rational(m, k)
    num, scale = _horner(coeffs, p, q.bit_length() - 1)
    digits = 40 + math.ceil((m + 2 * k + 1) * math.log10(1.0 / x)) + 2 * k
    # decimal contexts are thread-local, so concurrent callers need no lock
    with localcontext() as ctx:
        ctx.prec = digits
        log_term = (1 - Decimal(x)).ln()
        bracket = (Decimal(num) / (den * scale)
                   - Decimal((q - p) ** (2 * k)) / (q ** (2 * k) * math.factorial(2 * k))
                   * log_term)
        x_power = Decimal(q ** (m + 2 * k)) / p ** (m + 2 * k)
        return float(pochhammer(m, 2 * k + 1) * bracket * x_power)
