"""Indices of coincidence of three classical families and their entropies.

For the two-outcome sampling family with n trials at parameter x, the
waiting-time family, and the rate-n*x counting family, the index of
coincidence (the probability that two independent draws agree) is

    F_n(x) = sum_{k=0}^{n}   ( C(n,k) x^k (1-x)^{n-k} )^2,
    G_n(x) = sum_{k>=0}      ( C(n+k-1,k) x^k (1+x)^{-n-k} )^2,
    K_n(x) = sum_{k>=0}      ( e^{-nx} (nx)^k / k! )^2.

F and G additionally have several closed forms, each implemented as an
independent evaluation route so they can be cross-validated:

    F factored     sum_k C(n,k) C(2k,k) (x^2-x)^k
    F power        sum_j (1-2x)^{2j} 4^{-j} C(n,j)
                       sum_i (-1/4)^i C(n-j,i) C(2i+2j,i+j)
    F established  sum_j (1-2x)^{2j} 4^{-n} C(2j,j) C(2n-2j,n-j)
    F expanded     sum_k (x^2-x)^k 4^{k-n} sum_{j=k}^n C(j,k) C(2j,j) C(2n-2j,n-j)

    G factored     (1+2x)^{1-2n} sum_k C(n-1,k) C(2k,k) (x^2+x)^k
    G power        sum_j (1+2x)^{2j-2n+1} 4^{-j} C(n-1,j)
                       sum_i (-1/4)^i C(n-j-1,i) C(2i+2j,i+j)
    G established  sum_j (1+2x)^{2j-2n+1} 4^{1-n} C(2n-2j-2,n-j-1) C(2j,j)

F factored is the negative family of ``closed_forms`` at theta = 1/2,
gamma = 1, F established its sample family at i = 0, and each closed form
of G is G_n(x) = (1+2x)^{1-2n} F_{n-1}(-x), since (-x)^2 - (-x) = x^2 + x
and (1 - 2(-x))^2 = (1+2x)^2.  With x = p/q, each closed form is one
integer numerator over one integer denominator, formed by the exact
integer kernel of ``closed_forms`` and rounded once.  K_n and its
derivatives are also available through the integral representation

    K_n^(j)(x) = (2/pi) 4^j (-n)^j Int_0^{pi/2} (sin t)^{2j} e^{-4nx sin^2 t} dt,

whose x = 0 value (-n)^j C(2j,j) pins down the normalization of the
related confluent solutions.  Its integrand is analytic with period pi,
so one equispaced trapezoidal rule, doubled until two rules agree,
evaluates K, K^(j) and that confluent family alike.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum

from .closed_forms import _checked_ratio, _gauss_sum, _horner, _rounded, _sample_sum
from .errors import DomainError, PoleError
from .series import _EPS, _LN2, DEFAULT_OPTIONS, EvalResult, SeriesOptions


class FMethod(Enum):
    DEFINITIONAL = "definitional"
    FACTORED = "factored"
    POWER = "power"
    ESTABLISHED = "established"
    EXPANDED = "expanded"


class GMethod(Enum):
    DEFINITIONAL = "definitional"
    FACTORED = "factored"
    POWER = "power"
    ESTABLISHED = "established"


class EntropyKind(Enum):
    RENYI = "renyi"
    TSALLIS = "tsallis"


def _require_order(n: int, integer: bool = True) -> None:
    """Refuse an order n below 1, beyond the float range, or not an int
    where the route sums over it; the quadrature takes any real n."""
    if n < 1 or (integer and not isinstance(n, int)):
        raise DomainError("n must be a positive integer")
    try:
        float(n)
    except OverflowError:
        raise DomainError("n is too large for a float") from None


# ---------------------------------------------------------------------------
# The closed forms of F_m.  Those of G_{m+1} are the same sums at -x.
# Coefficient tables are cached per order.


@functools.lru_cache(maxsize=32)
def _power_coeffs(m: int) -> tuple[int, ...]:
    """C(m,j) 4^(m-j) sum_i (-1/4)^i C(m-j,i) C(2i+2j,i+j), for j = 0..m.

    Scaled by 4^(m-j), the quarter sum is (-1)^r times the r-th forward
    difference, r = m - j, of b_k = C(2k,k) 4^(m-k) at k = j: the last
    entry of b differenced r times.  m passes of list subtraction give
    every j.
    """
    diffs = [math.comb(2 * k, k) << 2 * (m - k) for k in range(m + 1)]
    coeffs = []  # for j = m, m-1, ..., 0
    for r in range(m + 1):
        coeffs.append(math.comb(m, r) * (-diffs[-1] if r & 1 else diffs[-1]))
        diffs = list(map(operator.sub, diffs[1:], diffs))
    return tuple(reversed(coeffs))


@functools.lru_cache(maxsize=32)
def _expanded_coeffs(m: int) -> tuple[int, ...]:
    """4^k sum_{j=k}^{m} C(j,k) C(2j,j) C(2m-2j,m-j), for k = 0..m.

    The sums over j are the Taylor shift by one of sum_j o_j t^j, with
    o_j = C(2j,j) C(2m-2j,m-j): m passes of suffix sums, each fixing one
    more sum, run as prefix sums of o reversed, which is o itself.
    """
    sums = [math.comb(2 * j, j) * math.comb(2 * m - 2 * j, m - j) for j in range(m + 1)]
    for n in range(m + 1, 1, -1):
        sums[:n] = itertools.accumulate(sums[:n])
    return tuple(s << 2 * k for k, s in enumerate(reversed(sums)))


def _closed_form(m: int, x: float, method: FMethod, k: int = 0) -> EvalResult:
    """F_m(x) (1-2x)^k, F_m by one of its four closed forms, rounded once."""
    table = method in (FMethod.POWER, FMethod.EXPANDED)
    p, q = _checked_ratio(x, m, power=k, table=table, remedy="; use --method definitional")
    w, s = p * (p - q), (q - 2 * p) ** 2  # x^2 - x and (1-2x)^2, over q^2
    e = 2 * q.bit_length() - 2  # q^2 = 2^e
    if method is FMethod.FACTORED:  # the negative family at theta = 1/2, gamma = 1
        num, den = _gauss_sum(m, (1, 2), (1, 1), -4 * w, e)  # 2F1(-m, 1/2; 1; 4x(1-x))
    elif method is FMethod.ESTABLISHED:  # the sample family at i = 0
        num, den = _sample_sum(0, m, s, e)
    elif method is FMethod.POWER:
        num, den = _horner(_power_coeffs(m), s, e)
    elif method is FMethod.EXPANDED:
        num, den = _horner(_expanded_coeffs(m), w, e)
    else:
        raise DomainError(f"unknown F method {method!r}")
    if table:
        den <<= 2 * m  # the tables are scaled by 4^m
    return _rounded(num, den, m + 1, q - 2 * p, e // 2, k)


# ---------------------------------------------------------------------------
# The defining sums of F, G and K, summed outward from the mode


_MODE_BITS = 128


def _power_top(base: int, exp: int) -> tuple[int, int]:
    """(a, s) with base^exp = a 2^s to about 2^-62: binary powering that keeps the
    top _MODE_BITS bits, and one per bit of exp past 64, of the running power."""
    keep = _MODE_BITS + max(0, exp.bit_length() - 64)  # each truncation is raised to ~exp
    result, shift = 1, 0
    for bit in bin(exp)[2:]:
        result *= result
        shift *= 2
        if bit == "1":
            result *= base
        drop = result.bit_length() - keep
        if drop > 0:
            result >>= drop
            shift += drop
    return result, shift


_STIRLING_FROM = 20


def _require_count(count: float) -> None:
    """Refuse a mode, or the N of C(N,k), past 1e154: Stirling's series squares it."""
    if not count <= 1e154:
        raise DomainError("the mode weight is past the float range of Stirling's series")


def _stirling_remainder(m: int) -> float:
    """r(m) = ln m! - (m + 1/2) ln m + m - ln(2 pi)/2 for m >= 20, from
    Stirling's series (DLMF 5.11.1), five terms, truncation below 1e-17."""
    z = 1.0 / (m * m)
    return (1 / 12 - z * (1 / 360 - z * (1 / 1260 - z * (1 / 1680 - z / 1188)))) / m


def _binomial_mode_weight(big: int, k: int, p: int, q: int) -> float:
    """C(N,k) x^k (1-x)^(N-k) at x = p/q, for k within one of N x.

    With k and N - k both from 20 on, Stirling's series gives it as
    exp(k ln(Nx/k) + (N-k) ln(N(1-x)/(N-k)) + r(N) - r(k) - r(N-k))
    sqrt(N/(2 pi k (N-k))), where Nx - k = (Np - kq)/q is formed exactly
    and the two logarithms, each about Nx - k, stay O(1): nothing of size
    N cancels, and no integer of N digits is formed.  Otherwise C(N,k)
    is small, and the weight is rounded once from truncated powers.
    """
    rest = big - k
    if min(k, rest) < _STIRLING_FROM:
        (a, sa), (b, sb), (c, sc) = _power_top(p, k), _power_top(q - p, rest), _power_top(q, big)
        top, shift = math.comb(big, k) * a * b, sa + sb - sc
        return top / (c << -shift) if shift < 0 else (top << shift) / c
    _require_count(big)
    d = big * p - k * q
    exponent = (k * math.log1p(d / (k * q)) + rest * math.log1p(-d / (rest * q))
                + _stirling_remainder(big) - _stirling_remainder(k) - _stirling_remainder(rest))
    return math.exp(exponent) * math.sqrt(big / (2.0 * math.pi * k * rest))


def _mode_sum(top: float, m: int, u0: float, u1: float, rho: float,
              tol: float, budget: int) -> EvalResult:
    """Sum of the squared weights t_k = w_k^2 of a log-concave family,
    from the mode term t_m = ``top`` outward.

    Consecutive weights have the ratio w_{k+1}/w_k = rho (u0 + u1 k)/(k+1),
    which decreases in k, so the terms fall off on both sides of the mode
    faster than geometrically.  Each side stops at its first term below
    ``tol`` times the running total, and its tail is bounded by that term
    over one minus the last ratio; a walk that reaches k = 0, or a zero of
    u0 + u1 k, ends with a zero term.  A walk cut at ``budget`` terms
    returns its partial sum, not converged, its last term the estimate.
    The terms are added by ``fsum``; a term d steps from the mode carries
    at most about 3d roundings from the walk, which the error estimate
    bounds by 4 eps d t_k, besides 10 eps of the whole for the mode term
    and the sum; a sum whose estimate is not below it is not converged.
    """
    terms = [top]
    total = top
    moment = 0.0  # sum of d t_k over the walked terms, d steps from the mode
    tail = 0.0
    # per side: the ratio t_{k+step}/t_k is (c num/den)^2, and num and den
    # move by dnum and dden with each step
    sides = [(rho, u0 + u1 * m, m + 1.0, u1, 1.0)]
    if m > 0:
        sides.insert(0, (1.0 / rho, float(m), u0 + u1 * (m - 1), -1.0, -u1))
    for c, num, den, dnum, dden in sides:
        t, d = top, 0.0
        for _ in range(budget - len(terms)):
            w = c * num / den
            t *= w * w
            if t <= tol * total:
                tail += t / (1.0 - w * w) if w * w < 1.0 else math.inf
                break
            terms.append(t)
            total += t
            num += dnum
            den += dden
            d += 1.0
            moment += d * t
        else:
            return EvalResult(math.fsum(terms), len(terms), False, t)
    value = math.fsum(terms)
    est = tail + _EPS * (4.0 * moment + 10.0 * value)
    return EvalResult(value, len(terms), est < abs(value), est)


# ---------------------------------------------------------------------------
# F_n routes


def eval_F(n: int, x: float, method: FMethod = FMethod.ESTABLISHED,
           opts: SeriesOptions | None = None) -> EvalResult:
    """Index of coincidence F_n(x) by the selected route.

    The closed forms accept any real x: each is an exact sum of n + 1
    terms, rounded once.  The definitional route needs 0 <= x <= 1, and
    n <= 1e154 where its mode weight takes Stirling's series; it sums the
    defining sum from its mode to eps, at most ``opts.max_terms`` terms,
    past which the result is not converged.
    """
    _require_order(n)
    if method is not FMethod.DEFINITIONAL:
        return _closed_form(n, x, method)
    if not 0.0 <= x <= 1.0:
        raise DomainError("the defining sum for F needs 0 <= x <= 1")
    opts = opts or DEFAULT_OPTIONS
    # the weights at 1 - x are those at x reversed; 1 - x is exact here
    p, q = (1.0 - x if x > 0.5 else x).as_integer_ratio()
    m = (n + 1) * p // q  # the mode of C(n,k) x^k (1-x)^(n-k)
    weight = _binomial_mode_weight(n, m, p, q)
    # the walk ends by itself at k = 0 and at k = n
    return _mode_sum(weight * weight, m, float(n), -1.0, p / (q - p), _EPS, opts.max_terms)


# ---------------------------------------------------------------------------
# G_n routes


def eval_G(n: int, x: float, method: GMethod = GMethod.ESTABLISHED,
           opts: SeriesOptions | None = None) -> EvalResult:
    """Index of coincidence G_n(x) by the selected route.

    The definitional route sums outward from the mode of the weights and
    folds a geometric tail bound into the error estimate; it walks at
    most ``opts.max_terms`` terms, past which the result is its partial
    sum, not converged, and refuses a mode weight past 1e154.  Closed
    forms are exact finite sums (x != -1/2).
    """
    _require_order(n)
    if method is not GMethod.DEFINITIONAL:
        if x == -0.5:
            raise PoleError("x = -1/2 is a pole of the closed forms for G")
        if not isinstance(method, GMethod):
            raise DomainError(f"unknown G method {method!r}")
        # G_n(x) = (1+2x)^(1-2n) F_{n-1}(-x), and 1 + 2x = 1 - 2(-x)
        return _closed_form(n - 1, -x, FMethod(method.value), 1 - 2 * n)
    if not x >= 0.0:
        raise DomainError("the defining sum for G needs x >= 0")
    _require_count((n - 1) * x)  # about the mode m; inf or NaN at x = inf
    opts = opts or DEFAULT_OPTIONS
    p, q = x.as_integer_ratio()
    m = (n - 1) * p // q  # the mode of C(n+k-1,k) t^k (1-t)^n, t = x/(1+x)
    weight = _binomial_mode_weight(n + m - 1, m, p, p + q) * (q / (p + q))
    return _mode_sum(weight * weight, m, float(n), 1.0, p / (p + q),
                     opts.rel_tol, opts.max_terms)


# ---------------------------------------------------------------------------
# K_n and its derivatives


def _poisson_mode_weight(m: int, frac: float) -> float:
    """e^(-lam) lam^m / m! at lam = m + frac, 0 <= frac < 1.

    From m = 20 on, Stirling's series gives it as
    exp(m ln(1 + frac/m) - frac - r(m)) / sqrt(2 pi m), whose exponent
    stays O(1): nothing of size lam cancels, as it would between two
    lgamma values.
    """
    if m < _STIRLING_FROM:
        lam = m + frac
        return math.exp(-lam) * lam**m / math.factorial(m)
    return (math.exp(m * math.log1p(frac / m) - frac - _stirling_remainder(m))
            / math.sqrt(2.0 * math.pi * m))


def eval_K(n: int, x: float, opts: SeriesOptions | None = None) -> EvalResult:
    """Index of coincidence K_n(x) by summing the defining sum from its mode.

    The mode weight of lam = nx <= 1e154 comes from Stirling's series; the
    sum walks outward from it to ``opts.rel_tol``, at most
    ``opts.max_terms`` terms, past which it is a partial sum, not converged.
    """
    _require_order(n)
    if not x >= 0.0:
        raise DomainError("the defining sum for K needs x >= 0")
    opts = opts or DEFAULT_OPTIONS
    lam = n * x
    _require_count(lam)
    p, q = x.as_integer_ratio()
    m = n * p // q  # the mode, floor(lam)
    weight = _poisson_mode_weight(m, (n * p - m * q) / q)
    return _mode_sum(weight * weight, m, lam, 0.0, 1.0, opts.rel_tol, opts.max_terms)


# The finest trapezoidal rule; 2^20 nodes take a few tenths of a second
_MAX_NODES = 1 << 20


def _trapezoid_sum(a: float, j: int, m: int, nodes: int, step: int) -> float:
    """Sum of (2^m s)^j e^(-a s) at s = sin^2(i pi/nodes), i = 1, 1 + step, ... < nodes/2.

    For j > 0 each term is formed as (2^m s e^(-a s/j))^j, whose base is at
    most 1 for the m of ``_k_mean``: neither factor over- or underflows
    alone.  The nodes from one step past a s = cut on are skipped: there
    the term, at most 2^(m j) e^(-a s), is 0.
    """
    h = math.pi / nodes
    stop = nodes // 2
    cut = 746.0 + j * max(m, 0) * _LN2
    if a > cut:
        stop = min(stop, int(math.asin(math.sqrt(cut / a)) / h) + 2)
    points = [math.sin(h * i) ** 2 for i in range(1, stop, step)]
    if j == 0:
        return math.fsum(math.exp(-a * s) for s in points)
    c, b = 2.0**m, a / j
    return math.fsum((c * s * math.exp(-b * s)) ** j for s in points)


def _k_mean(a: float, j: int) -> tuple[int, EvalResult]:
    """(m, r) with r the mean of (2^m s)^j e^(-a s), s = sin^2 t, over one
    period: (2/pi) 4^j Int_0^{pi/2} (sin t)^{2j} e^{-a sin^2 t} dt is
    2^((2 - m) j) r.value.

    m puts the largest value of the integrand, at s = min(1, j/a), in
    (2^-j, 1], so the mean neither over- nor underflows where 4^j times it
    does; m = 0 for j = 0.  The integrand is analytic with period pi, so
    the equispaced trapezoidal rule converges exponentially (Trefethen &
    Weideman, SIAM Rev. 56, 2014).  t and pi - t share s: only t <= pi/2
    is evaluated, where t is formed next to the peak at t = 0.  The rule
    starts at the power of two of nodes from 4 sqrt(a + j), which resolves
    the peak of width 1/sqrt(a), and doubles, reusing every node, until two
    means agree to (j + 4) eps of the value; their difference plus that
    floor is the estimate.  Means that still differ at the cap of
    _MAX_NODES nodes, or whose estimate is not below them, are not
    converged; a mean of 0 missed the peak, and its estimate is infinite.
    """
    m = math.frexp(math.e * a / j if a >= j else math.exp(a / j))[1] - 1 if j else 0
    width = 4.0 * math.sqrt(a + j)
    nodes = 8
    while nodes < width and nodes < _MAX_NODES // 2:
        nodes *= 2
    # the ends t = 0 and pi/2; s = 0 is given directly, so that a = inf is no 0 * inf
    total = ((1.0 if j == 0 else 0.0) + math.exp(j * m * _LN2 - a)
             + 2.0 * _trapezoid_sum(a, j, m, nodes, 1))
    while True:
        coarse = total / nodes
        nodes *= 2
        total += 2.0 * _trapezoid_sum(a, j, m, nodes, 2)
        mean = total / nodes
        diff, floor = abs(mean - coarse), (j + 4) * _EPS * mean
        if diff <= floor or nodes == _MAX_NODES:
            break
    est = diff + floor if mean else math.inf
    return m, EvalResult(mean, nodes, diff <= floor and est < mean, est)


def _check_quadrature(n: int, j: int, x: float) -> None:
    _require_order(n, integer=False)
    if j < 0:
        raise DomainError("derivative order j must be nonnegative")
    if not x >= 0.0:
        raise DomainError("the integral representation needs x >= 0")


def eval_K_derivative(n: int, j: int, x: float) -> EvalResult:
    """j-th derivative of K_n at x >= 0 via the integral representation.

    K_n^(j)(x) is (-n)^j 4^j times the mean of ``_k_mean``, formed as
    (-n 2^(2 - m))^j times its scaled mean: (-n)^j alone overflows where
    the product does not.  At x = 0 the value is (-n)^j C(2j,j).  A value
    near the underflow has lost digits: it is not converged, with an
    infinite estimate.
    """
    _check_quadrature(n, j, x)
    m, result = _k_mean(4.0 * n * x, j)
    factor = (-float(n) * 2.0 ** (2 - m)) ** j
    value = factor * result.value
    if not abs(value) >= 2.0**-970:
        return EvalResult(value, result.terms_used, False, math.inf)
    return EvalResult(value, result.terms_used, result.converged,
                      abs(factor) * result.error_estimate)


def k_derivative_quadrature(n: int, j: int, x: float) -> tuple[float, float]:
    """``eval_K_derivative`` as (value, error_estimate)."""
    result = eval_K_derivative(n, j, x)
    return result.value, result.error_estimate


def eval_HC_family(n: int, j: int, x: float) -> EvalResult:
    """Confluent solution with parameters (n, j+1, 0, j+1/2, 2n(2j+1)) at x.

    Computed as K_n^(j)(x) normalized by its x = 0 value (-n)^j C(2j,j);
    the sign factors cancel, leaving a positive integral.
    """
    _check_quadrature(n, j, x)
    m, result = _k_mean(4.0 * n * x, j)
    shift, central = (2 - m) * j, math.comb(2 * j, j)
    return EvalResult(math.ldexp(result.value, shift) / central, result.terms_used,
                      result.converged, math.ldexp(result.error_estimate, shift) / central)


# ---------------------------------------------------------------------------
# Entropies of order 2


def entropy(s: float, kind: EntropyKind) -> float:
    """Order-2 entropy of an index-of-coincidence value s.

    renyi -> -log(s) (requires s > 0); tsallis -> 1 - s.
    """
    if kind is EntropyKind.RENYI:
        if s <= 0.0:
            raise DomainError("the logarithmic entropy needs s > 0")
        return -math.log(s)
    if kind is EntropyKind.TSALLIS:
        return 1.0 - s
    raise DomainError(f"unknown entropy kind {kind!r}")
