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
related confluent solutions.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

from .closed_forms import _checked_ratio, _family_sum, _horner, _sample_sum, _times_power
from .errors import DomainError, PoleError
from .series import _EPS, DEFAULT_OPTIONS, EvalResult, SeriesOptions


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


def _require_order(n: int) -> None:
    if n < 1:
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

    The alternating quarter sum is scaled by 4^(m-j) to an integer.
    """
    central = [math.comb(2 * i, i) for i in range(m + 1)]
    return tuple(math.comb(m, j) * sum((-1) ** i * 4 ** (m - j - i) * math.comb(m - j, i)
                                       * central[i + j] for i in range(m - j + 1))
                 for j in range(m + 1))


@functools.lru_cache(maxsize=32)
def _expanded_coeffs(m: int) -> tuple[int, ...]:
    """4^k sum_{j=k}^{m} C(j,k) C(2j,j) C(2m-2j,m-j), for k = 0..m."""
    outer = [math.comb(2 * j, j) * math.comb(2 * m - 2 * j, m - j) for j in range(m + 1)]
    return tuple(4**k * sum(math.comb(j, k) * outer[j] for j in range(k, m + 1))
                 for k in range(m + 1))


def _closed_form(m: int, x: float, method: FMethod) -> tuple[int, int]:
    """F_m(x) by one of its four closed forms, as (numerator, denominator)."""
    p, q = _checked_ratio(x, m, table=method in (FMethod.POWER, FMethod.EXPANDED),
                          remedy="; use --method definitional")
    w, s = p * (p - q), (q - 2 * p) ** 2  # x^2 - x and (1-2x)^2, over q^2
    e = 2 * q.bit_length() - 2  # q^2 = 2^e
    if method is FMethod.FACTORED:  # the negative family at theta = 1/2, gamma = 1
        return _family_sum(m, (1, 2), (1, 1), w, e)
    if method is FMethod.ESTABLISHED:  # the sample family at i = 0
        return _sample_sum(0, m, s, e)
    if method is FMethod.POWER:
        num, den = _horner(_power_coeffs(m), s, e)
    elif method is FMethod.EXPANDED:
        num, den = _horner(_expanded_coeffs(m), w, e)
    else:
        raise DomainError(f"unknown F method {method!r}")
    return num, 4**m * den


# ---------------------------------------------------------------------------
# The defining sums of F, G and K, summed outward from the mode


_MODE_BITS = 128


def _power_top(base: int, exp: int) -> tuple[int, int]:
    """(a, s) with base^exp = a 2^s to about 120 bits: binary powering
    that keeps the top _MODE_BITS bits of the running power."""
    result, shift = 1, 0
    for bit in bin(exp)[2:]:
        result *= result
        shift *= 2
        if bit == "1":
            result *= base
        drop = result.bit_length() - _MODE_BITS
        if drop > 0:
            result >>= drop
            shift += drop
    return result, shift


_STIRLING_FROM = 20


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
    is small, and the weight is rounded once from 120-bit powers.
    """
    rest = big - k
    if min(k, rest) < _STIRLING_FROM:
        (a, sa), (b, sb), (c, sc) = _power_top(p, k), _power_top(q - p, rest), _power_top(q, big)
        top, shift = math.comb(big, k) * a * b, sa + sb - sc
        return top / (c << -shift) if shift < 0 else (top << shift) / c
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
    u0 + u1 k, ends with a zero term.  At most ``budget`` terms are summed,
    else the result is not converged.  The terms are added by ``fsum``; a
    term d steps from the mode carries at most about 3d roundings from
    the walk, which the error estimate bounds by 4 eps d t_k, besides
    10 eps of the whole for the mode term and the sum.
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
    return EvalResult(value, len(terms), True,
                      tail + _EPS * (4.0 * moment + 10.0 * value))


# ---------------------------------------------------------------------------
# F_n routes


def _f_definitional(n: int, x: float) -> EvalResult:
    _require_order(n)
    if not 0.0 <= x <= 1.0:
        raise DomainError("the defining sum for F needs 0 <= x <= 1")
    # the weights at 1 - x are those at x reversed; 1 - x is exact here
    p, q = (1.0 - x if x > 0.5 else x).as_integer_ratio()
    m = (n + 1) * p // q  # the mode of C(n,k) x^k (1-x)^(n-k)
    weight = _binomial_mode_weight(n, m, p, q)
    # n + 1 terms at most: the walk ends by itself at k = 0 and at k = n
    return _mode_sum(weight * weight, m, float(n), -1.0, p / (q - p),
                     _EPS, n + 2)


def eval_F(n: int, x: float, method: FMethod = FMethod.ESTABLISHED) -> float:
    """Index of coincidence F_n(x) by the selected route.

    The definitional route requires 0 <= x <= 1; the closed forms accept
    any real x.
    """
    if method is FMethod.DEFINITIONAL:
        return _f_definitional(n, x).value
    _require_order(n)
    num, den = _closed_form(n, x, method)
    return num / den


# ---------------------------------------------------------------------------
# G_n routes


def _cannot_converge(variance: float, opts: SeriesOptions) -> bool:
    """True when the terms spread over more than ``opts.max_terms`` indices."""
    return not variance <= float(opts.max_terms) ** 2


def _g_definitional(n: int, x: float, opts: SeriesOptions) -> EvalResult:
    if x < 0.0:
        raise DomainError("the defining sum for G needs x >= 0")
    if _cannot_converge(n * x * (1.0 + x), opts):
        return EvalResult(math.nan, 0, False, math.inf)
    p, q = x.as_integer_ratio()
    m = (n - 1) * p // q  # the mode of C(n+k-1,k) t^k (1-t)^n, t = x/(1+x)
    weight = _binomial_mode_weight(n + m - 1, m, p, p + q) * (q / (p + q))
    return _mode_sum(weight * weight, m, float(n), 1.0, p / (p + q),
                     opts.rel_tol, opts.max_terms)


def eval_G(n: int, x: float, method: GMethod = GMethod.ESTABLISHED,
           opts: SeriesOptions | None = None) -> EvalResult:
    """Index of coincidence G_n(x) by the selected route.

    The definitional route sums outward from the mode of the weights and
    folds a geometric tail bound into the error estimate; where the
    weights spread over more than ``opts.max_terms`` indices it returns
    NaN, not converged, without summing.  Closed forms are exact finite
    sums (x != -1/2).
    """
    _require_order(n)
    opts = opts or DEFAULT_OPTIONS
    if method is GMethod.DEFINITIONAL:
        return _g_definitional(n, x, opts)
    if x == -0.5:
        raise PoleError("x = -1/2 is a pole of the closed forms for G")
    if not isinstance(method, GMethod):
        raise DomainError(f"unknown G method {method!r}")
    num, den = _closed_form(n - 1, -x, FMethod(method.value))
    # G_n(x) = (1+2x)^(1-2n) F_{n-1}(-x), and (1+2x)^(1-2n) = (q/r)^(2n-1)
    p, q = x.as_integer_ratio()
    return EvalResult(_times_power(num, den, q, q + 2 * p, 2 * n - 1), n, True, 0.0)


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

    The mode weight of lam = nx comes from Stirling's series, and the sum
    walks outward from it.  At most max(51, ceil(4 lam) + 41) terms are
    summed, far past the mode, where the squared weights decay faster
    than geometrically; a sum cut off there, or at ``opts.max_terms``,
    before its terms fall below ``opts.rel_tol`` is reported as not
    converged.  Where the weights spread over more than ``opts.max_terms``
    indices the result is NaN, not converged.
    """
    _require_order(n)
    if x < 0.0:
        raise DomainError("the defining sum for K needs x >= 0")
    opts = opts or DEFAULT_OPTIONS
    lam = n * x
    if _cannot_converge(lam, opts):
        return EvalResult(math.nan, 0, False, math.inf)
    p, q = x.as_integer_ratio()
    m = n * p // q  # the mode, floor(lam)
    weight = _poisson_mode_weight(m, (n * p - m * q) / q)
    budget = min(opts.max_terms, max(50, math.ceil(4 * lam) + 40) + 1)
    return _mode_sum(weight * weight, m, lam, 0.0, 1.0, opts.rel_tol, budget)


def _legendre_near_one(n: int, u: float) -> tuple[float, float]:
    """(P_n(x), P_{n-1}(x)) at x = 1 - u.

    The three-term recurrence is run on the differences P_k - P_{k-1},
    which keeps the rounding error small near x = 1 and lets u carry the
    node's distance from the end point to full relative precision.
    """
    p, d = 1.0, -u
    for k in range(1, n):
        p += d
        d = (k * d - (2 * k + 1) * u * p) / (k + 1)
    return p + d, p


_FIXED_BITS = 128


def _legendre_weight(n: int, u: float) -> float:
    """Gauss-Legendre weight 2 / ((1 - x^2) P_n'(x)^2) at the node x = 1 - u.

    P_n' = n (P_{n-1} - x P_n) / (1 - x^2) is formed in 128-bit fixed
    point at the float node exactly; in double precision the recurrence's
    rounding would cost about 4e-14 of the weight.
    """
    one = 1 << _FIXED_BITS
    num, den = u.as_integer_ratio()
    x = one - (num << _FIXED_BITS) // den
    p0, p1 = one, x
    for k in range(1, n):
        p0, p1 = p1, (((2 * k + 1) * x * p1 >> _FIXED_BITS) - k * p0) // (k + 1)
    slope = (p0 - (x * p1 >> _FIXED_BITS)) / one
    return 2.0 * u * (2.0 - u) / (n * slope) ** 2


@functools.lru_cache(maxsize=8)
def _gauss_legendre_quarter(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre rule mapped onto [0, pi/2] by t = (pi/4)(1 + x).

    Returns (sin(t)^2, weight) per node for an even node count.  Each
    root x = +-(1 - u) of P_nodes is found by Newton's method on u from
    Tricomi's estimate; the root and its mirror share the weight.
    """
    n = nodes
    s2: list[float] = []
    ws: list[float] = []
    for i in range(n // 2):
        theta = math.pi * (i + 0.75) / (n + 0.5)
        u = 2.0 * math.sin(0.5 * theta) ** 2 + (n - 1) / (8.0 * n**3) * math.cos(theta)
        for _ in range(8):
            pn, pm = _legendre_near_one(n, u)
            du = pn * u * (2.0 - u) / (n * (pm - (1.0 - u) * pn))
            u += du
            if abs(du) <= 1e-12 * u:
                # quadratic convergence: this step reached full precision
                break
        w = _legendre_weight(n, u) * (math.pi / 4.0)
        s2 += (math.sin(0.25 * math.pi * u) ** 2, math.cos(0.25 * math.pi * u) ** 2)
        ws += (w, w)
    return tuple(s2), tuple(ws)


def _k_derivative_scaled(n: int, j: int, x: float, nodes: int) -> float:
    """(2/pi) 4^j Int_0^{pi/2} (sin t)^{2j} exp(-4nx sin^2 t) dt."""
    s2, w = _gauss_legendre_quarter(nodes)
    rate = -4.0 * n * x
    integral = math.fsum(wi * si**j * math.exp(rate * si) for si, wi in zip(s2, w))
    return (2.0 / math.pi) * 4**j * integral


def _check_quadrature(n: int, j: int, x: float) -> None:
    _require_order(n)
    if j < 0:
        raise DomainError("derivative order j must be nonnegative")
    if not x >= 0.0:
        raise DomainError("the integral representation needs x >= 0")


def k_derivative_quadrature(n: int, j: int, x: float) -> tuple[float, float]:
    """K_n^(j)(x) by 64-node quadrature doubled once for an error estimate.

    Returns (value, estimate) where the value comes from the finer rule;
    the estimate carries a floor of a few roundings of the value, since
    both rules agree to the last bit wherever the integrand is smooth.
    """
    _check_quadrature(n, j, x)
    sign = (-1.0) ** j * float(n) ** j
    coarse = sign * _k_derivative_scaled(n, j, x, 64)
    fine = sign * _k_derivative_scaled(n, j, x, 128)
    return fine, abs(fine - coarse) + 4.0 * _EPS * abs(fine)


def eval_K_derivative(n: int, j: int, x: float) -> float:
    """j-th derivative of K_n at x >= 0 via the integral representation.

    At x = 0 the integral reduces to a Wallis integral and the value is
    (-n)^j C(2j,j).
    """
    return k_derivative_quadrature(n, j, x)[0]


def eval_HC_family(n: int, j: int, x: float) -> float:
    """Confluent solution with parameters (n, j+1, 0, j+1/2, 2n(2j+1)) at x.

    Computed as K_n^(j)(x) normalized by its x = 0 value (-n)^j C(2j,j);
    the sign factors cancel, leaving a positive integral.
    """
    _check_quadrature(n, j, x)
    return _k_derivative_scaled(n, j, x, 128) / math.comb(2 * j, j)


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
