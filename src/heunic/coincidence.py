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

With x = p/q, each closed form is one integer numerator over one integer
denominator, formed by the exact integer kernel of ``closed_forms`` and
rounded once.  G_n is (1+2x)^{1-2n} times the F sums of order n-1 taken
at x^2 + x or (1+2x)^2 in place of x^2 - x or (1-2x)^2.  K_n and its
derivatives are also available through the integral representation

    K_n^(j)(x) = (2/pi) 4^j (-n)^j Int_0^{pi/2} (sin t)^{2j} e^{-4nx sin^2 t} dt,

whose x = 0 value (-n)^j C(2j,j) pins down the normalization of the
related confluent solutions.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

from .closed_forms import _horner, _ratio_horner
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


# ---------------------------------------------------------------------------
# Closed-form sums of order m, each as (numerator, denominator) of a
# polynomial in a/b: a/b is x^2 - x or (1-2x)^2 for F_m, and x^2 + x or
# (1+2x)^2 for G_{m+1}.  Coefficient tables are cached per order.


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


def _factored(m: int, a: int, e: int) -> tuple[int, int]:
    """sum_k C(m,k) C(2k,k) (a/2^e)^k."""
    # consecutive terms have the ratio 2(m-k)(2k+1) / (k+1)^2
    return _ratio_horner(((2 * (m - k) * (2 * k + 1), (k + 1) ** 2)
                          for k in reversed(range(m))), a, e)


def _power(m: int, a: int, e: int) -> tuple[int, int]:
    """sum_j (a/2^e)^j 4^-j C(m,j) sum_i (-1/4)^i C(m-j,i) C(2i+2j,i+j)."""
    num, den = _horner(_power_coeffs(m), a, e)
    return num, 4**m * den


def _established(m: int, a: int, e: int) -> tuple[int, int]:
    """sum_j (a/2^e)^j 4^-m C(2j,j) C(2m-2j,m-j)."""
    # consecutive terms have the ratio (2j+1)(m-j) / ((j+1)(2m-2j-1))
    num, den = _ratio_horner((((2 * j + 1) * (m - j), (j + 1) * (2 * m - 2 * j - 1))
                              for j in reversed(range(m))), a, e)
    return math.comb(2 * m, m) * num, 4**m * den


def _expanded(m: int, a: int, e: int) -> tuple[int, int]:
    """sum_k (a/2^e)^k 4^(k-m) sum_{j=k}^{m} C(j,k) C(2j,j) C(2m-2j,m-j)."""
    num, den = _horner(_expanded_coeffs(m), a, e)
    return num, 4**m * den


# ---------------------------------------------------------------------------
# F_n routes


def _f_definitional(n: int, x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise DomainError("the defining sum for F needs 0 <= x <= 1")
    total = 0.0
    for k in range(n + 1):
        total += (math.comb(n, k) * x**k * (1.0 - x) ** (n - k)) ** 2
    return total


def eval_F(n: int, x: float, method: FMethod = FMethod.ESTABLISHED) -> float:
    """Index of coincidence F_n(x) by the selected route.

    The definitional route requires 0 <= x <= 1; the closed forms accept
    any real x.
    """
    _require_order(n)
    if method is FMethod.DEFINITIONAL:
        return _f_definitional(n, x)
    p, q = x.as_integer_ratio()
    w, s = p * (p - q), (q - 2 * p) ** 2  # x^2 - x and (1-2x)^2, over q^2
    e = 2 * q.bit_length() - 2  # q^2 = 2^e
    if method is FMethod.FACTORED:
        num, den = _factored(n, w, e)
    elif method is FMethod.POWER:
        num, den = _power(n, s, e)
    elif method is FMethod.ESTABLISHED:
        num, den = _established(n, s, e)
    elif method is FMethod.EXPANDED:
        num, den = _expanded(n, w, e)
    else:
        raise DomainError(f"unknown F method {method!r}")
    return num / den


# ---------------------------------------------------------------------------
# G_n routes


def _g_definitional(n: int, x: float, opts: SeriesOptions) -> EvalResult:
    if x < 0.0:
        raise DomainError("the defining sum for G needs x >= 0")
    base = (1.0 + x) ** (-2 * n)
    r = (x / (1.0 + x)) ** 2
    term = base
    total = term
    k = 0
    while k + 1 < opts.max_terms:
        # ratio of consecutive squared weights, decreasing towards r
        ratio = ((n + k) / (k + 1)) ** 2 * r
        if ratio < 1.0 and term <= opts.rel_tol * total:
            tail = term * ratio / (1.0 - ratio)
            return EvalResult(total, k + 1, True,
                              tail + _EPS * total)
        term *= ratio
        total += term
        k += 1
    ratio = ((n + k) / (k + 1)) ** 2 * r
    tail = term * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return EvalResult(total, k + 1, False, tail)


def eval_G(n: int, x: float, method: GMethod = GMethod.ESTABLISHED,
           opts: SeriesOptions | None = None) -> EvalResult:
    """Index of coincidence G_n(x) by the selected route.

    The definitional route truncates the infinite sum with a geometric
    tail bound folded into the error estimate; closed forms are exact
    finite sums (x != -1/2).
    """
    _require_order(n)
    opts = opts or DEFAULT_OPTIONS
    if method is GMethod.DEFINITIONAL:
        return _g_definitional(n, x, opts)
    p, q = x.as_integer_ratio()
    r = q + 2 * p  # 1 + 2x = r/q
    if r == 0:
        raise PoleError("x = -1/2 is a pole of the closed forms for G")
    v, t = p * (p + q), r * r  # x^2 + x and (1+2x)^2, over q^2
    e = 2 * q.bit_length() - 2  # q^2 = 2^e
    if method is GMethod.FACTORED:
        num, den = _factored(n - 1, v, e)
    elif method is GMethod.POWER:
        num, den = _power(n - 1, t, e)
    elif method is GMethod.ESTABLISHED:
        num, den = _established(n - 1, t, e)
    else:
        raise DomainError(f"unknown G method {method!r}")
    # times (1+2x)^(1-2n) = (q/r)^(2n-1), an odd power
    num, den = num * q ** (2 * n - 1), den * abs(r) ** (2 * n - 1)
    return EvalResult((num if r > 0 else -num) / den, n, True, 0.0)


# ---------------------------------------------------------------------------
# K_n and its derivatives


def eval_K(n: int, x: float, opts: SeriesOptions | None = None) -> EvalResult:
    """Index of coincidence K_n(x) by truncating the defining sum.

    The cut-off max(50, ceil(4nx) + 40) is far past the mode nx, where
    the squared weights decay faster than geometrically.  A sum cut off
    there before its terms fall below ``opts.rel_tol`` is reported as
    not converged.
    """
    _require_order(n)
    if x < 0.0:
        raise DomainError("the defining sum for K needs x >= 0")
    opts = opts or DEFAULT_OPTIONS
    lam = n * x
    k_max = max(50, math.ceil(4 * lam) + 40)
    term = math.exp(-2.0 * lam)
    total = term
    small = 0
    k = 0
    converged = False
    while k < k_max:
        term *= (lam / (k + 1)) ** 2
        total += term
        k += 1
        if k > lam and term <= opts.rel_tol * total:
            small += 1
            if small >= 3:
                converged = True
                break
        else:
            small = 0
    ratio = (lam / (k + 1)) ** 2
    tail = term * ratio / (1.0 - ratio) if ratio < 1.0 else term
    return EvalResult(total, k + 1, converged, tail + _EPS * total)


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


def k_derivative_quadrature(n: int, j: int, x: float) -> tuple[float, float]:
    """K_n^(j)(x) by 64-node quadrature doubled once for an error estimate.

    Returns (value, estimate) where the value comes from the finer rule;
    the estimate carries a floor of a few roundings of the value, since
    both rules agree to the last bit wherever the integrand is smooth.
    """
    _require_order(n)
    if j < 0:
        raise DomainError("derivative order j must be nonnegative")
    if x < 0.0:
        raise DomainError("the integral representation needs x >= 0")
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
    _require_order(n)
    if j < 0:
        raise DomainError("derivative order j must be nonnegative")
    if x < 0.0:
        raise DomainError("the integral representation needs x >= 0")
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
