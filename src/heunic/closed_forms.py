"""Finite-sum closed forms for two families of local Heun functions.

The negative family

    u(1/2, -2*n*theta; -2n, 2*theta; gamma, gamma; x)
        = sum_{k=0}^{n} 4^k C(n,k) (theta)_k/(gamma)_k (x^2 - x)^k

holds for integer n >= 0.  The positive family (integers 0 < gamma <= n)

    u(1/2, 2*n*theta; 2n, 2*theta; gamma, gamma; x)
        = (1-2x)^{-2(n-gamma+theta)}
          sum_{k=0}^{n-gamma} 4^k C(n-gamma,k) (gamma-theta)_k/(gamma)_k (x^2-x)^k

follows from the negative one through the (1 - x/a)-power transformation.

Each sum is a terminating Gauss series 2F1(-m, b; c; z), since
4^k C(m,k) (x^2-x)^k = (-m)_k/k! (4x(1-x))^k:

    negative family   2F1(-n, theta; gamma; 4x(1-x))
    positive family   (1-2x)^{-2(n-gamma+theta)} 2F1(gamma-n, gamma-theta; gamma; 4x(1-x))
    sample family     C(2m,m) 2F1(-m, i+1/2; 1/2-m; (1-2x)^2) / (4^m C(i+m,i)), m = n-i

The indices of coincidence are members: F_n(x) = 2F1(-n, 1/2; 1; 4x(1-x))
is the negative family at theta = 1/2, gamma = 1 and the sample family
at i = 0, and G_n(x) = (1+2x)^{1-2n} F_{n-1}(-x).

Every float is a dyadic rational p/q, so every closed form at x is one
integer numerator over one integer denominator.  The integer kernel that
``coincidence`` and ``hypergeom`` share, ``_gauss_sum`` over a
terminating Gauss series and ``_horner`` over a coefficient table, forms
that pair, and the route rounds once by the correctly rounded
``int / int``: the float nearest the exact value, even where the
alternating terms cancel.

The kernel shifts where it would multiply by a power of two.  Every
float denominator q is one, so the kernels take its exponent e (q^2 =
2^e) and shift by e where a general q^2 would multiply; ``_times_power``
raises r/2^e as a power of r over one shift, and the 4^m of the closed
forms' denominators and coefficient tables is a shift by 2m.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, PoleError
from .series import _EPS, EvalResult, _is_nonpositive_integer, _Record

__all__ = [
    "FamilyParamsNeg",
    "FamilyParamsPos",
    "pochhammer",
    "eval_family_negative",
    "eval_family_positive",
    "eval_sample_family",
]


def pochhammer(r, k: int):
    """Rising factorial (r)_k = r(r+1)...(r+k-1), with (r)_0 = 1 exactly.

    Preserves the arithmetic of ``r``: float in, float out; Fraction or
    int in, exact value out.
    """
    if k < 0:
        raise DomainError("pochhammer order must be nonnegative")
    result = 1
    for i in range(k):
        result = result * (r + i)
    return result


class FamilyParamsNeg(_Record, namedtuple("FamilyParamsNeg", "n theta gamma")):
    """(n, theta, gamma) for the negative family; any real theta."""

    __slots__ = ()

    def __new__(cls, n: int, theta: float, gamma: float):
        if not isinstance(n, int) or n < 0:
            raise DomainError("n must be a nonnegative integer")
        if _is_nonpositive_integer(gamma):
            raise DomainError("gamma must not be zero or a negative integer")
        return tuple.__new__(cls, (n, theta, gamma))


class FamilyParamsPos(_Record, namedtuple("FamilyParamsPos", "n theta gamma")):
    """(n, theta, gamma) for the positive family; integers 0 < gamma <= n.

    ``gamma`` may be given as an integral float.
    """

    __slots__ = ()

    def __new__(cls, n: int, theta: float, gamma: int):
        if not isinstance(n, int) or n < 1:
            raise DomainError("n must be a positive integer")
        if not (float(gamma).is_integer() and 0 < gamma <= n):
            raise DomainError("gamma must be an integer with 0 < gamma <= n")
        return tuple.__new__(cls, (n, theta, gamma))


def _horner(coeffs: tuple[int, ...], a: int, e: int) -> tuple[int, int]:
    """sum_k coeffs[k] (a/2^e)^k as (numerator, 2^(e*deg)), by homogeneous Horner."""
    num, shift = coeffs[-1], 0
    for c in coeffs[-2::-1]:
        shift += e
        num = num * a + (c << shift)
    return num, 1 << shift


def _gauss_sum(m: int, b: tuple[int, int], c: tuple[int, int],
               a: int, e: int) -> tuple[int, int]:
    """2F1(-m, b; c; a/2^e) as (numerator, positive denominator), for b and
    c given as integer ratios (numerator, denominator).

    The m+1 terms are nested from the last, 1 + r_0 (1 + r_1 (...)), with
    r_k = (k-m)(b+k)/((k+1)(c+k)) a/2^e.  The product of the denominators
    of the r_k is kept apart from its power of two, so each step
    multiplies it by one small integer and shifts once.  The factor cd/bd
    of r_k (bd and cd the denominators of b and c) enters by its odd parts,
    and its power of two joins a/2^e: for float parameters both are powers
    of two, and multiplying by them would grow both integers by their bits
    each step, only for those bits to cancel.
    """
    bn, bd = b
    cn, cd = c
    bz = (bd & -bd).bit_length() - 1
    cz = (cd & -cd).bit_length() - 1
    if cz >= bz:
        a <<= cz - bz
    else:
        e += bz - cz
    bo, co = bd >> bz, cd >> cz
    num = den = 1
    shift = 0
    for k in reversed(range(m)):
        den *= (k + 1) * (cn + k * cd) * bo
        shift += e
        num = (den << shift) + (k - m) * (bn + k * bd) * co * a * num
    den <<= shift
    return (num, den) if den > 0 else (-num, -den)


# Budgets that keep an exact closed form under about a second (0.6 s at
# most on a 2-vCPU VM): a table of order m costs about m^3 bit operations
# (0.05 s at m = 400), and a sum of K terms whose integers grow by b bits
# a term costs about (K b)^2.
_TABLE_ORDER = 400
_SUM_WORK = 5e11


def _checked_ratio(x: float, terms: int, *params: tuple[int, int], table: bool = False,
                   remedy: str = "") -> tuple[int, int]:
    """x as its integer ratio (p, q), after refusing with DomainError a
    non-finite x and a closed form of ``terms`` terms past its budget; a
    term adds about 2 max(bits(p), bits(q)) + 2 bits(terms) bits and the
    bits of the parameters' integer ratios ``params``."""
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    p, q = x.as_integer_ratio()
    bits = (2 * max(p.bit_length(), q.bit_length()) + 2 * terms.bit_length()
            + sum(abs(v).bit_length() for ratio in params for v in ratio))
    if (table and terms > _TABLE_ORDER) or (terms * bits) ** 2 > _SUM_WORK:
        raise DomainError(f"an exact closed form of {terms} terms of {bits} bits "
                          f"is past its work budget{remedy}")
    return p, q


def _times_power(num: int, den: int, r: int, e: int, k: int) -> float:
    """(num/den) (r/2^e)^k for any integer k, rounded once by ``int / int``."""
    if k >= 0:
        return num * r**k / (den << e * k)
    return (num << e * -k) / (den * r**-k)


def _sample_sum(i: int, m: int, s: int, e: int) -> tuple[int, int]:
    """C(2m,m) 2F1(-m, i+1/2; 1/2-m; s/2^e) over 4^m C(i+m,i), that is
    sum_{j=0}^{m} C(i+j,i) C(2i+2j,i+j)/C(2i,i) C(2m-2j,m-j) (s/2^e)^j
    over 4^m C(i+m,i)."""
    num, den = _gauss_sum(m, (2 * i + 1, 2), (1 - 2 * m, 2), s, e)
    return math.comb(2 * m, m) * num, math.comb(i + m, i) * den << 2 * m


def eval_family_negative(fp: FamilyParamsNeg, x: float) -> EvalResult:
    """Closed form of the negative family; defined for every real x."""
    theta, gamma = fp.theta.as_integer_ratio(), fp.gamma.as_integer_ratio()
    p, q = _checked_ratio(x, fp.n, theta, gamma)
    num, den = _gauss_sum(fp.n, theta, gamma, 4 * p * (q - p), 2 * q.bit_length() - 2)
    return EvalResult(num / den, fp.n + 1, True, 0.0)


def eval_family_positive(fp: FamilyParamsPos, x: float) -> EvalResult:
    """Prefactored closed form of the positive family.

    Raises PoleError at x = 1/2 when the exponent -2(n - gamma + theta)
    is negative, and DomainError for x > 1/2 when the exponent is not an
    integer (the real-valued branch does not exist there).  An integral
    exponent keeps the prefactor exact; otherwise the two factors are
    rounded apart and multiplied, and the estimate bounds the rounding:
    that of 1 - 2x times |exponent|, that of the exponent times
    |log(1 - 2x)|, and that of the power and the two quotients.
    """
    gamma = int(fp.gamma)
    tn, td = fp.theta.as_integer_ratio()
    p, q = _checked_ratio(x, fp.n - gamma, (tn, td), (gamma, 1))
    exponent = -2.0 * (fp.n - fp.gamma + fp.theta)
    r = q - 2 * p  # 1 - 2x = r/q
    if r == 0 and exponent < 0:
        raise PoleError("x = 1/2 is a pole for a negative exponent")
    integral = float(exponent).is_integer()
    if r < 0 and not integral:
        raise DomainError(
            "negative base with non-integer exponent has no real value")
    num, den = _gauss_sum(fp.n - gamma, (gamma * td - tn, td), (gamma, 1),
                          4 * p * (q - p), 2 * q.bit_length() - 2)
    if integral:
        value = _times_power(num, den, r, q.bit_length() - 1, int(exponent))
        return EvalResult(value, fp.n - gamma + 1, True, 0.0)
    base = r / q
    value = base**exponent * (num / den)
    log_base = abs(math.log(base)) if base else 0.0
    estimate = (abs(exponent) / 2 * (1.0 + log_base) + 3.0) * _EPS * abs(value)
    return EvalResult(value, fp.n - gamma + 1, True, estimate)


def eval_sample_family(n: int, i: int, x: float) -> EvalResult:
    """Closed form of u(1/2, (i-n)(2i+1); 2(i-n), 2i+1; i+1, i+1; x).

    Equals
        (2i)!!/(2i-1)!! * 4^{-n} * C(n,i)^{-1}
        * sum_{j=0}^{n-i} 4^j C(i+j,i) C(2i+2j,i+j) C(2n-2i-2j,n-i-j) (x-1/2)^{2j}
    and is defined for every real x.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    if not 0 <= i <= n:
        raise DomainError("i must satisfy 0 <= i <= n")
    p, q = _checked_ratio(x, n - i)
    # 4^j (x-1/2)^{2j} = ((2p-q)/q)^{2j}, and (2i)!!/(2i-1)!! = 4^i / C(2i,i)
    num, den = _sample_sum(i, n - i, (2 * p - q) ** 2, 2 * q.bit_length() - 2)
    return EvalResult(num / den, n - i + 1, True, 0.0)
