"""Finite-sum closed forms for two families of local Heun functions.

The negative family

    u(1/2, -2*n*theta; -2n, 2*theta; gamma, gamma; x)
        = sum_{k=0}^{n} 4^k C(n,k) (theta)_k/(gamma)_k (x^2 - x)^k

holds for integer n >= 0.  The positive family (integers 0 < gamma <= n)

    u(1/2, 2*n*theta; 2n, 2*theta; gamma, gamma; x)
        = (1-2x)^{-2(n-gamma+theta)}
          sum_{k=0}^{n-gamma} 4^k C(n-gamma,k) (gamma-theta)_k/(gamma)_k (x^2-x)^k

follows from the negative one through the (1 - x/a)-power transformation.

The indices of coincidence are members: at theta = 1/2, gamma = 1 the
negative family is F_n(x) = sum_k C(n,k) C(2k,k) (x^2-x)^k, the sample
family is F_n(x) at i = 0, and G_n(x) = (1+2x)^{1-2n} F_{n-1}(-x).

Every float is a dyadic rational p/q, so every closed form at x is one
integer numerator over one integer denominator.  The integer kernel that
``coincidence`` and ``hypergeom`` share, ``_horner`` over a coefficient
table and ``_ratio_horner`` over a term ratio, forms that pair, and the
route rounds once by the correctly rounded ``int / int``: the float
nearest the exact value, even where the alternating terms cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, PoleError
from .series import _is_nonpositive_integer

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


@dataclass(frozen=True)
class FamilyParamsNeg:
    """(n, theta, gamma) for the negative family; any real theta."""

    n: int
    theta: float
    gamma: float

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("n must be a nonnegative integer")
        if _is_nonpositive_integer(self.gamma):
            raise DomainError("gamma must not be zero or a negative integer")


@dataclass(frozen=True)
class FamilyParamsPos:
    """(n, theta, gamma) for the positive family; integers 0 < gamma <= n.

    ``gamma`` may be given as an integral float.
    """

    n: int
    theta: float
    gamma: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be a positive integer")
        if not (float(self.gamma).is_integer() and 0 < self.gamma <= self.n):
            raise DomainError("gamma must be an integer with 0 < gamma <= n")


def _horner(coeffs: tuple[int, ...], a: int, e: int) -> tuple[int, int]:
    """sum_k coeffs[k] (a/2^e)^k as (numerator, 2^(e*deg)), by homogeneous Horner.

    Every float denominator is a power of two, so the kernels take the
    exponent e and shift where a general b would multiply.
    """
    num, shift = coeffs[-1], 0
    for c in coeffs[-2::-1]:
        shift += e
        num = num * a + (c << shift)
    return num, 1 << shift


def _ratio_horner(ratios, a: int, e: int) -> tuple[int, int]:
    """sum_{k=0}^{K} prod_{i<k} (N_i/D_i) (a/2^e)^k as (numerator, denominator).

    ``ratios`` yields the integer pairs (N_i, D_i) of consecutive terms
    from the last, i = K-1, down to the first: 1 + r_0 (1 + r_1 (...)) is
    built from the inside out.  The denominator returned is positive.
    """
    num = den = 1
    for n_i, d_i in ratios:
        den = (den * d_i) << e
        num = den + n_i * a * num
    return (num, den) if den > 0 else (-num, -den)


# Budgets that keep an exact closed form under about a second (0.9 s at
# most on a 2-vCPU VM): a table of order m costs about m^3 bit operations
# (0.4 s at m = 400), and a sum of K terms whose integers grow by b bits
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


def _times_power(num: int, den: int, r: int, q: int, k: int) -> float:
    """(num/den) (r/q)^k for any integer k, rounded once by ``int / int``."""
    if k < 0:
        r, q, k = q, r, -k
    return num * r**k / (den * q**k)


def _family_sum(terms: int, theta: tuple[int, int], gamma: tuple[int, int],
                a: int, e: int) -> tuple[int, int]:
    """sum_{k=0}^{terms} 4^k C(terms,k) (theta)_k/(gamma)_k (a/2^e)^k.

    theta and gamma are integer ratios (numerator, denominator), and
    a/2^e = x^2 - x.
    """
    tn, td = theta
    gn, gd = gamma
    # 4 (terms-k)/(k+1) * (theta+k)/(gamma+k)
    return _ratio_horner(((4 * (terms - k) * (tn + k * td) * gd, (k + 1) * td * (gn + k * gd))
                          for k in reversed(range(terms))), a, e)


def _sample_sum(i: int, m: int, a: int, e: int) -> tuple[int, int]:
    """sum_{j=0}^{m} C(i+j,i) C(2i+2j,i+j)/C(2i,i) C(2m-2j,m-j) (a/2^e)^j
    over 4^m C(i+m,i), with a/2^e = (1-2x)^2."""
    # consecutive terms have the ratio (2i+2j+1)(m-j) / ((j+1)(2m-2j-1))
    num, den = _ratio_horner((((2 * i + 2 * j + 1) * (m - j), (j + 1) * (2 * m - 2 * j - 1))
                              for j in reversed(range(m))), a, e)
    # the j = 0 term is C(2m,m)
    return math.comb(2 * m, m) * num, 4**m * math.comb(i + m, i) * den


def eval_family_negative(fp: FamilyParamsNeg, x: float) -> float:
    """Closed form of the negative family; defined for every real x."""
    theta, gamma = fp.theta.as_integer_ratio(), fp.gamma.as_integer_ratio()
    p, q = _checked_ratio(x, fp.n, theta, gamma)
    num, den = _family_sum(fp.n, theta, gamma, p * (p - q), 2 * q.bit_length() - 2)
    return num / den


def eval_family_positive(fp: FamilyParamsPos, x: float) -> float:
    """Prefactored closed form of the positive family.

    Raises PoleError at x = 1/2 when the exponent -2(n - gamma + theta)
    is negative, and DomainError for x > 1/2 when the exponent is not an
    integer (the real-valued branch does not exist there).  An integral
    exponent keeps the prefactor exact; otherwise the two factors are
    rounded apart and multiplied.
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
    num, den = _family_sum(fp.n - gamma, (gamma * td - tn, td), (gamma, 1),
                           p * (p - q), 2 * q.bit_length() - 2)
    if not integral:
        return (r / q) ** exponent * (num / den)
    return _times_power(num, den, r, q, int(exponent))


def eval_sample_family(n: int, i: int, x: float) -> float:
    """Closed form of u(1/2, (i-n)(2i+1); 2(i-n), 2i+1; i+1, i+1; x).

    Equals
        (2i)!!/(2i-1)!! * 4^{-n} * C(n,i)^{-1}
        * sum_{j=0}^{n-i} 4^j C(i+j,i) C(2i+2j,i+j) C(2n-2i-2j,n-i-j) (x-1/2)^{2j}
    and is defined for every real x.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if not 0 <= i <= n:
        raise DomainError("i must satisfy 0 <= i <= n")
    p, q = _checked_ratio(x, n - i)
    # 4^j (x-1/2)^{2j} = ((2p-q)/q)^{2j}, and (2i)!!/(2i-1)!! = 4^i / C(2i,i)
    num, den = _sample_sum(i, n - i, (2 * p - q) ** 2, 2 * q.bit_length() - 2)
    return num / den
