"""Finite-sum closed forms for two families of local Heun functions.

The negative family

    u(1/2, -2*n*theta; -2n, 2*theta; gamma, gamma; x)
        = sum_{k=0}^{n} 4^k C(n,k) (theta)_k/(gamma)_k (x^2 - x)^k

holds for integer n >= 0.  The positive family (integers 0 < gamma <= n)

    u(1/2, 2*n*theta; 2n, 2*theta; gamma, gamma; x)
        = (1-2x)^{-2(n-gamma+theta)}
          sum_{k=0}^{n-gamma} 4^k C(n-gamma,k) (gamma-theta)_k/(gamma)_k (x^2-x)^k

follows from the negative one through the (1 - x/a)-power transformation.

Sums are accumulated in exact rational arithmetic (every float is a
dyadic rational) and rounded once on return, so closed-form routes stay
bit-honest even where the alternating terms cancel heavily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


def _family_sum(terms: int, theta: Fraction, gamma: Fraction, w: Fraction) -> Fraction:
    """sum_{k=0}^{terms} 4^k C(terms,k) (theta)_k/(gamma)_k w^k, exactly."""
    total = Fraction(0)
    wk = Fraction(1)
    num = Fraction(1)
    den = Fraction(1)
    for k in range(terms + 1):
        total += (4**k * math.comb(terms, k)) * num / den * wk
        wk *= w
        num *= theta + k
        den *= gamma + k
    return total


def eval_family_negative(fp: FamilyParamsNeg, x: float) -> float:
    """Closed form of the negative family; defined for every real x."""
    xr = Fraction(x)
    return float(_family_sum(fp.n, Fraction(fp.theta), Fraction(fp.gamma),
                             xr * xr - xr))


def _signed_power(base: Fraction, exponent: float):
    """base**exponent staying in the reals, exact when the exponent is integral."""
    if float(exponent).is_integer():
        e = int(exponent)
        if base == 0:
            if e < 0:
                raise PoleError("zero base raised to a negative power")
            return Fraction(1) if e == 0 else Fraction(0)
        return base**e
    if base < 0:
        raise DomainError(
            "negative base with non-integer exponent has no real value")
    if base == 0 and exponent < 0:
        raise PoleError("zero base raised to a negative power")
    return float(base) ** exponent


def eval_family_positive(fp: FamilyParamsPos, x: float) -> float:
    """Prefactored closed form of the positive family.

    Raises PoleError at x = 1/2 when the exponent -2(n - gamma + theta)
    is negative, and DomainError for x > 1/2 when the exponent is not an
    integer (the real-valued branch does not exist there).
    """
    xr = Fraction(x)
    exponent = -2.0 * (fp.n - fp.gamma + fp.theta)
    base = 1 - 2 * xr
    if base == 0 and exponent < 0:
        raise PoleError("x = 1/2 is a pole for a negative exponent")
    prefactor = _signed_power(base, exponent)
    body = _family_sum(fp.n - int(fp.gamma), Fraction(fp.gamma) - Fraction(fp.theta),
                       Fraction(fp.gamma), xr * xr - xr)
    if isinstance(prefactor, Fraction):
        return float(prefactor * body)
    return prefactor * float(body)


def _double_factorial_ratio(i: int) -> Fraction:
    """(2i)!!/(2i-1)!! with the conventions 0!! = (-1)!! = 1."""
    if i == 0:
        return Fraction(1)
    # (2i)!! = 2^i i!,  (2i-1)!! = (2i)!/(2^i i!)
    return Fraction(4**i * math.factorial(i) ** 2, math.factorial(2 * i))


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
    xr = Fraction(x)
    u = (xr - Fraction(1, 2)) ** 2
    total = Fraction(0)
    uj = Fraction(1)
    for j in range(n - i + 1):
        total += (4**j * math.comb(i + j, i) * math.comb(2 * i + 2 * j, i + j)
                  * math.comb(2 * n - 2 * i - 2 * j, n - i - j)) * uj
        uj *= u
    scale = _double_factorial_ratio(i) / (4**n * math.comb(n, i))
    return float(scale * total)
