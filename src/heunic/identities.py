"""Exact big-integer verification of two combinatorial identities.

Identity A:
    sum_{j=k}^{n} C(j,k) C(2j,j) C(2n-2j,n-j) = 4^(n-k) C(n,k) C(2k,k)

Identity B:
    sum_{i=0}^{n-j} (-1/4)^i C(n-j,i) C(2i+2j,i+j)
        = 4^(j-n) C(2j,j) C(2n-2j,n-j) / C(n,j)

Both sides are computed in Python integers and compared exactly, so a
pass carries no floating-point caveat.  Identity B's left side is
summed scaled by 4^(n-j) and compared with the right side by
cross-multiplication; both sides are reported as Fractions.  Every
binomial argument can be perturbed through a ``Mutation`` to prove the
checks are not vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError

__all__ = [
    "binomial_exact",
    "Mutation",
    "IdentityCheck",
    "IDENTITY_A_SITES",
    "IDENTITY_B_SITES",
    "check_identity_A",
    "check_identity_B",
]


def binomial_exact(n: int, k: int) -> int:
    """Exact C(n, k); zero when k < 0 or k > n."""
    if n < 0:
        raise DomainError("binomial upper argument must be nonnegative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class Mutation:
    """Perturb one binomial argument (``site``) by ``delta``."""

    site: int
    delta: int = 1


class IdentityCheck(NamedTuple):
    passed: bool
    lhs: object
    rhs: object


# site labels double as documentation of the perturbable argument slots
IDENTITY_A_SITES = (
    "lhs C(j,k) upper", "lhs C(j,k) lower",
    "lhs C(2j,j) upper", "lhs C(2j,j) lower",
    "lhs C(2n-2j,n-j) upper", "lhs C(2n-2j,n-j) lower",
    "rhs C(n,k) upper", "rhs C(n,k) lower",
    "rhs C(2k,k) upper", "rhs C(2k,k) lower",
)

IDENTITY_B_SITES = (
    "lhs C(n-j,i) upper", "lhs C(n-j,i) lower",
    "lhs C(2i+2j,i+j) upper", "lhs C(2i+2j,i+j) lower",
    "rhs C(2j,j) upper", "rhs C(2j,j) lower",
    "rhs C(2n-2j,n-j) upper", "rhs C(2n-2j,n-j) lower",
    "rhs C(n,j) upper", "rhs C(n,j) lower",
)


def _binomial(mutation: Mutation | None, site: int, upper: int, lower: int) -> int:
    """C(upper, lower), the mutation applied if it targets this binomial.

    A binomial occupies the sites ``site`` (upper) and ``site + 1`` (lower).
    """
    if mutation is not None:
        if mutation.site == site:
            upper += mutation.delta
        elif mutation.site == site + 1:
            lower += mutation.delta
    return binomial_exact(upper, lower)


def check_identity_A(n: int, k: int,
                     mutation: Mutation | None = None) -> IdentityCheck:
    """Compare both exact integer sides of identity A at (n, k)."""
    if not 0 <= k <= n:
        raise DomainError("need 0 <= k <= n")
    if mutation is not None and not 0 <= mutation.site < len(IDENTITY_A_SITES):
        raise DomainError("unknown mutation site for identity A")
    lhs = sum(_binomial(mutation, 0, j, k) * _binomial(mutation, 2, 2 * j, j)
              * _binomial(mutation, 4, 2 * n - 2 * j, n - j)
              for j in range(k, n + 1))
    rhs = 4 ** (n - k) * _binomial(mutation, 6, n, k) * _binomial(mutation, 8, 2 * k, k)
    return IdentityCheck(lhs == rhs, lhs, rhs)


def check_identity_B(n: int, j: int,
                     mutation: Mutation | None = None) -> IdentityCheck:
    """Compare both exact rational sides of identity B at (n, j)."""
    if not 0 <= j <= n:
        raise DomainError("need 0 <= j <= n")
    if mutation is not None and not 0 <= mutation.site < len(IDENTITY_B_SITES):
        raise DomainError("unknown mutation site for identity B")
    m = n - j
    # the left side times 4^m
    lhs = sum((-1) ** i * 4 ** (m - i) * _binomial(mutation, 0, m, i)
              * _binomial(mutation, 2, 2 * i + 2 * j, i + j)
              for i in range(m + 1))
    denominator = _binomial(mutation, 8, n, j)
    if denominator == 0:
        return IdentityCheck(False, Fraction(lhs, 4**m), None)
    rhs = _binomial(mutation, 4, 2 * j, j) * _binomial(mutation, 6, 2 * n - 2 * j, n - j)
    return IdentityCheck(lhs * denominator == rhs, Fraction(lhs, 4**m),
                         Fraction(rhs, 4**m * denominator))
