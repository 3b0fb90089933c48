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
checks are not vacuous: it adds its delta to that one argument.
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


def _offsets(mutation: Mutation | None, sites: int) -> list[int]:
    """The argument offsets of a check: zero, but ``delta`` at the mutated
    site.  A binomial occupies the sites ``site`` (upper) and ``site + 1``
    (lower)."""
    offsets = [0] * sites
    if mutation is not None:
        offsets[mutation.site] = mutation.delta
    return offsets


def check_identity_A(n: int, k: int,
                     mutation: Mutation | None = None) -> IdentityCheck:
    """Compare both exact integer sides of identity A at (n, k)."""
    if not 0 <= k <= n:
        raise DomainError("need 0 <= k <= n")
    if mutation is not None and not 0 <= mutation.site < len(IDENTITY_A_SITES):
        raise DomainError("unknown mutation site for identity A")
    # a mutated argument may leave the range that math.comb accepts
    comb = math.comb if mutation is None else binomial_exact
    # the offsets of the upper and lower arguments, in the order of the sites
    a, b, c, d, e, f, g, h, u, v = _offsets(mutation, len(IDENTITY_A_SITES))
    lhs = sum(comb(j + a, k + b) * comb(2 * j + c, j + d) * comb(2 * n - 2 * j + e, n - j + f)
              for j in range(k, n + 1))
    rhs = comb(n + g, k + h) * comb(2 * k + u, k + v) << 2 * (n - k)
    return IdentityCheck(lhs == rhs, lhs, rhs)


def check_identity_B(n: int, j: int,
                     mutation: Mutation | None = None) -> IdentityCheck:
    """Compare both exact rational sides of identity B at (n, j)."""
    if not 0 <= j <= n:
        raise DomainError("need 0 <= j <= n")
    if mutation is not None and not 0 <= mutation.site < len(IDENTITY_B_SITES):
        raise DomainError("unknown mutation site for identity B")
    comb = math.comb if mutation is None else binomial_exact
    a, b, c, d, e, f, g, h, u, v = _offsets(mutation, len(IDENTITY_B_SITES))
    m = n - j
    # the left side times 4^m, by Horner's rule in base 4
    lhs = 0
    for i in range(m + 1):
        term = comb(m + a, i + b) * comb(2 * i + 2 * j + c, i + j + d)
        lhs = (lhs << 2) - term if i & 1 else (lhs << 2) + term
    denominator = comb(n + u, j + v)
    if denominator == 0:
        return IdentityCheck(False, Fraction(lhs, 1 << 2 * m), None)
    rhs = comb(2 * j + e, j + f) * comb(2 * n - 2 * j + g, n - j + h)
    return IdentityCheck(lhs * denominator == rhs, Fraction(lhs, 1 << 2 * m),
                         Fraction(rhs, denominator << 2 * m))
