"""Randomized numerical verification of the functional relations.

Each relation compares a derivative or transformation of one function
against a direct evaluation of another.  Derivatives on the left-hand
sides come from termwise-differentiated series (exact for polynomial
truncations); the right-hand sides are evaluated independently.  A
``RelationReport`` records the worst absolute residual over seeded
random parameter draws, always sampled inside the safe disk of the
series engine.  ``_RELATIONS`` declares each relation once, as its
sampler and its sides function.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial

from .closed_forms import pochhammer
from .coincidence import eval_K_derivative
from .errors import UnknownRelationError
from .hypergeom import Gauss2F1Params, gauss_2f1
from .series import (
    _EPS,
    ConfluentHeunParams,
    GeneralHeunParams,
    SeriesOptions,
    _evaluate,
    _sum_recurrence,
    transform_homotopy,
)

# tight truncation for the checks themselves
_OPTS = SeriesOptions(max_terms=6000, rel_tol=5e-15)
# rel_5_2's left side can cancel, so its Gauss series is summed to full precision
_GAUSS_OPTS = SeriesOptions(max_terms=6000, rel_tol=_EPS)

@dataclass(frozen=True)
class RelationReport:
    relation_id: str
    passed: bool
    worst_residual: float
    worst_point: dict
    trials: int
    tol: float


def _pair_from_sum_product(total: float, product: float) -> tuple[float, float]:
    """Solve s^2 - total*s + product = 0; the discriminant is a square here."""
    disc = max(total * total - 4.0 * product, 0.0)
    root = math.sqrt(disc)
    return (total + root) / 2.0, (total - root) / 2.0


def _solution(params: GeneralHeunParams | ConfluentHeunParams, x: float,
              order: int = 0) -> float:
    """u^(order)(x) for either Heun equation, at the suite's truncation."""
    return _evaluate(params, x, _OPTS, order)[order].value


# ---------------------------------------------------------------------------
# explicit two-sided forms, parameter-level (reused by the tests)


def derivative_raised_sides(a: float, alpha: float, beta: float, gamma: float,
                            delta: float, x: float,
                            explicit_pair: bool) -> tuple[float, float]:
    """Derivative of u(a, a*alpha*beta; alpha, beta; gamma, delta) at x
    against (alpha*beta/gamma)(1 - x/a) u(a, q1; alpha+2, beta+2; gamma+1, delta+1).

    With ``explicit_pair`` False the raised numerator pair is recovered
    from its sum and product instead of being written down directly.
    """
    params = GeneralHeunParams(a, a * alpha * beta, alpha, beta, gamma, delta)
    eps = params.epsilon
    lhs = _solution(params, x, 1)
    q1 = a * (alpha * beta + gamma + delta) + gamma + eps + 1.0
    if explicit_pair:
        a1, b1 = alpha + 2.0, beta + 2.0
    else:
        a1, b1 = _pair_from_sum_product(gamma + delta + eps + 3.0,
                                        alpha * beta + 2.0 * (gamma + delta + eps + 1.0))
    raised = GeneralHeunParams(a, q1, a1, b1, gamma + 1.0, delta + 1.0)
    rhs = (alpha * beta / gamma) * (1.0 - x / a) * _solution(raised, x)
    return lhs, rhs


def derivative_reflected_sides(a: float, alpha: float, beta: float, gamma: float,
                               delta: float, x: float) -> tuple[float, float]:
    """Same derivative against the route with prefactor (1 - x/a)^(-epsilon)."""
    params = GeneralHeunParams(a, a * alpha * beta, alpha, beta, gamma, delta)
    eps = params.epsilon
    lhs = _solution(params, x, 1)
    q2 = a * (alpha * beta + gamma + delta) - gamma * eps
    a2, b2 = _pair_from_sum_product(gamma + delta - eps + 1.0,
                                    alpha * beta + (gamma + delta) * (1.0 - eps))
    raised = GeneralHeunParams(a, q2, a2, b2, gamma + 1.0, delta + 1.0)
    rhs = (alpha * beta / gamma) * (1.0 - x / a) ** (-eps) * _solution(raised, x)
    return lhs, rhs


def derivative_half_sides(alpha: float, beta: float, gamma: float, x: float,
                          reflected: bool) -> tuple[float, float]:
    """Specialization a = 1/2, delta = gamma of the two derivative routes.

    The raised pair is (alpha+2, beta+2); the reflected route replaces it
    by (2*gamma - alpha, 2*gamma - beta) behind the prefactor
    (1-2x)^(2*gamma - alpha - beta - 1).
    """
    params = GeneralHeunParams(0.5, alpha * beta / 2.0, alpha, beta, gamma, gamma)
    lhs = _solution(params, x, 1)
    if not reflected:
        a1, b1 = alpha + 2.0, beta + 2.0
        prefactor = (alpha * beta / gamma) * (1.0 - 2.0 * x)
    else:
        a1, b1 = 2.0 * gamma - alpha, 2.0 * gamma - beta
        prefactor = (alpha * beta / gamma) \
            * (1.0 - 2.0 * x) ** (2.0 * gamma - alpha - beta - 1.0)
    raised = GeneralHeunParams(0.5, a1 * b1 / 2.0, a1, b1, gamma + 1.0, gamma + 1.0)
    return lhs, prefactor * _solution(raised, x)


def _raised_confluent(p: float, gamma: float,
                      alpha: float) -> tuple[ConfluentHeunParams, ConfluentHeunParams]:
    """The raised parameter sets of the two confluent derivative routes:
    (p, gamma+1, 0, alpha+1, 4p(alpha+1)) and
    (p, gamma+1, 2, alpha+2, 4p(alpha+1)-gamma-1).
    """
    sigma = 4.0 * p * (alpha + 1.0)
    return (ConfluentHeunParams(p, gamma + 1.0, 0.0, alpha + 1.0, sigma),
            ConfluentHeunParams(p, gamma + 1.0, 2.0, alpha + 2.0, sigma - gamma - 1.0))


def confluent_derivative_sides(p: float, gamma: float, alpha: float, x: float,
                               second_route: bool) -> tuple[float, float]:
    """Derivative of the confluent solution (p, gamma, 0, alpha, 4*p*alpha).

    Route one:  -(4*p*alpha/gamma) u(p, gamma+1, 0, alpha+1, 4p(alpha+1)).
    Route two:  (4*p*alpha/gamma)(x-1) u(p, gamma+1, 2, alpha+2, 4p(alpha+1)-gamma-1).
    """
    sigma = 4.0 * p * alpha
    lhs = _solution(ConfluentHeunParams(p, gamma, 0.0, alpha, sigma), x, 1)
    first, second = _raised_confluent(p, gamma, alpha)
    if not second_route:
        return lhs, -(sigma / gamma) * _solution(first, x)
    return lhs, (sigma / gamma) * (x - 1.0) * _solution(second, x)


def confluent_route_equality_sides(p: float, gamma: float, alpha: float,
                                   x: float) -> tuple[float, float]:
    """Equate the two confluent derivative routes directly:

    u(p, gamma+1, 0, alpha+1, 4p(alpha+1); x)
        = (1-x) u(p, gamma+1, 2, alpha+2, 4p(alpha+1)-gamma-1; x).
    """
    first, second = _raised_confluent(p, gamma, alpha)
    return _solution(first, x), (1.0 - x) * _solution(second, x)


def k_slope_sides(n: int, x: float) -> tuple[float, float]:
    """u(n, 2, 2, 5/2, 6n-2; x) against K_n'(x)/(2n(x-1))."""
    params = ConfluentHeunParams(n, 2.0, 2.0, 2.5, 6.0 * n - 2.0)
    lhs = _solution(params, x)
    rhs = eval_K_derivative(n, 1, x) / (2.0 * n * (x - 1.0))
    return lhs, rhs


def homotopy_sides(params: GeneralHeunParams, x: float) -> tuple[float, float]:
    """Both sides of the (1 - x/a)-power transformation."""
    exponent, transformed = transform_homotopy(params)
    return _solution(params, x), (1.0 - x / params.a) ** exponent * _solution(transformed, x)


def gauss_weighted_derivative_sides(a: float, b: float, c: float, m: int,
                                    x: float) -> tuple[float, float]:
    """Termwise m-th derivative of (1-x)^(a+m-1) 2F1(a,b;c;x), weighted by
    (1-x)^(1-a), against (-1)^m (a)_m (c-b)_m / (c)_m 2F1(a+m, b; c+m; x).

    By Leibniz's rule with s = a+m-1 the left side is
    sum_i C(m,i) (-1)^i (s-i+1)_i (1-x)^(m-i) f^(m-i)(x), the weight
    (1-x)^(1-a) folded into the power of (1-x); f, ..., f^(m) come from
    the series kernel, which runs the Gauss recurrence of
    ``Gauss2F1Params._recurrence`` and sums every order in one loop.  The
    right side is evaluated by ``gauss_2f1``, an independent engine.
    """
    f = [r.value for r in _sum_recurrence(Gauss2F1Params(a, b, c), x, _GAUSS_OPTS, m)]
    s = a + m - 1.0
    lhs = sum(math.comb(m, i) * (-1) ** i * pochhammer(s - i + 1.0, i)
              * (1.0 - x) ** (m - i) * f[m - i]
              for i in range(m + 1))
    rhs = (-1.0) ** m * pochhammer(a, m) * pochhammer(c - b, m) / pochhammer(c, m) \
        * gauss_2f1(Gauss2F1Params(a + m, b, c + m), x, _OPTS).value
    return lhs, rhs


# ---------------------------------------------------------------------------
# randomized samplers: each returns its point as the keyword arguments of
# the sides functions it feeds, drawn in the order of the dict literal


def _sample_general(rng: random.Random) -> dict:
    return {"a": (a := rng.uniform(0.3, 0.7)),
            "alpha": rng.uniform(-3.0, 3.0), "beta": rng.uniform(-3.0, 3.0),
            "gamma": rng.uniform(0.5, 3.0), "delta": rng.uniform(0.5, 3.0),
            "x": rng.uniform(0.0, 0.45 * min(1.0, abs(a)))}


def _sample_half(rng: random.Random) -> dict:
    return {"alpha": rng.uniform(-3.0, 3.0), "beta": rng.uniform(-3.0, 3.0),
            "gamma": rng.uniform(0.5, 3.0), "x": rng.uniform(0.0, 0.225)}


def _sample_confluent(rng: random.Random) -> dict:
    return {"p": rng.uniform(0.3, 2.0), "gamma": rng.uniform(0.5, 3.0),
            "alpha": rng.uniform(-3.0, 3.0), "x": rng.uniform(0.0, 0.45)}


def _sample_k_slope(rng: random.Random) -> dict:
    return {"n": rng.randint(1, 8), "x": rng.uniform(0.0, 0.45)}


def _sample_homotopy(rng: random.Random) -> dict:
    return dict(_sample_general(rng), q=rng.uniform(-3.0, 3.0))


def _sample_gauss(rng: random.Random) -> dict:
    return {"a": rng.uniform(-3.0, 3.0), "b": rng.uniform(-3.0, 3.0),
            "c": rng.uniform(0.5, 3.0), "m": rng.choice((1, 2)),
            "x": rng.uniform(0.0, 0.45)}


# relation id -> (sampler, sides); the order is the order verify reports
_RELATIONS = {
    "rel_2_3": (_sample_general, partial(derivative_raised_sides, explicit_pair=False)),
    "rel_2_4": (_sample_general, derivative_reflected_sides),
    "rel_2_5": (_sample_half, partial(derivative_half_sides, reflected=False)),
    "rel_2_6": (_sample_half, partial(derivative_half_sides, reflected=True)),
    "rel_5_1": (_sample_general, partial(derivative_raised_sides, explicit_pair=True)),
    "rel_4_1": (_sample_confluent, partial(confluent_derivative_sides, second_route=False)),
    "rel_4_2": (_sample_confluent, partial(confluent_derivative_sides, second_route=True)),
    "rel_4_3": (_sample_k_slope, k_slope_sides),
    "rel_1_9": (_sample_homotopy,
                lambda x, **params: homotopy_sides(GeneralHeunParams(**params), x)),
    "rel_5_2": (_sample_gauss, gauss_weighted_derivative_sides),
    "rel_4_1_eq_4_2": (_sample_confluent, confluent_route_equality_sides),
}

RELATION_IDS = tuple(_RELATIONS)


def check_relation(relation_id: str, trials: int = 100, tol: float = 1e-7,
                   seed: int = 0) -> RelationReport:
    """Run seeded random trials of one relation and report the worst residual."""
    try:
        sample, sides = _RELATIONS[relation_id]
    except KeyError:
        raise UnknownRelationError(f"unknown relation id {relation_id!r}") from None
    if trials < 1:
        raise UnknownRelationError("trials must be positive")
    rng = random.Random(f"{seed}:{relation_id}")
    worst = -1.0
    worst_point: dict = {}
    for _ in range(trials):
        point = sample(rng)
        lhs, rhs = sides(**point)
        residual = abs(lhs - rhs)
        if residual > worst:
            worst = residual
            worst_point = dict(point, lhs=lhs, rhs=rhs)
    return RelationReport(relation_id, worst <= tol, worst, worst_point,
                          trials, tol)
