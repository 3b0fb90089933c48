"""The route table: each target's parameters and routes, and their crosscheck.

A route computes its target as ``route(x, opts, **params) -> EvalResult``,
with the target's ``flags`` as ``params``.  A target with a parameter
dataclass reads its flags from the fields and builds ``Cls(**params)``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, Iterable, NamedTuple

from . import coincidence
from .closed_forms import (FamilyParamsNeg, FamilyParamsPos, eval_family_negative,
                           eval_family_positive, eval_sample_family)
from .coincidence import FMethod, GMethod
from .errors import DomainError
from .hypergeom import (Clausen3F2Params, Gauss2F1Params, clausen_3f2_unit,
                        eval_hl_hypergeometric, gauss_2f1)
from .series import (DEFAULT_OPTIONS, ConfluentHeunParams, EvalResult, GeneralHeunParams,
                     SeriesOptions, eval_confluent_heun, eval_heun_local)

Route = Callable[..., EvalResult]


class Target(NamedTuple):
    """One evaluation target: its parameter names and routes, in crosscheck's order."""

    flags: tuple[str, ...]      # parameter names, in the order usage errors list them
    routes: dict[str, Route]
    default: str | None = None  # route when none is named; None: the first
    takes_x: bool = True        # False: a unit-argument target, x is ignored
    index: bool = False         # an index of coincidence: entropy applies


def _flags(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


TARGETS: dict[str, Target] = {
    "heun": Target(_flags(GeneralHeunParams), {
        "series": lambda x, opts, **p: eval_heun_local(GeneralHeunParams(**p), x, opts)}),
    "confluent": Target(_flags(ConfluentHeunParams), {
        "series": lambda x, opts, **p: eval_confluent_heun(ConfluentHeunParams(**p), x, opts)}),
    "F": Target(("n",), {
        m.value: lambda x, opts, n, m=m: coincidence.eval_F(n, x, m, opts)
        for m in FMethod}, default=FMethod.ESTABLISHED.value, index=True),
    "G": Target(("n",), {
        m.value: lambda x, opts, n, m=m: coincidence.eval_G(n, x, m, opts)
        for m in GMethod}, default=GMethod.ESTABLISHED.value, index=True),
    "K": Target(("n",), {
        "definitional": lambda x, opts, n: coincidence.eval_K(n, x, opts),
        "quadrature": lambda x, opts, n: coincidence.eval_K_derivative(n, 0, x),
        # K_n is the confluent solution with parameters (n, 1, 0, 1/2, 2n);
        # 2n stays an integer, so a too-large n is refused as a parameter
        "confluent-series": lambda x, opts, n: eval_confluent_heun(
            ConfluentHeunParams(n, 1.0, 0.0, 0.5, 2 * n), x, opts),
    }, default="definitional", index=True),
    "Kderiv": Target(("n", "j"), {
        "quadrature": lambda x, opts, n, j: coincidence.eval_K_derivative(n, j, x)}),
    "2f1": Target(_flags(Gauss2F1Params), {
        "series": lambda x, opts, **p: gauss_2f1(Gauss2F1Params(**p), x, opts)}),
    "3f2": Target(_flags(Clausen3F2Params), {
        "accelerated": lambda x, opts, **p: clausen_3f2_unit(Clausen3F2Params(**p), opts)},
        takes_x=False),
    "hl-hyp": Target(("q",), {
        "hypergeometric": lambda x, opts, q: eval_hl_hypergeometric(q, x, opts)}),
    "family-neg": Target(_flags(FamilyParamsNeg), {
        "closed": lambda x, opts, **p: eval_family_negative(FamilyParamsNeg(**p), x)}),
    "family-pos": Target(_flags(FamilyParamsPos), {
        "closed": lambda x, opts, **p: eval_family_positive(FamilyParamsPos(**p), x)}),
    "sample-family": Target(("n", "i"), {
        "closed": lambda x, opts, n, i: eval_sample_family(n, i, x)}),
}


def crosscheck(target: str, params: dict, grid: Iterable[float],
               opts: SeriesOptions | None = None) -> tuple[float, float | None, bool]:
    """(worst, worst_x, all_converged) over every route of ``target`` on
    ``grid``: the largest spread max - min of the routes' values at a point,
    the first x where it occurs (None if no spread exceeds 0), and whether
    every route converged.  A target of one route or an empty grid, which
    compare nothing, raise DomainError."""
    routes = TARGETS[target].routes.values()
    grid = list(grid)
    if len(routes) < 2 or not grid:
        raise DomainError(f"crosscheck needs two routes and one point; target {target!r} "
                          f"has {len(routes)} routes, the grid {len(grid)} points")
    opts = opts or DEFAULT_OPTIONS
    worst, worst_x, all_converged = 0.0, None, True
    for x in grid:
        results = [route(x, opts, **params) for route in routes]
        all_converged = all_converged and all(r.converged for r in results)
        values = [r.value for r in results]
        spread = max(values) - min(values)
        if spread > worst:
            worst, worst_x = spread, x
    return worst, worst_x, all_converged
