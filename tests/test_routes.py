"""The route table: each route is the library call it names, and the
library crosscheck is the one the command line reports."""

import io

import pytest
from test_cli import POINTS

from heunic import (
    Clausen3F2Params,
    ConfluentHeunParams,
    DomainError,
    FamilyParamsNeg,
    FamilyParamsPos,
    FMethod,
    Gauss2F1Params,
    GeneralHeunParams,
    GMethod,
    SeriesOptions,
    clausen_3f2_unit,
    eval_confluent_heun,
    eval_F,
    eval_family_negative,
    eval_family_positive,
    eval_G,
    eval_heun_local,
    eval_hl_hypergeometric,
    eval_K,
    eval_K_derivative,
    eval_sample_family,
    gauss_2f1,
)
from heunic.cli import _parse_grid, run
from heunic.routes import TARGETS, crosscheck

OPTS = SeriesOptions()

# every (target, route) as the library call it stands for, with the
# parameters in flag order
DIRECT = {
    ("heun", "series"): lambda p, x: eval_heun_local(GeneralHeunParams(
        p["a"], p["q"], p["alpha"], p["beta"], p["gamma"], p["delta"]), x, OPTS),
    ("confluent", "series"): lambda p, x: eval_confluent_heun(ConfluentHeunParams(
        p["p"], p["gamma"], p["delta"], p["alpha"], p["sigma"]), x, OPTS),
    **{("F", m.value): lambda p, x, m=m: eval_F(p["n"], x, m, OPTS) for m in FMethod},
    **{("G", m.value): lambda p, x, m=m: eval_G(p["n"], x, m, OPTS) for m in GMethod},
    ("K", "definitional"): lambda p, x: eval_K(p["n"], x, OPTS),
    ("K", "quadrature"): lambda p, x: eval_K_derivative(p["n"], 0, x),
    ("K", "confluent-series"): lambda p, x: eval_confluent_heun(
        ConfluentHeunParams(p["n"], 1.0, 0.0, 0.5, 2 * p["n"]), x, OPTS),
    ("Kderiv", "quadrature"): lambda p, x: eval_K_derivative(p["n"], p["j"], x),
    ("2f1", "series"): lambda p, x: gauss_2f1(Gauss2F1Params(p["a"], p["b"], p["c"]), x, OPTS),
    ("3f2", "accelerated"): lambda p, x: clausen_3f2_unit(Clausen3F2Params(
        p["a1"], p["a2"], p["a3"], p["b1"], p["b2"]), OPTS),
    ("hl-hyp", "hypergeometric"): lambda p, x: eval_hl_hypergeometric(p["q"], x, OPTS),
    ("family-neg", "closed"): lambda p, x: eval_family_negative(FamilyParamsNeg(
        p["n"], p["theta"], p["gamma"]), x),
    ("family-pos", "closed"): lambda p, x: eval_family_positive(FamilyParamsPos(
        p["n"], p["theta"], p["gamma"]), x),
    ("sample-family", "closed"): lambda p, x: eval_sample_family(p["n"], p["i"], x),
}

ROUTES = [(target, route) for target in TARGETS for route in TARGETS[target].routes]


def params_and_x(argv):
    """The parameters and x of a POINTS entry, typed as the CLI types them."""
    flags = {name[2:]: value for name, value in zip(argv[::2], argv[1::2])}
    x = flags.pop("x", None)
    params = {name: int(v) if name in ("n", "j", "i") else float(v)
              for name, v in flags.items()}
    return params, None if x is None else float(x)


def invoke(argv):
    out = io.StringIO()
    report = run(argv, out=out, err=io.StringIO())
    return report, out.getvalue()


def test_the_direct_calls_cover_the_table():
    assert set(DIRECT) == set(ROUTES)


@pytest.mark.parametrize("target, route", ROUTES)
def test_route_is_its_library_call(target, route):
    params, x = params_and_x(POINTS[target])
    assert tuple(params) == TARGETS[target].flags
    assert TARGETS[target].routes[route](x, OPTS, **params) == DIRECT[target, route](params, x)


@pytest.mark.parametrize("target, n, grid", [
    ("F", 3, "0:1:0.1"), ("F", 30, "0.1,0.7"), ("G", 2, "0:1:0.5"), ("G", 30, "0.1,1.5"),
    ("G", 40, "0.9"), ("K", 2, "0:0.9:0.45"), ("K", 20, "0.1,0.5"), ("K", 500, "0.1,0.5"),
])
def test_crosscheck_is_the_cli_line(target, n, grid):
    report, out = invoke(["crosscheck", "--target", target, "--n", str(n), "--grid", grid])
    worst, worst_x, converged = crosscheck(target, {"n": n}, _parse_grid(grid), OPTS)
    line = f"max discrepancy {worst:.17g}" + ("" if worst_x is None else f" at x={worst_x:.17g}")
    assert out.splitlines()[1] == line
    assert report.code == (0 if converged else 3)


def test_crosscheck_takes_the_targets_of_two_routes_or_more():
    for target, entry in TARGETS.items():
        flags = [arg for arg in POINTS[target] if arg not in ("--x", "0.2")]
        report, _ = invoke(["crosscheck", "--target", target, *flags, "--grid", "0.2"])
        assert (report.code != 2) == (len(entry.routes) > 1), target


@pytest.mark.parametrize("target, grid", [("heun", [0.2]), ("F", [])])
def test_crosscheck_that_compares_nothing_is_refused(target, grid):
    params, _ = params_and_x(POINTS[target])
    with pytest.raises(DomainError, match="two routes and one point"):
        crosscheck(target, params, grid)
