"""Acceptance suite: one test per release criterion, each printing a
PASS line with its pinned tolerance.

Tolerance conventions: comparisons labelled "relative" use
|a - b| <= tol * max(|a|, |b|); bare tolerances use the scaled band
|a - b| <= tol * max(1, |a|, |b|), which is an absolute band for values
up to 1 and degrades gracefully where route values grow to 1e18 (an
absolute 1e-10 band there would lie far below the spacing of doubles).
"""

import math
import subprocess
import sys

import pytest

import heunic
from heunic import (
    ConfluentHeunParams,
    FamilyParamsNeg,
    FamilyParamsPos,
    FMethod,
    GMethod,
    GeneralHeunParams,
    IDENTITY_A_SITES,
    IDENTITY_B_SITES,
    Mutation,
    SeriesOptions,
    check_identity_A,
    check_identity_B,
    check_relation,
    entropy,
    EntropyKind,
    eval_confluent_heun,
    eval_F,
    eval_family_negative,
    eval_family_positive,
    eval_G,
    eval_HC_family,
    eval_heun_local,
    eval_hl_hypergeometric,
    eval_K,
    eval_K_derivative,
    gauss_2f1,
    gauss_2f1_closed,
    Gauss2F1Params,
    RELATION_IDS,
)

TIGHT = SeriesOptions(max_terms=20000, rel_tol=1e-15)


def scaled_ok(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def rel_ok(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def test_criterion_1_f_route_agreement():
    """All five F routes agree pairwise within 1e-12 relative,
    n <= 20, x in {0, 0.01, ..., 1}."""
    tol = 1e-12
    for n in range(1, 21):
        for i in range(101):
            x = i / 100
            values = [eval_F(n, x, m).value for m in FMethod]
            lo, hi = min(values), max(values)
            assert hi - lo <= tol * max(abs(lo), abs(hi)), (n, x, values)
    print("\nACCEPTANCE 1: PASS - five F routes pairwise within 1e-12 "
          "relative (n <= 20, 101-point unit grid)")


def test_criterion_2_g_route_agreement():
    """All four G routes agree within 1e-10, n <= 15, x in {0, 0.05, ..., 3}."""
    tol = 1e-10
    for n in range(1, 16):
        for i in range(61):
            x = 0.05 * i
            values = [eval_G(n, x, m, TIGHT).value for m in GMethod]
            lo, hi = min(values), max(values)
            assert hi - lo <= tol * max(1.0, abs(lo), abs(hi)), (n, x, values)
    print("\nACCEPTANCE 2: PASS - four G routes within 1e-10 "
          "(n <= 15, x up to 3)")


def test_criterion_3_heun_identification():
    """Series engine reproduces F_n(x) and G_n(x) through the parameter
    identifications within 1e-10 for n <= 10, |x| <= 0.45."""
    tol = 1e-10
    for n in range(1, 11):
        f_params = GeneralHeunParams(0.5, -n, -2.0 * n, 1.0, 1.0, 1.0)
        g_params = GeneralHeunParams(0.5, float(n), 2.0 * n, 1.0, 1.0, 1.0)
        for i in range(-9, 10):
            x = 0.05 * i
            f_series = eval_heun_local(f_params, x, TIGHT).value
            f_closed = eval_F(n, x, FMethod.ESTABLISHED).value
            assert scaled_ok(f_series, f_closed, tol), ("F", n, x)
            g_series = eval_heun_local(g_params, -x, TIGHT).value
            g_closed = eval_G(n, x, GMethod.ESTABLISHED, TIGHT).value
            assert scaled_ok(g_series, g_closed, tol), ("G", n, x)
    print("\nACCEPTANCE 3: PASS - series engine matches F_n and G_n within "
          "1e-10 (n <= 10, |x| <= 0.45)")


def test_criterion_4_closed_family_agreement():
    """Series engine matches the negative family within 1e-12 relative
    (n <= 10, gamma in {1,2,3}, theta in {0.5,1,2.5}) and the positive
    family within 1e-11 relative (n <= 8, 1 <= gamma <= n), |x| <= 0.45."""
    xs = [0.05 * i for i in range(-9, 10)]
    for n in range(0, 11):
        for gamma in (1.0, 2.0, 3.0):
            for theta in (0.5, 1.0, 2.5):
                fp = FamilyParamsNeg(n, theta, gamma)
                params = GeneralHeunParams(0.5, -2 * n * theta, -2.0 * n,
                                           2 * theta, gamma, gamma)
                for x in xs:
                    closed = eval_family_negative(fp, x).value
                    series = eval_heun_local(params, x, TIGHT).value
                    assert rel_ok(closed, series, 1e-12), ("neg", n, gamma,
                                                           theta, x)
    for n in range(1, 9):
        for gamma in range(1, n + 1):
            for theta in (0.5, 1.0, 2.5):
                fp = FamilyParamsPos(n, theta, gamma)
                params = GeneralHeunParams(0.5, 2 * n * theta, 2.0 * n,
                                           2 * theta, float(gamma), float(gamma))
                for x in xs:
                    closed = eval_family_positive(fp, x).value
                    series = eval_heun_local(params, x, TIGHT).value
                    assert rel_ok(closed, series, 1e-11), ("pos", n, gamma,
                                                           theta, x)
    print("\nACCEPTANCE 4: PASS - closed families match the series engine "
          "within 1e-12 (negative) / 1e-11 (positive) relative")


def test_criterion_5_exact_identities_and_mutation_sensitivity():
    """Both identities hold exactly for all indices up to 50, and every
    single-argument perturbation is caught with n <= 10."""
    for n in range(51):
        for k in range(n + 1):
            assert check_identity_A(n, k).passed, (n, k)
            assert check_identity_B(n, k).passed, (n, k)
    for site in range(len(IDENTITY_A_SITES)):
        assert any(not check_identity_A(n, k, Mutation(site, 1)).passed
                   for n in range(11) for k in range(n + 1)), site
    for site in range(len(IDENTITY_B_SITES)):
        assert any(not check_identity_B(n, j, Mutation(site, 1)).passed
                   for n in range(11) for j in range(n + 1)), site
    print("\nACCEPTANCE 5: PASS - identities A and B exact for all "
          "0 <= k,j <= n <= 50; every mutation site detected")


def test_criterion_6_hypergeometric_representation():
    """Hypergeometric route matches the series engine within 1e-6 for
    q in {1/2, 1, 3/2, 2} on [0, 0.45]; the logarithmic closed form
    matches the direct series within 1e-9 relative for m <= 6, k <= 4,
    x in {0.1, ..., 0.9}; the two spot values hold to six decimals."""
    for q in (0.5, 1.0, 1.5, 2.0):
        params = GeneralHeunParams(0.5, q, 2 * q, 1.0, 1.0, 1.0)
        for i in range(10):
            x = 0.05 * i
            bridge = eval_hl_hypergeometric(q, x, TIGHT).value
            series = eval_heun_local(params, x, TIGHT).value
            assert scaled_ok(bridge, series, 1e-6), (q, x)
    for m in range(1, 7):
        for k in range(5):
            for i in range(1, 10):
                x = i / 10
                closed = gauss_2f1_closed(m, k, x)
                direct = gauss_2f1(Gauss2F1Params(m, 1, m + 2 * k + 1),
                                   x, TIGHT).value
                assert rel_ok(closed, direct, 1e-9), (m, k, x)
    assert abs(gauss_2f1_closed(1, 0, 0.5) - 1.386294) < 5e-7
    assert abs(gauss_2f1_closed(2, 0, 0.5) - 1.545177) < 5e-7
    print("\nACCEPTANCE 6: PASS - hypergeometric representation within 1e-6 "
          "of the series engine; closed 2F1 within 1e-9 of the direct series; "
          "spot values 1.386294 and 1.545177 reproduced")


def test_criterion_7_derivative_quadrature_and_ode():
    """Quadrature normalization within 1e-10 relative (n <= 10, j <= 6);
    the confluent family matches the independent series within 1e-8
    (n <= 5, j <= 4, x in [0, 0.9]); the rate-family ODE residual stays
    below 1e-8 on (0, 1]."""
    for n in range(1, 11):
        for j in range(7):
            expected = (-n) ** j * math.comb(2 * j, j)
            got = eval_K_derivative(n, j, 0.0).value
            assert abs(got - expected) <= 1e-10 * abs(expected), (n, j)
    for n in range(1, 6):
        for j in range(5):
            params = ConfluentHeunParams(n, j + 1.0, 0.0, j + 0.5,
                                         2.0 * n * (2 * j + 1))
            for i in range(10):
                x = 0.1 * i
                family = eval_HC_family(n, j, x).value
                series = eval_confluent_heun(params, x, TIGHT).value
                assert scaled_ok(family, series, 1e-8), (n, j, x)
    for n in range(1, 6):
        for i in range(1, 11):
            x = 0.1 * i
            residual = (x * eval_K_derivative(n, 2, x).value
                        + (4 * n * x + 1) * eval_K_derivative(n, 1, x).value
                        + 2 * n * eval_K_derivative(n, 0, x).value)
            assert abs(residual) < 1e-8, (n, x)
    print("\nACCEPTANCE 7: PASS - derivative normalization within 1e-10 "
          "relative; confluent family within 1e-8 of the series; "
          "ODE residual < 1e-8 on (0, 1]")


def test_criterion_8_relation_suite():
    """Every relation passes 100 seeded random trials with worst residual
    below 1e-7."""
    for relation_id in RELATION_IDS:
        report = check_relation(relation_id, trials=100, tol=1e-7, seed=0)
        assert report.passed, report
    print("\nACCEPTANCE 8: PASS - all 11 relations below 1e-7 over "
          "100 seeded trials each")


def test_criterion_9_entropy_contract():
    """Each computed index lies in (0, 1] on its domain and the two
    entropies are exactly -log s and 1 - s."""
    samples = []
    for n in (1, 3, 7):
        samples += [eval_F(n, i / 10, FMethod.DEFINITIONAL).value for i in range(11)]
        samples += [eval_G(n, 0.3 * i, GMethod.DEFINITIONAL, TIGHT).value
                    for i in range(11)]
        samples += [eval_K(n, 0.3 * i, TIGHT).value for i in range(11)]
    for s in samples:
        assert 0.0 < s <= 1.0 + 1e-12
        assert entropy(s, EntropyKind.RENYI) == -math.log(s)
        assert entropy(s, EntropyKind.TSALLIS) == 1.0 - s
    print("\nACCEPTANCE 9: PASS - indices in (0, 1]; entropies exactly "
          "-log s and 1 - s for", len(samples), "samples")


DOCUMENTED_INVOCATIONS = [
    ["eval", "--target", "F", "--n", "2", "--x", "0.5",
     "--method", "established"],
    ["eval", "--target", "heun", "--a", "0.5", "--q", "-1", "--alpha", "-2",
     "--beta", "1", "--gamma", "1", "--delta", "1", "--x", "0.25"],
    ["entropy", "--target", "K", "--n", "2", "--x", "0.3", "--kind", "renyi"],
    ["table", "--target", "K", "--n", "1", "--grid", "0:1:0.1",
     "--output", "csv"],
    ["table", "--target", "G", "--n", "3", "--grid", "0:2:0.25",
     "--output", "json"],
    ["crosscheck", "--target", "F", "--n", "5", "--grid", "0:1:0.05"],
    ["verify", "--max-n", "12", "--trials", "20", "--seed", "0"],
]


def _run_cli(argv):
    return subprocess.run([sys.executable, "-m", "heunic.cli", *argv],
                          capture_output=True, timeout=300)


def test_criterion_10_cli_determinism_and_mutation_gate():
    """Documented invocations are byte-identical across two runs; an
    injected identity mutation flips verify to exit code 1."""
    for argv in DOCUMENTED_INVOCATIONS:
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first.returncode == 0, (argv, first.stderr)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout, argv
        assert first.stderr == second.stderr, argv
    mutated = _run_cli(["verify", "--max-n", "12", "--trials", "20",
                        "--seed", "0", "--mutate-identity", "4"])
    assert mutated.returncode == 1
    print("\nACCEPTANCE 10: PASS -", len(DOCUMENTED_INVOCATIONS),
          "documented invocations byte-identical across runs; "
          "mutation hook flips verify to exit 1")
