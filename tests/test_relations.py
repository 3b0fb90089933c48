"""Relation suite: derivative ladders, transformation, route equalities."""

import math
import random
import re
from pathlib import Path

import mpmath
import pytest

from heunic import (
    RELATION_IDS,
    pochhammer,
    UnknownRelationError,
    check_relation,
)
from heunic.relations import (
    confluent_route_equality_sides,
    derivative_half_sides,
    derivative_raised_sides,
    derivative_reflected_sides,
    gauss_weighted_derivative_sides,
    k_slope_sides,
)


# The first trial point of every relation at seeds 0 and 1: a sampler that
# reorders or changes its draws changes them.  Only random.Random feeds these
# values, so they are the same on every platform.
FIRST_DRAWS = {
    ("rel_2_3", 0): {
        "a": 0.4631294578902688, "alpha": -0.7502395320161086, "beta": -0.7402989874939605,
        "gamma": 0.9948360141364416, "delta": 0.9984930326754324,
        "x": 0.12372129254263489},
    ("rel_2_3", 1): {
        "a": 0.31038549700627605, "alpha": -1.802349716011936, "beta": -2.0060077990830587,
        "gamma": 1.057860913724039, "delta": 0.55996154475716, "x": 0.025489133215566628},
    ("rel_2_4", 0): {
        "a": 0.6005695108986084, "alpha": -2.161955529971589, "beta": -2.973263504168612,
        "gamma": 1.6258580776210756, "delta": 1.121447759334273, "x": 0.03534363907479336},
    ("rel_2_4", 1): {
        "a": 0.5386258587540407, "alpha": 0.9312117994722175, "beta": -0.08419045465857211,
        "gamma": 1.8642038042844387, "delta": 1.7686384693816122,
        "x": 0.15340737094722134},
    ("rel_2_5", 0): {
        "alpha": -1.2940686428607182, "beta": 0.6591255687074655,
        "gamma": 0.7675621803386765, "x": 0.2126260053441741},
    ("rel_2_5", 1): {
        "alpha": 2.5109935051074483, "beta": -0.38385506672039726,
        "gamma": 1.3937277540382706, "x": 0.13824432803521292},
    ("rel_2_6", 0): {
        "alpha": 1.0997690603381365, "beta": 0.06209811365986084,
        "gamma": 2.8507245380019883, "x": 0.12769518230404775},
    ("rel_2_6", 1): {
        "alpha": -0.08468292826339141, "beta": -1.6000733037473625,
        "gamma": 2.5012162252793564, "x": 0.197899018711442},
    ("rel_5_1", 0): {
        "a": 0.5473796457954329, "alpha": -2.2434294734954077, "beta": 1.943354652859191,
        "gamma": 2.496522487486054, "delta": 1.7577033676574836, "x": 0.0675619042848746},
    ("rel_5_1", 1): {
        "a": 0.5742910107060217, "alpha": -1.0281550060223417, "beta": -2.4486353364630404,
        "gamma": 1.7663212286947347, "delta": 2.5313490149792104,
        "x": 0.20343893457224577},
    ("rel_4_1", 0): {
        "p": 1.4935905218678036, "gamma": 2.9901340821861475, "alpha": 1.0050025371698164,
        "x": 0.12430128610760448},
    ("rel_4_1", 1): {
        "p": 0.4436965116576612, "gamma": 1.2261175718648805, "alpha": -1.099987892513953,
        "x": 0.3585520103839857},
    ("rel_4_2", 0): {
        "p": 1.6738933375243916, "gamma": 0.566254398614485, "alpha": 1.2605685518489045,
        "x": 0.184920552103235},
    ("rel_4_2", 1): {
        "p": 0.3907782821112785, "gamma": 2.2734983943582234, "alpha": -0.6757926366315177,
        "x": 0.34939425287958215},
    ("rel_4_3", 0): {
        "n": 6, "x": 0.16159995394900667},
    ("rel_4_3", 1): {
        "n": 7, "x": 0.17307225709329216},
    ("rel_1_9", 0): {
        "a": 0.3837025726694854, "q": -0.733326102904404, "alpha": 0.57847490577196,
        "beta": -1.2952993356275715, "gamma": 2.4915320894126203,
        "delta": 2.367842337713161, "x": 0.15171897424318623},
    ("rel_1_9", 1): {
        "a": 0.6187738964730762, "q": -0.9440382015562636, "alpha": 0.5514701411615652,
        "beta": -2.153750658874751, "gamma": 1.8073649448499371,
        "delta": 2.8588611878643855, "x": 0.13666220046046443},
    ("rel_5_2", 0): {
        "a": 1.9933206182484904, "b": 2.6599280569719292, "c": 1.8437626271711125, "m": 1,
        "x": 0.0557655917920322},
    ("rel_5_2", 1): {
        "a": 0.6615381762103878, "b": 2.4471238906809525, "c": 0.8609713664324632, "m": 1,
        "x": 0.07879807611046118},
    ("rel_4_1_eq_4_2", 0): {
        "p": 0.842073080568156, "gamma": 1.2554599116528764, "alpha": 2.8073216429655385,
        "x": 0.3639246176046612},
    ("rel_4_1_eq_4_2", 1): {
        "p": 1.4272004062673072, "gamma": 1.8277396460241908, "alpha": 0.6636784618840146,
        "x": 0.0970352257112518},
}


class TestSpotValues:
    def test_half_case_slope_at_origin(self):
        # at x = 0 both sides reduce to alpha*beta/gamma
        alpha, beta, gamma = 1.7, -0.9, 1.3
        lhs, rhs = derivative_half_sides(alpha, beta, gamma, 0.0, reflected=False)
        assert lhs == pytest.approx(alpha * beta / gamma, abs=1e-12)
        assert rhs == pytest.approx(alpha * beta / gamma, abs=1e-12)

    def test_k_slope_at_origin(self):
        # the normalized solution is 1 and K'(0)/(2n(0-1)) = 1
        for n in (1, 3, 6):
            lhs, rhs = k_slope_sides(n, 0.0)
            assert lhs == pytest.approx(1.0, abs=1e-12)
            assert rhs == pytest.approx(1.0, abs=1e-10)

    def test_transformation_spot(self):
        from heunic import GeneralHeunParams
        from heunic.relations import homotopy_sides
        lhs, rhs = homotopy_sides(GeneralHeunParams(0.5, 1, 2, 1, 1, 1), 0.2)
        assert abs(lhs - rhs) < 1e-10
        assert lhs == pytest.approx(1 / 0.6, rel=1e-12)


class TestTwoRouteSymmetry:
    def test_raised_and_reflected_right_sides_agree(self):
        # the two derivative routes must produce the same right-hand value
        rng = random.Random(1234)
        for _ in range(40):
            a = rng.uniform(0.3, 0.7)
            alpha = rng.uniform(-3, 3)
            beta = rng.uniform(-3, 3)
            gamma = rng.uniform(0.5, 3)
            delta = rng.uniform(0.5, 3)
            x = rng.uniform(0, 0.45 * min(1.0, a))
            _, rhs1 = derivative_raised_sides(a, alpha, beta, gamma, delta, x,
                                              explicit_pair=False)
            _, rhs2 = derivative_reflected_sides(a, alpha, beta, gamma, delta, x)
            assert abs(rhs1 - rhs2) <= 1e-10 * max(1.0, abs(rhs1), abs(rhs2))

    def test_confluent_route_equality_explicit(self):
        lhs, rhs = confluent_route_equality_sides(1.2, 0.9, 0.4, 0.3)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGaussWeightedDerivative:
    @pytest.mark.parametrize("m", [1, 2])
    def test_log_family_instance(self, m):
        lhs, rhs = gauss_weighted_derivative_sides(1.0, 1.0, 2.0, m, 0.3)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_left_side_against_fixed_length_horner(self):
        # the earlier left side, kept as the reference: 320 Gauss coefficients
        # and one Horner pass per derivative order, with exact falling factorials
        def horner_derivative(coeffs, k, x):
            total = 0.0
            for j in range(len(coeffs) - 1, k - 1, -1):
                total = total * x + coeffs[j] * math.perm(j, k)
            return total

        rng = random.Random(53)
        for _ in range(400):
            a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
            c, m, x = rng.uniform(0.5, 3), rng.choice((1, 2)), rng.uniform(0, 0.45)
            coeffs = [1.0]
            for j in range(319):
                coeffs.append(coeffs[-1] * (a + j) * (b + j) / ((c + j) * (j + 1)))
            s = a + m - 1.0
            ref = sum(math.comb(m, i) * (-1) ** i * pochhammer(s - i + 1.0, i)
                      * (1.0 - x) ** (m - i) * horner_derivative(coeffs, m - i, x)
                      for i in range(m + 1))
            lhs, _ = gauss_weighted_derivative_sides(a, b, c, m, x)
            assert abs(lhs - ref) <= 1e-12 * max(1.0, abs(ref)), (a, b, c, m, x)

    def test_left_side_against_numerical_derivative(self):
        # the trial distribution of rel_5_2, differentiated by mpmath at 30 digits
        rng = random.Random(52)
        with mpmath.workdps(30):
            for _ in range(40):
                a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
                c, m, x = rng.uniform(0.5, 3), rng.choice((1, 2)), rng.uniform(0, 0.45)
                ref = (1 - mpmath.mpf(x)) ** (1 - a) * mpmath.diff(
                    lambda t: (1 - t) ** (a + m - 1) * mpmath.hyp2f1(a, b, c, t), x, m)
                lhs, _ = gauss_weighted_derivative_sides(a, b, c, m, x)
                assert abs(lhs - ref) <= 1e-12 * max(1.0, abs(ref)), (a, b, c, m, x)


class TestReports:
    @pytest.mark.parametrize("relation_id", RELATION_IDS)
    def test_all_relations_pass_quick(self, relation_id):
        report = check_relation(relation_id, trials=25, tol=1e-7, seed=0)
        assert report.passed, report
        assert report.worst_residual <= report.tol
        assert report.trials == 25
        assert "x" in report.worst_point

    def test_report_is_deterministic(self):
        a = check_relation("rel_1_9", trials=10, tol=1e-7, seed=7)
        b = check_relation("rel_1_9", trials=10, tol=1e-7, seed=7)
        assert a == b
        c = check_relation("rel_1_9", trials=10, tol=1e-7, seed=8)
        assert c.worst_residual != a.worst_residual

    def test_pass_flag_matches_tolerance(self):
        report = check_relation("rel_2_5", trials=10, tol=1e-30, seed=0)
        assert not report.passed
        assert report.worst_residual > report.tol

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelationError):
            check_relation("rel_9_9", trials=5, tol=1e-7)
        with pytest.raises(UnknownRelationError):
            check_relation("rel_1_9", trials=0, tol=1e-7)


class TestDrawOrder:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("relation_id", RELATION_IDS)
    def test_first_draw_is_pinned(self, relation_id, seed):
        point = check_relation(relation_id, trials=1, tol=1.0, seed=seed).worst_point
        drawn = {k: v for k, v in point.items() if k not in ("lhs", "rhs")}
        assert drawn == FIRST_DRAWS[relation_id, seed]


def test_readme_lists_the_relation_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"^\| `(rel_\w+)` \|", readme, re.M) == list(RELATION_IDS)
