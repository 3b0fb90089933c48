"""Relation suite: derivative ladders, transformation, route equalities."""

import random

import mpmath
import pytest

from heunic import (
    RELATION_IDS,
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
