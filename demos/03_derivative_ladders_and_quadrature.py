"""Derivative ladders, the integral representation, and the Gauss bridge.

Derivatives of both solution families land back inside the families with
shifted parameters.  For the rate index K_n there is additionally an
integral representation

    K_n^(j)(x) = (2/pi) 4^j (-n)^j  Int_0^{pi/2} (sin t)^{2j} e^{-4nx sin^2 t} dt

whose x = 0 value (-n)^j C(2j,j) pins the normalization of the related
confluent solutions.  The same Heun family that hosts the waiting-time
index is also reachable through Gauss hypergeometric machinery.
"""

import math

from heunic import (
    ConfluentHeunParams,
    check_relation,
    eval_confluent_heun,
    eval_HC_family,
    eval_hl_hypergeometric,
    eval_heun_local,
    eval_K_derivative,
    GeneralHeunParams,
)


def main():
    print("Quadrature normalization K_n^(j)(0) = (-n)^j C(2j,j)")
    for n, j in [(1, 1), (2, 3), (10, 6)]:
        r = eval_K_derivative(n, j, 0.0)
        exact = (-n) ** j * math.comb(2 * j, j)
        print(f"  n={n:2d} j={j}: quadrature = {r.value:.6e}, exact = {exact}, "
              f"trapezoid estimate = {r.error_estimate:.1e}")

    print("\nNormalized derivatives vs the independent confluent series")
    for n, j, x in [(1, 1, 0.2), (3, 2, 0.5), (5, 4, 0.9)]:
        family = eval_HC_family(n, j, x).value
        series = eval_confluent_heun(
            ConfluentHeunParams(n, j + 1.0, 0.0, j + 0.5, 2.0 * n * (2 * j + 1)),
            x).value
        print(f"  n={n} j={j} x={x}: quadrature route {family:.12f}, "
              f"series route {series:.12f}, diff {abs(family - series):.1e}")

    print("\nRate-index equation residual x K'' + (4nx+1) K' + 2n K")
    for n in (1, 4):
        worst = max(abs(0.1 * i * eval_K_derivative(n, 2, 0.1 * i).value
                        + (4 * n * 0.1 * i + 1) * eval_K_derivative(n, 1, 0.1 * i).value
                        + 2 * n * eval_K_derivative(n, 0, 0.1 * i).value)
                    for i in range(1, 11))
        print(f"  n={n}: worst residual on (0, 1] = {worst:.2e}")

    print("\nGauss-hypergeometric route for u(1/2, q; 2q, 1; 1, 1; x)")
    for q in (0.5, 1.0, 1.5):
        params = GeneralHeunParams(0.5, q, 2 * q, 1.0, 1.0, 1.0)
        x = 0.3
        bridge = eval_hl_hypergeometric(q, x).value
        series = eval_heun_local(params, x).value
        print(f"  q={q}: bridge {bridge:.12f}, series {series:.12f}, "
              f"diff {abs(bridge - series):.1e}")

    print("\nSeeded relation checks (worst absolute residual, 40 trials)")
    for relation_id in ("rel_2_5", "rel_4_1", "rel_4_3", "rel_1_9"):
        report = check_relation(relation_id, trials=40, tol=1e-7, seed=0)
        flag = "ok" if report.passed else "FAIL"
        print(f"  {relation_id}: {report.worst_residual:.2e} [{flag}]")


if __name__ == "__main__":
    main()
