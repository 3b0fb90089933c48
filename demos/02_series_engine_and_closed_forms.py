"""The local series engines against the explicit closed-form families.

The series engines integrate the two equations by three-term coefficient
recurrences around the origin.  For special parameter families the same
functions collapse to finite sums, giving a completely independent route:
this script compares the two on a grid, shows the power-pulling
transformation in action, and prints equation residuals of the computed
series.
"""

from heunic import (
    FamilyParamsNeg,
    FamilyParamsPos,
    GeneralHeunParams,
    eval_family_negative,
    eval_family_positive,
    eval_heun_local,
    heun_ode_residual,
    heun_slope_at_origin,
    transform_homotopy,
)


def relative_spread(closed, series):
    return abs(closed - series) / max(abs(closed), abs(series), 1.0)


def main():
    print("Closed form vs series engine, family u(1/2,-2n*th;-2n,2th;g,g;x)")
    for n, theta, gamma in [(3, 0.5, 1.0), (6, 2.5, 2.0), (10, 1.0, 3.0)]:
        fp = FamilyParamsNeg(n, theta, gamma)
        params = GeneralHeunParams(0.5, -2 * n * theta, -2 * n, 2 * theta,
                                   gamma, gamma)
        worst = max(relative_spread(eval_family_negative(fp, 0.05 * i).value,
                                    eval_heun_local(params, 0.05 * i).value)
                    for i in range(-9, 10))
        print(f"  n={n:2d} theta={theta} gamma={gamma}: "
              f"worst relative diff = {worst:.2e}")

    print("\nPrefactored family u(1/2,2n*th;2n,2th;g,g;x), integer 0 < g <= n")
    for n, theta, gamma in [(4, 0.5, 2), (8, 2.5, 3)]:
        fp = FamilyParamsPos(n, theta, gamma)
        params = GeneralHeunParams(0.5, 2 * n * theta, 2 * n, 2 * theta,
                                   float(gamma), float(gamma))
        worst = max(relative_spread(eval_family_positive(fp, 0.05 * i).value,
                                    eval_heun_local(params, 0.05 * i).value)
                    for i in range(-9, 10))
        print(f"  n={n} theta={theta} gamma={gamma}: "
              f"worst relative diff = {worst:.2e}")

    print("\nPower-pulling transformation")
    p = GeneralHeunParams(0.5, 1.0, 2.0, 1.0, 1.0, 1.0)
    exponent, transformed = transform_homotopy(p)
    x = 0.2
    lhs = eval_heun_local(p, x).value
    rhs = (1 - x / p.a) ** exponent * eval_heun_local(transformed, x).value
    print(f"  u(a,q;alpha,beta;gamma,delta;{x}) = {lhs:.12f}")
    print(f"  (1-x/a)^{exponent:g} * u(transformed; {x}) = {rhs:.12f}")
    print(f"  slope at origin q/(a*gamma) = {heun_slope_at_origin(p):g}")

    print("\nEquation residuals of the evaluated series")
    for x in (0.1, 0.2, 0.2125):
        print(f"  residual at x={x}: {heun_ode_residual(p, x):.2e}")


if __name__ == "__main__":
    main()
