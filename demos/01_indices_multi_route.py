"""Tour of the three indices of coincidence and their evaluation routes.

Each index is the probability that two independent draws from the
distribution agree.  F covers the n-trial two-outcome family on [0, 1],
G the waiting-time family on [0, inf), K the rate family on [0, inf).
F has five independent routes and G four; this script sweeps a grid,
reports the worst disagreement between routes, and converts a few values
into the order-2 entropies.
"""

import math

from heunic import (
    EntropyKind,
    FMethod,
    entropy,
    eval_F,
    eval_K,
)
from heunic.routes import crosscheck


def main():
    for name, heading, xs, orders in (
            ("F", "Two-outcome index F_n: five routes on a 0..1 grid",
             [i / 50 for i in range(51)], (1, 5, 12, 20)),
            ("G", "\nWaiting-time index G_n: four routes on a 0..3 grid",
             [0.06 * i for i in range(51)], (1, 5, 10, 15))):
        print(heading)
        for n in orders:
            worst, _x, _converged = crosscheck(name, {"n": n}, xs)
            print(f"  n={n:2d}: worst spread over routes = {worst:.2e}")

    print("\nRate index K_n by truncated summation")
    for n in (1, 3, 8):
        for x in (0.1, 0.5, 1.0):
            r = eval_K(n, x)
            print(f"  K_{n}({x}) = {r.value:.12f}"
                  f"  ({r.terms_used} terms, tail <= {r.error_estimate:.1e})")

    print("\nEntropies of order 2 from the index values")
    for n, x in [(2, 0.5), (4, 0.25)]:
        s = eval_F(n, x, FMethod.DEFINITIONAL).value
        print(f"  F_{n}({x}) = {s:.6f}: "
              f"log-entropy = {entropy(s, EntropyKind.RENYI):.6f}, "
              f"linear entropy = {entropy(s, EntropyKind.TSALLIS):.6f}")
    # sanity: a deterministic distribution has index 1 and zero entropy
    assert entropy(1.0, EntropyKind.RENYI) == 0.0
    assert math.isclose(entropy(0.375, EntropyKind.RENYI), math.log(8 / 3))
    print("\nAll routes agree; entropies follow -log s and 1 - s exactly.")


if __name__ == "__main__":
    main()
