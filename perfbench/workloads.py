"""Seeded operation batches of the three workloads.

A batch is the fixed list of public calls one pass makes.  It is built
from ``--seed`` alone, and the program sees only the generated inputs.
heunic is imported inside the builders, never at module level, so that
``setup_probe.py`` can time ``import heunic`` in a fresh interpreter;
this module imports neither numpy nor mpmath.
"""

from __future__ import annotations

import functools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

WORKLOADS = ("exact_routes", "float_routes", "cli_cold")

# exact_routes: the same n recur in every pass, so the per-n caches are warm
EXACT_NS = (10, 20, 30, 45, 60, 80, 100)
IDENTITY_MAX_N = 24

# float_routes: calls per pass of each op class
FLOAT_DRAWS = {
    "series.heun_direct": 40,
    "series.heun_rescued": 12,
    "series.confluent_direct": 40,
    "series.confluent_rescued": 12,
    "coincidence.F_definitional": 30,
    "coincidence.G_definitional": 30,
    "coincidence.K_sum": 30,
    "coincidence.K_quadrature": 30,
    "hypergeom.gauss_2f1": 30,
    "hypergeom.hl_hyp": 30,
    "hypergeom.clausen_3f2": 10,
    "hypergeom.gauss_2f1_closed": 18,
}
RELATION_TRIALS = 30
RELATION_TOL = 1e-7


class Op(NamedTuple):
    """One public call: ``func(*args)``, of op class ``cls``.

    ``key`` groups the calls whose first occurrence fills lazy state (the
    warm-up); None means the op leaves no state behind.  ``fault`` names
    the known defect an op exercises, if any.
    """

    cls: str
    func: Callable
    args: tuple
    key: object
    fault: str | None = None


def build(workload: str, seed: int, env: dict | None = None) -> list[Op]:
    """The batch of ``workload`` for ``seed``.

    ``env`` is the environment of the `heunic` processes of cli_cold.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact_routes":
        return _round_robin(_exact_ops(rng))
    if workload == "float_routes":
        return _round_robin(_float_ops(rng, seed))
    if workload == "cli_cold":
        return _cli_ops(rng, seed, env)
    raise KeyError(f"unknown workload {workload!r}")


def warmup(batch: list[Op]) -> list[Op]:
    """The first op of every warm-up key, in batch order."""
    seen, first = {None}, []
    for op in batch:
        if op.key not in seen:
            seen.add(op.key)
            first.append(op)
    return first


def _round_robin(ops: list[Op]) -> list[Op]:
    """Interleave op classes so a slow phase of the host falls on all alike."""
    queues: dict[str, list[Op]] = {}
    for op in ops:
        queues.setdefault(op.cls, []).append(op)
    out = []
    while queues:
        for cls in list(queues):
            out.append(queues[cls].pop(0))
            if not queues[cls]:
                del queues[cls]
    return out


# ---------------------------------------------------------------------------
# exact_routes


def _exact_ops(rng: random.Random) -> list[Op]:
    from heunic import (
        FamilyParamsNeg,
        FamilyParamsPos,
        FMethod,
        GMethod,
        Mutation,
        check_identity_A,
        check_identity_B,
        eval_F,
        eval_family_negative,
        eval_family_positive,
        eval_G,
        eval_sample_family,
    )

    ops = []
    for n in EXACT_NS:
        # full-mantissa x: a dyadic x such as 0.25 makes exact sums cheap
        for x in (rng.uniform(0.0, 1.0), rng.uniform(-1.5, 2.5)):
            for method in (FMethod.FACTORED, FMethod.POWER, FMethod.ESTABLISHED,
                           FMethod.EXPANDED):
                ops.append(Op(f"coincidence.F_{method.value}", eval_F,
                              (n, x, method), (method, n)))
        for x in (rng.uniform(0.0, 4.0), rng.uniform(-0.45, -0.05)):
            for method in (GMethod.FACTORED, GMethod.POWER, GMethod.ESTABLISHED):
                ops.append(Op(f"coincidence.G_{method.value}", eval_G,
                              (n, x, method), (method, n)))
        for x in (rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0)):
            fp = FamilyParamsNeg(n, rng.uniform(-3.0, 3.0), rng.uniform(0.2, 4.0))
            ops.append(Op("closed_forms.family_negative", eval_family_negative,
                          (fp, x), ("neg", n)))
        # the sums run over n - gamma and n - i terms; drawing each pair as
        # (g, n + 1 - g) and (i, n - i) keeps the work of a pass seed-independent
        gamma = rng.randint(1, n)
        for g in (gamma, n + 1 - gamma):
            fp = FamilyParamsPos(n, rng.uniform(0.1, 2.0), g)
            ops.append(Op("closed_forms.family_positive", eval_family_positive,
                          (fp, rng.uniform(-0.3, 0.45)), ("pos", n)))
        i = rng.randint(0, n)
        for j in (i, n - i):
            ops.append(Op("closed_forms.sample_family", eval_sample_family,
                          (n, j, rng.uniform(-1.0, 2.0)), ("sample", n)))
    for n in range(IDENTITY_MAX_N + 1):
        for k in range(n + 1):
            ops.append(Op("identities.identity_A", check_identity_A, (n, k, None), "A"))
            ops.append(Op("identities.identity_B", check_identity_B, (n, k, None), "B"))
    # every mutation must break the identity; with n >= 2k + 2 none is
    # absorbed by a binomial symmetry such as C(2k+1, k) = C(2k+1, k+1)
    for site in range(10):
        for cls, check in (("identities.identity_A", check_identity_A),
                           ("identities.identity_B", check_identity_B)):
            n = rng.randint(4, IDENTITY_MAX_N)
            k = rng.randint(1, n // 2 - 1)
            ops.append(Op(cls, check, (n, k, Mutation(site, 1)), cls[-1]))
    return ops


# ---------------------------------------------------------------------------
# float_routes


def _float_ops(rng: random.Random, seed: int) -> list[Op]:
    from heunic import (
        RELATION_IDS,
        Clausen3F2Params,
        ConfluentHeunParams,
        FMethod,
        Gauss2F1Params,
        GeneralHeunParams,
        GMethod,
        check_relation,
        clausen_3f2_unit,
        eval_confluent_heun,
        eval_F,
        eval_G,
        eval_heun_local,
        eval_hl_hypergeometric,
        eval_K,
        gauss_2f1,
        gauss_2f1_closed,
        k_derivative_quadrature,
    )

    u = rng.uniform

    def spread(lo, hi, count):
        """One draw in each of ``count`` equal slices of [lo, hi), shuffled.

        The cost of most calls grows with one input (n, x or a parameter);
        spreading that input keeps the work of a pass nearly seed-independent.
        """
        values = [lo + (i + rng.random()) * (hi - lo) / count for i in range(count)]
        rng.shuffle(values)
        return values

    def spread_int(lo, hi, count):
        return [int(v) for v in spread(lo, hi + 1, count)]

    def heun_direct(count):
        for x in spread(-0.5, 0.5, count):
            a = rng.choice((1.0, -1.0)) * u(0.3, 3.0)
            p = GeneralHeunParams(a, u(-3, 3), u(-3, 3), u(-3, 3), u(0.5, 3), u(0.5, 3))
            yield p, x * p.radius

    def heun_rescued(count):
        # exponent -alpha-beta+gamma+delta >= 7 makes u tiny near x = a,
        # so the direct series cancels and the (1 - x/a)-power route runs
        for ratio in spread(0.88, 0.96, count):
            a = u(0.4, 0.9)
            p = GeneralHeunParams(a, u(-3, 3), u(-9, -5), u(-9, -5), u(0.5, 2), u(0.5, 2))
            yield p, ratio * a

    def confluent(p_range, x_range):
        def draws(count):
            for p, x in zip(spread(*p_range, count), spread(*x_range, count)):
                yield ConfluentHeunParams(p, u(0.5, 3), u(-2, 2), u(-3, 3), u(-3, 3)), x
        return draws

    def f_definitional(count):
        for n, x in zip(spread_int(10, 300, count), spread(0.0, 1.0, count)):
            yield n, x, FMethod.DEFINITIONAL

    def g_definitional(count):
        for n, x in zip(spread_int(5, 100, count), spread(0.01, 4.0, count)):
            yield n, x, GMethod.DEFINITIONAL

    def k_sum(count):
        # lambda = n x up to 300, below the known underflow from 360
        for lam in spread(0.5, 300.0, count):
            n = rng.randint(1, 400)
            yield n, lam / n

    def k_quadrature(count):
        for i, (n, x) in enumerate(zip(spread_int(1, 60, count), spread(0.0, 0.67, count))):
            yield n, i % 4, x

    def gauss(count):
        for x in spread(-0.9, 0.9, count):
            yield Gauss2F1Params(u(-3, 3), u(-3, 3), u(0.5, 3)), x

    def hl_hyp(count):
        # x < 0 puts 4x(1-x) below zero, where the Pfaff branch runs
        half = count // 2
        for x in spread(-0.6, -0.05, half) + spread(0.05, 0.45, count - half):
            yield u(0.2, 3.0), x

    def clausen(count):
        # Terminating series with positive terms: (-m)_k and (-m-t)_k share
        # their sign for k <= m.  Seeded draws of the paper's family
        # 3F2(1/2, q, q; q+1/2, q+1; 1) are left out: most q end unconverged.
        for m in spread_int(2, 40, count):
            yield (Clausen3F2Params(-float(m), u(0.2, 3), u(0.2, 3), -m - u(0.05, 0.95),
                                    u(0.5, 4)),)

    def gauss_closed(count):
        yield from zip(spread_int(1, 12, count), spread_int(0, 5, count),
                       spread(0.1, 0.95, count))

    draw = {
        "series.heun_direct": (eval_heun_local, heun_direct),
        "series.heun_rescued": (eval_heun_local, heun_rescued),
        "series.confluent_direct": (eval_confluent_heun, confluent((0.2, 2.0), (-0.6, 0.6))),
        "series.confluent_rescued": (eval_confluent_heun, confluent((3.0, 6.0), (0.7, 0.95))),
        "coincidence.F_definitional": (eval_F, f_definitional),
        "coincidence.G_definitional": (eval_G, g_definitional),
        "coincidence.K_sum": (eval_K, k_sum),
        "coincidence.K_quadrature": (k_derivative_quadrature, k_quadrature),
        "hypergeom.gauss_2f1": (gauss_2f1, gauss),
        "hypergeom.hl_hyp": (eval_hl_hypergeometric, hl_hyp),
        "hypergeom.clausen_3f2": (clausen_3f2_unit, clausen),
        "hypergeom.gauss_2f1_closed": (gauss_2f1_closed, gauss_closed),
    }
    ops = []
    for cls, count in FLOAT_DRAWS.items():
        func, draws = draw[cls]
        ops += [Op(cls, func, args, cls) for args in draws(count)]
    ops += [Op("relations.check", check_relation,
               (rid, RELATION_TRIALS, RELATION_TOL, seed), "relations")
            for rid in RELATION_IDS]
    # known faults, on fixed inputs: each fails every time until mended
    ops += [
        Op("coincidence.K_sum", eval_K, (372, 1.0), "coincidence.K_sum",
           "eval_K underflows exp(-2 lambda) from lambda = 360"),
        Op("coincidence.K_sum", eval_K, (1000, 0.9), "coincidence.K_sum",
           "eval_K returns 0.0 as converged at lambda = 900"),
        Op("coincidence.G_definitional", eval_G, (400, 5.0, GMethod.DEFINITIONAL),
           "coincidence.G_definitional",
           "G definitional underflows (1+x)^(-2n) and returns 0.0"),
        Op("hypergeom.clausen_3f2", clausen_3f2_unit,
           (Clausen3F2Params(0.5, 1.0, 1.0, 1.5, 2.0),), "hypergeom.clausen_3f2",
           "3F2(1/2,1,1;3/2,2;1) is not converged after 10000 terms"),
    ]
    return ops


# ---------------------------------------------------------------------------
# cli_cold


@dataclass(frozen=True)
class CliOutput:
    """Exit code, standard output and peak resident set of one process."""

    code: int
    stdout: str
    peak_rss_kb: int


def run_cli(env: dict, *argv: str) -> CliOutput:
    """Run one `heunic` process to completion, one at a time."""
    proc = subprocess.Popen([sys.executable, "-m", "heunic.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL, text=True)
    with proc:
        stdout = proc.stdout.read()
        # wait4 rather than wait: it also gives this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliOutput(proc.returncode, stdout, usage.ru_maxrss)


def _cli_ops(rng: random.Random, seed: int, env: dict) -> list[Op]:
    u = rng.uniform
    n = rng.randint(5, 200)
    a = u(0.5, 3.0)
    start = u(-0.45, -0.2) * min(1.0, a)
    f_grid = ",".join(repr(u(0.0, 1.0)) for _ in range(8))
    k_grid = ",".join(repr(u(0.0, 0.9)) for _ in range(8))
    argvs = {
        "cli.eval": ("eval", "--target", "K", "--n", str(n), "--x", repr(u(0.5, 300.0) / n)),
        "cli.table": (
            "table", "--target", "heun", "--a", repr(a), "--q", repr(u(-3, 3)),
            "--alpha", repr(u(-3, 3)), "--beta", repr(u(-3, 3)),
            "--gamma", repr(u(0.5, 3)), "--delta", repr(u(0.5, 3)),
            # "=" keeps argparse from reading the leading minus as an option
            f"--grid={start!r}:{-start!r}:{-start / 8!r}"),
        "cli.crosscheck_F": ("crosscheck", "--target", "F", "--n", str(rng.randint(30, 50)),
                             "--grid", f_grid, "--tol", "1e-12"),
        "cli.crosscheck_K": ("crosscheck", "--target", "K", "--n", str(rng.randint(5, 40)),
                             "--grid", k_grid, "--tol", "1e-9"),
        "cli.verify": ("verify", "--max-n", "12", "--trials", "10", "--seed", str(seed)),
    }
    run = functools.partial(run_cli, env)
    # each op is a fresh process, so no op leaves warm state behind
    return [Op(cls, run, argv, None) for cls, argv in argvs.items()]
