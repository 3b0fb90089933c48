"""Reference values and output checks, computed apart from heunic.

Every check compares a program output with a value this module computes
by other means: exact integer or ``Fraction`` sums of the defining
series, three-term recurrences of the two differential equations run in
``mpmath`` at 50 or more digits, ``mpmath.besseli``, ``mpmath.quad``,
``mpmath.hyp2f1`` and ``mpmath.hyp3f2``.  Nothing here imports heunic,
and no reference is a saved copy of earlier program output.

``expect(op)`` returns an ``Expected`` record and ``judge(op, output,
expected)`` says whether the output passes.  ``perturb`` alters an
output by just more than its tolerance; ``self_test`` uses it to show
that every checker rejects a wrong value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath

DPS = 50

# Relative tolerances of the float routes: at least 100 times the worst
# true error seen over 100 seeds (README, "Output checks"), so that a draw
# near a zero of the function does not fail a correct route, and far below
# any error a real fault leaves.
REL_TOL = {
    "series.heun_direct": 1e-11,
    "series.heun_rescued": 1e-9,
    "series.confluent_direct": 1e-10,
    "series.confluent_rescued": 1e-9,
    "coincidence.F_definitional": 1e-11,
    "coincidence.G_definitional": 1e-10,
    "coincidence.K_sum": 1e-11,
    "coincidence.K_quadrature": 1e-10,
    "hypergeom.gauss_2f1": 1e-9,
    "hypergeom.hl_hyp": 1e-10,
    "hypergeom.clausen_3f2": 1e-11,
    "hypergeom.gauss_2f1_closed": 1e-11,
    "cli.eval": 1e-11,
    "cli.table": 1e-10,
}


@dataclass(frozen=True)
class Expected:
    """What a correct output looks like.

    ``rule`` is ``"equal"`` (bit for bit), ``"ulp"`` (within one unit in
    the last place), ``"rel"`` (relative error at most ``tol``) or
    ``"report"`` (a pass/fail record whose expected verdict is ``value``).
    """

    value: object
    rule: str
    tol: float = 0.0


# ---------------------------------------------------------------------------
# exact sums


def exact_F(n: int, x: float) -> Fraction:
    """sum_k (C(n,k) x^k (1-x)^(n-k))^2 in integers over a power of two."""
    xr = Fraction(x)
    p, q = xr.numerator, xr.denominator
    total = 0
    for k in range(n + 1):
        total += (math.comb(n, k) * p**k * (q - p) ** (n - k)) ** 2
    return Fraction(total, q ** (2 * n))


def heun_polynomial(a, q, alpha, beta, gamma, delta, x, degree: int) -> Fraction:
    """Terminating local Heun series of the given degree, exactly.

    Coefficients follow DLMF 31.3.3; the two coefficients past the
    degree must vanish, which proves the series is that polynomial.
    """
    eps = alpha + beta + 1 - gamma - delta
    c = [Fraction(1), Fraction(q) / (a * gamma)]
    for k in range(1, degree + 2):
        rhs = (k * ((k - 1 + gamma) * (1 + a) + a * delta + eps) + q) * c[k] \
            - (k - 1 + alpha) * (k - 1 + beta) * c[k - 1]
        c.append(rhs / (a * (k + 1) * (k + gamma)))
    if c[degree + 1] or c[degree + 2]:
        raise ArithmeticError("Heun series does not terminate at the degree")
    total = Fraction(0)
    for ck in reversed(c[:degree + 1]):
        total = total * x + ck
    return total


# ---------------------------------------------------------------------------
# series of the two equations in mpmath


def _sum_recurrence(first, step, x, dps: int):
    """Sum c_k x^k with c_0 = 1, c_1 = first(), c_{k+1} = step(k, c_k, c_{k-1}).

    Stops after five terms in a row below 1e-(dps-15) of the sum.  Returns
    the sum and the sum of absolute terms.
    """
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        c_prev, c_cur = mpmath.mpf(1), first()
        total = c_prev + c_cur * x
        abs_total = 1 + abs(c_cur * x)
        xk = x
        small = 0
        cut = mpmath.mpf(10) ** (15 - dps)
        for k in range(1, 200000):
            c_prev, c_cur = c_cur, step(k, c_cur, c_prev)
            xk *= x
            term = c_cur * xk
            total += term
            abs_total += abs(term)
            small = small + 1 if abs(term) <= cut * abs(total) else 0
            if small >= 5:
                return total, abs_total
    raise ArithmeticError("reference series did not converge")


def _adaptive(series, x):
    """Run ``series(x, dps)`` with enough digits to survive its cancellation."""
    total, abs_total = series(x, DPS)
    lost = mpmath.log10(abs_total / abs(total)) if total else mpmath.inf
    if lost > 20:
        total, _ = series(x, DPS + int(lost) + 10)
    return total


def heun_local_mp(a, q, alpha, beta, gamma, delta, x):
    """Local solution of the four-point equation, u(0) = 1 (DLMF 31.3.3)."""
    def series(x, dps):
        with mpmath.workdps(dps):
            A, Q, al, be, ga, de = map(mpmath.mpf, (a, q, alpha, beta, gamma, delta))
            ep = al + be + 1 - ga - de

            def step(k, c, c_prev):
                return ((k * ((k - 1 + ga) * (1 + A) + A * de + ep) + Q) * c
                        - (k - 1 + al) * (k - 1 + be) * c_prev) / (A * (k + 1) * (k + ga))
            return _sum_recurrence(lambda: Q / (A * ga), step, x, dps)
    return _adaptive(series, x)


def confluent_mp(p, gamma, delta, alpha, sigma, x):
    """Confluent solution, u(0) = 1.

    Substituting sum c_k x^k into x(x-1)u'' + (4p x(x-1) + gamma(x-1)
    + delta x)u' + (4p alpha x - sigma)u = 0 gives
    (k+1)(k+gamma) c_{k+1} = [k(k-1+gamma+delta-4p) - sigma] c_k
                             + 4p(k-1+alpha) c_{k-1}.
    """
    def series(x, dps):
        with mpmath.workdps(dps):
            P, ga, de, al, si = map(mpmath.mpf, (p, gamma, delta, alpha, sigma))

            def step(k, c, c_prev):
                return ((k * (k - 1 + ga + de - 4 * P) - si) * c
                        + 4 * P * (k - 1 + al) * c_prev) / ((k + 1) * (k + ga))
            return _sum_recurrence(lambda: -si / ga, step, x, dps)
    return _adaptive(series, x)


# ---------------------------------------------------------------------------
# special functions


def G_mp(n: int, x: float):
    """(1+x)^(-2n) 2F1(n, n; 1; (x/(1+x))^2)."""
    with mpmath.workdps(DPS):
        x = mpmath.mpf(x)
        return (1 + x) ** (-2 * n) * mpmath.hyp2f1(n, n, 1, (x / (1 + x)) ** 2)


def K_mp(n: int, x: float):
    """e^(-2 lambda) I_0(2 lambda) with lambda = n x."""
    with mpmath.workdps(DPS):
        lam = n * mpmath.mpf(x)
        return mpmath.exp(-2 * lam) * mpmath.besseli(0, 2 * lam)


def K_derivative_mp(n: int, j: int, x: float):
    """(2/pi) 4^j (-n)^j Int_0^{pi/2} sin(t)^(2j) exp(-4nx sin(t)^2) dt."""
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        integral = mpmath.quad(
            lambda t: mpmath.sin(t) ** (2 * j) * mpmath.exp(-4 * n * x * mpmath.sin(t) ** 2),
            [0, mpmath.pi / 4, mpmath.pi / 2])
        return 2 / mpmath.pi * 4**j * (-n) ** j * integral


def hyp2f1_mp(a, b, c, x):
    with mpmath.workdps(DPS):
        return mpmath.hyp2f1(a, b, c, x)


def hl_hyp_mp(q: float, x: float):
    """(1-2x)^(1-2q) 2F1(1-q, 1/2; 1; 4x(1-x)) for x < 1/2."""
    with mpmath.workdps(DPS):
        q, x = mpmath.mpf(q), mpmath.mpf(x)
        return (1 - 2 * x) ** (1 - 2 * q) * mpmath.hyp2f1(1 - q, 0.5, 1, 4 * x * (1 - x))


def clausen_mp(a1, a2, a3, b1, b2):
    # a non-terminating unit-argument 3F2 costs mpmath about 0.3 s at 20
    # digits and grows fast with the precision; 20 leave 4 to spare
    with mpmath.workdps(20 if a1 > 0 else DPS):
        return mpmath.hyp3f2(a1, a2, a3, b1, b2, 1)


# ---------------------------------------------------------------------------
# per-class expectations


def expect(op) -> Expected:
    """Reference for one operation of a workload batch."""
    with mpmath.workdps(DPS):
        return _expect(op.cls, op.args)


def _expect(cls: str, args: tuple) -> Expected:
    if cls.startswith("coincidence.F_") and cls != "coincidence.F_definitional":
        n, x, _method = args
        return Expected(float(exact_F(n, x)), "equal")
    if cls.startswith("coincidence.G_") and cls != "coincidence.G_definitional":
        n, x, _method = args
        return Expected(G_mp(n, x), "ulp")
    if cls == "closed_forms.family_negative":
        fp, x = args
        theta, gamma = Fraction(fp.theta), Fraction(fp.gamma)
        value = heun_polynomial(Fraction(1, 2), -2 * fp.n * theta, -2 * fp.n,
                                2 * theta, gamma, gamma, Fraction(x), 2 * fp.n)
        return Expected(float(value), "equal")
    if cls == "closed_forms.family_positive":
        fp, x = args
        theta = mpmath.mpf(fp.theta)
        value = heun_local_mp(0.5, 2 * fp.n * theta, 2 * fp.n, 2 * theta,
                              fp.gamma, fp.gamma, x)
        # the program raises a rounded (1-2x) to the power -2(n-gamma+theta)
        exponent = abs(2 * (fp.n - fp.gamma + fp.theta))
        return Expected(value, "rel", (exponent + 8) * 2.0**-52)
    if cls == "closed_forms.sample_family":
        n, i, x = args
        value = heun_polynomial(Fraction(1, 2), (i - n) * (2 * i + 1), 2 * (i - n),
                                2 * i + 1, i + 1, i + 1, Fraction(x), 2 * (n - i))
        return Expected(float(value), "equal")
    if cls in ("identities.identity_A", "identities.identity_B"):
        n, k, mutation = args
        if mutation is not None:
            return Expected(False, "report")
        if cls == "identities.identity_A":
            rhs = 4 ** (n - k) * math.comb(n, k) * math.comb(2 * k, k)
        else:
            rhs = Fraction(math.comb(2 * k, k) * math.comb(2 * n - 2 * k, n - k),
                           4 ** (n - k) * math.comb(n, k))
        return Expected(rhs, "equal")
    if cls in ("series.heun_direct", "series.heun_rescued"):
        p, x = args
        return Expected(heun_local_mp(p.a, p.q, p.alpha, p.beta, p.gamma, p.delta, x),
                        "rel", REL_TOL[cls])
    if cls in ("series.confluent_direct", "series.confluent_rescued"):
        p, x = args
        return Expected(confluent_mp(p.p, p.gamma, p.delta, p.alpha, p.sigma, x),
                        "rel", REL_TOL[cls])
    if cls == "coincidence.F_definitional":
        n, x, _method = args
        return Expected(exact_F(n, x), "rel", REL_TOL[cls])
    if cls == "coincidence.G_definitional":
        n, x, _method = args
        return Expected(G_mp(n, x), "rel", REL_TOL[cls])
    if cls == "coincidence.K_sum":
        n, x = args
        return Expected(K_mp(n, x), "rel", REL_TOL[cls])
    if cls == "coincidence.K_quadrature":
        n, j, x = args
        return Expected(K_derivative_mp(n, j, x), "rel", REL_TOL[cls])
    if cls == "hypergeom.gauss_2f1":
        p, x = args
        return Expected(hyp2f1_mp(p.a, p.b, p.c, x), "rel", REL_TOL[cls])
    if cls == "hypergeom.hl_hyp":
        q, x = args
        return Expected(hl_hyp_mp(q, x), "rel", REL_TOL[cls])
    if cls == "hypergeom.clausen_3f2":
        (p,) = args
        return Expected(clausen_mp(p.a1, p.a2, p.a3, p.b1, p.b2), "rel", REL_TOL[cls])
    if cls == "hypergeom.gauss_2f1_closed":
        m, k, x = args
        return Expected(hyp2f1_mp(m, 1, m + 2 * k + 1, x), "rel", REL_TOL[cls])
    if cls == "relations.check":
        _relation_id, _trials, _tol, _seed = args
        return Expected(True, "report")
    if cls.startswith("cli."):
        return _expect_cli(cls, args)
    raise KeyError(f"no reference for op class {cls!r}")


def _close(value: float, expected: Expected) -> bool:
    """``value`` agrees with ``expected`` under its equal/ulp/rel rule."""
    if not math.isfinite(value):
        return False
    ref = expected.value
    if expected.rule == "equal":
        return value == ref
    if isinstance(ref, Fraction):
        return abs(Fraction(value) - ref) <= Fraction(expected.tol) * abs(ref)
    with mpmath.workdps(DPS):
        error = abs(mpmath.mpf(value) - ref)
        if expected.rule == "ulp":
            return error <= math.ulp(float(ref))
        return error <= expected.tol * abs(ref)


def judge(op, output, expected: Expected) -> bool:
    """True when the output of ``op`` agrees with its reference."""
    cls = op.cls
    if isinstance(output, BaseException):
        return False
    if cls.startswith("identities."):
        if expected.rule == "report":
            return output.passed is False
        return output.passed and output.lhs == expected.value == output.rhs
    if cls == "relations.check":
        relation_id, trials, tol, _seed = op.args
        return (output.passed and output.relation_id == relation_id
                and output.trials == trials and 0.0 <= output.worst_residual <= tol)
    if cls.startswith("cli."):
        return _judge_cli(cls, output, expected)
    if cls == "coincidence.K_quadrature":
        value, estimate = output
        return estimate >= 0.0 and _close(value, expected)
    if isinstance(output, float):
        return _close(output, expected)
    # EvalResult
    return output.converged and output.error_estimate >= 0.0 \
        and _close(output.value, expected)


def _shift(value: float, expected: Expected) -> float:
    """A float just outside the tolerance of ``expected``."""
    if expected.rule == "equal":
        return math.nextafter(value, math.inf)
    if expected.rule == "ulp":
        return value + 3 * math.ulp(value)
    return value + 3 * expected.tol * abs(float(expected.value))


def perturb(op, output, expected: Expected):
    """The output with its checked value moved just past the tolerance."""
    cls = op.cls
    if cls.startswith("identities."):
        if expected.rule == "report":
            return output._replace(passed=True)
        return output._replace(lhs=output.lhs + 1)
    if cls == "relations.check":
        return replace(output, worst_residual=2 * output.tol)
    if cls.startswith("cli."):
        return _perturb_cli(cls, output, expected)
    if cls == "coincidence.K_quadrature":
        value, estimate = output
        return _shift(value, expected), estimate
    if isinstance(output, float):
        return _shift(output, expected)
    return replace(output, value=_shift(output.value, expected))


def self_test(checked: list) -> list[str]:
    """Classes whose checker accepts a perturbed output (should be none).

    ``checked`` holds (op, output, expected) triples whose output passed.
    """
    weak = []
    for op, output, expected in checked:
        if judge(op, perturb(op, output, expected), expected):
            weak.append(op.cls)
    return weak


# ---------------------------------------------------------------------------
# command-line runs


def _options(argv) -> dict[str, str]:
    """``--name value`` and ``--name=value`` pairs after the subcommand."""
    opts, tokens = {}, iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        opts[name] = value if eq else next(tokens)
    return opts


def _expect_cli(cls: str, argv: list[str]) -> Expected:
    opts = _options(argv)
    if cls == "cli.eval":
        return Expected(K_mp(int(opts["--n"]), float(opts["--x"])), "rel", REL_TOL[cls])
    if cls == "cli.table":
        names = ("--a", "--q", "--alpha", "--beta", "--gamma", "--delta")
        params = [float(opts[name]) for name in names]
        row = functools.lru_cache(maxsize=None)(lambda x: heun_local_mp(*params, x))
        return Expected(row, "rel", REL_TOL[cls])
    if cls in ("cli.crosscheck_F", "cli.crosscheck_K"):
        return Expected(float(opts["--tol"]), "report")
    if cls == "cli.verify":
        return Expected("verification: PASS", "report")
    raise KeyError(f"no reference for op class {cls!r}")


def _judge_cli(cls: str, output, expected: Expected) -> bool:
    lines = output.stdout.splitlines()
    if output.code != 0 or not lines:
        return False
    if cls == "cli.eval":
        return len(lines) == 1 and _close(float(lines[0]), expected)
    if cls == "cli.table":
        if lines[0] != "x,value,error_estimate,method" or len(lines) < 2:
            return False
        for line in lines[1:]:
            x, value, _err, method = line.split(",")
            row = Expected(expected.value(float(x)), "rel", expected.tol)
            if method != "series" or not _close(float(value), row):
                return False
        return True
    if cls in ("cli.crosscheck_F", "cli.crosscheck_K"):
        spread = lines[-1].split()[2]
        return len(lines) == 2 and lines[-1].startswith("max discrepancy") \
            and 0.0 <= float(spread) <= expected.value
    # verify: every identity and relation line, and the verdict, pass
    return lines[-1] == expected.value and len(lines) == 14 \
        and all(": PASS" in line for line in lines)


def _perturb_cli(cls: str, output, expected: Expected):
    lines = output.stdout.splitlines()
    if cls == "cli.eval":
        return replace(output, stdout=f"{_shift(float(lines[0]), expected)!r}\n")
    if cls == "cli.table":
        x, value, err, method = lines[1].split(",")
        row = Expected(expected.value(float(x)), "rel", expected.tol)
        lines[1] = ",".join((x, repr(_shift(float(value), row)), err, method))
    elif cls in ("cli.crosscheck_F", "cli.crosscheck_K"):
        lines[-1] = f"max discrepancy {2 * expected.value!r}"
    else:
        lines[1] = lines[1].replace("PASS", "FAIL")
    return replace(output, stdout="\n".join(lines) + "\n")
