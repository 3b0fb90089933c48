"""Power-series engines for the two Heun-type differential equations.

Both solvers expand the solution normalized by u(0) = 1 around the
origin.  The coefficients come from three-term recurrences obtained by
substituting a power series into the equation

    u'' + (gamma/x + delta/(x-1) + epsilon/(x-a)) u'
        + (alpha*beta*x - q) / (x(x-1)(x-a)) u = 0

for the four-singular-point case, and

    u'' + (4p + gamma/x + delta/(x-1)) u'
        + (4*p*alpha*x - sigma) / (x(x-1)) u = 0

for the confluent case, which at p = 0 is Gauss's hypergeometric equation
with (gamma, delta, sigma) = (c, a+b+1-c, -ab).  One kernel,
``_sum_recurrence``, runs these three recurrences on the terms and sums
the solution and its derivatives in the same loop.  Where a Heun sum
cancels, one rescue path, ``_evaluate``, sums the series of the equation's
``_conjugate`` times its prefactor.  Evaluation is refused outside the
disk bounded by the singular point nearest to the origin and for
non-finite x; analytic continuation is out of scope.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .errors import DomainError

_EPS = 2.220446049250313e-16

# consecutive below-tolerance terms required before declaring convergence;
# three-term recurrences can produce transient small terms
_STREAK = 3

_LN2 = 0.6931471805599453
# ln 2 split as in Cody & Waite: F * _LN2_HI is exact for |F| < 2^21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _is_nonpositive_integer(value: float) -> bool:
    return value <= 0.0 and float(value).is_integer()


def _check_finite(params) -> None:
    for name, value in zip(params._fields, params):
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            raise DomainError(f"{name} is too large for a float") from None
        if not finite:
            raise DomainError(f"{name} must be finite, got {value}")


class _Record:
    """Mixin of the parameter records, validated named tuples.

    A record is ``class R(_Record, namedtuple("R", fields))`` with
    ``__slots__ = ()`` and, where it has checks, a typed ``__new__`` that
    runs them.  ``_make``, and through it ``_replace``, build by
    ``cls(...)``, and unpickling and ``copy`` by ``cls.__new__``, so every
    way to a record runs its checks.  A record equals only a record of its
    own type: not a plain tuple, nor another record of the same values.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__


class SeriesOptions(_Record, namedtuple("SeriesOptions", "max_terms rel_tol")):
    """Truncation controls shared by every series evaluation."""

    __slots__ = ()

    def __new__(cls, max_terms: int = 10000, rel_tol: float = 1e-15):
        if not isinstance(max_terms, int):
            raise DomainError("max_terms must be an integer")
        if max_terms < 2:
            raise DomainError("max_terms must be at least 2")
        if not 0.0 < rel_tol < 1.0:
            raise DomainError("rel_tol must lie in (0, 1)")
        return tuple.__new__(cls, (max_terms, rel_tol))


DEFAULT_OPTIONS = SeriesOptions()


@dataclass(frozen=True)
class EvalResult:
    """Value of a truncated series or quadrature plus diagnostics.

    When a series did not converge, ``error_estimate`` is the magnitude
    of its last computed term, or infinity while its terms still grow,
    since that term then bounds nothing; ``gauss_2f1`` divides the
    kernel's estimate by 1 - r, r = min(|x|, 0.999), to bound the tail.
    For converged evaluations it also accounts for cancellation, and is
    below the value's magnitude.
    """

    value: float
    terms_used: int
    converged: bool
    error_estimate: float


class GeneralHeunParams(_Record,
                        namedtuple("GeneralHeunParams", "a q alpha beta gamma delta")):
    """Parameters (a, q, alpha, beta, gamma, delta) of the four-point equation.

    ``epsilon`` is derived from the Fuchs relation
    alpha + beta + 1 = gamma + delta + epsilon and is never set
    independently.
    """

    __slots__ = ()

    def __new__(cls, a: float, q: float, alpha: float, beta: float, gamma: float,
                delta: float):
        self = tuple.__new__(cls, (a, q, alpha, beta, gamma, delta))
        _check_finite(self)
        if a == 0.0 or a == 1.0:
            raise DomainError("singular-point location a must not be 0 or 1")
        if _is_nonpositive_integer(gamma):
            raise DomainError("gamma must not be zero or a negative integer")
        return self

    @property
    def epsilon(self) -> float:
        return self.alpha + self.beta + 1.0 - self.gamma - self.delta

    @property
    def radius(self) -> float:
        """Radius of convergence of the local series at the origin."""
        return min(1.0, abs(self.a))

    def _recurrence(self) -> tuple:
        """a(k+1)(k+gamma) c_{k+1} = [k((1+a)k + (gamma-1)(1+a) + a*delta + epsilon) + q] c_k
                                     - (k-1+alpha)(k-1+beta) c_{k-1}"""
        a = self.a
        return (0.0, 1 + a, (self.gamma - 1) * (1 + a) + a * self.delta + self.epsilon,
                self.q, a, -1.0, -self.beta, self.gamma, self.alpha)

    def _conjugate(self, x: float, max_order: int) -> tuple:
        """(transformed, log f, its rounding error, [f, ..., f^(max_order)](x) / f)
        with u = f u(transformed) and f = (1 - x/a)^e, positive in the disk:
        the transformed series often stays sign-definite where the direct one cancels."""
        exponent, transformed = transform_homotopy(self)
        base = 1.0 - x / self.a
        log_base = math.log(base)
        ratios = [1.0]  # f^(i+1)/f = (e - i) f^(i)/f / (x - a)
        for i in range(max_order):
            ratios.append(ratios[-1] * (exponent - i) / (x - self.a))
        log_err = abs(exponent) * _EPS * (abs(log_base) + abs(1.0 - base) / base)
        return transformed, exponent * log_base, log_err, ratios


class ConfluentHeunParams(_Record,
                          namedtuple("ConfluentHeunParams", "p gamma delta alpha sigma")):
    """Parameters (p, gamma, delta, alpha, sigma) of the confluent equation."""

    __slots__ = ()

    def __new__(cls, p: float, gamma: float, delta: float, alpha: float, sigma: float):
        self = tuple.__new__(cls, (p, gamma, delta, alpha, sigma))
        _check_finite(self)
        if p == 0.0:
            raise DomainError("p must be nonzero")
        if _is_nonpositive_integer(gamma):
            raise DomainError("gamma must not be zero or a negative integer")
        return self

    @property
    def radius(self) -> float:
        return 1.0

    def _recurrence(self) -> tuple:
        """(k+1)(k+gamma) c_{k+1} = [k(k+gamma+delta-4p-1) - sigma] c_k
                                   + 4p(k-1+alpha) c_{k-1}"""
        return (0.0, 1.0, self.gamma + self.delta - 4 * self.p - 1, -self.sigma, 1.0, 0.0,
                4 * self.p, self.gamma, self.alpha)

    def _conjugate(self, x: float, max_order: int) -> tuple:
        """(conjugate, log f, its rounding error, [f, f', ..., f^(max_order)](x) / f)
        with u = f u(conjugate) and f = e^(-4px): u(p, gamma, delta, alpha,
        sigma; x) = f u(-p, gamma, delta, gamma+delta-alpha, sigma-4*p*gamma; x),
        whose series is far better conditioned when 4px is large."""
        conjugate = ConfluentHeunParams(-self.p, self.gamma, self.delta,
                                        self.gamma + self.delta - self.alpha,
                                        self.sigma - 4.0 * self.p * self.gamma)
        log_f = -4.0 * self.p * x
        return (conjugate, log_f, abs(log_f) * _EPS,
                [(-4.0 * self.p) ** i for i in range(max_order + 1)])


def _sum_recurrence(params, x: float, opts: SeriesOptions, max_order: int,
                    log_f: float = 0.0) -> list[EvalResult]:
    """Sum e^log_f u, ..., e^log_f u^(max_order) in one loop over the terms.

    From c_{-1} = 0 and c_0 = 1, d(k+1)(k+gamma) c_{k+1} = [(k+e)(sk + t)
    + v] c_k + (k-1+alpha)(rho(k-1) + w) c_{k-1}, with the nine constants
    of ``params._recurrence()``; where the coefficient of c_k factors, as
    Gauss's (k+a)(k+b) does, each factor is rounded once.  It runs on
    y_k = c_k x^(k - min(k, M)), M = max_order, the size of the terms; the
    term of order m is y_k x^(min(k, M) - m) k!/(k-m)!.  e^log_f = y_0
    2^scale, and scale, kept apart until the end, takes 2^600 from the
    terms while it is at most -600.  Summation stops once every derivative
    had _STREAK terms in a row below rel_tol of its sum; ``_results``
    gives each sum its estimate.  There are two loops.  M = 0, u alone,
    runs a value-only loop; M >= 1 runs the general loop, which also keeps
    per-order powers of x and sums.  The value-only loop is the general
    loop at M = 0 without that bookkeeping: the same float operations in
    the same order, so its results are bit-identical to the general
    loop's at M = 0.
    """
    e, s, t, v, d, rho, w, gamma, alpha = params._recurrence()
    tol, last_k = opts.rel_tol, opts.max_terms - 1
    scale = round(log_f / _LN2)
    y = math.exp((log_f - scale * _LN2_HI) - scale * _LN2_LO)
    y_prev = total = abs_total = 0.0
    xa = xb = 1.0  # y_{k+1} = xa (P_k y_k + Q_k xb y_{k-1}) / D_k
    streak = 0
    # kf == float(k) and j == kf - 1: CPython runs float-only arithmetic faster
    k, j, kf = 0, -1.0, 0.0
    if not max_order:  # u alone: y_k = c_k x^k, xa = x from k = 0 on, xb = x from k = 1 on
        while True:
            total += y
            size = abs(y)
            abs_total += size
            if size > tol * abs(total):
                streak = 0
            else:
                streak += 1
                if streak >= _STREAK:
                    break
            if k >= last_k:
                break
            if k <= 1:
                xb, xa = xa, x
            y_prev, y = y, ((((kf + e) * (s * kf + t) + v) * y
                             + (j + alpha) * (rho * j + w) * xb * y_prev) * xa
                            / (d * (kf + 1.0) * (kf + gamma)))
            if scale <= -600 and abs(y) > 2.0**600:  # move 2^600 into scale
                scale += 600
                y *= 2.0**-600
                y_prev *= 2.0**-600
                total *= 2.0**-600
                abs_total *= 2.0**-600
            k += 1
            j, kf = kf, kf + 1.0
        return _results((total,), (abs_total,), (y,), y, y_prev, streak >= _STREAK,
                        scale, k + 1)
    head = max_order + 1
    sums, abs_sums, lasts = ([0.0] * head for _ in range(3))
    orders = range(1, head)
    pows = [1.0] * head  # pows[m] == x^(min(k, M) - m), read for m <= min(k, M)
    while True:
        last = term = y * pows[0]
        total += term
        size = abs(term)
        abs_total += size
        small = not size > tol * abs(total)
        ff = kf                    # falling factorial k(k-1)...(k-m+1)
        for m in orders if k >= max_order else range(1, k + 1):
            lasts[m] = term = y * ff * pows[m]
            sums[m] += term
            size = abs(term)
            abs_sums[m] += size
            if size > tol * abs(sums[m]):
                small = False
            ff *= k - m
        small = small and k >= max_order
        streak = streak + 1 if small else 0
        if streak >= _STREAK or k >= last_k:
            break
        if k < max_order:
            for m in range(k + 1):
                pows[m] *= x
        elif k <= head:  # xa = x from k = M on, xb = x from k = M + 1 on
            xb, xa = xa, x
        y_prev, y = y, ((((kf + e) * (s * kf + t) + v) * y
                         + (j + alpha) * (rho * j + w) * xb * y_prev) * xa
                        / (d * (kf + 1.0) * (kf + gamma)))
        if scale <= -600 and abs(y) > 2.0**600:  # move 2^600 into scale
            scale += 600
            y *= 2.0**-600
            y_prev *= 2.0**-600
            total *= 2.0**-600
            abs_total *= 2.0**-600
            for m in orders:
                sums[m] *= 2.0**-600
                abs_sums[m] *= 2.0**-600
        k += 1
        j, kf = kf, kf + 1.0
    sums[0], abs_sums[0], lasts[0] = total, abs_total, last
    return _results(sums, abs_sums, lasts, y, y_prev, streak >= _STREAK, scale, k + 1)


def _results(sums, abs_sums, lasts, y: float, y_prev: float, converged: bool,
             scale: int, terms: int) -> list[EvalResult]:
    """The kernel's result of each order from its sum, sum of absolute terms
    and last term, times 2^scale, where y and y_prev are the last two y_k.
    A sum that stops unconverged on a nonzero y_k with |y_k| >= |y_{k-1}|,
    its terms still growing, has an infinite estimate: its last term bounds
    nothing.  Otherwise the estimate is the last term, and at least eps
    times the sum of absolute terms, which bounds the rounding of the sum
    also where the last term is 0.  A result whose estimate is not below
    its value has no correct digit and is not converged."""
    growing = not converged and y != 0.0 and abs(y) >= abs(y_prev)
    results = []
    for total, abs_total, last in zip(sums, abs_sums, lasts):
        est = math.inf if growing else max(abs(last), _EPS * abs_total)
        value, est = math.ldexp(total, scale), math.ldexp(est, scale)
        results.append(EvalResult(value, terms, converged and est < abs(value), est))
    return results


def _combine_prefactor(ratios: list[float], log_err: float, inner: list[EvalResult],
                       max_order: int) -> list[EvalResult]:
    """Leibniz-combine the derivatives of f*v from f^(i)/f and the sums of
    f v^(i), whose values all carry the rounding of log f: ``log_err``."""
    out = []
    for m in range(max_order + 1):
        value = 0.0
        err = 0.0
        for i in range(m + 1):
            factor = math.comb(m, i) * ratios[i]
            value += factor * inner[m - i].value
            err += abs(factor) * inner[m - i].error_estimate
            err += (_EPS + log_err) * abs(factor * inner[m - i].value)
        out.append(EvalResult(value, inner[m].terms_used, inner[m].converged, err))
    return out


def _needs_rescue(result: EvalResult, opts: SeriesOptions) -> bool:
    threshold = max(32.0 * _EPS, 4.0 * opts.rel_tol) * abs(result.value)
    return not result.converged or result.error_estimate > threshold


def _better(direct: list[EvalResult], rescued: list[EvalResult]) -> list[EvalResult]:
    if math.isfinite(rescued[0].value) != math.isfinite(direct[0].value):
        return direct if math.isfinite(direct[0].value) else rescued
    if direct[0].converged != rescued[0].converged:
        return direct if direct[0].converged else rescued
    # a NaN estimate is never smaller: the direct sum is kept
    return rescued if rescued[0].error_estimate < direct[0].error_estimate else direct


def _evaluate(params: GeneralHeunParams | ConfluentHeunParams, x: float,
              opts: SeriesOptions | None, max_order: int) -> list[EvalResult]:
    """u, ..., u^(max_order) at x by the direct series or, where its estimate
    shows it cancels or it overflows, the conjugate series of
    ``params._conjugate`` times its prefactor, if that is better."""
    opts = opts or DEFAULT_OPTIONS
    if not abs(x) < params.radius:
        raise DomainError(
            f"|x| = {abs(x)} is outside the convergence disk |x| < {params.radius}")
    direct = _sum_recurrence(params, x, opts, max_order)
    if not _needs_rescue(direct[0], opts):
        return direct
    try:
        conjugate, log_f, log_err, ratios = params._conjugate(x, max_order)
        inner = _sum_recurrence(conjugate, x, opts, max_order, log_f)
    except (DomainError, ArithmeticError):  # its parameters or its scaled sum overflow
        return direct
    return _better(direct, _combine_prefactor(ratios, log_err, inner, max_order))


def eval_heun_local(params: GeneralHeunParams, x: float,
                    opts: SeriesOptions | None = None) -> EvalResult:
    """Evaluate the local solution of the four-point equation, u(0) = 1.

    The slope at the origin is q/(a*gamma).  Raises DomainError outside
    |x| < min(1, |a|).
    """
    return _evaluate(params, x, opts, 0)[0]


def eval_heun_derivatives(params: GeneralHeunParams, x: float,
                          max_order: int = 1,
                          opts: SeriesOptions | None = None) -> list[EvalResult]:
    """Termwise-differentiated series values [u, u', ..., u^(max_order)](x)."""
    return _evaluate(params, x, opts, max_order)


def eval_confluent_heun(params: ConfluentHeunParams, x: float,
                        opts: SeriesOptions | None = None) -> EvalResult:
    """Evaluate the confluent solution normalized by u(0) = 1.

    The slope at the origin is -sigma/gamma.  Raises DomainError outside
    |x| < 1.
    """
    return _evaluate(params, x, opts, 0)[0]


def eval_confluent_derivatives(params: ConfluentHeunParams, x: float,
                               max_order: int = 1,
                               opts: SeriesOptions | None = None) -> list[EvalResult]:
    """Termwise-differentiated confluent series values at x."""
    return _evaluate(params, x, opts, max_order)


def heun_slope_at_origin(params: GeneralHeunParams) -> float:
    """Derivative of the normalized local solution at x = 0: q/(a*gamma)."""
    return params.q / (params.a * params.gamma)


def transform_homotopy(params: GeneralHeunParams) -> tuple[float, GeneralHeunParams]:
    """Index transformation pulling a power of (1 - x/a) out of the solution.

    Returns (e, transformed) with e = -alpha - beta + gamma + delta such
    that on the common domain

        u(params; x) = (1 - x/a)^e * u(transformed; x),

    where transformed = (a, q - gamma(alpha+beta-gamma-delta),
    -alpha+gamma+delta, -beta+gamma+delta, gamma, delta).
    """
    p = params
    shift = p.alpha + p.beta - p.gamma - p.delta
    transformed = GeneralHeunParams(
        a=p.a,
        q=p.q - p.gamma * shift,
        alpha=-p.alpha + p.gamma + p.delta,
        beta=-p.beta + p.gamma + p.delta,
        gamma=p.gamma,
        delta=p.delta,
    )
    return -shift, transformed


def heun_ode_residual(params: GeneralHeunParams, x: float,
                      opts: SeriesOptions | None = None) -> float:
    """Residual of the four-point equation at x for the evaluated series.

    x must avoid the singular points {0, 1, a} and lie inside the disk.
    """
    if x == 0.0 or x == 1.0 or x == params.a:
        raise DomainError("residual is undefined at a singular point")
    u, du, ddu = (r.value for r in eval_heun_derivatives(params, x, 2, opts))
    p = params
    lin = p.gamma / x + p.delta / (x - 1.0) + p.epsilon / (x - p.a)
    low = (p.alpha * p.beta * x - p.q) / (x * (x - 1.0) * (x - p.a))
    return ddu + lin * du + low * u


def confluent_ode_residual(params: ConfluentHeunParams, x: float,
                           opts: SeriesOptions | None = None) -> float:
    """Residual of the confluent equation at x for the evaluated series."""
    if x == 0.0 or x == 1.0:
        raise DomainError("residual is undefined at a singular point")
    u, du, ddu = (r.value for r in eval_confluent_derivatives(params, x, 2, opts))
    p = params
    lin = 4.0 * p.p + p.gamma / x + p.delta / (x - 1.0)
    low = (4.0 * p.p * p.alpha * x - p.sigma) / (x * (x - 1.0))
    return ddu + lin * du + low * u
