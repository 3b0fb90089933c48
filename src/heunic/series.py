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
``_sum_recurrence``, runs these three recurrences and sums the solution
and its derivatives in the same loop.  Where a Heun sum cancels or
overflows, one rescue path, ``_evaluate``, sums the series of the
equation's ``_conjugate`` times its prefactor.  Evaluation is refused
outside the disk bounded by the singular point nearest to the origin and
for non-finite x; analytic continuation is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError

_EPS = 2.220446049250313e-16

# consecutive below-tolerance terms required before declaring convergence;
# three-term recurrences can produce transient small terms
_STREAK = 3


def _is_nonpositive_integer(value: float) -> bool:
    return value <= 0.0 and float(value).is_integer()


def _check_finite(params) -> None:
    for name, value in vars(params).items():
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            raise DomainError(f"{name} is too large for a float") from None
        if not finite:
            raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SeriesOptions:
    """Truncation controls shared by every series evaluation."""

    max_terms: int = 10000
    rel_tol: float = 1e-15

    def __post_init__(self):
        if not isinstance(self.max_terms, int):
            raise DomainError("max_terms must be an integer")
        if self.max_terms < 2:
            raise DomainError("max_terms must be at least 2")
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel_tol must lie in (0, 1)")


DEFAULT_OPTIONS = SeriesOptions()


@dataclass(frozen=True)
class EvalResult:
    """Value of a truncated series or quadrature plus diagnostics.

    ``error_estimate`` is the magnitude of the last computed term when
    the evaluation did not converge; for converged evaluations it also
    accounts for cancellation among the accumulated terms.
    """

    value: float
    terms_used: int
    converged: bool
    error_estimate: float


@dataclass(frozen=True)
class GeneralHeunParams:
    """Parameters (a, q, alpha, beta, gamma, delta) of the four-point equation.

    ``epsilon`` is derived from the Fuchs relation
    alpha + beta + 1 = gamma + delta + epsilon and is never set
    independently.
    """

    a: float
    q: float
    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        _check_finite(self)
        if self.a == 0.0 or self.a == 1.0:
            raise DomainError("singular-point location a must not be 0 or 1")
        if _is_nonpositive_integer(self.gamma):
            raise DomainError("gamma must not be zero or a negative integer")

    @property
    def epsilon(self) -> float:
        return self.alpha + self.beta + 1.0 - self.gamma - self.delta

    @property
    def radius(self) -> float:
        """Radius of convergence of the local series at the origin."""
        return min(1.0, abs(self.a))

    def _recurrence(self) -> tuple:
        """a(k+1)(k+gamma) c_{k+1} = [k((k-1+gamma)(1+a) + a*delta + epsilon) + q] c_k
                                     - (k-1+alpha)(k-1+beta) c_{k-1}"""
        a = self.a
        return (1 + a, a * self.delta, self.epsilon, self.q, a, -1.0, -self.beta,
                self.gamma, self.alpha)

    def _conjugate(self, x: float, max_order: int) -> tuple:
        """(transformed, [f, f', ..., f^(max_order)](x)) with u = f u(transformed)
        and f = (1 - x/a)^e, positive throughout the disk: the transformed
        series often stays sign-definite where the direct one cancels."""
        exponent, transformed = transform_homotopy(self)
        base = 1.0 - x / self.a
        pref = []
        fall = 1.0
        for i in range(max_order + 1):
            pref.append(fall * base ** (exponent - i) * (-1.0 / self.a) ** i)
            fall *= exponent - i
        return transformed, pref


@dataclass(frozen=True)
class ConfluentHeunParams:
    """Parameters (p, gamma, delta, alpha, sigma) of the confluent equation."""

    p: float
    gamma: float
    delta: float
    alpha: float
    sigma: float

    def __post_init__(self):
        _check_finite(self)
        if self.p == 0.0:
            raise DomainError("p must be nonzero")
        if _is_nonpositive_integer(self.gamma):
            raise DomainError("gamma must not be zero or a negative integer")

    @property
    def radius(self) -> float:
        return 1.0

    def _recurrence(self) -> tuple:
        """(k+1)(k+gamma) c_{k+1} = [k(k-1+gamma+delta-4p) - sigma] c_k
                                   + 4p(k-1+alpha) c_{k-1}"""
        return (1.0, self.delta, -4 * self.p, -self.sigma, 1.0, 0.0, 4 * self.p,
                self.gamma, self.alpha)

    def _conjugate(self, x: float, max_order: int) -> tuple:
        """(conjugate, [f, f', ..., f^(max_order)](x)) with u = f u(conjugate)
        and f = e^(-4px): u(p, gamma, delta, alpha, sigma; x) = f u(-p, gamma,
        delta, gamma+delta-alpha, sigma-4*p*gamma; x), whose series is far
        better conditioned when 4px is large."""
        conjugate = ConfluentHeunParams(-self.p, self.gamma, self.delta,
                                        self.gamma + self.delta - self.alpha,
                                        self.sigma - 4.0 * self.p * self.gamma)
        expfac = math.exp(-4.0 * self.p * x)
        return conjugate, [expfac * (-4.0 * self.p) ** i for i in range(max_order + 1)]


def _sum_recurrence(params, x: float, opts: SeriesOptions,
                    max_order: int) -> list[EvalResult]:
    """Run the three-term recurrence and sum u, ..., u^(max_order) in one loop.

    Every equation gives c_0 = 1, d*gamma*c_1 = v and, for k >= 1,

        d(k+1)(k+gamma) c_{k+1} = [k((k-1+gamma)s + t + u) + v] c_k
                                  + (k-1+alpha)(rho(k-1) + w) c_{k-1}

    with the nine constants (s, t, u, v, d, rho, w, gamma, alpha) of
    ``params._recurrence()``, all that is read from ``params``.  Summation
    stops once every tracked derivative had _STREAK consecutive terms below
    rel_tol times its partial sum.  Coefficients can overflow doubles long
    before the terms matter: a non-finite one ends the sum unconverged, so
    the caller can reroute through its conjugate series.  Error estimates
    include a cancellation floor of machine epsilon times the sum of
    absolute terms.
    """
    s, t, u, v, d, rho, w, gamma, alpha = params._recurrence()
    tol, last_k = opts.rel_tol, opts.max_terms - 1
    # the c_0 = 1 term is already summed; xk == x^k for the c_k in hand
    total = abs_total = last = 1.0
    sums, abs_sums, lasts = ([0.0] * (max_order + 1) for _ in range(3))
    orders = range(1, max_order + 1)
    xpow = [1.0] * (max_order + 1)  # xpow[m] == x^(k - m), read for 1 <= m <= k
    streak = 0
    converged = False
    c_prev, c, xk = 1.0, v / (d * gamma), x
    k, kf = 1, 1.0  # kf == float(k): CPython runs float-only arithmetic faster
    while math.isfinite(c):
        last = term = c * xk
        total += term
        size = abs(term)
        abs_total += size
        small = not size > tol * abs(total)
        if max_order:
            ff = kf                    # falling factorial k(k-1)...(k-m+1)
            for m in orders if k >= max_order else range(1, k + 1):
                lasts[m] = term = c * ff * xpow[m]
                sums[m] += term
                size = abs(term)
                abs_sums[m] += size
                if size > tol * abs(sums[m]):
                    small = False
                ff *= k - m
            small = small and k >= max_order
        streak = streak + 1 if small else 0
        if streak >= _STREAK or k >= last_k:
            converged = streak >= _STREAK
            k += 1
            break
        if max_order:
            xpow.insert(1, xk)
            xpow.pop()
        xk *= x
        j = kf - 1.0
        c_prev, c = c, (((kf * ((j + gamma) * s + t + u) + v) * c
                         + (j + alpha) * (rho * j + w) * c_prev)
                        / (d * (kf + 1.0) * (kf + gamma)))
        k += 1
        kf += 1.0
    sums[0], abs_sums[0], lasts[0] = total, abs_total, last
    results = []
    for m in range(max_order + 1):
        est = abs(lasts[m])
        if converged:
            est = max(est, _EPS * abs_sums[m])
        results.append(EvalResult(sums[m], k, converged, est))
    return results


def _check_disk(x: float, radius: float) -> None:
    if not abs(x) < radius:
        raise DomainError(
            f"|x| = {abs(x)} is outside the convergence disk |x| < {radius}")


def _combine_prefactor(pref: list[float], inner: list[EvalResult],
                       max_order: int) -> list[EvalResult]:
    """Leibniz-combine derivatives of prefactor*inner given both sets."""
    out = []
    for m in range(max_order + 1):
        value = 0.0
        err = 0.0
        for i in range(m + 1):
            binom = math.comb(m, i)
            value += binom * pref[i] * inner[m - i].value
            err += binom * abs(pref[i]) * inner[m - i].error_estimate
            err += _EPS * abs(binom * pref[i] * inner[m - i].value)
        out.append(EvalResult(value, inner[m].terms_used, inner[m].converged, err))
    return out


def _needs_rescue(result: EvalResult, opts: SeriesOptions) -> bool:
    if not result.converged or not math.isfinite(result.value):
        return True
    threshold = max(32.0 * _EPS, 4.0 * opts.rel_tol) * abs(result.value)
    return result.error_estimate > threshold


def _better(direct: list[EvalResult], rescued: list[EvalResult]) -> list[EvalResult]:
    if math.isfinite(rescued[0].value) != math.isfinite(direct[0].value):
        return direct if math.isfinite(direct[0].value) else rescued
    if direct[0].converged != rescued[0].converged:
        return direct if direct[0].converged else rescued
    return direct if direct[0].error_estimate <= rescued[0].error_estimate else rescued


def _without_rescue(direct: list[EvalResult]) -> list[EvalResult]:
    """The direct sums kept for want of a rescue, each one whose error
    estimate reaches its value marked not converged: it has no correct digit."""
    return [replace(r, converged=False) if r.error_estimate >= abs(r.value) else r
            for r in direct]


def _evaluate(params: GeneralHeunParams | ConfluentHeunParams, x: float,
              opts: SeriesOptions | None, max_order: int) -> list[EvalResult]:
    """u, ..., u^(max_order) at x by the direct series, falling back to the
    conjugate series of ``params._conjugate`` times its prefactor where the
    direct one cancels catastrophically (detected through the error
    estimate) or overflows."""
    opts = opts or DEFAULT_OPTIONS
    _check_disk(x, params.radius)
    direct = _sum_recurrence(params, x, opts, max_order)
    if not _needs_rescue(direct[0], opts):
        return direct
    try:
        conjugate, pref = params._conjugate(x, max_order)
    except (DomainError, ArithmeticError):  # its parameters or prefactor overflow
        return _without_rescue(direct)
    if pref[0] == 0.0 or not math.isfinite(pref[0]):  # the rescue would bound nothing
        return _without_rescue(direct)
    inner = _sum_recurrence(conjugate, x, opts, max_order)
    return _better(direct, _combine_prefactor(pref, inner, max_order))


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
