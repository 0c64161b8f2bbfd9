"""Special functions and an adaptive semi-infinite reference quadrature.

Everything here is pure and reentrant.  The special functions the closed
forms need (the scaled Bessel K_0 and K_1, the pair 1 - x K_1(x) and
x K_1(x), the regularized incomplete gamma, the scaled exponential integral
e^x E1(x), digamma, erf and log Gamma at integers) are computed with numpy
and math alone, so loading the package imports no scipy.  Each is a series or
continued fraction from Abramowitz & Stegun or Numerical Recipes (2nd ed.,
section 6.2 and 6.3), or a trapezoid rule on a rapidly decaying integrand
(Trefethen & Weideman, SIAM Review 56, 2014).  Every array kernel computes
each element on its own: an element's bits do not depend on the other
elements of the call, so a sweep over a vector gives each point the value of
its own scalar call.  A log-domain Bessel-K evaluator covers large orders,
where the direct value overflows a double.

`integrate_semi_infinite` is adaptive Gauss-Kronrod quadrature over a Python
callback.  The library's closed forms do not use it: the spectral
efficiencies and the Gamma-fit divergence are expectations taken on fixed
trapezoid nodes in a log variable (`analytic._gamma_expectation` and
`analytic.kl_divergence_gamma_fit`), whose error estimate compares the full
node sum with the sum over every other node against a fixed tolerance, and
reports failure through NonConvergenceError.  The adaptive route stays only
as the independent reference the rules are tested against, and QuadratureSpec
configures it alone.  It is the one function here that needs scipy, which it
imports on first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_EULER_GAMMA = float(np.euler_gamma)
_EPS = float(np.finfo(float).eps)
_LOG_UNDERFLOW = -math.log(float(np.finfo(float).max))


class NonConvergenceError(RuntimeError):
    """Quadrature ended with its error estimate above tolerance."""

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget of `integrate_semi_infinite`, the adaptive reference."""

    relative_tolerance: float = 1e-9
    absolute_tolerance: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.relative_tolerance <= 0 or self.absolute_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def _k01_series_coefficients(terms: int) -> np.ndarray:
    """Rows C, D, A, B of the small-argument series in y = x^2/4
    (Abramowitz & Stegun 9.6.10, 9.6.11 and 9.6.13):

        K_0(x) = -(log(x/2) + gamma) C(y) + D(y),
        K_1(x) = 1/x + (x/2) [(log(x/2) + gamma) A(y) - B(y)],

    with C = sum y^k/k!^2, D = sum H_k y^k/k!^2, A = sum y^k/(k! (k+1)!) and
    B = sum (H_k + H_{k+1})/2 y^k/(k! (k+1)!), H_k the harmonic numbers.
    """
    k = np.arange(terms)
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, terms + 1))])
    fact = np.array([float(math.factorial(i)) for i in range(terms + 1)])
    c = 1.0 / (fact[k] * fact[k])
    a = 1.0 / (fact[k] * fact[k + 1])
    return np.array([c, harmonic[k] * c, a, 0.5 * (harmonic[k] + harmonic[k + 1]) * a])


# Below x = 1 the series above: 11 terms leave less than 1e-19 at y = 1/4.
_K01_SERIES = _k01_series_coefficients(11)
_K01_POWERS = np.arange(_K01_SERIES.shape[1])
# From x = 1 up, sinh(t/2) = s / sqrt(2x) turns K_nu(x) e^x =
# int_0^inf exp(-x (cosh t - 1)) cosh(nu t) dt into
# int_R exp(-s^2) (1 + nu s^2/x) / sqrt(2x + s^2) ds.  Its branch points
# s = +-i sqrt(2x) are at least sqrt(2) from the real line, so the trapezoid
# rule with step 0.2 is within about e^(2 - 2 pi sqrt(2) / 0.2) = e^-42 of it;
# e^-s^2 is below 1e-18 past the last node s = 6.6.
_K01_STEP = 0.2
_K01_S2 = (_K01_STEP * np.arange(34)) ** 2
_K01_WEIGHTS = _K01_STEP * np.exp(-_K01_S2) * np.where(_K01_S2 == 0.0, 1.0, 2.0)


def _k01_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K_0(x) and (2/x) (K_1(x) - 1/x) by the series above, for 0 < x < 1."""
    c, d, a, b = ((0.25 * x * x)[:, None, None] ** _K01_POWERS * _K01_SERIES).sum(axis=2).T
    log_term = np.log(0.5 * x) + _EULER_GAMMA
    return d - log_term * c, log_term * a - b


def scaled_bessel_k01(x):
    """(K_0(x) e^x, K_1(x) e^x), elementwise for x > 0, as two float arrays.

    The ascending series below x = 1 and a 34-node trapezoid rule from 1 up;
    x = inf gives 0.  Within a few ulps of the true value everywhere.
    """
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise ValueError("scaled_bessel_k01 requires x > 0")
    k0 = np.empty(x.shape)
    k1 = np.empty(x.shape)
    small = x < 1.0
    if small.any():
        xs = x[small]
        k0s, k1s = _k01_series(xs)
        scale = np.exp(xs)
        k0[small] = k0s * scale
        k1[small] = (1.0 / xs + 0.5 * xs * k1s) * scale
    if not small.all():
        xl = x[~small]
        u = _K01_S2 / xl[:, None]
        q = _K01_WEIGHTS / np.sqrt(2.0 + u)
        root = np.sqrt(xl)
        k0[~small] = q.sum(axis=1) / root
        k1[~small] = (q * (1.0 + u)).sum(axis=1) / root
    return k0, k1


def xk1_pair(x):
    """(1 - x K_1(x), x K_1(x)) elementwise for x >= 0, (0, 1) at x = 0 and
    (1, 0) at x = inf.  x K_1(x) tends to 1 as x -> 0, so below x = 1 the
    series gives the difference directly, -(x^2/2) times the bracket of K_1's
    series, to a few ulps; from x = 1 up the scaled kernel gives x K_1(x),
    tail digits included, and the difference is one minus it.
    """
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ValueError("xk1_pair requires x >= 0")
    infinite = x == math.inf
    p, q = np.where(infinite, 1.0, 0.0), np.where(infinite, 0.0, 1.0)
    small = (x > 0.0) & (x < 1.0)
    xs = x[small]
    p[small] = -0.5 * xs * xs * _k01_series(xs)[1]
    q[small] = 1.0 - p[small]
    large = ~(x < 1.0) & ~infinite  # NaN stays NaN
    xl = x[large]
    q[large] = xl * (scaled_bessel_k01(xl)[1] * np.exp(-xl))
    p[large] = 1.0 - q[large]
    return p[()], q[()]


# Stirling-series coefficients of cephes' lgam (S. L. Moshier), highest power
# of 1/n^2 first
_LGAM_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                  7.93650340457716943945e-4, -2.77777777730099687205e-3,
                  8.33333333333331927722e-2)


def log_gamma_int(n: int) -> float:
    """log Gamma(n) = log (n-1)! for an integer n >= 1.

    Below 13 the factorial is exact, and this is one rounding of its log.
    From 13 up it is Stirling's series with the minimax coefficients of
    cephes' lgam, which scipy.special.gammaln evaluates the same way: for
    n < 1000 the two give the same bits.  Those bits matter to
    `analytic.outage_phase_error_uniform_pi`, whose high-power outage
    1 - e^(log ccdf) forms log ccdf ~ -1e-8 from terms near 100, so its
    printed digits follow the last bit of log Gamma(L); math.lgamma differs
    by one or two ulps at n = 3, 4, 5, 14, 15, 16, 17 and many more.
    """
    if n < 1 or int(n) != n:
        raise ValueError("log_gamma_int needs an integer n >= 1")
    if n < 13:
        return math.log(math.factorial(int(n) - 1))
    p = 1.0 / (n * n)
    poly = 0.0
    for coefficient in _LGAM_STIRLING:
        poly = poly * p + coefficient
    return (n - 0.5) * math.log(n) - n + 0.5 * math.log(2.0 * math.pi) + poly / n


def log_bessel_k(order: int, x: float) -> float:
    """log K_order(x) for integer order >= 0, stable where K itself overflows.

    Uses the exponentially scaled K_0/K_1 and the upward recurrence
    K_{m+1} = K_{m-1} + (2m/x) K_m with periodic renormalization; the
    recurrence is stable in the increasing-order direction.
    """
    if order < 0 or int(order) != order:
        raise ValueError("order must be a nonnegative integer")
    if x <= 0:
        raise ValueError("log_bessel_k requires x > 0")
    k0, k1 = (float(k) for k in scaled_bessel_k01(x))
    if order == 0:
        return math.log(k0) - x
    logscale = -x
    a, b = k0, k1
    for m in range(1, int(order)):
        a, b = b, a + (2.0 * m / x) * b
        if b > 1e280:
            a /= b
            logscale += math.log(b)
            b = 1.0
    return math.log(b) + logscale


def _two_sum(a, b):
    """s = fl(a + b) and the exact rounding error e, a + b = s + e (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_product(a, b):
    """p = fl(a b) and the exact rounding error e, a b = p + e (Dekker)."""
    p = a * b
    a_hi = 134217729.0 * a
    a_hi -= a_hi - a
    b_hi = 134217729.0 * b
    b_hi -= b_hi - b
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _gamma_density(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x^a e^-x / Gamma(a) for x > 0, accurate to a few times a eps.

    The logarithm a log(x/a) + (a - x) + (a log a - a - lgamma(a)) reaches
    several hundred in the tails, where one rounding of it is already 6e-14
    relative.  So it is carried as an unevaluated sum hi + lo: log(x/a) is
    the rounded r = log y (y = x/a) plus the correction (y - e^r)/y, the
    product a r and the two large sums are split exactly, and the result is
    e^hi e^lo.  Within a/2 of a, r is log1p((x - a)/a), whose error of about
    eps |x - a| needs no correction.  The last term is the Stirling series from a = 10 up, where
    a log a and lgamma(a) would cancel.  Below e^-709.78, the reciprocal of
    the largest double, the density is returned as 0, as cephes (and so
    scipy) returns it: P and Q there would be subnormals of few significant
    bits.  Where y overflows (x above a times the largest double, so a < 1)
    the density is below that too, and is 0.
    """
    inv = 1.0 / a
    inv2 = inv * inv
    stirling = 0.5 * np.log(a / (2.0 * math.pi)) - inv * (
        1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 * (
            1 / 1188 - inv2 * (691 / 360360 - inv2 / 156))))))
    lgamma = np.fromiter(map(math.lgamma, a.flat), float, a.size).reshape(a.shape)
    offset = np.where(a >= 10.0, stirling, a * np.log(a) - a - lgamma)
    # the masked limits: y = inf makes hi and lo NaN, and far below the
    # underflow e^hi is 0 while e^lo may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        y = x / a
        near = np.abs(x - a) < 0.5 * a
        r = np.log(y)
        np.log1p((x - a) / a, out=r, where=near)
        product, product_error = _two_product(a, r)
        shift, shift_error = _two_sum(a, -x)
        hi, sum_error = _two_sum(product, shift)
        correction = np.where(near, 0.0, (y - np.exp(r)) / y)
        lo = (product_error + shift_error + sum_error + a * correction) + offset
        return np.where((hi + lo < _LOG_UNDERFLOW) | (y == math.inf), 0.0,
                        np.exp(hi) * np.exp(lo))


_SERIES_CHUNK = 32


def _lower_gamma_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_{n>=0} x^n / (a (a+1) ... (a+n)), stopped at the first term below
    eps times the partial sum, as in a term-by-term loop.

    The terms and partial sums are taken _SERIES_CHUNK at a time by cumprod
    and cumsum along each row, which multiply and add in loop order, so a
    row's value does not depend on the others in the call.
    """
    total = np.empty(a.shape)
    term = partial = 1.0 / a
    start = 1.0
    todo = np.arange(a.size)
    while todo.size:
        ratio = x[:, None] / (a[:, None] + (start + np.arange(_SERIES_CHUNK)))
        terms = np.cumprod(np.column_stack([term, ratio]), axis=1)[:, 1:]
        sums = np.cumsum(np.column_stack([partial, terms]), axis=1)[:, 1:]
        small = terms <= _EPS * sums
        done = small.any(axis=1)
        total[todo[done]] = sums[done, small[done].argmax(axis=1)]
        more = ~done
        todo, a, x = todo[more], a[more], x[more]
        term, partial = terms[more, -1], sums[more, -1]
        start += _SERIES_CHUNK
    return total


def _regularized_gamma(a, x) -> tuple[np.ndarray, np.ndarray]:
    """(P(a, x), Q(a, x)) elementwise for a > 0, x >= 0 (Numerical Recipes
    6.2): the series for P below x = a + 1 and the modified Lentz continued
    fraction for Q from there up; the other is one minus it."""
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    p = np.where(x == math.inf, 1.0, 0.0)
    q = np.where(x == math.inf, 0.0, 1.0)

    # x/a = 0 (x subnormal) leaves P = 0: it is below x there
    with np.errstate(over="ignore"):  # x/a = inf is above a + 1 too
        series = (x / a > 0) & (x < a + 1.0)
    if series.any():
        aa, xx = a[series], x[series]
        p[series] = _lower_gamma_series(aa, xx) * _gamma_density(aa, xx)
        q[series] = 1.0 - p[series]

    fraction = (x >= a + 1.0) & (x < math.inf)
    if fraction.any():
        aa, xx = a[fraction], x[fraction]
        # for x >= a + 1 the denominators stay above 3 (checked over
        # a in [0.01, 500]), so Lentz's guard against a zero divisor is left out
        b = xx + 1.0 - aa
        c = np.full(aa.shape, 1e300)
        d = 1.0 / b
        h = d.copy()
        active = np.ones(aa.shape, dtype=bool)
        i = 0
        while np.count_nonzero(active):
            i += 1
            an = i * (aa - i)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            delta = d * c
            np.multiply(h, delta, out=h, where=active)
            delta -= 1.0
            active &= np.abs(delta, out=delta) > _EPS
        q[fraction] = h * _gamma_density(aa, xx)
        p[fraction] = 1.0 - q[fraction]
    return p[()], q[()]


def _check_gamma_arguments(a, x) -> None:
    if not np.all(np.asarray(a) > 0):
        raise ValueError("shape parameter a must be > 0")
    if not np.all(np.asarray(x) >= 0):
        raise ValueError("x must be >= 0")


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    _check_gamma_arguments(a, x)
    return _regularized_gamma(a, x)[0]


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper counterpart Q(a, x) = 1 - P(a, x): its own continued fraction from
    x = a + 1 up, and 1 - P below, where Q > e^-2 for a >= 1."""
    _check_gamma_arguments(a, x)
    return _regularized_gamma(a, x)[1]


# E1(x) = -gamma - log x - sum_{n>=1} (-x)^n / (n n!) below x = 1 (18 terms
# leave 1e-17); from x = 1 up, e^x E1(x) = 1/(x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
# evaluated bottom up from a fixed depth of 100 levels, which reaches full
# precision at x = 1 and more than that above it.
_E1_SERIES = [(-1) ** n / (n * math.factorial(n)) for n in range(18, 0, -1)]
_E1_DEPTH = 100


def scaled_exp1(x):
    """e^x E1(x), E1(x) = int_x^inf e^-t / t dt, elementwise for x > 0: finite
    where E1 alone underflows (x > 700), and 0 at x = inf."""
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise ValueError("scaled_exp1 requires x > 0")
    out = np.empty(x.shape)
    small = x < 1.0
    xs = x[small]
    poly = np.zeros(xs.shape)
    for coefficient in _E1_SERIES:
        poly = poly * xs + coefficient
    out[small] = np.exp(xs) * (-_EULER_GAMMA - np.log(xs) - xs * poly)
    xl = x[~small]
    t = xl + (2 * _E1_DEPTH + 1)
    for i in range(_E1_DEPTH, 0, -1):
        t = (xl + (2 * i - 1)) - (i * i) / t
    out[~small] = 1.0 / t
    return out[()]


_DIGAMMA_STEPS = np.arange(10.0)


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for x > 0, elementwise.

    psi(x) = psi(x + 10) - sum_{i<10} 1/(x + i), and at z = x + 10 the
    asymptotic series log z - 1/(2z) - sum_n B_2n / (2n z^2n), whose first
    omitted term (n = 9) is below 4e-18 there.
    """
    x = np.asarray(x, dtype=float)
    if not (x > 0).all():
        raise ValueError("digamma requires x > 0")
    z = x + 10.0
    shift = (1.0 / (x[..., None] + _DIGAMMA_STEPS)).sum(axis=-1)
    r = 1.0 / (z * z)
    series = r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r * (
        1 / 132 - r * (691 / 32760 - r * (1 / 12 - r * 3617 / 8160)))))))
    return (np.log(z) - 0.5 / z - series - shift)[()]


def erf(x):
    """Error function, elementwise (math.erf on each element)."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.flat), float, x.size).reshape(x.shape)[()]


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float


def integrate_semi_infinite(f: Callable[[float], float],
                            spec: QuadratureSpec = QuadratureSpec()) -> QuadratureResult:
    """Integrate f over (0, inf) to the requested tolerance.

    The infinite range is mapped onto a finite interval and refined by
    adaptive Gauss-Kronrod subdivision (QUADPACK QAGI through
    `scipy.integrate.quad`); raises NonConvergenceError when the subdivision
    budget is exhausted with the error estimate still above tolerance.  This
    is the one function in the package that needs scipy, which is a test
    dependency only: it is imported on the first call.

    Unit-scale blind spot: when the integrand's mass sits far from unit scale,
    the map can put no node where the mass is, and the call returns a wrong
    value with no error.  The Gamma-fit KL integrand at sigma^2 = 1e-6 comes
    back with E[log K_0] ~ 0, reported as converged (divergence 1.504, not
    2.3e-4).  Rescale the integrand to unit scale first.  The library no longer
    calls it; the tests use it only as an adaptive reference.
    """
    from scipy import integrate

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        value, abserr, info, *tail = integrate.quad(
            f, 0.0, np.inf,
            epsabs=spec.absolute_tolerance,
            epsrel=spec.relative_tolerance,
            limit=spec.max_subdivisions,
            full_output=1,
        )
    if not math.isfinite(value):
        raise NonConvergenceError(
            f"semi-infinite quadrature returned non-finite value {value!r}",
            value=value, error_estimate=abserr)
    if tail:  # quadpack attached a warning message
        tol = max(spec.absolute_tolerance, spec.relative_tolerance * abs(value))
        if abserr > tol:
            raise NonConvergenceError(
                f"semi-infinite quadrature did not converge: estimate {value!r}, "
                f"error {abserr!r} above tolerance {tol!r}",
                value=value, error_estimate=abserr)
    return QuadratureResult(float(value), float(abserr))
