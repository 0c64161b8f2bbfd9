"""Closed-form and asymptotic outage / spectral-efficiency results for the
reciprocal two-way link with optimal surface phases.

The per-element cascade amplitude is a product of two independent Rayleigh
variables; its exact CDF carries a Bessel-K kernel, and sums over elements are
handled through a moment-matched Gamma approximation (shape k, scale theta).
Every law takes the paper's inputs (L, gamma_th, rho, sigma^2) and fits its
own parameters.

The spectral-efficiency closed forms (quoted in terms of Meijer-G /
generalized hypergeometric functions) are evaluated as expectations over a
Gamma law, E[phi(Y)] with Y ~ Gamma(a, 1):

- Gamma approximation: the SINR is rho theta^2 Y^2 with a = L k, so
  phi(y) = log2(1 + rho theta^2 y^2).
- Exact single-element and phase-scrambled laws: the tail
  2 (z/2)^L K_L(z) / Gamma(L) is the law of rho sigma^4 G E with
  G ~ Gamma(L, 1) and E ~ Exp(1); the average over E is e^x E1(x) / ln 2 at
  x = 1 / (rho sigma^4 G).

One fixed-node rule computes all of them: the trapezoid rule in u = log y
(exponentially convergent for this analytic, rapidly decaying integrand), with
a step shrinking like 1/sqrt(a + 1).  The Gamma-fit divergence needs
E[log K_0(S)] with S of density s K_0(s), which is taken by the same rule in
u = log s on a fixed grid.  Both error estimates are the difference between
the full sum and the sum over every other node; NonConvergenceError is raised
when that exceeds the rule's fixed tolerance, a check that never moves the
value.  Nothing here calls adaptive quadrature.

The outage laws and the spectral efficiencies take rho as a scalar or as an
array: a power sweep is one call, with the node grid built once, and each
point's value is the same bits as its own scalar call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channel import Scheme
from .numerics import (NonConvergenceError, digamma, erf, log_bessel_k,
                       log_gamma_int, regularized_gamma_p, scaled_bessel_k01,
                       scaled_exp1, xk1_pair)

EULER_GAMMA = float(np.euler_gamma)  # expansion constant, not the phase jitter
LOG2 = math.log(2.0)


@dataclass(frozen=True)
class GammaApproxParams:
    """Moment-matched Gamma fit of one cascade amplitude: shape k, scale theta."""

    k: float
    theta: float


def gamma_approx_params(sigma2: float) -> GammaApproxParams:
    """k = pi^2/(16 - pi^2), theta = (16 - pi^2) sigma^2 / (4 pi)."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    pi2 = math.pi**2
    return GammaApproxParams(k=pi2 / (16.0 - pi2),
                             theta=(16.0 - pi2) * sigma2 / (4.0 * math.pi))


def _cascade_argument(gamma_th, rho, sigma2):
    """z = (2/sigma^2) sqrt(gamma_th / rho), the Bessel argument of the exact law."""
    return (2.0 / sigma2) * np.sqrt(np.asarray(gamma_th, dtype=float) / rho)


def _check_rho(rho) -> None:
    bad = np.asarray(rho, dtype=float)
    bad = bad[~((bad > 0) & (bad < math.inf))]
    if bad.size:
        raise ValueError(f"rho must be > 0 and finite, got {bad[0]}")


def outage_exact_L1(gamma_th, rho, sigma2: float = 1.0):
    """Exact single-element outage 1 - z K_1(z)."""
    _check_rho(rho)
    return xk1_pair(_cascade_argument(gamma_th, rho, sigma2))[0]


def ccdf_exact_L1(gamma_th, rho, sigma2: float = 1.0):
    """Exact single-element P(SINR > gamma_th) = z K_1(z), the other half of
    `outage_exact_L1`'s pair: one minus the outage loses every digit of the
    tail, which falls below 1e-16 at z = 40."""
    _check_rho(rho)
    return xk1_pair(_cascade_argument(gamma_th, rho, sigma2))[1]


def outage_gamma_Lge2(L: int, gamma_th, rho, sigma2: float = 1.0):
    """Gamma-approximation outage P(L k, sqrt(gamma_th/rho) / theta), with
    (k, theta) the fit `gamma_approx_params(sigma2)`."""
    if L < 2:
        raise ValueError("gamma-approximation outage is for L >= 2")
    _check_rho(rho)
    params = gamma_approx_params(sigma2)
    x = np.sqrt(np.asarray(gamma_th, dtype=float) / rho) / params.theta
    return regularized_gamma_p(L * params.k, x)


def outage_clt(L: int, gamma_th, rho, sigma2: float = 1.0):
    """Gaussian-limit outage in its error-function form: the summed cascade
    amplitude has mean mu = L pi sigma^2 / 4 and variance
    eta = L (16 - pi^2) sigma^4 / 16."""
    if L < 1 or sigma2 <= 0:
        raise ValueError(f"L must be >= 1 and sigma2 must be > 0, got {L} and {sigma2}")
    _check_rho(rho)
    mu = L * math.pi * sigma2 / 4.0
    eta = L * (16.0 - math.pi**2) * sigma2**2 / 16.0
    u = np.sqrt(np.asarray(gamma_th, dtype=float) / rho)
    s = math.sqrt(2.0 * eta)
    with np.errstate(divide="ignore"):  # s = 0 (eta underflows) is the step erf(+-inf)
        out = 0.5 * (erf((u - mu) / s) + erf((u + mu) / s))
    return np.clip(out, 0.0, 1.0)


def _log_cascade_ccdf_uniform_phase(L: int, z: float) -> float:
    """log of the tail 2 (z/2)^L K_L(z) / Gamma(L) of the fully phase-scrambled
    cascade sum, stable for any order: the factors overflow long before the
    product (which lies in [0, 1]) does."""
    return (math.log(2.0) + L * math.log(z / 2.0) + log_bessel_k(L, z)
            - log_gamma_int(L))


def outage_phase_error_uniform_pi(L: int, gamma_th, rho, sigma2: float = 1.0):
    """Exact outage when every element phase is scrambled uniformly over (-pi, pi]."""
    _check_rho(rho)
    z = _cascade_argument(gamma_th, rho, sigma2)
    out = np.empty(z.shape)
    for i, zi in np.ndenumerate(z):
        # 0.0 - x rather than -x: a ccdf that rounds to 1 gives +0.0, not -0.0
        out[i] = 0.0 if zi == 0.0 else 0.0 - math.expm1(
            min(_log_cascade_ccdf_uniform_phase(L, zi), 0.0))
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


# Node spacing in u = log y, divided by sqrt(a + 1): log Y has standard
# deviation ~1/sqrt(a), so this keeps ~4 nodes per standard deviation, where
# the every-other-node sum S_2h already meets a 1e-9 relative tolerance.
_GAMMA_RULE_STEP = 0.23
_LOG_LEFT_MASS = -40.0      # left cut: P(Y below it) <= e^-40
_LOG_WEIGHT_FLOOR = -700.0  # right cut: the weight beyond it is below e^-700
# (relative, absolute) tolerance of each rule's error estimate, read at each call:
# the nodes are fixed, so it decides whether NonConvergenceError is raised, not the value
_GAMMA_RULE_TOL = (1e-9, 1e-12)
_KL_RULE_TOL = (1e-10, 1e-13)


def _log_trapezoid(terms: np.ndarray, h: float, j: np.ndarray,
                   tolerance: tuple[float, float], what: str) -> np.ndarray:
    """Trapezoid sums S_h = h sum(terms) of each row of `terms`, over the
    nodes u = u0 + h j.

    |S_h - S_2h|, with S_2h the sum over the nodes of even j, estimates the
    error of S_2h and so overstates that of S_h; NonConvergenceError is
    raised for the first row where it exceeds the (relative, absolute)
    `tolerance`.  Each row is summed on its own, so a row's value and error
    are the same bits in a stack of any height.
    """
    value = h * np.sum(terms, axis=1)
    # numpy sums each contiguous row pairwise, as it sums a 1-D array; the
    # masked copy is column-major, and its rows would be summed in another order
    coarse = 2.0 * h * np.sum(np.ascontiguousarray(terms[:, j % 2 == 0]), axis=1)
    error = np.abs(value - coarse)
    relative, absolute = tolerance
    tol = np.fmax(absolute, relative * np.abs(value))
    failed = ~(np.isfinite(value) & (error <= tol))
    if failed.any():
        i = int(np.argmax(failed))
        v, e, t = float(value[i]), float(error[i]), float(tol[i])
        raise NonConvergenceError(
            f"{what} did not converge: estimate {v!r}, error {e!r} "
            f"above tolerance {t!r}", value=v, error_estimate=e)
    return value


def _gamma_expectation(phi: Callable[[np.ndarray], np.ndarray], a: float) -> np.ndarray:
    """E[phi(Y)] for Y ~ Gamma(a, 1), a >= 1, by the trapezoid rule in u = log y.

    phi maps the nodes y to a (points, nodes) array, one row per integrand,
    and the result holds one expectation per row; the grid and the weights
    are built once for all of them.  Each phi must be nonnegative and
    nondecreasing, as every rate here is.  The weight
    exp(a u - e^u - lnGamma(a)) is analytic and decays exponentially to the
    left and double-exponentially to the right, so the trapezoid sum S_h
    converges exponentially in 1/h.  The nodes sit on a grid anchored at the
    mode u = log a.  On the left they stop where P(Y < e^u) <= e^{a u} /
    Gamma(a + 1) reaches e^-40, which for such phi bounds the relative
    truncation error by about e^-40; on the right, where the weight falls
    below e^-700.  The error check is that of `_log_trapezoid`, at
    _GAMMA_RULE_TOL.
    """
    if a < 1:
        raise ValueError("the Gamma-law rule needs shape a >= 1")
    log_norm = math.lgamma(a)
    lo = (math.lgamma(a + 1.0) + _LOG_LEFT_MASS) / a
    # log t <= log(2a) + (t - 2a)/(2a) bounds the log weight by
    # a log(2a) - a - t/2 - lnGamma(a) at t = e^u
    hi = math.log(2.0 * (a * math.log(2.0 * a) - a - log_norm - _LOG_WEIGHT_FLOOR))
    h = _GAMMA_RULE_STEP / math.sqrt(a + 1.0)
    mode = math.log(a)
    j = np.arange(math.ceil((lo - mode) / h), math.floor((hi - mode) / h) + 1)
    u = mode + h * j
    y = np.exp(u)
    terms = phi(y) * np.exp(a * u - y - log_norm)
    return _log_trapezoid(terms, h, j, _GAMMA_RULE_TOL, f"Gamma-law expectation (shape {a:g})")


def _column(rho) -> np.ndarray:
    """rho as a (points, 1) column, checked; a scalar is one point."""
    rho = np.asarray(rho, dtype=float).reshape(-1, 1)
    _check_rho(rho)
    return rho


def _rate(nats: np.ndarray, rho, half_rate: bool):
    """bits/sec/Hz from natural-log rates: a float for a scalar rho, else an array."""
    rate = nats / LOG2 * (0.5 if half_rate else 1.0)
    return float(rate[0]) if np.ndim(rho) == 0 else rate


def _se_cascade_law(L: int, rho, sigma2: float, half_rate: bool):
    """E[log2(1 + X)] where X has the tail 2 (z/2)^L K_L(z) / Gamma(L),
    z = (2/sigma^2) sqrt(x/rho), at each rho.

    That tail is the law of c G E with c = rho sigma^4, G ~ Gamma(L, 1) and
    E ~ Exp(1); averaging over E in closed form leaves E_G[e^x E1(x)] at
    x = 1/(c G), which is ln(c G) - gamma to double precision where c G overflows.
    """
    column = _column(rho)
    log_c = np.log(column) + 2.0 * math.log(sigma2)

    def phi(g: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore"):
            x = 1.0 / (column * (sigma2 * sigma2) * g)
        huge = x == 0.0
        return np.where(huge, log_c + np.log(g) - EULER_GAMMA, scaled_exp1(np.where(huge, 1, x)))

    return _rate(_gamma_expectation(phi, L), rho, half_rate)


def se_exact_L1(rho, sigma2: float = 1.0, half_rate: bool = False):
    """Single-element spectral efficiency (the Bessel-kernel rate integral)."""
    return _se_cascade_law(1, rho, sigma2, half_rate)


def se_gamma(L: int, rho, sigma2: float = 1.0, half_rate: bool = False):
    """Gamma-approximation spectral efficiency for L >= 2, at each rho.

    The outage P(L k, sqrt(x/rho)/theta) is the CDF of rho theta^2 Y^2 with
    Y ~ Gamma(L k, 1), so the rate is E[log2(1 + rho theta^2 Y^2)].
    """
    params = gamma_approx_params(sigma2)
    scale = _column(rho) * params.theta**2
    nats = _gamma_expectation(lambda y: np.log1p(scale * y * y), L * params.k)
    return _rate(nats, rho, half_rate)


def se_phase_error_uniform_pi(L: int, rho, sigma2: float = 1.0, half_rate: bool = False):
    """Spectral efficiency under fully scrambled phases (exact law)."""
    return _se_cascade_law(L, rho, sigma2, half_rate)


def sandwich_bounds_Lge2(L: int, gamma_th: float, rho: float,
                         sigma2: float = 1.0) -> tuple[float, float]:
    """[P1(gamma_th/L^2)]^L <= P_out(L) <= [P1(gamma_th)]^L, built from the exact
    single-element law (a true statement about the exact sum distribution)."""
    if L < 2:
        raise ValueError("bounds apply for L >= 2")
    lower = float(outage_exact_L1(gamma_th / L**2, rho, sigma2)) ** L
    upper = float(outage_exact_L1(gamma_th, rho, sigma2)) ** L
    return lower, upper


def _log_growth_noise(omega: float, nu: float, noise_mw: float) -> Optional[float]:
    """The large-power regime under the interference omega * P^nu: the effective
    noise omega + N0 where rho = P / (omega + N0) grows with P (nu = 0, or
    omega = 0 at any nu), None where rho saturates at the floor 1/omega (nu = 1)."""
    if nu == 0.0 or omega == 0.0:
        return omega + noise_mw
    if nu == 1.0:
        return None
    raise ValueError(f"large-power laws are handled for nu in {{0, 1}} only, got {nu:g}")


def _log_gain_constant(L: int, sigma2: float) -> float:
    """c_L = E[ln(SINR / rho)], so that the large-power rate is (ln rho + c_L) / ln 2:
    ln sigma^4 - 2 gamma from the exact single-element law, 2 psi(L k) + ln theta^2
    from the Gamma fit for L >= 2."""
    if L == 1:
        return 2.0 * math.log(sigma2) - 2.0 * EULER_GAMMA
    params = gamma_approx_params(sigma2)
    return 2.0 * digamma(L * params.k) + 2.0 * math.log(params.theta)


def _floor_se(L: int, omega: float, sigma2: float) -> float:
    """The spectral efficiency at the interference floor rho = 1/omega."""
    rho_floor = 1.0 / omega
    if L == 1:
        return se_exact_L1(rho_floor, sigma2)
    return se_gamma(L, rho_floor, sigma2)


def asymptotic_outage(L: int, gamma_th: float, p_mw: float, omega: float,
                      nu: float, noise_mw: float, sigma2: float = 1.0) -> float:
    """Large-power outage: (log rho / rho)^L decay for nu=0, floor at rho=1/omega
    for nu=1.  The L >= 2 array-gain constant is an approximation; only the decay
    rate is contractual.  With omega = 0 the interference omega * P^nu vanishes
    for every nu, so the interference-free nu=0 law holds."""
    n_eff = _log_growth_noise(omega, nu, noise_mw)
    if n_eff is None:
        rho_floor = 1.0 / omega
        if L == 1:
            return float(outage_exact_L1(gamma_th, rho_floor, sigma2))
        return float(outage_gamma_Lge2(L, gamma_th, rho_floor, sigma2))
    rho = p_mw / n_eff
    if L == 1:
        if rho <= 1.0:  # log(rho) / rho is not a probability below rho = 1
            raise ValueError("asymptotic outage for L = 1 needs rho = P / (omega + N0) "
                             f"to exceed 1, got {rho:g}")
        return (gamma_th / sigma2**2) * math.log(rho) / rho
    if p_mw <= 1.0:  # the decay term below takes log(log P)
        raise ValueError("asymptotic outage for L >= 2 needs P to exceed 0 dBm (1 mW), "
                         f"got {p_mw:g} mW")
    params = gamma_approx_params(sigma2)
    a = params.k * L
    # log domain: the gain's factors overflow double range long before
    # the (tiny) product does
    log_gain = ((a / 2.0) * math.log(gamma_th * n_eff)
                - math.log(a) - a * math.log(params.theta)
                - math.lgamma(a))
    log_decay = L * (math.log(math.log(p_mw)) - math.log(p_mw))
    try:
        return math.exp(log_gain + log_decay)
    except OverflowError:
        return math.inf


def asymptotic_se(L: int, p_mw: float, omega: float, nu: float, noise_mw: float,
                  sigma2: float = 1.0, scheme: Scheme = Scheme.ONE) -> float:
    """Large-power spectral efficiency: log(P) growth (nu=0, or omega=0 at any
    nu) or the rho=1/omega floor (nu=1); the two-slot scheme is
    interference-free and half rate.  The growth law is a rate only where it
    is positive: below that power it raises ValueError."""
    two = scheme is Scheme.TWO
    n_eff = _log_growth_noise(0.0 if two else omega, nu, noise_mw)
    if n_eff is None:
        return _floor_se(L, omega, sigma2)
    nats = math.log(p_mw) - math.log(n_eff) + _log_gain_constant(L, sigma2)
    if nats <= 0.0:
        raise ValueError("asymptotic spectral efficiency needs a positive log-growth "
                         f"rate, got {nats / LOG2:g} bits/sec/Hz at P = {p_mw:g} mW")
    return nats / LOG2 * (0.5 if two else 1.0)


def delta_r(L1: int, L2: int, k: float) -> float:
    """Rate gained by growing the surface from L1 to L2 elements [bits/sec/Hz]."""
    if not 1 <= L1 <= L2:
        raise ValueError("need L2 >= L1 >= 1")
    return 2.0 * (digamma(L2 * k) - digamma(L1 * k)) / LOG2


def delta_p(L1: int, L2: int, k: float) -> float:
    """Transmit power saved at equal rate by growing L1 -> L2 elements [dB]."""
    if not 1 <= L1 <= L2:
        raise ValueError("need L2 >= L1 >= 1")
    return 20.0 * math.log10(math.e) * (digamma(L2 * k) - digamma(L1 * k))


def scheme_crossover_dbm(L: int, omega: float, nu: float, noise_mw: float,
                         sigma2: float = 1.0) -> float:
    """Transmit power (dBm) where the one-slot scheme starts to outperform the
    two-slot scheme (nu=0, or omega=0 at any nu), or the upper power bound below
    which it still does (nu=1).

    The two-slot rate is (ln P - ln N0 + c_L) / (2 ln 2).  It meets the one-slot
    rate (ln P - ln N_eff + c_L) / ln 2 at N_eff^2 / N0 e^-c_L, and the floor
    rate at ln P = 2 ln 2 R_floor + ln N0 - c_L.  Taken in logs, so it is finite
    where the power in mW is not a double."""
    n_eff = _log_growth_noise(omega, nu, noise_mw)
    log_p = (2.0 * LOG2 * _floor_se(L, omega, sigma2) + math.log(noise_mw) if n_eff is None
             else 2.0 * math.log(n_eff) - math.log(noise_mw)) - _log_gain_constant(L, sigma2)
    return 10.0 / math.log(10.0) * log_p


# Fixed grid for E[log K_0(S)] in u = log s.  The every-other-node sum, at
# step 0.3, is already within ~3e-12 of the limit, and the full sum within
# roundoff.
_KL_RULE_STEP = 0.15
_KL_LOG_RANGE = (-20.0, 4.0)


def kl_divergence_gamma_fit(sigma2: float) -> float:
    """Divergence between the exact cascade-amplitude density and its Gamma fit.

    The exact density is f(t) = 4 t K_0(2 t / sigma^2) / sigma^4, and against
    the Gamma(k, theta) fit the divergence is a constant plus
    E_f[log K_0(2 T / sigma^2)].  Both laws scale with sigma^2, so the
    divergence does not depend on it: s = 2 t / sigma^2 turns the expectation
    into E[log K_0(S)], S with density s K_0(s), and the constant is taken at
    sigma^2 = 1.

    The expectation is the trapezoid rule in u = log s on a fixed grid of step
    0.15 over [-20, 4], with the error check of `_log_trapezoid` at
    _KL_RULE_TOL.  log K_0 changes sign at s ~ 0.46, so the truncation
    argument of `_gamma_expectation` does not carry over; the cut tails are
    bounded directly.  Below eps = e^-20, 1 < K_0(s) < log(2/s), and
    s log(2/s) log log(2/s) increases, so that tail is at most
    eps^2 log(2/eps) log log(2/eps) < 3e-16.  Above S = e^4,
    K_0(s) < sqrt(pi/(2s)) e^-s and |log K_0(s)| < 1.1 s, so that tail is at
    most about 1.1 sqrt(pi/2) S^1.5 e^-S < 1e-20.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    h = _KL_RULE_STEP
    lo, hi = _KL_LOG_RANGE
    j = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
    s = np.exp(h * j)
    log_k0 = np.log(scaled_bessel_k01(s)[0]) - s
    terms = s * s * np.exp(log_k0) * log_k0
    expect_log_k0 = float(_log_trapezoid(terms[None], h, j, _KL_RULE_TOL,
                                         "Gamma-fit divergence")[0])
    params = gamma_approx_params(1.0)
    k, theta = params.k, params.theta
    return (math.pi / (4.0 * theta) + k * math.log(theta)
            + EULER_GAMMA * (k - 2.0) + math.log(4.0 * math.gamma(k))
            + expect_log_k0)
