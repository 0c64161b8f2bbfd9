"""Surface phase design.

Reciprocal channels admit a closed-form optimum.  Non-reciprocal channels get
max-min SINR treatment: the unit-modulus phase problem is lifted to a PSD
matrix variable with per-element trace constraints, the rank constraint is
dropped, and the resulting small dense SDP is solved with a log-barrier
interior-point method (no external solver): along one central path that
maximizes the SINR level, or by bisection over the level with a feasibility
test at each.  The relaxation has only L+2 constraints (L pair traces, two
form levels), so each Newton step solves an (L+3)x(L+3) system in the
constraint multipliers and the level step, and recovers the matrix step
from them at O(L^3) cost (the Schur-complement reduction of Helmberg, Rendl,
Vanderbei and Wolkowicz, 1996).  Rank-one solutions are recovered by Gaussian
randomization; a greedy discretized coordinate search is the low-complexity
alternative.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import (NonReciprocalChannel, ReciprocalChannel, SinrBudget,
                      sinr_nonreciprocal, wrap_phases)


class SolverFailureError(RuntimeError):
    """Interior-point phase stalled; carries the residuals seen at the stall."""


class OptimMethod(enum.Enum):
    SDP_RELAX = "sdp"
    GREEDY_ITERATIVE = "greedy"
    U1_PHASE = "u1"
    RANDOM = "random"


@dataclass
class SdpSolution:
    t_star: float
    a_star: np.ndarray
    iterations: int
    feasibility_gap: float


@dataclass
class MaxMinResult:
    phases: np.ndarray
    achieved: tuple[float, float]
    method: OptimMethod
    iterations: int = 0
    t_star: Optional[float] = None
    a_star: Optional[np.ndarray] = None
    feasibility_gap: float = 0.0
    sweep_objectives: list = field(default_factory=list)


def optimal_phase_reciprocal(ch: ReciprocalChannel) -> np.ndarray:
    """Element phases that co-phase every cascade term (global SINR maximum)."""
    return wrap_phases(-np.angle(ch.h * ch.g))


def _interleave(cos_part: np.ndarray, sin_part: np.ndarray) -> np.ndarray:
    out = np.empty(2 * cos_part.size)
    out[0::2] = cos_part
    out[1::2] = sin_part
    return out


def _lifted_vectors(z: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectors c, d with (alpha . c)^2 + (alpha . d)^2 = rho |sum z_l e^{j phi_l}|^2
    for alpha = (cos phi_1, sin phi_1, ..., cos phi_L, sin phi_L)."""
    amp = np.sqrt(rho) * np.abs(z)
    theta = -np.angle(z)  # z_l = |z_l| e^{-j theta_l}
    c = _interleave(amp * np.cos(theta), amp * np.sin(theta))
    d = _interleave(-amp * np.sin(theta), amp * np.cos(theta))
    return c, d


def build_quadratic_forms(ch: NonReciprocalChannel,
                          budget: SinrBudget) -> tuple[np.ndarray, np.ndarray]:
    """Lift both user SINRs to quadratic forms in the stacked cos/sin variables.

    Returns the pair (F_1, F_2) of symmetric PSD 2L x 2L arrays, each of rank
    <= 2, with alpha^T F_p alpha = gamma_p.  User 1 combines h_r with g_t;
    user 2 combines g_r with h_t, each under its own average-SINR scale.
    """
    if not isinstance(ch, NonReciprocalChannel):
        raise ValueError("quadratic forms are defined for non-reciprocal realizations")
    c1, d1 = _lifted_vectors(ch.h_r * ch.g_t, budget.rho1)
    c2, d2 = _lifted_vectors(ch.g_r * ch.h_t, budget.rho2)
    return np.outer(c1, c1) + np.outer(d1, d1), np.outer(c2, c2) + np.outer(d2, d2)


def phases_to_lifted(phases: np.ndarray) -> np.ndarray:
    return _interleave(np.cos(phases), np.sin(phases))


def lifted_to_phases(alpha: np.ndarray) -> np.ndarray:
    return wrap_phases(np.arctan2(alpha[1::2], alpha[0::2]))


# ---------------------------------------------------------------------------
# log-barrier interior-point machinery on the lifted cone
# ---------------------------------------------------------------------------

def _newton_step(a: np.ndarray, forms: tuple[np.ndarray, np.ndarray], g: np.ndarray,
                 grad_t: float) -> tuple[np.ndarray, float]:
    """Newton direction (dA, dtheta) of the barrier under the pair-trace rows.

    With slacks g_p, G = -A^{-1} - sum_p F_p / g_p, g_theta = grad_t and E_l
    the diagonal indicator of pair l, stationarity gives
    dA = -A (G + sum_p delta_p F_p + sum_l nu_l E_l) A, where
    (delta_1, delta_2, nu_1..nu_L, dtheta) solve the symmetric (L+3) system
    delta_1 + delta_2 = g_theta, <E_l, dA> = 0, g_p^2 delta_p = <F_p, dA> - dtheta.
    Its entries are <F_p, A F_q A>, pair sums of diag(A F_p A) and 2x2 block
    sums of A*A, so a step costs O(L^3).  A G A = -A - sum_p A F_p A / g_p is
    formed without A^{-1}, and dA is symmetrized: near the rank-one optimum
    either roundoff lets the pair traces drift away from 1.
    """
    npairs = a.shape[0] // 2
    afa = [a @ f @ a for f in forms]
    aga = -a - afa[0] / g[0] - afa[1] / g[1]

    def pair_sums(m: np.ndarray) -> np.ndarray:
        return np.diagonal(m).reshape(npairs, 2).sum(axis=1)

    s = np.zeros((npairs + 3, npairs + 3))
    rhs = np.empty(npairs + 3)
    for p in (0, 1):
        for q in (0, 1):
            s[p, q] = np.sum(forms[p] * afa[q])
        s[p, p] += g[p] ** 2
        s[2:-1, p] = s[p, 2:-1] = pair_sums(afa[p])
        rhs[p] = -np.sum(forms[p] * aga)
    s[2:-1, 2:-1] = (a * a).reshape(npairs, 2, npairs, 2).sum(axis=(1, 3))
    s[:2, -1] = s[-1, :2] = 1.0
    rhs[2:-1] = -pair_sums(aga)
    rhs[-1] = grad_t
    sol = np.linalg.solve(s, rhs)
    nu = np.repeat(sol[2:-1], 2)
    da = -(aga + sol[0] * afa[0] + sol[1] * afa[1] + (a * nu) @ a)
    return 0.5 * (da + da.T), float(sol[-1])


@dataclass
class _BarrierOutcome:
    theta: float          # best certified objective value (primal)
    gap: float            # duality gap bound at exit
    a: np.ndarray         # interior matrix iterate
    newton_steps: int
    feasible: Optional[bool] = None  # sign certificate, phase-I use only


def _maximize_linear_over_cone(f1: np.ndarray, f2: np.ndarray, levels: tuple[float, float],
                               a0: np.ndarray, gap_tol: float,
                               sign_exit: bool = False,
                               max_newton: int = 400) -> _BarrierOutcome:
    """max theta  s.t. <F_p, A> - levels_p - theta >= 0, pair traces = 1, A > 0.

    Central-path following with barrier -log det A - sum_p log g_p; the barrier
    parameter grows by 10 per stage.  With sign_exit the solve stops as soon as
    the sign of the optimum is certified (phase-I feasibility test).
    """
    n = f1.shape[0]
    lev = np.asarray(levels, dtype=float)
    a = a0.copy()
    gains = np.array([np.sum(f1 * a), np.sum(f2 * a)])
    theta = float(np.min(gains - lev)) - 1.0
    complexity = n + 2.0

    tau = 1.0
    total_newton = 0
    gap = math.inf
    while True:
        for _ in range(60):
            if total_newton >= max_newton:
                raise SolverFailureError(
                    f"interior point stalled: tau={tau!r}, theta={theta!r}, "
                    f"gap<={complexity / tau!r}, newton_steps={total_newton}")
            g = gains - lev - theta
            if np.any(g <= 0.0):  # drifted out by roundoff; should not happen
                raise SolverFailureError(f"iterate left the feasible interior: slacks {g!r}")
            grad_a = -np.linalg.inv(a) - (f1 / g[0] + f2 / g[1])
            grad_t = -tau + float(np.sum(1.0 / g))
            try:
                da, dtheta = _newton_step(a, (f1, f2), g, grad_t)
            except np.linalg.LinAlgError as exc:
                raise SolverFailureError(f"singular Newton system at tau={tau!r}") from exc
            decrement = -(float(np.sum(grad_a * da)) + grad_t * dtheta)
            total_newton += 1

            step = 1.0
            _, logdet0 = _logdet_chol(a)
            phi0 = -tau * theta - logdet0 - math.log(g[0]) - math.log(g[1])
            for _ in range(60):
                a_new = a + step * da
                theta_new = theta + step * dtheta
                ok, logdet = _logdet_chol(a_new)
                if ok:
                    gains_new = np.array([np.sum(f1 * a_new), np.sum(f2 * a_new)])
                    g_new = gains_new - lev - theta_new
                    if np.all(g_new > 0.0):
                        phi_new = (-tau * theta_new - logdet
                                   - math.log(g_new[0]) - math.log(g_new[1]))
                        if phi_new <= phi0 - 0.25 * step * decrement:
                            break
                step *= 0.5
            else:
                raise SolverFailureError(
                    f"line search failed at tau={tau!r}, decrement={decrement!r}")
            a, theta, gains = a_new, theta_new, gains_new

            if sign_exit and theta > 0.0:
                return _BarrierOutcome(theta, complexity / tau, a, total_newton, feasible=True)
            if decrement / 2.0 <= 1e-9:
                break

        gap = complexity / tau
        if sign_exit:
            if theta > 0.0:
                return _BarrierOutcome(theta, gap, a, total_newton, feasible=True)
            if theta + gap < 0.0:
                return _BarrierOutcome(theta, gap, a, total_newton, feasible=False)
            if gap <= gap_tol:
                # optimum pinned inside [-gap_tol, gap_tol]: treat as infeasible
                return _BarrierOutcome(theta, gap, a, total_newton, feasible=False)
        elif gap <= gap_tol * max(1.0, abs(theta)):
            return _BarrierOutcome(theta, gap, a, total_newton)
        tau *= 10.0


def _logdet_chol(a: np.ndarray) -> tuple[bool, float]:
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False, math.nan
    return True, 2.0 * float(np.sum(np.log(np.diag(chol))))


def _initial_interior(n: int) -> np.ndarray:
    return 0.5 * np.eye(n)


def _form_arrays(forms: tuple[np.ndarray, np.ndarray],
                 *others: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (F_1, F_2) as float arrays, once both forms and `others` are
    checked to be square of one shape 2L x 2L."""
    f1, f2 = (np.asarray(f, dtype=float) for f in forms)
    shapes = [np.shape(m) for m in (f1, f2, *others)]
    if len(shapes[0]) != 2 or any(s != (shapes[0][0],) * 2 for s in shapes):
        raise ValueError(f"forms{' and a_star' if others else ''} must be square "
                         f"arrays of one shape, got shapes {shapes}")
    if shapes[0][0] % 2 or shapes[0][0] < 2:
        raise ValueError("forms must have even dimension 2L")
    return f1, f2


def sdp_maxmin(forms: tuple[np.ndarray, np.ndarray], tol: float = 1e-4,
               method: str = "bisect") -> SdpSolution:
    """Solve the lifted max-min relaxation of the forms (F_1, F_2) to relative
    tolerance `tol` > 0.

    method="bisect" runs the level search: a doubling/halving bracket around a
    trial level followed by bisection, each level decided by a phase-I slack
    maximization.  method="joint" maximizes the level directly along a single
    central path; both agree within tol.  The returned a_star is a symmetric
    2L x 2L array.
    """
    if not tol > 0:
        raise ValueError(f"relaxation tolerance must be > 0, got {tol!r}")
    f1, f2 = _form_arrays(forms)
    n = f1.shape[0]
    a0 = _initial_interior(n)
    base = np.array([np.sum(f1 * a0), np.sum(f2 * a0)])
    # scale by the smaller form value: the optimum then lies in [1, 2L] scaled
    # units, so relative gap targets stay relative even for lopsided budgets
    scale = float(np.min(base))
    if not scale > 0.0:
        raise SolverFailureError("a quadratic form vanishes on the initial point")
    f1s, f2s = f1 / scale, f2 / scale

    if method == "joint":
        out = _maximize_linear_over_cone(f1s, f2s, (0.0, 0.0), a0,
                                         gap_tol=tol / 4.0)
        return SdpSolution(t_star=out.theta * scale,
                           a_star=out.a,
                           iterations=out.newton_steps,
                           feasibility_gap=out.gap * scale)
    if method != "bisect":
        raise ValueError(f"unknown method {method!r}")

    sign_tol = tol / 8.0
    newton_total = 0
    warm = a0

    def feasible_at(level: float) -> tuple[bool, np.ndarray]:
        nonlocal newton_total, warm
        out = _maximize_linear_over_cone(f1s, f2s, (level, level), warm,
                                         gap_tol=sign_tol, sign_exit=True)
        newton_total += out.newton_steps
        # pull the next start back toward the analytic center: iterates near the
        # cone boundary make poor Newton starts for a different level
        warm = 0.8 * out.a + 0.2 * a0
        return bool(out.feasible), out.a

    # bracket search: doubling / halving with an exponentially growing factor
    t_trial = float(np.sum(f1s * a0))
    t_low: Optional[float] = None
    t_high: Optional[float] = None
    best_a = a0
    i = 1
    while t_low is None or t_high is None:
        ok, a_seen = feasible_at(t_trial)
        if ok:
            t_low, best_a = t_trial, a_seen
            t_trial = t_trial * 2.0**i
        else:
            t_high = t_trial
            t_trial = t_trial / 2.0**i
        i += 1
        if t_trial < 1e-14:
            # level 0 is always feasible for PSD forms
            t_low, best_a = 0.0, a0
        if i > 60:
            raise SolverFailureError("bracket search did not terminate")

    while (t_high - t_low) > tol * max(t_low, 1e-12):
        mid = 0.5 * (t_low + t_high)
        ok, a_seen = feasible_at(mid)
        if ok:
            t_low, best_a = mid, a_seen
        else:
            t_high = mid
    return SdpSolution(t_star=t_low * scale,
                       a_star=best_a,
                       iterations=newton_total,
                       feasibility_gap=(t_high - t_low) * scale)


def gaussian_randomization(a_star: np.ndarray, forms: tuple[np.ndarray, np.ndarray],
                           k: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Recover phases from the relaxed solution: draw K Gaussian vectors with
    covariance A* (a symmetric array shaped like the forms (F_1, F_2)),
    normalize each cos/sin pair onto the unit circle, keep the candidate with
    the best min-SINR quadratic form value."""
    if k < 1:
        raise ValueError("need at least one randomization sample")
    f1, f2 = _form_arrays(forms, a_star)
    n = f1.shape[0]
    npairs = n // 2
    w, v = np.linalg.eigh(a_star)
    lam_max = max(float(w[-1]), 0.0)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    if np.any(w < -1e-9 * lam_max):
        raise SolverFailureError(f"relaxed solution is not PSD within tolerance: {w.min()!r}")

    best_val = -math.inf
    best = None
    for _ in range(k):
        xi = factor @ rng.standard_normal(n)
        pairs = xi.reshape(npairs, 2)
        norms = np.linalg.norm(pairs, axis=1)
        degenerate = norms < 1e-150
        if np.any(degenerate):
            # numerically zero pair: resample it uniformly on the unit circle
            ang = rng.uniform(0.0, 2.0 * math.pi, size=int(np.sum(degenerate)))
            pairs[degenerate] = np.column_stack([np.cos(ang), np.sin(ang)])
            norms[degenerate] = 1.0
        tilde = (pairs / norms[:, None]).reshape(-1)
        val = min(float(tilde @ f1 @ tilde), float(tilde @ f2 @ tilde))
        if val > best_val:
            best_val = val
            best = tilde
    return lifted_to_phases(best), best_val


def greedy_iterative(ch: NonReciprocalChannel, budget: SinrBudget, k: int = 360,
                     improvement_threshold: float = 1e-6,
                     max_sweeps: int = 200) -> MaxMinResult:
    """Coordinate ascent on a discretized phase grid of K angles per element.

    Sweeps the elements in order, setting each phase to the grid angle that
    maximizes the min-SINR with the others held fixed (first maximizer wins on
    ties); stops when a full sweep improves the objective by less than
    improvement_threshold * objective.
    """
    if k < 2:
        raise ValueError("grid must have at least 2 angles")
    if improvement_threshold < 0:
        raise ValueError("improvement threshold must be >= 0")
    z1 = ch.h_r * ch.g_t
    z2 = ch.g_r * ch.h_t
    grid = np.exp(1j * 2.0 * math.pi * np.arange(k) / k)
    rho = np.array([budget.rho1, budget.rho2])

    phase_factors = np.ones(ch.L, dtype=complex)
    s1 = complex(np.sum(z1 * phase_factors))
    s2 = complex(np.sum(z2 * phase_factors))
    obj = min(rho[0] * abs(s1) ** 2, rho[1] * abs(s2) ** 2)
    history = []
    sweeps = 0
    for _ in range(max_sweeps):
        previous = obj
        for l in range(ch.L):
            b1 = s1 - z1[l] * phase_factors[l]
            b2 = s2 - z2[l] * phase_factors[l]
            cand = np.minimum(rho[0] * np.abs(b1 + z1[l] * grid) ** 2,
                              rho[1] * np.abs(b2 + z2[l] * grid) ** 2)
            best = int(np.argmax(cand))
            if cand[best] >= obj:
                phase_factors[l] = grid[best]
                s1 = b1 + z1[l] * grid[best]
                s2 = b2 + z2[l] * grid[best]
                obj = float(cand[best])
        sweeps += 1
        history.append(obj)
        if obj - previous <= improvement_threshold * max(obj, 1e-300):
            break

    phases = wrap_phases(np.angle(phase_factors))
    achieved = sinr_nonreciprocal(ch, phases, budget)
    return MaxMinResult(phases=phases, achieved=achieved,
                        method=OptimMethod.GREEDY_ITERATIVE, iterations=sweeps,
                        sweep_objectives=history)


def baseline_phases(ch: NonReciprocalChannel, kind: OptimMethod,
                    rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Reference policies: co-phase for user 1, or uniform random phases."""
    if kind is OptimMethod.U1_PHASE:
        return wrap_phases(-np.angle(ch.h_r * ch.g_t))
    if kind is OptimMethod.RANDOM:
        if rng is None:
            raise ValueError("random baseline needs an RNG")
        return rng.uniform(0.0, 2.0 * math.pi, size=ch.L)
    raise ValueError(f"not a baseline: {kind}")


def solve_maxmin(ch: NonReciprocalChannel, budget: SinrBudget,
                 method: OptimMethod = OptimMethod.SDP_RELAX,
                 rng: Optional[np.random.Generator] = None,
                 randomization_k: int = 100, greedy_grid: int = 360,
                 sdp_tol: float = 1e-4) -> MaxMinResult:
    """One-call driver used by the Monte Carlo and CLI layers.

    Solves the relaxation on the joint central path for throughput; the
    bisection path (sdp_maxmin(method="bisect")) is the reference and agrees
    within sdp_tol.
    """
    if method is OptimMethod.GREEDY_ITERATIVE:
        return greedy_iterative(ch, budget, k=greedy_grid)
    if method in (OptimMethod.U1_PHASE, OptimMethod.RANDOM):
        phases = baseline_phases(ch, method, rng)
        return MaxMinResult(phases=phases,
                            achieved=sinr_nonreciprocal(ch, phases, budget),
                            method=method)
    forms = build_quadratic_forms(ch, budget)
    solution = sdp_maxmin(forms, tol=sdp_tol, method="joint")
    if rng is None:
        raise ValueError("gaussian randomization needs an RNG")
    phases, _ = gaussian_randomization(solution.a_star, forms, randomization_k, rng)
    return MaxMinResult(phases=phases,
                        achieved=sinr_nonreciprocal(ch, phases, budget),
                        method=OptimMethod.SDP_RELAX,
                        iterations=solution.iterations,
                        t_star=solution.t_star,
                        a_star=solution.a_star,
                        feasibility_gap=solution.feasibility_gap)
