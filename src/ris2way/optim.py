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
Vanderbei and Wolkowicz, 1996).  The step is measured in whitened
coordinates: with A = R R^T, Y = R^{-1} dA R^{-T} needs no inverse, the
Newton decrement is the sum of squares |Y|_F^2 + sum_p g_p^2 delta_p^2, and
the eigenvalues of Y (or, once the decrement is below 1/2, a Cholesky factor
of I + s Y) give log det(A + s dA) for a step length s, so the backtracking
line search needs no factorization of A + s dA (Boyd and Vandenberghe, 2004,
sections 9.5 and 11.3).  Rank-one solutions are recovered by Gaussian randomization
(Sidiropoulos, Davidson and Luo, 2006); a greedy discretized coordinate
search is the low-complexity alternative.

Both solvers run on stacks of instances, and `maxmin_block` is the one
driver of the design pipeline: it solves the m instances of a Monte Carlo
block together (the optimize command reads its trials from those blocks;
the u1 and random baselines live in `mc`).  One barrier
iteration, or one greedy element update, serves every row at once, and each
row keeps its own step length, barrier parameter and stopping state.  Rows
are solved in sub-batches of at most _STACK_ELEMENTS elements per stacked
array.  A row depends only on its own instance, so it gets the same bits
alone, in a partial block or in a full one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .channel import (NonReciprocalChannel, ReciprocalChannel, sinr_nonreciprocal,
                      wrap_phases)

# elements of the largest stacked array of a sub-batch: the (rows, 2, 2L, 2L)
# form pairs of the relaxation, the (rows, 2, grid) candidates of the greedy
# search; 2 MiB of float64
_STACK_ELEMENTS = 1 << 18
_GREEDY_THRESHOLD = 1e-6
_GREEDY_MAX_SWEEPS = 200
# default settings of `maxmin_block`
RANDOMIZATION_K = 100
GREEDY_GRID = 360
SDP_TOL = 1e-4


class SolverFailureError(RuntimeError):
    """Interior-point phase stalled; carries the residuals seen at the stall.

    `instance` is the failing row of a stacked solve, when there is one.
    """

    def __init__(self, message: str, instance: Optional[int] = None):
        super().__init__(message)
        self.instance = instance


class OptimMethod(enum.Enum):
    SDP_RELAX = "sdp"
    GREEDY_ITERATIVE = "greedy"


@dataclass
class SdpSolution:
    """feasibility_gap: the final bracket width on the bisection path; on the
    joint path the nominal barrier bound (2L+2)/tau, scaled, which is not
    certified once tau passes ~1e6 (roundoff of the (L+3) Newton system keeps
    the last stages from centring; at L=8, tol 3e-7 a rounded solution can
    exceed t_star + feasibility_gap by ~3e-8 relative)."""

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
    sweep_objectives: list = field(default_factory=list)


def optimal_phase_reciprocal(ch: ReciprocalChannel) -> np.ndarray:
    """Element phases that co-phase every cascade term (global SINR maximum)."""
    return wrap_phases(-np.angle(ch.h * ch.g))


def _interleave(cos_part: np.ndarray, sin_part: np.ndarray) -> np.ndarray:
    out = np.empty(cos_part.shape[:-1] + (2 * cos_part.shape[-1],))
    out[..., 0::2] = cos_part
    out[..., 1::2] = sin_part
    return out


def _lifted_vectors(z: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectors c, d with (alpha . c)^2 + (alpha . d)^2 = rho |sum z_l e^{j phi_l}|^2
    for alpha = (cos phi_1, sin phi_1, ..., cos phi_L, sin phi_L), along the
    last axis of z."""
    amp = np.sqrt(rho) * np.abs(z)
    theta = -np.angle(z)  # z_l = |z_l| e^{-j theta_l}
    c = _interleave(amp * np.cos(theta), amp * np.sin(theta))
    d = _interleave(-amp * np.sin(theta), amp * np.cos(theta))
    return c, d


def _forms(z1: np.ndarray, z2: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """(F_1, F_2) of the terms z1 = h_r g_t and z2 = g_r h_t, one pair of
    2L x 2L forms per leading index."""
    forms = []
    for z in (z1, z2):
        c, d = _lifted_vectors(z, rho)
        forms.append(c[..., :, None] * c[..., None, :] + d[..., :, None] * d[..., None, :])
    return forms[0], forms[1]


def build_quadratic_forms(ch: NonReciprocalChannel,
                          rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Lift both user SINRs to quadratic forms in the stacked cos/sin variables.

    Returns the pair (F_1, F_2) of symmetric PSD 2L x 2L arrays, each of rank
    <= 2, with alpha^T F_p alpha = gamma_p.  User 1 combines h_r with g_t;
    user 2 combines g_r with h_t, both under the average SINR rho.
    """
    if not isinstance(ch, NonReciprocalChannel):
        raise ValueError("quadratic forms are defined for non-reciprocal realizations")
    return _forms(ch.h_r * ch.g_t, ch.g_r * ch.h_t, rho)


def lifted_to_phases(alpha: np.ndarray) -> np.ndarray:
    return wrap_phases(np.arctan2(alpha[1::2], alpha[0::2]))


def _sub_batches(m: int, per_row: int) -> list[slice]:
    rows = max(1, _STACK_ELEMENTS // per_row)
    return [slice(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


# ---------------------------------------------------------------------------
# log-barrier interior-point machinery on the lifted cone, for stacks of
# instances: every array has a leading row axis
# ---------------------------------------------------------------------------

def _form_values(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<F_p, X> for the (m, 2, n, n) forms and the (m, n, n) matrices: (m, 2)."""
    m = len(f)
    return (f.reshape(m, 2, -1) @ x.reshape(m, -1, 1))[..., 0]


def _transpose(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def _diagonal(x: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of C-contiguous stacked matrices."""
    if not x.flags.c_contiguous:
        raise ValueError("need C-contiguous matrices")
    n = x.shape[-1]
    return x.reshape(x.shape[:-2] + (n * n,))[..., ::n + 1]


def _pair_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the (cos, sin) pairs of the last axis."""
    return x[..., 0::2] + x[..., 1::2]


def _newton_step(a: np.ndarray, chol: np.ndarray, f: np.ndarray, gains: np.ndarray,
                 g: np.ndarray, grad_t: np.ndarray):
    """Newton direction of the barrier under the pair-trace rows, per row.

    The rows hold A, its Cholesky factor R (A = R R^T), the forms (F_1, F_2),
    the form values <F_p, A>, the slacks g_p and g_theta = grad_t.  With
    G = -A^{-1} - sum_p F_p / g_p and E_l the diagonal indicator of pair l,
    stationarity gives dA = -A (G + sum_p delta_p F_p + sum_l nu_l E_l) A
    = R Y R^T, with Y = I + R^T M R and M = sum_p (1/g_p - delta_p) F_p -
    diag(nu), where (delta_1, delta_2, nu_1..nu_L, dtheta) solve the symmetric
    (L+3) system delta_1 + delta_2 = g_theta, <E_l, dA> = 0,
    g_p^2 delta_p = <F_p, dA> - dtheta.  Its entries are <F_p, A F_q A>, pair
    sums of diag(A F_p A) and 2x2 block sums of A*A.  Y = R^{-1} dA R^{-T}
    needs no inverse, and the decrement is |Y|_F^2 + sum_p g_p^2 delta_p^2 >= 0;
    the form -(<G, dA> + g_theta dtheta) is the same number in exact
    arithmetic, but through A^{-1} roundoff swamps it near the rank-one
    optimum.  dA and Y are symmetrized: asymmetric roundoff in A lets the pair
    traces drift.

    Returns (dA, dtheta, Y, decrement); raises LinAlgError for a singular
    system.
    """
    m, n, _ = a.shape
    afa = a[:, None] @ f @ a[:, None]
    afa_pairs = _pair_sums(_diagonal(afa))  # (m, form, pair)
    fafa = f.reshape(m, 2, -1) @ _transpose(afa.reshape(m, 2, -1))  # <F_p, A F_q A>
    s = np.zeros((m, n // 2 + 3, n // 2 + 3))
    s[:, :2, :2] = fafa
    _diagonal(s)[:, :2] += g ** 2
    s[:, :2, 2:-1] = afa_pairs
    s[:, 2:-1, :2] = _transpose(afa_pairs)
    a2 = a * a
    s[:, 2:-1, 2:-1] = (a2[:, 0::2, 0::2] + a2[:, 0::2, 1::2]
                        + a2[:, 1::2, 0::2] + a2[:, 1::2, 1::2])
    s[:, :2, -1] = s[:, -1, :2] = 1.0
    # -<F_p, A G A> = <F_p, A> + sum_q <F_p, A F_q A> / g_q, and -<E_l, A G A> alike
    rhs = np.empty((m, n // 2 + 3))
    rhs[:, :2] = gains + fafa[:, :, 0] / g[:, :1] + fafa[:, :, 1] / g[:, 1:]
    rhs[:, 2:-1] = (_pair_sums(_diagonal(a)) + afa_pairs[:, 0] / g[:, :1]
                    + afa_pairs[:, 1] / g[:, 1:])
    rhs[:, -1] = grad_t
    sol = np.linalg.solve(s, rhs[..., None])[..., 0]
    delta = sol[:, :2]
    coef = 1.0 / g - delta
    m_mat = coef[:, 0, None, None] * f[:, 0] + coef[:, 1, None, None] * f[:, 1]
    _diagonal(m_mat)[:] -= np.repeat(sol[:, 2:-1], 2, axis=1)
    w = _transpose(chol) @ (m_mat @ chol)
    y = 0.5 * (w + _transpose(w))
    _diagonal(y)[:] += 1.0
    da = (chol @ y) @ _transpose(chol)
    decrement = ((y.reshape(m, 1, -1) @ y.reshape(m, -1, 1))[:, 0, 0]
                 + ((g * delta) ** 2).sum(axis=1))
    return 0.5 * (da + _transpose(da)), sol[:, -1], y, decrement


def _step_lengths(y: np.ndarray, ratio: np.ndarray, slope: np.ndarray,
                  decrement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backtracking over s = 1, 1/2, ..., 2^-59 per row.

    In whitened coordinates A + s dA = R (I + s Y) R^T, and the slacks move to
    g_p (1 + s ratio_p).  So phi = -tau theta - log det A - sum_p log g_p
    changes by s slope + (s tr Y - log det(I + s Y)) + sum_p h(s ratio_p),
    with h(x) = x - log(1 + x) >= 0 and slope the derivative of phi along the
    step: the bracket is second order too, so no first-order terms cancel.
    With lambda the eigenvalues of Y, I + s Y > 0 iff 1 + s min(lambda) > 0
    and the bracket is sum_i h(s lambda_i), arithmetic for every s.  A row with
    decrement < 1/2 has |Y|_2 <= |Y|_F < 0.71, so I + s Y > 0 for every s <= 1
    and a Cholesky factor gives the log det at a fraction of the cost of the
    eigenvalues.  Accept the first s with positive slacks and a change <=
    s slope / 4.  Returns the step per row and a mask of rows that found none.
    """
    m = len(y)
    trace = y.trace(axis1=1, axis2=2)
    by_eig = decrement >= 0.5
    lam = np.zeros(y.shape[:2])
    if by_eig.any():
        lam[by_eig] = np.linalg.eigvalsh(y[by_eig])
    step = np.ones(m)
    pending = np.arange(m)

    def h(x: np.ndarray) -> np.ndarray:
        return (x - np.log1p(x)).sum(axis=1)

    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(60):
            s = step[pending]
            eig = by_eig[pending]
            bracket = np.empty(len(pending))
            ok = np.ones(len(pending), dtype=bool)
            if not eig.all():
                rows = pending[~eig]
                trial = s[~eig, None, None] * y[rows]
                _diagonal(trial)[:] += 1.0
                logdet = 2.0 * np.log(_diagonal(np.linalg.cholesky(trial))).sum(axis=1)
                bracket[~eig] = s[~eig] * trace[rows] - logdet
            if eig.any():
                x = s[eig, None] * lam[pending[eig]]
                ok[eig] = x[:, 0] > -1.0
                bracket[eig] = h(x)
            r = s[:, None] * ratio[pending]
            dphi = s * slope[pending] + bracket + h(r)
            ok &= (r > -1.0).all(axis=1) & (dphi <= 0.25 * s * slope[pending])
            pending = pending[~ok]
            if not pending.size:
                break
            step[pending] *= 0.5
    failed = np.zeros(m, dtype=bool)
    failed[pending] = True
    return step, failed


def _failing_row(fn, *stacks: np.ndarray) -> int:
    """The first row of the stacks on which `fn` raises LinAlgError."""
    for i in range(len(stacks[0])):
        try:
            fn(*(x[i:i + 1] for x in stacks))
        except np.linalg.LinAlgError:
            return i
    return 0


@dataclass
class _BarrierOutcome:
    theta: np.ndarray         # best certified objective value (primal), per row
    gap: np.ndarray           # duality gap bound at exit
    a: np.ndarray             # interior matrix iterates, (m, n, n)
    newton_steps: np.ndarray
    feasible: np.ndarray      # sign certificate, phase-I use only


def _maximize_linear_over_cone(f: np.ndarray, levels: np.ndarray, a0: np.ndarray,
                               gap_tol: float, sign_exit: bool = False,
                               max_newton: int = 400) -> _BarrierOutcome:
    """Per row: max theta  s.t. <F_p, A> - levels_p - theta >= 0, pair traces = 1, A > 0.

    f is the (m, 2, n, n) stack of form pairs, a0 the (m, n, n) start and
    levels (m, 2).  Central-path following with barrier -log det A -
    sum_p log g_p; the barrier parameter grows by 10 per stage.  A stage ends
    after 60 steps, or when the decrement falls to 2e-9 (Boyd and
    Vandenberghe, algorithm 9.5), or when the step no longer descends as the
    decrement predicts (slope > -decrement / 2): the roundoff of the (L+3)
    system grows like tau^2, and once it is as large as the decrement further
    steps cannot center the row better.  With sign_exit a row stops as soon as
    the sign of its optimum is certified (phase-I feasibility test).  Rows
    that finish drop out of the stack.
    """
    m, _, n, _ = f.shape
    complexity = n + 2.0
    out = _BarrierOutcome(np.empty(m), np.empty(m), np.empty((m, n, n)),
                          np.empty(m, dtype=int), np.zeros(m, dtype=bool))
    live = np.arange(m)
    a = np.array(a0, dtype=float, order="C")
    lev = np.asarray(levels, dtype=float)
    gains = _form_values(f, a)
    theta = (gains - lev).min(axis=1) - 1.0
    tau = np.ones(m)
    steps = np.zeros(m, dtype=int)
    inner = np.zeros(m, dtype=int)
    while live.size:
        if (steps >= max_newton).any():
            i = int(np.argmax(steps >= max_newton))
            raise SolverFailureError(
                f"interior point stalled: tau={tau[i]!r}, theta={theta[i]!r}, "
                f"gap<={complexity / tau[i]!r}, newton_steps={steps[i]}", int(live[i]))
        g = gains - lev - theta[:, None]
        if (g <= 0.0).any():  # drifted out by roundoff; should not happen
            i = int(np.argmax((g <= 0.0).any(axis=1)))
            raise SolverFailureError(
                f"iterate left the feasible interior: slacks {g[i]!r}", int(live[i]))
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            i = _failing_row(np.linalg.cholesky, a)
            raise SolverFailureError(f"iterate left the positive definite cone at "
                                     f"tau={tau[i]!r}", int(live[i])) from None
        grad_t = -tau + (1.0 / g).sum(axis=1)
        try:
            da, dtheta, y, decrement = _newton_step(a, chol, f, gains, g, grad_t)
        except np.linalg.LinAlgError:
            i = _failing_row(_newton_step, a, chol, f, gains, g, grad_t)
            raise SolverFailureError(f"singular Newton system at tau={tau[i]!r}",
                                     int(live[i])) from None
        # the slacks' relative steps and the slope of phi along the step taken
        ratio = (_form_values(f, da) - dtheta[:, None]) / g
        slope = -tau * dtheta - y.trace(axis1=1, axis2=2) - ratio.sum(axis=1)
        steps += 1
        inner += 1
        moving = (decrement / 2.0 > 1e-9) & (slope < -decrement / 2.0)
        step = np.zeros(len(a))
        if moving.any():
            step[moving], failed = _step_lengths(y[moving], ratio[moving], slope[moving],
                                                 decrement[moving])
            if failed.any():
                i = int(np.flatnonzero(moving)[np.argmax(failed)])
                raise SolverFailureError(f"line search failed at tau={tau[i]!r}, "
                                         f"decrement={decrement[i]!r}", int(live[i]))
        a = a + step[:, None, None] * da
        theta = theta + step * dtheta
        gains = _form_values(f, a)

        gap = complexity / tau
        feasible = (theta > 0.0) if sign_exit else np.zeros(len(a), dtype=bool)
        stage_end = ~feasible & (~moving | (inner >= 60))
        if sign_exit:
            # optimum pinned inside [-gap_tol, gap_tol]: treat as infeasible
            done = feasible | (stage_end & ((theta + gap < 0.0) | (gap <= gap_tol)))
        else:
            done = stage_end & (gap <= gap_tol * np.maximum(1.0, np.abs(theta)))
        next_stage = stage_end & ~done
        tau = np.where(next_stage, tau * 10.0, tau)
        inner = np.where(next_stage, 0, inner)
        if done.any():
            rows = live[done]
            out.theta[rows], out.gap[rows], out.a[rows] = theta[done], gap[done], a[done]
            out.newton_steps[rows], out.feasible[rows] = steps[done], feasible[done]
            keep = ~done
            live, a, f, lev = live[keep], a[keep], f[keep], lev[keep]
            gains, theta, tau, steps, inner = (gains[keep], theta[keep], tau[keep],
                                               steps[keep], inner[keep])
    return out


def _initial_interior(n: int) -> np.ndarray:
    return 0.5 * np.eye(n)


def _scaled(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Form pairs divided by the smaller form value at the initial point, per
    row: the optimum then lies in [1, 2L] scaled units, so relative gap targets
    stay relative even for lopsided users.  Returns (scaled forms, scale, a0)."""
    m, _, n, _ = f.shape
    a0 = np.broadcast_to(_initial_interior(n), (m, n, n))
    scale = _form_values(f, a0).min(axis=1)
    if not np.all(scale > 0.0):
        raise SolverFailureError("a quadratic form vanishes on the initial point",
                                 int(np.argmin(scale > 0.0)))
    return f / scale[:, None, None, None], scale, a0


def _sdp_joint(f: np.ndarray, tol: float) -> SdpSolution:
    """The relaxation of each row of the (m, 2, n, n) form pairs on the joint
    central path; the solution's fields hold one entry (or matrix) per row."""
    fs, scale, a0 = _scaled(f)
    out = _maximize_linear_over_cone(fs, np.zeros((len(f), 2)), a0, gap_tol=tol / 4.0)
    return SdpSolution(t_star=out.theta * scale, a_star=out.a,
                       iterations=out.newton_steps, feasibility_gap=out.gap * scale)


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


def sdp_maxmin(forms: tuple[np.ndarray, np.ndarray], tol: float = SDP_TOL,
               method: str = "bisect") -> SdpSolution:
    """Solve the lifted max-min relaxation of the forms (F_1, F_2) to relative
    tolerance 0 < `tol` < 1.

    method="bisect" runs the level search: a doubling/halving bracket around a
    trial level followed by bisection, each level decided by a phase-I slack
    maximization.  method="joint" maximizes the level directly along a single
    central path; both agree within tol.  a_star is a symmetric 2L x 2L
    array; the joint path's feasibility_gap is nominal (see `SdpSolution`).
    """
    if not 0 < tol < 1:
        raise ValueError(f"relaxation tolerance must be > 0 and < 1, got {tol!r}")
    if method not in ("joint", "bisect"):
        raise ValueError(f"unknown method {method!r}")
    f = np.stack(_form_arrays(forms))[None]
    if method == "joint":
        sol = _sdp_joint(f, tol)
        return SdpSolution(t_star=float(sol.t_star[0]), a_star=sol.a_star[0],
                           iterations=int(sol.iterations[0]),
                           feasibility_gap=float(sol.feasibility_gap[0]))

    fs, scale_row, a0 = _scaled(f)
    scale = float(scale_row[0])
    sign_tol = tol / 8.0
    newton_total = 0
    warm = a0

    def feasible_at(level: float) -> tuple[bool, np.ndarray]:
        nonlocal newton_total, warm
        out = _maximize_linear_over_cone(fs, np.array([[level, level]]), warm,
                                         gap_tol=sign_tol, sign_exit=True)
        newton_total += int(out.newton_steps[0])
        # pull the next start back toward the analytic center: iterates near the
        # cone boundary make poor Newton starts for a different level
        warm = 0.8 * out.a + 0.2 * a0
        return bool(out.feasible[0]), out.a[0]

    # bracket search: doubling / halving with an exponentially growing factor
    t_trial = float(_form_values(fs, a0)[0, 0])
    t_low: Optional[float] = None
    t_high: Optional[float] = None
    best_a = a0[0]
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
            t_low, best_a = 0.0, a0[0]
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
                       a_star=np.array(best_a),
                       iterations=newton_total,
                       feasibility_gap=(t_high - t_low) * scale)


def gaussian_randomization(a_star: np.ndarray, forms: tuple[np.ndarray, np.ndarray],
                           k: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Recover phases from the relaxed solution: draw K Gaussian vectors with
    covariance A* (a symmetric array shaped like the forms (F_1, F_2)) in one
    call, normalize each cos/sin pair onto the unit circle (a numerically zero
    pair is resampled uniformly), keep the first candidate with the best
    min-SINR quadratic form value."""
    if k < 1:
        raise ValueError("need at least one randomization sample")
    f1, f2 = _form_arrays(forms, a_star)
    n = f1.shape[0]
    w, v = np.linalg.eigh(a_star)
    lam_max = max(float(w[-1]), 0.0)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    if np.any(w < -1e-9 * lam_max):
        raise SolverFailureError(f"relaxed solution is not PSD within tolerance: {w.min()!r}")

    pairs = (rng.standard_normal((k, n)) @ factor.T).reshape(k, n // 2, 2)
    norms = np.linalg.norm(pairs, axis=2)
    degenerate = norms < 1e-150
    if np.any(degenerate):
        ang = rng.uniform(0.0, 2.0 * math.pi, size=int(np.sum(degenerate)))
        pairs[degenerate] = np.column_stack([np.cos(ang), np.sin(ang)])
        norms[degenerate] = 1.0
    tilde = (pairs / norms[..., None]).reshape(k, n)
    values = np.minimum(np.sum((tilde @ f1) * tilde, axis=1),
                        np.sum((tilde @ f2) * tilde, axis=1))
    best = int(np.argmax(values))
    return lifted_to_phases(tilde[best]), float(values[best])


# ---------------------------------------------------------------------------
# greedy coordinate search on a stack of instances
# ---------------------------------------------------------------------------

def _scalar_cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise for complex arrays, by the textbook formula that
    Python and numpy complex scalars use.  numpy's array multiply rounds
    otherwise (in the last bit of about 44% of products on an AVX-512 host,
    for arrays of any length or stride), and the one-instance search this
    must follow multiplies scalars."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _greedy_block(z1: np.ndarray, z2: np.ndarray, rho: float, k: int):
    """Greedy coordinate ascent on each row of the (m, L) terms z1, z2.

    Returns the (m, L) phases, each row's sweep count and, per sweep, the
    (m,) objectives after it (a row that stopped keeps its last value).  Rows
    that converge leave the active set after each sweep.  The terms
    z_l e^{j phi_l} are rounded as scalar arithmetic rounds them, the running
    sums' magnitudes by hypot, and the candidates as the array expression
    |b + z_l grid|^2, so each row follows the one-instance search bit for bit.
    """
    m, L = z1.shape
    grid = np.exp(1j * 2.0 * math.pi * np.arange(k) / k)  # grid[0] == 1
    z = np.stack([z1, z2], axis=1)  # (m, user, L)
    index = np.zeros((m, L), dtype=int)  # each element's phase is grid[index]
    terms = _scalar_cmul(z, grid[0])
    sums = np.sum(z * grid[0], axis=2)
    obj = np.min(rho * np.square(np.hypot(sums.real, sums.imag)), axis=1)
    sweeps = np.zeros(m, dtype=int)
    history = []
    live = np.arange(m)
    for _ in range(_GREEDY_MAX_SWEEPS):
        if not live.size:
            break
        y, p, at, t, o = z[live], terms[live], index[live], sums[live], obj[live]
        previous = o
        rows = np.arange(live.size)
        q = np.empty((live.size, 2, k), dtype=complex)
        c = np.empty((live.size, 2, k))
        for l in range(L):
            b = t - p[:, :, l]
            np.multiply(y[:, :, l, None], grid, out=q)
            q += b[:, :, None]
            np.abs(q, out=c)
            np.square(c, out=c)
            c *= rho
            cand = np.minimum(c[:, 0], c[:, 1])
            best = np.argmax(cand, axis=1)  # first maximizer wins on ties
            value = cand[rows, best]
            accept = value >= o
            new = _scalar_cmul(y[:, :, l], grid[best, None])
            if accept.all():
                at[:, l], p[:, :, l], t, o = best, new, b + new, value
            elif accept.any():
                at[:, l] = np.where(accept, best, at[:, l])
                p[:, :, l] = np.where(accept[:, None], new, p[:, :, l])
                t = np.where(accept[:, None], b + new, t)
                o = np.where(accept, value, o)
        terms[live], index[live], sums[live], obj[live] = p, at, t, o
        sweeps[live] += 1
        history.append(obj.copy())
        live = live[~(o - previous <= _GREEDY_THRESHOLD * np.maximum(o, 1e-300))]
    return wrap_phases(np.angle(grid[index])), sweeps, history


def greedy_iterative(ch: NonReciprocalChannel, rho: float,
                     k: int = GREEDY_GRID) -> MaxMinResult:
    """Coordinate ascent on a discretized phase grid of K angles per element.

    Sweeps the elements in order, setting each phase to the grid angle that
    maximizes the min-SINR with the others held fixed (first maximizer wins on
    ties); stops when a full sweep improves the objective by at most 1e-6 of
    it, or after 200 sweeps.
    """
    if k < 2:
        raise ValueError("grid must have at least 2 angles")
    phases, sweeps, history = _greedy_block(
        (ch.h_r * ch.g_t)[None], (ch.g_r * ch.h_t)[None], rho, k)
    return MaxMinResult(phases=phases[0], achieved=sinr_nonreciprocal(ch, phases[0], rho),
                        method=OptimMethod.GREEDY_ITERATIVE, iterations=int(sweeps[0]),
                        sweep_objectives=[float(h[0]) for h in history])


def maxmin_block(z1: np.ndarray, z2: np.ndarray, rho: float, method: OptimMethod,
                 rngs: Optional[Sequence[np.random.Generator]] = None, *,
                 grid: int = GREEDY_GRID, tol: float = SDP_TOL,
                 k: int = RANDOMIZATION_K) -> tuple[np.ndarray, np.ndarray]:
    """Max-min phases (m, L) of m instances, given as the rows of the terms
    z1 = h_r g_t and z2 = g_r h_t, both users at the average SINR rho, and
    each row's relaxation bound t* (NaN for the greedy search).  Users at
    different powers pass the terms sqrt(rho_1) z1 and sqrt(rho_2) z2 at rho = 1.

    GREEDY_ITERATIVE runs the greedy search of `greedy_iterative` on `grid`
    angles on every row at once.  SDP_RELAX solves every row's relaxation to
    relative tolerance 0 < `tol` < 1 on one stacked joint central path, then
    rounds each row by `gaussian_randomization` with `k` samples from
    rngs[i].  Row i gets the phases its instance gets alone.
    A SolverFailureError names the failing row in its `instance`.
    """
    if not (0 < tol < 1 and grid >= 2):
        raise ValueError(f"need 0 < tol < 1 and grid >= 2, got tol={tol!r}, grid={grid!r}")
    m, L = z1.shape
    phases = np.empty((m, L))
    t_star = np.full(m, np.nan)
    if method is OptimMethod.GREEDY_ITERATIVE:
        for rows in _sub_batches(m, 2 * grid):
            phases[rows] = _greedy_block(z1[rows], z2[rows], rho, grid)[0]
        return phases, t_star
    if method is not OptimMethod.SDP_RELAX:
        raise ValueError(f"not a max-min search: {method}")
    if rngs is None or len(rngs) != m:
        raise ValueError("gaussian randomization needs one RNG per instance")
    for rows in _sub_batches(m, 8 * L * L):
        f = np.stack(_forms(z1[rows], z2[rows], rho), axis=1)
        row = rows.start
        try:
            sol = _sdp_joint(f, tol)
            t_star[rows] = sol.t_star
            for row in range(rows.start, rows.stop):
                i = row - rows.start
                phases[row], _ = gaussian_randomization(sol.a_star[i], (f[i, 0], f[i, 1]),
                                                        k, rngs[row])
        except SolverFailureError as exc:
            exc.instance = row if exc.instance is None else rows.start + exc.instance
            raise
    return phases, t_star


def solve_maxmin(ch: NonReciprocalChannel, rho: float,
                 method: OptimMethod = OptimMethod.SDP_RELAX,
                 rng: Optional[np.random.Generator] = None) -> MaxMinResult:
    """Phases of one instance: a one-row `maxmin_block` at its default
    settings, with the relaxation bound in `t_star` for SDP_RELAX."""
    rows, bounds = maxmin_block((ch.h_r * ch.g_t)[None], (ch.g_r * ch.h_t)[None], rho,
                                method, None if rng is None else [rng])
    t_star = float(bounds[0]) if method is OptimMethod.SDP_RELAX else None
    return MaxMinResult(phases=rows[0], achieved=sinr_nonreciprocal(ch, rows[0], rho),
                        method=method, t_star=t_star)
