"""Surface phase design.

Reciprocal channels admit a closed-form optimum.  Non-reciprocal channels get
max-min SINR treatment: the unit-modulus phase problem is lifted to a PSD
matrix variable with per-element trace constraints, the rank constraint is
dropped, and the resulting small dense SDP is solved with a log-barrier
interior-point method (no external solver): along one central path that
maximizes the SINR level, or, as the reference, by bisection over the level
from the bracket [1, 2L] of the scaled forms, each level decided on that
path stopped at the level.  The relaxation has only L+2 constraints (L pair
traces, two form levels), so each Newton step solves an (L+3)x(L+3) system
in the constraint multipliers and the level step, and recovers the matrix
step from them at O(L^3) cost (the Schur-complement reduction of Helmberg,
Rendl, Vanderbei and Wolkowicz, 1996).  The step is measured in whitened
coordinates: with A = R R^T, Y = R^{-1} dA R^{-T} needs no inverse, the
Newton decrement is the sum of squares |Y|_F^2 + sum_p g_p^2 delta_p^2, and
the eigenvalues of Y (or, once the decrement is below 1/2, a Cholesky factor
of I + s Y) give log det(A + s dA) for a step length s, so the backtracking
line search needs no factorization of A + s dA (Boyd and Vandenberghe, 2004,
sections 9.5 and 11.3).  Rank-one solutions are recovered by Gaussian
randomization (Sidiropoulos, Davidson and Luo, 2006); a greedy discretized
coordinate search is the low-complexity alternative.  It picks each element's
grid angle by a real proxy of the candidate values, certified against their
rounding error, and scans the whole grid only where the certificate fails.

Every stage runs on stacks of instances in one layout: the (2, m, L) terms
of m instances (a channel block's `terms`), their (m, 2, 2L, 2L) forms, and
one relaxed solution and RNG per row for the rounding.  `maxmin_block` is the
one driver of the design pipeline: it solves the m instances of a Monte
Carlo block together (the optimize command reads its trials from those
blocks; the u1 and random baselines live in `mc`).  `sdp_maxmin`,
`greedy_iterative` and `solve_maxmin` are one-row views at its settings.  One
barrier iteration, one greedy element update or one rounding serves every
row at once, and each row keeps its own step length, barrier parameter and
stopping state.  Rows are solved in sub-batches of at most _STACK_ELEMENTS
elements per stacked array.  A row depends only on its own instance, so it
gets the same bits alone, in a partial block or in a full one.
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
# form pairs of the relaxation, the (rows, K, 2L) draws of the rounding, the
# (rows, 2, grid) candidates of the greedy search; 2 MiB of float64
_STACK_ELEMENTS = 1 << 18
_GREEDY_THRESHOLD = 1e-6
_GREEDY_MAX_SWEEPS = 200
_GREEDY_MIN_ROWS = 6  # fewer live rows scan the grid: the proxy's calls cost more
_CERTIFY = 128.0 * 2.0 ** -52  # the greedy proxy's gap margin per unit S: 128 eps
_MAX_NEWTON = 400  # per barrier row; a row that needs more has stalled
# the settings of `maxmin_block`, and the defaults of the one-instance solvers
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
    joint path the nominal barrier bound (2L+2)/tau in the forms' units, which
    is not certified once tau passes ~1e6 (roundoff of the (L+3) Newton system
    keeps the last stages from centring; at L=8, tol 3e-7 a rounded solution
    can exceed t_star + feasibility_gap by ~3e-8 relative)."""

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


def _lifted_vectors(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectors c, d with (alpha . c)^2 + (alpha . d)^2 = |sum z_l e^{j phi_l}|^2
    for alpha = (cos phi_1, sin phi_1, ..., cos phi_L, sin phi_L), along the
    last axis of z."""
    amp = np.abs(z)
    theta = -np.angle(z)  # z_l = |z_l| e^{-j theta_l}
    c = _interleave(amp * np.cos(theta), amp * np.sin(theta))
    d = _interleave(-amp * np.sin(theta), amp * np.cos(theta))
    return c, d


def _forms(terms: np.ndarray) -> np.ndarray:
    """(F_1, F_2) of each instance of the (2, m, L) terms: (m, 2, 2L, 2L)."""
    c, d = _lifted_vectors(np.ascontiguousarray(terms.swapaxes(0, 1)))
    return c[..., :, None] * c[..., None, :] + d[..., :, None] * d[..., None, :]


def build_quadratic_forms(ch: NonReciprocalChannel) -> np.ndarray:
    """Lift both users' gains g_p (their SINRs at rho = 1) to quadratic forms.

    Returns (F_1, F_2) of the channel's `terms`, a (2, 2L, 2L) array of
    symmetric PSD forms in the stacked cos/sin variables, each of rank <= 2,
    with alpha^T F_p alpha = g_p.
    """
    if not isinstance(ch, NonReciprocalChannel):
        raise ValueError("quadratic forms are defined for non-reciprocal realizations")
    return _forms(ch.terms[:, None])[0]


def lifted_to_phases(alpha: np.ndarray) -> np.ndarray:
    return wrap_phases(np.arctan2(alpha[..., 1::2], alpha[..., 0::2]))


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


def _maximize_linear_over_cone(f: np.ndarray, a0: np.ndarray, gap_tol: float,
                               level: Optional[np.ndarray] = None) -> SdpSolution:
    """Per row: max theta  s.t. <F_p, A> - theta >= 0, pair traces = 1, A > 0.

    f is the (m, 2, n, n) stack of form pairs and a0 the (m, n, n) start.
    Central-path following with barrier -log det A - sum_p log g_p; the
    barrier parameter grows by 10 per stage.  A stage ends after 60 steps, or
    when the decrement falls to 2e-9 (Boyd and Vandenberghe, algorithm 9.5),
    or when the step no longer descends as the decrement predicts (slope >
    -decrement / 2): the roundoff of the (L+3) system grows like tau^2, and
    once it is as large as the decrement further steps cannot center the row
    better.  A row ends at a stage end with gap <= gap_tol max(1, |theta|),
    or, given its `level`, once theta > level or, at a stage end, theta + gap
    < level or gap <= gap_tol: the phase-I test of the level (section 11.4).
    Rows that finish drop out of the stack; the result is in the forms' units.
    """
    m, _, n, _ = f.shape
    complexity = n + 2.0
    out = SdpSolution(np.empty(m), np.empty((m, n, n)), np.empty(m, dtype=int), np.empty(m))
    live = np.arange(m)
    a = np.array(a0, dtype=float, order="C")
    gains = _form_values(f, a)
    theta = gains.min(axis=1) - 1.0
    tau = np.ones(m)
    steps = np.zeros(m, dtype=int)
    inner = np.zeros(m, dtype=int)
    while live.size:
        if (steps >= _MAX_NEWTON).any():
            i = int(np.argmax(steps >= _MAX_NEWTON))
            raise SolverFailureError(
                f"interior point stalled: tau={tau[i]!r}, theta={theta[i]!r}, "
                f"gap<={complexity / tau[i]!r}, newton_steps={steps[i]}", int(live[i]))
        g = gains - theta[:, None]
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
        stage_end = ~moving | (inner >= 60)
        if level is None:
            done = stage_end & (gap <= gap_tol * np.maximum(1.0, np.abs(theta)))
        else:  # an optimum within gap_tol of the level counts as below it
            below = (theta + gap < level[live]) | (gap <= gap_tol)
            done = (theta > level[live]) | (stage_end & below)
        next_stage = stage_end & ~done
        tau = np.where(next_stage, tau * 10.0, tau)
        inner = np.where(next_stage, 0, inner)
        if done.any():
            rows = live[done]
            out.t_star[rows], out.a_star[rows] = theta[done], a[done]
            out.iterations[rows], out.feasibility_gap[rows] = steps[done], gap[done]
            keep = ~done
            live, a, f = live[keep], a[keep], f[keep]
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
    out = _maximize_linear_over_cone(fs, a0, gap_tol=tol / 4.0)
    out.t_star *= scale
    out.feasibility_gap *= scale
    return out


def _sdp_bisect(f: np.ndarray, tol: float) -> SdpSolution:
    """`_sdp_joint`'s relaxation by bisection over the level, each level decided
    by the same barrier stopped at it.  Every row starts from the `_scaled`
    bracket [1, 2L] (level 1 holds at a0; lambda_max(F_p) <= tr F_p bounds the
    forms by 2L), the live rows bisect in lockstep, one stacked test per step,
    and a row leaves once hi - lo <= tol lo; feasibility_gap is hi - lo, scaled."""
    fs, scale, a0 = _scaled(f)
    lo, hi = np.ones(len(f)), np.full(len(f), float(f.shape[-1]))
    best, warm = np.array(a0), np.array(a0)
    steps = np.zeros(len(f), dtype=int)
    live = np.arange(len(f))
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        out = _maximize_linear_over_cone(fs[live], warm[live], gap_tol=tol / 8.0, level=mid)
        steps[live] += out.iterations
        ok = out.t_star > mid
        lo[live[ok]], best[live[ok]] = mid[ok], out.a_star[ok]
        hi[live[~ok]] = mid[~ok]
        # pull the next start back toward the analytic center: iterates near the
        # cone boundary make poor Newton starts for a different level
        warm[live] = 0.8 * out.a_star + 0.2 * a0[live]
        live = live[hi[live] - lo[live] > tol * lo[live]]
    return SdpSolution(t_star=lo * scale, a_star=best, iterations=steps,
                       feasibility_gap=(hi - lo) * scale)


def _form_arrays(forms, a_star: Optional[np.ndarray] = None) -> np.ndarray:
    """The (m, 2, n, n) forms as one float array, once they and the (m, n, n)
    a_star are checked to be square of one shape, n = 2L."""
    try:
        f = np.asarray(forms, dtype=float)
    except ValueError as exc:  # F_1 and F_2 of different shapes
        raise ValueError(f"forms must be square arrays of one shape: {exc}") from None
    m, n = f.shape[:1], f.shape[-1:]
    shapes = [f.shape] + ([] if a_star is None else [np.shape(a_star)])
    if shapes != [m + (2,) + 2 * n, m + 2 * n][:len(shapes)]:
        raise ValueError(f"forms{'' if a_star is None else ' and a_star'} must be square "
                         f"arrays of one shape, got shapes {shapes}")
    if n[0] % 2 or n[0] < 2:
        raise ValueError("forms must have even dimension 2L")
    return f


def sdp_maxmin(forms, tol: float = SDP_TOL) -> SdpSolution:
    """Solve the lifted max-min relaxation of the forms (F_1, F_2), a pair or a
    (2, 2L, 2L) array, to relative tolerance 0 < `tol` < 1: a one-row
    `_sdp_joint`, the path `maxmin_block` runs.  a_star is a symmetric 2L x 2L
    array; feasibility_gap is nominal (see `SdpSolution`).
    """
    if not 0 < tol < 1:
        raise ValueError(f"relaxation tolerance must be > 0 and < 1, got {tol!r}")
    sol = _sdp_joint(_form_arrays([forms]), tol)
    return SdpSolution(t_star=float(sol.t_star[0]), a_star=sol.a_star[0],
                       iterations=int(sol.iterations[0]),
                       feasibility_gap=float(sol.feasibility_gap[0]))


def gaussian_randomization(a_star: np.ndarray, forms: np.ndarray, k: int,
                           rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Phases (m, L) and their values (m,) from the relaxed solutions of the
    (m, 2L, 2L) a_star and the (m, 2, 2L, 2L) forms: per row, draw K Gaussian
    vectors with covariance A* from rngs[i] in one call, normalize each cos/sin
    pair onto the unit circle (a numerically zero pair is resampled uniformly),
    keep the first candidate with the best min-SINR quadratic form value.  Row
    i gets the bits it gets alone; a non-PSD A* raises naming its `instance`."""
    if k < 1:
        raise ValueError("need at least one randomization sample")
    f = _form_arrays(forms, a_star)
    m, _, n, _ = f.shape
    if len(rngs) != m:
        raise ValueError("gaussian randomization needs one RNG per instance")
    w, v = np.linalg.eigh(a_star)
    bad = (w < -1e-9 * np.maximum(w[:, -1:], 0.0)).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise SolverFailureError(f"relaxed solution is not PSD within tolerance: {w[i].min()!r}", i)
    factor = v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]

    pairs = (np.stack([rng.standard_normal((k, n)) for rng in rngs])
             @ factor.swapaxes(1, 2)).reshape(m, k, n // 2, 2)
    norms = np.linalg.norm(pairs, axis=3)
    degenerate = norms < 1e-150
    for i in np.flatnonzero(degenerate.any(axis=(1, 2))):
        ang = rngs[i].uniform(0.0, 2.0 * math.pi, size=int(np.sum(degenerate[i])))
        pairs[i][degenerate[i]] = np.column_stack([np.cos(ang), np.sin(ang)])
        norms[i][degenerate[i]] = 1.0
    pairs /= norms[..., None]
    tilde = pairs.reshape(m, k, n)
    values = np.minimum(np.sum((tilde @ f[:, 0]) * tilde, axis=2),
                        np.sum((tilde @ f[:, 1]) * tilde, axis=2))
    best = np.arange(m), np.argmax(values, axis=1)
    return lifted_to_phases(tilde[best]), values[best]


# ---------------------------------------------------------------------------
# greedy coordinate search on a stack of instances
# ---------------------------------------------------------------------------

def _scan_angles(y: np.ndarray, b: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per row of the (r, 2) element terms y and rest sums b, the first k that
    maximizes np.square(min_p np.abs(b_p + y_p grid[k])) over the whole grid."""
    q = y[:, :, None] * grid
    q += b[:, :, None]
    c = np.abs(q)
    return np.square(np.minimum(c[:, 0], c[:, 1])).argmax(axis=1)


def _greedy_block(terms: np.ndarray):
    """Greedy coordinate ascent on each instance of the (2, m, L) terms, on
    GREEDY_GRID angles per element.

    Returns the (m, L) phases, each row's sweep count and, per sweep, the
    (m,) objectives min_p |sum_l z_{p,l} e^{j phi_l}|^2 after it (a row that
    stopped keeps its last value).  Rows that converge leave the active set
    after each sweep, and so does a row whose objective is NaN or inf.  The start's objective squares the smaller np.hypot of
    the users' sums; every later value is np.square(min_p np.abs(b_p + new_p)),
    with b_p the sum without element l and new_p = z_{p,l} grid[k] a numpy
    array product, so each row follows the one-instance search bit for bit
    (rounding a square is monotone: the smaller magnitude squares to the
    smaller square).

    k is the first maximizer of that value over the grid, picked by the real
    proxy |b_p|^2 + |z_{p,l}|^2 + 2 Re(conj(b_p) z_{p,l} grid[k]), one
    (2r, 3) @ (3, GREEDY_GRID) product for r live rows.  The proxy and the kept
    value each lie within 32 eps S of the exact |b_p + z_{p,l} grid[k]|^2, with
    S = max_p (|b_p|^2 + |z_{p,l}|^2).  So a proxy best that beats its second
    best by more than 128 eps S + 1e-280 (the floor covers subnormal squares)
    is the unique maximizer of the kept values.  A row whose gap fails that test
    or is not finite, and every row while fewer than _GREEDY_MIN_ROWS are live,
    takes the full scan `_scan_angles`.
    """
    _, m, L = terms.shape
    grid = np.exp(1j * 2.0 * math.pi * np.arange(GREEDY_GRID) / GREEDY_GRID)  # grid[0] == 1
    basis = np.stack([grid.real, grid.imag, np.ones(GREEDY_GRID)])
    z = np.ascontiguousarray(terms.swapaxes(0, 1))  # (m, user, L)
    z2, zz = 2.0 * z.conj(), np.abs(z) ** 2  # the proxy's 2 conj(z_p) and |z_p|^2
    index = np.zeros((m, L), dtype=int)  # each element's phase is grid[index]
    sums = np.sum(z * grid[0], axis=2)
    obj = np.square(np.min(np.hypot(sums.real, sums.imag), axis=1))
    sweeps = np.zeros(m, dtype=int)
    history = []
    live = np.arange(m)
    for _ in range(_GREEDY_MAX_SWEEPS):
        if not live.size:
            break
        y, y2, yy = z[live], z2[live], zz[live]
        at, t, o = index[live], sums[live], obj[live]
        previous = o
        rows = np.arange(live.size)
        coef = np.empty((live.size, 2, 3))
        for l in range(L):
            yl = y[:, :, l]
            b = t - yl * grid[at[:, l]][:, None]  # the sum without element l
            if live.size < _GREEDY_MIN_ROWS:
                best = _scan_angles(yl, b, grid)
            else:  # the proxy's minimum over users, its best and second best
                coef[..., :2] = (b * y2[:, :, l]).view(float).reshape(-1, 2, 2)
                coef[..., 2] = np.abs(b) ** 2 + yy[:, :, l]
                low = (coef.reshape(-1, 3) @ basis).reshape(-1, 2, GREEDY_GRID)
                low = np.minimum(low[:, 0], low[:, 1])
                best = low.argmax(axis=1)
                top = low[rows, best]
                low[rows, best] = -np.inf  # the maximum left is the second best
                gap = top - low.max(axis=1)
                sure = (gap > _CERTIFY * coef[..., 2].max(axis=1) + 1e-280) & (gap < np.inf)
                if not sure.all():
                    best[~sure] = _scan_angles(yl[~sure], b[~sure], grid)
            kept = b + yl * grid[best][:, None]
            c = np.abs(kept)
            value = np.square(np.minimum(c[:, 0], c[:, 1]))
            accept = value >= o
            if accept.all():
                at[:, l], t, o = best, kept, value
            else:
                at[:, l] = np.where(accept, best, at[:, l])
                t = np.where(accept[:, None], kept, t)
                o = np.where(accept, value, o)
        index[live], sums[live], obj[live] = at, t, o
        sweeps[live] += 1
        history.append(obj.copy())
        live = live[o - previous > _GREEDY_THRESHOLD * np.maximum(o, 1e-300)]
    return wrap_phases(np.angle(grid[index])), sweeps, history


def greedy_iterative(ch: NonReciprocalChannel) -> MaxMinResult:
    """Coordinate ascent on a discretized phase grid of GREEDY_GRID angles per
    element.

    Sweeps the elements in order, setting each phase, the others held fixed,
    to the grid angle that maximizes the smaller of the gains (g_1, g_2) that
    `achieved` holds (first maximizer wins on ties); stops when a full sweep
    improves the objective by at most 1e-6 of it, or after 200 sweeps.
    """
    phases, sweeps, history = _greedy_block(ch.terms[:, None])
    return MaxMinResult(phases=phases[0], achieved=sinr_nonreciprocal(ch, phases[0], 1.0),
                        method=OptimMethod.GREEDY_ITERATIVE, iterations=int(sweeps[0]),
                        sweep_objectives=[float(h[0]) for h in history])


def maxmin_block(terms: np.ndarray, method: OptimMethod,
                 rngs: Optional[Sequence[np.random.Generator]] = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Max-min phases (m, L) of the m instances of the (2, m, L) terms z_p, a
    channel block's `terms`, and each row's relaxation bound t* on
    min_p |sum_l z_{p,l} e^{j phi_l}|^2 (NaN for the greedy search).  Users
    who share one average SINR rho get these phases and the bound rho t*;
    users at different powers pass the terms sqrt(rho_p) z_p.

    GREEDY_ITERATIVE runs the greedy search of `greedy_iterative` on
    GREEDY_GRID angles on every row at once.  SDP_RELAX solves every row's
    relaxation to relative tolerance SDP_TOL on one stacked joint central
    path, then rounds the rows by `gaussian_randomization` with
    RANDOMIZATION_K samples from rngs[i].  Row i gets the phases its instance
    gets alone.  A SolverFailureError names the failing row in its `instance`.
    """
    _, m, L = terms.shape
    phases = np.empty((m, L))
    t_star = np.full(m, np.nan)
    if method is OptimMethod.GREEDY_ITERATIVE:
        for rows in _sub_batches(m, 2 * GREEDY_GRID):
            phases[rows] = _greedy_block(terms[:, rows])[0]
        return phases, t_star
    if method is not OptimMethod.SDP_RELAX:
        raise ValueError(f"not a max-min search: {method}")
    if rngs is None or len(rngs) != m:
        raise ValueError("gaussian randomization needs one RNG per instance")
    for rows in _sub_batches(m, max(8 * L * L, 2 * L * RANDOMIZATION_K)):
        f = _forms(terms[:, rows])
        try:
            sol = _sdp_joint(f, SDP_TOL)
            phases[rows], _ = gaussian_randomization(sol.a_star, f, RANDOMIZATION_K, rngs[rows])
        except SolverFailureError as exc:
            exc.instance += rows.start
            raise
        t_star[rows] = sol.t_star
    return phases, t_star


def solve_maxmin(ch: NonReciprocalChannel, method: OptimMethod = OptimMethod.SDP_RELAX,
                 rng: Optional[np.random.Generator] = None) -> MaxMinResult:
    """A one-row `maxmin_block`: the phases, the gains
    (g_1, g_2) in `achieved` and, for SDP_RELAX, the bound in `t_star`."""
    rows, bounds = maxmin_block(ch.terms[:, None], method, None if rng is None else [rng])
    t_star = float(bounds[0]) if method is OptimMethod.SDP_RELAX else None
    return MaxMinResult(phases=rows[0], achieved=sinr_nonreciprocal(ch, rows[0], 1.0),
                        method=method, t_star=t_star)
