"""Monte Carlo estimators of outage probability and average spectral
efficiency, and the scheme-crossover search.

`collect_gains` draws each config's per-trial gains; `outage_from_gains` and
`se_from_gains` take a config plus a vector of transmit powers and reduce them
at every power in one call, returning one estimate per power.  A sweep point
means both users sending at that power, so they share one rho at every point
(a config carries no power).  Gains do not depend on the transmit power, so a
sweep collects once and reduces each column once.  They are a pure function of
(seed, trial index), drawn in fixed-size blocks merged in block order, so they
are bit-for-bit reproducible for any worker count, and trial i is the same
bits whatever the trial count.  Blocks go to a process pool of at most
min(workers, blocks, CPUs this process may run on) workers, joined before the
call returns, or run serially when that is one.  A block is drawn and reduced
in cache-sized row chunks; its generators run on from chunk to chunk, so the
chunks' rows are the bits of one whole-block draw.  A phase-jitter term
amp * e^(i eps) is formed as (amp cos eps, amp sin eps), the same bits as the
complex exponential.
`draw_key` names what else they depend on: on a reciprocal channel only L,
sigma2, the trial count and the phase-error model, so configs differing in
scheme, nu, omega, gamma_th, noise or jitter width share one channel draw per
block, and `collect_gains` collects such a group in one pass (common random
numbers across schemes, nu and delta).  A non-reciprocal gain also reads the
scheme, the policy and `collect_gains`'s max-min solver settings (`optim`'s
defaults unless given): max-min phases are solved at rho = 1, valid at every
sweep point.  The u1 and random baselines live here.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from .channel import (PhaseErrorModel, Reciprocity, Scheme, SystemConfig,
                      UniformPhaseError, VonMisesPhaseError, coherent_gain,
                      sample_channel_block, sample_phase_errors, sweep_rho)
from .optim import (GREEDY_GRID, RANDOMIZATION_K, SDP_TOL, OptimMethod,
                    SolverFailureError, maxmin_block)


class NoCrossoverError(RuntimeError):
    """The scheme spectral-efficiency difference never changes sign on the grid."""


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    trials: int


PHASE_POLICIES = ("optimal", "u1", "random", "greedy", "sdp")
_CROSSOVER_TOL_DB = 0.01


@dataclass(frozen=True)
class TrialGains:
    """Power-independent per-trial channel gains g_p: gamma_p = rho_p * g_p, and
    on a non-reciprocal channel the sdp policy's relaxation bounds t* at rho = 1
    (NaN under other policies)."""

    g1: np.ndarray
    g2: np.ndarray
    t_star: Optional[np.ndarray] = None


# the most standard normals one chunk of a gain block draws (256 KB): a block
# is drawn and reduced a cache-sized run of rows at a time
_DRAW_CHUNK = 2**15


def _channel_chunks(cfg: SystemConfig, seed: int, block: int, count: int):
    """(rows, channel) for consecutive row chunks of one block's channel.

    Every chunk continues the block's one generator, so together they are the
    rows of one whole-block `sample_channel_block` call, bit for bit.
    """
    rng = rngmod.block_generator(seed, rngmod.STREAM_CHANNEL, block)
    per_row = (4 if cfg.reciprocity is Reciprocity.RECIPROCAL else 8) * cfg.L
    step = max(1, _DRAW_CHUNK // per_row)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        yield slice(lo, hi), sample_channel_block(cfg, rng, hi - lo)


def _reciprocal_gain_block(cfg: SystemConfig, models: tuple[PhaseErrorModel | None, ...],
                           seed: int, block: int, count: int) -> np.ndarray:
    """One row of gains per phase-error model, all from one channel draw."""
    # every uniform width scales one shared draw, as sample_phase_errors does;
    # each von Mises model has a generator of its own.  Like the channel's,
    # they run on from chunk to chunk.
    uni_rng = None
    if any(isinstance(m, UniformPhaseError) for m in models):
        uni_rng = rngmod.block_generator(seed, rngmod.STREAM_PHASE_ERROR, block)
    err_rngs = [rngmod.block_generator(seed, rngmod.STREAM_PHASE_ERROR, block)
                if isinstance(m, VonMisesPhaseError) else None for m in models]
    jitter = any(m is not None for m in models)
    out = np.empty((len(models), count))
    for rows, ch in _channel_chunks(cfg, seed, block, count):
        amp = np.abs(ch.h) * np.abs(ch.g)
        if uni_rng is not None:
            u = uni_rng.uniform(-1.0, 1.0, size=amp.shape)
        if jitter:
            terms = np.empty(amp.shape, dtype=complex)
        for gain, model, err_rng in zip(out[:, rows], models, err_rngs):
            if model is None:
                # optimal phases co-phase every term (per slot for the two-slot scheme)
                gain[:] = np.sum(amp, axis=1) ** 2
                continue
            # adjustment jitter hits the applied phases in either scheme
            if isinstance(model, UniformPhaseError):
                eps = model.delta * u
            else:
                eps = sample_phase_errors(model, err_rng, amp.shape)
            # the bits of amp * np.exp(1j * eps): exp(i eps) is (cos eps, sin eps),
            # and a real times a complex scales each part
            np.multiply(amp, np.cos(eps), out=terms.real)
            np.multiply(amp, np.sin(eps), out=terms.imag)
            gain[:] = np.abs(np.sum(terms, axis=1)) ** 2
    return out


def _nonreciprocal_gain_block(cfg: SystemConfig, policy: str, seed: int, block: int,
                              count: int, settings: dict) -> np.ndarray:
    """The rows (g1, g2, t*) of one block; t* is NaN but under the sdp policy.

    Fixed-phase policies reduce each channel chunk as it is drawn; the max-min
    policies gather the block's terms and solve them in one `maxmin_block` call
    with the solver `settings` (its grid, tol and k), every trial at rho = 1.
    That is valid at every sweep power: both users send at it and share its
    rho, and scaling both SINRs by one rho does not move the argmax.
    """
    out = np.full((3, count), np.nan)
    if cfg.scheme is Scheme.ONE and policy in ("greedy", "sdp"):
        terms = np.empty((2, count, cfg.L), dtype=complex)
        for rows, ch in _channel_chunks(cfg, seed, block, count):
            terms[0, rows] = ch.h_r * ch.g_t
            terms[1, rows] = ch.g_r * ch.h_t
        first = block * rngmod.BLOCK_SIZE
        rngs = None
        if policy == "sdp":
            rngs = [rngmod.trial_generator(seed, rngmod.STREAM_OPTIM, first + i)
                    for i in range(count)]
        method = OptimMethod.GREEDY_ITERATIVE if policy == "greedy" else OptimMethod.SDP_RELAX
        try:
            phases, out[2] = maxmin_block(terms[0], terms[1], 1.0, method, rngs, **settings)
        except SolverFailureError as exc:
            raise SolverFailureError(f"trial {first + exc.instance}: {exc}") from exc
        out[:2] = coherent_gain(terms, phases)
        return out
    brng = None
    if cfg.scheme is Scheme.ONE and policy == "random":
        brng = rngmod.block_generator(seed, rngmod.STREAM_BASELINE, block)
    for rows, ch in _channel_chunks(cfg, seed, block, count):
        out[:2, rows] = _fixed_phase_gains(cfg, policy, ch.h_r * ch.g_t, ch.g_r * ch.h_t, brng)
    return out


def _fixed_phase_gains(cfg: SystemConfig, policy: str, z1: np.ndarray, z2: np.ndarray,
                       brng) -> tuple[np.ndarray, np.ndarray]:
    """(g1, g2) of one chunk under the two-slot co-phasing, u1 or random phases."""
    if cfg.scheme is Scheme.TWO:
        # each slot gets its own co-phasing, independent of the policy
        return np.sum(np.abs(z1), axis=1) ** 2, np.sum(np.abs(z2), axis=1) ** 2
    if policy == "u1":
        return np.sum(np.abs(z1), axis=1) ** 2, coherent_gain(z2, -np.angle(z1))
    # one stacked call forms the rotations once for both users
    return coherent_gain(np.stack((z1, z2)), brng.uniform(0.0, 2.0 * math.pi, size=z1.shape))


def _gain_block_task(args):
    cfg, variants, policy, seed, block, count, settings = args
    if cfg.reciprocity is Reciprocity.RECIPROCAL:
        return _reciprocal_gain_block(cfg, variants, seed, block, count)
    return _nonreciprocal_gain_block(cfg, policy, seed, block, count, settings)


def draw_key(cfg: SystemConfig, policy: str, trials: int) -> tuple:
    """What a collection's gains depend on, besides the seed and the phase-error
    model: configs with equal keys can be collected together.

    A reciprocal gain reads only L, sigma2, the phase-error model, the trials
    and the seed; a non-reciprocal one (which has no phase-error model) reads
    the scheme as well.  nu, omega, gamma_th and noise enter neither.
    """
    key = (cfg.reciprocity, cfg.L, cfg.sigma2, policy, trials)
    return key if cfg.reciprocity is Reciprocity.RECIPROCAL else key + (cfg.scheme,)


def collect_gains(cfgs: list[SystemConfig], policy: str, trials: int, seed: int,
                  workers: int = 1, *, grid: int = GREEDY_GRID, tol: float = SDP_TOL,
                  k: int = RANDOMIZATION_K) -> list[TrialGains]:
    """Per-trial gains of each config in `cfgs`, identical for any worker count.

    The configs must share one `draw_key`.  Each block's channel is drawn once
    for the whole group, so every config gets exactly the gains it would get
    on its own.  `grid`, `tol` and `k` are the max-min solver settings of
    `optim.maxmin_block`; no other policy reads them.
    """
    if not cfgs:
        raise ValueError("need at least one config")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = cfgs[0]
    if any(draw_key(c, policy, trials) != draw_key(cfg, policy, trials) for c in cfgs):
        raise ValueError("the configs of one collection must share a draw key")
    # equal keys mean one reciprocity, L and sigma2, and on a non-reciprocal
    # channel one scheme
    if policy not in PHASE_POLICIES:
        raise ValueError(f"unknown phase policy {policy!r}")
    reciprocal = cfg.reciprocity is Reciprocity.RECIPROCAL
    if reciprocal and policy != "optimal":
        raise ValueError("reciprocal channels support the 'optimal' policy only")
    if not reciprocal and policy == "optimal":
        raise ValueError("non-reciprocal channels need a max-min or baseline policy")
    if not reciprocal and any(c.phase_error is not None for c in cfgs):
        raise ValueError("the phase-error model applies to reciprocal channels")
    # a reciprocal block has one gain row per distinct phase-error model,
    # a non-reciprocal one the rows g1, g2 and t*
    variants = tuple(dict.fromkeys(c.phase_error for c in cfgs))
    settings = {"grid": grid, "tol": tol, "k": k}
    tasks = [(cfg, variants, policy, seed, block, count, settings)
             for block, count in rngmod.iter_blocks(trials)]
    rows = np.empty((len(variants) if reciprocal else 3, trials))
    # the fork context starts every worker up front, so start no idle ones, and
    # none beyond the CPUs: on one CPU a pool only adds its start-up and pickling
    size = min(workers, len(tasks), _usable_cpus())
    if size <= 1:
        _fill_blocks(rows, map(_gain_block_task, tasks))
    else:
        with ProcessPoolExecutor(max_workers=size) as pool:
            _fill_blocks(rows, pool.map(_gain_block_task, tasks, chunksize=1))
    if not reciprocal:
        return [TrialGains(*rows) for _ in cfgs]
    by_model = dict(zip(variants, rows))
    return [TrialGains(by_model[c.phase_error], by_model[c.phase_error]) for c in cfgs]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fill_blocks(rows: np.ndarray, parts) -> None:
    """Write each block's (rows, count) gains, taken in block order, into `rows`."""
    lo = 0
    for part in parts:
        rows[:, lo:lo + part.shape[1]] = part
        lo += part.shape[1]


# the most doubles a (points, trials) temporary of a reduction holds (128 KB),
# unless one point alone has more trials.  Each row is reduced on its own, so
# the size moves no bits, only cost: at 2**17 the temporaries of a fig5 run
# (46 points x 1000 trials) faulted in about 2370 fresh pages, at 2**14 none
_REDUCE_CHUNK = 2**14


def _reduce(cfg: SystemConfig, p_mw, gains: TrialGains, user, stat) -> list[McEstimate]:
    """Estimates at each transmit power of `p_mw` (both users at that power)
    from stat(sinr, cfg) -> (values, std errors), which reduces each row of a
    (points, trials) SINR array.

    The points go through in chunks of at most _REDUCE_CHUNK doubles.  Every
    row is reduced on its own, so an estimate is the same bits whatever the
    chunk or the number of powers.
    """
    if user == "min":
        # both users share one rho >= 0, and rounding a product is monotone,
        # so rho * min(g1, g2) is the bits of min(rho * g1, rho * g2)
        g = np.minimum(gains.g1, gains.g2)
    elif user in (1, 2):
        g = gains.g1 if user == 1 else gains.g2
    else:
        raise ValueError("user must be 1, 2, or 'min'")
    rho = sweep_rho(cfg, p_mw)[:, None]
    step = max(1, _REDUCE_CHUNK // g.size)
    out = []
    for lo in range(0, len(rho), step):
        # passed straight to stat, so no chunk's SINR outlives its reduction
        values, errors = stat(rho[lo:lo + step] * g, cfg)
        out.extend(McEstimate(float(v), float(e), g.size) for v, e in zip(values, errors))
    return out


def outage_from_gains(cfg: SystemConfig, p_mw, gains: TrialGains, user=1) -> list[McEstimate]:
    """Outage probability at each power of `p_mw`, both users sending at it:
    the share of trials with SINR <= gamma_th."""
    def stat(sinr, cfg):
        n = sinr.shape[1]
        p = np.count_nonzero(sinr <= cfg.gamma_th, axis=1) / n
        return p, np.sqrt(p * (1.0 - p) / n)

    return _reduce(cfg, p_mw, gains, user, stat)


def se_from_gains(cfg: SystemConfig, p_mw, gains: TrialGains, user=1) -> list[McEstimate]:
    """Mean spectral efficiency at each power of `p_mw`, both users sending at
    it, halved for the two-slot scheme."""
    def stat(sinr, cfg):
        n = sinr.shape[1]
        rate = np.log2(1.0 + sinr)
        if cfg.scheme is Scheme.TWO:
            rate = rate / 2.0
        std = np.std(rate, axis=1, ddof=1) if n > 1 else np.zeros(len(rate))
        return np.mean(rate, axis=1), std / math.sqrt(n)

    return _reduce(cfg, p_mw, gains, user, stat)


def find_crossover(cfg: SystemConfig, p_dbm_grid, trials: int = 10**3, seed: int = 0,
                   workers: int = 1) -> float:
    """Power (dBm) on a reciprocal channel where the one-slot scheme's spectral
    efficiency overtakes the two-slot scheme's, refined by bisection to
    _CROSSOVER_TOL_DB under common random numbers.  Both users' gains are one
    array on a reciprocal channel, so the rates compared are user 1's."""
    grid = np.asarray(list(p_dbm_grid), dtype=float)
    if grid.size < 2:
        raise ValueError("need at least two grid points")
    [gains] = collect_gains([cfg], "optimal", trials, seed, workers)
    one = dataclasses.replace(cfg, scheme=Scheme.ONE)
    two = dataclasses.replace(cfg, scheme=Scheme.TWO)

    def diffs(p_dbm) -> list[float]:
        p_mw = [10.0 ** (p / 10.0) for p in p_dbm]
        return [a.value - b.value for a, b in zip(se_from_gains(one, p_mw, gains),
                                                  se_from_gains(two, p_mw, gains))]

    values = diffs(grid)
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            return float(grid[i])
        if values[i] * values[i + 1] < 0.0:
            break
    else:
        raise NoCrossoverError(
            f"no sign change of SE(one-slot) - SE(two-slot) on [{grid[0]}, {grid[-1]}] dBm")
    lo, hi, flo = grid[i], grid[i + 1], values[i]
    while hi - lo > _CROSSOVER_TOL_DB:
        mid = 0.5 * (lo + hi)
        [fm] = diffs([mid])
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
