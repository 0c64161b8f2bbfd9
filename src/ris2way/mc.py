"""Monte Carlo estimators of outage probability and average spectral
efficiency, and the scheme-crossover search.

`collect_gains` draws each config's per-trial gains; `outage_from_gains` and
`se_from_gains` take a config plus a vector of transmit powers and reduce them
at every power in one call, returning one estimate per power.  Each metric has
one per-block statistic (outage counts, or the rates' mean and sum of squared
deviations), merged in block order.  A config that (config, metric, user,
powers) requests name is tallied as each block is drawn and its gains are never
kept; stored gains fold block-sized slices through the same statistic.  A sweep
point means both users sending at that power, so they share one rho at every
point (a config carries no power).  Gains do not depend on the transmit power,
so a sweep collects once.  They are a pure function of (seed, trial index),
drawn in fixed-size blocks merged in block order, so they are bit-for-bit
reproducible for any worker count, and trial i is the same bits whatever the
trial count.  Blocks go to a process pool of at most min(workers, blocks, CPUs
this process may run on) workers, joined before the call returns, or run
serially when that is one; the pool machinery is imported only when a pool
starts.  A block is drawn and reduced in cache-sized row chunks; its generators
run on from chunk to chunk, so the chunks' rows are the bits of one whole-block
draw.  A phase-jitter term amp * e^(i eps) is formed as (amp cos eps, amp sin
eps), the same bits as the complex exponential.  `draw_key` names what else they
depend on: the reciprocity, L, sigma2 and the trial count.  Configs with one
key share one channel draw per block, and `collect_gains` collects such a group
in one pass (common random numbers).  On a reciprocal channel each phase-error
model gets a gain row, so scheme, nu, omega, gamma_th, noise and jitter width
all share the draw; on a non-reciprocal one each one-slot policy and the
two-slot scheme's per-slot co-phasing get (g1, g2, t*), so `optimize`'s methods
and fig8's policies share it.  `SystemConfig` checks each config's policy and
phase-error model when it is built.  The u1 and random baselines live here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng as rngmod
from .channel import (PhaseErrorModel, Reciprocity, Scheme, SystemConfig,
                      UniformPhaseError, VonMisesPhaseError, coherent_gain,
                      sample_channel_block, sample_phase_errors, sweep_rho)
from .optim import OptimMethod, SolverFailureError, maxmin_block


class NoCrossoverError(RuntimeError):
    """The scheme spectral-efficiency difference never changes sign on the grid."""


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    trials: int


_CROSSOVER_TOL_DB = 0.01


@dataclass(frozen=True)
class TrialGains:
    """Power-independent per-trial channel gains g_p: gamma_p = rho_p * g_p, and
    on a non-reciprocal channel the sdp policy's relaxation bounds t* on
    min(g1, g2) (NaN under other policies and the two-slot scheme)."""

    g1: np.ndarray
    g2: np.ndarray
    t_star: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Tally:
    """Statistics kept instead of per-trial gains: (config, metric, user, powers)
    -> at each power, the trials in outage, or the rate's mean and M2 (rows 0, 1),
    its sum of squared deviations."""

    trials: int
    stats: dict


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


def _nonreciprocal_gain_block(cfg: SystemConfig, variants: tuple[str | None, ...],
                              seed: int, block: int, count: int) -> np.ndarray:
    """Rows (g1, g2, t*) per variant, a one-slot policy or None for the two-slot
    scheme's per-slot co-phasing, all from one channel draw; t* is NaN but under
    sdp.  Fixed phases reduce each chunk as it is drawn; the max-min policies
    gather the block's terms and solve them, each in one `maxmin_block` call.
    A variant reads only the channel and its own streams.  The phases hold at
    every sweep power: both users share its rho, and scaling both SINRs by one
    rho keeps the argmax."""
    out = np.full((len(variants), 3, count), np.nan)
    brng = None
    if "random" in variants:
        brng = rngmod.block_generator(seed, rngmod.STREAM_BASELINE, block)
    designed = [(row, v) for row, v in zip(out, variants) if v in ("greedy", "sdp")]
    if designed:
        terms = np.empty((2, count, cfg.L), dtype=complex)
    for rows, ch in _channel_chunks(cfg, seed, block, count):
        z = ch.terms
        if designed:
            terms[:, rows] = z
        for gains, policy in zip(out[:, :2, rows], variants):
            if policy is None:  # each slot gets its own co-phasing
                gains[:] = np.sum(np.abs(z), axis=2) ** 2
            elif policy == "u1":
                gains[:] = np.sum(np.abs(z[0]), axis=1) ** 2, coherent_gain(z[1], -np.angle(z[0]))
            elif policy == "random":  # one stacked call forms the rotations for both users
                gains[:] = coherent_gain(z, brng.uniform(0.0, 2.0 * math.pi, size=z[0].shape))
    first = block * rngmod.BLOCK_SIZE
    for row, policy in designed:
        rngs = None
        if policy == "sdp":
            rngs = [rngmod.trial_generator(seed, rngmod.STREAM_OPTIM, first + i)
                    for i in range(count)]
        try:
            phases, row[2] = maxmin_block(terms, OptimMethod(policy), rngs)
        except SolverFailureError as exc:
            raise SolverFailureError(f"trial {first + exc.instance}: {exc}") from exc
        row[:2] = coherent_gain(terms, phases)
    return out


def _trial_gains(rows: np.ndarray, reciprocal: bool) -> TrialGains:
    """A variant's gains from its row (reciprocal) or rows g1, g2, t*."""
    return TrialGains(rows, rows) if reciprocal else TrialGains(*rows)


def _gain_block_task(args):
    """A block's rows of its first `kept` variants, and its requests' statistics."""
    cfg, variants, kept, jobs, seed, block, count = args
    reciprocal = cfg.reciprocity is Reciprocity.RECIPROCAL
    rows = (_reciprocal_gain_block if reciprocal else _nonreciprocal_gain_block)(
        cfg, variants, seed, block, count)
    stats = [_block_stat(c, metric, _user_gain(_trial_gains(rows[v], reciprocal), user), rho)
             for c, metric, v, user, rho in jobs]
    return rows[:kept], stats


def draw_key(cfg: SystemConfig, trials: int) -> tuple:
    """What a collection's gains depend on besides the seed and each config's
    variant (a reciprocal one's phase-error model, a non-reciprocal one's scheme
    and one-slot policy): configs with equal keys can share one draw.  nu,
    omega, gamma_th and noise enter no gain."""
    return (cfg.reciprocity, cfg.L, cfg.sigma2, trials)


def collect_gains(cfgs: list[SystemConfig], trials: int, seed: int, workers: int = 1,
                  requests: Sequence[tuple] = ()) -> list[TrialGains | Tally]:
    """Per-trial gains of each config in `cfgs`, identical for any worker count.

    The configs must share one `draw_key`.  Each block's channel is drawn once
    for the whole group, so every config gets exactly the gains it would get
    on its own.  A config that (cfg, metric, user, p_mw) `requests` name gets
    their `Tally`, taken as each block is drawn, instead of its gains.
    """
    if not cfgs:
        raise ValueError("need at least one config")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    cfg = cfgs[0]
    if any(draw_key(c, trials) != draw_key(cfg, trials) for c in cfgs):
        raise ValueError("the configs of one collection must share a draw key")
    tallied = dict.fromkeys(c for c, *_ in requests)
    reciprocal = cfg.reciprocity is Reciprocity.RECIPROCAL
    # a reciprocal variant gets a gain row, a non-reciprocal one g1, g2, t*; kept ones first
    variant = {c: c.phase_error if reciprocal else c.policy if c.scheme is Scheme.ONE else None
               for c in cfgs}
    kept = tuple(dict.fromkeys(variant[c] for c in cfgs if c not in tallied))
    variants = tuple(dict.fromkeys(kept + tuple(variant[c] for c in tallied)))
    jobs = [(c, metric, variants.index(variant[c]), user, sweep_rho(c, p_mw))
            for c, metric, user, p_mw in requests]
    tasks = [(cfg, variants, len(kept), jobs, seed, block, count)
             for block, count in rngmod.iter_blocks(trials)]
    rows = np.empty((len(kept),) + (() if reciprocal else (3,)) + (trials,))
    totals, lo = [None] * len(jobs), 0
    # the fork context starts every worker up front, so start no idle ones, and
    # none beyond the CPUs: on one CPU a pool only adds its start-up and pickling
    size = min(workers, len(tasks), _usable_cpus())
    with (_start_pool(size) if size > 1 else contextlib.nullcontext()) as pool:
        # in block order: each block's kept gains, and its statistics merged in
        for part, stats in (pool.map if pool else map)(_gain_block_task, tasks):
            hi = lo + part.shape[-1]
            rows[..., lo:hi] = part
            totals = [_merge(metric, total, lo, hi, stat)
                      for (_, metric, *_), total, stat in zip(jobs, totals, stats)]
            lo = hi
    by_variant = dict(zip(kept, rows))
    tally = Tally(trials, {(c, metric, user, tuple(p_mw)): total
                           for (c, metric, user, p_mw), total in zip(requests, totals)})
    return [tally if c in tallied else _trial_gains(by_variant[variant[c]], reciprocal)
            for c in cfgs]


def _start_pool(size: int):
    """A process pool of `size` workers.  The pool machinery (concurrent.futures,
    multiprocessing) is imported here, not at module level: most calls never
    start a pool, and the import costs every process about 30 modules and
    2 MB of memory."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=size)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def outage_counts(g: np.ndarray, rho: np.ndarray, gamma_th: float) -> np.ndarray:
    """The number of trials with rho * g <= gamma_th at each rho >= 0.

    Rounding a product is monotone, so the trials in outage are a prefix of the
    sorted gains (padded with NaN, where the predicate is false).  Its length is
    guessed by `searchsorted` at gamma_th / rho, kept where the predicate holds
    at the last gain counted and fails at the next, and else bisected with it."""
    s = np.concatenate([np.sort(g), np.full(g.size + 1, np.nan)])
    with np.errstate(all="ignore"):
        count = np.searchsorted(s[:g.size], gamma_th / rho, side="right")
    wrong = ((count > 0) & ~(rho * s[count - 1] <= gamma_th)) | (rho * s[count] <= gamma_th)
    if wrong.any():
        rho, fixed = rho[wrong], np.zeros(np.count_nonzero(wrong), dtype=np.intp)
        step = 1 << g.size.bit_length() >> 1
        while step:
            fixed += step * (rho * s[fixed + (step - 1)] <= gamma_th)
            step >>= 1
        count[wrong] = fixed
    return count


# the most doubles a (points, trials) temporary of an SE statistic holds
# (128 KB).  Each row is reduced on its own, so the size moves no bits, only
# cost: at 2**17 the temporaries of a fig5 run (46 points x 1000 trials)
# faulted in about 2370 fresh pages, at 2**14 none
_REDUCE_CHUNK = 2**14


def _block_stat(cfg: SystemConfig, metric: str, g: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """A block's outage counts at each rho, or its rates' mean and M2 (rows 0, 1),
    each summed over a row of rates in numpy's own order, as np.std sums them."""
    if metric == "outage":
        return outage_counts(g, rho, cfg.gamma_th)
    out = np.empty((2, len(rho)))
    step = max(1, _REDUCE_CHUNK // g.size)
    for lo in range(0, len(rho), step):
        rate = np.log2(1.0 + rho[lo:lo + step, None] * g)
        if cfg.scheme is Scheme.TWO:
            rate /= 2.0
        mean = np.add.reduce(rate, axis=1, keepdims=True) / g.size
        out[:, lo:lo + step] = mean[:, 0], np.add.reduce(np.square(rate - mean), axis=1)
    return out


def _merge(metric: str, total, lo: int, hi: int, stat: np.ndarray) -> np.ndarray:
    """`total` of trials [0, lo) (None if none) with `stat` of trials [lo, hi)
    merged in: counts add, mean and M2 by the pairwise update of Chan, Golub &
    LeVeque (1979), weighted by (hi - lo) / hi, exactly 1 for a first block."""
    total = np.zeros_like(stat) if total is None else total
    if metric == "outage":
        return total + stat
    delta, w = stat[0] - total[0], (hi - lo) / hi
    return np.array([total[0] + delta * w, total[1] + stat[1] + delta * delta * (lo * w)])


def _statistic(cfg: SystemConfig, metric: str, p_mw, gains: TrialGains | Tally,
               user) -> tuple[int, np.ndarray]:
    """(trials, statistic) of `cfg`'s `user` at each power of `p_mw`: read from a
    `Tally`, or stored gains folded one block-sized slice at a time, like blocks."""
    if isinstance(gains, Tally):
        return gains.trials, gains.stats[cfg, metric, user, tuple(p_mw)]
    g, rho, total = _user_gain(gains, user), sweep_rho(cfg, p_mw), None
    for lo in range(0, g.size, rngmod.BLOCK_SIZE):
        hi = min(lo + rngmod.BLOCK_SIZE, g.size)
        total = _merge(metric, total, lo, hi, _block_stat(cfg, metric, g[lo:hi], rho))
    return g.size, total


def _user_gain(gains: TrialGains, user) -> np.ndarray:
    """The gain whose SINR is rho times it: user 1's, user 2's or the smaller."""
    if user == "min":
        # both users share one rho >= 0, and rounding a product is monotone,
        # so rho * min(g1, g2) is the bits of min(rho * g1, rho * g2)
        return np.minimum(gains.g1, gains.g2)
    if user in (1, 2):
        return gains.g1 if user == 1 else gains.g2
    raise ValueError("user must be 1, 2, or 'min'")


def outage_from_gains(cfg: SystemConfig, p_mw, gains: TrialGains | Tally,
                      user=1) -> list[McEstimate]:
    """Outage probability at each power of `p_mw`, both users sending at it:
    the share of trials with SINR <= gamma_th."""
    n, counts = _statistic(cfg, "outage", p_mw, gains, user)
    p = counts / n
    return [McEstimate(float(v), float(e), n) for v, e in zip(p, np.sqrt(p * (1.0 - p) / n))]


def se_from_gains(cfg: SystemConfig, p_mw, gains: TrialGains | Tally,
                  user=1) -> list[McEstimate]:
    """Mean spectral efficiency at each power of `p_mw`, both users sending at
    it, halved for the two-slot scheme; its standard error is the ddof=1 std's."""
    n, (mean, m2) = _statistic(cfg, "se", p_mw, gains, user)
    std = np.sqrt(m2 / (n - 1)) if n > 1 else np.zeros(len(mean))
    return [McEstimate(float(m), float(e), n) for m, e in zip(mean, std / math.sqrt(n))]


def find_crossover(cfg: SystemConfig, p_dbm_grid, trials: int = 10**3, seed: int = 0,
                   workers: int = 1) -> float:
    """Power (dBm) on a reciprocal channel where the one-slot scheme's spectral
    efficiency overtakes the two-slot scheme's, refined by bisection to
    _CROSSOVER_TOL_DB under common random numbers.  Both users' gains are one
    array on a reciprocal channel, so the rates compared are user 1's."""
    grid = np.asarray(list(p_dbm_grid), dtype=float)
    if grid.size < 2:
        raise ValueError("need at least two grid points")
    [gains] = collect_gains([cfg], trials, seed, workers)
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
