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
eps), the same bits as the complex exponential.  A block's channel stream
does not depend on L, sigma2 or the reciprocity: every config's channel rows
are a prefix of it.  So one collection takes configs of any L, sigma2 and
reciprocity at its one trial count, and draws each block's stream once, up to
the longest prefix a config reads (common random numbers).  `draw_key` (the
reciprocity, L and sigma2) says which configs read the same rows; they form a
group that one kernel per block serves.  On a reciprocal channel each
phase-error model gets a gain row, so scheme, nu, omega, gamma_th, noise and
jitter width share a group's rows; on a non-reciprocal one each one-slot
policy and the two-slot scheme's per-slot co-phasing get (g1, g2, t*), so
`optimize`'s methods and fig8's policies share them; the block's U(-1, 1)
phase-error stream is read once by every group.  A phase-jitter variant that
only outage requests read is counted from a float32 proxy of its gains
(`_counted_jitter_gain`), whose rows near a threshold take the exact gain, so
every count, like every returned gain and SE tally, keeps its bits.  The u1
and random baselines live here.
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


class _SharedStream:
    """One block's channel normals or U(-1, 1) phase errors, which `draw(out=)`
    draws, read by every group of a collection through a cursor of its own.

    Neither stream depends on L, sigma2 or the reciprocity, and a group reads
    its rows in order from it, so each group reads a prefix of this one
    stream.  Readers take turns lowest cursor first, so none is ever behind
    the one reading: the buffer keeps the values from the reader's cursor on,
    one read's worth, and each value is drawn once, up to the longest prefix a
    group reads.  Once every reader has passed the buffer it is dropped, so
    the chunk's arrays reuse its memory, as they reuse a generator's own draw.
    """

    def __init__(self, draw):
        self._draw, self._buf, self._start = draw, np.empty(0), 0
        self.readers = []  # the cursors of the groups still drawing

    def cursor(self) -> "_Cursor":
        reader = _Cursor(self)
        self.readers.append(reader)
        return reader

    def read(self, reader: "_Cursor", n: int) -> np.ndarray:
        """The next n values at `reader`'s cursor, which moves past them."""
        at = reader.at - self._start
        if at + n > self._buf.size:
            buf = np.empty(n)
            keep = self._buf.size - at
            buf[:keep] = self._buf[at:]
            self._draw(out=buf[keep:])
            self._buf, self._start, at = buf, reader.at, 0
        z = self._buf[at:at + n]
        reader.at += n
        end = self._start + self._buf.size
        if all(r.at >= end for r in self.readers):
            self._buf, self._start = np.empty(0), end
        return z


class _Cursor:
    """One group's place in a block's `_SharedStream`: `sample_channel_block`
    draws from it as from the block's channel generator."""

    def __init__(self, stream: _SharedStream):
        self.stream, self.at = stream, 0

    def take(self, shape) -> np.ndarray:
        return self.stream.read(self, math.prod(shape)).reshape(shape)

    standard_normal = take


def _chunk_rows(cfg: SystemConfig, count: int):
    """Consecutive row slices of one block, each of about _DRAW_CHUNK of the
    channel's normals.  A kernel draws each from the block's one stream, so
    together they are the rows of one whole-block `sample_channel_block`
    call, bit for bit."""
    per_row = (4 if cfg.reciprocity is Reciprocity.RECIPROCAL else 8) * cfg.L
    step = max(1, _DRAW_CHUNK // per_row)
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _jitter_gain(amp: np.ndarray, eps: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """|sum_l amp_l e^(i eps_l)|^2 of each row, its terms formed in the complex
    `terms` as (amp cos eps, amp sin eps), the bits of amp * np.exp(1j * eps).
    A row has these bits in any set of rows."""
    np.multiply(amp, np.cos(eps), out=terms.real)
    np.multiply(amp, np.sin(eps), out=terms.imag)
    return np.abs(np.sum(terms, axis=1)) ** 2


# the absolute error of numpy's float32 cos and sin on [-fl32(pi), fl32(pi)],
# several times the 1.19 * 2**-24 measured there (tests/test_mc.py checks it)
_E32 = 2.0**-21


def _counted_jitter_gain(amp: np.ndarray, size: np.ndarray, eps: np.ndarray,
                         eps_max: float, cuts: np.ndarray) -> np.ndarray:
    """Gains with the counts of `_jitter_gain`'s at every outage cutoff in
    `cuts` (sorted, ending in inf): a float32 proxy g~, and the exact gain g
    of each row whose interval [g~ - b, g~ + b) holds a cutoff.

    Per unit amplitude, the proxy's term (cos, sin of fl32(eps)) is within
    sqrt(2) _E32 of e^(i fl32(eps)), and so within 2**-24 eps_max more of
    e^(i eps) (|eps| <= eps_max <= pi), which the exact term's trig is within
    sqrt(2) 2**-50 of; (L + 1) 2**-50 covers the products' and row sums'
    roundings.  So the sums differ by at most e = size * kappa, and with
    r = sqrt(g~), |g~ - g| <= b, where 2**-48 covers the squares', b's and the
    interval's roundings, and the floors subnormal scales."""
    e32 = eps.astype(np.float32)
    re = np.einsum("ij,ij->i", amp, np.cos(e32).astype(float))
    im = np.einsum("ij,ij->i", amp, np.sin(e32).astype(float))
    g = re * re + im * im
    L = amp.shape[1]
    kappa = math.sqrt(2.0) * (_E32 + 2.0**-50) + 2.0**-24 * eps_max + (L + 1) * 2.0**-50
    e = size * kappa + L * 2.0**-1070
    r = np.sqrt(g)
    b = e * (2.0 * r + e) + 2.0**-48 * (r + e) ** 2 + 2.0**-1060
    lo, hi = g - b, g + b
    # the least cutoff >= lo; not finite hi (or NaN) takes the exact gain
    near = cuts[np.searchsorted(cuts[:-1], lo)]
    fix = np.flatnonzero(~((near >= hi) & (hi < math.inf)))
    if fix.size:
        g[fix] = _jitter_gain(amp[fix], eps[fix], np.empty((fix.size, L), dtype=complex))
    return g


def _reciprocal_chunk(gains: np.ndarray, ch, models: tuple[PhaseErrorModel | None, ...],
                      cuts: tuple, u: Optional[np.ndarray], err_rngs) -> None:
    """Each phase-error model's gains on one chunk of a reciprocal channel;
    a model with outage cutoffs gets `_counted_jitter_gain`'s."""
    amp = np.abs(ch.h) * np.abs(ch.g)
    size = np.einsum("ij->i", amp) if any(c is not None for c in cuts) else None
    if any(m is not None and c is None for m, c in zip(models, cuts)):
        terms = np.empty(amp.shape, dtype=complex)
    for gain, model, cut, err_rng in zip(gains, models, cuts, err_rngs):
        if model is None:
            # optimal phases co-phase every term (per slot for the two-slot scheme)
            gain[:] = np.sum(amp, axis=1) ** 2
            continue
        # adjustment jitter hits the applied phases in either scheme
        if isinstance(model, UniformPhaseError):
            eps, eps_max = model.delta * u, model.delta
        else:
            eps, eps_max = sample_phase_errors(model, err_rng, amp.shape), math.pi
        if cut is None:
            gain[:] = _jitter_gain(amp, eps, terms)
        else:
            gain[:] = _counted_jitter_gain(amp, size, eps, eps_max, cut)


def _reciprocal_gain_block(cfg: SystemConfig, models: tuple[PhaseErrorModel | None, ...],
                           cuts: tuple, seed: int, block: int, count: int, normals: _Cursor,
                           uniforms: Optional[_Cursor] = None):
    """One row of gains per phase-error model, all from one channel draw.  A
    generator, like `_nonreciprocal_gain_block`: it yields after each chunk,
    holding none of the chunk's arrays, and returns the rows."""
    # uniform widths read the block's shared phase-error stream, and each von
    # Mises model a generator of its own, run on from chunk to chunk
    err_rngs = [rngmod.block_generator(seed, rngmod.STREAM_PHASE_ERROR, block)
                if isinstance(m, VonMisesPhaseError) else None for m in models]
    out = np.empty((len(models), count))
    for rows in _chunk_rows(cfg, count):
        n = rows.stop - rows.start
        _reciprocal_chunk(out[:, rows], sample_channel_block(cfg, normals, n), models, cuts,
                          None if uniforms is None else uniforms.take((n, cfg.L)), err_rngs)
        yield
    return out


def _nonreciprocal_chunk(gains: np.ndarray, ch, variants: tuple[str | None, ...], brng,
                         kept: Optional[np.ndarray]) -> None:
    """Each fixed-phase variant's (g1, g2) on one chunk of a non-reciprocal
    channel; the chunk's terms go to `kept` unless it is None."""
    z = ch.terms
    if kept is not None:
        kept[:] = z
    for g, policy in zip(gains, variants):
        if policy is None:  # each slot gets its own co-phasing
            g[:] = np.sum(np.abs(z), axis=2) ** 2
        elif policy == "u1":
            g[:] = np.sum(np.abs(z[0]), axis=1) ** 2, coherent_gain(z[1], -np.angle(z[0]))
        elif policy == "random":  # one stacked call forms the rotations for both users
            g[:] = coherent_gain(z, brng.uniform(0.0, 2.0 * math.pi, size=z[0].shape))


def _nonreciprocal_gain_block(cfg: SystemConfig, variants: tuple[str | None, ...],
                              seed: int, block: int, count: int, normals: _Cursor):
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
    terms = np.empty((2, count, cfg.L), dtype=complex) if designed else None
    for rows in _chunk_rows(cfg, count):
        _nonreciprocal_chunk(out[:, :2, rows],
                             sample_channel_block(cfg, normals, rows.stop - rows.start),
                             variants, brng, None if terms is None else terms[:, rows])
        yield
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


def _trial_gains(rows: np.ndarray, cfg: SystemConfig) -> TrialGains:
    """A variant's gains from its row (reciprocal) or rows g1, g2, t*."""
    reciprocal = cfg.reciprocity is Reciprocity.RECIPROCAL
    return TrialGains(rows, rows) if reciprocal else TrialGains(*rows)


def _gain_block_task(args):
    """Each group's rows of its first `kept` variants in one block, and the
    requests' statistics.  Every group reads the block's one channel stream,
    and each reciprocal group with a uniform width the block's one phase-error
    stream; its kernel draws one chunk per turn, and the turn goes to the group
    with the lowest channel cursor, which is also the lowest on the
    phase-error stream, both being row counts times a multiple of L."""
    groups, jobs, seed, block, count = args
    channel = _SharedStream(rngmod.block_generator(seed, rngmod.STREAM_CHANNEL,
                                                   block).standard_normal)
    if any(isinstance(m, UniformPhaseError) for _, variants, _ in groups for m in variants):
        rng = rngmod.block_generator(seed, rngmod.STREAM_PHASE_ERROR, block)
        # the U(-1, 1) draws that every width scales, as sample_phase_errors does
        errors = _SharedStream(lambda out: np.copyto(out, rng.uniform(-1.0, 1.0, out.size)))
    cuts = {job[2:4]: job[-1] for job in jobs}
    live = {}  # channel cursor -> (group, its kernel, its cursors)
    for g, (cfg, variants, _) in enumerate(groups):
        cursors = [channel.cursor()]
        if cfg.reciprocity is Reciprocity.RECIPROCAL:
            if any(isinstance(m, UniformPhaseError) for m in variants):
                cursors.append(errors.cursor())
            run = _reciprocal_gain_block(cfg, variants, tuple(cuts.get((g, v)) for v in
                                         range(len(variants))), seed, block, count, *cursors)
        else:
            run = _nonreciprocal_gain_block(cfg, variants, seed, block, count, *cursors)
        live[cursors[0]] = g, run, cursors
    rows = [None] * len(groups)
    while live:
        normals = min(live, key=lambda c: c.at)
        g, run, cursors = live[normals]
        try:
            next(run)
        except StopIteration as done:
            rows[g] = done.value
            del live[normals]
            for cursor in cursors:
                cursor.stream.readers.remove(cursor)
    stats = [_block_stat(c, metric, _user_gain(_trial_gains(rows[g][v], c), user), rho)
             for c, metric, g, v, user, rho, _ in jobs]
    return [part[:kept] for part, (_, _, kept) in zip(rows, groups)], stats


def draw_key(cfg: SystemConfig) -> tuple:
    """The channel rows a config's gains read besides the seed: configs with
    equal keys read the same rows and differ only in their variant (a
    reciprocal one's phase-error model, a non-reciprocal one's scheme and
    one-slot policy), so one kernel per block serves them.  nu, omega,
    gamma_th and noise enter no gain."""
    return (cfg.reciprocity, cfg.L, cfg.sigma2)


def collect_gains(cfgs: list[SystemConfig], trials: int, seed: int, workers: int = 1,
                  requests: Sequence[tuple] = ()) -> list[TrialGains | Tally]:
    """Per-trial gains of each config in `cfgs`, identical for any worker count.

    The configs with one `draw_key` are a group, served by one kernel per
    block, and every group reads a prefix of the block's one channel stream,
    drawn once.  So every config gets exactly the gains it would get on its
    own.  A config that (cfg, metric, user, p_mw) `requests` name gets a `Tally`
    of its requests, taken as each block is drawn, instead of its gains.
    Raises ValueError for a request whose config is not in `cfgs`, whose
    metric is not 'outage' or 'se', or whose user is not 1, 2 or 'min'.
    """
    if not cfgs:
        raise ValueError("need at least one config")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    tallied = dict.fromkeys(c for c, *_ in requests)
    members = {}
    for c in dict.fromkeys(cfgs):
        members.setdefault(draw_key(c), []).append(c)
    # a reciprocal variant gets a gain row, a non-reciprocal one g1, g2, t*; kept ones first
    groups, where, rows = [], {}, []
    for g, group in enumerate(members.values()):
        cfg = group[0]
        reciprocal = cfg.reciprocity is Reciprocity.RECIPROCAL
        variant = {c: c.phase_error if reciprocal else c.policy if c.scheme is Scheme.ONE else None
                   for c in group}
        kept = tuple(dict.fromkeys(variant[c] for c in group if c not in tallied))
        variants = tuple(dict.fromkeys(kept + tuple(variant[c] for c in group)))
        groups.append((cfg, variants, len(kept)))
        where.update((c, (g, variants.index(variant[c]))) for c in group)
        rows.append(np.empty((len(kept),) + (() if reciprocal else (3,)) + (trials,)))
    for c, metric, user, _ in requests:
        if c not in where:
            raise ValueError(f"request config is not one of cfgs: {c}")
        if metric not in ("outage", "se"):
            raise ValueError(f"request metric must be 'outage' or 'se', got {metric!r}")
        if user not in (1, 2, "min"):
            raise ValueError(f"request user must be 1, 2, or 'min', got {user!r}")
    jobs = [(c, metric, *where[c], user, sweep_rho(c, p_mw))
            for c, metric, user, p_mw in requests]
    cuts = _count_cutoffs(groups, jobs)
    jobs = [job + (cuts.get(job[2:4]),) for job in jobs]
    tasks = [(groups, jobs, seed, block, count) for block, count in rngmod.iter_blocks(trials)]
    totals, lo = [None] * len(jobs), 0
    # the fork context starts every worker up front, so start no idle ones, and
    # none beyond the CPUs: on one CPU a pool only adds its start-up and pickling
    size = min(workers, len(tasks), _usable_cpus())
    with (_start_pool(size) if size > 1 else contextlib.nullcontext()) as pool:
        # in block order: each block's kept gains, and its statistics merged in
        for parts, stats in (pool.map if pool else map)(_gain_block_task, tasks):
            hi = lo + parts[0].shape[-1]
            for held, part in zip(rows, parts):
                held[..., lo:hi] = part
            totals = [_merge(metric, total, lo, hi, stat)
                      for (_, metric, *_), total, stat in zip(jobs, totals, stats)]
            lo = hi
    tallies = {c: Tally(trials, {}) for c in tallied}
    for (c, metric, user, p_mw), total in zip(requests, totals):
        tallies[c].stats[c, metric, user, tuple(p_mw)] = total
    out = []
    for c in cfgs:
        g, v = where[c]
        out.append(tallies[c] if c in tallied else _trial_gains(rows[g][v], c))
    return out


def _count_cutoffs(groups: list, jobs: list) -> dict:
    """(group, variant) -> the sorted outage cutoffs of every request on it,
    ending in inf, for each reciprocal phase-jitter variant whose gains only
    outage requests read: no config keeps them and no SE request reads them."""
    read = {}
    for job in jobs:
        read.setdefault(job[2:4], []).append(job)
    return {(g, v): np.sort(np.concatenate(
                [_outage_cutoffs(rho, c.gamma_th) for c, *_, rho in on] + [[math.inf]]))
            for (g, v), on in read.items()
            if groups[g][0].reciprocity is Reciprocity.RECIPROCAL and v >= groups[g][2]
            and groups[g][1][v] is not None and all(job[1] == "outage" for job in on)}


def _outage_cutoffs(rho: np.ndarray, gamma_th: float) -> np.ndarray:
    """The largest double x with rho * x <= gamma_th at each rho >= 0: rounding
    a product is monotone, so the predicate holds at g >= 0 exactly when g is at
    most it.  Nonnegative doubles' bits are ordered, so it is found bit by bit."""
    top = np.array(math.inf).view(np.int64)
    bits = np.zeros(rho.shape, dtype=np.int64)  # 0, where it holds
    step = 1 << 62
    with np.errstate(over="ignore", invalid="ignore"):
        while step:
            up = np.minimum(bits, top - step) + step  # at most inf's bits
            bits = np.where(rho * up.view(float) <= gamma_th, up, bits)
            step >>= 1
    return bits.view(float)


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
