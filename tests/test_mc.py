"""Monte Carlo estimators: accuracy against the closed forms, bit-for-bit
reproducibility across worker counts, and variance-reduced comparisons."""

import dataclasses
import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ris2way import analytic as an
from ris2way import mc, optim
from ris2way import rng as rngmod
from ris2way.channel import (NonReciprocalChannel, Reciprocity, Scheme,
                             SystemConfig, UniformPhaseError, VonMisesPhaseError,
                             sample_channel_block, sample_phase_errors, sweep_rho)
from ris2way.mc import (NoCrossoverError, collect_gains, find_crossover,
                        outage_from_gains, se_from_gains)


def cfg_rec(**kw):
    base = dict(L=1, sigma2=1.0, noise_mw=1e-7, omega=1e-4, nu=0.0)
    base.update(kw)
    return SystemConfig(**base)


def test_outage_matches_exact_single_element():
    cfg = cfg_rec(L=1)
    [gains] = collect_gains([cfg], 200_000, seed=1)
    [est] = outage_from_gains(cfg, [1.0], gains)
    [rho] = sweep_rho(cfg, [1.0])
    exact = float(an.outage_exact_L1(cfg.gamma_th, rho))
    assert abs(est.value - exact) <= 3 * est.std_error
    assert est.trials == 200_000
    assert est.std_error == pytest.approx(
        math.sqrt(est.value * (1 - est.value) / est.trials), rel=1e-12)


def test_outage_high_power_is_zero():
    cfg = cfg_rec(L=4)
    [gains] = collect_gains([cfg], 20_000, seed=2)
    assert outage_from_gains(cfg, [1e9], gains)[0].value == 0.0


def test_se_zero_power():
    cfg = cfg_rec(L=2)
    [gains] = collect_gains([cfg], 5_000, seed=3)
    assert se_from_gains(cfg, [0.0], gains)[0].value == 0.0


def test_se_matches_quadrature_single_element():
    cfg = cfg_rec(L=1)
    [gains] = collect_gains([cfg], 100_000, seed=4)
    [est] = se_from_gains(cfg, [1.0], gains)  # 0 dBm
    [rho] = sweep_rho(cfg, [1.0])
    assert est.value == pytest.approx(an.se_exact_L1(rho), rel=0.01)


def test_se_scheme_two_half_rate():
    cfg1 = cfg_rec(L=2, omega=0.0)
    cfg2 = cfg_rec(L=2, omega=0.0, scheme=Scheme.TWO)
    gains1, gains2 = collect_gains([cfg1, cfg2], 4_000, seed=5)
    [a] = se_from_gains(cfg1, [1.0], gains1)
    [b] = se_from_gains(cfg2, [1.0], gains2)
    assert b.value == pytest.approx(a.value / 2.0, rel=1e-12)


def _one_point(metric, cfg, p_mw, gains, user):
    """Reference: one power point's reduction on 1-D arrays, written out.  The
    rate's mean and squared deviations are np.mean's and np.std's on each
    block of trials, merged in block order by Chan, Golub & LeVeque's update."""
    [rho] = sweep_rho(cfg, [p_mw])
    sinr = {1: lambda: rho * gains.g1, 2: lambda: rho * gains.g2,
            "min": lambda: np.minimum(rho * gains.g1, rho * gains.g2)}[user]()
    n = sinr.size
    if metric == "outage":
        p = float(np.count_nonzero(sinr <= cfg.gamma_th)) / n
        return p, math.sqrt(p * (1.0 - p) / n), n
    rate = np.log2(1.0 + sinr)
    if cfg.scheme is Scheme.TWO:
        rate = rate / 2.0
    mean = m2 = 0.0
    for lo in range(0, n, rngmod.BLOCK_SIZE):
        block = rate[lo:lo + rngmod.BLOCK_SIZE]
        w = block.size / (lo + block.size)
        delta = np.mean(block) - mean
        mean += delta * w
        m2 = m2 + np.sum((block - np.mean(block)) ** 2) + delta * delta * (lo * w)
    return float(mean), math.sqrt(m2 / (n - 1)) / math.sqrt(n), n


@pytest.mark.parametrize("metric", ["outage", "se"])
def test_power_grid_reduction_equals_one_point_reductions(metric):
    """One reduction over a power grid gives each point's bits exactly: users
    1, 2 and min of a non-reciprocal channel with g1 != g2, the two-slot
    half rate, more points than one chunk holds, and a one-block collection,
    whose reference is np.mean and np.std on the whole row."""
    reduce = outage_from_gains if metric == "outage" else se_from_gains
    powers = [10.0 ** (p / 10.0) for p in range(-80, 41, 2)]  # the fig3-fig6 grids
    trials = 5000
    assert len(powers) * trials > 2 * mc._REDUCE_CHUNK  # at least three chunks of points
    nonrec = cfg_rec(L=4, reciprocity=Reciprocity.NON_RECIPROCAL, nu=0.5, omega=1e-3,
                     policy="u1")
    [g_nonrec] = collect_gains([nonrec], trials, seed=41)
    assert not np.array_equal(g_nonrec.g1, g_nonrec.g2)
    two, one = cfg_rec(L=4, scheme=Scheme.TWO), cfg_rec(L=4, nu=1.0, gamma_th=2.0)
    g_two, g_one = collect_gains([two, one], trials, seed=41)
    [g_block] = collect_gains([one], 300, seed=41)
    cases = [(nonrec, g_nonrec, user) for user in (1, 2, "min")]
    cases += [(two, g_two, 1), (one, g_one, 1), (one, g_block, 1)]
    for cfg, gains, user in cases:
        want = [_one_point(metric, cfg, p, gains, user) for p in powers]
        got = reduce(cfg, powers, gains, user)
        assert [(e.value, e.std_error, e.trials) for e in got] == want
        for p, w in zip(powers[::10], want[::10]):
            [e] = reduce(cfg, [p], gains, user)
            assert (e.value, e.std_error, e.trials) == w


@pytest.mark.parametrize("metric", ["outage", "se"])
def test_reduction_bits_do_not_depend_on_the_chunk(metric, monkeypatch):
    """The estimates are the same bits with _REDUCE_CHUNK at 2**17, 2**14 and 7:
    a fig5-shaped sweep (46 points x 1000 trials, one-slot and two-slot) in one
    chunk, in three, and one point per chunk; and 8e4 trials, one point per
    chunk at every size."""
    reduce = outage_from_gains if metric == "outage" else se_from_gains
    powers = [10.0 ** (p / 10.0) for p in range(-50, 41, 2)]  # fig5's grid
    assert len(powers) == 46
    one, two = cfg_rec(L=2), cfg_rec(L=2, scheme=Scheme.TWO)
    cases = list(zip((one, two), collect_gains([one, two], 1000, seed=5)))
    cases += zip((one, two), collect_gains([one, two], 80_000, seed=5))
    got = {}
    for chunk in (2**17, 2**14, 7):
        monkeypatch.setattr(mc, "_REDUCE_CHUNK", chunk)
        got[chunk] = [[(e.value, e.std_error, e.trials)
                       for e in reduce(c, powers, g)]
                      for c, g in cases]
    assert got[2**17] == got[2**14] == got[7]
    assert len({value for value, _, _ in got[7][0]}) > 10  # the sweep spans the waterfall


def test_estimates_identical_across_worker_counts(monkeypatch):
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)  # a real pool on any host
    cfg = cfg_rec(L=3)
    gains = [collect_gains([cfg], 9_000, seed=6, workers=w)[0] for w in (1, 3)]
    # each call joins its pool before it returns
    assert multiprocessing.active_children() == []
    vals = [outage_from_gains(cfg, [10.0], g)[0].value for g in gains]
    assert vals[0] == vals[1]
    ses = [se_from_gains(cfg, [10.0], g)[0].value for g in gains]
    assert ses[0] == ses[1]


def test_worker_pool_capped_at_block_count(monkeypatch):
    """A forking pool starts every worker up front, so ask for no more than
    min(workers, usable CPUs, blocks), and for none when that is one; the fake
    pool records the request and runs serially."""
    requested = []

    class SerialPool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(mc, "_start_pool", SerialPool)
    cfg = cfg_rec(L=2)
    trials = 2 * rngmod.BLOCK_SIZE + 10  # three blocks
    [serial] = collect_gains([cfg], trials, seed=3)

    def collect(workers, cpus):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        [gains] = collect_gains([cfg], trials, seed=3, workers=workers)
        assert np.array_equal(gains.g1, serial.g1)
        assert np.array_equal(gains.g2, serial.g2)

    for workers, cpus, size in ((2, 8, 2), (64, 8, 3), (64, 2, 2), (3, 64, 3)):
        requested.clear()
        collect(workers, cpus)
        assert requested == [size]
    requested.clear()
    for workers in (2, 64):
        collect(workers, 1)  # one usable CPU: serial, no pool
    assert requested == []


@pytest.mark.parametrize("workers", [0, -5])
def test_worker_count_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        collect_gains([cfg_rec(L=2)], 10, seed=0, workers=workers)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        find_crossover(cfg_rec(L=2), [0.0, 10.0], trials=10, seed=0, workers=workers)


JITTER_MODELS = (None, UniformPhaseError(math.pi / 8), UniformPhaseError(math.pi),
                 VonMisesPhaseError(0.0, 2.0))


def _one_config_gains(cfg, trials, seed):
    """Reference: each block's channel and jitter drawn for `cfg` alone."""
    parts = []
    for block, count in rngmod.iter_blocks(trials):
        ch = sample_channel_block(
            cfg, rngmod.block_generator(seed, rngmod.STREAM_CHANNEL, block), count)
        amp = np.abs(ch.h) * np.abs(ch.g)
        eps = sample_phase_errors(
            cfg.phase_error, rngmod.block_generator(seed, rngmod.STREAM_PHASE_ERROR, block),
            amp.shape)
        if eps is None:
            parts.append(np.sum(amp, axis=1) ** 2)
        else:
            parts.append(np.abs(np.sum(amp * np.exp(1j * eps), axis=1)) ** 2)
    return np.concatenate(parts)


@pytest.mark.parametrize("L", [1, 4, 16])
def test_grouped_gains_equal_one_config_gains(L):
    trials = 9_000  # two full blocks and a partial one
    cfgs = [cfg_rec(L=L, phase_error=m) for m in JITTER_MODELS]
    # scheme and nu do not enter a reciprocal gain, so these join the group
    cfgs += [dataclasses.replace(cfgs[1], scheme=Scheme.TWO),
             dataclasses.replace(cfgs[3], nu=1.0),
             dataclasses.replace(cfgs[0], scheme=Scheme.TWO, nu=0.5)]
    alone = [collect_gains([c], trials, seed=21)[0] for c in cfgs]
    for cfg, gains in zip(cfgs, alone):
        assert np.array_equal(gains.g1, _one_config_gains(cfg, trials, 21))
        assert np.array_equal(gains.g2, gains.g1)
    for workers in (1, 3):
        grouped = collect_gains(cfgs, trials, seed=21, workers=workers)
        assert len(grouped) == len(cfgs)
        for gains, ref in zip(grouped, alone):
            assert np.array_equal(gains.g1, ref.g1)
            assert np.array_equal(gains.g2, ref.g2)
    for extra, base in ((4, 1), (5, 3), (6, 0)):
        assert np.array_equal(alone[extra].g1, alone[base].g1)


def block_rows(cfg, variants, seed, block, count):
    """The rows of every variant of one group in one block, from the block task."""
    [rows], _ = mc._gain_block_task(([(cfg, tuple(variants), len(variants))], [], seed,
                                     block, count))
    return rows


@pytest.mark.parametrize("L", [1, 3, 64, 100])
def test_chunked_gain_block_equals_whole_block_draw(L):
    """Every gain kernel draws and reduces its block in row chunks; its rows
    are the bits of the whole-block expressions on one `sample_channel_block`
    call per block.  Chunk edges fall in varied places; L=1 is one chunk."""
    seed, block = 17, 3
    vm = VonMisesPhaseError(0.5, 3.0)
    widths = [UniformPhaseError(math.pi / k) for k in (8, 4, 2, 1)]  # fig6's
    models = (None, widths[0], vm, *widths[1:])

    def gen(stream):
        return rngmod.block_generator(seed, stream, block)

    rec = cfg_rec(L=L)
    non = cfg_rec(L=L, reciprocity=Reciprocity.NON_RECIPROCAL)
    for count in (rngmod.BLOCK_SIZE, 1000, 7):
        ch = sample_channel_block(rec, gen(rngmod.STREAM_CHANNEL), count)
        amp = np.abs(ch.h) * np.abs(ch.g)
        u = gen(rngmod.STREAM_PHASE_ERROR).uniform(-1.0, 1.0, size=amp.shape)
        jitter = (widths[0].delta * u,
                  sample_phase_errors(vm, gen(rngmod.STREAM_PHASE_ERROR), amp.shape),
                  *(w.delta * u for w in widths[1:]))
        expected = [np.sum(amp, axis=1) ** 2]
        # the kernel forms (amp cos eps, amp sin eps); on a platform whose cos
        # or sin differs from the complex exponential this fails
        expected += [np.abs(np.sum(amp * np.exp(1j * eps), axis=1)) ** 2 for eps in jitter]
        got = block_rows(rec, models, seed, block, count)
        assert (got == np.array(expected)).all()

        ch = sample_channel_block(non, gen(rngmod.STREAM_CHANNEL), count)
        z1, z2 = ch.h_r * ch.g_t, ch.g_r * ch.h_t
        cophased = [np.sum(np.abs(z1), axis=1) ** 2, np.sum(np.abs(z2), axis=1) ** 2]
        rot = np.exp(1j * gen(rngmod.STREAM_BASELINE).uniform(0.0, 2.0 * math.pi,
                                                             size=z1.shape))
        # u1's rotation is held in a variable, so every term is z2 * rot, the
        # product of that trial alone in a block of any size
        rot_u1 = np.exp(-1j * np.angle(z1))
        no_bound = np.full(count, np.nan)  # the t* row of fixed phases
        expected = {
            "u1": [cophased[0], np.abs(np.sum(z2 * rot_u1, axis=1)) ** 2, no_bound],
            "random": [np.abs(np.sum(z1 * rot, axis=1)) ** 2,
                       np.abs(np.sum(z2 * rot, axis=1)) ** 2, no_bound],
            None: cophased + [no_bound],  # the two-slot scheme's per-slot co-phasing
        }
        for variant, rows in expected.items():
            [got] = block_rows(non, (variant,), seed, block, count)
            assert np.array_equal(got, np.array(rows), equal_nan=True), variant
        # a variant's rows do not depend on which others share the block
        got = block_rows(non, tuple(expected), seed, block, count)
        assert np.array_equal(got, np.array(list(expected.values())), equal_nan=True)


def _same_result(got, ref):
    """Whether a collection's entry is the bits of a reference entry: equal
    gain rows (NaN equal to NaN), or equal tallies."""
    if isinstance(ref, mc.Tally):
        return (isinstance(got, mc.Tally) and got.trials == ref.trials
                and got.stats.keys() == ref.stats.keys()
                and all(np.array_equal(got.stats[k], v) for k, v in ref.stats.items()))
    same_bound = got.t_star is ref.t_star is None or np.array_equal(
        got.t_star, ref.t_star, equal_nan=True)
    return same_bound and np.array_equal(got.g1, ref.g1) and np.array_equal(got.g2, ref.g2)


def test_group_may_mix_draw_keys(monkeypatch):
    """A draw key is the reciprocity, L and sigma2, and one collection may mix
    them: L in {1, 2, 3, 16, 100}, so chunk edges fall mid-row, sigma2 in
    {1, 2}, both reciprocities, uniform and von Mises jitter, and the sdp,
    greedy, u1 and random policies.  Each config gets the gains or tallies of
    its own one-group collection, serially and in a pool, and a non-reciprocal
    group may mix every policy, both schemes and any nu, omega, noise and
    threshold, each config with the bits of its own one-config collection, t*
    included.
    Each block's channel generator draws the longest prefix a group reads,
    the block's trial count times the widest row, and no more."""
    with pytest.raises(ValueError):
        collect_gains([], 10, seed=0)
    nonrec = Reciprocity.NON_RECIPROCAL
    non = cfg_rec(L=2, reciprocity=nonrec, policy="greedy")
    policies = [dataclasses.replace(non, policy=policy, scheme=scheme, **other)
                for policy in ("sdp", "greedy", "u1", "random") for scheme in Scheme
                for other in ({}, dict(nu=1.0, omega=1e-2, noise_mw=1e-9, gamma_th=4.0))]
    models = (None, UniformPhaseError(math.pi / 4), VonMisesPhaseError(0.3, 2.0))
    cfgs = list(policies)
    for L in (1, 3, 16, 100):
        for sigma2 in (1.0, 2.0):
            cfgs += [cfg_rec(L=L, sigma2=sigma2, phase_error=m) for m in models]
            cfgs += [cfg_rec(L=L, sigma2=sigma2, reciprocity=nonrec, policy=p)
                     for p in ("u1", "random")]
            cfgs.append(cfg_rec(L=L, sigma2=sigma2, reciprocity=nonrec, scheme=Scheme.TWO))
    cfgs += [cfg_rec(L=L, reciprocity=nonrec, policy="greedy") for L in (1, 3)]
    trials = rngmod.BLOCK_SIZE + 10  # two blocks, so three workers start a pool
    powers = [10.0 ** (p / 10.0) for p in range(-40, 21, 10)]
    # every other config beside the policy group is tallied, the rest keep their gains
    requests = [(c, metric, user, powers) for c in cfgs[len(policies)::2]
                for metric in ("outage", "se") for user in (1, "min")]
    groups = {}
    for c in cfgs:
        groups.setdefault(mc.draw_key(c), []).append(c)
    assert len(groups) == 17
    # the policy group's configs each alone, every other group on its own
    alone = {cfg: collect_gains([cfg], trials, seed=0)[0] for cfg in policies}
    for group in groups.values():
        if group[0] not in alone:
            mine = [r for r in requests if r[0] in group]
            alone.update(zip(group, collect_gains(group, trials, seed=0, requests=mine)))
    assert np.isfinite(alone[policies[0]].t_star).all()  # sdp on the one-slot scheme
    # the two-slot scheme co-phases each slot whatever the policy
    assert np.array_equal(alone[policies[2]].g1, alone[policies[15]].g1)

    drawn = []  # normals drawn from each block's channel generator
    make = rngmod.block_generator

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, out):
            drawn[-1] += out.size
            return self.rng.standard_normal(out=out)

    def spy(seed, stream, block):
        if stream != rngmod.STREAM_CHANNEL:
            return make(seed, stream, block)
        drawn.append(0)
        return Counted(make(seed, stream, block))

    monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
    for workers in (1, 3):
        with monkeypatch.context() as m:
            if workers == 1:
                m.setattr(rngmod, "block_generator", spy)
            got = collect_gains(cfgs, trials, seed=0, workers=workers, requests=requests)
        for cfg, result in zip(cfgs, got):
            assert _same_result(result, alone[cfg]), (workers, cfg)
    assert drawn == [rngmod.BLOCK_SIZE * 8 * 100, 10 * 8 * 100]
    # a non-reciprocal config with a phase-error model is not built at all
    with pytest.raises(ValueError, match="phase-error model"):
        dataclasses.replace(non, nu=1.0, phase_error=UniformPhaseError(0.5))


def test_mixed_outage_collection_holds_no_per_trial_gains():
    """A fig4-like outage collection, five element counts tallied at 23
    powers, peaks below 4 MiB of traced allocations at 2e5 trials, where
    the five configs' gains alone would take 8 MB."""
    cfgs = [cfg_rec(L=L) for L in (2, 4, 16, 32, 64)]
    powers = [10.0 ** (p / 10.0) for p in range(-80, 31, 5)]
    requests = [(c, "outage", 1, powers) for c in cfgs]
    tracemalloc.start()
    try:
        got = collect_gains(cfgs, 200_000, seed=2, requests=requests)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(isinstance(t, mc.Tally) for t in got)
    assert peak < 4 * 2**20, peak


def test_solver_failure_in_a_mixed_collection(monkeypatch):
    """A failing group raises the error of its own collection beside others:
    the trial named is the failing group's."""
    def fail_at_three_elements(terms, method, rngs=None, **kwargs):
        if terms.shape[2] == 3 and terms.shape[1] == 10:
            raise optim.SolverFailureError("line search failed", 4)
        return np.zeros(terms.shape[1:]), np.full(terms.shape[1], np.nan)

    monkeypatch.setattr(mc, "maxmin_block", fail_at_three_elements)
    nonrec = Reciprocity.NON_RECIPROCAL
    failing = cfg_rec(L=3, reciprocity=nonrec, policy="sdp")
    others = [cfg_rec(L=2, reciprocity=nonrec, policy="sdp"), cfg_rec(L=16),
              cfg_rec(L=3, reciprocity=nonrec, policy="u1")]
    trials = rngmod.BLOCK_SIZE + 10
    messages = []
    for cfgs in ([failing], others + [failing]):
        with pytest.raises(optim.SolverFailureError) as err:
            collect_gains(cfgs, trials, seed=0)
        messages.append(str(err.value))
    assert messages == [f"trial {rngmod.BLOCK_SIZE + 4}: line search failed"] * 2
    collect_gains(others, trials, seed=0)  # the others alone do not fail


def test_u1_trial_gains_do_not_depend_on_the_block_size():
    """Trial i of a u1 collection is the same bits whatever the number of
    trials its block holds, here 1000 (8000 terms) and 4096 (32768 terms)."""
    cfg = cfg_rec(L=8, reciprocity=Reciprocity.NON_RECIPROCAL, policy="u1")
    [few] = collect_gains([cfg], 1000, seed=0)
    [full] = collect_gains([cfg], rngmod.BLOCK_SIZE, seed=0)
    assert np.array_equal(few.g1, full.g1[:1000])
    assert np.array_equal(few.g2, full.g2[:1000])


def test_gains_prefix_property():
    cfg = cfg_rec(L=2)
    [small] = collect_gains([cfg], 3_000, seed=7)
    [big] = collect_gains([cfg], 9_000, seed=7)
    assert np.array_equal(small.g1, big.g1[:3_000])


def test_common_random_numbers_monotone_in_power():
    cfg = cfg_rec(L=2)
    [gains] = collect_gains([cfg], 50_000, seed=8)
    values = [e.value for e in outage_from_gains(
        cfg, [10 ** (p / 10) for p in (0.0, 5.0, 10.0, 15.0)], gains)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_scheme_two_outage_never_worse_per_seed():
    import dataclasses
    cfg1 = cfg_rec(L=2, omega=1e-2)
    cfg2 = dataclasses.replace(cfg1, scheme=Scheme.TWO)
    gains1, gains2 = collect_gains([cfg1, cfg2], 30_000, seed=9)
    powers = [10 ** (p / 10) for p in (0.0, 10.0)]
    for o1, o2 in zip(outage_from_gains(cfg1, powers, gains1),
                      outage_from_gains(cfg2, powers, gains2)):
        assert o2.value <= o1.value


def test_outage_with_phase_error_matches_scrambled_law():
    cfg = cfg_rec(L=4, phase_error=UniformPhaseError(math.pi))
    [gains] = collect_gains([cfg], 400_000, seed=10)
    [est] = outage_from_gains(cfg, [0.1], gains)
    [rho] = sweep_rho(cfg, [0.1])
    ana = an.outage_phase_error_uniform_pi(4, cfg.gamma_th, rho)
    assert abs(est.value - ana) <= 3 * max(est.std_error, 1e-9)


def test_nonreciprocal_policies_ordering():
    cfg = cfg_rec(L=4, reciprocity=Reciprocity.NON_RECIPROCAL)
    gains_u1, gains_rand, gains_greedy = collect_gains(
        [dataclasses.replace(cfg, policy=p) for p in ("u1", "random", "greedy")], 300, seed=11)
    # co-phasing for user 1 dominates every other policy's user-1 gain
    assert np.all(gains_u1.g1 >= gains_greedy.g1 * (1 - 1e-9))
    assert np.all(gains_u1.g1 >= gains_rand.g1 * (1 - 1e-9))
    # max-min lifts the worst user above the random baseline on average
    assert (np.minimum(gains_greedy.g1, gains_greedy.g2).mean()
            > np.minimum(gains_rand.g1, gains_rand.g2).mean())


def test_policy_validation():
    # a config checks its own policy name, and 'optimal' on a reciprocal channel
    with pytest.raises(ValueError, match="support the 'optimal' policy only"):
        cfg_rec(L=2, policy="greedy")
    with pytest.raises(ValueError, match="policy 'bogus' is unknown"):
        cfg_rec(L=2, policy="bogus")
    assert cfg_rec(L=2).policy == "optimal"
    # a non-reciprocal config defaults to greedy, and is not built with 'optimal'
    non = cfg_rec(L=2, reciprocity=Reciprocity.NON_RECIPROCAL)
    assert non.policy == "greedy" and non == dataclasses.replace(non, policy="greedy")
    with pytest.raises(ValueError, match="max-min or baseline policy"):
        dataclasses.replace(non, policy="optimal")
    with pytest.raises(ValueError, match="phase-error model"):
        dataclasses.replace(non, policy="greedy", phase_error=UniformPhaseError(0.5))


def test_phase_error_applies_to_both_schemes():
    import dataclasses
    cfg1 = cfg_rec(L=4, phase_error=UniformPhaseError(math.pi / 2))
    cfg2 = dataclasses.replace(cfg1, scheme=Scheme.TWO)
    [g1] = collect_gains([cfg1], 2_000, seed=15)
    [g2] = collect_gains([cfg2], 2_000, seed=15)
    assert np.array_equal(g1.g1, g2.g1)  # same jittered gains, only rho differs


def test_crossover_matches_closed_form_boundary():
    cfg = cfg_rec(L=2, noise_mw=1e-10)
    got = find_crossover(cfg, np.arange(-10.0, 40.0, 2.0), trials=4_000, seed=12)
    ref = 10 * math.log10(an.scheme_crossover_power(2, cfg.omega, 0.0, cfg.noise_mw))
    assert abs(got - ref) < 2.0


def test_crossover_absent_raises():
    cfg = cfg_rec(L=2, nu=1.0, omega=1e-4, noise_mw=1e-10)
    # interference-limited: the one-slot scheme never overtakes at high power
    with pytest.raises(NoCrossoverError):
        find_crossover(cfg, np.arange(30.0, 60.0, 5.0), trials=2_000, seed=13)


def test_crossover_checks_the_grid_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("collect_gains called")

    monkeypatch.setattr(mc, "collect_gains", no_draws)
    with pytest.raises(ValueError, match="at least two grid points"):
        find_crossover(cfg_rec(L=2), [10.0], trials=100, seed=0)


@pytest.mark.parametrize("policy, L", [("greedy", 3), ("sdp", 2)])
def test_maxmin_gains_independent_of_block_and_workers(policy, L, monkeypatch):
    """A trial's gains are the same bits whether its block holds 1, 37 or 4096
    trials, for any worker count and sub-batch size, and equal the gains of
    its instance solved alone."""
    cfg = cfg_rec(L=L, reciprocity=Reciprocity.NON_RECIPROCAL, policy=policy)
    trials = rngmod.BLOCK_SIZE + 37
    [full] = collect_gains([cfg], trials, seed=31)
    [pooled] = collect_gains([cfg], trials, seed=31, workers=3)
    assert np.array_equal(pooled.g1, full.g1) and np.array_equal(pooled.g2, full.g2)
    assert np.array_equal(pooled.t_star, full.t_star, equal_nan=True)
    for few in (1, 37):
        [part] = collect_gains([cfg], few, seed=31)
        assert np.array_equal(part.g1, full.g1[:few])
        assert np.array_equal(part.g2, full.g2[:few])
        assert np.array_equal(part.t_star, full.t_star[:few], equal_nan=True)
    method = optim.OptimMethod(policy)
    ch = sample_channel_block(cfg, rngmod.block_generator(31, rngmod.STREAM_CHANNEL, 0),
                              rngmod.BLOCK_SIZE)
    rngs = [rngmod.trial_generator(31, rngmod.STREAM_OPTIM, i) for i in range(len(ch.h_t))]
    z1, z2 = ch.h_r * ch.g_t, ch.g_r * ch.h_t
    phases, bounds = optim.maxmin_block(np.stack([z1, z2]), method, rngs)
    assert np.array_equal(full.t_star[:len(bounds)], bounds, equal_nan=True)
    rot = np.exp(1j * phases)
    for i in range(len(rot)):
        # each gain as one trial's numpy-scalar expression gives it
        a1, a2 = np.abs(np.sum(z1[i] * rot[i])), np.abs(np.sum(z2[i] * rot[i]))
        assert full.g1[i] == a1 * a1
        assert full.g2[i] == a2 * a2
    for i in range(37):
        trial = NonReciprocalChannel(ch.h_t[i], ch.h_r[i], ch.g_t[i], ch.g_r[i])
        res = optim.solve_maxmin(trial, method,
                                 rng=rngmod.trial_generator(31, rngmod.STREAM_OPTIM, i))
        assert np.array_equal(res.phases, phases[i])
    monkeypatch.setattr(optim, "_STACK_ELEMENTS", 1)  # one row per sub-batch
    [single_rows] = collect_gains([cfg], 37, seed=31)
    assert np.array_equal(single_rows.g1, full.g1[:37])
    assert np.array_equal(single_rows.g2, full.g2[:37])


def test_solver_failure_names_the_trial(monkeypatch):
    def fail_in_second_block(terms, method, rngs=None, **kwargs):
        if terms.shape[1] == 10:
            raise optim.SolverFailureError("line search failed", 4)
        return np.zeros(terms.shape[1:]), np.full(terms.shape[1], np.nan)

    monkeypatch.setattr(mc, "maxmin_block", fail_in_second_block)
    cfg = cfg_rec(L=2, reciprocity=Reciprocity.NON_RECIPROCAL, policy="sdp")
    with pytest.raises(optim.SolverFailureError,
                       match=f"trial {rngmod.BLOCK_SIZE + 4}: line search failed"):
        collect_gains([cfg], rngmod.BLOCK_SIZE + 10, seed=0)


@pytest.mark.parametrize("reduce", [mc.outage_from_gains, mc.se_from_gains])
def test_reductions_reject_an_unknown_user(reduce):
    gains = mc.TrialGains(np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="user must be 1, 2, or 'min'"):
        reduce(cfg_rec(), [1.0], gains, user=3)


@given(st.data())
def test_outage_counts_equal_the_dense_compare(data):
    """The count kernel counts what rho[:, None] * g <= gamma_th counts, on gains
    heaped at each rho's boundary gamma_th / rho and its nextafter neighbours,
    zeros, gamma_th = 0, rho = 0 and rho from 1e-300 to 1e300."""
    value = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))
    gamma_th = data.draw(value)
    rho = np.array(data.draw(st.lists(value, min_size=1, max_size=6)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        edges = gamma_th / rho
    edges = edges[np.isfinite(edges)]
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                           np.nextafter(np.nextafter(edges, np.inf), np.inf), [0.0]])
    gain = st.one_of(st.sampled_from(sorted(set(near.tolist()))), st.floats(0.0, 1e300))
    g = np.array(data.draw(st.lists(gain, max_size=300)), dtype=float)
    with np.errstate(over="ignore"):
        want = np.count_nonzero(rho[:, None] * g <= gamma_th, axis=1)
        assert np.array_equal(mc.outage_counts(g, rho, gamma_th), want)


def test_first_block_keeps_its_statistic_bits():
    """The tally of one block is that block's mean and M2, bit for bit: the
    merge weight n_b / (n + n_b) is exactly 1 at n = 0, where the mean formed
    as (mean * n_b) / n_b would round for some of these means."""
    n_b = 3
    mean = np.linspace(0.1, 30.0, 200)
    assert np.any((mean * n_b) / n_b != mean)
    stat = np.array([mean, mean / 7.0])
    assert np.array_equal(mc._merge("se", None, 0, n_b, stat), stat)


def test_streamed_outage_counts_equal_stored_gain_estimates(monkeypatch):
    """A config collected as a tally gets the outage and SE estimates that
    `outage_from_gains` and `se_from_gains` give on a stored twin's gains from
    the same collection (the twin differs only in gamma_th, which enters no
    gain): every reciprocal phase-error model, every non-reciprocal variant,
    users 1, 2 and min, over two blocks, serial and in a pool."""
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
    trials = rngmod.BLOCK_SIZE + 10
    powers = [10.0 ** (p / 10.0) for p in range(-80, 21, 4)]
    nonrec = Reciprocity.NON_RECIPROCAL
    groups = (
        [cfg_rec(L=3, gamma_th=2.0, phase_error=m) for m in JITTER_MODELS],
        [cfg_rec(L=2, gamma_th=2.0, reciprocity=nonrec, policy=p)
         for p in ("u1", "random", "greedy", "sdp")]
        + [cfg_rec(L=2, gamma_th=2.0, reciprocity=nonrec, scheme=Scheme.TWO)])
    users = (1, 2, "min")
    reductions = {"outage": outage_from_gains, "se": se_from_gains}
    for workers in (1, 3):
        for group in groups:
            twins = [dataclasses.replace(c, gamma_th=1.0) for c in group]
            requests = [(c, metric, user, powers)
                        for c in group for metric in reductions for user in users]
            got = collect_gains(group + twins, trials, seed=13, workers=workers,
                                requests=requests)
            assert multiprocessing.active_children() == []
            for cfg, tally, gains in zip(group, got, got[len(group):]):
                assert isinstance(tally, mc.Tally)
                assert isinstance(gains, mc.TrialGains)
                for user in users:
                    for metric, reduce in reductions.items():
                        streamed = reduce(cfg, powers, tally, user)
                        assert streamed == reduce(cfg, powers, gains, user), (metric, user)
                    assert any(0.0 < e.value < 1.0
                               for e in outage_from_gains(cfg, powers, tally, user))
                for reduce in reductions.values():
                    with pytest.raises(KeyError):  # no tally at these powers
                        reduce(cfg, powers[:3], tally, 1)


@pytest.mark.parametrize("field, request_", [
    ("metric", lambda c, other: (c, "outgae", 1, [1.0])),
    ("config", lambda c, other: (other, "outage", 1, [1.0])),
    ("user", lambda c, other: (c, "se", 3, [1.0])),
])
def test_requests_checked_before_any_draw(field, request_, monkeypatch):
    """A misspelled metric, a config outside `cfgs` and an unknown user each
    raise ValueError naming the field, before any block is drawn."""
    drawn = []

    def no_draw(*args):
        drawn.append(args)
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(rngmod, "block_generator", no_draw)
    cfg = cfg_rec(L=2)
    with pytest.raises(ValueError, match=f"request {field} "):
        collect_gains([cfg], 10, seed=0, requests=[request_(cfg, cfg_rec(L=3))])
    assert drawn == []


def test_float32_trig_within_the_proxy_bound():
    """The counted outage proxy assumes numpy's float32 cos and sin lie within
    mc._E32 of the exact values on [-fl32(pi), fl32(pi)]; measured against
    float64 (within 2**-50) on a dense grid and the 2000 float32 neighbours
    of 0, +-pi/2 and +-pi on each side."""
    pi32 = np.float32(math.pi)
    near = [np.arange(2000, dtype=np.int32).view(np.float32)]
    for c in (math.pi / 2, math.pi):
        bits = np.array([c], dtype=np.float32).view(np.int32) + np.arange(-2000, 2001,
                                                                          dtype=np.int32)
        near.append(bits.view(np.float32))
    x = np.concatenate([np.linspace(0.0, pi32, 1_000_001, dtype=np.float32)] + near)
    x = np.concatenate([x, -x])
    x = x[np.abs(x) <= pi32]
    assert x.max() == pi32
    for f in (np.cos, np.sin):
        err = np.abs(f(x).astype(float) - f(x.astype(float)))
        assert err.max() <= mc._E32 - 2.0**-50, (f.__name__, err.max() / 2.0**-24)


def test_fig6_reads_one_uniform_phase_error_stream_per_block(tmp_path, monkeypatch):
    """Every reciprocal group reads the block's one U(-1, 1) phase-error
    stream, up to the longest prefix a group reads: at default flags fig6
    draws 1e5 trials x 16 elements for its outage panel and 1e3 x 32 for
    its SE panel, not a stream per L."""
    drawn = [0]
    make = rngmod.block_generator

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def uniform(self, low, high, size):
            drawn[0] += math.prod(np.atleast_1d(size))
            return self.rng.uniform(low, high, size)

    def spy(seed, stream, block):
        rng = make(seed, stream, block)
        return Counted(rng) if stream == rngmod.STREAM_PHASE_ERROR else rng

    monkeypatch.setattr(rngmod, "block_generator", spy)
    from ris2way import cli
    assert cli.main(["reproduce", "fig6", "--workers", "1", "--out",
                     str(tmp_path / "f6.csv")]) == 0
    assert drawn == [1_632_000]


def test_counted_jitter_outage_equals_exact_twin(monkeypatch):
    """Outage tallies of phase-jitter variants that only outage requests read,
    counted from the float32 proxy, are the bits of an exact twin's collected
    apart: fig6's four widths and a von Mises model, L in {1, 3, 16, 64},
    sigma2 in {1e-120, 1, 1e120}, serial and in a pool.  On the two-slot
    scheme with noise 1 rho is the power itself, so the powers 1/g (and
    their neighbours) of 200 rows' exact gains g put a cutoff on each, and
    so do thresholds on exact gains and on their nextafter neighbours: all
    those rows are undecided and take their exact gains."""
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
    trials, seed = rngmod.BLOCK_SIZE + 10, 5
    models = [UniformPhaseError(math.pi / k) for k in (8, 4, 2, 1)] + [VonMisesPhaseError(3.0, 0.5)]
    base = [cfg_rec(L=L, sigma2=s2, phase_error=m, scheme=Scheme.TWO, noise_mw=1.0)
            for L in (1, 3, 16, 64) for s2 in (1e-120, 1.0, 1e120) for m in models]
    # the first 200 trials' exact gains; trial i has these bits at any trial count
    exact = collect_gains(base, 200, seed)
    requests = []
    for cfg, gains in zip(base, exact):
        g = gains.g1
        one = np.nextafter(1.0 / g, [[0.0], [1.0], [np.inf]]).ravel()
        grid = np.geomspace(g.min() / 2, g.max() * 2, 30)
        requests.append((cfg, "outage", 1, list(1.0 / grid) + list(one)))
        for gamma_th in (g[0], np.nextafter(g[1], 0.0), np.nextafter(g[2], np.inf)):
            requests.append((dataclasses.replace(cfg, gamma_th=float(gamma_th)), "outage",
                             "min", [1.0, float(np.nextafter(1.0, 2.0))]))
    cfgs = list(dict.fromkeys(c for c, *_ in requests))
    # a kept twin of each model makes its variant's gains exact, and so its tallies
    twins = list(dict.fromkeys(dataclasses.replace(c, gamma_th=1.0, nu=0.5) for c in cfgs))
    want = collect_gains(cfgs + twins, trials, seed, requests=requests)
    counted, repaired = mc._counted_jitter_gain, []

    def spy(amp, size, eps, eps_max, cuts):
        exact_rows = mc._jitter_gain

        def count(a, e, terms):
            repaired.append(a.shape[0])
            return exact_rows(a, e, terms)

        monkeypatch.setattr(mc, "_jitter_gain", count)
        try:
            return counted(amp, size, eps, eps_max, cuts)
        finally:
            monkeypatch.setattr(mc, "_jitter_gain", exact_rows)

    for workers in (1, 3):
        with monkeypatch.context() as m:
            m.setattr(mc, "_counted_jitter_gain", spy)
            got = collect_gains(cfgs, trials, seed, workers=workers, requests=requests)
        for cfg, tally, ref in zip(cfgs, got, want):
            assert _same_result(tally, ref), (workers, cfg)
    # serially, the 200 rows of each of the 60 variants were repaired
    assert sum(repaired) >= 60 * 200, sum(repaired)


def test_fig6_outage_variants_read_by_se_stay_exact(tmp_path, monkeypatch):
    """With --trials-outage equal to --trials-se, fig6's L=4 widths carry SE
    requests too, so only the L=16 ones are counted from the proxy; the CSVs
    are the bits of a run with no proxy at all."""
    from ris2way import cli
    counted, widths = mc._counted_jitter_gain, set()

    def spy(amp, *args):
        widths.add(amp.shape[1])
        return counted(amp, *args)

    flags = ["reproduce", "fig6", "--trials-outage", "3000", "--trials-se", "3000"]
    monkeypatch.setattr(mc, "_counted_jitter_gain", spy)
    assert cli.main(flags + ["--out", str(tmp_path / "proxy.csv")]) == 0
    assert widths == {16}
    monkeypatch.setattr(mc, "_count_cutoffs", lambda groups, jobs: {})
    assert cli.main(flags + ["--out", str(tmp_path / "exact.csv")]) == 0
    for panel in ("outage", "se"):
        assert ((tmp_path / f"proxy_{panel}.csv").read_bytes()
                == (tmp_path / f"exact_{panel}.csv").read_bytes())
