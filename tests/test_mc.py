"""Monte Carlo estimators: accuracy against the closed forms, bit-for-bit
reproducibility across worker counts, and variance-reduced comparisons."""

import dataclasses
import math
import multiprocessing

import numpy as np
import pytest

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
    [gains] = collect_gains([cfg], "optimal", 200_000, seed=1)
    [est] = outage_from_gains(cfg, [1.0], gains)
    [rho] = sweep_rho(cfg, [1.0])
    exact = float(an.outage_exact_L1(cfg.gamma_th, rho))
    assert abs(est.value - exact) <= 3 * est.std_error
    assert est.trials == 200_000
    assert est.std_error == pytest.approx(
        math.sqrt(est.value * (1 - est.value) / est.trials), rel=1e-12)


def test_outage_high_power_is_zero():
    cfg = cfg_rec(L=4)
    [gains] = collect_gains([cfg], "optimal", 20_000, seed=2)
    assert outage_from_gains(cfg, [1e9], gains)[0].value == 0.0


def test_se_zero_power():
    cfg = cfg_rec(L=2)
    [gains] = collect_gains([cfg], "optimal", 5_000, seed=3)
    assert se_from_gains(cfg, [0.0], gains)[0].value == 0.0


def test_se_matches_quadrature_single_element():
    cfg = cfg_rec(L=1)
    [gains] = collect_gains([cfg], "optimal", 100_000, seed=4)
    [est] = se_from_gains(cfg, [1.0], gains)  # 0 dBm
    [rho] = sweep_rho(cfg, [1.0])
    assert est.value == pytest.approx(an.se_exact_L1(rho), rel=0.01)


def test_se_scheme_two_half_rate():
    cfg1 = cfg_rec(L=2, omega=0.0)
    cfg2 = cfg_rec(L=2, omega=0.0, scheme=Scheme.TWO)
    gains1, gains2 = collect_gains([cfg1, cfg2], "optimal", 4_000, seed=5)
    [a] = se_from_gains(cfg1, [1.0], gains1)
    [b] = se_from_gains(cfg2, [1.0], gains2)
    assert b.value == pytest.approx(a.value / 2.0, rel=1e-12)


def _one_point(metric, cfg, p_mw, gains, user):
    """Reference: one power point's reduction on 1-D arrays, written out."""
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
    return float(np.mean(rate)), float(np.std(rate, ddof=1)) / math.sqrt(n), n


@pytest.mark.parametrize("metric", ["outage", "se"])
def test_power_grid_reduction_equals_one_point_reductions(metric):
    """One reduction over a power grid gives each point's bits exactly: users
    1, 2 and min of a non-reciprocal channel with g1 != g2, the two-slot
    half rate, and more points than one chunk holds."""
    reduce = outage_from_gains if metric == "outage" else se_from_gains
    powers = [10.0 ** (p / 10.0) for p in range(-80, 41, 2)]  # the fig3-fig6 grids
    trials = 5000
    assert len(powers) * trials > 2 * mc._REDUCE_CHUNK  # at least three chunks of points
    nonrec = cfg_rec(L=4, reciprocity=Reciprocity.NON_RECIPROCAL, nu=0.5, omega=1e-3)
    [g_nonrec] = collect_gains([nonrec], "u1", trials, seed=41)
    assert not np.array_equal(g_nonrec.g1, g_nonrec.g2)
    two, one = cfg_rec(L=4, scheme=Scheme.TWO), cfg_rec(L=4, nu=1.0, gamma_th=2.0)
    g_two, g_one = collect_gains([two, one], "optimal", trials, seed=41)
    cases = [(nonrec, g_nonrec, user) for user in (1, 2, "min")]
    cases += [(two, g_two, 1), (one, g_one, 1)]
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
    cases = list(zip((one, two), collect_gains([one, two], "optimal", 1000, seed=5)))
    cases += zip((one, two), collect_gains([one, two], "optimal", 80_000, seed=5))
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
    gains = [collect_gains([cfg], "optimal", 9_000, seed=6, workers=w)[0] for w in (1, 3)]
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
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", SerialPool)
    cfg = cfg_rec(L=2)
    trials = 2 * rngmod.BLOCK_SIZE + 10  # three blocks
    [serial] = collect_gains([cfg], "optimal", trials, seed=3)

    def collect(workers, cpus):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        [gains] = collect_gains([cfg], "optimal", trials, seed=3, workers=workers)
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
    alone = [collect_gains([c], "optimal", trials, seed=21)[0] for c in cfgs]
    for cfg, gains in zip(cfgs, alone):
        assert np.array_equal(gains.g1, _one_config_gains(cfg, trials, 21))
        assert np.array_equal(gains.g2, gains.g1)
    for workers in (1, 3):
        grouped = collect_gains(cfgs, "optimal", trials, seed=21, workers=workers)
        assert len(grouped) == len(cfgs)
        for gains, ref in zip(grouped, alone):
            assert np.array_equal(gains.g1, ref.g1)
            assert np.array_equal(gains.g2, ref.g2)
    for extra, base in ((4, 1), (5, 3), (6, 0)):
        assert np.array_equal(alone[extra].g1, alone[base].g1)


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
        got = mc._reciprocal_gain_block(rec, models, seed, block, count)
        assert (got == np.array(expected)).all()

        ch = sample_channel_block(non, gen(rngmod.STREAM_CHANNEL), count)
        z1, z2 = ch.h_r * ch.g_t, ch.g_r * ch.h_t
        cophased = [np.sum(np.abs(z1), axis=1) ** 2, np.sum(np.abs(z2), axis=1) ** 2]
        rot = np.exp(1j * gen(rngmod.STREAM_BASELINE).uniform(0.0, 2.0 * math.pi,
                                                             size=z1.shape))
        # u1's rotation is held in a variable, so every term is z2 * rot, the
        # product of that trial alone in a block of any size
        rot_u1 = np.exp(-1j * np.angle(z1))
        no_bound = np.full(count, np.nan)  # the t* row of a fixed-phase policy
        expected = {
            "u1": [cophased[0], np.abs(np.sum(z2 * rot_u1, axis=1)) ** 2, no_bound],
            "random": [np.abs(np.sum(z1 * rot, axis=1)) ** 2,
                       np.abs(np.sum(z2 * rot, axis=1)) ** 2, no_bound],
        }
        for policy, rows in expected.items():
            got = mc._nonreciprocal_gain_block(non, policy, seed, block, count, {})
            assert np.array_equal(got, np.array(rows), equal_nan=True), policy
        two = dataclasses.replace(non, scheme=Scheme.TWO)
        got = mc._nonreciprocal_gain_block(two, "random", seed, block, count, {})
        assert np.array_equal(got, np.array(cophased + [no_bound]), equal_nan=True)


def test_group_must_share_a_draw_key():
    with pytest.raises(ValueError, match="draw key"):
        collect_gains([cfg_rec(L=2), cfg_rec(L=3)], "optimal", 10, seed=0)
    with pytest.raises(ValueError, match="draw key"):
        collect_gains([cfg_rec(L=2), cfg_rec(L=2, sigma2=2.0)], "optimal", 10, seed=0)
    with pytest.raises(ValueError):
        collect_gains([], "optimal", 10, seed=0)
    non = cfg_rec(L=2, reciprocity=Reciprocity.NON_RECIPROCAL)
    # a non-reciprocal gain reads L, sigma2 and the scheme, and no other field
    for other in (dict(L=3), dict(sigma2=2.0), dict(scheme=Scheme.TWO)):
        with pytest.raises(ValueError, match="draw key"):
            collect_gains([non, dataclasses.replace(non, **other)], "greedy", 10, seed=0)
    group = [non, dataclasses.replace(non, nu=1.0),
             dataclasses.replace(non, omega=1e-2, noise_mw=1e-9, gamma_th=4.0)]
    for policy in ("greedy", "u1"):
        for cfg, gains in zip(group, collect_gains(group, policy, 10, seed=0)):
            [alone] = collect_gains([cfg], policy, 10, seed=0)
            assert np.array_equal(gains.g1, alone.g1) and np.array_equal(gains.g2, alone.g2)
    # the phase-error check covers every config of the group, not only the first
    jittered = dataclasses.replace(non, nu=1.0, phase_error=UniformPhaseError(0.5))
    with pytest.raises(ValueError, match="phase-error model"):
        collect_gains([non, jittered], "greedy", 10, seed=0)


def test_u1_trial_gains_do_not_depend_on_the_block_size():
    """Trial i of a u1 collection is the same bits whatever the number of
    trials its block holds, here 1000 (8000 terms) and 4096 (32768 terms)."""
    cfg = cfg_rec(L=8, reciprocity=Reciprocity.NON_RECIPROCAL)
    [few] = collect_gains([cfg], "u1", 1000, seed=0)
    [full] = collect_gains([cfg], "u1", rngmod.BLOCK_SIZE, seed=0)
    assert np.array_equal(few.g1, full.g1[:1000])
    assert np.array_equal(few.g2, full.g2[:1000])


def test_gains_prefix_property():
    cfg = cfg_rec(L=2)
    [small] = collect_gains([cfg], "optimal", 3_000, seed=7)
    [big] = collect_gains([cfg], "optimal", 9_000, seed=7)
    assert np.array_equal(small.g1, big.g1[:3_000])


def test_common_random_numbers_monotone_in_power():
    cfg = cfg_rec(L=2)
    [gains] = collect_gains([cfg], "optimal", 50_000, seed=8)
    values = [e.value for e in outage_from_gains(
        cfg, [10 ** (p / 10) for p in (0.0, 5.0, 10.0, 15.0)], gains)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_scheme_two_outage_never_worse_per_seed():
    import dataclasses
    cfg1 = cfg_rec(L=2, omega=1e-2)
    cfg2 = dataclasses.replace(cfg1, scheme=Scheme.TWO)
    gains1, gains2 = collect_gains([cfg1, cfg2], "optimal", 30_000, seed=9)
    powers = [10 ** (p / 10) for p in (0.0, 10.0)]
    for o1, o2 in zip(outage_from_gains(cfg1, powers, gains1),
                      outage_from_gains(cfg2, powers, gains2)):
        assert o2.value <= o1.value


def test_outage_with_phase_error_matches_scrambled_law():
    cfg = cfg_rec(L=4, phase_error=UniformPhaseError(math.pi))
    [gains] = collect_gains([cfg], "optimal", 400_000, seed=10)
    [est] = outage_from_gains(cfg, [0.1], gains)
    [rho] = sweep_rho(cfg, [0.1])
    ana = an.outage_phase_error_uniform_pi(4, cfg.gamma_th, rho)
    assert abs(est.value - ana) <= 3 * max(est.std_error, 1e-9)


def test_nonreciprocal_policies_ordering():
    cfg = cfg_rec(L=4, reciprocity=Reciprocity.NON_RECIPROCAL)
    [gains_u1] = collect_gains([cfg], "u1", 300, seed=11)
    [gains_rand] = collect_gains([cfg], "random", 300, seed=11)
    [gains_greedy] = collect_gains([cfg], "greedy", 300, seed=11)
    # co-phasing for user 1 dominates every other policy's user-1 gain
    assert np.all(gains_u1.g1 >= gains_greedy.g1 * (1 - 1e-9))
    assert np.all(gains_u1.g1 >= gains_rand.g1 * (1 - 1e-9))
    # max-min lifts the worst user above the random baseline on average
    assert (np.minimum(gains_greedy.g1, gains_greedy.g2).mean()
            > np.minimum(gains_rand.g1, gains_rand.g2).mean())


def test_policy_validation():
    with pytest.raises(ValueError):
        collect_gains([cfg_rec(L=2)], "greedy", 10, seed=0)
    with pytest.raises(ValueError):
        collect_gains([cfg_rec(L=2, reciprocity=Reciprocity.NON_RECIPROCAL)],
                      "optimal", 10, seed=0)
    with pytest.raises(ValueError):
        collect_gains([cfg_rec(L=2)], "bogus", 10, seed=0)
    with pytest.raises(ValueError):
        collect_gains([cfg_rec(L=2, reciprocity=Reciprocity.NON_RECIPROCAL,
                               phase_error=UniformPhaseError(0.5))],
                      "greedy", 10, seed=0)


def test_phase_error_applies_to_both_schemes():
    import dataclasses
    cfg1 = cfg_rec(L=4, phase_error=UniformPhaseError(math.pi / 2))
    cfg2 = dataclasses.replace(cfg1, scheme=Scheme.TWO)
    [g1] = collect_gains([cfg1], "optimal", 2_000, seed=15)
    [g2] = collect_gains([cfg2], "optimal", 2_000, seed=15)
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
    cfg = cfg_rec(L=L, reciprocity=Reciprocity.NON_RECIPROCAL)
    trials = rngmod.BLOCK_SIZE + 37
    [full] = collect_gains([cfg], policy, trials, seed=31)
    [pooled] = collect_gains([cfg], policy, trials, seed=31, workers=3)
    assert np.array_equal(pooled.g1, full.g1) and np.array_equal(pooled.g2, full.g2)
    assert np.array_equal(pooled.t_star, full.t_star, equal_nan=True)
    for few in (1, 37):
        [part] = collect_gains([cfg], policy, few, seed=31)
        assert np.array_equal(part.g1, full.g1[:few])
        assert np.array_equal(part.g2, full.g2[:few])
        assert np.array_equal(part.t_star, full.t_star[:few], equal_nan=True)
    method = optim.OptimMethod(policy)
    ch = sample_channel_block(cfg, rngmod.block_generator(31, rngmod.STREAM_CHANNEL, 0),
                              rngmod.BLOCK_SIZE)
    rngs = [rngmod.trial_generator(31, rngmod.STREAM_OPTIM, i) for i in range(len(ch.h_t))]
    z1, z2 = ch.h_r * ch.g_t, ch.g_r * ch.h_t
    phases, bounds = optim.maxmin_block(z1, z2, 1.0, method, rngs)
    assert np.array_equal(full.t_star[:len(bounds)], bounds, equal_nan=True)
    rot = np.exp(1j * phases)
    for i in range(len(rot)):
        # each gain as one trial's numpy-scalar expression gives it
        a1, a2 = np.abs(np.sum(z1[i] * rot[i])), np.abs(np.sum(z2[i] * rot[i]))
        assert full.g1[i] == a1 * a1
        assert full.g2[i] == a2 * a2
    for i in range(37):
        trial = NonReciprocalChannel(ch.h_t[i], ch.h_r[i], ch.g_t[i], ch.g_r[i])
        res = optim.solve_maxmin(trial, 1.0, method,
                                 rng=rngmod.trial_generator(31, rngmod.STREAM_OPTIM, i))
        assert np.array_equal(res.phases, phases[i])
    monkeypatch.setattr(optim, "_STACK_ELEMENTS", 1)  # one row per sub-batch
    [single_rows] = collect_gains([cfg], policy, 37, seed=31)
    assert np.array_equal(single_rows.g1, full.g1[:37])
    assert np.array_equal(single_rows.g2, full.g2[:37])


def test_solver_failure_names_the_trial(monkeypatch):
    def fail_in_second_block(z1, z2, rho, method, rngs=None, **kwargs):
        if len(z1) == 10:
            raise optim.SolverFailureError("line search failed", 4)
        return np.zeros(z1.shape), np.full(len(z1), np.nan)

    monkeypatch.setattr(mc, "maxmin_block", fail_in_second_block)
    cfg = cfg_rec(L=2, reciprocity=Reciprocity.NON_RECIPROCAL)
    with pytest.raises(optim.SolverFailureError,
                       match=f"trial {rngmod.BLOCK_SIZE + 4}: line search failed"):
        collect_gains([cfg], "sdp", rngmod.BLOCK_SIZE + 10, seed=0)
