"""Channel statistics, SINR kernels, and reproducibility of the trial streams."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from ris2way import rng as rngmod
from ris2way.channel import (NonReciprocalChannel, ReciprocalChannel, Reciprocity, Scheme,
                             SystemConfig, UniformPhaseError, VonMisesPhaseError,
                             coherent_gain, sample_channel_block, sample_channels,
                             sample_phase_errors, sinr_nonreciprocal,
                             sinr_reciprocal, sweep_rho, wrap_phases)
from ris2way.mc import collect_gains
from ris2way.optim import optimal_phase_reciprocal


def cfg_rec(**kw):
    base = dict(L=2, sigma2=1.0, noise_mw=1e-7, omega=1e-4, nu=0.0)
    base.update(kw)
    return SystemConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(L=0)
    with pytest.raises(ValueError):
        SystemConfig(L=1, sigma2=0.0)
    with pytest.raises(ValueError):
        SystemConfig(L=1, nu=1.5)
    with pytest.raises(ValueError):
        UniformPhaseError(0.0)
    with pytest.raises(ValueError):
        UniformPhaseError(3.5)
    with pytest.raises(ValueError):
        VonMisesPhaseError(0.0, 0.0)


@pytest.mark.parametrize("field, value, reason", [
    ("sigma2", math.nan, "sigma2 must be finite and > 0, got nan"),
    ("sigma2", math.inf, "sigma2 must be finite and > 0, got inf"),
    ("noise_mw", math.nan, "noise_mw must be finite and > 0, got nan"),
    ("noise_mw", 0.0, "noise_mw must be finite and > 0, got 0.0"),
    ("noise_mw", math.inf, "noise_mw must be finite and > 0, got inf"),
    ("omega", math.nan, "omega must be >= 0, got nan"),
    ("omega", math.inf, "omega must be finite, got inf"),
    ("gamma_th", math.nan, "gamma_th must be >= 0, got nan"),
    ("nu", math.nan, r"nu must lie in \[0, 1\], got nan"),
])
def test_config_rejects_non_finite_parameters(field, value, reason):
    # each check used to be a comparison that NaN fails silently; with zero or
    # infinite noise, or infinite omega, rho has no finite positive value
    with pytest.raises(ValueError, match=reason):
        cfg_rec(**{field: value})


@pytest.mark.parametrize("mu, kappa, reason", [
    (math.nan, 1.0, "mu must be finite, got nan"),
    (math.inf, 1.0, "mu must be finite, got inf"),
    (-math.inf, 1.0, "mu must be finite, got -inf"),
    (0.0, math.nan, "kappa must be > 0, got nan"),
])
def test_von_mises_rejects_non_finite_parameters(mu, kappa, reason):
    # a NaN location or concentration used to draw NaN phases without an error
    with pytest.raises(ValueError, match=reason):
        VonMisesPhaseError(mu, kappa)


def test_sinr_budget_scheme_one_values():
    # both users at 1 mW share this one rho
    [rho] = sweep_rho(cfg_rec(omega=1e-4, nu=0.0, noise_mw=1e-7), [1.0])
    assert rho == pytest.approx(1.0 / 1.001e-4, rel=1e-12)


def test_sinr_budget_no_interference_matches_two_slot():
    cfg1 = cfg_rec(omega=0.0, scheme=Scheme.ONE)
    cfg2 = cfg_rec(omega=0.0, scheme=Scheme.TWO)
    assert sweep_rho(cfg1, [1.0]) == sweep_rho(cfg2, [1.0])


def test_sinr_budget_interference_limited():
    [rho] = sweep_rho(cfg_rec(omega=1e-4, nu=1.0, noise_mw=1e-30), [100.0])
    assert rho == pytest.approx(1e4, rel=1e-10)


@given(scheme=st.sampled_from(Scheme), nu=st.floats(0.0, 1.0),
       omega=st.floats(0.0, 1e3), noise=st.floats(1e-15, 1e3),
       powers=st.lists(st.floats(0.0, 1e12), min_size=1, max_size=8))
def test_sweep_rho_is_the_budget_of_each_power(scheme, nu, omega, noise, powers):
    """Each entry is the bits of the SINR coefficient of that power written
    out, whatever the other powers of the sweep."""
    cfg = cfg_rec(scheme=scheme, nu=nu, omega=omega, noise_mw=noise)
    rho = sweep_rho(cfg, powers)
    assert rho.shape == (len(powers),)
    for p, r in zip(powers, rho):
        written_out = p / noise if scheme is Scheme.TWO else p / (omega * p**nu + noise)
        assert r == written_out == sweep_rho(cfg, [p])[0]


@pytest.mark.parametrize("power", [-1.0, math.nan])
def test_sweep_rho_rejects_negative_powers(power):
    with pytest.raises(ValueError, match="transmit powers must be >= 0"):
        sweep_rho(cfg_rec(), [1.0, power])


@pytest.mark.parametrize("noise, power", [(1e-320, 1.0), (1e-7, math.inf)])
def test_sweep_rho_rejects_a_non_finite_rho(noise, power):
    with pytest.raises(ValueError, match="noise_mw .* must be finite"):
        sweep_rho(cfg_rec(omega=0.0, noise_mw=noise), [1.0, power])


def test_amplitude_second_moment():
    cfg = cfg_rec(L=4, sigma2=2.5)
    ch = sample_channel_block(cfg, np.random.default_rng(0), 250_000)
    m2 = np.mean(np.abs(ch.h) ** 2)
    assert m2 == pytest.approx(2.5, rel=0.01)


def test_amplitude_mean_is_rayleigh_mean():
    cfg = cfg_rec(L=1, sigma2=1.0)
    ch = sample_channel_block(cfg, np.random.default_rng(1), 1_000_000)
    # E[alpha] = sigma * sqrt(pi) / 2 for E[alpha^2] = sigma^2
    assert np.mean(np.abs(ch.h)) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=0.005)


def test_phases_uniform_kolmogorov_smirnov():
    cfg = cfg_rec(L=1)
    ch = sample_channel_block(cfg, np.random.default_rng(2), 100_000)
    phases = np.mod(-np.angle(ch.h[:, 0]), 2.0 * math.pi)
    d = stats.kstest(phases / (2.0 * math.pi), "uniform").statistic
    assert d < 1.63 / math.sqrt(phases.size)  # 1% critical value


def test_sinr_reciprocal_formula_paths():
    rng = np.random.default_rng(3)
    cfg = cfg_rec(L=3)
    ch = sample_channels(cfg, rng)
    phases = rng.uniform(0.0, 2.0 * math.pi, 3)
    g1, g2 = sinr_reciprocal(ch, phases, 2.0), sinr_reciprocal(ch, phases, 0.5)
    # independent direct evaluation from amplitude/phase split
    amp = np.abs(ch.h) * np.abs(ch.g)
    chan_phase = np.mod(-np.angle(ch.h), 2 * math.pi), np.mod(-np.angle(ch.g), 2 * math.pi)
    s = np.sum(amp * np.exp(1j * (phases - chan_phase[0] - chan_phase[1])))
    assert g1 == pytest.approx(2.0 * abs(s) ** 2, rel=1e-12)
    assert g2 == pytest.approx(0.5 * abs(s) ** 2, rel=1e-12)


def test_sinr_reciprocal_optimal_phase_value():
    rng = np.random.default_rng(4)
    cfg = cfg_rec(L=5)
    ch = sample_channels(cfg, rng)
    phases = optimal_phase_reciprocal(ch)
    g1 = sinr_reciprocal(ch, phases, 1.0)
    assert g1 == pytest.approx(np.sum(np.abs(ch.h) * np.abs(ch.g)) ** 2, rel=1e-12)


def test_sinr_single_element_phase_free():
    rng = np.random.default_rng(5)
    cfg = cfg_rec(L=1)
    ch = sample_channels(cfg, rng)
    vals = {round(sinr_reciprocal(ch, np.array([p]), 3.0), 9)
            for p in np.linspace(0, 2 * math.pi, 17)}
    expected = 3.0 * (np.abs(ch.h[0]) * np.abs(ch.g[0])) ** 2
    assert vals == {round(float(expected), 9)}


@given(st.floats(min_value=-10.0, max_value=10.0), st.integers(min_value=0, max_value=2**31))
def test_common_phase_shift_invariance(shift, seed):
    cfg = cfg_rec(L=4)
    ch = sample_channels(cfg, np.random.default_rng(seed))
    phases = np.random.default_rng(seed + 1).uniform(0, 2 * math.pi, 4)
    g_base = sinr_reciprocal(ch, phases, 1.0)
    g_shift = sinr_reciprocal(ch, phases + shift, 1.0)
    assert g_shift == pytest.approx(g_base, rel=1e-9)


def test_optimal_phase_beats_grid_two_elements():
    cfg = cfg_rec(L=2)
    ch = sample_channels(cfg, np.random.default_rng(6))
    best = sinr_reciprocal(ch, optimal_phase_reciprocal(ch), 1.0)
    grid = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    z = ch.h * ch.g
    vals = np.abs(z[0] * np.exp(1j * grid)[:, None] + z[1] * np.exp(1j * grid)[None, :]) ** 2
    assert best >= np.max(vals) - 1e-12 * best


def test_nonreciprocal_single_element_phase_free():
    cfg = cfg_rec(L=1, reciprocity=Reciprocity.NON_RECIPROCAL)
    ch = sample_channels(cfg, np.random.default_rng(7))
    g1a, g2a = sinr_nonreciprocal(ch, np.array([0.3]), 2.0)
    g1b, g2b = sinr_nonreciprocal(ch, np.array([5.1]), 2.0)
    assert g1a == pytest.approx(g1b, rel=1e-12)
    assert g2a == pytest.approx(g2b, rel=1e-12)
    assert g1a == pytest.approx(2.0 * (np.abs(ch.h_r[0]) * np.abs(ch.g_t[0])) ** 2, rel=1e-12)


def test_nonreciprocal_degenerate_matches_reciprocal_exactly():
    cfg = cfg_rec(L=3)
    rng = np.random.default_rng(8)
    rec = sample_channels(cfg, rng)
    non = NonReciprocalChannel(h_t=rec.h, h_r=rec.h, g_t=rec.g, g_r=rec.g)
    phases = rng.uniform(0, 2 * math.pi, 3)
    assert sinr_nonreciprocal(non, phases, 1.3) == (sinr_reciprocal(rec, phases, 1.3),) * 2


def test_scheme_two_snr_always_beats_scheme_one():
    for seed in range(5):
        cfg1 = cfg_rec(L=4, omega=1e-4, scheme=Scheme.ONE)
        cfg2 = cfg_rec(L=4, omega=1e-4, scheme=Scheme.TWO)
        ch = sample_channels(cfg1, np.random.default_rng(seed))
        phases = optimal_phase_reciprocal(ch)
        [rho1], [rho2] = sweep_rho(cfg1, [1.0]), sweep_rho(cfg2, [1.0])
        g1 = sinr_reciprocal(ch, phases, rho1)
        g2 = sinr_reciprocal(ch, phases, rho2)
        assert g2 > g1


def test_phase_error_single_element_invariant():
    # one element: the jitter rotates the only term, so every gain is unchanged
    cfg = cfg_rec(L=1)
    [free] = collect_gains([cfg], 5000, seed=10)
    for model in (UniformPhaseError(2.2), VonMisesPhaseError(0.3, 1.0)):
        [jittered] = collect_gains([cfg_rec(L=1, phase_error=model)], 5000, seed=10)
        np.testing.assert_allclose(jittered.g1, free.g1, rtol=1e-12)
        np.testing.assert_allclose(jittered.g2, free.g2, rtol=1e-12)


def test_phase_error_sampling_shapes_and_ranges():
    rng = np.random.default_rng(11)
    assert sample_phase_errors(None, rng, (5, 2)) is None
    u = sample_phase_errors(UniformPhaseError(0.5), rng, (1000, 3))
    assert u.shape == (1000, 3)
    assert np.all(np.abs(u) <= 0.5)
    v = sample_phase_errors(VonMisesPhaseError(0.0, 4.0), rng, (2000,))
    assert np.all(np.abs(v) <= math.pi)
    # concentration: circular mean direction near mu=0
    assert abs(np.angle(np.mean(np.exp(1j * v)))) < 0.1


def test_von_mises_matches_density_histogram():
    rng = np.random.default_rng(12)
    kappa = 2.5
    v = sample_phase_errors(VonMisesPhaseError(0.0, kappa), rng, (200_000,))
    hist, edges = np.histogram(v, bins=40, range=(-math.pi, math.pi), density=True)
    mids = (edges[:-1] + edges[1:]) / 2
    from scipy.special import iv
    density = np.exp(kappa * np.cos(mids)) / (2 * math.pi * iv(0, kappa))
    assert np.max(np.abs(hist - density)) < 0.02


def test_wrap_phases():
    out = wrap_phases(np.array([-0.1, 2 * math.pi + 0.2, 7 * math.pi]))
    assert np.all((0 <= out) & (out < 2 * math.pi))


def test_block_stream_partition_independence():
    # realization of trial i depends only on (seed, i): prefixes agree across
    # different total trial counts spanning multiple blocks
    cfg = cfg_rec(L=3)
    n_small, n_big = 3000, rngmod.BLOCK_SIZE + 500
    g_small = sample_channel_block(cfg, rngmod.block_generator(7, 0, 0), n_small)
    g_big = sample_channel_block(cfg, rngmod.block_generator(7, 0, 0), rngmod.BLOCK_SIZE)
    assert np.array_equal(g_small.h, g_big.h[:n_small])
    # distinct blocks and streams do not collide
    other_block = sample_channel_block(cfg, rngmod.block_generator(7, 0, 1), 10)
    other_stream = sample_channel_block(cfg, rngmod.block_generator(7, 1, 0), 10)
    assert not np.array_equal(g_big.h[:10], other_block.h)
    assert not np.array_equal(g_big.h[:10], other_stream.h)


@pytest.mark.parametrize("reciprocity", list(Reciprocity))
def test_chunked_block_draw_equals_one_call(reciprocity):
    # rows come from one sequential stream: consecutive calls on one
    # generator continue it, so a block drawn in row chunks is the same rows
    cfg = cfg_rec(L=5, reciprocity=reciprocity)
    whole = sample_channel_block(cfg, rngmod.block_generator(11, 0, 2), 1000)
    rng = rngmod.block_generator(11, 0, 2)
    parts = [sample_channel_block(cfg, rng, n) for n in (1, 300, 7, 692)]
    for field in dataclasses.fields(whole):
        chunked = np.concatenate([getattr(p, field.name) for p in parts])
        assert np.array_equal(chunked, getattr(whole, field.name))


def test_dimension_mismatch_raises():
    cfg = cfg_rec(L=3)
    ch = sample_channels(cfg, np.random.default_rng(13))
    with pytest.raises(ValueError):
        sinr_reciprocal(ch, np.zeros(2), 1.0)


@pytest.mark.parametrize("n, L", [(20000, 8), (3000, 64)])
def test_coherent_gain_rows_equal_one_row_calls(n, L):
    # above 256 KB numpy reuses an exp temporary by reversing the complex
    # product's operands: the kernel avoids that, and squares a row and a
    # stack alike with np.square, so a stack's rows are the bits of their own
    # calls
    rng = np.random.default_rng(14)
    terms = rng.standard_normal((n, L)) + 1j * rng.standard_normal((n, L))
    phases = rng.uniform(0.0, 2.0 * math.pi, (n, L))
    stacked = coherent_gain(terms, phases)
    assert np.array_equal(stacked, [coherent_gain(t, p) for t, p in zip(terms, phases)])


@pytest.mark.parametrize("build, message", [
    (lambda: ReciprocalChannel(np.ones(3, complex), np.ones(4, complex)),
     r"h and g must be matching \(L,\) or \(n, L\) arrays"),
    (lambda: ReciprocalChannel(np.ones((2, 2, 2), complex), np.ones((2, 2, 2), complex)),
     r"h and g must be matching \(L,\) or \(n, L\) arrays"),
    (lambda: NonReciprocalChannel(*[np.ones(3, complex)] * 3, np.ones(4, complex)),
     r"all four vectors must be matching \(L,\) or \(n, L\) arrays"),
])
def test_realizations_check_their_shapes(build, message):
    with pytest.raises(ValueError, match=message):
        build()
