"""Acceptance gate: every exit criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest tests/test_acceptance.py -v -s`).

Statistical checks run at fixed seeds; standard errors for known-truth
comparisons use the analytic probability.
"""

import functools
import math
import os
import time

import numpy as np
import pytest

from ris2way import analytic as an
from ris2way import mc
from ris2way import rng as rngmod
from ris2way.channel import (Reciprocity, SystemConfig, UniformPhaseError,
                             sample_channels, sweep_rho)
from ris2way.cli import main as cli_main
from ris2way.optim import (build_quadratic_forms, gaussian_randomization,
                           greedy_iterative, sdp_maxmin)

GAMMA_PARAMS = an.gamma_approx_params(1.0)


def _report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def _se_known(p, n):
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def base_cfg(**kw):
    base = dict(L=1, sigma2=1.0, noise_mw=1e-7, omega=1e-4, nu=0.0, gamma_th=1.0)
    base.update(kw)
    return SystemConfig(**base)


def _curve(reduce, cfg, gains, grid):
    """One estimate per power of `grid` (dBm), each reduced from the same gains."""
    return reduce(cfg, [10.0 ** (p / 10.0) for p in grid], gains)


def _first(gains, n):
    """The first n trials of a collection, which are the n-trial collection."""
    return mc.TrialGains(gains.g1[:n], gains.g2[:n])


# -------------------------------------------------------------------- 1
def test_criterion_1_exact_single_element_agreement():
    t0 = time.time()
    cfg = base_cfg(L=1)
    grid = list(range(-40, 41, 2))
    # gains are the same bits for any worker count (criterion 11), so the
    # 10^6-trial collections use every CPU; collect_gains caps the pool there
    [gains] = mc.collect_gains([cfg], "optimal", 10**6, seed=101, workers=os.cpu_count())
    curve = _curve(mc.outage_from_gains, cfg, gains, grid)
    worst = 0.0
    for p_dbm, est in zip(grid, curve):
        rho = sweep_rho(cfg, [10 ** (p_dbm / 10.0)])[0]
        exact = float(an.outage_exact_L1(1.0, rho))
        dev = abs(est.value - exact) / max(_se_known(exact, est.trials), 1e-300)
        worst = max(worst, dev)
    se_curve = _curve(mc.se_from_gains, cfg, _first(gains, 10**5), grid)
    worst_se = 0.0
    for p_dbm, est in zip(grid, se_curve):
        rho = sweep_rho(cfg, [10 ** (p_dbm / 10.0)])[0]
        worst_se = max(worst_se, abs(est.value / an.se_exact_L1(rho) - 1.0))
    elapsed = time.time() - t0
    ok = worst <= 3.0 and worst_se <= 0.01 and elapsed < 120
    _report("1 [single-element exact agreement]", ok,
            f"max outage dev {worst:.2f} se (<=3), max SE dev {100*worst_se:.2f}% "
            f"(<=1%), {elapsed:.0f}s")


# -------------------------------------------------------------------- 2
@functools.lru_cache(maxsize=None)
def _criterion_2_curve(L):
    """The config, the power grid around the outage transition and the
    10^6-trial outage curve on it, drawn once for both criterion-2 tests."""
    cfg = base_cfg(L=L)
    center_rho = 1.0 / (L * math.pi / 4.0) ** 2
    center_dbm = 10.0 * math.log10(center_rho * (cfg.omega + cfg.noise_mw))
    grid = [center_dbm + d for d in range(-10, 17, 2)]
    [gains] = mc.collect_gains([cfg], "optimal", 10**6, seed=202, workers=os.cpu_count())
    return cfg, grid, _curve(mc.outage_from_gains, cfg, gains, grid)


@pytest.mark.parametrize("L", [2, 4, 16, 32, 64])
def test_criterion_2_gamma_approximation_quality(L):
    cfg, grid, curve = _criterion_2_curve(L)
    worst = 0.0
    at = None
    for p_dbm, est in zip(grid, curve):
        if est.value < 1e-4:
            continue
        rho = sweep_rho(cfg, [10 ** (p_dbm / 10.0)])[0]
        gamma = float(an.outage_gamma_Lge2(L, 1.0, rho, GAMMA_PARAMS))
        # the estimator's own std error degenerates at saturated cells; fall
        # back to the binomial error at the analytic value
        se = max(est.std_error, _se_known(gamma, est.trials), 1e-300)
        dev = abs(est.value - gamma) / se
        if dev > worst:
            worst, at = dev, est.value
    _report(f"2 [gamma-approx tracks MC, L={L}]", worst <= 3.0,
            f"max dev {worst:.2f} se at outage {at:.3g} (<=3 se)")


@pytest.mark.parametrize("L", [32, 64])
def test_criterion_2_gamma_beats_clt(L):
    cfg, grid, curve = _criterion_2_curve(L)
    clt = an.clt_params(L, 1.0)
    dev_gamma = dev_clt = 0.0
    for p_dbm, est in zip(grid, curve):
        rho = sweep_rho(cfg, [10 ** (p_dbm / 10.0)])[0]
        dev_gamma = max(dev_gamma,
                        abs(est.value - float(an.outage_gamma_Lge2(L, 1.0, rho, GAMMA_PARAMS))))
        dev_clt = max(dev_clt,
                      abs(est.value - float(an.outage_clt(L, 1.0, rho, clt))))
    _report(f"2 [gamma more accurate than CLT, L={L}]", dev_gamma < dev_clt,
            f"max|gamma-mc| {dev_gamma:.2e} < max|clt-mc| {dev_clt:.2e}")


# -------------------------------------------------------------------- 3
def test_criterion_3_kl_divergence():
    v = an.kl_divergence_gamma_fit(1.0)
    values = [an.kl_divergence_gamma_fit(s2) for s2 in (0.01, 1.0, 100.0)]
    spread = max(values) / min(values) - 1.0
    ok = 1.6e-4 <= v <= 3.0e-4 and spread < 0.30
    _report("3 [KL divergence of gamma fit]", ok,
            f"value {v:.3e} in [1.6e-4, 3.0e-4], spread {100*spread:.2f}% (<30%)")


# -------------------------------------------------------------------- 4
def test_criterion_4_scheme_crossover_powers():
    t0 = time.time()
    targets = {2: 17.5, 16: -1.8, 64: -14.0}
    details = []
    ok = True
    for L, target in targets.items():
        closed = 10 * math.log10(an.scheme_crossover_power(L, 1e-4, 0.0, 1e-10))
        cfg = base_cfg(L=L, noise_mw=1e-10)
        grid = np.arange(closed - 10.0, closed + 10.5, 2.0)
        sim = mc.find_crossover(cfg, grid, trials=4000, seed=404)
        ok = ok and abs(closed - target) <= 0.2 and abs(sim - closed) <= 2.0
        details.append(f"L={L}: closed {closed:+.2f} dBm (target {target:+.1f}±0.2), "
                       f"MC {sim:+.2f} (±2)")
    _report("4 [scheme crossover powers]", ok and time.time() - t0 < 300,
            "; ".join(details))


# -------------------------------------------------------------------- 5
def test_criterion_5_power_saving_deltas():
    d1 = an.delta_p(2, 16, GAMMA_PARAMS.k)
    d2 = an.delta_p(16, 64, GAMMA_PARAMS.k)
    ok = abs(d1 - 19.3) <= 0.2 and abs(d2 - 12.2) <= 0.2
    _report("5 [power-saving deltas]", ok,
            f"delta_p(2,16)={d1:.2f} dB (19.3±0.2), delta_p(16,64)={d2:.2f} dB (12.2±0.2)")


# -------------------------------------------------------------------- 6
def test_criterion_6_asymptotic_rates_and_sandwich():
    rhos = np.logspace(6, 8, 9)
    x = np.log(np.log(rhos) / rhos)
    details = []
    ok = True
    for L in (1, 2, 4):
        if L == 1:
            curves = {"exact": [float(an.outage_exact_L1(1.0, r)) for r in rhos]}
        else:
            curves = {
                "lower bound": [an.sandwich_bounds_Lge2(L, 1.0, r)[0] for r in rhos],
                "upper bound": [an.sandwich_bounds_Lge2(L, 1.0, r)[1] for r in rhos],
            }
        for name, ys in curves.items():
            slope = float(np.polyfit(x, np.log(ys), 1)[0])
            ok = ok and abs(slope - L) <= 0.05 * L
            details.append(f"L={L} {name} slope {slope:.3f}")
    # SE gap over two power decades
    for L in (1, 2, 4):
        if L == 1:
            gap = an.se_exact_L1(1e8) - an.se_exact_L1(1e6)
        else:
            gap = (an.se_gamma(L, 1e8, GAMMA_PARAMS)
                   - an.se_gamma(L, 1e6, GAMMA_PARAMS))
        ok = ok and abs(gap / math.log2(100.0) - 1.0) <= 0.02
        details.append(f"L={L} SE gap {gap:.3f}")
    # sandwich inequality against the exact (simulated) law where measurable,
    # and bound ordering on the deep asymptotic grid
    for L, rho, trials in ((2, 100.0, 10**6), (4, 3.0, 10**6)):
        cfg = base_cfg(L=L)
        p_dbm = 10 * math.log10(rho * (cfg.omega + cfg.noise_mw))
        [gains] = mc.collect_gains([cfg], "optimal", trials, seed=606, workers=os.cpu_count())
        p_mw = 10 ** (p_dbm / 10)
        [est] = mc.outage_from_gains(cfg, [p_mw], gains)
        lo, up = an.sandwich_bounds_Lge2(L, 1.0, sweep_rho(cfg, [p_mw])[0])
        ok = ok and lo <= est.value + 3 * est.std_error and est.value - 3 * est.std_error <= up
        details.append(f"L={L} sandwich [{lo:.2e}, {up:.2e}] vs MC {est.value:.2e}")
    for L in (2, 4):
        for r in rhos:
            lo, up = an.sandwich_bounds_Lge2(L, 1.0, float(r))
            ok = ok and lo <= up
    _report("6 [asymptotic decay/growth rates]", ok, "; ".join(details))


# -------------------------------------------------------------------- 7
def test_criterion_7_interference_floors():
    details = []
    ok = True
    for L in (1, 4):
        cfg = base_cfg(L=L, nu=1.0)
        [gains] = mc.collect_gains([cfg], "optimal", 10**6, seed=5, workers=os.cpu_count())
        outs, ses, outs_ana, ses_ana = [], [], [], []
        for p_dbm in (20.0, 30.0, 40.0):
            p_mw = 10 ** (p_dbm / 10.0)
            rho = sweep_rho(cfg, [p_mw])[0]
            [o] = mc.outage_from_gains(cfg, [p_mw], gains)
            [s] = mc.se_from_gains(cfg, [p_mw], _first(gains, 10**5))
            if L == 1:
                o_ana = float(an.outage_exact_L1(1.0, rho))
                s_ana = an.se_exact_L1(rho)
            else:
                o_ana = float(an.outage_gamma_Lge2(L, 1.0, rho, GAMMA_PARAMS))
                s_ana = an.se_gamma(L, rho, GAMMA_PARAMS)
            outs.append(o)
            ses.append(s)
            outs_ana.append(o_ana)
            ses_ana.append(s_ana)
        # MC vs analytic at each power, and flatness across powers
        for o, oa in zip(outs, outs_ana):
            ok = ok and abs(o.value - oa) <= max(_se_known(oa, o.trials), 1e-12)
        for s, sa in zip(ses, ses_ana):
            ok = ok and abs(s.value / sa - 1.0) <= 0.01
        for i in range(3):
            for j in range(i + 1, 3):
                ok = ok and abs(outs[i].value - outs[j].value) <= max(
                    _se_known(outs_ana[i], outs[i].trials), 1e-12)
                ok = ok and abs(outs_ana[i] - outs_ana[j]) <= max(
                    _se_known(outs_ana[i], outs[i].trials), 1e-12)
                if ses[i].value > 0:
                    ok = ok and abs(ses[i].value / ses[j].value - 1.0) <= 0.01
                    ok = ok and abs(ses_ana[i] / ses_ana[j] - 1.0) <= 0.01
        details.append(f"L={L} floor outage {outs_ana[0]:.3e}, SE {ses_ana[0]:.2f}")
    _report("7 [interference-limited floors]", ok, "; ".join(details))


# -------------------------------------------------------------------- 8
def test_criterion_8_phase_error_exact_law():
    details = []
    ok = True
    for L in (1, 4, 16):
        cfg = base_cfg(L=L, phase_error=UniformPhaseError(math.pi))
        center_rho = max(1.0 / max(L * 0.25, 1.0), 1.0) * 10.0
        p_center = 10 * math.log10(center_rho * (cfg.omega + cfg.noise_mw))
        grid = [p_center + d for d in (-5.0, 0.0, 5.0, 10.0)]
        [gains] = mc.collect_gains([cfg], "optimal", 10**6, seed=808, workers=os.cpu_count())
        curve = _curve(mc.outage_from_gains, cfg, gains, grid)
        worst = 0.0
        for p_dbm, est in zip(grid, curve):
            rho = sweep_rho(cfg, [10 ** (p_dbm / 10.0)])[0]
            ana = float(an.outage_phase_error_uniform_pi(L, 1.0, rho))
            worst = max(worst, abs(est.value - ana) / max(_se_known(ana, est.trials), 1e-300))
        ok = ok and worst <= 3.0
        details.append(f"L={L} max dev {worst:.2f} se")
    # small jitter: spectral efficiency within 1% of the error-free curve
    for L in (4, 16):
        cfg_err = base_cfg(L=L, phase_error=UniformPhaseError(math.pi / 8.0))
        cfg_free = base_cfg(L=L)
        # one channel draw serves both: the jitter only rotates the terms
        gains_err, gains_free = mc.collect_gains([cfg_err, cfg_free], "optimal", 10**5,
                                                 seed=809)
        powers = [10 ** (p_dbm / 10) for p_dbm in (10.0, 20.0, 30.0)]
        for se_err, se_free in zip(mc.se_from_gains(cfg_err, powers, gains_err),
                                   mc.se_from_gains(cfg_free, powers, gains_free)):
            rel = abs(se_err.value / se_free.value - 1.0)
            ok = ok and rel <= 0.01
        details.append(f"L={L} jitter<=pi/8 SE gap {100*rel:.2f}%")
    _report("8 [phase-error laws]", ok, "; ".join(details))


# -------------------------------------------------------------------- 9
def test_criterion_9_maxmin_optimization():
    t0 = time.time()
    n_inst = 100
    cfg = base_cfg(L=8, reciprocity=Reciprocity.NON_RECIPROCAL)
    rho_eval = 1e4  # 0 dBm at omega=1e-4
    rel_viol = 0.0
    greedy_monotone = True
    u1_dominates = True
    agree = []
    se_users = {m: [[], []] for m in ("sdp", "greedy")}
    bisect_checked = 0
    for i in range(n_inst):
        ch = sample_channels(cfg, rngmod.trial_generator(900, rngmod.STREAM_CHANNEL, i))
        forms = build_quadratic_forms(ch, 1.0)
        sol = sdp_maxmin(forms, tol=3e-7, method="joint")
        t_upper = sol.t_star + sol.feasibility_gap
        if i < 10:
            t_b = sdp_maxmin(forms, tol=1e-4, method="bisect").t_star
            assert t_b == pytest.approx(sol.t_star, rel=3e-4)
            bisect_checked += 1
        rng = rngmod.trial_generator(900, rngmod.STREAM_OPTIM, i)
        phases_sdp, _ = gaussian_randomization(sol.a_star, forms, 100, rng)
        res_greedy = greedy_iterative(ch, 1.0, k=360)
        greedy_monotone = greedy_monotone and all(
            b >= a - 1e-12 for a, b in zip(res_greedy.sweep_objectives,
                                           res_greedy.sweep_objectives[1:]))
        z1 = ch.h_r * ch.g_t
        z2 = ch.g_r * ch.h_t
        gains = {}
        for name, phases in (
                ("sdp", phases_sdp),
                ("greedy", res_greedy.phases),
                ("u1", np.mod(-np.angle(z1), 2 * math.pi)),
                ("random", rngmod.trial_generator(900, rngmod.STREAM_BASELINE, i)
                 .uniform(0, 2 * math.pi, 8))):
            rot = np.exp(1j * phases)
            gains[name] = (abs(np.sum(z1 * rot)) ** 2, abs(np.sum(z2 * rot)) ** 2)
            rel_viol = max(rel_viol, (min(gains[name]) - t_upper) / t_upper)
        u1_dominates = u1_dominates and all(
            gains["u1"][0] > gains[m][0] for m in ("sdp", "greedy", "random"))
        se_pair = {}
        for m in ("sdp", "greedy"):
            se_pair[m] = [math.log2(1 + rho_eval * gains[m][0]),
                          math.log2(1 + rho_eval * gains[m][1])]
            se_users[m][0].append(se_pair[m][0])
            se_users[m][1].append(se_pair[m][1])
        agree.append(max(abs(se_pair["sdp"][p] - se_pair["greedy"][p])
                         / se_pair["greedy"][p] for p in (0, 1)))
    median_agree = float(np.median(agree))
    fairness_ok = True
    for m in ("sdp", "greedy"):
        m1 = float(np.mean(se_users[m][0]))
        m2 = float(np.mean(se_users[m][1]))
        fairness_ok = fairness_ok and abs(m1 - m2) / ((m1 + m2) / 2) < 0.05
    elapsed = time.time() - t0
    ok = (rel_viol <= 1e-6 and greedy_monotone and median_agree < 0.05
          and fairness_ok and u1_dominates and bisect_checked == 10
          and elapsed < 600)
    _report("9 [max-min optimization, 100 instances L=8]", ok,
            f"max bound violation {rel_viol:.2e} (<=1e-6), greedy monotone "
            f"{greedy_monotone}, median SDP/greedy SE gap {100*median_agree:.2f}% "
            f"(<5%), fairness {fairness_ok}, u1 dominates {u1_dominates}, "
            f"{elapsed:.0f}s")


# -------------------------------------------------------------------- 10
@pytest.mark.parametrize("L,target", [(2, 0.3), (4, 2.0), (16, 6.5)])
def test_criterion_10_reciprocity_power_gap(L, target):
    from ris2way.channel import NonReciprocalChannel, sample_channel_block
    from ris2way.optim import OptimMethod, maxmin_block

    trials = 1000
    cfg = base_cfg(L=L, reciprocity=Reciprocity.NON_RECIPROCAL)
    q_nr = np.empty(trials)
    q_rec = np.empty(trials)
    done = 0
    for block, count in rngmod.iter_blocks(trials):
        ch = sample_channel_block(
            cfg, rngmod.block_generator(123, rngmod.STREAM_CHANNEL, block), count)
        phases, _ = maxmin_block(ch.h_r * ch.g_t, ch.g_r * ch.h_t, 1.0,
                                 OptimMethod.GREEDY_ITERATIVE)
        for i in range(count):
            trial = NonReciprocalChannel(ch.h_t[i], ch.h_r[i], ch.g_t[i], ch.g_r[i])
            rot = np.exp(1j * phases[i])
            q_nr[done] = abs(np.sum(trial.h_r * trial.g_t * rot)) ** 2
            # common-random-number pairing: the reciprocal-optimum statistic
            # from the same fading draws
            q_rec[done] = float(np.sum(np.abs(trial.h_t) * np.abs(trial.g_t)) ** 2)
            done += 1

    def p_at_target(gain_values):
        lo, hi = -40.0, 60.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            rho = sweep_rho(cfg, [10 ** (mid / 10.0)])[0]
            if float(np.mean(np.log2(1 + rho * gain_values))) < 15.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    gap = p_at_target(q_nr) - p_at_target(q_rec)
    _report(f"10 [reciprocity power gap at 15 bits, greedy max-min, L={L}]",
            abs(gap - target) <= 1.0, f"gap {gap:.2f} dB (target {target}±1)")


# -------------------------------------------------------------------- 11
def test_criterion_11_csv_determinism(tmp_path):
    blobs = {1: [], 4: [], 8: []}
    for workers in (1, 4, 8):
        out = tmp_path / f"det_{workers}.csv"
        rc = cli_main(["outage", "--L", "2", "--methods", "mc,gamma",
                       "--p-dbm", "-10:10:5", "--trials", "9000", "--seed", "7",
                       "--workers", str(workers), "--out", str(out)])
        assert rc == 0
        blobs[workers] = out.read_bytes()
    same_outage = blobs[1] == blobs[4] == blobs[8]
    blobs2 = {}
    for workers in (1, 4, 8):
        out = tmp_path / f"det_nr_{workers}.csv"
        rc = cli_main(["se", "--L", "3", "--reciprocity", "non-reciprocal",
                       "--policy", "greedy", "--methods", "mc",
                       "--p-dbm", "0:10:10", "--trials", "5000", "--seed", "7",
                       "--workers", str(workers), "--out", str(out)])
        assert rc == 0
        blobs2[workers] = out.read_bytes()
    same_nr = blobs2[1] == blobs2[4] == blobs2[8]
    _report("11 [CSV determinism across workers]", same_outage and same_nr,
            f"reciprocal outage identical {same_outage}, "
            f"non-reciprocal per-trial optimization identical {same_nr}")
