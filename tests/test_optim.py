"""Phase design: closed-form optimum, the Hermitian forms of the users'
gains, the relaxation solver with both search paths, randomized rank-one
recovery, greedy search, and the u1/random baselines that `mc` computes."""

import dataclasses
import math

import numpy as np
import pytest

from ris2way import optim
from ris2way import rng as rngmod
from ris2way.channel import (NonReciprocalChannel, ReciprocalChannel, Reciprocity,
                             SystemConfig, coherent_gain, sample_channel_block,
                             sample_channels, sinr_nonreciprocal, sinr_reciprocal,
                             wrap_phases)
from ris2way.mc import collect_gains
from ris2way.optim import (OptimMethod, _greedy_block, _newton_step, _sdp_bisect,
                           _sdp_joint, build_quadratic_forms, gaussian_randomization,
                           greedy_iterative, maxmin_block, optimal_phase_reciprocal,
                           sdp_maxmin, solve_maxmin)


def form_value(w, phases):
    """x^H W x = |w^H x|^2 at x = e^{j phases}."""
    return abs(np.vdot(w, np.exp(1j * phases))) ** 2


def round_one(a_star, forms, k, rng):
    """`gaussian_randomization` on a stack of one instance: (phases, value)."""
    phases, values = gaussian_randomization(a_star[None], np.asarray(forms)[None], k, [rng])
    return phases[0], values[0]


def nonrec(L, seed, sigma2=1.0):
    cfg = SystemConfig(L=L, sigma2=sigma2, reciprocity=Reciprocity.NON_RECIPROCAL)
    return sample_channels(cfg, np.random.default_rng(seed))


def lopsided(ch, rho1, rho2):
    """`ch` with users at average SINRs rho1 and rho2: at rho = 1 its terms are
    sqrt(rho1) h_r g_t and sqrt(rho2) g_r h_t."""
    return NonReciprocalChannel(h_t=ch.h_t, h_r=math.sqrt(rho1) * ch.h_r, g_t=ch.g_t,
                                g_r=math.sqrt(rho2) * ch.g_r)


def test_optimal_phase_zero_channel_phases():
    h = np.array([1.0 + 0j, 2.0 + 0j])
    ch_rec = sample_channels(SystemConfig(L=2), np.random.default_rng(0))
    ch = type(ch_rec)(h=h, g=np.array([0.5 + 0j, 3.0 + 0j]))
    assert np.allclose(optimal_phase_reciprocal(ch), 0.0)


def test_optimal_phase_beats_exhaustive_grid():
    ch = sample_channels(SystemConfig(L=2), np.random.default_rng(1))
    best = sinr_reciprocal(ch, optimal_phase_reciprocal(ch), 1.0)
    grid = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    z = ch.h * ch.g
    vals = np.abs(z[0] * np.exp(1j * grid)[:, None]
                  + z[1] * np.exp(1j * grid)[None, :]) ** 2
    assert best >= np.max(vals) - 1e-12 * best


def test_optimal_phase_closed_form_identity():
    ch = sample_channels(SystemConfig(L=6), np.random.default_rng(2))
    got = sinr_reciprocal(ch, optimal_phase_reciprocal(ch), 1.0)
    assert got == pytest.approx(float(np.sum(np.abs(ch.h) * np.abs(ch.g)) ** 2),
                                rel=1e-12)


def test_quadratic_forms_reproduce_sinr_many_instances():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        ch = lopsided(nonrec(4, rng.integers(2**31)), 3.0, 0.6)
        forms = build_quadratic_forms(ch)
        assert forms.shape == (2, 4)
        for _ in range(50):
            phases = rng.uniform(0, 2 * math.pi, 4)
            q1, q2 = (form_value(w, phases) for w in forms)
            g1, g2 = sinr_nonreciprocal(ch, phases, 1.0)
            worst = max(worst, abs(q1 - g1) / g1, abs(q2 - g2) / g2)
    assert worst < 1e-9


def test_quadratic_forms_single_element_constant():
    ch = nonrec(1, 5)
    forms = build_quadratic_forms(lopsided(ch, 2.0, 5.0))
    for p in (0.0, 1.0, 4.4):
        assert form_value(forms[0], np.array([p])) == pytest.approx(
            2.0 * (np.abs(ch.h_r[0]) * np.abs(ch.g_t[0])) ** 2, rel=1e-12)


def test_quadratic_forms_are_conjugate_terms():
    # W_p = w_p w_p^H is rank one, and its vector is the conjugate of z_p
    ch = lopsided(nonrec(5, 6), 1.0, 2.0)
    forms = build_quadratic_forms(ch)
    assert np.array_equal(forms, np.conj(ch.terms))
    assert np.array_equal(optim._forms(ch.terms[:, None, :])[0], forms)


def test_sdp_single_element_value():
    ch = nonrec(1, 7)
    forms = build_quadratic_forms(lopsided(ch, 2.0, 3.0))
    expected = min(2.0 * (np.abs(ch.h_r[0]) * np.abs(ch.g_t[0])) ** 2,
                   3.0 * (np.abs(ch.g_r[0]) * np.abs(ch.h_t[0])) ** 2)
    sol = sdp_maxmin(forms, tol=1e-6)
    assert sol.t_star == pytest.approx(expected, rel=1e-4)


def test_sdp_upper_bounds_random_phase_search():
    rng = np.random.default_rng(8)
    ch = nonrec(3, 9)
    forms = build_quadratic_forms(ch)
    sol = sdp_maxmin(forms, tol=1e-4)
    phases = rng.uniform(0, 2 * math.pi, (100_000, 3))
    rot = np.exp(1j * phases)
    g1 = np.abs(rot @ (ch.h_r * ch.g_t)) ** 2
    g2 = np.abs(rot @ (ch.g_r * ch.h_t)) ** 2
    best_random = np.max(np.minimum(g1, g2))
    assert sol.t_star >= best_random - 1e-4 * sol.t_star


def test_sdp_symmetric_forms_match_dense_grid():
    # identical terms for both users make F1 == F2; the relaxation value is then
    # the single-form maximum (sum of moduli)^2, cross-checked on a dense grid
    ch = nonrec(2, 10)
    z = ch.h_r * ch.g_t
    ch_sym = NonReciprocalChannel(h_t=np.ones(2, dtype=complex), h_r=z,
                                  g_t=np.ones(2, dtype=complex), g_r=z)
    sol = sdp_maxmin(build_quadratic_forms(ch_sym), tol=1e-6)
    grid = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    vals = np.abs(z[0] * np.exp(1j * grid)[:, None]
                  + z[1] * np.exp(1j * grid)[None, :]) ** 2
    assert sol.t_star == pytest.approx(float(np.sum(np.abs(z))) ** 2, rel=1e-4)
    assert np.max(vals) <= sol.t_star * (1 + 1e-4)


def test_sdp_joint_and_bisect_agree():
    for seed in (11, 12, 13):
        forms = build_quadratic_forms(lopsided(nonrec(4, seed), 1.5, 0.8))
        a = _sdp_bisect(forms[None], 1e-4)
        b = sdp_maxmin(forms, tol=1e-4)
        assert a.t_star[0] == pytest.approx(b.t_star, rel=3e-4)


def test_sdp_solution_feasibility_certificates():
    forms = build_quadratic_forms(nonrec(4, 14))
    sol = sdp_maxmin(forms, tol=1e-4)
    a = sol.a_star
    assert a.shape == (4, 4) and np.array_equal(a, a.conj().T)
    assert np.abs(a.diagonal() - 1.0).max() <= 1e-7
    assert np.linalg.eigvalsh(a)[0] >= -1e-8
    assert np.vdot(forms[0], a @ forms[0]).real >= sol.t_star * (1 - 1e-9)
    assert np.vdot(forms[1], a @ forms[1]).real >= sol.t_star * (1 - 1e-9)


@pytest.mark.parametrize("L", [1, 4, 9])
def test_newton_step_satisfies_kkt_conditions(L):
    # random Hermitian interior point with unit diagonal; theta at 70% of the
    # smaller form; the barrier is -2 log det X - sum_p log g_p
    rng = np.random.default_rng(40 + L)
    z = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    a = z @ z.conj().T / L + 0.1 * np.eye(L)
    scale = 1.0 / np.sqrt(a.diagonal().real)
    a = a * np.outer(scale, scale)
    w = build_quadratic_forms(lopsided(nonrec(L, 50 + L), 1.7, 0.4))
    f = [np.outer(v, v.conj()) for v in w]  # W_p = w_p w_p^H
    gains = np.array([np.vdot(v, a @ v).real for v in w])
    g = gains - (gains.min() - 0.3 * gains.min())
    grad_t = -10.0 + float(np.sum(1.0 / g))
    chol = np.linalg.cholesky(a)
    step = _newton_step(a[None], chol[None], w[None], gains[None], g[None],
                        np.array([grad_t]))
    da, dtheta, y, decrement = (v[0] for v in step)

    def inner(p, q):  # <P, Q> = Re tr(P^H Q)
        return np.sum(p.conj() * q).real

    ainv = np.linalg.inv(a)
    grad_a = -2.0 * ainv - f[0] / g[0] - f[1] / g[1]
    size = np.abs(grad_a).max()
    assert np.allclose(da, da.conj().T, rtol=0.0, atol=1e-15 * np.abs(da).max())
    if L == 1:  # X = [1] is the one feasible point: the step is zero to roundoff
        assert np.abs(da).max() <= 1e-12 and np.abs(y).max() <= 1e-12
    else:
        assert np.abs(da.diagonal()).max() <= 1e-12 * np.abs(da).max()
    delta = np.array([(inner(f[p], da) - dtheta) / g[p] ** 2 for p in (0, 1)])
    assert delta.sum() == pytest.approx(grad_t, rel=1e-10)
    resid = 2.0 * ainv @ da @ ainv + delta[0] * f[0] + delta[1] * f[1] + grad_a
    assert np.abs(resid - np.diag(resid.diagonal())).max() <= 1e-9 * size
    assert np.abs(resid.diagonal().imag).max() <= 1e-9 * size
    # Y is the whitened step, and far from the boundary the sum-of-squares
    # decrement equals the gradient form through X^{-1} to roundoff
    r_inv = np.linalg.inv(chol)
    if L > 1:
        assert np.allclose(y, r_inv @ da @ r_inv.conj().T, rtol=0.0,
                           atol=1e-12 * np.abs(y).max())
    assert decrement >= 0.0
    assert decrement == pytest.approx(-(inner(grad_a, da) + grad_t * dtheta),
                                      rel=1e-9, abs=0)


def test_decrement_nonnegative_at_every_step(monkeypatch):
    seen = []

    def recording_step(*args):
        out = _newton_step(*args)
        seen.append(out[3])
        return out

    monkeypatch.setattr(optim, "_newton_step", recording_step)
    forms = [build_quadratic_forms(lopsided(nonrec(L, 60 + L), 1.3, 0.7))
             for L in (1, 6, 6)]
    optim._sdp_joint(np.stack([np.stack(f) for f in forms[1:]]), 1e-6)
    _sdp_bisect(forms[0][None], 1e-4)
    decrements = np.concatenate(seen)
    assert decrements.size > 100 and np.all(decrements >= 0.0)


def test_sdp_at_32_elements_bounds_greedy_and_randomization():
    ch = nonrec(32, 41)
    forms = build_quadratic_forms(ch)
    tol = 1e-4
    sol = sdp_maxmin(forms, tol=tol)
    assert 0.0 <= sol.feasibility_gap <= tol * sol.t_star
    a = sol.a_star
    assert np.array_equal(a, a.conj().T)
    assert np.abs(a.diagonal() - 1.0).max() <= 1e-7
    assert np.linalg.eigvalsh(a)[0] >= -1e-8
    _, rounded = round_one(sol.a_star, forms, 100, np.random.default_rng(42))
    greedy = min(greedy_iterative(ch).achieved)
    assert max(rounded, greedy) <= sol.t_star * (1 + tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 1.0, math.inf])
def test_sdp_needs_positive_tolerance(tol):
    ch = nonrec(2, 42)
    forms = build_quadratic_forms(ch)
    with pytest.raises(ValueError, match="tolerance must be > 0"):
        sdp_maxmin(forms, tol=tol)


def test_malformed_forms_rejected():
    w1, w2 = build_quadratic_forms(nonrec(3, 43))
    rng = np.random.default_rng(44)
    for forms in [(w1, w2[:2]), (w1,), (w1, w2, w1), (w1[:0], w2[:0]),
                  (np.outer(w1, w1), np.outer(w2, w2))]:
        with pytest.raises(ValueError, match="two vectors of one length"):
            sdp_maxmin(forms)
        with pytest.raises(ValueError, match="two vectors of one length"):
            gaussian_randomization(np.eye(3)[None], [forms], 5, [rng])
    with pytest.raises(ValueError, match="a_star"):
        gaussian_randomization(np.eye(4)[None], [(w1, w2)], 5, [rng])


def test_randomization_rank_one_recovers_exactly():
    # every candidate of X* = x x^H is x times one complex number: the phases
    # up to a common rotation, which leaves both gains unchanged
    rng = np.random.default_rng(15)
    phases_true = rng.uniform(0, 2 * math.pi, 4)
    x = np.exp(1j * phases_true)
    forms = build_quadratic_forms(nonrec(4, 16))
    got, val = round_one(np.outer(x, x.conj()), forms, 5, rng)
    rotation = np.exp(1j * (got - phases_true))
    assert np.allclose(rotation, rotation[0], rtol=0.0, atol=1e-7)
    assert val == pytest.approx(min(form_value(w, phases_true) for w in forms), rel=1e-7)


def test_randomization_bounded_by_relaxation_and_consistent():
    rng = np.random.default_rng(17)
    ch = nonrec(8, 18)
    forms = build_quadratic_forms(ch)
    sol = sdp_maxmin(forms, tol=1e-5)
    phases, scored = round_one(sol.a_star, forms, 100, rng)
    g1, g2 = sinr_nonreciprocal(ch, phases, 1.0)
    assert min(g1, g2) == pytest.approx(scored, rel=1e-9)
    assert scored <= sol.t_star * (1 + 1e-4)
    assert scored >= 0.5 * sol.t_star  # randomization is not far off on typical draws


def test_randomization_near_bound_on_median_instance():
    rng = np.random.default_rng(29)
    ratios = []
    for seed in range(10):
        ch = nonrec(8, 400 + seed)
        forms = build_quadratic_forms(ch)
        sol = sdp_maxmin(forms, tol=1e-5)
        _, val = round_one(sol.a_star, forms, 200, rng)
        ratios.append(val / sol.t_star)
    assert float(np.median(ratios)) >= 0.9


@pytest.mark.parametrize("L,m", [(1, 300), (2, 250), (3, 200), (8, 150), (16, 80), (32, 40)])
def test_stacked_randomization_rows_equal_stacks_of_one(L, m):
    """1020 instances in all: row i of one stacked call gets the phases and the
    value of row i rounded alone, bit for bit.  User 1 is at 40 times, or user
    2 at 0.02 times, the other's average SINR on two thirds of the rows; the
    covariances have every rank, and a tenth of them a zero element, which the
    rounding resamples uniformly."""
    rng = np.random.default_rng(90 + L)
    z1, z2 = nonrec_terms(L, m, 90 + L)
    z1[:m // 3] *= math.sqrt(40.0)
    z2[m // 3:2 * m // 3] *= math.sqrt(0.02)
    forms = optim._forms(np.stack([z1, z2]))
    x = ((rng.standard_normal((m, L, L)) + 1j * rng.standard_normal((m, L, L)))
         * (rng.integers(1, L + 1, (m, 1, 1)) > np.arange(L)))
    a = x @ x.conj().swapaxes(1, 2)
    a[:m // 10, :1], a[:m // 10, :, :1] = 0.0, 0.0
    diag = a.diagonal(axis1=1, axis2=2).real
    scale = np.where(diag > 0.0, 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0)), 0.0)
    a = a * scale[:, :, None] * scale[:, None, :]

    def rngs():
        return [np.random.default_rng(7000 + i) for i in range(m)]

    phases, values = gaussian_randomization(a, forms, 100, rngs())
    assert phases.shape == (m, L) and np.all(np.isfinite(values))
    for i, one in enumerate(rngs()):
        alone, value = gaussian_randomization(a[i:i + 1], forms[i:i + 1], 100, [one])
        assert np.array_equal(alone[0], phases[i]) and value[0] == values[i]


def test_randomization_failure_names_its_row():
    forms = optim._forms(np.stack(nonrec_terms(2, 6, 95)))
    a = np.broadcast_to(np.eye(2, dtype=complex), (6, 2, 2)).copy()
    a[4] = np.diag([1.5, -0.5])
    with pytest.raises(optim.SolverFailureError, match="not PSD") as info:
        gaussian_randomization(a, forms, 10, [np.random.default_rng(i) for i in range(6)])
    assert info.value.instance == 4


def test_greedy_single_element_terminates_immediately():
    ch = lopsided(nonrec(1, 19), 1.0, 2.0)
    res = greedy_iterative(ch)
    assert res.iterations == 1
    g1, g2 = sinr_nonreciprocal(ch, res.phases, 1.0)
    assert min(g1, g2) == pytest.approx(min(res.achieved), rel=1e-12)


def test_greedy_on_degenerate_reciprocal_instance_hits_closed_form():
    cfg = SystemConfig(L=6)
    rec = sample_channels(cfg, np.random.default_rng(20))
    ch = NonReciprocalChannel(h_t=rec.h, h_r=rec.h, g_t=rec.g, g_r=rec.g)
    res = greedy_iterative(ch)
    target = float(np.sum(np.abs(rec.h) * np.abs(rec.g)) ** 2)
    assert min(res.achieved) >= target * (1 - 1e-3)


def test_greedy_monotone_objective():
    ch = nonrec(8, 21)
    res = greedy_iterative(ch)
    hist = res.sweep_objectives
    assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))
    assert res.iterations == len(hist)


def test_greedy_respects_relaxation_bound():
    ch = nonrec(6, 22)
    forms = build_quadratic_forms(ch)
    sol = sdp_maxmin(forms, tol=1e-5)
    res = greedy_iterative(ch)
    assert min(res.achieved) <= sol.t_star * (1 + 1e-4)


def test_baseline_u1_maximizes_user1():
    """The u1 baseline of a collection co-phases user 1: its phases -arg z1
    give user 1 the gain g1 and user 2 the gain g2, and no phases give user 1
    more, neither the random baseline's nor 50 other draws per trial."""
    cfg = SystemConfig(L=5, reciprocity=Reciprocity.NON_RECIPROCAL, policy="u1")
    [u1] = collect_gains([cfg], 20, seed=24)
    [random] = collect_gains([dataclasses.replace(cfg, policy="random")], 20, seed=24)
    ch = sample_channel_block(cfg, rngmod.block_generator(24, rngmod.STREAM_CHANNEL, 0), 20)
    z1, z2 = ch.h_r * ch.g_t, ch.g_r * ch.h_t
    assert u1.g1 == pytest.approx(coherent_gain(z1, -np.angle(z1)), rel=1e-12)
    assert np.array_equal(u1.g2, coherent_gain(z2, -np.angle(z1)))
    assert np.all(random.g1 <= u1.g1 * (1 + 1e-12))
    rng = np.random.default_rng(23)
    for _ in range(50):
        g1 = coherent_gain(z1, rng.uniform(0, 2 * math.pi, z1.shape))
        assert np.all(g1 <= u1.g1 * (1 + 1e-12))


def test_single_element_all_methods_identical():
    """At L=1 every phase gives the same gains: both max-min searches on one
    instance, and every policy of a collection on each of its trials."""
    ch = nonrec(1, 25)
    rng = np.random.default_rng(26)
    achieved = [solve_maxmin(ch, method=m, rng=rng).achieved
                for m in OptimMethod]
    for g in achieved[1:]:
        assert g[0] == pytest.approx(achieved[0][0], rel=1e-9)
        assert g[1] == pytest.approx(achieved[0][1], rel=1e-9)
    cfg = SystemConfig(L=1, reciprocity=Reciprocity.NON_RECIPROCAL)
    gains = collect_gains([dataclasses.replace(cfg, policy=p)
                           for p in ("sdp", "greedy", "u1", "random")], 20, seed=25)
    for g in gains[1:]:
        assert g.g1 == pytest.approx(gains[0].g1, rel=1e-9)
        assert g.g2 == pytest.approx(gains[0].g2, rel=1e-9)


def test_quadratic_identity_holds_for_every_method_output():
    ch = lopsided(nonrec(5, 31), 2.0, 0.7)
    forms = build_quadratic_forms(ch)
    rng = np.random.default_rng(32)
    results = [solve_maxmin(ch, method=method, rng=rng) for method in OptimMethod]
    # and the phases of mc's baselines: u1's co-phasing of user 1, uniform draws
    baselines = [-np.angle(ch.h_r * ch.g_t), rng.uniform(0.0, 2 * math.pi, 5)]
    for phases in [res.phases for res in results] + baselines:
        q1, q2 = (form_value(w, phases) for w in forms)
        g1, g2 = sinr_nonreciprocal(ch, phases, 1.0)
        assert q1 == pytest.approx(g1, rel=1e-9)
        assert q2 == pytest.approx(g2, rel=1e-9)
    for res in results:
        assert res.achieved[0] == pytest.approx(sinr_nonreciprocal(ch, res.phases, 1.0)[0],
                                                rel=1e-12)


def test_solve_maxmin_sdp_populates_result():
    ch = nonrec(4, 27)
    res = solve_maxmin(ch, method=OptimMethod.SDP_RELAX,
                       rng=np.random.default_rng(28))
    assert res.t_star == sdp_maxmin(build_quadratic_forms(ch)).t_star
    assert res.method is OptimMethod.SDP_RELAX
    assert min(res.achieved) <= res.t_star * (1 + 1e-4)


# ---------------------------------------------------------------------------
# stacked solvers: every row as its instance alone
# ---------------------------------------------------------------------------

def scalar_greedy(z1, z2, k=360, improvement_threshold=1e-6, max_sweeps=200):
    """Reference: the coordinate search on one instance in numpy/Python scalar
    arithmetic, with each complex term z_l e^{j phi_l} a length-1 array product
    (numpy's array multiply, which can round differently from a scalar
    product), and each user's magnitude squared before the min.  Returns the
    phases and the objective after each sweep."""
    L = z1.size
    grid = np.exp(1j * 2.0 * math.pi * np.arange(k) / k)
    phase_factors = np.ones(L, dtype=complex)
    s1 = complex(np.sum(z1 * phase_factors))
    s2 = complex(np.sum(z2 * phase_factors))
    a1, a2 = abs(s1), abs(s2)
    obj = min(a1 * a1, a2 * a2)
    history = []
    for _ in range(max_sweeps):
        previous = obj
        for l in range(L):
            b1 = s1 - (z1[l:l + 1] * phase_factors[l:l + 1])[0]
            b2 = s2 - (z2[l:l + 1] * phase_factors[l:l + 1])[0]
            c1, c2 = np.abs(b1 + z1[l] * grid), np.abs(b2 + z2[l] * grid)
            cand = np.minimum(c1 * c1, c2 * c2)
            best = int(np.argmax(cand))
            if cand[best] >= obj:
                phase_factors[l] = grid[best]
                s1 = b1 + (z1[l:l + 1] * grid[best:best + 1])[0]
                s2 = b2 + (z2[l:l + 1] * grid[best:best + 1])[0]
                obj = float(cand[best])
        history.append(obj)
        if not obj - previous > improvement_threshold * max(obj, 1e-300):
            break
    return wrap_phases(np.angle(phase_factors)), history


def nonrec_terms(L, m, seed):
    """(z1, z2) rows of m non-reciprocal trials, with some terms set to zero:
    whole rows of z1 or z2, and single elements."""
    cfg = SystemConfig(L=L, reciprocity=Reciprocity.NON_RECIPROCAL)
    ch = sample_channel_block(cfg, np.random.default_rng(seed), m)
    z1, z2 = ch.h_r * ch.g_t, ch.g_r * ch.h_t
    z1[:m // 40] = 0.0
    z2[m // 40:m // 20] = 0.0
    z1[m // 20:m // 10, 0] = 0.0
    z2[m // 10:m // 7, -1] = 0.0
    return z1, z2


@pytest.mark.parametrize("L,m", [(1, 3500), (2, 3000), (3, 2200), (8, 700), (16, 400),
                                 (32, 200)])
def test_greedy_block_matches_scalar_search(L, m):
    """10^4 trials in all: phases, sweep counts and sweep objectives equal the
    scalar search bit for bit, rows with zero terms included; user 2 is at
    0.45 times user 1's average SINR."""
    z1, z2 = nonrec_terms(L, m, 70 + L)
    z2 = math.sqrt(0.45) * z2
    phases, sweeps, history = _greedy_block(np.stack([z1, z2]))
    block, _ = maxmin_block(np.stack([z1, z2]), OptimMethod.GREEDY_ITERATIVE)  # in sub-batches
    assert np.array_equal(block, phases)
    for i in range(m):
        ref_phases, ref_history = scalar_greedy(z1[i], z2[i])
        assert np.array_equal(phases[i], ref_phases)
        assert sweeps[i] == len(ref_history)
        assert [h[i] for h in history[:sweeps[i]]] == ref_history


def adversarial_terms(case):
    """(z1, z2) stacks of 24 rows or more on which the greedy search's real
    proxy cannot certify every element step."""
    z1, z2 = nonrec_terms(4, 24, 90)
    if case.startswith("scale"):  # squares that underflow, go subnormal or overflow
        scale = float(case[5:])
        return scale * z1, scale * z2
    if case == "lopsided":  # user 2's squares underflow beside user 1's
        return z1, 1e-200 * z2
    if case == "nonfinite":  # NaN in user 1's terms only: the reference's Python
        # min(a, b) returns a finite a beside a NaN b, where np.min gives NaN
        z1[3, 1], z1[4, 0], z2[4, 2] = np.nan, np.inf, np.inf
        z1[5, 2], z2[6, 3] = complex(0.0, -np.inf), complex(np.inf, 1.0)
        return z1, z2
    if case == "flat":  # L=1: the sum without the element is 0, the proxy is flat
        return nonrec_terms(1, 24, 91)
    # L=2 rows whose first element step has both users' optimum exactly halfway
    # between grid angles k and k+1, so the two values are equal up to roundoff
    rng = np.random.default_rng(92)
    rest = rng.standard_normal((2, 200)) + 1j * rng.standard_normal((2, 200))
    k = rng.integers(0, 360, 200)
    halfway = np.exp(-1j * math.pi * (2 * k + 1) / 360)
    z1, z2 = np.stack([rest * rng.uniform(0.2, 3.0, (2, 200)) * halfway, rest], axis=2)
    b1 = (z1[:, 0] + z1[:, 1]) - z1[:, 0]
    b2 = (z2[:, 0] + z2[:, 1]) - z2[:, 0]
    grid = np.exp(1j * 2.0 * math.pi * np.arange(360) / 360)
    cand = np.minimum(np.abs(b1[:, None] + z1[:, :1] * grid) ** 2,
                      np.abs(b2[:, None] + z2[:, :1] * grid) ** 2)
    rows = np.arange(200)
    assert np.sum(cand[rows, k] == cand[rows, (k + 1) % 360]) >= 50  # rounded ties
    return z1, z2


@pytest.mark.parametrize("case", ["scale1e-300", "scale1e-170", "scale1e-160", "scale1e155",
                                  "scale1e160", "lopsided", "nonfinite", "flat", "halfway"])
def test_greedy_block_matches_scalar_search_on_adversarial_stacks(case):
    """Phases, sweep counts and sweep objectives equal the scalar search bit
    for bit (NaN equal to NaN) where the squares underflow, go subnormal or
    overflow, on NaN and infinite terms, on flat proxies and on rounded ties."""
    z1, z2 = adversarial_terms(case)
    with np.errstate(all="ignore"):
        phases, sweeps, history = _greedy_block(np.stack([z1, z2]))
        for i in range(len(z1)):
            ref_phases, ref_history = scalar_greedy(z1[i], z2[i])
            assert np.array_equal(phases[i], ref_phases, equal_nan=True)
            assert sweeps[i] == len(ref_history)
            assert np.array_equal([h[i] for h in history[:sweeps[i]]], ref_history,
                                  equal_nan=True)


def test_greedy_block_stops_nonfinite_rows_after_one_sweep():
    """A row whose objective is NaN, or overflows to inf, leaves the search
    after its first sweep, and the stack's other rows keep the bits they have
    without those two rows beside them."""
    z1, z2 = nonrec_terms(4, 24, 93)
    z1[3, 1] = np.nan
    z1[7], z2[7] = 1e160 * z1[7], 1e160 * z2[7]  # squares overflow
    rest = np.setdiff1d(np.arange(24), [3, 7])
    with np.errstate(all="ignore"):
        phases, sweeps, history = _greedy_block(np.stack([z1, z2]))
        ref_phases, ref_sweeps, ref_history = _greedy_block(np.stack([z1[rest], z2[rest]]))
    assert sweeps[3] == sweeps[7] == 1
    assert np.isnan(history[0][3]) and history[0][7] == np.inf
    assert np.array_equal(phases[rest], ref_phases)
    assert np.array_equal(sweeps[rest], ref_sweeps)
    assert len(history) == len(ref_history)
    assert all(np.array_equal(h[rest], r) for h, r in zip(history, ref_history))


@pytest.mark.parametrize("method", [OptimMethod.GREEDY_ITERATIVE, OptimMethod.SDP_RELAX])
def test_block_rows_equal_solve_maxmin(method):
    z1, z2 = nonrec_terms(4, 40, 80)
    z1 = math.sqrt(0.8) * z1  # user 1 at 0.8 times user 2's average SINR
    if method is OptimMethod.SDP_RELAX:
        # the relaxation needs both forms nonzero: no all-zero rows
        z1[:2], z2[:2] = z1[2], z2[2]
    rngs = [np.random.default_rng(900 + i) for i in range(40)]
    block, bound = maxmin_block(np.stack([z1, z2]), method, rngs)
    for i in range(40):
        ch = NonReciprocalChannel(h_t=z2[i], h_r=z1[i], g_t=np.ones(4, dtype=complex),
                                  g_r=np.ones(4, dtype=complex))
        res = solve_maxmin(ch, method, rng=np.random.default_rng(900 + i))
        assert np.array_equal(block[i], res.phases)
        if method is OptimMethod.SDP_RELAX:
            assert bound[i] == res.t_star
        else:
            assert np.isnan(bound[i]) and res.t_star is None


def test_sdp_phases_do_not_depend_on_a_power_of_two_scale():
    """Terms times 2^-550 or 2^520, whose squares leave the doubles, get the
    phases of the unscaled stack bit for bit: each row's form vectors are
    brought to unit size by a power of two before the relaxation and the
    rounding, which is exact."""
    z1, z2 = nonrec_terms(4, 40, 82)
    terms = np.stack([z1, z2])[:, 4:]  # rows with both users' forms nonzero
    def design(t):
        return maxmin_block(t, OptimMethod.SDP_RELAX,
                            [np.random.default_rng(950 + i) for i in range(t.shape[1])])
    phases, bound = design(terms)
    for e in (-550, 520):
        scaled, scaled_bound = design(np.ldexp(terms.view(float), e).view(complex))
        assert np.array_equal(scaled, phases)
        assert np.all(scaled_bound == (0.0 if e < 0 else np.inf))
    assert np.array_equal(design(terms * 2.0 ** -40)[1], bound * 2.0 ** -80)


@pytest.mark.parametrize("L", [1, 2, 4, 8, 16, 32])
def test_stacked_joint_path_agrees_with_bisect(L):
    tol = 1e-3  # keeps the bisection reference affordable
    forms = [build_quadratic_forms(lopsided(nonrec(L, 1000 * L + i), 1.3, 0.7))
             for i in range(20)]
    stack = np.stack([np.stack(f) for f in forms])
    stacked = _sdp_joint(stack, tol)
    bisected = _sdp_bisect(stack, tol)
    for i, f in enumerate(forms):
        alone = sdp_maxmin(f, tol=tol)
        assert alone.t_star == stacked.t_star[i]
        assert np.array_equal(alone.a_star, stacked.a_star[i])
        assert alone.iterations == stacked.iterations[i]
        reference = bisected.t_star[i]
        assert abs(stacked.t_star[i] - reference) <= tol * reference
    for i in (0, 7, 19):  # the one-row bisection is row i of the stack
        alone = _sdp_bisect(forms[i][None], tol)
        assert alone.t_star[0] == bisected.t_star[i]
        assert np.array_equal(alone.a_star[0], bisected.a_star[i])
        assert alone.iterations[0] == bisected.iterations[i]
        assert alone.feasibility_gap[0] == bisected.feasibility_gap[i]


@pytest.mark.parametrize("L", [1, 2, 3, 8, 16, 32])
def test_scaled_optimum_lies_in_the_bisection_bracket(L):
    # in units of the smaller form value at A = I/2, min_p sum_l |z_{p,l}|^2,
    # the relaxation's optimum lies in [1, 2L], the bracket `_sdp_bisect` starts from
    tol = 1e-4
    chans = [lopsided(nonrec(L, 3000 + 10 * L + i), *rhos)
             for i, rhos in enumerate([(1.0, 1.0), (1.0, 50.0), (0.02, 1.0), (3.0, 0.1)])]
    forms = np.stack([np.stack(build_quadratic_forms(ch)) for ch in chans])
    scale = np.array([min(np.sum(np.abs(ch.h_r * ch.g_t) ** 2),
                          np.sum(np.abs(ch.g_r * ch.h_t) ** 2)) for ch in chans])
    scaled = _sdp_joint(forms, tol).t_star / scale
    assert np.all(scaled >= 1.0 - tol) and np.all(scaled <= 2 * L)
    if L == 1:  # the single-element max-min closed form min(|z_1|^2, |z_2|^2)
        for f, expected in zip(forms, scale):
            for t_star in (sdp_maxmin((f[0], f[1]), tol=tol).t_star,
                           _sdp_bisect(f[None], tol).t_star[0]):
                assert t_star == pytest.approx(expected, rel=tol)


def test_stacked_failure_names_its_row(monkeypatch):
    # two rows per sub-batch at L=2, where a row's largest array is the
    # rounding's K draws of 2L values
    monkeypatch.setattr(optim, "_STACK_ELEMENTS", 2 * 4 * optim.RANDOMIZATION_K)
    z1, z2 = nonrec_terms(2, 40, 81)
    z1, z2 = z1[-6:], z2[-6:]
    z1[3] = 0.0  # user 1's form vanishes: no interior start
    rngs = [np.random.default_rng(i) for i in range(6)]
    with pytest.raises(optim.SolverFailureError, match="vanishes") as info:
        maxmin_block(np.stack([z1, z2]), OptimMethod.SDP_RELAX, rngs)
    assert info.value.instance == 3


def _one_instance():
    cfg = SystemConfig(L=2, reciprocity=Reciprocity.NON_RECIPROCAL)
    return sample_channels(cfg, np.random.default_rng(0))


@pytest.mark.parametrize("call, message", [
    (lambda ch: gaussian_randomization(np.eye(2)[None], build_quadratic_forms(ch)[None], 0,
                                       [np.random.default_rng(0)]),
     "need at least one randomization sample"),
    (lambda ch: maxmin_block(np.ones((2, 2, 2)), OptimMethod.SDP_RELAX,
                             [np.random.default_rng(0)]),
     "gaussian randomization needs one RNG per instance"),
    (lambda ch: maxmin_block(np.ones((2, 2, 2)), "u1"),
     "not a max-min search: u1"),
    (lambda ch: build_quadratic_forms(ReciprocalChannel(ch.h_t, ch.g_t)),
     "quadratic forms are defined for non-reciprocal realizations"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call(_one_instance())
