"""Closed forms against frozen references, Monte Carlo oracles, and asymptotic
self-consistency."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from ris2way import analytic as an
from ris2way.channel import Scheme, SystemConfig, sweep_rho
from ris2way.numerics import (NonConvergenceError, QuadratureSpec,
                              integrate_semi_infinite)

K_REF = 1.6099457599185225      # pi^2/(16-pi^2)
THETA_REF = 0.4878413813377144  # (16-pi^2)/(4 pi), sigma2=1
OUT_L1_REF = 0.7202682363669551  # 1 - 2 K1(2)
CROSSOVER_DBM = {2: 17.495567352187408, 16: -1.8144996364813814,
                 64: -13.983170678166517}
DELTA_P_2_16 = 19.310066988668790
DELTA_P_16_64 = 12.168671041685136
KL_SIGMA1 = 2.2989918962881927e-4
KL_30_DIGITS = 2.2989918962736978633688983349e-4  # mpmath, 30 digits


def cascade_sums(L, rho, trials, seed, sigma2=1.0):
    """Independent oracle: optimal-phase SINR draws, straight from Rayleigh draws."""
    rng = np.random.default_rng(seed)
    scale = math.sqrt(sigma2 / 2.0)
    s = np.zeros(trials)
    for _ in range(L):
        s += rng.rayleigh(scale, trials) * rng.rayleigh(scale, trials)
    return rho * s**2


def test_gamma_params_reference():
    p = an.gamma_approx_params(1.0)
    assert p.k == pytest.approx(K_REF, rel=1e-12, abs=0)
    assert p.theta == pytest.approx(THETA_REF, rel=1e-12, abs=0)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_gamma_params_moment_identities(sigma2):
    p = an.gamma_approx_params(sigma2)
    assert p.k * p.theta == pytest.approx(math.pi * sigma2 / 4.0, rel=1e-12, abs=0)
    assert p.k * p.theta**2 == pytest.approx((16 - math.pi**2) * sigma2**2 / 16.0,
                                             rel=1e-12, abs=0)


def test_outage_exact_l1_reference_points():
    assert an.outage_exact_L1(1.0, 1.0, 1.0) == pytest.approx(OUT_L1_REF, rel=1e-12, abs=0)
    assert an.outage_exact_L1(0.0, 5.0, 1.0) == 0.0
    assert an.outage_exact_L1(1e9, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_exact_l1_pair_ends_at_zero_and_infinite_thresholds():
    """z = inf gives outage 1 and tail 0, z = 0 gives 0 and 1, with no warning."""
    gamma_th = np.array([np.inf, 1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outage = an.outage_exact_L1(gamma_th, 1.0)
        ccdf = an.ccdf_exact_L1(gamma_th, 1.0)
    assert outage[[0, 2]].tolist() == [1.0, 0.0] and ccdf[[0, 2]].tolist() == [0.0, 1.0]
    assert outage[1] == pytest.approx(OUT_L1_REF, rel=1e-12, abs=0)
    assert ccdf[1] == pytest.approx(1.0 - OUT_L1_REF, rel=1e-12, abs=0)


@given(st.floats(min_value=1e-4, max_value=1e4),
       st.floats(min_value=1e-2, max_value=1e6),
       st.floats(min_value=1.01, max_value=4.0))
def test_outage_exact_l1_monotonicity(gamma_th, rho, factor):
    base = an.outage_exact_L1(gamma_th, rho)
    assert 0.0 <= base <= 1.0
    assert an.outage_exact_L1(gamma_th * factor, rho) >= base
    assert an.outage_exact_L1(gamma_th, rho * factor) <= base


def test_outage_gamma_reduces_to_elementwise_gamma_cdf():
    p = an.gamma_approx_params(1.0)
    # same formula evaluated through an independent scipy path
    for l, gth, rho in [(2, 1.0, 50.0), (4, 0.3, 10.0), (16, 2.0, 1e3)]:
        mine = an.outage_gamma_Lge2(l, gth, rho)
        ref = special.gammainc(l * p.k, math.sqrt(gth / rho) / p.theta)
        assert mine == pytest.approx(ref, rel=1e-12, abs=0)
    assert an.outage_gamma_Lge2(4, 0.0, 10.0) == 0.0


def test_outage_gamma_matches_simulation_at_spec_point():
    # deep-tail point: both the formula and the empirical rate are ~0 at this rho
    gamma = cascade_sums(4, 1e4, 10_000_000, seed=42)
    mc = np.mean(gamma <= 1.0)
    ana = an.outage_gamma_Lge2(4, 1.0, 1e4)
    se = math.sqrt(max(ana * (1 - ana), 1e-12 / 3) / gamma.size)
    assert abs(mc - ana) <= 3 * se


def test_outage_gamma_matches_simulation_waterfall_region():
    gamma = cascade_sums(16, 100.0, 400_000, seed=7)
    for gth in (10.0, 40.0, 100.0):
        mc = np.mean(gamma <= gth)
        ana = an.outage_gamma_Lge2(16, gth, 100.0)
        # moment-matched fit: accurate to a few 1e-3 absolute in the waterfall
        assert ana == pytest.approx(mc, abs=max(5e-3, 0.1 * mc))


@given(st.floats(min_value=1.0, max_value=100.0))
def test_outage_gamma_monotone_in_rho(rho):
    assert (an.outage_gamma_Lge2(4, 1.0, rho * 2.0)
            <= an.outage_gamma_Lge2(4, 1.0, rho))


def test_outage_clt_zero_threshold():
    assert an.outage_clt(16, 0.0, 10.0) == pytest.approx(0.0, abs=1e-15)


def test_outage_clt_tracks_simulation_large_l():
    # the Gaussian limit carries ~1.3e-2 absolute error at the waterfall center
    # for 64 elements (and less on the flanks); assert the measured truth
    gamma = cascade_sums(64, 1.0, 200_000, seed=11)
    for gth, tol in ((1600.0, 0.01), (2500.0, 0.015), (3600.0, 0.01)):
        mc = np.mean(gamma <= gth)
        if mc >= 1e-3:
            assert an.outage_clt(64, gth, 1.0) == pytest.approx(mc, abs=tol)


def test_phase_error_law_reduces_to_single_element():
    for gth, rho in [(0.5, 10.0), (1.0, 123.0), (4.0, 7.0)]:
        assert (an.outage_phase_error_uniform_pi(1, gth, rho)
                == pytest.approx(float(an.outage_exact_L1(gth, rho)), rel=1e-9, abs=0))
    assert an.outage_phase_error_uniform_pi(4, 0.0, 10.0) == 0.0


def test_phase_error_law_writes_no_negative_zero():
    # at L = 5000 and z ~ 6e-5 the log tail rounds to 0, so the outage is a zero,
    # and a CSV cell must read 0.0, not -0.0
    for out in (an.outage_phase_error_uniform_pi(5000, 1e-9, 1.0),
                *an.outage_phase_error_uniform_pi(5000, np.array([1e-9, 1e-10]), 1.0)):
        assert out == 0.0 and math.copysign(1.0, out) == 1.0


def test_phase_error_law_matches_scrambled_simulation():
    rng = np.random.default_rng(13)
    L, rho, trials = 4, 1e3, 400_000
    amp = rng.rayleigh(math.sqrt(0.5), (trials, L)) * rng.rayleigh(math.sqrt(0.5), (trials, L))
    eps = rng.uniform(-math.pi, math.pi, (trials, L))
    gamma = rho * np.abs(np.sum(amp * np.exp(1j * eps), axis=1)) ** 2
    for gth in (0.5, 1.0, 5.0):
        mc = float(np.mean(gamma <= gth))
        ana = an.outage_phase_error_uniform_pi(L, gth, rho)
        se = math.sqrt(mc * (1 - mc) / trials)
        assert abs(mc - ana) <= 3 * se


def test_spectral_efficiency_exact_l1_matches_simulation():
    rho = 100.0
    se_quad = an.se_exact_L1(rho)
    gamma = cascade_sums(1, rho, 1_000_000, seed=17)
    se_mc = np.mean(np.log2(1.0 + gamma))
    assert se_quad == pytest.approx(se_mc, rel=5e-3, abs=0)


def test_spectral_efficiency_gamma_matches_simulation():
    rho = 1e3
    se_quad = an.se_gamma(16, rho)
    gamma = cascade_sums(16, rho, 200_000, seed=19)
    se_mc = np.mean(np.log2(1.0 + gamma))
    assert se_quad == pytest.approx(se_mc, rel=0.01, abs=0)


def quadpack_se(ccdf, mean, half_rate):
    """Adaptive-quadrature oracle for E[log2(1 + X)] = int ccdf(x) / (1 + x) dx / ln 2.

    Integrated in t = x / min(E[X], 1): at rho sigma^4 ~ 1e-5 all the mass
    sits below x ~ 1e-5, where the semi-infinite map puts no node and the
    unscaled integral comes back as 0.
    """
    s = min(mean, 1.0)
    value, _ = integrate_semi_infinite(lambda t: s * ccdf(s * t) / (1.0 + s * t))
    return value / math.log(2.0) * (0.5 if half_rate else 1.0)


def test_spectral_efficiency_equals_generic_cdf_route():
    rho = 50.0
    p = an.gamma_approx_params(1.0)
    a = 2 * p.k

    def ccdf(x):
        return float(special.gammaincc(a, math.sqrt(x / rho) / p.theta))

    mean = rho * p.theta**2 * a * (a + 1)
    via_cdf = quadpack_se(ccdf, mean, False)
    assert via_cdf == pytest.approx(an.se_gamma(2, rho), rel=1e-8, abs=0)
    assert (an.se_gamma(2, rho, half_rate=True)
            == pytest.approx(quadpack_se(ccdf, mean, True), rel=1e-8, abs=0))


@pytest.mark.parametrize("L", [1, 2, 4, 16, 64, 256])
def test_se_rule_matches_adaptive_quadrature(L):
    for sigma2 in (0.3, 1.0, 2.5):
        p = an.gamma_approx_params(sigma2)
        a = L * p.k
        for rho, half in ((1e-4, False), (1e-1, True), (1e3, False), (1e9, True)):
            def gamma_ccdf(x):
                return float(special.gammaincc(a, math.sqrt(x / rho) / p.theta))

            def scrambled_ccdf(x):
                z = (2.0 / sigma2) * math.sqrt(x / rho)
                if z == 0.0:
                    return 1.0
                return min(math.exp(an._log_cascade_ccdf_uniform_phase(L, z)), 1.0)

            ref = quadpack_se(gamma_ccdf, rho * p.theta**2 * a * (a + 1), half)
            assert (an.se_gamma(L, rho, sigma2, half_rate=half)
                    == pytest.approx(ref, rel=1e-9, abs=0))
            ref = quadpack_se(scrambled_ccdf, rho * sigma2**2 * L, half)
            assert (an.se_phase_error_uniform_pi(L, rho, sigma2, half_rate=half)
                    == pytest.approx(ref, rel=1e-9, abs=0))


def test_se_exact_l1_is_the_scrambled_law_at_one_element():
    for sigma2 in (0.3, 1.0, 2.5):
        for rho in (1e-4, 1.0, 1e9):
            assert an.se_exact_L1(rho, sigma2) == an.se_phase_error_uniform_pi(1, rho, sigma2)


def test_se_rule_reports_unreachable_tolerance(monkeypatch):
    monkeypatch.setattr(an, "_GAMMA_RULE_TOL", (1e-16, 1e-300))
    with pytest.raises(NonConvergenceError) as info:
        an.se_exact_L1(1e3, 1.0)
    assert info.value.value > 0
    assert info.value.error_estimate > 0


@pytest.mark.parametrize("rho", [0.0, -1.0])
def test_se_closed_forms_reject_nonpositive_rho(rho):
    for se in (lambda: an.se_gamma(2, rho), lambda: an.se_exact_L1(rho),
               lambda: an.se_phase_error_uniform_pi(4, rho)):
        with pytest.raises(ValueError, match="rho must be > 0"):
            se()
    # the same values as sigma^2: the laws that fit their own parameters reject them
    sigma2 = rho
    for law in (lambda: an.se_gamma(2, 1.0, sigma2),
                lambda: an.outage_gamma_Lge2(2, 1.0, 1.0, sigma2),
                lambda: an.outage_clt(2, 1.0, 1.0, sigma2)):
        with pytest.raises(ValueError, match="sigma2 must be > 0"):
            law()


def test_se_closed_forms_return_python_floats():
    assert type(an.se_gamma(2, 10.0)) is float
    assert type(an.se_exact_L1(10.0)) is float
    assert type(an.se_phase_error_uniform_pi(4, 10.0)) is float


def _sweep_rhos():
    """rho at every point of the fig3-fig6 power grids (-80..40 dBm in 2 dB
    steps): one-slot at nu 0 and 1, and two-slot, at the CLI's default noise
    and omega, as the CLI computes them."""
    rhos = []
    for p_dbm in range(-80, 41, 2):
        p_mw = 10.0 ** (p_dbm / 10.0)
        for over in ({"nu": 0.0}, {"nu": 1.0}, {"scheme": Scheme.TWO}):
            cfg = SystemConfig(L=1, noise_mw=1e-7, omega=1e-4, **over)
            rhos.append(sweep_rho(cfg, [p_mw])[0])
    return np.array(rhos)


def test_closed_forms_over_a_rho_vector_equal_scalar_calls():
    """One call over a whole power grid gives each point's bits exactly."""
    rhos = _sweep_rhos()
    laws = [(lambda r, h=h: an.se_exact_L1(r, 1.0, half_rate=h)) for h in (False, True)]
    laws += [lambda r: an.outage_exact_L1(1.0, r), lambda r: an.outage_exact_L1(2.0, r, 0.5)]
    for L in (2, 4, 16, 32, 64):
        laws += [(lambda r, L=L, h=h: an.se_gamma(L, r, half_rate=h)) for h in (False, True)]
        laws += [lambda r, L=L: an.outage_gamma_Lge2(L, 1.0, r),
                 lambda r, L=L: an.outage_clt(L, 1.0, r)]
    for L in (4, 16, 32):
        laws += [(lambda r, L=L, h=h: an.se_phase_error_uniform_pi(L, r, 1.0, half_rate=h))
                 for h in (False, True)]
        laws += [lambda r, L=L: an.outage_phase_error_uniform_pi(L, 1.0, r)]
    for law in laws:
        assert np.asarray(law(rhos)).tolist() == [float(law(r)) for r in rhos]


def test_vector_se_raises_the_scalar_error_of_its_first_failing_point(monkeypatch):
    """A tolerance that only rho = 1e-2 misses (at L=2 its error estimate is
    7e-14 relative, the others' 1e-15 to 3.2e-14): the vector call raises what
    the scalar call at that point raises."""
    monkeypatch.setattr(an, "_GAMMA_RULE_TOL", (5e-14, 1e-300))
    rhos = [1e-3, 1e-1, 1e-2, 1.0, 1e-2]
    for r in (1e-3, 1e-1, 1.0):
        an.se_gamma(2, r)
    with pytest.raises(NonConvergenceError) as scalar:
        an.se_gamma(2, 1e-2)
    with pytest.raises(NonConvergenceError) as vector:
        an.se_gamma(2, np.array(rhos))
    assert str(vector.value) == str(scalar.value)
    assert type(vector.value.value) is float
    assert vector.value.value == scalar.value.value
    assert vector.value.error_estimate == scalar.value.error_estimate


def test_asymptotic_outage_floor_is_exact_value_at_interference_limit():
    assert (an.asymptotic_outage(1, 1.0, 1e5, 1e-4, 1.0, 1e-7)
            == pytest.approx(float(an.outage_exact_L1(1.0, 1e4)), rel=1e-12, abs=0))
    assert (an.asymptotic_outage(4, 1.0, 1e5, 1e-4, 1.0, 1e-7)
            == pytest.approx(float(an.outage_gamma_Lge2(4, 1.0, 1e4)), rel=1e-12, abs=0))


def test_asymptotic_outage_ratio_stabilizes():
    vals = []
    for p_mw in (1e6, 1e8):
        exact = float(an.outage_exact_L1(1.0, p_mw / (1e-4 + 1e-7)))
        vals.append(exact / an.asymptotic_outage(1, 1.0, p_mw, 1e-4, 0.0, 1e-7))
    assert abs(vals[0] / vals[1] - 1.0) < 0.10


def test_asymptotic_outage_single_element_domain():
    # log(rho)/rho is no probability for rho <= 1; above, the formula is unchanged
    for p_mw in (1e-5, 1e-4 + 1e-7):
        with pytest.raises(ValueError, match="exceed 1"):
            an.asymptotic_outage(1, 1.0, p_mw, 1e-4, 0.0, 1e-7)
    rho = 1e-3 / (1e-4 + 1e-7)
    assert (an.asymptotic_outage(1, 2.0, 1e-3, 1e-4, 0.0, 1e-7, sigma2=0.5)
            == 2.0 / 0.25 * math.log(rho) / rho)


def test_sandwich_bounds_bracket_simulation():
    for L, rho in [(2, 100.0), (4, 3.0)]:
        gamma = cascade_sums(L, rho, 2_000_000, seed=23)
        mc = float(np.mean(gamma <= 1.0))
        assert mc > 0  # measurable points only
        lo, up = an.sandwich_bounds_Lge2(L, 1.0, rho)
        se = math.sqrt(mc * (1 - mc) / gamma.size)
        assert lo <= mc + 3 * se
        assert mc - 3 * se <= up


def test_asymptotic_se_reference_value():
    assert (an.asymptotic_se(1, 1e6, 1e-4, 0.0, 1e-7)
            == pytest.approx(31.552346620145983, rel=1e-12, abs=0))
    quad = an.se_exact_L1(1e6 / (1e-4 + 1e-7))
    assert abs(an.asymptotic_se(1, 1e6, 1e-4, 0.0, 1e-7) - quad) < 0.05


@pytest.mark.parametrize("scheme", [Scheme.ONE, Scheme.TWO])
def test_asymptotic_se_domain(scheme):
    # the log-growth law is no rate where it is <= 0; the nu = 1 floor is one at any P
    for p_mw in (1e-11, 1e-8):
        with pytest.raises(ValueError, match=f"at P = {p_mw:g} mW"):
            an.asymptotic_se(1, p_mw, 1e-4, 0.0, 1e-7, scheme=scheme)
    assert an.asymptotic_se(4, 1e3, 1e-4, 0.0, 1e-7, scheme=scheme) > 0
    assert an.asymptotic_se(1, 1e-11, 1e-4, 1.0, 1e-7) == an.se_exact_L1(1e4)


def test_asymptotic_se_floor_equals_quadrature_floor():
    assert (an.asymptotic_se(4, 1e5, 1e-4, 1.0, 1e-7)
            == pytest.approx(an.se_gamma(4, 1e4), rel=1e-12, abs=0))


def test_se_asymptote_gap_shrinks_with_power():
    # quadrature rate and its large-power expansion differ by o(1)
    def gap(rho):
        asymptote = (math.log(rho) - 2 * 0.5772156649015329) / math.log(2)
        return abs(an.se_exact_L1(rho) - asymptote)

    assert gap(1e8) < gap(1e6)


def test_se_grows_one_log2_decade_per_power_decade():
    for L in (1, 2, 4):
        if L == 1:
            gap = an.se_exact_L1(1e8) - an.se_exact_L1(1e6)
        else:
            gap = an.se_gamma(L, 1e8) - an.se_gamma(L, 1e6)
        assert gap == pytest.approx(math.log2(100.0), rel=0.02, abs=0)


def test_delta_values():
    k = an.gamma_approx_params(1.0).k
    assert an.delta_p(2, 2, k) == 0.0
    assert an.delta_r(4, 4, k) == 0.0
    assert an.delta_p(2, 16, k) == pytest.approx(DELTA_P_2_16, abs=1e-9)
    assert an.delta_p(16, 64, k) == pytest.approx(DELTA_P_16_64, abs=1e-9)
    assert an.delta_r(2, 16, k) == pytest.approx(2 * DELTA_P_2_16 / (20 * math.log10(math.e))
                                                 / math.log(2), rel=1e-12, abs=0)


def test_crossover_power_reference_values():
    for L, ref in CROSSOVER_DBM.items():
        got = 10 * math.log10(an.scheme_crossover_power(L, 1e-4, 0.0, 1e-10))
        assert got == pytest.approx(ref, abs=1e-9)


def test_crossover_power_noise_floor_scaling():
    # omega -> 0: boundary proportional to the noise power
    lo = an.scheme_crossover_power(2, 1e-18, 0.0, 1e-10)
    hi = an.scheme_crossover_power(2, 1e-18, 0.0, 1e-8)
    assert hi / lo == pytest.approx(100.0, rel=1e-6, abs=0)


def test_crossover_is_intersection_of_asymptotic_se():
    # the closed form must equal the power where the two schemes' asymptotic
    # rates intersect
    for L in (1, 2, 16):
        boundary = an.scheme_crossover_power(L, 1e-4, 0.0, 1e-10)

        def gap(p_mw):
            return (an.asymptotic_se(L, p_mw, 1e-4, 0.0, 1e-10, scheme=Scheme.ONE)
                    - an.asymptotic_se(L, p_mw, 1e-4, 0.0, 1e-10, scheme=Scheme.TWO))

        assert abs(gap(boundary)) < 1e-9
        assert gap(boundary * 1.5) > 0 > gap(boundary / 1.5)


def test_crossover_interference_limited_branch():
    # nu=1: upper power bound below which the one-slot scheme still wins
    p1 = an.scheme_crossover_power(1, 1e-4, 1.0, 1e-10)
    p4 = an.scheme_crossover_power(4, 1e-4, 1.0, 1e-10)
    assert p1 > 0 and p4 > 0
    # the bound solves R_two(P) = R_floor: check by direct evaluation
    r_floor = an.se_exact_L1(1e4)
    r_two = an.asymptotic_se(1, p1, 1e-4, 1.0, 1e-10, scheme=Scheme.TWO)
    assert r_two == pytest.approx(r_floor, rel=1e-9, abs=0)


def quadpack_kl(sigma2):
    """Adaptive-quadrature oracle: the divergence with E[log K_0(2T/sigma^2)]
    integrated against the exact density 4 t K_0(2t/sigma^2) / sigma^4 in t."""
    p = an.gamma_approx_params(sigma2)

    def integrand(t):
        z = 2.0 * t / sigma2
        log_k0 = math.log(special.kve(0, z)) - z
        return 4.0 * t * math.exp(log_k0) / sigma2**2 * log_k0

    spec = QuadratureSpec(relative_tolerance=1e-10, absolute_tolerance=1e-13,
                          max_subdivisions=400)
    expect_log_k0, _ = integrate_semi_infinite(integrand, spec)
    return (math.pi * sigma2 / (4.0 * p.theta) + p.k * math.log(p.theta / sigma2)
            + an.EULER_GAMMA * (p.k - 2.0) + math.log(4.0 * math.gamma(p.k))
            + expect_log_k0)


@pytest.mark.parametrize("sigma2", [0.01, 0.3, 1.0, 100.0])
def test_kl_rule_matches_adaptive_quadrature(sigma2):
    kl = an.kl_divergence_gamma_fit(sigma2)
    assert kl == pytest.approx(quadpack_kl(sigma2), rel=1e-9, abs=0)
    assert kl == pytest.approx(KL_30_DIGITS, rel=1e-10, abs=0)


def test_kl_rule_reports_unreachable_tolerance(monkeypatch):
    monkeypatch.setattr(an, "_KL_RULE_TOL", (1e-16, 1e-300))
    with pytest.raises(NonConvergenceError) as info:
        an.kl_divergence_gamma_fit(1.0)
    assert info.value.value < 0  # E[log K_0(S)] ~ -1.504
    assert info.value.error_estimate > 0


def test_kl_divergence_reference_and_scale_invariance():
    v1 = an.kl_divergence_gamma_fit(1.0)
    assert v1 == pytest.approx(KL_SIGMA1, rel=1e-6, abs=0)
    assert v1 >= 0.0
    values = [an.kl_divergence_gamma_fit(s2) for s2 in (0.01, 1.0, 100.0)]
    assert max(values) / min(values) < 1.3


def test_gamma_formula_internal_consistency_at_l1():
    from ris2way.numerics import regularized_gamma_p
    p = an.gamma_approx_params(1.0)
    direct = regularized_gamma_p(p.k, math.sqrt(0.7 / 30.0) / p.theta)
    # formula extended to a single element (internal consistency only)
    assert special.gammainc(1 * p.k, math.sqrt(0.7 / 30.0) / p.theta) == pytest.approx(direct)


@pytest.mark.parametrize("call, message", [
    (lambda: an.outage_gamma_Lge2(1, 1.0, 1.0), "gamma-approximation outage is for L >= 2"),
    (lambda: an.sandwich_bounds_Lge2(1, 1.0, 1.0), "bounds apply for L >= 2"),
    (lambda: an.asymptotic_outage(4, 1.0, 10.0, 1e-4, 0.5, 1e-7),
     r"large-power laws are handled for nu in \{0, 1\} only, got 0.5"),
    (lambda: an.asymptotic_se(4, 10.0, 1e-4, 0.5, 1e-7),
     r"large-power laws are handled for nu in \{0, 1\} only, got 0.5"),
    (lambda: an.delta_r(4, 2, K_REF), "need L2 >= L1 >= 1"),
    (lambda: an.delta_p(4, 2, K_REF), "need L2 >= L1 >= 1"),
    (lambda: an.kl_divergence_gamma_fit(0.0), "sigma2 must be > 0"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
