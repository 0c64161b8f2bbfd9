"""Special functions against independently computed 30-digit reference values,
plus quadrature contracts."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ris2way import numerics as nm
from ris2way.numerics import (NonConvergenceError, QuadratureSpec, digamma,
                              erf, integrate_semi_infinite, log_bessel_k,
                              regularized_gamma_p, regularized_gamma_q)

# frozen 30-digit references (mpmath, computed before the build)
K1_AT_2 = 0.13986588181652242728459880703541
P_160995_05 = 0.16847737020856091092223824666470
DIGAMMA_321990 = 1.00610251248667494438009204058231
ERF_1 = 0.84270079294971486934122063508261


def bessel_k(order, x):
    return math.exp(log_bessel_k(order, x))


def test_bessel_k_reference_value():
    assert bessel_k(1, 2.0) == pytest.approx(K1_AT_2, rel=1e-10, abs=0)


def test_bessel_k_small_argument_limit():
    x = 1e-6
    assert x * bessel_k(1, x) == pytest.approx(1.0, rel=1e-5, abs=0)


def test_bessel_k_underflows_to_zero():
    # K_1(800) is below the smallest double; its log still follows the
    # large-argument expansion sqrt(pi/2x) e^-x (1 + 3/8x - 15/2(8x)^2 + 315/6(8x)^3)
    x = 800.0
    assert bessel_k(1, x) == 0.0
    u = 1.0 / (8.0 * x)
    expansion = (0.5 * math.log(math.pi / (2.0 * x)) - x
                 + math.log1p(3.0 * u - 7.5 * u**2 + 52.5 * u**3))
    assert log_bessel_k(1, x) == pytest.approx(expansion, rel=1e-14, abs=0)


def test_bessel_k_range_boundaries():
    # 30-digit references at the working-range edges
    assert bessel_k(1, 700.0) == pytest.approx(4.67311079670796610908e-306, rel=1e-10, abs=0)
    assert bessel_k(1, 1e-8) * 1e-8 == pytest.approx(0.999999999999999048169, rel=1e-10, abs=0)
    assert bessel_k(0, 0.01) == pytest.approx(4.72124473016109496514, rel=1e-10, abs=0)


def test_bessel_k_domain():
    with pytest.raises(ValueError):
        log_bessel_k(1, 0.0)
    with pytest.raises(ValueError):
        log_bessel_k(1, -3.0)


@given(st.floats(min_value=0.01, max_value=50.0))
def test_bessel_k_recurrence(x):
    assert bessel_k(2, x) == pytest.approx(bessel_k(0, x) + (2.0 / x) * bessel_k(1, x),
                                           rel=1e-10, abs=0)


@pytest.mark.parametrize("order,x", [(0, 0.5), (1, 2.0), (5, 1.0), (16, 0.3),
                                     (64, 1e-3), (64, 5.0), (32, 40.0)])
def test_log_bessel_k_matches_integral_oracle(order, x):
    # oracle: K_n(x) = int_0^inf exp(-x cosh t) cosh(n t) dt, evaluated as a
    # log-sum-exp over a dense grid so huge orders stay in range
    t = np.linspace(0.0, 60.0, 400001)
    with np.errstate(over="ignore"):
        exponent = -x * np.cosh(t) + np.logaddexp(order * t, -order * t) - math.log(2.0)
    peak = float(np.max(exponent))
    oracle = peak + math.log(np.trapezoid(np.exp(exponent - peak), t))
    assert log_bessel_k(order, x) == pytest.approx(oracle, rel=1e-8, abs=0)


def test_regularized_gamma_reference_and_quadrature_oracle():
    a = 1.60995
    assert regularized_gamma_p(a, 0.5) == pytest.approx(P_160995_05, rel=1e-12, abs=0)
    # independent oracle: adaptive-grid trapezoid of the defining integral
    x = np.linspace(0.0, 0.5, 2_000_001)[1:]
    oracle = np.trapezoid(x ** (a - 1.0) * np.exp(-x), x) / math.gamma(a)
    assert regularized_gamma_p(a, 0.5) == pytest.approx(oracle, abs=1e-10)


def test_regularized_gamma_edges():
    assert regularized_gamma_p(3.0, 0.0) == 0.0
    for x in (0.1, 1.0, 5.0):
        assert regularized_gamma_p(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        regularized_gamma_p(-1.0, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_p(1.0, -0.5)


@given(st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.0, max_value=30.0),
       st.floats(min_value=1e-3, max_value=5.0))
def test_regularized_gamma_monotone_and_complementary(a, x, dx):
    p1 = regularized_gamma_p(a, x)
    p2 = regularized_gamma_p(a, x + dx)
    assert p2 >= p1
    assert regularized_gamma_p(a, x) + regularized_gamma_q(a, x) == pytest.approx(1.0, abs=1e-12)


def test_digamma_references():
    assert digamma(1.0) == pytest.approx(-0.57721566490153286, rel=1e-12, abs=0)
    assert digamma(3.21990) == pytest.approx(DIGAMMA_321990, rel=1e-10, abs=0)
    with pytest.raises(ValueError):
        digamma(0.0)


@given(st.floats(min_value=0.05, max_value=100.0))
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-9, abs=1e-12)


def test_erf_values():
    assert erf(0.0) == 0.0
    assert erf(1.0) == pytest.approx(ERF_1, abs=1e-12)


@given(st.floats(min_value=-5.0, max_value=5.0))
def test_erf_odd(x):
    assert erf(-x) == pytest.approx(-erf(x), abs=1e-14)


def test_quadrature_exponential():
    value, err = integrate_semi_infinite(lambda x: math.exp(-x))
    assert value == pytest.approx(1.0, rel=1e-10, abs=0)
    assert err < 1e-8


def test_quadrature_rational():
    value, _ = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x) ** 2)
    assert value == pytest.approx(1.0, rel=1e-10, abs=0)


def test_quadrature_rate_integrand_matches_dense_grid_oracle():
    from scipy.special import kv
    rho, sigma2 = 10.0, 1.0

    def integrand(x):
        z = (2.0 / sigma2) * math.sqrt(x / rho)
        ccdf = 1.0 if z == 0 else min(z * kv(1, z), 1.0)
        return ccdf / (1.0 + x)

    # fixed high-resolution trapezoid oracle on a log-spaced grid
    grid = np.concatenate([[0.0], np.logspace(-9, 6, 1_200_001)])
    z = (2.0 / sigma2) * np.sqrt(grid / rho)
    with np.errstate(invalid="ignore"):
        ccdf = np.where(z == 0.0, 1.0, np.minimum(z * kv(1, z), 1.0))
    oracle = np.trapezoid(ccdf / (1.0 + grid), grid)
    value, _ = integrate_semi_infinite(integrand)
    assert value == pytest.approx(oracle, rel=1e-8, abs=0)


def test_quadrature_monotone_in_pointwise_ccdf():
    spec = QuadratureSpec()
    hi, _ = integrate_semi_infinite(lambda x: math.exp(-x) / (1.0 + x), spec)
    lo, _ = integrate_semi_infinite(lambda x: math.exp(-2.0 * x) / (1.0 + x), spec)
    assert hi > lo > 0.0


def test_quadrature_nonconvergence():
    spec = QuadratureSpec(relative_tolerance=1e-13, absolute_tolerance=1e-300,
                          max_subdivisions=1)
    with pytest.raises(NonConvergenceError):
        integrate_semi_infinite(lambda x: math.sin(50.0 * x) ** 2 * math.exp(-0.01 * x), spec)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(relative_tolerance=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)



# ---------------------------------------------------------------------------
# the numpy special-function kernels against scipy.special, on dense grids over
# the domains the library reaches
# ---------------------------------------------------------------------------

K_SHAPE = math.pi**2 / (16.0 - math.pi**2)  # the Gamma fit's shape per element


def test_scaled_bessel_k01_matches_scipy_from_tiny_z_past_underflow():
    """z = (2/sigma^2) sqrt(gamma_th/rho) reaches 1e-160 at the largest
    finite rho; to 4e-16 of mpmath over [1e-300, 1e4], so 1e-14 of scipy."""
    sp = pytest.importorskip("scipy.special")
    x = np.concatenate([np.logspace(-160, 0, 2001), np.linspace(0.5, 3.0, 501),
                        np.logspace(0, math.log10(750.0), 2001)])
    k0, k1 = nm.scaled_bessel_k01(x)
    np.testing.assert_allclose(k0, sp.kve(0, x), rtol=1e-14, atol=0)
    np.testing.assert_allclose(k1, sp.kve(1, x), rtol=1e-14, atol=0)
    # K_1 itself, where scipy's kv is up to 5.5e-14 from mpmath and returns 0
    # from x ~ 697, although K_1 stays a normal double up to x ~ 700; this
    # kernel is within 4.4e-16 of mpmath there and underflows to 0 past 745
    kv1 = k1 * np.exp(-x)
    ref = sp.kv(1, x)
    np.testing.assert_allclose(kv1[ref > 0], ref[ref > 0], rtol=1e-13, atol=0)
    assert np.all(kv1[(ref == 0) & (x < 745.0)] < 1e-300)
    assert np.all(kv1[x > 746.0] == 0.0)
    with pytest.raises(ValueError):
        nm.scaled_bessel_k01(np.array([1.0, 0.0]))


def test_bessel_k1_complement_has_no_cancellation():
    """Both halves of the pair (1 - x K_1(x), x K_1(x)), and its two ends.
    The tail's reference is scipy's scaled kve: its kv is 5.5e-14 off in the
    far tail and returns 0 from x ~ 697."""
    sp = pytest.importorskip("scipy.special")
    x = np.linspace(0.5, 700.0, 4001)
    p, q = nm.xk1_pair(x)
    np.testing.assert_allclose(p, 1.0 - x * sp.kv(1, x), rtol=1e-14, atol=0)
    np.testing.assert_allclose(q, x * sp.kve(1, x) * np.exp(-x), rtol=1e-14, atol=0)
    # small x: (x^2/2) (log(2/x) - gamma + 1/2) up to O(x^4 log x)
    x = np.logspace(-150, -6, 200)
    leading = 0.5 * x * x * (np.log(2.0 / x) - np.euler_gamma + 0.5)
    np.testing.assert_allclose(nm.xk1_pair(x)[0], leading, rtol=1e-10, atol=0)
    p, q = nm.xk1_pair(np.array([0.0, np.inf]))
    assert p.tolist() == [0.0, 1.0] and q.tolist() == [1.0, 0.0]
    with pytest.raises(ValueError):
        nm.xk1_pair(-1.0)


@pytest.mark.parametrize("L", [1, 2, 4, 16, 32, 64])
def test_regularized_gamma_matches_scipy_at_the_library_shapes(L):
    """a = L k; x near a and far from it.  Against 40-digit mpmath the
    smaller tail is within 2.2e-13 for scipy and 2.1e-14 for these kernels;
    values below 1e-300 are subnormal or flushed to 0, as scipy does."""
    sp = pytest.importorskip("scipy.special")
    a = L * K_SHAPE
    x = np.concatenate([np.linspace(max(a - 6.0 * math.sqrt(a), 1e-3), a + 6.0 * math.sqrt(a), 801),
                        np.logspace(-6, 3, 801)])
    p, q = nm.regularized_gamma_p(a, x), nm.regularized_gamma_q(a, x)
    np.testing.assert_allclose(p, sp.gammainc(a, x), rtol=3e-13, atol=1e-300)
    np.testing.assert_allclose(q, sp.gammaincc(a, x), rtol=3e-13, atol=1e-300)
    assert regularized_gamma_p(a, math.inf) == 1.0 and regularized_gamma_q(a, math.inf) == 0.0


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_regularized_gamma_at_the_largest_doubles(a):
    """Below a = 1, x/a overflows for x near the largest double; the density
    there is 0, so P is 1 and Q is 0, as scipy gives, with no warning."""
    sp = pytest.importorskip("scipy.special")
    x = np.array([1e300, 1e308, np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, q = nm.regularized_gamma_p(a, x), nm.regularized_gamma_q(a, x)
    np.testing.assert_array_equal(p, sp.gammainc(a, x))
    np.testing.assert_array_equal(q, sp.gammaincc(a, x))


def test_exp1_matches_scipy_on_both_sides_of_its_split():
    """e^x E1(x) against scipy up to x = 700; past it, where E1 alone
    underflows, against the asymptotic series (1/x) sum_{n<=5} (-1)^n n!/x^n,
    whose relative error is below 720/x^6 < 6.2e-15."""
    sp = pytest.importorskip("scipy.special")
    x = np.concatenate([np.logspace(-300, 0, 1001), np.linspace(0.9, 1.1, 401),
                        np.linspace(1.0, 700.0, 4001)])
    np.testing.assert_allclose(nm.scaled_exp1(x), np.exp(x) * sp.exp1(x), rtol=1e-14, atol=0)
    t = 1.0 / np.logspace(math.log10(700.0), 300, 1001)
    series = t * (1.0 + t * (-1.0 + t * (2.0 + t * (-6.0 + t * (24.0 - 120.0 * t)))))
    np.testing.assert_allclose(nm.scaled_exp1(1.0 / t), series, rtol=1e-14, atol=0)
    assert nm.scaled_exp1(np.inf) == 0.0
    with pytest.raises(ValueError):
        nm.scaled_exp1(0.0)


def test_digamma_and_array_erf_match_scipy():
    sp = pytest.importorskip("scipy.special")
    x = np.concatenate([K_SHAPE * np.arange(1, 65), np.linspace(K_SHAPE, 12.0, 2001),
                        np.logspace(1, 6, 501)])
    np.testing.assert_allclose(digamma(x), sp.digamma(x), rtol=1e-14, atol=0)
    u = np.linspace(-6.0, 6.0, 4001).reshape(-1, 1)
    assert erf(u).shape == u.shape
    np.testing.assert_allclose(erf(u), sp.erf(u), rtol=1e-15, atol=0)


def test_log_gamma_int_has_scipy_gammaln_bits():
    """The phase-scrambled outage's high-power digits follow the last bit of
    log Gamma(L), so the integer log-gamma keeps scipy's bits for n < 1000."""
    sp = pytest.importorskip("scipy.special")
    n = np.arange(1, 1000)
    assert [nm.log_gamma_int(int(v)) for v in n] == sp.gammaln(n).tolist()
    for v in (1000, 4999, 10**6):
        assert nm.log_gamma_int(v) == pytest.approx(math.lgamma(v), rel=1e-15, abs=0)
    with pytest.raises(ValueError):
        nm.log_gamma_int(2.5)


def test_kernels_give_each_element_its_scalar_bits():
    """An element's value does not depend on the rest of the array: the
    series and continued fractions stop per element."""
    rng = np.random.default_rng(7)
    x = np.exp(rng.uniform(-8.0, 7.0, 300))
    for f in (lambda v: nm.scaled_bessel_k01(v)[0], lambda v: nm.scaled_bessel_k01(v)[1],
              lambda v: nm.xk1_pair(v)[0], lambda v: nm.xk1_pair(v)[1],
              nm.scaled_exp1, digamma, erf,
              lambda v: regularized_gamma_p(16 * K_SHAPE, v),
              lambda v: regularized_gamma_q(K_SHAPE, v)):
        assert np.asarray(f(x)).tolist() == [float(f(np.array([v]))[0]) for v in x]


@pytest.mark.parametrize("call, message", [
    (lambda: log_bessel_k(1.5, 1.0), "order must be a nonnegative integer"),
    (lambda: log_bessel_k(0, 0.0), "log_bessel_k requires x > 0"),
    (lambda: nm.log_gamma_int(2.5), "log_gamma_int needs an integer n >= 1"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
