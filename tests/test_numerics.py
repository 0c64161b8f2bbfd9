"""Special functions against independently computed 30-digit reference values,
plus quadrature contracts."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

