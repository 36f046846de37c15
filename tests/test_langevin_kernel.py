"""Tests for the unadjusted Langevin kernel and its step-size guard."""
import math

import numpy as np
import pytest

from stlmc import (
    GaussianMixture,
    LangevinParams,
    NonFiniteGradientError,
    PerturbedTarget,
    SinusoidalPerturbation,
    check_step_size,
    langevin_step,
    run_macro_step,
)


class _BadGradient:
    d = 1
    sigma2 = 1.0

    def grad(self, x):
        return np.full_like(np.asarray(x, dtype=float), np.nan)


def test_params_validation():
    with pytest.raises(ValueError):
        LangevinParams(eta=0.0, T=1.0)
    with pytest.raises(ValueError):
        LangevinParams(eta=0.1, T=-1.0)
    with pytest.raises(ValueError):
        LangevinParams(eta=0.1, T=1.0, beta=1.5)
    with pytest.raises(ValueError):
        LangevinParams(eta=0.1, T=1.0, beta=-0.1)


def test_steps_per_macro_rounding():
    assert LangevinParams(eta=0.1, T=0.5).steps_per_macro == 5
    assert LangevinParams(eta=0.3, T=1.0).steps_per_macro == 3
    # T shorter than one step still performs a single step
    assert LangevinParams(eta=0.1, T=0.04).steps_per_macro == 1


def test_check_step_size(desk):
    check_step_size(LangevinParams(eta=0.5, T=1.0), desk)
    with pytest.raises(ValueError, match="sigma2"):
        check_step_size(LangevinParams(eta=0.51, T=1.0), desk)
    small = GaussianMixture([1.0], [[0.0]], 0.1)
    with pytest.raises(ValueError):
        check_step_size(LangevinParams(eta=0.1, T=1.0), small)


def test_check_step_size_counts_perturbation_curvature(desk):
    # the sinusoid adds up to |A| d / s^2 to the Hessian: A = 2, s = 0.5
    # gives 8, so eta <= 1 / (2 (1 + 8)) = 1/18 and eta = 0.1 is refused
    sharp = PerturbedTarget(desk, SinusoidalPerturbation(2.0, 0.5))
    assert sharp.curvature == 8.0
    with pytest.raises(ValueError, match="curvature"):
        check_step_size(LangevinParams(eta=0.1, T=0.5), sharp)
    check_step_size(LangevinParams(eta=1.0 / 18.0, T=0.5), sharp)
    # the perturbations the tests and the benchmark run stay accepted
    quad = GaussianMixture([0.25] * 4, [[-2, -2], [-2, 2], [2, -2], [2, 2]], 1.0)
    for base in (desk, quad):
        for scale in (1.0, 1.5):
            mild = PerturbedTarget(base, SinusoidalPerturbation(0.2, scale))
            check_step_size(LangevinParams(eta=0.1, T=0.5), mild)
    # a flat perturbation keeps the plain mixture's sigma2 / 2 exactly
    flat = PerturbedTarget(desk, SinusoidalPerturbation(0.0))
    check_step_size(LangevinParams(eta=0.5, T=1.0), flat)
    with pytest.raises(ValueError, match="sigma2/2"):
        check_step_size(LangevinParams(eta=0.5 + 1e-9, T=1.0), flat)


def test_langevin_step_formula():
    g = GaussianMixture([1.0], [[0.0]], 1.0)
    params = LangevinParams(eta=0.1, T=1.0, beta=0.5)
    x = np.array([2.0])
    noise = np.array([0.3])
    out = langevin_step(g, params, x, noise)
    expected = 2.0 - 0.1 * 0.5 * 2.0 + math.sqrt(0.2) * 0.3
    np.testing.assert_allclose(out, [expected])
    # batched points step independently
    xs = np.array([[2.0], [-1.0]])
    ns = np.array([[0.3], [0.0]])
    out = langevin_step(g, params, xs, ns)
    np.testing.assert_allclose(out[0], [expected])
    np.testing.assert_allclose(out[1], [-1.0 + 0.05])


def test_langevin_step_shape_mismatch():
    g = GaussianMixture([1.0], [[0.0]], 1.0)
    with pytest.raises(ValueError, match="shape"):
        langevin_step(g, LangevinParams(0.1, 1.0), np.zeros(1), np.zeros(2))


def test_non_finite_gradient_raises():
    with pytest.raises(NonFiniteGradientError) as exc:
        langevin_step(_BadGradient(), LangevinParams(0.01, 1.0), np.zeros(1), np.zeros(1))
    assert exc.value.x.shape == (1,)


def test_run_macro_step_equals_unrolled_steps():
    mix = GaussianMixture([0.4, 0.6], [[-1.0], [2.0]], 1.0)
    params = LangevinParams(eta=0.1, T=0.5, beta=0.8)
    x0 = np.array([[0.5], [-0.5], [3.0]])
    out = run_macro_step(mix, params, x0.copy(), np.random.default_rng(7))
    rng = np.random.default_rng(7)
    x = x0.copy()
    for _ in range(5):
        x = langevin_step(mix, params, x, rng.standard_normal(x.shape))
    np.testing.assert_allclose(out, x)


def test_stationary_variance_matches_ar1_prediction():
    # for a centered Gaussian target the update is an AR(1) recursion
    # with stationary variance 1 / (1 - eta/2)
    g = GaussianMixture([1.0], [[0.0]], 1.0)
    eta = 0.1
    params = LangevinParams(eta=eta, T=1.0, beta=1.0)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2000, 1))
    for _ in range(10):
        x = run_macro_step(g, params, x, rng)
    predicted = 1.0 / (1.0 - eta / 2.0)
    ratio = float(np.mean(x**2)) / predicted
    assert 0.93 <= ratio <= 1.08


def test_variance_scale_equivalence():
    # rescaling space by sigma maps the sigma2 target onto the unit one;
    # the same trajectory results when eta scales by sigma2 and the two
    # chains share a noise stream
    sigma = math.sqrt(2.0)
    unit = GaussianMixture([0.5, 0.5], [[-1.5], [1.5]], 1.0)
    orig = GaussianMixture([0.5, 0.5], [[-1.5 * sigma], [1.5 * sigma]], sigma**2)
    pu = LangevinParams(eta=0.05, T=0.05, beta=0.5)
    po = LangevinParams(eta=0.05 * sigma**2, T=0.05 * sigma**2, beta=0.5)
    rng = np.random.default_rng(17)
    y = np.array([0.7])
    x = sigma * y
    for _ in range(50):
        xi = rng.standard_normal(1)
        y = langevin_step(unit, pu, y, xi)
        x = langevin_step(orig, po, x, xi)
    np.testing.assert_allclose(x, sigma * y, atol=1e-9)
