"""Tests for the unadjusted Langevin kernel and its step-size guard."""
import math

import numpy as np
import pytest

from stlmc.errors import NonFiniteGradientError
from stlmc.langevin_kernel import check_step_size, run_macro_step
from stlmc.mixture_target import GaussianMixture, PerturbedTarget
from stlmc.tempering_chain import RunParams


class _BadGradient:
    d = 1
    sigma2 = 1.0

    def f_and_grad(self, x, *, value=True):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[0]), np.full_like(x, np.nan)


class _FixedNoise:
    """Stands in for a generator whose every normal draw is ``values``."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def standard_normal(self, shape):
        return self.values.reshape(shape)


def test_steps_per_macro_rounding():
    assert RunParams(eta=0.1, T=0.5, t=1).steps_per_macro == 5
    assert RunParams(eta=0.3, T=1.0, t=1).steps_per_macro == 3
    # T shorter than one step still performs a single step
    assert RunParams(eta=0.1, T=0.04, t=1).steps_per_macro == 1


def test_check_step_size(desk):
    check_step_size(0.5, desk)
    with pytest.raises(ValueError, match="sigma2"):
        check_step_size(0.51, desk)
    small = GaussianMixture([1.0], [[0.0]], 0.1)
    with pytest.raises(ValueError):
        check_step_size(0.1, small)


def test_check_step_size_counts_perturbation_curvature(desk):
    # the sinusoid adds up to |A| d / s^2 to the Hessian: A = 2, s = 0.5
    # gives 8, so eta <= 1 / (2 (1 + 8)) = 1/18 and eta = 0.1 is refused
    sharp = PerturbedTarget(desk, 2.0, 0.5)
    assert sharp.curvature == 8.0
    with pytest.raises(ValueError, match="curvature"):
        check_step_size(0.1, sharp)
    check_step_size(1.0 / 18.0, sharp)
    # the perturbations the tests and the benchmark run stay accepted
    quad = GaussianMixture([0.25] * 4, [[-2, -2], [-2, 2], [2, -2], [2, 2]], 1.0)
    for base in (desk, quad):
        for scale in (1.0, 1.5):
            mild = PerturbedTarget(base, 0.2, scale)
            check_step_size(0.1, mild)
    # a flat perturbation keeps the plain mixture's sigma2 / 2 exactly
    flat = PerturbedTarget(desk, 0.0)
    check_step_size(0.5, flat)
    with pytest.raises(ValueError, match="sigma2/2"):
        check_step_size(0.5 + 1e-9, flat)


def test_langevin_step_formula():
    g = GaussianMixture([1.0], [[0.0]], 1.0)
    out = run_macro_step(g, np.array([2.0]), _FixedNoise([0.3]), 0.1, 1, beta=0.5)
    expected = 2.0 - 0.1 * 0.5 * 2.0 + math.sqrt(0.2) * 0.3
    np.testing.assert_allclose(out, [expected])
    # batched points step independently
    xs = np.array([[2.0], [-1.0]])
    out = run_macro_step(g, xs, _FixedNoise([[0.3], [0.0]]), 0.1, 1, beta=0.5)
    np.testing.assert_allclose(out[0], [expected])
    np.testing.assert_allclose(out[1], [-1.0 + 0.05])


def test_non_finite_gradient_raises():
    with pytest.raises(NonFiniteGradientError) as exc:
        run_macro_step(_BadGradient(), np.zeros(1), np.random.default_rng(0), 0.01, 1)
    assert exc.value.x.shape == (1,)


def _unrolled_steps(target, x, rng, eta, n_steps, beta):
    """The update formula, one step at a time, through ``target.grad``."""
    for _ in range(n_steps):
        x = x - eta * beta * target.grad(x) + math.sqrt(2.0 * eta) * rng.standard_normal(x.shape)
    return x


def test_run_macro_step_equals_unrolled_steps():
    mix = GaussianMixture([0.4, 0.6], [[-1.0], [2.0]], 1.0)
    quad = GaussianMixture([0.25] * 4, [[-2, -2], [-2, 2], [2, -2], [2, 2]], 1.0)
    cases = [
        (mix, np.array([[0.5], [-0.5], [3.0]])),
        (quad, np.array([0.3, -1.2])),
        (PerturbedTarget(quad, 0.2, 1.5),
         np.random.default_rng(3).standard_normal((6, 2))),
    ]
    for target, x0 in cases:
        out = run_macro_step(target, x0.copy(), np.random.default_rng(7), 0.1, 5, beta=0.8)
        ref = _unrolled_steps(target, x0.copy(), np.random.default_rng(7), 0.1, 5, 0.8)
        assert out.shape == x0.shape
        assert np.array_equal(out, ref)


def test_stationary_variance_matches_ar1_prediction():
    # for a centered Gaussian target the update is an AR(1) recursion
    # with stationary variance 1 / (1 - eta/2)
    g = GaussianMixture([1.0], [[0.0]], 1.0)
    eta = 0.1
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2000, 1))
    for _ in range(10):
        x = run_macro_step(g, x, rng, eta, 10)
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
    # two generators seeded alike give both chains the same noise
    y = run_macro_step(unit, np.array([0.7]), np.random.default_rng(17), 0.05, 50, beta=0.5)
    x = run_macro_step(orig, sigma * np.array([0.7]), np.random.default_rng(17),
                       0.05 * sigma**2, 50, beta=0.5)
    np.testing.assert_allclose(x, sigma * y, atol=1e-9)
