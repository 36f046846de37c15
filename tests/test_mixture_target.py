"""Tests for mixture energies, gradients, and the structural bounds on them."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlmc.errors import NonConvergenceError
from stlmc.mixture_target import (
    GaussianMixture,
    PerturbedTarget,
    SinusoidalPerturbation,
    check_perturbation_bounds,
    close_to_sum_ratio,
    hessian_max_eig,
    locate_min,
    target_from_config,
)


def test_single_gaussian_closed_form():
    g = GaussianMixture([1.0], [[0.0]], 1.0)
    assert g.f(0.0) == pytest.approx(0.0, abs=1e-12)
    assert g.f(2.0) == pytest.approx(2.0)
    np.testing.assert_allclose(g.grad(np.array([2.0])), [2.0])
    np.testing.assert_allclose(g.grad(np.array([-0.5])), [-0.5])


def test_desk_geometry_and_symmetry(desk):
    assert desk.d == 1
    assert desk.n == 2
    assert desk.D == 3.0
    assert desk.w_min == 0.5
    # at a mode only the local bump contributes appreciably
    assert desk.f(3.0) == pytest.approx(math.log(2.0), abs=1e-7)
    assert desk.f(-3.0) == pytest.approx(desk.f(3.0), abs=1e-12)
    xs = np.linspace(-8.0, 8.0, 41)
    np.testing.assert_allclose(desk.f(xs), desk.f(-xs), atol=1e-12)


def test_energy_is_nonnegative(desk):
    xs = np.linspace(-12.0, 12.0, 201)
    assert np.all(desk.f(xs) >= 0.0)
    mix = GaussianMixture([0.2, 0.8], [[1.0, -2.0], [0.5, 0.5]], 0.7)
    pts = np.random.default_rng(0).uniform(-4, 4, size=(200, 2))
    assert np.all(mix.f(pts) >= 0.0)


def test_batch_shapes():
    mix = GaussianMixture([0.3, 0.7], [[0.0, 0.0], [1.0, -1.0]], 1.0)
    one = mix.f(np.array([0.5, 0.5]))
    assert isinstance(one, float)
    batch = mix.f(np.zeros((4, 2)))
    assert batch.shape == (4,)
    assert mix.grad(np.zeros((4, 2))).shape == (4, 2)
    fv, g = mix.f_and_grad(np.array([0.5, 0.5]))
    assert isinstance(fv, float)
    assert g.shape == (2,)
    # flat batches are accepted for 1-d targets only
    flat = GaussianMixture([1.0], [[0.0]], 1.0).f(np.array([0.0, 1.0, 2.0]))
    assert flat.shape == (3,)


def test_input_validation():
    mix = GaussianMixture([0.3, 0.7], [[0.0, 0.0], [1.0, -1.0]], 1.0)
    with pytest.raises(ValueError):
        mix.f(0.5)
    with pytest.raises(ValueError):
        mix.f(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        mix.f(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        mix.f(np.array([np.nan, 0.0]))


@pytest.mark.parametrize(
    "weights,means,sigma2",
    [
        ([0.5, 0.6], [[0.0], [1.0]], 1.0),
        ([0.5, -0.5], [[0.0], [1.0]], 1.0),
        ([1.0], [[0.0]], 0.0),
        ([1.0], [[0.0]], -1.0),
        ([0.5, 0.5], [[0.0]], 1.0),
        ([1.0], [[np.inf]], 1.0),
    ],
)
def test_constructor_rejects_bad_parameters(weights, means, sigma2):
    with pytest.raises(ValueError):
        GaussianMixture(weights, means, sigma2)


@settings(max_examples=50, deadline=None)
@given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
def test_gradient_matches_finite_differences(x1, x2):
    mix = GaussianMixture([0.25, 0.75], [[-2.0, 0.5], [1.5, -1.0]], 0.8)
    x = np.array([x1, x2])
    g = mix.grad(x)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (mix.f(x + e) - mix.f(x - e)) / (2.0 * h)
        assert g[j] == pytest.approx(fd, abs=5e-5)


def test_close_to_sum_ratio_bounds(desk):
    xs = np.linspace(-9.0, 9.0, 301)
    for beta in (0.1, 0.35, 0.7, 1.0):
        r = close_to_sum_ratio(desk, beta, xs)
        assert np.all(r >= 1.0 - 1e-12)
        assert np.all(r <= 1.0 / desk.w_min + 1e-12)
    # beta = 1 recovers the mixture itself
    np.testing.assert_allclose(close_to_sum_ratio(desk, 1.0, xs), 1.0, atol=1e-10)
    with pytest.raises(ValueError):
        close_to_sum_ratio(desk, 0.0, xs)
    with pytest.raises(ValueError):
        close_to_sum_ratio(desk, 1.5, xs)


def test_locate_min_single_gaussian():
    g = GaussianMixture([1.0], [[0.7, -0.2]], 1.0)
    x_star = locate_min(g)
    np.testing.assert_allclose(x_star, [0.7, -0.2], atol=1e-6)


def test_locate_min_norm_bound():
    rng = np.random.default_rng(14)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        w = rng.dirichlet(np.ones(k))
        w = np.clip(w, 1e-3, None)
        w = w / w.sum()
        mix = GaussianMixture(w, rng.uniform(-3, 3, size=(k, d)),
                              float(rng.uniform(0.5, 2.0)))
        x_star = locate_min(mix)
        assert np.linalg.norm(x_star) <= math.sqrt(2.0) * mix.D + 1e-6


def test_locate_min_failure_carries_best_iterate():
    # a skewed mixture has no start with an exactly zero gradient, so a
    # vanishing step cannot converge
    mix = GaussianMixture([0.3, 0.7], [[-2.0], [1.0]], 1.0)
    with pytest.raises(NonConvergenceError) as exc:
        locate_min(mix, step=1e-9, max_iter=3)
    assert exc.value.best_x.shape == (1,)
    assert exc.value.iterations == 3


def test_hessian_max_eig():
    g = GaussianMixture([1.0], [[0.0]], 2.0)
    assert hessian_max_eig(g, np.array([0.3])) == pytest.approx(0.5, abs=1e-4)
    desk = GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], 1.0)
    for x in np.linspace(-5.0, 5.0, 21):
        assert hessian_max_eig(desk, np.array([x])) <= 2.0 / desk.sigma2 + 1e-3


def test_sinusoidal_perturbation_bounds():
    pert = SinusoidalPerturbation(0.2)
    assert pert.delta == 0.2
    assert pert.tau(1) == pytest.approx(0.2)
    assert pert.tau(4) == pytest.approx(0.4)
    assert SinusoidalPerturbation(-0.3).delta == 0.3
    pts = np.array([[math.pi / 2.0], [0.0]])
    np.testing.assert_allclose(pert.value(pts), [0.2, 0.0], atol=1e-12)
    np.testing.assert_allclose(pert.grad(pts), [[0.0], [0.2]], atol=1e-12)
    with pytest.raises(ValueError):
        SinusoidalPerturbation(0.2, scale=0.0)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_gradient_only_call_is_bit_identical(d, perturbed):
    # each quantity has one formula: f_and_grad(x) gives the bits of f(x)
    # and grad(x), and the Langevin kernel's value=False call the same
    # gradient, for a single point, an (m, d) batch and the transpose of
    # the (d, m) layout the engine passes; a batch's bits do not depend
    # on its memory layout
    target = _generic_mixture(3, d, 70 + d)
    if perturbed:
        target = PerturbedTarget(target, SinusoidalPerturbation(0.7, 1.3))
    pts = np.random.default_rng(71 + d).uniform(-20.0, 20.0, size=(257, d))
    f_ref, g_ref = target.f(pts), target.grad(pts)
    mix = target.base if perturbed else target
    view = np.ascontiguousarray(pts.T).T
    assert (close_to_sum_ratio(mix, 0.3, view).tobytes()
            == close_to_sum_ratio(mix, 0.3, pts).tobytes())
    for x in (pts[0], pts, view):
        fv, g = target.f_and_grad(x)
        f_only = target.f(x)
        assert type(fv) is type(f_only)
        assert np.asarray(fv).tobytes() == np.asarray(f_only).tobytes()
        assert g.shape == x.shape
        assert g.tobytes() == target.grad(x).tobytes()
        none, g_only = target.f_and_grad(x, value=False)
        assert none is None
        assert g_only.tobytes() == g.tobytes()
        if x.ndim == 2:
            assert fv.tobytes() == f_ref.tobytes()
            assert g.tobytes() == g_ref.tobytes()
    if perturbed:
        base, pert = target.base, target.perturbation
        assert target.f(pts).tobytes() == (base.f(pts) + pert.value(pts)).tobytes()
        assert np.array_equal(g_ref, base.grad(pts) + pert.grad(pts))


def test_perturbed_target_composition(desk):
    target = PerturbedTarget(desk, SinusoidalPerturbation(0.2, scale=1.5))
    x = np.array([0.8])
    expected = desk.f(x) + 0.2 * math.sin(0.8 / 1.5)
    assert target.f(x) == pytest.approx(expected, abs=1e-12)
    fv, g = target.f_and_grad(x)
    assert fv == pytest.approx(expected, abs=1e-12)
    np.testing.assert_allclose(g, target.grad(x))
    assert target.D == desk.D
    assert target.sigma2 == desk.sigma2
    f_dev, g_dev = check_perturbation_bounds(target, n_points=2000,
                                             rng=np.random.default_rng(15))
    assert f_dev <= target.delta + 1e-12
    assert g_dev <= target.tau + 1e-12


def test_target_from_config_round_trip():
    mix = target_from_config(
        {"weights": [0.5, 0.5], "means": [[-3.0], [3.0]], "sigma2": 1.0}
    )
    assert isinstance(mix, GaussianMixture)
    assert mix.D == 3.0
    pert = target_from_config(
        {
            "weights": [0.5, 0.5],
            "means": [[-3.0], [3.0]],
            "sigma2": 1.0,
            "perturbation": {"amplitude": 0.2},
        }
    )
    assert isinstance(pert, PerturbedTarget)
    assert pert.delta == 0.2
    with pytest.raises(ValueError, match="sigma2"):
        target_from_config({"weights": [1.0], "means": [[0.0]]})
    with pytest.raises(ValueError, match="amplitude"):
        target_from_config(
            {"weights": [1.0], "means": [[0.0]], "sigma2": 1.0,
             "perturbation": {"scale": 2.0}}
        )


def _reference_f_grad(mix, pts):
    """The energy and gradient by explicit differences x - mu_i."""
    diff = pts[:, None, :] - mix.means[None, :, :]
    a = np.log(mix.weights)[None, :] - (diff**2).sum(axis=2) / (2.0 * mix.sigma2)
    top = a.max(axis=1)
    e = np.exp(a - top[:, None])
    resp = e / e.sum(axis=1, keepdims=True)
    return -(top + np.log(e.sum(axis=1))), np.einsum("mn,mnd->md", resp, diff) / mix.sigma2


def _generic_mixture(n, d, seed):
    rng = np.random.default_rng(seed)
    return GaussianMixture(rng.dirichlet(np.ones(n)), 2.0 * rng.standard_normal((n, d)), 1.3)


def test_kernel_matches_difference_formula():
    mix = _generic_mixture(8, 10, 40)
    pts = np.random.default_rng(41).uniform(-50.0, 50.0, size=(500, 10))
    pts[:8] = mix.means
    ref_f, ref_g = _reference_f_grad(mix, pts)
    fv, g = mix.f_and_grad(pts)
    np.testing.assert_allclose(fv, ref_f, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(g, ref_g, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(mix.f(pts), ref_f, rtol=1e-12, atol=1e-12)

    pert = PerturbedTarget(_generic_mixture(3, 2, 42), SinusoidalPerturbation(0.2, 1.5))
    pts = np.random.default_rng(43).uniform(-50.0, 50.0, size=(500, 2))
    ref_f, ref_g = _reference_f_grad(pert.base, pts)
    ref_f = ref_f + pert.perturbation.value(pts)
    ref_g = ref_g + pert.perturbation.grad(pts)
    fv, g = pert.f_and_grad(pts)
    np.testing.assert_allclose(fv, ref_f, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(g, ref_g, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(pert.f(pts), ref_f, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,d", [(1, 5), (2, 1), (8, 1), (3, 4), (8, 10)])
def test_kernel_rows_do_not_depend_on_the_batch(n, d):
    # the sampler evaluates a point together with different rows depending
    # on how its blocks are grouped, so each row must come out bit for bit
    # the same on its own and in any batch
    mix = _generic_mixture(n, d, 44 + n + d)
    pts = np.random.default_rng(45).uniform(-50.0, 50.0, size=(300, d))
    fv, g = mix.f_and_grad(pts)
    f_only = mix.f(pts)
    for start in range(0, 40):
        for rows in (1, 2, 3, 9):
            sl = slice(start, start + rows)
            fv_sub, g_sub = mix.f_and_grad(pts[sl])
            np.testing.assert_array_equal(fv_sub, fv[sl])
            np.testing.assert_array_equal(g_sub, g[sl])
            np.testing.assert_array_equal(mix.f(pts[sl]), f_only[sl])
            np.testing.assert_array_equal(mix.f_and_grad(pts[sl], value=False)[1], g[sl])
