"""Tests for mixture energies, gradients, and the structural bounds on them."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlmc import cli, mixture_target
from stlmc.errors import NonConvergenceError
from stlmc.mixture_target import (
    GaussianMixture,
    PerturbedTarget,
    check_perturbation_bounds,
    close_to_sum_ratio,
    hessian_max_eig,
    locate_min,
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
    # a mixture carries the perturbation bounds a PerturbedTarget has, all 0
    assert (desk.delta, desk.tau, desk.curvature) == (0.0, 0.0, 0.0)
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


@pytest.mark.parametrize("means, sigma2, size", [
    ([[-1e200], [1e200]], 1.0, "1e+200"),     # D = max ||mu_i|| squares past the float range
    ([[-1e10], [1e10]], 1e-300, "1e+10"),     # mu / sigma2 and ||mu||^2 / (2 sigma2)
    ([[0.0, 1e160], [1.0, 0.0]], 1e300, "1e+160"),
])
def test_constructor_refuses_overflowing_geometry(means, sigma2, size):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="means up to") as exc:
            GaussianMixture([0.5, 0.5], means, sigma2)
    assert size in str(exc.value) and f"sigma2={sigma2:.6g}" in str(exc.value)


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


def test_sinusoidal_perturbation_bounds(desk):
    pert = PerturbedTarget(desk, 0.2)
    assert pert.delta == 0.2
    assert pert.tau == pytest.approx(0.2)
    assert PerturbedTarget(_generic_mixture(2, 4, 0), 0.2).tau == pytest.approx(0.4)
    assert PerturbedTarget(desk, -0.3).delta == 0.3
    pts = np.array([[math.pi / 2.0], [0.0]])
    np.testing.assert_allclose(pert.f(pts) - desk.f(pts), [0.2, 0.0], atol=1e-12)
    np.testing.assert_allclose(pert.grad(pts) - desk.grad(pts), [[0.0], [0.2]], atol=1e-12)
    with pytest.raises(ValueError):
        PerturbedTarget(desk, 0.2, scale=0.0)


def _sine_terms(pts, amplitude, scale):
    """The perturbation's value and gradient at (m, d) points, written out op for op.

    ``amplitude * prod_j sin(x_j / scale)``, and in coordinate j of the
    gradient ``((amplitude / scale) * cos(x_j / scale)) * prod_{k != j}
    sin(x_k / scale)``, with no sines at d = 1. ``PerturbedTarget`` adds
    these to its base's energy and gradient with the same bits.
    """
    value = amplitude * np.prod(np.sin(pts / scale), axis=-1)
    z = pts / scale
    d = pts.shape[-1]
    s = np.sin(z) if d > 1 else None
    c = np.cos(z)
    g = np.empty_like(c)
    for j in range(d):
        others = [k for k in range(d) if k != j]
        rest = np.prod(s[..., others], axis=-1) if others else 1.0
        g[..., j] = (amplitude / scale) * c[..., j] * rest
    return value, g


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_gradient_only_call_is_bit_identical(d, perturbed):
    # each quantity has one formula: f_and_grad(x) gives the bits of f(x)
    # and grad(x), and the Langevin kernel's value=False call the same
    # gradient, for a single point, an (m, d) batch and the transpose of
    # the (d, m) layout the engine passes; a batch's bits do not depend
    # on its memory layout; a perturbed target's bits are its base's plus
    # the sine formulas of _sine_terms
    target = _generic_mixture(3, d, 70 + d)
    if perturbed:
        target = PerturbedTarget(target, 0.7, 1.3)
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
        value, grad = _sine_terms(pts, 0.7, 1.3)
        assert f_ref.tobytes() == (mix.f(pts) + value).tobytes()
        assert g_ref.tobytes() == (mix.grad(pts) + grad).tobytes()
        assert np.float64(target.f(pts[0])).tobytes() == (mix.f(pts[0]) + value[0]).tobytes()
        assert target.grad(pts[0]).tobytes() == (mix.grad(pts[0]) + grad[0]).tobytes()


def test_perturbed_target_composition(desk):
    target = PerturbedTarget(desk, 0.2, scale=1.5)
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
    mix = cli._target(
        {"weights": [0.5, 0.5], "means": [[-3.0], [3.0]], "sigma2": 1.0}
    )
    assert isinstance(mix, GaussianMixture)
    assert mix.D == 3.0
    pert = cli._target(
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
        cli._target({"weights": [1.0], "means": [[0.0]]})
    with pytest.raises(ValueError, match="amplitude"):
        cli._target(
            {"weights": [1.0], "means": [[0.0]], "sigma2": 1.0,
             "perturbation": {"scale": 2.0}}
        )


class _RecordedSection(dict):
    """A config section that records the keys looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_config_keys_are_the_constructor_fields():
    # the perturbation keys are PerturbedTarget's fields less base, and the
    # target keys GaussianMixture's plus perturbation: a field or a key
    # added on one side only fails here
    pert_keys = {f.name for f in dataclasses.fields(PerturbedTarget)} - {"base"}
    mix_keys = {f.name for f in dataclasses.fields(GaussianMixture)}
    values = {"weights": [0.25, 0.75], "means": [[-3.0], [3.0]], "sigma2": 1.5,
              "amplitude": 0.2, "scale": 0.7}
    assert pert_keys | mix_keys <= values.keys()
    pert = _RecordedSection({k: values[k] for k in pert_keys})
    section = _RecordedSection({**{k: values[k] for k in mix_keys}, "perturbation": pert})
    target = cli._target(section)
    assert section.read == mix_keys | {"perturbation"}
    assert pert.read == pert_keys
    for k in pert_keys:
        assert getattr(target, k) == values[k]
    for k in mix_keys:
        np.testing.assert_array_equal(getattr(target.base, k), values[k])
    with pytest.raises(ValueError, match=r"unknown perturbation keys \['base'\]"):
        cli._target({**section, "perturbation": {**pert, "base": None}})


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

    pert = PerturbedTarget(_generic_mixture(3, 2, 42), 0.2, 1.5)
    pts = np.random.default_rng(43).uniform(-50.0, 50.0, size=(500, 2))
    ref_f, ref_g = _reference_f_grad(pert.base, pts)
    value, grad = _sine_terms(pts, 0.2, 1.5)
    ref_f = ref_f + value
    ref_g = ref_g + grad
    fv, g = pert.f_and_grad(pts)
    np.testing.assert_allclose(fv, ref_f, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(g, ref_g, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(pert.f(pts), ref_f, rtol=1e-12, atol=1e-12)


def _einsum_f_grad(mix, pts):
    """The energy and gradient by einsum contractions and a logaddexp reduction.

    These are the kernels' formulas before their matrix products and max
    shift, so the two differ only by the order and fusing of roundings.
    Also returns ||x||^2 / (2 sigma2) and max_i |a_i|, the sizes of the
    terms the energy subtracts.
    """
    s2 = mix.sigma2
    a = np.einsum("nd,md->nm", mix.means / s2, pts)
    a += (np.log(mix.weights) - np.einsum("nd,nd->n", mix.means, mix.means) / (2.0 * s2))[:, None]
    q = np.einsum("md,md->m", pts, pts) / (2.0 * s2)
    e = np.exp(a - a.max(axis=0))
    e /= e.sum(axis=0)
    g = (pts - np.einsum("nm,nd->md", e, mix.means)) / s2
    return q - np.logaddexp.reduce(a, axis=0), g, q, np.abs(a).max(axis=0)


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (8, 1), (3, 4), (8, 10)])
def test_kernel_moves_only_by_rounding_from_the_einsum_formulas(n, d):
    # the matrix products and the max-shift logsumexp change the bits of
    # the energy and gradient, but by rounding only: the energy by a few
    # ulp of the terms it subtracts, the gradient by 1e-12 relative or by
    # a few ulp of x and the means it is the difference of, which matters
    # in rows where the two cancel
    eps = np.finfo(float).eps
    rng = np.random.default_rng(60 + 10 * n + d)
    mix = _generic_mixture(n, d, 61 + 10 * n + d)
    near = rng.uniform(-10.0, 10.0, size=(700, d))
    # far out one component takes all the weight
    far = mix.means[rng.integers(n, size=700)] + rng.uniform(-1e3, 1e3, size=(700, d))
    for pts in (near, far, mix.means.copy(), near[:1]):
        ref_f, ref_g, q, a_max = _einsum_f_grad(mix, pts)
        got = [mix.f_and_grad(pts)]
        if len(pts) == 1:
            fv, g = mix.f_and_grad(pts[0])
            got.append((np.array([fv]), g[None, :]))
        for fv, g in got:
            assert np.all(np.abs(fv - ref_f) <= 4.0 * eps * (q + a_max))
            scale = (np.linalg.norm(pts, axis=1, keepdims=True) + mix.D) / mix.sigma2
            assert np.all(np.abs(g - ref_g) <= 1e-12 * np.abs(ref_g) + 16.0 * eps * scale)


@pytest.mark.parametrize("n,d", [(1, 5), (2, 1), (8, 1), (3, 4), (8, 10)])
def test_kernel_rows_do_not_depend_on_the_batch(n, d):
    # the sampler evaluates a point together with different rows depending
    # on how its blocks are grouped, so each row must come out bit for bit
    # the same on its own and in any batch, on either side of a multiple
    # of the padded width and at any offset
    mix = _generic_mixture(n, d, 44 + n + d)
    pts = np.random.default_rng(45).uniform(-50.0, 50.0, size=(1100, d))
    fv, g = mix.f_and_grad(pts)
    f_only = mix.f(pts)
    ratio = close_to_sum_ratio(mix, 0.3, pts)
    w = mixture_target._PAD
    for start in range(0, 40):
        for rows in (1, 2, 3, 9, w - 1, w, w + 1, 2 * w + 1, 1000):
            sl = slice(start, start + rows)
            fv_sub, g_sub = mix.f_and_grad(pts[sl])
            np.testing.assert_array_equal(fv_sub, fv[sl])
            np.testing.assert_array_equal(g_sub, g[sl])
            np.testing.assert_array_equal(mix.f(pts[sl]), f_only[sl])
            np.testing.assert_array_equal(mix.f_and_grad(pts[sl], value=False)[1], g[sl])
            np.testing.assert_array_equal(close_to_sum_ratio(mix, 0.3, pts[sl]), ratio[sl])


def test_mixtures_compare_and_hash_by_identity():
    # numpy fields made the generated __eq__ raise and __hash__ absent
    a = GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], 1.0)
    b = GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], 1.0)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
