"""Tests for histogram summaries, TV distance, divergences, and occupancy."""
import math

import numpy as np
import pytest
from scipy.special import ndtr

from stlmc.diagnostics import (
    Histogram,
    bin_mass_points,
    chi_sq_divergence,
    chi_sq_mixture_check,
    default_box,
    exact_bin_masses,
    kl_decomposition_check,
    kl_divergence,
    log_partition_quadrature,
    mode_occupancy,
    tv_distance,
    tv_from_masses,
)
from stlmc.errors import BoundViolationError
from stlmc.mixture_target import GaussianMixture, PerturbedTarget
from stlmc.partition_estimator import sample_exact


def test_histogram_from_samples_counts_and_overflow():
    pts = np.array([-2.5, -0.5, 0.5, 0.5, 3.5, -10.0])
    h = Histogram.from_samples(pts, -3.0, 3.0, bins=3)
    # bins: [-3,-1), [-1,1), [1,3]; 3.5 and -10 fall outside
    assert h.total == 6
    assert h.counts.tolist() == [1, 3, 0]
    assert 1.0 - h.masses().sum() == pytest.approx(2.0 / 6.0)
    np.testing.assert_allclose(h.masses(), [1 / 6, 3 / 6, 0.0])


def test_histogram_validation():
    with pytest.raises(ValueError, match="box_hi"):
        Histogram(1.0, -1.0, 2, np.zeros(2, dtype=np.int64), 0)
    with pytest.raises(ValueError, match="counts"):
        Histogram(-1.0, 1.0, 3, np.zeros(2, dtype=np.int64), 0)
    with pytest.raises(ValueError, match="total"):
        Histogram(-1.0, 1.0, 2, np.array([3, 4]), 5)
    with pytest.raises(ValueError, match="dimension"):
        Histogram.from_samples(np.zeros((4, 2)), -1.0, 1.0, bins=2)
    empty = Histogram(-1.0, 1.0, 2, np.zeros(2, dtype=np.int64), 0)
    with pytest.raises(ValueError, match="no samples"):
        empty.masses()


def test_histogram_2d_shapes():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(400, 2))
    h = Histogram.from_samples(pts, [-4.0, -4.0], [4.0, 4.0], bins=6)
    assert h.counts.shape == (6, 6)
    assert h.d == 2


def test_default_box_extends_past_modes(desk):
    lo, hi = default_box(desk)
    np.testing.assert_allclose(lo, [-9.0])
    np.testing.assert_allclose(hi, [9.0])
    wide = GaussianMixture([1.0], [[0.0, 0.0]], 4.0)
    lo2, hi2 = default_box(wide)
    np.testing.assert_allclose(hi2, [12.0, 12.0])


def test_tv_from_masses_basic_values():
    assert tv_from_masses([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_from_masses([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    # missing mass counts as one shared extra bin
    assert tv_from_masses([0.3, 0.2], [0.1, 0.1]) == pytest.approx(0.3)
    assert tv_from_masses([0.3, 0.2], [0.2, 0.3]) == pytest.approx(0.1)


def test_tv_from_masses_validation():
    with pytest.raises(ValueError, match="matching shapes"):
        tv_from_masses([0.5, 0.5], [1.0])
    with pytest.raises(ValueError, match="sub-probability"):
        tv_from_masses([0.8, 0.8], [0.5, 0.5])
    with pytest.raises(ValueError, match="sub-probability"):
        tv_from_masses([-0.1, 0.5], [0.5, 0.5])


def test_tv_symmetry_random_vectors():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.random(8)
        a /= a.sum() / rng.uniform(0.5, 1.0)
        b = rng.random(8)
        b /= b.sum() / rng.uniform(0.5, 1.0)
        assert tv_from_masses(a, b) == pytest.approx(tv_from_masses(b, a))
        assert 0.0 <= tv_from_masses(a, b) <= 1.0


def test_tv_distance_exact_sampler_close(desk):
    rng = np.random.default_rng(19)
    pts = sample_exact(desk, 20000, rng)
    lo, hi = default_box(desk)
    h = Histogram.from_samples(pts, lo, hi, bins=60)
    exact = exact_bin_masses(desk, h)
    assert tv_distance(h, exact) < 0.05


def test_tv_distance_shape_guard(desk):
    h = Histogram.from_samples(np.zeros(5), -9.0, 9.0, bins=4)
    with pytest.raises(ValueError, match="match the histogram"):
        tv_distance(h, np.full(5, 0.2))


def _edges(h, axis=0):
    return np.linspace(h.box_lo[axis], h.box_hi[axis], h.bins + 1)


def _closed_form_masses(mix, h):
    """A plain mixture's cell masses from the Gaussian CDF, one factor per axis."""
    sigma = math.sqrt(mix.sigma2)
    per_axis = [np.diff(ndtr((_edges(h, axis)[None, :] - mix.means[:, axis, None]) / sigma),
                        axis=1) for axis in range(mix.d)]
    if mix.d == 1:
        return mix.weights @ per_axis[0]
    return np.einsum("k,ki,kj->ij", mix.weights, *per_axis)


def test_exact_bin_masses_closed_form_matches_quadrature(desk):
    lo, hi = default_box(desk)
    h = Histogram(lo, hi, 50, np.zeros(50, dtype=np.int64), 0)
    masses = exact_bin_masses(desk, h)
    np.testing.assert_allclose(masses, _closed_form_masses(desk, h), rtol=0.0, atol=1e-14)
    assert masses.sum() == pytest.approx(1.0, abs=1e-6)


def test_exact_bin_masses_closed_form_matches_quadrature_2d():
    mix = GaussianMixture([0.4, 0.6], [[-1.5, 0.0], [1.5, 0.5]], 1.0)
    lo, hi = default_box(mix)
    h = Histogram(lo, hi, 16, np.zeros((16, 16), dtype=np.int64), 0)
    masses = exact_bin_masses(mix, h)
    assert masses.shape == (16, 16)
    np.testing.assert_allclose(masses, _closed_form_masses(mix, h), rtol=0.0, atol=1e-14)
    assert masses.sum() == pytest.approx(1.0, abs=1e-5)


def test_exact_bin_masses_refuses_d_above_2():
    mix = GaussianMixture([0.5, 0.5], [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 1.0)
    h = Histogram([-5.0] * 3, [5.0] * 3, 5, np.zeros((5, 5, 5), dtype=np.int64), 0)
    with pytest.raises(ValueError, match="d <= 2"):
        exact_bin_masses(mix, h)


def test_exact_bin_masses_flattened_level(desk):
    lo, hi = default_box(desk)
    h = Histogram(lo, hi, 40, np.zeros(40, dtype=np.int64), 0)
    flat = exact_bin_masses(desk, h, beta=0.25)
    sharp = exact_bin_masses(desk, h, beta=1.0)
    # the histogram box [-9, 9] leaves out a ~1.44e-3 tail of the flattened
    # density, which the normalizing grid counts out to D + 8 sigma / sqrt(beta) = 19
    assert flat.sum() == pytest.approx(1.0, abs=5e-3)
    # flattening moves mass toward the saddle between the modes
    mid = slice(15, 25)
    assert flat[mid].sum() > sharp[mid].sum()
    with pytest.raises(ValueError, match="dimensions differ"):
        exact_bin_masses(GaussianMixture([1.0], [[0.0, 0.0]], 1.0), h)


def test_exact_bin_masses_rule_matches_closed_form_at_low_beta():
    # exp(-beta f) of one unit Gaussian is N(0, 1/beta): closed-form cells
    beta = 0.5
    for d, bins in ((1, 40), (2, 16)):
        g = GaussianMixture([1.0], [[0.0] * d], 1.0)
        lo, hi = default_box(g)
        h = Histogram(lo, hi, bins, np.zeros((bins,) * d, dtype=np.int64), 0)
        cells = np.diff(ndtr(_edges(h) * math.sqrt(beta)))
        expected = cells if d == 1 else np.outer(cells, cells)
        masses = exact_bin_masses(g, h, beta=beta)
        assert masses.shape == expected.shape
        np.testing.assert_allclose(masses, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("beta", [0.0, -0.5, np.array([0.0, 1.0]), np.array([np.nan, 1.0]),
                                  np.inf, np.array([0.5, np.inf])])
def test_oracles_refuse_a_non_positive_beta(desk, beta):
    # the box half-width D + 8 sigma / sqrt(beta) has no meaning there, and
    # at beta = inf exp(-beta f) is 0 or nan at every node
    with pytest.raises(ValueError, match="beta must be positive"):
        log_partition_quadrature(desk, beta)
    if np.ndim(beta) == 0:
        h = Histogram([-9.0], [9.0], 10, np.zeros(10, dtype=np.int64), 0)
        with pytest.raises(ValueError, match="beta must be positive"):
            exact_bin_masses(PerturbedTarget(desk, 0.2), h, beta=beta)


def _bin_rule_masses(target, h, beta):
    """Each bin's 12-point Gauss-Legendre integral over the quadrature normalizer."""
    nodes, gl_w = np.polynomial.legendre.leggauss(12)
    axes, scale = [], 1.0
    for axis in range(target.d):
        e = _edges(h, axis)
        half = (e[1] - e[0]) / 2.0
        axes.append((e[:-1, None] + half * (nodes[None, :] + 1.0)).ravel())
        scale *= half
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, target.d)
    vals = np.exp(-beta * target.f(pts)).reshape((h.bins, 12) * target.d)
    for axis in range(1, target.d + 1):
        vals = np.tensordot(vals, gl_w, axes=([axis], [0]))
    return vals * scale / math.exp(log_partition_quadrature(target, beta))


@pytest.mark.parametrize("d, bins, beta", [(1, 100, 1.0), (1, 100, 0.3), (2, 40, 1.0)])
def test_exact_bin_masses_normalizer_matches_log_partition_quadrature(desk, d, bins, beta):
    four = GaussianMixture([0.25] * 4, [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]], 1.0)
    target = PerturbedTarget(desk if d == 1 else four, 0.2, 1.0)
    lo, hi = default_box(target)
    h = Histogram(lo, hi, bins, np.zeros((bins,) * d, dtype=np.int64), 0)
    np.testing.assert_allclose(exact_bin_masses(target, h, beta=beta),
                               _bin_rule_masses(target, h, beta),
                               rtol=1e-12, atol=0.0)


def _quad_pieces(target, a, b, piece, beta=1.0):
    """Integral of exp(-beta f) over [a, b] by adaptive quad on pieces at most ``piece`` wide."""
    from scipy.integrate import quad

    cuts = np.linspace(a, b, math.ceil((b - a) / piece) + 1)
    return math.fsum(quad(lambda x: math.exp(-beta * target.f(x)), u, v, epsabs=0.0,
                          epsrel=1e-13)[0] for u, v in zip(cuts[:-1], cuts[1:]))


@pytest.mark.parametrize("bins", [2, 4])
def test_exact_bin_masses_resolves_bins_wider_than_sigma(desk, bins):
    # one 12-point rule over a 4.5- or 9-sigma bin of a fast-oscillating
    # perturbation is off by up to 6e-3; adaptive quad on half-sigma pieces is not
    target = PerturbedTarget(desk, 0.2, 0.3)
    lo, hi = default_box(target)
    h = Histogram(lo, hi, bins, np.zeros(bins, dtype=np.int64), 0)
    e = _edges(h)
    # the rule normalizes on [-(D + 8 sigma), D + 8 sigma], past which lies < 1e-14 of the mass
    expected = (np.array([_quad_pieces(target, u, v, 0.5) for u, v in zip(e[:-1], e[1:])])
                / _quad_pieces(target, -11.0, 11.0, 0.5))
    np.testing.assert_allclose(exact_bin_masses(target, h), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scale, bins", [(0.05, 10), (0.02, 100)])
def test_exact_bin_masses_resolves_perturbations_shorter_than_sigma(desk, scale, bins):
    # sigma-wide panels left these masses off by 2.6e-5 and 3.3e-9; panels at
    # most curvature**-0.5 wide follow sin(x / scale) as well as the modes
    target = PerturbedTarget(desk, 0.2, scale)
    lo, hi = default_box(target)
    h = Histogram(lo, hi, bins, np.zeros(bins, dtype=np.int64), 0)
    e = _edges(h)
    inside = np.array([_quad_pieces(target, u, v, scale / 4) for u, v in zip(e[:-1], e[1:])])
    tails = _quad_pieces(target, -11.0, lo[0], scale / 4) + _quad_pieces(target, hi[0], 11.0,
                                                                          scale / 4)
    np.testing.assert_allclose(exact_bin_masses(target, h), inside / (inside.sum() + tails),
                               rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("amplitude, scale", [(0.2, 0.05), (1.0, 0.05), (0.2, 0.02)])
def test_log_partition_quadrature_resolves_perturbations_shorter_than_sigma(desk, amplitude,
                                                                           scale):
    target = PerturbedTarget(desk, amplitude, scale)
    for beta in (1.0, 0.3):
        R = desk.D + 12.0 / math.sqrt(beta)
        expected = math.log(_quad_pieces(target, -R, R, scale, beta))
        assert abs(log_partition_quadrature(target, beta) - expected) <= 1e-12


@pytest.mark.parametrize("D", [4.5, 6.0, 10.0])
def test_log_partition_quadrature_resolves_hot_levels_of_far_apart_modes(D):
    # exp(-beta f) has branch points about sigma^2 / D off the real axis; on
    # sigma-wide panels log Z was off by up to 3.8e-11 (D = 4.5, beta = 1/D^2),
    # 8.3e-10 (D = 6, beta = 0.1) and 4.1e-9 (D = 10, beta = 0.1)
    target = GaussianMixture([0.5, 0.5], [[-D], [D]], 1.0)
    for beta in (1.0 / D**2, 0.1, 0.5):
        R = D + 12.0 / math.sqrt(beta)
        expected = math.log(_quad_pieces(target, -R, R, 0.5, beta))
        assert abs(log_partition_quadrature(target, beta) - expected) <= 1e-13


def test_log_partition_quadrature_memory_stays_bounded():
    # f runs on blocks of whole panels: one call on all 1.7 M grid points
    # of this target, at beta = 0.125, peaked at 103 MiB
    import tracemalloc

    four = GaussianMixture([0.25] * 4, [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]], 1.0)
    target = PerturbedTarget(four, 0.2, 0.3)
    tracemalloc.start()
    try:
        log_partition_quadrature(target, np.array([0.125, 0.5, 1.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("lo, hi", [([-15.0], [15.0]), ([-5.0], [15.0]), ([-15.0], [5.0]),
                                    ([-15.0, -5.0], [15.0, 15.0])])
def test_exact_bin_masses_box_past_the_quadrature_box(desk, lo, hi):
    # D + 8 sigma = 11: no tail panel on a side whose bins reach past it
    base = desk if len(lo) == 1 else GaussianMixture([0.5, 0.5], [[-3.0, 0.0], [3.0, 0.0]], 1.0)
    bins = 40 if len(lo) == 1 else 20
    h = Histogram(lo, hi, bins, np.zeros((bins,) * len(lo), dtype=np.int64), 0)
    masses = exact_bin_masses(PerturbedTarget(base, 0.0), h)
    assert masses.min() >= 0.0
    assert masses.sum() <= 1.0 + 1e-12
    np.testing.assert_allclose(masses, _closed_form_masses(base, h), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("lo, hi, bins", [([-9.0], [9.0], 100), ([-9.0], [9.0], 2),
                                          ([-15.0], [5.0], 40), ([-8.0, -5.0], [8.0, 15.0], 20)])
def test_bin_mass_points_counts_the_rows_exact_bin_masses_evaluates(monkeypatch, desk,
                                                                    lo, hi, bins):
    base = desk if len(lo) == 1 else GaussianMixture([0.5, 0.5], [[-3.0, 0.0], [3.0, 0.0]], 1.0)
    target = PerturbedTarget(base, 0.2)
    rows = []
    for cls in (GaussianMixture, PerturbedTarget):
        monkeypatch.setattr(cls, "f", lambda obj, x, inner=cls.f: rows.append(len(x))
                            or inner(obj, x))
    h = Histogram(lo, hi, bins, np.zeros((bins,) * len(lo), dtype=np.int64), 0)
    exact_bin_masses(target, h)
    assert bin_mass_points(target, lo, hi, bins) == sum(rows)
    # a plain mixture takes the same panel grid
    rows.clear()
    exact_bin_masses(base, h)
    assert bin_mass_points(base, lo, hi, bins) == sum(rows)


def test_chi_sq_divergence_values():
    assert chi_sq_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert chi_sq_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.25)
    assert math.isinf(chi_sq_divergence([1.0, 0.0], [0.5, 0.5]))
    # q missing mass where p lives is fine in this orientation
    assert chi_sq_divergence([0.5, 0.5], [1.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="probability distribution"):
        chi_sq_divergence([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError, match="matching shapes"):
        chi_sq_divergence([1.0], [0.5, 0.5])


def test_chi_sq_mixture_convexity_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        comps = rng.random((3, 6)) + 0.05
        comps /= comps.sum(axis=1, keepdims=True)
        w = rng.random(3)
        w /= w.sum()
        q = rng.random(6) + 0.05
        q /= q.sum()
        lhs, rhs = chi_sq_mixture_check(list(comps), w, q)
        assert lhs <= rhs + 1e-9
    with pytest.raises(ValueError, match="one weight per"):
        chi_sq_mixture_check([q], [0.5, 0.5], q)


def test_kl_divergence_conventions():
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected)
    # 0 log 0 contributes nothing
    assert kl_divergence([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert math.isinf(kl_divergence([0.5, 0.5], [1.0, 0.0]))


def test_kl_decomposition_disjoint_support_is_tight():
    p1 = [1.0, 0.0, 0.0, 0.0]
    p2 = [0.0, 1.0, 0.0, 0.0]
    lhs, rhs = kl_decomposition_check([0.3, 0.7], [0.6, 0.4], [p1, p2], [p1, p2])
    assert lhs == pytest.approx(kl_divergence([0.3, 0.7], [0.6, 0.4]))
    assert rhs == pytest.approx(lhs)


def test_kl_decomposition_random_mixtures():
    rng = np.random.default_rng(29)
    for _ in range(25):
        ps = rng.random((2, 7)) + 0.02
        ps /= ps.sum(axis=1, keepdims=True)
        qs = rng.random((2, 7)) + 0.02
        qs /= qs.sum(axis=1, keepdims=True)
        w = rng.random(2) + 0.05
        w /= w.sum()
        wp = rng.random(2) + 0.05
        wp /= wp.sum()
        lhs, rhs = kl_decomposition_check(w, wp, list(ps), list(qs))
        assert lhs <= rhs + 1e-9
    with pytest.raises(ValueError, match="matching weight"):
        kl_decomposition_check([1.0], [1.0], [[1.0]], [[1.0], [1.0]])


def test_mode_occupancy_exact_assignment():
    centers = np.array([[-3.0], [3.0]])
    pts = np.array([-3.0, -2.5, 3.1, 0.1, 8.0])
    fractions, leftover = mode_occupancy(pts, centers, 1.0)
    np.testing.assert_allclose(fractions, [0.4, 0.2])
    assert leftover == pytest.approx(0.4)
    # wider radius captures the near-saddle point via the nearest center
    fractions, leftover = mode_occupancy(pts, centers, 3.5)
    np.testing.assert_allclose(fractions, [0.4, 0.4])
    assert leftover == pytest.approx(0.2)


def test_mode_occupancy_validation():
    with pytest.raises(ValueError, match="radius"):
        mode_occupancy([0.0], [[0.0]], 0.0)
    with pytest.raises(ValueError, match="radius"):
        mode_occupancy([0.0], [[0.0]], math.nan)
    with pytest.raises(ValueError, match="at least one point"):
        mode_occupancy(np.zeros((0, 1)), [[0.0]], 1.0)


def test_mode_occupancy_on_exact_draws(desk):
    rng = np.random.default_rng(31)
    pts = sample_exact(desk, 20000, rng)
    fractions, leftover = mode_occupancy(pts, desk.means, 3.0)
    np.testing.assert_allclose(fractions, [0.5, 0.5], atol=0.02)
    assert leftover < 0.01


def test_boundviolation_carries_sides():
    # force a violation through the public check by passing mismatched weights
    p1 = np.array([0.9, 0.1])
    p2 = np.array([0.1, 0.9])
    q = np.array([0.5, 0.5])
    lhs, rhs = chi_sq_mixture_check([p1, p2], [0.5, 0.5], q)
    assert lhs >= 0.0 and rhs >= lhs
    err = BoundViolationError("demo", 2.0, 1.0)
    assert err.lhs == 2.0 and err.rhs == 1.0 and "demo" in str(err)
