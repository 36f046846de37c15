"""Tests for the finite-chain spectral toolkit and the gap bounds it checks."""
import itertools
import math

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy import sparse
from scipy.linalg import eigh

from stlmc.chain_analysis import (
    FiniteChain,
    Partition,
    build_tempering_chain,
    chain_eigenvalues,
    cheeger_constant,
    chi_sq_decay_check,
    conductance,
    discretize_langevin_generator,
    gap_product_check,
    mixing_rate,
    overlap_delta,
    perturbation_gap_check,
    project,
    random_partition,
    random_reversible_chain,
    refinement_gap_bound_check,
    restrict,
    sce_envelope_1d,
    spectral_gap,
    tempering_gap_bound_check,
    z_ratio_bound_check,
)
from stlmc.errors import BoundViolationError, NonReversibleError, ReducibleChainError
from stlmc.mixture_target import GaussianMixture
from stlmc import chain_analysis

TWO_STATE = [[0.9, 0.1], [0.2, 0.8]]


def test_two_state_oracle():
    chain = FiniteChain(TWO_STATE)
    np.testing.assert_allclose(chain.p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert chain.reversible
    np.testing.assert_allclose(chain_eigenvalues(chain), [0.0, 0.3], atol=1e-12)
    assert spectral_gap(chain) == pytest.approx(0.3)
    assert mixing_rate(chain) == pytest.approx(0.3)
    assert conductance(chain, [1]) == pytest.approx(0.2)
    assert conductance(chain, [0]) == pytest.approx(0.1)
    assert cheeger_constant(chain) == pytest.approx(0.2)
    Q = chain.flow()
    np.testing.assert_allclose(Q, Q.T, atol=1e-12)


def test_identity_and_complete_chains():
    eye = FiniteChain(np.eye(3), stationary=np.full(3, 1.0 / 3.0))
    assert spectral_gap(eye) == pytest.approx(0.0, abs=1e-12)
    complete = FiniteChain(np.full((4, 4), 0.25))
    assert spectral_gap(complete) == pytest.approx(1.0)
    np.testing.assert_allclose(
        chain_eigenvalues(complete), [0.0, 1.0, 1.0, 1.0], atol=1e-12
    )


def test_singleton_chain_conventions():
    chain = FiniteChain([[1.0]])
    assert spectral_gap(chain) == 2.0
    assert mixing_rate(chain) == 1.0
    np.testing.assert_allclose(chain_eigenvalues(chain), [0.0])


def test_reducible_chain_reports_closed_classes():
    P = np.zeros((4, 4))
    P[:2, :2] = TWO_STATE
    P[2:, 2:] = TWO_STATE
    with pytest.raises(ReducibleChainError) as exc:
        FiniteChain(P, states=["a", "b", "c", "d"])
    classes = {tuple(sorted(c)) for c in exc.value.closed_classes}
    assert classes == {("a", "b"), ("c", "d")}


def test_constructor_validation():
    with pytest.raises(ValueError, match="negative"):
        FiniteChain([[1.1, -0.1], [0.5, 0.5]])
    with pytest.raises(ValueError, match="sum to 1"):
        FiniteChain([[0.9, 0.2], [0.5, 0.5]])
    with pytest.raises(ValueError, match="strictly positive"):
        FiniteChain(TWO_STATE, stationary=[1.0, 0.0])
    with pytest.raises(ValueError, match="not stationary"):
        FiniteChain(TWO_STATE, stationary=[0.5, 0.5])
    with pytest.raises(ValueError, match="state label"):
        FiniteChain(TWO_STATE, states=["only-one"])


def test_non_reversible_chain_rejected_for_eigenanalysis():
    cycle = FiniteChain([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert not cycle.reversible
    with pytest.raises(NonReversibleError):
        chain_eigenvalues(cycle)
    with pytest.raises(NonReversibleError):
        spectral_gap(cycle)


def test_partition_helpers():
    part = Partition.from_labels([0, 1, 0, 2])
    assert part.blocks == ((0, 2), (1,), (3,))
    assert Partition.whole(3).blocks == ((0, 1, 2),)
    assert Partition.singletons(2).blocks == ((0,), (1,))
    np.testing.assert_allclose(
        part.masses([0.1, 0.2, 0.3, 0.4]), [0.4, 0.2, 0.4]
    )
    assert Partition.singletons(4).is_refinement_of(part)
    assert not part.is_refinement_of(Partition.singletons(4))
    with pytest.raises(ValueError, match="disjoint"):
        Partition(((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="non-empty"):
        Partition(((0,), ()))
    with pytest.raises(ValueError, match="cover"):
        Partition(((0, 1),)).validate_for(3)


def test_conductance_validation():
    chain = FiniteChain(TWO_STATE)
    with pytest.raises(ValueError, match="proper"):
        conductance(chain, [0, 1])
    with pytest.raises(ValueError, match="non-empty"):
        conductance(chain, [])
    with pytest.raises(ValueError, match="range"):
        conductance(chain, [2])
    assert conductance(chain, np.array([False, True])) == pytest.approx(0.2)


def test_disconnected_chain_has_zero_cheeger():
    P = np.zeros((4, 4))
    P[:2, :2] = TWO_STATE
    P[2:, 2:] = TWO_STATE
    p = np.array([2.0, 1.0, 2.0, 1.0]) / 6.0
    chain = FiniteChain(P, stationary=p)
    assert cheeger_constant(chain) == pytest.approx(0.0, abs=1e-15)


def test_cheeger_refuses_outside_two_to_twenty_states():
    with pytest.raises(ValueError, match="2 to 20 states, got 1"):
        cheeger_constant(FiniteChain([[1.0]]))
    big = random_reversible_chain(21, np.random.default_rng(0))
    with pytest.raises(ValueError, match="2 to 20 states, got 21"):
        cheeger_constant(big)


def test_cheeger_two_sided_bounds_random_chains():
    rng = np.random.default_rng(7)
    for _ in range(25):
        chain = random_reversible_chain(int(rng.integers(2, 9)), rng)
        gap = spectral_gap(chain)
        phi = cheeger_constant(chain)
        assert phi**2 / 2.0 <= gap + 1e-12
        assert gap <= 2.0 * phi + 1e-12


def test_restrict_adds_self_loops():
    P = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    chain = FiniteChain(P)
    sub = restrict(chain, [1, 2])
    np.testing.assert_allclose(sub.P, [[0.75, 0.25], [0.5, 0.5]], atol=1e-12)
    np.testing.assert_allclose(sub.p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert sub.states == [1, 2]


def test_restrict_warns_on_disconnected_subset():
    P = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.25, 0.5, 0.25, 0.0],
            [0.0, 0.25, 0.5, 0.25],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    chain = FiniteChain(P)
    with pytest.warns(UserWarning, match="disconnected"):
        restrict(chain, [0, 3])


def test_project_block_chain():
    rng = np.random.default_rng(11)
    chain = random_reversible_chain(6, rng)
    # the trivial partitions bracket the construction
    same = project(chain, Partition.singletons(6))
    np.testing.assert_allclose(same.P, chain.P, atol=1e-12)
    one = project(chain, Partition.whole(6))
    np.testing.assert_allclose(one.P, [[1.0]], atol=1e-12)
    part = Partition(((0, 1, 2), (3, 4, 5)))
    proj = project(chain, part)
    np.testing.assert_allclose(proj.P.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(proj.p, part.masses(chain.p), atol=1e-12)
    assert proj.reversible


def test_gap_product_and_eigenvalue_dominance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        chain = random_reversible_chain(n, rng)
        part = random_partition(n, int(rng.integers(1, n + 1)), rng)
        lhs, gap, rhs = gap_product_check(chain, part)
        assert lhs <= gap + 1e-9
        assert gap <= rhs + 1e-9
        lam = chain_eigenvalues(chain)
        lam_bar = chain_eigenvalues(project(chain, part))
        for k in range(len(part.blocks)):
            assert lam[k] <= lam_bar[k] + 1e-9


def test_build_tempering_chain_two_levels_exact():
    base = FiniteChain([[1.0]])
    chain = build_tempering_chain([base, base], [0.5, 0.5], "neighbor")
    np.testing.assert_allclose(chain.P, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)
    chain_u = build_tempering_chain([base, base], [0.5, 0.5], "uniform")
    np.testing.assert_allclose(chain_u.P, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)
    # unequal level weights enter through the acceptance ratio
    skew = build_tempering_chain([base, base], [2.0 / 3.0, 1.0 / 3.0], "neighbor")
    np.testing.assert_allclose(skew.P, [[0.875, 0.125], [0.25, 0.75]], atol=1e-12)
    np.testing.assert_allclose(skew.p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert skew.reversible


def test_build_tempering_chain_validation():
    base = FiniteChain(TWO_STATE)
    with pytest.raises(ValueError, match="at least one"):
        build_tempering_chain([], [])
    with pytest.raises(ValueError, match="sum to 1"):
        build_tempering_chain([base, base], [0.7, 0.7])
    with pytest.raises(ValueError, match="proposal_mode"):
        build_tempering_chain([base, base], [0.5, 0.5], "sideways")
    other = FiniteChain(np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(ValueError, match="state set"):
        build_tempering_chain([base, other], [0.5, 0.5])


def test_build_tempering_chain_is_reversible_for_mixed_levels():
    rng = np.random.default_rng(1)
    hot = random_reversible_chain(5, rng, lazy=0.2)
    cold = random_reversible_chain(5, rng, lazy=0.2)
    chain = build_tempering_chain([hot, cold], [0.4, 0.6], "uniform")
    expected = np.concatenate([0.4 * hot.p, 0.6 * cold.p])
    np.testing.assert_allclose(chain.p, expected, atol=1e-12)
    assert chain.reversible


def test_overlap_delta_values():
    p1 = np.array([0.5, 0.5])
    p2 = np.array([0.9, 0.1])
    whole = Partition.whole(2)
    assert overlap_delta([p1, p1], [whole, whole]) == pytest.approx(1.0)
    assert overlap_delta([p1, p2], [whole, whole]) == pytest.approx(0.6)
    assert overlap_delta([p1, p2], [whole, Partition.singletons(2)]) == pytest.approx(
        0.5 / 0.9
    )
    with pytest.raises(ValueError, match="one partition per"):
        overlap_delta([p1, p2], [whole])


def test_block_quantities_match_per_block_sums():
    # the indicator-matrix forms against direct sums over each block's states
    rng = np.random.default_rng(12)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        L = int(rng.integers(2, 4))
        chains = [random_reversible_chain(n, rng) for _ in range(L)]
        w = rng.random(L) + 0.2
        w = w / w.sum()
        # each level splits every block of the one before it at random
        labels = np.zeros(n, dtype=int)
        parts = [Partition.whole(n)]
        for _ in range(L - 1):
            labels = 2 * labels + rng.integers(0, 2, size=n)
            parts.append(Partition.from_labels(labels))
        ps = [c.p for c in chains]
        part = parts[-1]
        Q = chains[0].flow()
        pb = np.array([ps[0][list(A)].sum() for A in part.blocks])
        np.testing.assert_allclose(part.masses(ps[0]), pb, rtol=1e-13, atol=0)
        flows = np.array([[Q[np.ix_(A, B)].sum() for B in part.blocks] for A in part.blocks])
        np.testing.assert_allclose(project(chains[0], part).P, flows / pb[:, None],
                                   rtol=1e-12, atol=1e-15)
        delta = min(np.minimum(ps[i - 1][list(A)], ps[i][list(A)]).sum() / ps[i][list(A)].sum()
                    for i in range(1, L) for A in parts[i].blocks)
        assert overlap_delta(ps, parts) == pytest.approx(min(delta, 1.0), rel=1e-13)
        gamma = min(ps[i1][list(A)].sum() / ps[i2][list(A)].sum()
                    for i1 in range(L) for i2 in range(i1, L) for A in parts[i1].blocks)
        min_gap = min(spectral_gap(restrict(c, A)) for c, pt in zip(chains, parts)
                      for A in pt.blocks)
        gap = spectral_gap(build_tempering_chain(chains, w, "uniform"))
        r = w.min() / w.max()
        expected = r**2 * min(gamma, 1.0) * min(delta, 1.0) / (32.0 * L**3) * min_gap
        bound, gap_seen = refinement_gap_bound_check(chains, w, parts)
        assert bound == pytest.approx(expected, rel=1e-12)
        assert gap_seen == gap


def test_tempering_gap_bounds_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        L = int(rng.integers(1, 4))
        chains = [random_reversible_chain(n, rng) for _ in range(L)]
        w = rng.random(L) + 0.2
        w = w / w.sum()
        parts = [Partition.whole(n)]
        parts += [random_partition(n, int(rng.integers(1, 4)), rng) for _ in range(L - 1)]
        for mode in ("uniform", "neighbor"):
            bound, gap = tempering_gap_bound_check(chains, w, parts, mode)
            assert 0.0 < bound <= gap + 1e-12


def test_tempering_gap_bound_requires_whole_first():
    rng = np.random.default_rng(2)
    chains = [random_reversible_chain(4, rng) for _ in range(2)]
    parts = [Partition.singletons(4), Partition.singletons(4)]
    with pytest.raises(ValueError, match="whole space"):
        tempering_gap_bound_check(chains, [0.5, 0.5], parts)


def test_refinement_bound_requires_refining_partitions():
    rng = np.random.default_rng(3)
    chains = [random_reversible_chain(4, rng) for _ in range(3)]
    w = np.full(3, 1.0 / 3.0)
    parts = [
        Partition.whole(4),
        Partition(((0, 1), (2, 3))),
        Partition(((0, 2), (1, 3))),
    ]
    with pytest.raises(ValueError, match="refine"):
        refinement_gap_bound_check(chains, w, parts)


def test_refinement_bound_beats_uniform_bound_on_lazy_instance():
    # two identical lazy levels with the singleton refinement: the
    # refinement-form constant is orders of magnitude less pessimistic
    rng = np.random.default_rng(5)
    base = random_reversible_chain(10, rng, lazy=0.3)
    chains = [base, base]
    w = np.array([0.5, 0.5])
    parts = [Partition.whole(10), Partition.singletons(10)]
    b52, gap = tempering_gap_bound_check(chains, w, parts, "uniform")
    bC, gap2 = refinement_gap_bound_check(chains, w, parts)
    assert gap == pytest.approx(gap2)
    assert gap == pytest.approx(0.2810, abs=5e-4)
    assert b52 == pytest.approx(9.010e-06, rel=5e-3)
    assert bC == pytest.approx(2.196e-03, rel=5e-3)
    assert bC > b52


def test_chi_sq_decay():
    chain = FiniteChain(TWO_STATE)
    lhs, rhs = chi_sq_decay_check(chain, np.array([1.0, 0.0]), 5)
    assert 0.0 <= lhs <= rhs
    with pytest.raises(ValueError, match="distribution"):
        chi_sq_decay_check(chain, np.array([0.7, 0.7]), 5)


def test_discretized_single_gaussian_gap():
    g = GaussianMixture([1.0], [[0.0]], 1.0)
    gen = discretize_langevin_generator(g, 1.0, 8.0, 400)
    ev = gen.eigenvalues(3)
    assert ev[0] == pytest.approx(0.0, abs=1e-10)
    # continuum value is 1 (the Ornstein-Uhlenbeck gap); discretization
    # and truncation shave off under 2%
    assert ev[1] == pytest.approx(0.983838, abs=1e-4)
    np.testing.assert_allclose(gen.generator.toarray().sum(axis=1), 0.0, atol=1e-9)


def test_generator_to_chain_matches_spectrum():
    g = GaussianMixture([1.0], [[0.0]], 1.0)
    gen = discretize_langevin_generator(g, 1.0, 8.0, 60)
    T = 0.5
    chain = gen.to_chain(T)
    assert chain.reversible
    np.testing.assert_allclose(chain.p, gen.weights, atol=1e-10)
    expected = 1.0 - math.exp(-T * gen.eigenvalues(2)[1])
    assert spectral_gap(chain) == pytest.approx(expected, abs=1e-8)


def test_discretize_validation(desk):
    with pytest.raises(ValueError, match="d <= 2"):
        discretize_langevin_generator(
            GaussianMixture([1.0], [[0.0, 0.0, 0.0]], 1.0), 1.0, 10.0, 5
        )
    with pytest.raises(ValueError, match="box bound"):
        discretize_langevin_generator(desk, 1.0, 8.0, 100)
    with pytest.raises(ValueError, match="cap"):
        discretize_langevin_generator(
            GaussianMixture([1.0], [[0.0, 0.0]], 1.0), 1.0, 7.0, 50
        )
    with pytest.raises(ValueError, match="at least 2"):
        discretize_langevin_generator(desk, 1.0, 9.0, 1)


def test_perturbation_gap_check(desk):
    gen = discretize_langevin_generator(desk, 1.0, 9.0, 300)
    ratios = perturbation_gap_check(gen, gen, 0.0, k=4)
    np.testing.assert_allclose(ratios, 1.0, atol=1e-12)
    other = discretize_langevin_generator(desk, 1.0, 10.0, 300)
    with pytest.raises(ValueError, match="share one grid"):
        perturbation_gap_check(gen, other, 0.1)


def test_z_ratio_bound_vector_matches_pairs(desk):
    betas = np.array([0.1, 0.2, 0.35, 0.6, 1.0])
    ratios, lowers = z_ratio_bound_check(desk, betas[:-1], betas[1:])
    assert ratios.shape == lowers.shape == (4,)
    for i in range(4):
        ratio, lower = z_ratio_bound_check(desk, float(betas[i]), float(betas[i + 1]))
        assert isinstance(ratio, float) and isinstance(lower, float)
        assert ratios[i] == pytest.approx(ratio, rel=1e-12)
        assert lowers[i] == pytest.approx(lower, rel=1e-12)
    with pytest.raises(ValueError):
        z_ratio_bound_check(desk, betas[1:], betas[:-1])


def test_z_ratio_bound_desk(desk):
    ratio, lower = z_ratio_bound_check(desk, 0.25, 0.5)
    assert lower <= ratio <= 1.0
    ratio_eq, _ = z_ratio_bound_check(desk, 0.5, 0.5)
    assert ratio_eq == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        z_ratio_bound_check(desk, 0.5, 0.25)
    with pytest.raises(ValueError):
        z_ratio_bound_check(desk, 0.0, 0.5)


def test_sce_envelope_quadratic_fixed_point():
    xs = np.linspace(-4.0, 4.0, 81)
    alpha = 0.7
    fs = 0.5 * alpha * xs**2
    env = sce_envelope_1d(xs, fs, alpha)
    np.testing.assert_allclose(env, fs, atol=1e-10)


def test_sce_envelope_gap_bounded_by_mode_spread(desk):
    # at alpha = 1/(2 sigma2) the remainder f - alpha x^2 / 2 grows at
    # infinity, so the envelope gap saturates instead of tracking the
    # grid window
    xs = np.linspace(-10.0, 10.0, 10_001)
    fs = desk.f(xs)
    env = sce_envelope_1d(xs, fs, 0.5)
    gap = float(np.max(fs - env))
    assert gap == pytest.approx(8.3069, abs=5e-3)
    assert gap <= desk.D**2
    assert np.all(env <= fs + 1e-12)


def test_sce_envelope_validation():
    xs = np.linspace(-1.0, 1.0, 20)
    with pytest.raises(ValueError):
        sce_envelope_1d(xs, xs**2, 1.0)
    bad = np.concatenate([np.linspace(-1, 0, 30), np.linspace(0.1, 1, 30)])
    with pytest.raises(ValueError):
        sce_envelope_1d(bad, bad**2, 1.0)


def test_random_generators():
    rng = np.random.default_rng(0)
    chain = random_reversible_chain(6, rng, lazy=0.5)
    assert chain.reversible
    assert np.all(np.diag(chain.P) >= 0.5 - 1e-12)
    part = random_partition(6, 3, rng)
    part.validate_for(6)
    assert len(part.blocks) == 3


def _brute_force_cheeger(chain):
    # every proper subset with at most half the mass, through conductance()
    best = math.inf
    for size in range(1, chain.n):
        for subset in itertools.combinations(range(chain.n), size):
            if chain.p[list(subset)].sum() <= 0.5 + 1e-12:
                best = min(best, conductance(chain, list(subset)))
    return best


def _two_cliques(n, eps):
    # two halves with a uniform flow eps across; doubly stochastic, so p is
    # uniform and the minimizing subsets carry exactly half the mass
    half = n // 2
    same = np.arange(n)[:, None] // half == np.arange(n)[None, :] // half
    return FiniteChain(np.where(same, 1.0 - eps, eps) / half, stationary=np.full(n, 1.0 / n))


def test_cheeger_matches_brute_force_random_chains():
    rng = np.random.default_rng(23)
    for n in range(2, 11):
        for lazy in (0.0, 0.5):
            chain = random_reversible_chain(n, rng, lazy=lazy)
            assert cheeger_constant(chain) == pytest.approx(
                _brute_force_cheeger(chain), rel=1e-12)


def test_cheeger_chunks_cover_every_subset(monkeypatch):
    # a block size that divides neither 2**n - 2 nor a power of two
    monkeypatch.setattr(chain_analysis, "_CHEEGER_CHUNK", 7)
    rng = np.random.default_rng(5)
    for n in (3, 6, 9):
        chain = random_reversible_chain(n, rng)
        assert cheeger_constant(chain) == pytest.approx(
            _brute_force_cheeger(chain), rel=1e-12)


def test_cheeger_keeps_exact_half_mass_subsets():
    for n in (4, 10, 20):
        chain = _two_cliques(n, 0.01)
        if n <= 10:
            assert _brute_force_cheeger(chain) == pytest.approx(0.01, rel=1e-12)
        # n = 20 is the largest chain searched exhaustively
        assert cheeger_constant(chain) == pytest.approx(0.01, rel=1e-12)
        assert conductance(chain, np.arange(n // 2)) == pytest.approx(0.01, rel=1e-12)


def _pairwise_generator(target, beta, R, n_cells):
    # one neighbor pair at a time, as the rates are defined
    gen = discretize_langevin_generator(target, beta, R, n_cells)
    logw = -beta * np.atleast_1d(target.f(gen.grid))
    n = gen.grid.shape[0]
    ref = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and np.isclose(np.abs(gen.grid[i] - gen.grid[j]).sum(), gen.h):
                ref[i, j] = math.exp(min(logw[j] - logw[i], 0.0)) / gen.h**2
    np.fill_diagonal(ref, -ref.sum(axis=1))
    return gen.generator.toarray(), ref


def test_discretize_matches_pairwise_rates():
    four = GaussianMixture([0.25] * 4, [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]], 1.0)
    desk = GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], 1.0)
    for target, R, cells in ((desk, 12.0, 60), (four, 12.0, 12)):
        gen, ref = _pairwise_generator(target, 0.5, R, cells)
        np.testing.assert_allclose(gen, ref, rtol=1e-14, atol=0.0)


def test_generator_eigenvalues_match_dense_solver():
    four = GaussianMixture([0.25] * 4, [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]], 1.0)
    desk = GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], 1.0)
    for target, R, cells in ((desk, 10.0, 300), (four, 9.0, 20)):
        gen = discretize_langevin_generator(target, 1.0, R, cells)
        s = np.sqrt(gen.weights)
        A = (s[:, None] * (-gen.generator.toarray())) / s[None, :]
        dense = eigh(0.5 * (A + A.T), eigvals_only=True)
        for k in (6, None):
            ev = gen.eigenvalues(k)
            ref = dense if k is None else dense[:k]
            assert ev.shape == ref.shape
            assert abs(ev[0]) <= 1e-8
            np.testing.assert_allclose(ev[1:], ref[1:], rtol=1e-9, atol=0.0)


def test_sparse_generator_structure():
    four = GaussianMixture([0.25] * 4, [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]], 1.0)
    desk = GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], 1.0)
    for target, cells, pairs in ((desk, 50, 49), (four, 12, 2 * 12 * 11)):
        gen = discretize_langevin_generator(target, 0.5, 12.0, cells)
        G = gen.generator
        n = gen.grid.shape[0]
        assert sparse.issparse(G) and G.format == "csr" and G.shape == (n, n)
        assert G.nnz == n + 2 * pairs
        np.testing.assert_allclose(G.sum(axis=1), 0.0, atol=1e-12 * np.abs(G.data).max())
        pattern = (G != 0).astype(int)
        assert (pattern - pattern.T).nnz == 0
        assert np.all(G.diagonal() < 0)


def _dense_spectrum(gen):
    s = np.sqrt(gen.weights)
    A = (s[:, None] * (-gen.generator.toarray())) / s[None, :]
    return eigh(0.5 * (A + A.T), eigvals_only=True)


def test_eigenvalue_paths_match_dense_eigh(monkeypatch):
    calls = []
    eigsh = scipy.sparse.linalg.eigsh
    monkeypatch.setattr("scipy.sparse.linalg.eigsh",
                        lambda *a, **kw: calls.append(kw["k"]) or eigsh(*a, **kw))
    four = GaussianMixture([0.25] * 4, [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]], 1.0)
    big = discretize_langevin_generator(four, 1.0, 9.0, 20)
    tiny = discretize_langevin_generator(GaussianMixture([1.0], [[0.0]], 1.0), 1.0, 8.0, 5)
    # shift-invert for k = 6; dense for the full spectrum and for k >= n - 1
    for gen, k, sparse_path in ((big, 6, True), (big, None, False), (tiny, 4, False),
                                (tiny, 5, False), (tiny, 9, False), (tiny, 3, True)):
        calls.clear()
        ev = gen.eigenvalues(k)
        dense = _dense_spectrum(gen)
        ref = dense[:len(dense) if k is None else min(k, len(dense))]
        assert calls == ([k] if sparse_path else [])
        assert ev.shape == ref.shape
        assert abs(ev[0]) <= 1e-8
        np.testing.assert_allclose(ev[1:], ref[1:], rtol=1e-9, atol=0.0)


def test_cheeger_is_exactly_zero_on_disconnected_random_blocks():
    # no flow between the blocks: the cut of a whole block is a sum of zeros
    rng = np.random.default_rng(31)
    for sizes in ((3, 4), (5, 6), (2, 9)):
        blocks = [random_reversible_chain(k, rng) for k in sizes]
        n = sum(sizes)
        P = np.zeros((n, n))
        start = 0
        for b in blocks:
            P[start:start + b.n, start:start + b.n] = b.P
            start += b.n
        mass = rng.uniform(0.2, 0.5)
        p = np.concatenate([mass * blocks[0].p, (1.0 - mass) * blocks[1].p])
        assert cheeger_constant(FiniteChain(P, stationary=p)) == 0.0
