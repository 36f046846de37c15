"""Tests for the inductive partition-function estimator and its oracles."""
import math
import os

import numpy as np
import pytest
from scipy.integrate import nquad
from scipy.special import logsumexp

from stlmc.diagnostics import log_partition_quadrature
from stlmc.errors import BoundViolationError, RetriesExhaustedError
from stlmc.mixture_target import GaussianMixture, PerturbedTarget
from stlmc.partition_estimator import (
    _collect_top,
    concentration_check,
    estimate_next_z,
    run_main_algorithm,
    sample_exact,
)
from stlmc.tempering_chain import RunParams, make_ladder, new_batch_stats
from stlmc import mixture_target, partition_estimator


class _GivenEnergies:
    """Stand-in target with given energies and perturbation slack ``delta``."""

    d = 1

    def __init__(self, energies, delta):
        self.energies = energies
        self.delta = delta

    def f(self, x):
        return self.energies


def test_estimate_next_z_degenerate_cases():
    g = GaussianMixture([1.0], [[2.0]], 1.0)
    samples = np.random.default_rng(0).normal(2.0, 1.0, size=(50, 1))
    assert estimate_next_z(samples, g, 0.5, 0.5, -0.3) == pytest.approx(-0.3)
    # zero-energy samples leave the estimate unchanged
    at_mode = np.full((50, 1), 2.0)
    assert estimate_next_z(at_mode, g, 0.5, 0.9, -0.3) == pytest.approx(-0.3)


def test_estimate_next_z_validation():
    g = GaussianMixture([1.0], [[0.0]], 1.0)
    with pytest.raises(ValueError, match="at least one sample"):
        estimate_next_z(np.zeros((0, 1)), g, 0.5, 0.6, 0.0)
    with pytest.raises(ValueError, match="non-decreasing"):
        estimate_next_z(np.zeros((5, 1)), g, 0.6, 0.5, 0.0)


def test_estimate_next_z_ratio_factor_never_positive():
    g = GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], 1.0)
    rng = np.random.default_rng(1)
    lz = 0.0
    beta = 0.4
    for beta_next in (0.6, 0.8, 1.0):
        xs = sample_exact(g, 500, rng, beta=beta)
        nxt = estimate_next_z(xs, g, beta, beta_next, lz)
        assert nxt <= lz + 1e-12
        lz, beta = nxt, beta_next
    with pytest.raises(BoundViolationError):
        # energies below zero with no declared slack
        estimate_next_z(np.zeros((10, 1)), _GivenEnergies(np.full(10, -1.0), 0.0), 0.5, 1.0, 0.0)


def test_single_gaussian_ratio_estimate():
    # Z_beta = sqrt(2 pi / beta), so the one-level ratio is
    # sqrt(beta_l / beta_next)
    g = GaussianMixture([1.0], [[0.0]], 1.0)
    beta_l, beta_next = 0.5, 0.7
    xs = sample_exact(g, 10_000, np.random.default_rng(18), beta=beta_l)
    est = estimate_next_z(xs, g, beta_l, beta_next, 0.0)
    assert math.exp(est) == pytest.approx(math.sqrt(beta_l / beta_next), rel=0.05)


def test_run_main_algorithm_single_level():
    single = GaussianMixture([1.0], [[0.0, 0.0]], 1.0)
    res = run_main_algorithm(
        single, RunParams(eta=0.1, T=0.5, t=30, seed=0), n_samples=50
    )
    assert len(res.betas) == 1
    np.testing.assert_allclose(res.log_zhat, [0.0])
    assert res.samples.shape == (50, 2)
    assert len(res.stats["phases"]) == 1
    assert res.stats["grad_evals"] > 0


def test_stats_hold_one_batch_stats_dict_per_stage(cheap):
    params = RunParams(eta=0.1, T=0.5, t=40, m=20, seed=4)
    res = run_main_algorithm(cheap, params, n_samples=30)
    L = len(res.betas)
    assert res.stats.keys() == {"grad_evals", "phases"}
    assert len(res.stats["phases"]) == L
    for ell, phase in enumerate(res.stats["phases"], 1):
        assert phase.keys() == new_batch_stats(ell).keys()
        assert phase["proposals"].shape == phase["accepts"].shape == (ell, ell)
        assert phase["occupancy"].shape == (ell,)
        assert phase["occupancy"].sum() == phase["chains"] * params.t
    assert sum(p["grad_evals"] for p in res.stats["phases"]) == res.stats["grad_evals"]
    # the ladder and the estimates are read-only arrays, one entry per level
    assert res.log_zhat[0] == 0 and np.all(np.isfinite(res.log_zhat))
    assert len(res.log_zhat) == len(res.betas)
    assert not res.betas.flags.writeable and not res.log_zhat.flags.writeable
    # without a sampling stage the record holds the L - 1 estimation stages
    est_only = run_main_algorithm(cheap, params, n_samples=0)
    assert len(est_only.stats["phases"]) == L - 1


def test_run_main_algorithm_requires_seed(cheap):
    with pytest.raises(ValueError, match="seed"):
        run_main_algorithm(cheap, RunParams(eta=0.1, T=0.5, t=30), n_samples=10)


def test_run_main_algorithm_is_deterministic(cheap):
    params = RunParams(eta=0.1, T=0.5, t=60, seed=21)
    a = run_main_algorithm(cheap, params, n_samples=40)
    b = run_main_algorithm(cheap, params, n_samples=40)
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.log_zhat, b.log_zhat)


def test_run_main_algorithm_worker_invariance(cheap):
    params = RunParams(eta=0.1, T=0.5, t=60, seed=21)
    a = run_main_algorithm(cheap, params, n_samples=40)
    c = run_main_algorithm(cheap, params, n_samples=40, workers=2)
    np.testing.assert_array_equal(a.samples, c.samples)
    np.testing.assert_array_equal(a.log_zhat, c.log_zhat)


def test_worker_invariance_with_several_groups(cheap):
    # the final stage runs 10 blocks: one group with one worker, 5 + 5 with two
    params = RunParams(eta=0.1, T=0.5, t=40, seed=22)
    a = run_main_algorithm(cheap, params, n_samples=1000)
    c = run_main_algorithm(cheap, params, n_samples=1000, workers=2)
    assert a.stats["phases"][-1]["chains"] >= 10 * 512
    np.testing.assert_array_equal(a.samples, c.samples)
    np.testing.assert_array_equal(a.log_zhat, c.log_zhat)
    assert a.stats["grad_evals"] == c.stats["grad_evals"]
    assert len(a.stats["phases"]) == len(c.stats["phases"])
    for pa, pc in zip(a.stats["phases"], c.stats["phases"]):
        assert pa.keys() == pc.keys()
        for key in pa:
            np.testing.assert_array_equal(pa[key], pc[key])


def test_pool_has_no_more_processes_than_usable_cpus(cheap, monkeypatch):
    # a fork pool starts all its processes at the first map, so the pool
    # size is capped at the usable CPUs; the pool here maps in-process, and
    # the test starts no process
    made = []

    class InProcessPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    def usable_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    monkeypatch.setattr(partition_estimator, "ProcessPoolExecutor", InProcessPool)
    params = RunParams(eta=0.1, T=0.5, t=40, seed=22)
    ref = run_main_algorithm(cheap, params, n_samples=1000)
    usable_cpus(2)
    capped = run_main_algorithm(cheap, params, n_samples=1000, workers=64)
    assert made == [2]
    usable_cpus(1)
    alone = run_main_algorithm(cheap, params, n_samples=1000, workers=3)
    assert made == [2]
    for res in (capped, alone):
        np.testing.assert_array_equal(res.samples, ref.samples)
        np.testing.assert_array_equal(res.log_zhat, ref.log_zhat)


def test_round_budget_is_max_retries(cheap):
    # every stage fills up in its first round, which must not count as failure
    one_round = RunParams(eta=0.1, T=0.5, t=40, m=10, seed=3, max_retries=1)
    res = run_main_algorithm(cheap, one_round, n_samples=10)
    assert res.samples.shape == (10, 1)
    assert all(p["chains"] == 512 for p in res.stats["phases"])
    # a wildly wrong normalizer keeps every replica off the top level
    betas = make_ladder(cheap)[:2]
    params = RunParams(eta=0.1, T=0.5, t=10, seed=3, max_retries=2)
    with pytest.raises(RetriesExhaustedError,
                       match="0/10 top-level replicas after 2 rounds") as exc:
        _collect_top(cheap, betas, np.array([0.0, 60.0]), 10, params, 1, "stage 2")
    assert exc.value.attempts == 2
    assert exc.value.final_levels == {1: 2 * 512}


def test_refuses_a_ladder_neighbor_moves_cannot_climb(cheap):
    # on the 4-level ladder the final stage needs t >= 3, and estimation
    # alone, whose last stage tops out at level 3, t >= 2
    params = RunParams(eta=0.1, T=0.5, t=2, m=10, seed=3)
    with pytest.raises(ValueError, match="t=2 steps cannot climb from level 1 to level 4"):
        run_main_algorithm(cheap, params, n_samples=10)
    assert len(run_main_algorithm(cheap, params, n_samples=0).log_zhat) == 4
    with pytest.raises(ValueError, match="t=1 steps cannot climb from level 1 to level 3"):
        run_main_algorithm(cheap, RunParams(eta=0.1, T=0.5, t=1, m=10, seed=3), n_samples=0)


def test_stage_failures_name_the_stage_once(monkeypatch, cheap):
    params = RunParams(eta=0.1, T=0.5, t=40, m=10, seed=3, max_retries=1)
    estimate = partition_estimator.estimate_next_z

    def high_at(beta):
        # the estimate for the level at beta, 60 too large
        monkeypatch.setattr(partition_estimator, "estimate_next_z",
                            lambda xs, target, b, b_next, lz: estimate(xs, target, b, b_next, lz)
                            + (60.0 if b_next == beta else 0.0))

    # a level-3 normalizer 60 too large keeps stage 3 off its top level
    high_at(make_ladder(cheap)[2])
    with pytest.raises(RetriesExhaustedError) as exc:
        run_main_algorithm(cheap, params, n_samples=10)
    assert str(exc.value) == (
        "estimation stage 3 of 4 failed: 0/10 top-level replicas after 1 rounds")
    assert exc.value.attempts == 1
    assert sum(exc.value.final_levels.values()) == 512 and 3 not in exc.value.final_levels
    # a top-level normalizer 60 too large keeps the final stage off the top
    # level, after every estimation stage has filled in its one round
    high_at(1.0)
    with pytest.raises(RetriesExhaustedError) as exc:
        run_main_algorithm(cheap, params, n_samples=10)
    assert str(exc.value) == (
        "final sampling stage 4 of 4 failed: 0/10 top-level replicas after 1 rounds")
    assert exc.value.attempts == 1
    assert sum(exc.value.final_levels.values()) == 512 and 4 not in exc.value.final_levels


def test_group_cap_follows_chains_times_d(monkeypatch, cheap):
    # a d = 1 stage of 20 blocks runs as one group under the chains x d cap
    # and as 8 + 8 + 4 under an 8-block cap, with the same bits
    betas = make_ladder(cheap)
    lz = np.array([0.0, -0.2, -0.35, -0.45])[:len(betas)]
    params = RunParams(eta=0.1, T=0.5, t=30, seed=8)
    widths = []
    run_group = partition_estimator._run_group

    def recorded(*args):
        widths.append(len(args[-1]))
        return run_group(*args)

    monkeypatch.setattr(partition_estimator, "_run_group", recorded)
    runs = []
    for cap in (partition_estimator._GROUP_SIZE, 8 * 512):
        monkeypatch.setattr(partition_estimator, "_GROUP_SIZE", cap)
        widths.clear()
        x, st = _collect_top(cheap, betas, lz, 2000, params, 1, "stage 4")
        runs.append((x, st, list(widths)))
    (xa, sa, wa), (xb, sb, wb) = runs
    assert wa[0] == 20 and wb[:3] == [8, 8, 4]
    assert xa.tobytes() == xb.tobytes()
    for key in ("proposals", "accepts", "occupancy"):
        np.testing.assert_array_equal(sa[key], sb[key])
    assert (sa["grad_evals"], sa["chains"]) == (sb["grad_evals"], sb["chains"])


def test_estimates_track_quadrature_over_seeds(cheap):
    # every level's estimate stays inside the compounding (1 + 1/L)^(l-1)
    # envelope around the true log ratio, across independent seeds
    betas = make_ladder(cheap)
    L = len(betas)
    lzq = np.array([log_partition_quadrature(cheap, b) for b in betas])
    true_lz = lzq - lzq[0]
    env = np.arange(L) * math.log(1.0 + 1.0 / L)
    failures = 0
    n_runs = 40
    for seed in range(n_runs):
        res = run_main_algorithm(
            cheap, RunParams(eta=0.1, T=0.5, t=80, seed=seed), n_samples=0
        )
        assert res.samples.shape == (0, 1)
        err = np.abs(res.log_zhat - true_lz)
        if np.any(err > env + 1e-12):
            failures += 1
    assert failures / n_runs <= 0.05


def test_concentration_check_identical_levels(cheap):
    res = concentration_check(cheap, 0.7, 0.7, n_samples=50, n_trials=40, seed=0)
    assert res.failure_rate == 0.0
    assert res.ratio == pytest.approx(1.0, abs=1e-9)
    assert res.C == 1.0


def test_concentration_check_desk_pair(desk):
    betas = make_ladder(desk)
    res = concentration_check(
        desk, float(betas[4]), float(betas[5]), n_samples=400, n_trials=60, seed=3
    )
    assert res.failure_rate <= res.envelope + 3.0 * math.sqrt(0.25 / res.n_trials)
    assert 0.0 < res.ratio <= 1.0


def _ulps(got, ref):
    """|got - ref| in units of the last place of max(1, |ref|)."""
    return np.abs(got - ref) / np.spacing(np.maximum(1.0, np.abs(ref)))


def test_logsumexp_matches_scipy_within_4_ulp():
    rng = np.random.default_rng(4)
    for k in (1, 2, 3, 5):
        for scale in (0.01, 1.0, 50.0, 700.0):
            a = rng.normal(size=(k, 3000)) * scale
            a[:, :100] = a[0, :100]  # every row tied for the maximum
            a[:, 100:200] = np.round(a[:, 100:200])  # some rows tied
            ref = logsumexp(a, axis=0)
            assert _ulps(mixture_target._logsumexp(a.copy()), ref).max() <= 4
    # estimate_next_z's 1-d weights (beta_l - beta_next) f against scipy's default axis=None
    for n in (1, 2, 7, 3000):
        for scale in (0.01, 1.0, 50.0, 700.0):
            a = rng.normal(size=n) * scale
            for v in (a, np.round(a), np.full(n, a[0]), np.zeros(n)):
                ref = logsumexp(v)
                assert _ulps(mixture_target._logsumexp(v[:, None].copy())[0], ref) <= 4
                # beta_l - beta_next = -1, so the weights are v; no slack bound
                got = estimate_next_z(np.zeros((n, 1)), _GivenEnergies(-v, math.inf), 1.0, 2.0, 0.0)
                assert _ulps(got, ref - math.log(n)) <= 4


def _reference_exact_draws(mix, n, rng, beta):
    """``sample_exact`` written out as one loop, with scipy's logsumexp.

    Returns the points and the number of rejection rounds they took.
    """
    wb = mix.weights**beta
    wb = wb / wb.sum()
    out, got = [], 0
    while got < n:
        batch = max(2 * (n - got), 128)
        comp = rng.choice(mix.n, size=batch, p=wb)
        xs = mix.means[comp] + math.sqrt(mix.sigma2 / beta) * rng.standard_normal((batch, mix.d))
        a = mix._padded_logits(xs)[1][:, :batch]
        log_ratio = beta * logsumexp(a, axis=0) - logsumexp(beta * a, axis=0)
        keep = np.log(1.0 - rng.random(batch)) < log_ratio
        out.append(xs[keep])
        got += int(keep.sum())
    return np.concatenate(out, axis=0)[:n], len(out)


# four close modes accept about half the proposals at beta 0.5, so some
# draws of n fall short after their first round of 2n; the desk never does
CROWDED = GaussianMixture([0.25] * 4, [[-0.6], [-0.2], [0.2], [0.6]], 1.0)


@pytest.mark.parametrize("crowded", [False, True])
def test_concentration_check_matches_per_trial_draws(desk, monkeypatch, crowded):
    if crowded:
        mix, beta_l, beta_next, n_samples = CROWDED, 0.5, 0.6, 100
    else:
        mix, beta_l, beta_next, n_samples = desk, 0.3, 0.4, 300
    # reference: each trial's own rejection sampler on its spawn-key stream, against
    # the ratio of concentration_check's one quadrature call (the epsilons below sit
    # on trial errors, so they see its last bit)
    log_z = log_partition_quadrature(mix, np.array([beta_l, beta_next]))
    ratio = math.exp(log_z[1] - log_z[0])
    errors = []
    rounds = []
    for trial in range(90):
        key = np.random.SeedSequence(9, spawn_key=(trial,))
        xs, r = _reference_exact_draws(mix, n_samples, np.random.default_rng(key), beta_l)
        if trial < 5:
            np.testing.assert_array_equal(
                sample_exact(mix, n_samples, np.random.default_rng(key), beta=beta_l), xs)
        errors.append(abs(float(np.mean(np.exp((beta_l - beta_next) * mix.f(xs)))) / ratio - 1))
        rounds.append(r)
    # the crowded trials that take several rounds share chunks with one-round ones
    assert sum(r >= 2 for r in rounds) == (32 if crowded else 0)
    monkeypatch.setattr(partition_estimator, "_CHUNK_DRAWS", 7 * 2 * n_samples)
    for eps in sorted(errors)[::10]:
        res = concentration_check(mix, beta_l, beta_next, n_samples=n_samples, epsilon=eps,
                                  n_trials=90, seed=9)
        assert res.failure_rate == sum(e > eps for e in errors) / 90


CROWDED_2D = GaussianMixture([0.25] * 4, [[-0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, -0.5]],
                             1.0)


@pytest.mark.parametrize("mix, beta, n", [
    (CROWDED, 0.5, 1), (CROWDED, 0.5, 100), (CROWDED, 0.1, 300), (CROWDED, 1.0, 30),
    (CROWDED_2D, 0.2, 150),
])
def test_exact_draws_equal_one_sample_exact_call_per_stream(mix, beta, n):
    def gen(k):
        return np.random.default_rng(np.random.SeedSequence(21, spawn_key=(k,)))

    want = [_reference_exact_draws(mix, n, gen(k), beta) for k in range(12)]
    got = partition_estimator._exact_draws(mix, n, [gen(k) for k in range(12)], beta)
    assert got.shape == (12, n, mix.d)
    for k in range(12):
        np.testing.assert_array_equal(got[k], sample_exact(mix, n, gen(k), beta=beta))
        np.testing.assert_array_equal(got[k], want[k][0])
    if beta < 1 and n > 1:
        # streams leave the loop after different numbers of rounds
        assert len({r for _, r in want}) > 1


def test_concentration_check_validates_its_arguments(desk):
    with pytest.raises(ValueError, match="n_samples must be positive"):
        concentration_check(desk, 0.5, 0.6, n_samples=0, n_trials=2)
    with pytest.raises(ValueError, match="beta must lie"):
        concentration_check(desk, 1.2, 1.3, n_samples=10, n_trials=2)
    with pytest.raises(TypeError, match="unperturbed"):
        concentration_check(PerturbedTarget(desk, 0.1), 0.5, 0.6,
                            n_samples=10, n_trials=2)


def test_concentration_check_refuses_no_trials_before_quadrature(desk, monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature ran before the trial count was checked")

    monkeypatch.setattr(partition_estimator, "log_partition_quadrature", no_quadrature)
    for n_trials in (0, -3):
        with pytest.raises(ValueError, match=f"n_trials must be positive, got {n_trials}"):
            concentration_check(desk, 0.5, 0.6, n_samples=10, n_trials=n_trials)


def test_sample_exact_moments(desk):
    xs = sample_exact(desk, 20_000, np.random.default_rng(5))
    assert xs.shape == (20_000, 1)
    # symmetric modes at +-3 with unit variance: mean 0, second moment 10
    assert float(np.mean(xs)) == pytest.approx(0.0, abs=0.1)
    assert float(np.mean(xs**2)) == pytest.approx(10.0, rel=0.05)
    flat = sample_exact(desk, 5000, np.random.default_rng(6), beta=0.2)
    assert float(np.mean(flat**2)) > float(np.mean(xs**2))


def test_sample_exact_validation(desk):
    with pytest.raises(ValueError):
        sample_exact(desk, 10, np.random.default_rng(0), beta=0.0)
    with pytest.raises(ValueError):
        sample_exact(desk, 10, np.random.default_rng(0), beta=1.2)
    with pytest.raises(TypeError):
        sample_exact(object(), 10, np.random.default_rng(0))


@pytest.mark.parametrize("mix", [GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], 1.0), CROWDED_2D])
def test_sample_exact_of_no_points_is_empty(mix):
    for beta in (0.3, 1.0):
        xs = sample_exact(mix, 0, np.random.default_rng(0), beta=beta)
        assert xs.shape == (0, mix.d) and xs.dtype == np.float64


def test_sample_exact_refuses_a_negative_count(desk):
    with pytest.raises(ValueError, match="n must be non-negative, got -1"):
        sample_exact(desk, -1, np.random.default_rng(0))


def test_log_partition_quadrature_closed_form():
    g = GaussianMixture([1.0], [[0.0]], 1.0)
    for beta in (0.05, 0.25, 0.5, 1.0):
        expected = 0.5 * math.log(2.0 * math.pi / beta)
        assert log_partition_quadrature(g, beta) == pytest.approx(expected, rel=1e-12)
    g2 = GaussianMixture([1.0], [[0.0, 0.0]], 1.0)
    assert log_partition_quadrature(g2, 1.0) == pytest.approx(
        math.log(2.0 * math.pi), rel=1e-6
    )
    g3 = GaussianMixture([1.0], [[0.0, 0.0, 0.0]], 1.0)
    with pytest.raises(ValueError, match="d <= 2"):
        log_partition_quadrature(g3, 1.0)


def _nquad_log_partition(target, beta):
    # scalar-callback reference over D + 12 sigma / sqrt(beta), the benchmark oracle's reach
    R = target.D + 12.0 * math.sqrt(target.sigma2 / beta)
    val, _ = nquad(lambda u, v: math.exp(-beta * target.f(np.array([u, v]))),
                   [[-R, R], [-R, R]])
    return math.log(val)


def test_log_partition_quadrature_matches_nquad_reference():
    four = GaussianMixture([0.25] * 4, [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]], 1.0)
    bumpy = PerturbedTarget(four, 0.2, 1.0)
    for target in (four, bumpy):
        for beta in (1.0, 0.3):
            assert abs(log_partition_quadrature(target, beta)
                       - _nquad_log_partition(target, beta)) <= 1e-9


def test_vector_log_partition_quadrature_matches_scalar_calls(desk):
    four = GaussianMixture([0.25] * 4, [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]], 1.0)
    bumpy = PerturbedTarget(desk, 0.2, 1.0)
    betas = np.array([0.05, 0.125, 0.3, 0.7, 1.0])
    for target in (desk, four, bumpy):
        vec = log_partition_quadrature(target, betas)
        assert isinstance(vec, np.ndarray) and vec.shape == betas.shape
        for b, v in zip(betas, vec):
            scalar = log_partition_quadrature(target, float(b))
            assert type(scalar) is float
            assert abs(v - scalar) <= 1e-12

