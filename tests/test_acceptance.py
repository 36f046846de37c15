"""Release acceptance gate.

Ten end-to-end checks: desk-scale sampling quality, meta-stability
contrast against plain Langevin, normalizer accuracy, finite tempering
gap bounds, gap-product and Cheeger inequalities, generator spectra,
structural inequalities of the analysis toolkit, estimator
concentration, perturbation tolerance, and byte-level determinism.
Each check is one test so the run prints one pass/fail line per
criterion.
"""
import hashlib
import json
import math
import time

import numpy as np
import pytest

from stlmc.chain_analysis import (
    Partition,
    chain_eigenvalues,
    cheeger_constant,
    discretize_langevin_generator,
    gap_product_check,
    perturbation_gap_check,
    project,
    random_partition,
    random_reversible_chain,
    refinement_gap_bound_check,
    sce_envelope_1d,
    tempering_gap_bound_check,
    z_ratio_bound_check,
)
from stlmc.cli import main as cli_main
from stlmc.diagnostics import (
    Histogram,
    chi_sq_mixture_check,
    default_box,
    exact_bin_masses,
    kl_decomposition_check,
    log_partition_quadrature,
    mode_occupancy,
    tv_distance,
)
from stlmc.langevin_kernel import run_macro_step
from stlmc.mixture_target import (
    GaussianMixture,
    PerturbedTarget,
    close_to_sum_ratio,
    hessian_max_eig,
    locate_min,
)
from stlmc.partition_estimator import concentration_check, run_main_algorithm
from stlmc.tempering_chain import RunParams, make_ladder

DESK = GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], 1.0)


@pytest.fixture(scope="module")
def desk_run():
    """Documented-default sampler run shared by criteria 1 and 3."""
    params = RunParams(eta=0.1, T=0.5, t=300, seed=11)
    start = time.perf_counter()
    result = run_main_algorithm(DESK, params, n_samples=2000, workers=1)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_01_desk_sampling_quality(desk_run):
    result, elapsed = desk_run
    assert elapsed <= 300.0

    fractions, _ = mode_occupancy(result.samples, DESK.means, 3.0)
    assert abs(fractions[0] - 0.5) <= 0.05
    assert abs(fractions[1] - 0.5) <= 0.05

    lo, hi = default_box(DESK)
    hist = Histogram.from_samples(result.samples, lo, hi, bins=100)
    tv = tv_distance(hist, exact_bin_masses(DESK, hist))
    assert tv <= 0.1


def test_criterion_02_metastability_contrast():
    # modes far enough apart that unit-temperature Langevin cannot cross
    # within the budget; wider level spacing keeps the ladder short
    contrast = GaussianMixture([0.5, 0.5], [[-6.0], [6.0]], 1.0)
    params = RunParams(eta=0.1, T=0.5, t=600, m=1500, seed=7, c2=4.0)
    result = run_main_algorithm(contrast, params, n_samples=2000, workers=1)
    opposite_tempering = float((result.samples[:, 0] > 0.0).mean())
    assert opposite_tempering >= 0.4

    budget = result.stats["grad_evals"]
    n_chains = 2000
    steps = budget // n_chains
    assert steps * n_chains <= budget
    rng = np.random.default_rng(8)
    endpoints = run_macro_step(contrast, np.full((n_chains, 1), -6.0), rng,
                               params.eta, steps)
    opposite_plain = float((endpoints[:, 0] > 0.0).mean())
    assert opposite_plain < 0.01


def test_criterion_03_normalizer_accuracy(desk_run):
    result, _ = desk_run
    betas = result.betas
    log_z1 = log_partition_quadrature(DESK, float(betas[0]))
    worst = 0.0
    for b, lz in zip(betas, result.log_zhat):
        truth = log_partition_quadrature(DESK, float(b)) - log_z1
        worst = max(worst, abs(float(lz) - truth))
    assert worst <= 1.0


def _split_some_blocks(blocks, rng):
    out = []
    for block in blocks:
        block = np.asarray(block)
        if block.size > 1 and rng.random() < 0.6:
            k = int(rng.integers(1, block.size))
            perm = rng.permutation(block)
            out.append(np.sort(perm[:k]))
            out.append(np.sort(perm[k:]))
        else:
            out.append(block)
    return out


def test_criterion_04_tempering_gap_bounds():
    for mode in ("uniform", "neighbor"):
        rng = np.random.default_rng(1)
        held = 0
        for _ in range(100):
            n = int(rng.integers(3, 11))
            L = int(rng.integers(1, 4))
            chains = [random_reversible_chain(n, rng) for _ in range(L)]
            w = rng.random(L)
            w = w / w.sum()
            parts = [Partition.whole(n)]
            for _ in range(1, L):
                parts.append(random_partition(n, int(rng.integers(1, 4)), rng))
            bound, gap = tempering_gap_bound_check(chains, w, parts, mode)
            held += bound <= gap + 1e-12
        assert held == 100

    rng = np.random.default_rng(42)
    held = 0
    for _ in range(50):
        n = int(rng.integers(3, 11))
        L = int(rng.integers(1, 4))
        chains = [random_reversible_chain(n, rng) for _ in range(L)]
        w = rng.random(L)
        w = w / w.sum()
        raw = [[np.arange(n)]]
        for _ in range(1, L):
            raw.append(_split_some_blocks(raw[-1], rng))
        parts = [Partition(tuple(tuple(int(i) for i in block) for block in blocks))
                 for blocks in raw]
        bound, gap = refinement_gap_bound_check(chains, w, parts)
        held += bound <= gap + 1e-12
    assert held == 50

    # instance where the refinement-form constant is strictly sharper
    chain = random_reversible_chain(10, np.random.default_rng(5), lazy=0.3)
    parts = [Partition.whole(10), Partition.singletons(10)]
    coarse, gap = tempering_gap_bound_check([chain, chain], [0.5, 0.5],
                                            parts, "uniform")
    refined, gap_again = refinement_gap_bound_check([chain, chain],
                                                    [0.5, 0.5], parts)
    assert gap == pytest.approx(gap_again)
    assert coarse <= gap and refined <= gap
    assert refined > coarse


def test_criterion_05_gap_product_and_cheeger():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        chain = random_reversible_chain(n, rng)
        part = random_partition(n, int(rng.integers(1, n + 1)), rng)

        lhs, gap, rhs = gap_product_check(chain, part)
        assert lhs <= gap + 1e-9
        assert gap <= rhs + 1e-9

        phi = cheeger_constant(chain)
        assert phi**2 / 2.0 <= gap + 1e-9
        assert gap <= 2.0 * phi + 1e-9

        lam = chain_eigenvalues(chain)
        lam_bar = chain_eigenvalues(project(chain, part))
        for k in range(len(part.blocks)):
            assert lam[k] <= lam_bar[k] + 1e-9


def test_criterion_06_generator_spectra():
    three = GaussianMixture([1 / 3, 1 / 3, 1 / 3],
                            [[-9.0], [0.0], [9.0]], 1.0)
    ev = discretize_langevin_generator(three, 1.0, 15.0, 600).eigenvalues(4)
    assert ev[1] <= 1e-3
    assert ev[2] <= 1e-3
    assert ev[3] >= 0.1

    single = GaussianMixture([1.0], [[0.0]], 1.0)
    gap = discretize_langevin_generator(single, 1.0, 8.0, 400).eigenvalues(2)[1]
    assert gap >= 0.9


def test_criterion_07_structural_inequalities():
    skew = GaussianMixture([0.25, 0.75], [[-2.0], [2.5]], 1.5)

    # tempered density stays within the component-sum bracket
    rng = np.random.default_rng(13)
    for mix in (DESK, skew):
        xs = rng.uniform(-6.0, 6.0, 10_000)
        cap = 1.0 / mix.w_min
        for beta in (0.25, 0.5, 0.75, 1.0):
            ratios = close_to_sum_ratio(mix, beta, xs)
            assert ratios.min() >= 1.0 - 1e-9
            assert ratios.max() <= cap + 1e-9

    # chi-square mixture convexity on 10^3 random finite instances
    rng = np.random.default_rng(9)
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        comps = rng.random((k, n)) + 1e-3
        comps /= comps.sum(axis=1, keepdims=True)
        w = rng.dirichlet(np.ones(k))
        q = rng.random(n) + 1e-3
        q /= q.sum()
        lhs, rhs = chi_sq_mixture_check(list(comps), w, q)
        assert lhs <= rhs + 1e-9

    # KL decomposition on 10^3 random finite instances
    rng = np.random.default_rng(10)
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        ps = rng.random((k, n)) + 1e-3
        ps /= ps.sum(axis=1, keepdims=True)
        qs = rng.random((k, n)) + 1e-3
        qs /= qs.sum(axis=1, keepdims=True)
        lhs, rhs = kl_decomposition_check(rng.dirichlet(np.ones(k)),
                                          rng.dirichlet(np.ones(k)),
                                          list(ps), list(qs))
        assert lhs <= rhs + 1e-9

    # normalizer ratio interval along the desk ladder
    betas = make_ladder(DESK)
    for a, b in zip(betas[:-1], betas[1:]):
        ratio, lower = z_ratio_bound_check(DESK, float(a), float(b))
        assert lower <= ratio <= 1.0 + 1e-12

    # strongly convex envelope gap stays within D^2
    xs = np.linspace(-10.0, 10.0, 10_001)
    for mu, cap in ((1.0, 1.0), (3.0, 9.0)):
        mix = GaussianMixture([0.5, 0.5], [[-mu], [mu]], 1.0)
        fs = mix.f(xs)
        env = sce_envelope_1d(xs, fs, 0.5)
        assert np.all(env <= fs + 1e-12)
        assert float(np.max(fs - env)) <= cap

    # energy Hessian never exceeds 2 / sigma^2
    for mix in (DESK, skew):
        cap = 2.0 / mix.sigma2
        for x in np.linspace(-5.0, 5.0, 101):
            assert hessian_max_eig(mix, np.array([x])) <= cap + 1e-3

    # global minimizer of 100 random mixtures inside the sqrt(2) D ball
    rng = np.random.default_rng(14)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(1, 3))
        w = np.maximum(rng.dirichlet(np.ones(k)), 1e-3)
        mix = GaussianMixture(w / w.sum(), rng.uniform(-3.0, 3.0, (k, d)),
                              float(rng.uniform(0.5, 2.0)))
        assert np.linalg.norm(locate_min(mix)) <= math.sqrt(2.0) * mix.D + 1e-6

    # squared-distance drift of 10^3 trajectories within budget
    rng = np.random.default_rng(5)
    xstar = locate_min(DESK)
    x0 = xstar[None, :] + rng.standard_normal((1000, 1))
    e0 = float(np.mean(np.sum((x0 - xstar) ** 2, axis=1)))
    T = 0.5
    sq = np.sum((run_macro_step(DESK, x0, rng, 0.1, 5) - xstar) ** 2, axis=1)
    budget = e0 + (4.0 * DESK.D**2 + 2.0 * DESK.d) * T
    se = float(np.std(sq) / math.sqrt(sq.size))
    assert float(np.mean(sq)) <= budget + 3.0 * se


def test_criterion_08_estimator_concentration():
    betas = make_ladder(DESK)
    res = concentration_check(DESK, float(betas[7]),
                              float(betas[8]),
                              n_samples=1000, epsilon=0.1,
                              n_trials=1000, seed=3)
    se = max(math.sqrt(res.envelope * (1.0 - res.envelope) / res.n_trials),
             math.sqrt(0.25 / res.n_trials))
    assert res.failure_rate <= res.envelope + 3.0 * se


def test_criterion_09_perturbation_tolerance():
    pert = PerturbedTarget(DESK, 0.2, 1.0)

    base_gen = discretize_langevin_generator(DESK, 1.0, 9.0, 600)
    pert_gen = discretize_langevin_generator(pert, 1.0, 9.0, 600)
    ratios = perturbation_gap_check(base_gen, pert_gen, pert.delta, k=5)
    assert np.all(ratios >= math.exp(-2.0 * pert.delta) - 1e-12)
    assert np.all(ratios <= math.exp(2.0 * pert.delta) + 1e-12)

    params = RunParams(eta=0.1, T=0.5, t=300, seed=11)
    result = run_main_algorithm(pert, params, n_samples=2000, workers=1)
    lo, hi = default_box(pert)
    hist = Histogram.from_samples(result.samples, lo, hi, bins=100)
    tv = tv_distance(hist, exact_bin_masses(pert, hist))
    assert tv <= 0.15


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "target": {"weights": [0.5, 0.5], "means": [[-1.5], [1.5]],
                   "sigma2": 1.0},
        "run": {"eta": 0.1, "T": 0.5, "t": 80, "seed": 5},
        "n_samples": 200,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    digests = []
    for name, extra in (("a", ()), ("b", ()), ("c", ("--workers", "2"))):
        out = tmp_path / name
        code = cli_main(["sample", "--config", str(cfg_path),
                         "--out", str(out), "--trace", *extra])
        assert code == 0
        digests.append(tuple(
            hashlib.sha256((out / fname).read_bytes()).hexdigest()
            for fname in ("samples.csv", "estimates.json", "trace.csv")))
    assert digests[0] == digests[1]
    assert digests[0] == digests[2]
