"""Tests for ladder construction and the tempering chain's two move types."""
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from stlmc.errors import NonFiniteGradientError, RetriesExhaustedError
from stlmc.mixture_target import (
    GaussianMixture,
    PerturbedTarget,
    SinusoidalPerturbation,
)
from stlmc.diagnostics import log_partition_quadrature
from stlmc.tempering_chain import (
    RunParams,
    TemperatureLadder,
    _chain_step,
    _level_log_ratio,
    make_ladder,
    merge_batch_stats,
    new_batch_stats,
    run_stlmc,
    run_tempering_batch,
    write_trace_csv,
)


def test_make_ladder_desk_closed_form(desk):
    ladder = make_ladder(desk)
    assert ladder.L == 15
    assert ladder.betas[0] == pytest.approx(1.0 / 9.0, rel=1e-12)
    spacing = 1.0 / (9.0 * (1.0 + math.log(2.0)))
    np.testing.assert_allclose(np.diff(ladder.betas)[:-1], spacing, rtol=1e-12)
    assert ladder.betas[-1] == 1.0


def test_make_ladder_centered_target_is_single_level():
    single = GaussianMixture([1.0], [[0.0, 0.0]], 1.0)
    ladder = make_ladder(single)
    assert ladder.L == 1
    np.testing.assert_allclose(ladder.betas, [1.0])


def test_make_ladder_invariants_random_mixtures():
    rng = np.random.default_rng(12)
    for _ in range(30):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        w = rng.dirichlet(np.ones(k))
        w = np.clip(w, 1e-3, None)
        w = w / w.sum()
        mix = GaussianMixture(w, rng.uniform(-3, 3, size=(k, d)),
                              float(rng.uniform(0.5, 2.0)))
        c1 = float(rng.uniform(0.5, 2.0))
        c2 = float(rng.uniform(0.5, 2.0))
        ladder = make_ladder(mix, c1, c2)
        b = ladder.betas
        assert b[-1] == 1.0
        assert np.all(np.diff(b) > 0)
        if mix.D > 0:
            assert b[0] <= c1 * mix.sigma2 / mix.D**2 + 1e-15
            cap = c2 * mix.sigma2 / (mix.D**2 * (mix.d + math.log(1.0 / mix.w_min)))
            assert np.all(np.diff(b) <= cap + 1e-15)


@pytest.mark.parametrize("sigma2, c2, count", [
    (1e-4, 1.0, "152383 levels"),
    (1.0, 1e-4, "135453 levels"),
])
def test_make_ladder_refuses_too_many_levels(sigma2, c2, count):
    # the +-3 desk: 1 + ceil((1 - beta_1) / spacing) levels, refused before
    # the loop that would build them
    desk = GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], sigma2)
    with pytest.raises(ValueError, match=count) as exc:
        make_ladder(desk, c2=c2)
    for name in ("sigma2", "D=3", "c2", "more than 10000"):
        assert name in str(exc.value)


def test_make_ladder_refuses_a_zero_spacing():
    # D**2 overflows, so the spacing is 0 and the ladder would never reach 1
    far = GaussianMixture([0.5, 0.5], [[-1e200], [1e200]], 1.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="unboundedly many"):
        make_ladder(far)


def test_ladder_validation():
    with pytest.raises(ValueError):
        TemperatureLadder(np.array([0.5, 0.4, 1.0]))
    with pytest.raises(ValueError):
        TemperatureLadder(np.array([0.5, 0.9]))


def test_type2_accept_prob_values():
    betas = np.array([0.5, 1.0])
    f_x = np.array([3.7, 0.0, 2.0, 2.0])
    k = np.array([0, 0, 0, 1])
    k_prime = np.array([0, 1, 1, 0])
    la = _level_log_ratio(f_x, k, k_prime, betas, np.zeros(2))
    np.testing.assert_allclose(la, [0.0, 0.0, -1.0, 1.0], rtol=1e-12)
    # a stay, a move at zero energy and a move toward a flatter level are
    # always accepted; up the ladder at f = 2 the chance is e^-1
    np.testing.assert_allclose(np.exp(np.minimum(la, 0.0)),
                               [1.0, 1.0, math.exp(-1.0), 1.0], rtol=1e-12)


def test_type2_detailed_balance_ratio():
    # min(1, e^a) / min(1, e^-a) = e^a for every a, which is exactly the
    # flow-balance identity for the level move at fixed x
    betas = np.array([0.2, 0.55, 1.0])
    lz = np.array([0.0, -0.8, -1.3])
    rng = np.random.default_rng(3)
    f_x = rng.uniform(0.0, 8.0, 50)
    k, kp = np.array([rng.choice(3, size=2, replace=False) for _ in range(50)]).T
    fwd = _level_log_ratio(f_x, k, kp, betas, lz)
    bwd = _level_log_ratio(f_x, kp, k, betas, lz)
    np.testing.assert_allclose(fwd, -bwd, rtol=0, atol=1e-12)
    log_flow = (betas[k] - betas[kp]) * f_x + lz[k] - lz[kp]
    np.testing.assert_allclose(fwd, log_flow, rtol=0, atol=1e-10)
    accept = np.exp(np.minimum(fwd, 0.0)), np.exp(np.minimum(bwd, 0.0))
    np.testing.assert_allclose(np.log(accept[0]) - np.log(accept[1]), log_flow, atol=1e-10)


def test_single_level_batch_is_pure_langevin():
    single = GaussianMixture([1.0], [[0.0]], 1.0)
    params = RunParams(eta=0.1, T=0.5, t=40)
    stats = new_batch_stats(1)
    x, lev = run_tempering_batch(single, [1.0], [0.0], 8, params,
                                 np.random.default_rng(0), stats=stats)
    # the engine's first draw is the (8, 1) start at scale sqrt(sigma2 / beta) = 1
    x0 = np.random.default_rng(0).standard_normal((8, 1))
    assert np.all(lev == 0)
    assert np.all(x != x0)
    assert stats["proposals"].sum() == stats["accepts"].sum() == 0
    assert stats["occupancy"].tolist() == [8 * 40]
    assert stats["grad_evals"] > 0


def test_level_flip_rate_with_frozen_point():
    # x barely moves (eta = 1e-8) and the two betas are 1e-12 apart, so the
    # level-move log ratio is about -1e-12 f(x) and every proposed flip is
    # accepted: the two-level neighbor chain flips with probability
    # 1/2 (type-2 coin) * 1/2 (direction) = 1/4
    single = GaussianMixture([1.0], [[0.0]], 1.0)
    params = RunParams(eta=1e-8, T=1e-7, t=10)
    stats = new_batch_stats(2)
    n_chains = 400
    run_tempering_batch(single, [1.0 - 1e-12, 1.0], np.zeros(2), n_chains, params,
                        np.random.default_rng(2), stats=stats)
    n_steps = n_chains * params.t
    flips = stats["accepts"].sum()
    np.testing.assert_array_equal(stats["accepts"], stats["proposals"])
    se = math.sqrt(0.25 * 0.75 / n_steps)
    assert abs(flips / n_steps - 0.25) <= 3.0 * se + 1e-3


def test_run_stlmc_single_level_returns_immediately():
    single = GaussianMixture([1.0], [[0.0]], 1.0)
    ladder = TemperatureLadder(np.array([1.0]))
    params = RunParams(eta=0.1, T=0.5, t=25)
    x, trace = run_stlmc(single, ladder, np.zeros(1), params, np.random.default_rng(1))
    assert x.shape == (1,)
    assert len(trace) == 25
    steps, levels, move_types, accepted = zip(*[row[:4] for row in trace])
    assert steps == tuple(range(1, 26))
    assert set(levels) == {1}
    assert set(move_types) <= {1, 2}


def test_run_stlmc_retries_exhausted():
    desk = GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], 1.0)
    ladder = TemperatureLadder(np.array([1.0 / 9.0, 1.0]))
    # a wildly wrong normalizer estimate suppresses moves to the top level
    lz = np.array([0.0, 60.0])
    params = RunParams(eta=0.1, T=0.5, t=10, max_retries=4)
    with pytest.raises(RetriesExhaustedError) as exc:
        run_stlmc(desk, ladder, lz, params, np.random.default_rng(0))
    # four rounds of 100 attempts
    assert exc.value.attempts == 4
    assert exc.value.final_levels == {1: 400}


def test_run_stlmc_retries_exhausted_across_batches(monkeypatch):
    # four rounds of three attempts each: the final-level histogram adds
    # up over the rounds
    monkeypatch.setattr("stlmc.tempering_chain._TRACE_ROWS", 3)
    desk = GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], 1.0)
    ladder = TemperatureLadder(np.array([1.0 / 9.0, 1.0]))
    params = RunParams(eta=0.1, T=0.5, t=10, max_retries=4)
    with pytest.raises(RetriesExhaustedError) as exc:
        run_stlmc(desk, ladder, np.array([0.0, 60.0]), params, np.random.default_rng(0))
    assert exc.value.attempts == 4
    assert exc.value.final_levels == {1: 12}


def test_run_stlmc_budget_counts_rounds(desk):
    # at exact normalizers on the +-3 desk, all of the first 100 attempts
    # of this trace stream end below the top; the 108th reaches it
    ladder = make_ladder(desk)
    lz = log_partition_quadrature(desk, ladder.betas)
    params = RunParams(eta=0.1, T=0.5, t=300)
    rng = np.random.default_rng(np.random.SeedSequence(171, spawn_key=(1_000_000,)))
    x, trace = run_stlmc(desk, ladder, lz - lz[0], params, rng)
    assert len(trace) == 108 * params.t
    assert trace[-1][1] == ladder.L
    np.testing.assert_array_equal(x, trace[-1][4:])


def test_run_stlmc_validates_log_zhat_length(desk):
    ladder = make_ladder(desk)
    params = RunParams(eta=0.1, T=0.5, t=5)
    with pytest.raises(ValueError, match="one entry per ladder level"):
        run_stlmc(desk, ladder, np.zeros(3), params, np.random.default_rng(0))


@pytest.mark.parametrize("batch_rows", [512, 2])
def test_run_stlmc_trace_is_consecutive_attempts(cheap, monkeypatch, batch_rows):
    # batch_rows = 2 spreads the attempts over several engine batches
    monkeypatch.setattr("stlmc.tempering_chain._TRACE_ROWS", batch_rows)
    ladder = make_ladder(cheap)
    L = ladder.L
    params = RunParams(eta=0.1, T=0.5, t=20)
    attempts = []
    for seed in range(6):
        x, trace = run_stlmc(cheap, ladder, np.zeros(L), params, np.random.default_rng(seed))
        assert [row[0] for row in trace] == list(range(1, len(trace) + 1))
        assert len(trace) % params.t == 0
        ends = trace[params.t - 1::params.t]
        assert all(row[1] < L for row in ends[:-1])
        assert ends[-1][1] == L
        np.testing.assert_array_equal(x, ends[-1][4:])
        for prev, row in zip(trace, trace[1:]):
            if row[0] % params.t == 1:
                continue  # a new attempt starts from a fresh point at level 1
            if row[2] == 2:
                assert row[4:] == prev[4:]
                assert (row[1] != prev[1]) == bool(row[3])
            else:
                assert row[1] == prev[1] and row[3] == 1
        x2, trace2 = run_stlmc(cheap, ladder, np.zeros(L), params, np.random.default_rng(seed))
        assert trace2 == trace
        np.testing.assert_array_equal(x2, x)
        attempts.append(len(ends))
    assert max(attempts) > 1


def test_returned_samples_match_top_level_slice(cheap):
    # the retry rule must not distort the distribution: samples returned
    # by the retrying runner agree with the top-level endpoint slice of
    # independent fixed-length runs
    ladder = make_ladder(cheap)
    lzq = np.array([log_partition_quadrature(cheap, b) for b in ladder.betas])
    lz = lzq - lzq[0]
    params = RunParams(eta=0.1, T=0.5, t=80)
    rng = np.random.default_rng(30)
    returned = np.array(
        [run_stlmc(cheap, ladder, lz, params, rng)[0][0] for _ in range(600)]
    )
    x, lev = run_tempering_batch(
        cheap, ladder.betas, lz, 4000, params, np.random.default_rng(31)
    )
    endpoints = x[lev == ladder.L - 1][:, 0]
    edges = np.array([-np.inf, -2.25, -1.5, -0.75, 0.0, 0.75, 1.5, 2.25, np.inf])
    table = np.vstack(
        [np.histogram(returned, bins=edges)[0], np.histogram(endpoints, bins=edges)[0]]
    )
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 0.01


def test_batch_runner_is_deterministic(cheap):
    ladder = make_ladder(cheap)
    params = RunParams(eta=0.1, T=0.5, t=40)
    x1, l1 = run_tempering_batch(
        cheap, ladder.betas, np.zeros(ladder.L), 300, params, np.random.default_rng(9)
    )
    x2, l2 = run_tempering_batch(
        cheap, ladder.betas, np.zeros(ladder.L), 300, params, np.random.default_rng(9)
    )
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(l1, l2)


def test_batch_stats_accounting(cheap):
    ladder = make_ladder(cheap)
    params = RunParams(eta=0.1, T=0.5, t=40)
    stats = new_batch_stats(ladder.L)
    burn = 10
    n_chains = 200
    run_tempering_batch(
        cheap, ladder.betas, np.zeros(ladder.L), n_chains, params,
        np.random.default_rng(9), stats=stats, occupancy_burn_in=burn,
    )
    assert stats["chains"] == n_chains
    assert stats["occupancy"].sum() == n_chains * (params.t - burn)
    assert np.all(stats["accepts"] <= stats["proposals"])
    assert stats["grad_evals"] > 0
    # neighbor proposals only touch adjacent levels
    off = np.abs(np.subtract.outer(np.arange(ladder.L), np.arange(ladder.L)))
    assert stats["proposals"][off != 1].sum() == 0
    merged = merge_batch_stats(new_batch_stats(ladder.L), stats)
    assert merged["chains"] == n_chains
    np.testing.assert_array_equal(merged["occupancy"], stats["occupancy"])


def test_uniform_proposal_reaches_all_levels(cheap):
    ladder = make_ladder(cheap)
    params = RunParams(eta=0.1, T=0.5, t=40, proposal_mode="uniform")
    stats = new_batch_stats(ladder.L)
    run_tempering_batch(
        cheap, ladder.betas, np.zeros(ladder.L), 200, params,
        np.random.default_rng(10), stats=stats,
    )
    off = np.abs(np.subtract.outer(np.arange(ladder.L), np.arange(ladder.L)))
    assert stats["proposals"][off > 1].sum() > 0
    # a uniform draw of the current level is no level move: not counted
    assert not np.diag(stats["proposals"]).any()


def test_uniform_trace_accepted_level_moves_change_level(cheap):
    ladder = make_ladder(cheap)
    params = RunParams(eta=0.1, T=0.5, t=40, proposal_mode="uniform")
    stay = 0
    for seed in range(4):
        _, trace = run_stlmc(cheap, ladder, np.zeros(ladder.L), params,
                             np.random.default_rng(seed))
        for prev, row in zip([None] + trace, trace):
            # every attempt starts at level 1
            before = 1 if row[0] % params.t == 1 else prev[1]
            if row[2] == 2:
                assert (row[1] != before) == bool(row[3])
                stay += row[1] == before
    assert stay > 0


@pytest.mark.parametrize("mode", ["neighbor", "uniform"])
@pytest.mark.parametrize("block", [1, 40])
def test_batch_blocks_are_width_invariant(mode, block):
    # generic means in d = 10: axis-aligned ones would hide summation-order
    # differences; one-chain blocks give one-row Langevin batches
    rng = np.random.default_rng(50)
    target = GaussianMixture(rng.dirichlet(np.ones(4)), 2.0 * rng.standard_normal((4, 10)), 1.0)
    betas = np.array([0.2, 0.45, 0.7, 1.0])
    lz = np.array([0.0, -0.6, -1.1, -1.4])
    params = RunParams(eta=0.1, T=0.5, t=30, proposal_mode=mode)

    def gen(b):
        return np.random.default_rng(np.random.SeedSequence(7, spawn_key=(b,)))

    for k in (1, 3, 8):
        wide_stats = new_batch_stats(4)
        x, lev = run_tempering_batch(target, betas, lz, k * block, params,
                                     [gen(b) for b in range(k)], stats=wide_stats)
        one_stats = new_batch_stats(4)
        parts = [run_tempering_batch(target, betas, lz, block, params, gen(b),
                                     stats=one_stats) for b in range(k)]
        np.testing.assert_array_equal(x, np.concatenate([p[0] for p in parts]))
        np.testing.assert_array_equal(lev, np.concatenate([p[1] for p in parts]))
        for key in ("proposals", "accepts", "occupancy"):
            np.testing.assert_array_equal(wide_stats[key], one_stats[key])
        assert wide_stats["grad_evals"] == one_stats["grad_evals"]
        assert wide_stats["chains"] == one_stats["chains"] == k * block
    with pytest.raises(ValueError, match="split evenly"):
        run_tempering_batch(target, betas, lz, 10, params, [gen(0), gen(1), gen(2)])


def test_batch_divergence_raises_non_finite_gradient(cheap):
    # far from the modes the update multiplies x by 1 - eta beta / sigma2 = -4
    params = RunParams(eta=5.0, T=50.0, t=200)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteGradientError) as exc:
        run_tempering_batch(cheap, [1.0], [0.0], 8, params, np.random.default_rng(0))
    assert np.all(np.isfinite(exc.value.x))


@pytest.mark.parametrize("perturbed", [False, True])
def test_engine_gradient_rows_go_through_f_and_grad(monkeypatch, cheap, perturbed):
    # a tracer counts the engine's gradient work as the rows it passes to
    # the public f_and_grad (outermost call only), so those rows must equal
    # stats["grad_evals"]; the engine reads only the gradient, so every
    # call asks for value=False
    target = PerturbedTarget(cheap, SinusoidalPerturbation(0.2)) if perturbed else cheap
    rows = []
    values = []
    depth = [0]
    for cls in (GaussianMixture, PerturbedTarget):
        def counted(obj, x, _inner=cls.f_and_grad, **kwargs):
            if not depth[0]:
                rows.append(max(1, np.size(x) // obj.d))
                values.append(kwargs.get("value", True))
            depth[0] += 1
            try:
                return _inner(obj, x, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(cls, "f_and_grad", counted)
    ladder = make_ladder(cheap)
    params = RunParams(eta=0.1, T=0.5, t=30)
    for n_chains, rngs in ((1, np.random.default_rng(4)),
                           (96, [np.random.default_rng(b) for b in range(3)])):
        rows.clear()
        values.clear()
        stats = new_batch_stats(ladder.L)
        run_tempering_batch(target, ladder.betas, np.zeros(ladder.L), n_chains, params,
                            rngs, stats=stats)
        assert sum(rows) == stats["grad_evals"] > 0
        assert set(values) == {False}
        if n_chains == 1:
            # every within-level move of a lone chain has exactly one heads row
            assert set(rows) == {1}


def _count_f_rows(monkeypatch):
    """Log the rows of every GaussianMixture.f call."""
    rows = []

    def counted(obj, x, _inner=GaussianMixture.f):
        rows.append(max(1, np.size(x) // obj.d))
        return _inner(obj, x)

    monkeypatch.setattr(GaussianMixture, "f", counted)
    return rows


@pytest.mark.parametrize("mode", ["neighbor", "uniform"])
@pytest.mark.parametrize("blocks", [1, 3])
def test_level_moves_evaluate_only_on_ladder_proposals(monkeypatch, cheap, mode, blocks):
    # a proposal past either end of the ladder is rejected without an
    # energy, so f sees exactly the counted proposals, in one call per step
    rows = _count_f_rows(monkeypatch)
    ladder = make_ladder(cheap)
    params = RunParams(eta=0.1, T=0.5, t=40, proposal_mode=mode)
    stats = new_batch_stats(ladder.L)
    run_tempering_batch(cheap, ladder.betas, np.zeros(ladder.L), 64 * blocks, params,
                        [np.random.default_rng(b) for b in range(blocks)], stats=stats)
    assert sum(rows) == stats["proposals"].sum() > 0
    assert len(rows) <= params.t


def test_single_level_moves_evaluate_nothing(monkeypatch):
    rows = _count_f_rows(monkeypatch)
    single = GaussianMixture([1.0], [[0.0]], 1.0)
    stats = new_batch_stats(1)
    run_tempering_batch(single, [1.0], [0.0], 50, RunParams(eta=0.1, T=0.5, t=20),
                        np.random.default_rng(3), stats=stats)
    assert rows == []
    assert stats["proposals"].sum() == 0


@pytest.mark.parametrize("mode", ["neighbor", "uniform"])
def test_swap_counts_match_add_at_reference(cheap, mode):
    # replay each step's draws from a copy of the generator to get every
    # proposal, and count proposals and accepts pair by pair with np.add.at
    ladder = make_ladder(cheap)
    L = ladder.L
    params = RunParams(eta=0.1, T=0.5, t=1, proposal_mode=mode)
    K = round(params.T / params.eta)
    lz = np.array([0.0, -0.3, -0.5, -0.6])[:L]
    rng = np.random.default_rng(12)
    n = 300
    x = rng.standard_normal((n, 1)) * 2.0
    lev = rng.integers(0, L, n)
    stats = new_batch_stats(L)
    want_prop = np.zeros((L, L), dtype=np.int64)
    want_acc = np.zeros((L, L), dtype=np.int64)
    for _ in range(25):
        replay = copy.deepcopy(rng)
        before = lev.copy()
        heads = replay.random(n) < 0.5
        h = np.count_nonzero(heads)
        if h:
            replay.standard_normal((K, h, 1))
        old = before[~heads]
        if mode == "neighbor":
            prop = old + np.where(replay.random(old.size) < 0.5, -1, 1)
        else:
            prop = replay.integers(0, L, old.size)
        valid = (prop >= 0) & (prop < L) & (prop != old)
        np.add.at(want_prop, (old[valid], prop[valid]), 1)
        _, accepted = _chain_step(cheap, x, lev, ladder.betas, lz, params, [rng], [n], stats)
        np.add.at(want_acc, (before[accepted], lev[accepted]), 1)
    assert want_acc.sum() > 0
    np.testing.assert_array_equal(stats["proposals"], want_prop)
    np.testing.assert_array_equal(stats["accepts"], want_acc)


def test_write_trace_csv(tmp_path, desk):
    ladder = TemperatureLadder(np.array([1.0]))
    params = RunParams(eta=0.1, T=0.5, t=5)
    _, trace = run_stlmc(desk, ladder, np.zeros(1), params, np.random.default_rng(3))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace, d=1)
    lines = path.read_text().splitlines()
    assert lines[0] == "# stlmc trace v1"
    assert lines[1] == "step,level,move_type,accepted,x_1"
    assert len(lines) == 2 + len(trace)
    first = lines[2].split(",")
    assert first[0] == "1"
    float(first[4])


def test_run_params_validation():
    with pytest.raises(ValueError):
        RunParams(eta=-0.1, T=0.5, t=10)
    with pytest.raises(ValueError):
        RunParams(eta=0.1, T=0.0, t=10)
    with pytest.raises(ValueError):
        RunParams(eta=0.1, T=0.5, t=0)
    with pytest.raises(ValueError):
        RunParams(eta=0.1, T=0.5, t=10, m=0)
    with pytest.raises(ValueError):
        RunParams(eta=0.1, T=0.5, t=10, max_retries=0)
    with pytest.raises(ValueError, match="proposal_mode"):
        RunParams(eta=0.1, T=0.5, t=10, proposal_mode="sideways")


def test_run_params_convert_once():
    # a config's run section may hold 1 for 1.0 or "300" for 300
    p = RunParams(eta="0.1", T=1, t="300", m=50.0, seed=np.int64(7), max_retries=3.0,
                  c1=1, c2="2")
    assert (p.eta, p.T, p.t, p.m, p.seed, p.max_retries, p.c1, p.c2) == (
        0.1, 1.0, 300, 50, 7, 3, 1.0, 2.0)
    assert [type(v) for v in (p.eta, p.T, p.c1, p.c2)] == [float] * 4
    assert [type(v) for v in (p.t, p.m, p.seed, p.max_retries)] == [int] * 4
    q = RunParams(eta=0.1, T=0.5, t=10)
    assert (q.m, q.seed, q.c1, q.c2, q.proposal_mode) == (None, None, 1.0, 1.0, "neighbor")


@pytest.mark.parametrize("field, value", [("t", None), ("eta", [0.1]), ("T", "fast"),
                                          ("max_retries", None), ("c2", {}),
                                          ("m", float("inf")), ("t", 40.9), ("m", 10.5),
                                          ("seed", True), ("max_retries", 100.2),
                                          ("m", np.float64(2.5)), ("eta", True),
                                          ("T", False), ("c1", True), ("c2", False)])
def test_run_params_wrong_type_names_the_field(field, value):
    kwargs = dict(eta=0.1, T=0.5, t=10)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be"):
        RunParams(**kwargs)


def test_stage_samples_defaults_to_ten_l_squared():
    assert RunParams(eta=0.1, T=0.5, t=10).stage_samples(15) == 2250
    assert RunParams(eta=0.1, T=0.5, t=10, m=50).stage_samples(15) == 50


@st.composite
def _engine_cases(draw):
    """A small 1-d mixture, ladder prefix, proposal rule and block split."""
    n_modes = draw(st.integers(1, 3))
    means = [[draw(st.floats(-3.0, 3.0))] for _ in range(n_modes)]
    weights = [draw(st.integers(1, 4)) for _ in range(n_modes)]
    target = GaussianMixture(np.divide(weights, sum(weights)), means,
                             draw(st.floats(0.5, 2.0)))
    L = draw(st.integers(1, 5))
    betas = np.linspace(draw(st.floats(0.05, 0.9)), 1.0, L) if L > 1 else np.ones(1)
    log_zhat = [draw(st.floats(-2.0, 2.0)) for _ in range(L)]
    t = draw(st.integers(1, 12))
    params = RunParams(eta=0.1, T=draw(st.sampled_from([0.1, 0.3, 0.5])), t=t,
                       proposal_mode=draw(st.sampled_from(["neighbor", "uniform"])))
    return (target, betas, np.asarray(log_zhat), params, draw(st.integers(1, 3)),
            draw(st.integers(1, 16)), draw(st.integers(0, t)), draw(st.integers(0, 2**32)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_engine_cases())
def test_engine_accounting_properties(case):
    target, betas, log_zhat, params, k, block, burn_in, seed = case
    L, K, n = betas.size, params.steps_per_macro, k * block

    def gen(b):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))

    stats = new_batch_stats(L)
    x, lev = run_tempering_batch(target, betas, log_zhat, n, params,
                                 [gen(b) for b in range(k)], stats=stats,
                                 occupancy_burn_in=burn_in)
    assert np.all(stats["accepts"] <= stats["proposals"])
    assert not np.diag(stats["proposals"]).any()
    if params.proposal_mode == "neighbor":
        off = np.abs(np.subtract.outer(np.arange(L), np.arange(L)))
        assert not stats["proposals"][off != 1].any()
    assert stats["occupancy"].sum() == n * (params.t - burn_in)
    assert stats["grad_evals"] % K == 0
    assert stats["grad_evals"] <= K * n * params.t
    assert stats["chains"] == n
    # one k-block call is the k one-block calls, in bytes and in summed stats
    one = new_batch_stats(L)
    parts = [run_tempering_batch(target, betas, log_zhat, block, params, gen(b),
                                 stats=one, occupancy_burn_in=burn_in) for b in range(k)]
    assert x.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
    assert lev.tobytes() == np.concatenate([p[1] for p in parts]).tobytes()
    for key in ("proposals", "accepts", "occupancy"):
        np.testing.assert_array_equal(stats[key], one[key])
    assert (stats["grad_evals"], stats["chains"]) == (one["grad_evals"], one["chains"])
