"""Inductive partition-function estimation along the temperature ladder.

Level 1's normalizer anchors the scale (log zhat_1 = 0). Each stage
runs the tempering chain restricted to the first ell ladder levels,
keeps the replicas that finish at level ell, and extends the estimate
with the sample mean of ``exp((beta_ell - beta_{ell+1}) f(x))``, all in
the log domain. Replicas advance in fixed-size blocks of 512 whose
generator streams are derived from (seed, stage, round, block). A
round's blocks run as a few wide engine calls, contiguous groups of at
most 40,960 chain coordinates (chains times d: 4096 chains at d = 10,
40,960 at d = 1) split so that every worker gets one; a block's results
do not depend on the group it runs in, so outputs do not depend on how
many workers execute the round. A stage runs at most
``params.max_retries`` rounds. One process pool serves a whole run, and
every run option, the ladder scales and the proposal rule included,
comes from ``RunParams``.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .diagnostics import log_partition_quadrature
from .errors import BoundViolationError, RetriesExhaustedError
from .langevin_kernel import check_step_size
from .mixture_target import GaussianMixture, _logsumexp
from .tempering_chain import (
    RunParams,
    _usable_cpus,
    make_ladder,
    merge_batch_stats,
    new_batch_stats,
    run_tempering_batch,
)

__all__ = [
    "MainResult",
    "ConcentrationResult",
    "estimate_next_z",
    "run_main_algorithm",
    "concentration_check",
    "sample_exact",
]

_BLOCK = 512
# Chains times d of one engine call. Wider calls spend less per row on
# numpy and interpreter overhead; the cap keeps the engine's temporaries,
# which grow with chains times d, from raising peak memory, with no loss
# of speed. That is 4096 chains at d = 10 and 80 blocks at d = 1, where
# each stage of the +-3 desk run fits in one group per worker.
_GROUP_SIZE = 40_960
# Proposals per batched concentration_check chunk: about 1 MiB per array
# at d = 1, and at least one trial.
_CHUNK_DRAWS = 131_072


@dataclass
class MainResult:
    """A run's output. ``betas`` is the ladder and ``log_zhat`` the log
    normalizer estimates, one per level with ``log_zhat[0] = 0``; both
    are read-only arrays. ``stats["phases"][i]`` is stage i + 1's batch
    stats, the final sampling stage last when ``n_samples`` > 0, and
    ``stats["grad_evals"]`` is the run's total.
    """

    samples: np.ndarray
    betas: np.ndarray
    log_zhat: np.ndarray
    stats: dict


@dataclass(frozen=True)
class ConcentrationResult:
    failure_rate: float
    envelope: float
    ratio: float
    C: float
    n_samples: int
    epsilon: float
    n_trials: int


def estimate_next_z(samples, target, beta_l, beta_next, log_zhat_l) -> float:
    """Extend the running estimate by one level from level-ell samples.

    Returns ``log_zhat_l`` plus the log of the sample mean of
    ``exp((beta_l - beta_next) f(x_j))``. For non-negative energies and
    an increasing ladder the mean factor cannot exceed 1; when the
    target carries a perturbation the factor is allowed the matching
    ``exp((beta_next - beta_l) * delta)`` headroom.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("need at least one sample to extend the estimate")
    if beta_next < beta_l:
        raise ValueError("the ladder must be non-decreasing")
    fs = np.atleast_1d(target.f(samples))
    a = (beta_l - beta_next) * fs
    log_ratio = float(_logsumexp(a[:, None])[0] - math.log(fs.shape[0]))
    allowance = (beta_next - beta_l) * target.delta
    if log_ratio > allowance + 1e-12:
        raise BoundViolationError("estimate ratio factor", log_ratio, allowance)
    return float(log_zhat_l) + log_ratio


def _run_group(target, betas, log_zhat, params, keys):
    """Run one block per spawn key as a single wide engine call."""
    rngs = [np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=key))
            for key in keys]
    st = new_batch_stats(len(betas))
    x, lev = run_tempering_batch(
        target, betas, log_zhat, _BLOCK * len(keys), params, rngs, stats=st
    )
    return x, lev, st


def _collect_top(target, betas, log_zhat, n_want, params, workers, name, pool=None):
    """Gather n_want replica endpoints that finished at the top prefix level.

    The stage is the prefix length ``len(betas)``, and ``name`` names it
    in the error raised when its rounds run out. Its round r runs
    enough blocks for the replicas still missing, in
    contiguous groups of at most ``_GROUP_SIZE`` chains times d (and at
    least one block) and at most ``ceil(blocks / workers)`` blocks,
    mapped over ``pool`` when given.
    Up to ``params.max_retries`` rounds run before giving up.
    """
    stage = len(betas)
    top = stage - 1
    stats = new_batch_stats(len(betas))
    final_levels = np.zeros(len(betas), dtype=np.int64)
    chunks = []
    got = 0
    run = pool.map if pool is not None else map
    max_group = max(1, _GROUP_SIZE // (_BLOCK * target.d))
    for rnd in range(params.max_retries):
        # one extra factor covers the sub-uniform top-level occupancy
        want_chains = int(math.ceil((n_want - got) * len(betas) * 1.25))
        n_blocks = max(1, math.ceil(want_chains / _BLOCK))
        per_group = min(max_group, math.ceil(n_blocks / workers))
        groups = [[(stage, rnd, b) for b in range(first, min(first + per_group, n_blocks))]
                  for first in range(0, n_blocks, per_group)]
        job = partial(_run_group, target, betas, log_zhat, params)
        for x, lev, st in run(job, groups):
            merge_batch_stats(stats, st)
            final_levels += np.bincount(lev, minlength=len(betas))
            sel = x[lev == top]
            chunks.append(sel)
            got += sel.shape[0]
        if got >= n_want:
            return np.concatenate(chunks, axis=0)[:n_want], stats
    raise RetriesExhaustedError(
        params.max_retries,
        final_levels,
        message=(
            f"{name} failed: {got}/{n_want} top-level replicas after "
            f"{params.max_retries} rounds"
        ),
    )


def run_main_algorithm(target, params: RunParams, n_samples=1000, workers=1) -> MainResult:
    """Build the ladder, estimate all partition ratios, then sample.

    The ladder is ``make_ladder(target, params.c1, params.c2)``. Stage
    ell runs the tempering chain on the first ell levels with the
    estimates found so far and collects ``params.stage_samples(L)``
    level-ell endpoints to extend the estimates; the final stage
    collects ``n_samples`` top-level points from the full ladder and,
    when ``n_samples`` > 0, is the last of ``stats["phases"]``, one batch
    stats dict per stage. With ``workers > 1`` one pool of at most as many
    processes as usable CPUs serves every stage. A ladder whose last
    stage t neighbor moves cannot climb is refused before any sampling
    (``RunParams.check_climb``).
    """
    if params.seed is None:
        raise ValueError("params.seed is required for reproducible runs")
    check_step_size(params.eta, target)
    betas = make_ladder(target, params.c1, params.c2)
    L = len(betas)
    params.check_climb(L if n_samples > 0 else L - 1)
    m = params.stage_samples(L)
    lz = [0.0]
    phases = []
    samples = np.zeros((0, target.d))
    # a fork pool starts all its processes at the first map, and more
    # processes than CPUs only add forks; outputs depend on neither
    workers = min(workers, _usable_cpus())
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for ell in range(1, L):
            xs, st = _collect_top(target, betas[:ell], np.asarray(lz), m, params, workers,
                                  f"estimation stage {ell} of {L}", pool)
            phases.append(st)
            lz.append(estimate_next_z(xs, target, betas[ell - 1], betas[ell], lz[-1]))
        log_zhat = np.asarray(lz)
        log_zhat.flags.writeable = False
        if n_samples > 0:
            samples, st = _collect_top(target, betas, log_zhat, int(n_samples), params,
                                       workers, f"final sampling stage {L} of {L}", pool)
            phases.append(st)
    stats = {"grad_evals": sum(st["grad_evals"] for st in phases), "phases": phases}
    return MainResult(samples=samples, betas=betas, log_zhat=log_zhat, stats=stats)


def sample_exact(mixture: GaussianMixture, n, rng, beta=1.0):
    """Draw n exact samples from the density proportional to exp(-beta f).

    Proposes from the mixture with weights proportional to ``w_i^beta``
    and per-component variance ``sigma2 / beta``; since the proposal
    envelope dominates ``exp(-beta f)`` for beta <= 1 the rejection step
    is exact, and at beta = 1 every proposal is accepted.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n!r}")
    return _exact_draws(mixture, n, [rng], beta)[0]


def _exact_draws(mixture, n, rngs, beta):
    """``sample_exact`` on each generator of ``rngs``, as a (len(rngs), n, d) array.

    Each round, every stream still short of n draws ``max(2 (n - got),
    128)`` proposals from its own generator (components, normals, then
    uniforms), and one rejection test, which treats each row on its own,
    covers them all; so a stream gets exactly the points it gets alone.
    """
    _check_exact(mixture, beta)
    wb = mixture.weights**beta
    wb = wb / wb.sum()
    out = [[np.empty((0, mixture.d))] for _ in rngs]
    got = np.zeros(len(rngs), dtype=np.int64)
    while (short := np.flatnonzero(got < n)).size:
        sizes = [max(2 * (n - int(got[i])), 128) for i in short]
        comp, z, u = (np.concatenate(c) for c in zip(*[
            (rngs[i].choice(mixture.n, size=b, p=wb),
             rngs[i].standard_normal((b, mixture.d)), rngs[i].random(b))
            for i, b in zip(short, sizes)]))
        xs = mixture.means[comp] + math.sqrt(mixture.sigma2 / beta) * z
        # log exp(-beta f) less the log of the envelope sum_i w_i^beta
        # exp(-beta ||x - mu_i||^2 / (2 sigma2)), both from the logits a_i:
        # their ||x||^2 / (2 sigma2) terms cancel
        a = mixture._padded_logits(xs)[1]
        log_ratio = -_logsumexp(beta * a)
        log_ratio += beta * _logsumexp(a)
        keep = np.log(1.0 - u) < log_ratio[:xs.shape[0]]
        cuts = np.cumsum(sizes)[:-1]
        for i, rows, kept in zip(short, np.split(xs, cuts), np.split(keep, cuts)):
            out[i].append(rows[kept])
            got[i] += np.count_nonzero(kept)
    return np.stack([np.concatenate(o, axis=0)[:n] for o in out])


def _check_exact(mixture, beta):
    if not isinstance(mixture, GaussianMixture):
        raise TypeError("exact sampling needs an unperturbed mixture")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta!r}")


def concentration_check(
    mixture, beta_l, beta_next, n_samples=1000, epsilon=0.1, n_trials=1000, seed=0
) -> ConcentrationResult:
    """Empirical tail of the one-level ratio estimator against its envelope.

    Each trial draws ``n_samples`` exact points from the level-beta_l
    density, the points ``sample_exact`` draws from the trial's own
    spawn-key stream, and estimates the partition ratio to the next
    level; a trial fails when the relative error exceeds ``epsilon``.
    Trials run in chunks of about ``_CHUNK_DRAWS`` proposals, one
    ``_exact_draws`` call and one ``f`` call each. The returned envelope
    is ``exp(-n eps^2 / (2 C^4))`` with ``C = max(1, 1/ratio)``, which
    the failure rate should stay below up to binomial noise.
    """
    _check_exact(mixture, beta_l)
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples!r}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be positive, got {n_trials!r}")
    log_z = log_partition_quadrature(mixture, np.array([beta_l, beta_next]))
    ratio = math.exp(log_z[1] - log_z[0])
    C = max(1.0, 1.0 / ratio)
    per_chunk = max(1, _CHUNK_DRAWS // max(2 * n_samples, 128))
    fails = 0
    for first in range(0, n_trials, per_chunk):
        rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
                for trial in range(first, min(first + per_chunk, n_trials))]
        xs = _exact_draws(mixture, n_samples, rngs, beta_l)
        fs = mixture.f(xs.reshape(-1, mixture.d)).reshape(len(rngs), n_samples)
        rbar = np.mean(np.exp((beta_l - beta_next) * fs), axis=1)
        fails += int(np.count_nonzero(np.abs(rbar / ratio - 1.0) > epsilon))
    envelope = math.exp(-n_samples * epsilon**2 / (2.0 * C**4))
    return ConcentrationResult(
        failure_rate=fails / n_trials,
        envelope=envelope,
        ratio=ratio,
        C=C,
        n_samples=n_samples,
        epsilon=epsilon,
        n_trials=n_trials,
    )
