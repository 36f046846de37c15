"""Simulated tempering chain over (point, temperature level) pairs.

Each step flips a fair coin. Heads runs one Langevin macro-step at the
current level's inverse temperature (a within-level move); tails
proposes a level change, to a neighbor or to any level as
``RunParams.proposal_mode`` says, and accepts it with the Metropolis
ratio ``min(1, exp((beta_k - beta_k') f(x) + log zhat_k - log zhat_k'))``;
levels carry equal weight (the uniform level prior of Marinari & Parisi
1992), so the ratio has no weight term. A uniform draw of the current
level is no level move: it is neither counted nor accepted.
Levels are 0-based indices into the ladder, with the top level L - 1 at
beta = 1, so an accepted run ends at the true target temperature; only
``run_stlmc``'s trace, the CLI summary and ``RetriesExhaustedError``
number them from 1.

Both callers below run the chain as one walk, ``_walk``, which draws
the rows' start points and then advances them one step at a time:
``_draw_step`` takes a step's random numbers from the generators and
``_apply_step`` runs the moves on them. Within-level moves run
``RunParams.steps_per_macro`` updates through ``langevin_kernel``'s
update loop, the one ``run_macro_step`` also runs. What a step draws,
and how much, depends only on its coin flips, never on the chains, so
for wide steps a helper thread draws step s + 1 while the walk applies
step s; numpy releases the GIL in its generator fills and large ufuncs.
The helper only draws: target calls and ``stats`` stay on the calling
thread, and each generator sees the same calls in the same order, so
the results keep their bits. The thread ends with the walk, before
either caller returns or raises.

``run_tempering_batch`` advances many independent replicas at once,
gathering the rows that drew a within-level move so the gradient loop
only touches active chains. Its rows may form several blocks, each
drawing from its own generator: the arithmetic runs once on all rows,
and each block's results are the same as if it ran alone, so callers
choose the width of a call apart from how its randomness is split.
``run_stlmc`` runs restarting attempts in rounds, one walk a round,
and records the trace of the chain that reaches the top.
Every run option comes from ``RunParams``, and a ladder is the plain
array of its inverse temperatures, from ``make_ladder`` through both
callers.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import RetriesExhaustedError, _coerce
from .langevin_kernel import _updates, check_step_size

__all__ = [
    "RunParams",
    "make_ladder",
    "run_stlmc",
    "run_tempering_batch",
    "new_batch_stats",
    "merge_batch_stats",
]

_PROPOSAL_MODES = ("uniform", "neighbor")
# the most levels make_ladder builds; the tests, checks and benchmark use at most 143
_MAX_LEVELS = 10_000
# attempts per round of run_stlmc; params.max_retries rounds run at most
_TRACE_ROWS = 100
# a step that draws this many numbers on average is drawn ahead on a helper
# thread (see _walk)
_HELPER_DRAWS = 2**15


@dataclass(frozen=True)
class RunParams:
    """The run options: a config's ``run`` section less ``workers``.

    Numeric fields are converted once here: eta, T, c1 and c2 to float;
    t, max_retries and, when given, m and seed to int. ``m`` is the
    endpoint count of each estimation stage, ``stage_samples`` picks the
    default 10 L^2 when it is None. ``c1`` and ``c2`` scale the ladder
    (``make_ladder``) and ``proposal_mode`` is the level-move rule.
    """

    eta: float
    T: float
    t: int
    m: int | None = None
    seed: int | None = None
    max_retries: int = 100
    c1: float = 1.0
    c2: float = 1.0
    proposal_mode: str = "neighbor"

    def __post_init__(self):
        for name, kind in (("eta", float), ("T", float), ("t", int), ("m", int),
                           ("seed", int), ("max_retries", int), ("c1", float), ("c2", float)):
            value = getattr(self, name)
            if value is not None or name not in ("m", "seed"):
                object.__setattr__(self, name, _coerce(name, kind, value))
        for name in ("eta", "T", "c1", "c2"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite (got {value!r})")
        if not math.isfinite(self.T / self.eta):
            raise ValueError(f"T / eta must be finite (got T={self.T!r}, eta={self.eta!r})")
        if self.t < 1:
            raise ValueError("t must be a positive integer")
        if self.m is not None and self.m < 1:
            raise ValueError("m must be a positive integer when given")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer (got {self.seed})")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.proposal_mode not in _PROPOSAL_MODES:
            raise ValueError(f"proposal_mode must be one of {_PROPOSAL_MODES}")

    @property
    def steps_per_macro(self) -> int:
        """Langevin steps per within-level move, max(1, round(T / eta))."""
        return max(1, round(self.T / self.eta))

    def stage_samples(self, L: int) -> int:
        """Endpoints per estimation stage on an L-level ladder: m, or 10 L^2."""
        return self.m if self.m is not None else 10 * L * L

    def check_climb(self, L: int) -> None:
        """Refuse an L-level ladder whose top t neighbor moves cannot reach.

        A chain starts at level 1 and a neighbor move climbs at most one
        level, so it needs t >= L - 1 steps; a uniform move reaches any
        level in one.
        """
        if self.proposal_mode == "neighbor" and self.t < L - 1:
            raise ValueError(f"t={self.t} steps cannot climb from level 1 to level {L} "
                             f"with neighbor moves; give t >= {L - 1}")


def make_ladder(target, c1=1.0, c2=1.0) -> np.ndarray:
    """Arithmetic ladder of inverse temperatures sized from the target geometry.

    The lowest inverse temperature is ``min(1, c1 * sigma2 / D^2)`` and
    the spacing is ``c2 * sigma2 / (D^2 (d + ln(1/w_min)))``, clamped so
    the last level lands exactly on 1. A target with all means at the
    origin (D = 0) is already unimodal and gets the single-level ladder.
    A ladder of more than ``_MAX_LEVELS`` levels, 1 + ceil((1 - beta_1) /
    spacing), is refused with ``ValueError`` before it is built. The
    result is a read-only 1-d array, strictly increasing from beta_1 > 0
    to exactly 1; levels carry equal weight.
    """
    if not (c1 > 0 and c2 > 0 and math.isfinite(c1) and math.isfinite(c2)):
        raise ValueError(f"c1 and c2 must be positive and finite (got c1={c1!r}, c2={c2!r})")
    D = target.D
    if D == 0.0:
        betas = [1.0]
    else:
        b1 = min(1.0, c1 * target.sigma2 / D**2)
        step = c2 * target.sigma2 / (D**2 * (target.d + math.log(1.0 / target.w_min)))
        # a zero spacing (D**2 overflowing) would never reach 1
        gaps = (1.0 - b1) / step if step > 0 else math.inf
        if gaps > _MAX_LEVELS - 1:
            count = "unboundedly many" if math.isinf(gaps) else 1 + math.ceil(gaps)
            raise ValueError(
                f"the ladder for sigma2={target.sigma2:.6g}, D={D:.6g}, c2={c2:.6g} "
                f"would have {count} levels, more than {_MAX_LEVELS}")
        betas = [b1]
        while betas[-1] < 1.0:
            betas.append(min(betas[-1] + step, 1.0))
    betas = np.asarray(betas)
    betas.flags.writeable = False
    return betas


def new_batch_stats(L: int) -> dict:
    return {
        "proposals": np.zeros((L, L), dtype=np.int64),
        "accepts": np.zeros((L, L), dtype=np.int64),
        "occupancy": np.zeros(L, dtype=np.int64),
        "grad_evals": 0,
        "chains": 0,
    }


def merge_batch_stats(into: dict, other: dict) -> dict:
    for key in ("proposals", "accepts", "occupancy"):
        into[key] += other[key]
    into["grad_evals"] += other["grad_evals"]
    into["chains"] += other["chains"]
    return into


def _per_block(rngs, counts, draw):
    """Concatenate ``draw(rng, count)`` over the blocks, in block order."""
    return np.concatenate([draw(g, c) for g, c in zip(rngs, counts)])


def _level_log_ratio(f_x, k, k_prime, betas, log_zhat):
    """Log Metropolis ratio of the level moves k -> k_prime at energies f_x.

    Levels are 0-based indices into ``betas`` and ``log_zhat``; the move
    is accepted with probability ``min(1, exp(ratio))``.
    """
    return (betas[k] - betas[k_prime]) * f_x + log_zhat[k] - log_zhat[k_prime]


def _draw_step(rngs, n, d, L, params):
    """Draw one step's random numbers for blocks of n rows, one per generator.

    Block b draws from ``rngs[b]`` in the order ``run_tempering_batch``
    documents. How many numbers that is depends only on the coin flips,
    never on the chains, so a step can be drawn before the previous one
    is applied. Returns ``(heads, noise, move, log_u)``: the within-level
    row mask; the C-ordered (K, d, h) Langevin noise of the heads rows,
    scaled by sqrt(2 eta); and for the tails rows the neighbour direction
    (+-1) or the uniform proposal, and log(1 - U) of the acceptance
    uniforms.
    """
    K = params.steps_per_macro
    heads = np.concatenate([g.random(n) for g in rngs]) < 0.5
    n_heads = np.count_nonzero(heads.reshape(len(rngs), -1), axis=1)
    noise = move = log_u = None
    if n_heads.sum():
        # one (K, h, d) draw per block is its K successive (h, d) draws;
        # the updates run on (d, h) arrays, the mixture kernel's layout
        noise = np.concatenate(
            [g.standard_normal((K, h, d)) for g, h in zip(rngs, n_heads)], axis=1
        )
        noise *= math.sqrt(2.0 * params.eta)
        # a C-ordered copy (none at d = 1), made here so that it runs on the
        # helper thread, makes the updates' noise adds contiguous
        noise = np.ascontiguousarray(noise.transpose(0, 2, 1))
    n_tails = n - n_heads
    if n_tails.sum():
        if params.proposal_mode == "neighbor":
            flip = _per_block(rngs, n_tails, lambda g, c: g.random(c))
            move = np.where(flip < 0.5, -1, 1)
        else:
            move = _per_block(rngs, n_tails, lambda g, c: g.integers(0, L, c))
        # 1 - U lies in (0, 1], keeping the log finite
        log_u = np.log(1.0 - _per_block(rngs, n_tails, lambda g, c: g.random(c)))
    return heads, noise, move, log_u


def _apply_step(target, x, lev, betas, log_zhat, params, draws, stats=None):
    """Advance every row of (x, lev) by one tempering step on ``draws``, in place.

    ``draws`` is one ``_draw_step`` result for these rows. Proposal,
    acceptance and gradient-evaluation counts go into ``stats`` when it
    is given. Returns two row masks: ``heads`` (the row made a
    within-level move) and ``accepted`` (the row's level move was taken).
    """
    heads, noise, move, log_u = draws
    L = betas.shape[0]
    accepted = np.zeros(heads.shape, dtype=bool)
    if noise is not None:
        idx1 = np.flatnonzero(heads)
        xs = np.ascontiguousarray(x[idx1].T)
        x[idx1] = _updates(target, xs, params.eta * betas[lev[idx1]], noise).T
        if stats is not None:
            stats["grad_evals"] += noise.shape[0] * idx1.size
    if move is not None:
        idx2 = np.flatnonzero(~heads)
        l2 = lev[idx2]
        prop = l2 + move if params.proposal_mode == "neighbor" else move
        # a proposal past either end of the ladder is rejected unseen, and
        # uniform mode's proposal of the current level is no level move
        on = np.flatnonzero((prop >= 0) & (prop < L) & (prop != l2))
        if on.size:
            rows, k, k_new = idx2[on], l2[on], prop[on]
            f_x = np.atleast_1d(target.f(x[rows]))
            acc = log_u[on] < _level_log_ratio(f_x, k, k_new, betas, log_zhat)
            if stats is not None:
                pair = k * L + k_new
                stats["proposals"] += np.bincount(pair, minlength=L * L).reshape(L, L)
                stats["accepts"] += np.bincount(pair[acc], minlength=L * L).reshape(L, L)
            lev[rows[acc]] = k_new[acc]
            accepted[rows[acc]] = True
    return heads, accepted


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ladder(betas, log_zhat):
    """``betas`` and ``log_zhat`` as float arrays of one entry per ladder level."""
    betas = np.asarray(betas, dtype=float)
    log_zhat = np.asarray(log_zhat, dtype=float)
    if log_zhat.shape != betas.shape:
        raise ValueError("log_zhat must provide one entry per ladder level")
    return betas, log_zhat


def _walk(target, betas, log_zhat, rngs, n, params, stats=None):
    """Start blocks of n chains and run them for params.t steps, yielding after each.

    Block b's rows ``[b * n, (b + 1) * n)`` start at level 0 from n
    points of ``N(0, (sigma2 / beta_1) I)`` drawn from ``rngs[b]``, which
    then gives each step's numbers (``_draw_step``). Each yield is
    ``(x, lev, heads, accepted)``: the rows, updated in place, and
    ``_apply_step``'s two row masks; ``stats`` takes the step counts.
    A step that draws ``_HELPER_DRAWS`` numbers or more on average (a
    coin flip per row, K d normals per heads row and two numbers per
    tails row, half the rows each), in a process that is not a pool
    worker and may use two CPUs, is drawn on a helper thread while the
    step before it is applied: below that size the GIL hand-offs cost
    about what the thread saves, and pool workers already fill the CPUs.
    Nothing is drawn past step t, and the thread ends with the walk,
    whether it finishes or raises.
    """
    # imported on use, so importing this module loads neither
    import multiprocessing

    d, t = target.d, params.t
    x = np.concatenate([g.standard_normal((n, d)) for g in rngs])
    x *= math.sqrt(target.sigma2 / betas[0])
    lev = np.zeros(x.shape[0], dtype=np.int64)
    draw = partial(_draw_step, rngs, n, d, betas.shape[0], params)
    if (x.shape[0] * (2 + params.steps_per_macro * d / 2) < _HELPER_DRAWS
            or multiprocessing.parent_process() is not None or _usable_cpus() < 2):
        for _ in range(t):
            yield x, lev, *_apply_step(target, x, lev, betas, log_zhat, params, draw(), stats)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(draw)
        for step in range(t):
            draws = ahead.result()
            if step + 1 < t:
                ahead = pool.submit(draw)
            yield x, lev, *_apply_step(target, x, lev, betas, log_zhat, params, draws, stats)


def run_tempering_batch(
    target,
    betas,
    log_zhat,
    n_chains,
    params: RunParams,
    rng,
    stats=None,
    occupancy_burn_in=0,
):
    """Advance n_chains independent tempering replicas for params.t steps.

    ``betas`` may be any ladder prefix; levels are 0-based row indices
    into it. Returns the final points (n_chains, d) and final levels
    (n_chains,). When a ``stats`` dict from ``new_batch_stats`` is
    passed, per-pair proposal/acceptance counts, per-step level
    occupancy (from ``occupancy_burn_in`` on) and the gradient-evaluation
    count are accumulated into it.

    ``rng`` is one Generator or a sequence of k per-block generators.
    Block b owns rows ``[b * n, (b + 1) * n)`` with ``n = n_chains / k``
    and draws all of its randomness from its own generator: its start
    points, then in the same order each step the n coin flips, the
    Langevin noise of its within-level rows, then the proposals and the
    acceptance uniforms of its level-move rows. The arithmetic runs once
    on all rows, and each row's result does not depend on the other
    rows, so one call with k generators returns exactly the concatenated
    results (and the summed stats) of k one-block calls. The rows run
    as one ``_walk``, so a wide call draws each next step on a helper
    thread while the current one is applied; the results and the
    generators' final states are the same either way.

    Raises
    ------
    NonFiniteGradientError
        When a Langevin update leaves a row non-finite (a step size far
        beyond the target's curvature bound); the error carries the
        point the update started from.
    """
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    if not rngs or n_chains % len(rngs):
        raise ValueError("n_chains must split evenly over the block generators")
    betas, log_zhat = _ladder(betas, log_zhat)
    walk = _walk(target, betas, log_zhat, rngs, n_chains // len(rngs), params, stats)
    for step, (x, lev, _, _) in enumerate(walk):
        if stats is not None and step >= occupancy_burn_in:
            stats["occupancy"] += np.bincount(lev, minlength=betas.shape[0])
    if stats is not None:
        stats["chains"] += n_chains
    return x, lev


def run_stlmc(target, betas, log_zhat, params, rng):
    """Restart the tempering chain until it ends at the top; return (sample, trace).

    Each attempt starts at level 1 from ``N(0, (sigma2 / beta_1) I)``
    and runs ``params.t`` steps; the sample is the endpoint of the first
    attempt that ends at the top level. The attempts run in rounds of
    ``_TRACE_ROWS``, each round the rows of one ``_walk`` drawing from
    ``rng``, for at most ``params.max_retries`` rounds, and the first
    row in row order that ends at the top is returned. Attempts are
    i.i.d., so this has the law of retrying one attempt at a time.
    The trace is a (rows, 4 + d) float array with one row per step of
    that attempt and of every attempt before it: step, level,
    move_type, accepted, then x, with steps numbered 1, 2, ... across
    attempts, levels 1-based, move type 1 (within level) or 2 (level
    move) and accepted 1 for every within-level move; its first four
    columns hold exact integers.

    Raises
    ------
    ValueError
        When t neighbor moves cannot climb the ladder (``RunParams.check_climb``).
    RetriesExhaustedError
        When every attempt ends below the top level; the error carries
        the round count and a histogram of 1-based final levels.
    """
    check_step_size(params.eta, target)
    betas, log_zhat = _ladder(betas, log_zhat)
    L = betas.shape[0]
    params.check_climb(L)
    t, n, d = params.t, _TRACE_ROWS, target.d
    trace = []
    level_counts = np.zeros(L, dtype=np.int64)
    for _ in range(params.max_retries):
        history = np.empty((t, n, 3 + d))  # level, move type, accepted, x
        walk = _walk(target, betas, log_zhat, [rng], n, params)
        for step, (x, lev, heads, accepted) in enumerate(walk):
            history[step] = np.column_stack([lev + 1, np.where(heads, 1, 2), heads | accepted, x])
        top = np.flatnonzero(lev == L - 1)
        rows = top[0] + 1 if top.size else n
        trace.append(history[:, :rows].transpose(1, 0, 2).reshape(-1, 3 + d))
        if top.size:
            trace = np.concatenate(trace)
            return x[top[0]], np.column_stack([np.arange(1, trace.shape[0] + 1), trace])
        level_counts += np.bincount(lev, minlength=L)
    raise RetriesExhaustedError(params.max_retries, level_counts)
