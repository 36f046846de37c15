"""Simulated tempering chain over (point, temperature level) pairs.

Each step flips a fair coin. Heads runs one Langevin macro-step at the
current level's inverse temperature (a within-level move); tails
proposes a level change and accepts it with the Metropolis ratio
``min(1, exp((beta_k - beta_k') f(x) + log zhat_k - log zhat_k'))``.
Levels are numbered 1..L with beta_L = 1, so an accepted run ends at
the true target temperature.

``run_stlmc`` drives one chain and records a full trace;
``run_tempering_batch`` advances many independent replicas at once,
gathering the rows that drew a within-level move so the gradient loop
only touches active chains. Its rows may form several blocks, each
drawing from its own generator: the arithmetic runs once on all rows,
and each block's results are the same as if it ran alone, so callers
choose the width of a call apart from how its randomness is split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteGradientError, RetriesExhaustedError
from .langevin_kernel import LangevinParams, check_step_size, run_macro_step

__all__ = [
    "TemperatureLadder",
    "TemperingState",
    "RunParams",
    "make_ladder",
    "type2_accept_prob",
    "tempering_step",
    "run_stlmc",
    "run_tempering_batch",
    "new_batch_stats",
    "merge_batch_stats",
    "write_trace_csv",
]

_PROPOSAL_MODES = ("uniform", "neighbor")


@dataclass(frozen=True)
class TemperatureLadder:
    """Strictly increasing inverse temperatures ending at 1, with level weights."""

    betas: np.ndarray
    rel_weights: np.ndarray
    proposal_mode: str = "neighbor"

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=float)
        w = np.asarray(self.rel_weights, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("betas must be a non-empty 1-d sequence")
        if np.any(np.diff(b) <= 0):
            raise ValueError("betas must be strictly increasing")
        if abs(b[-1] - 1.0) > 1e-12:
            raise ValueError(f"last beta must equal 1 (got {b[-1]!r})")
        if b[0] <= 0:
            raise ValueError("betas must be positive")
        if w.shape != b.shape:
            raise ValueError("need one relative weight per level")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("rel_weights must be positive and sum to 1")
        if self.proposal_mode not in _PROPOSAL_MODES:
            raise ValueError(f"proposal_mode must be one of {_PROPOSAL_MODES}")
        b = b.copy()
        w = w.copy()
        b.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "rel_weights", w)

    @property
    def L(self) -> int:
        return self.betas.shape[0]

    @property
    def r(self) -> float:
        """Weight imbalance min(r_i) / max(r_i)."""
        return float(self.rel_weights.min() / self.rel_weights.max())


@dataclass
class TemperingState:
    """Current point and 1-based level index."""

    x: np.ndarray
    level: int


@dataclass(frozen=True)
class RunParams:
    """Chain-run parameters.

    ``m`` is the per-round sample count used when estimating partition
    ratios; leaving it None selects the default 10 * L^2 at run time.
    """

    eta: float
    T: float
    t: int
    m: int | None = None
    seed: int | None = None
    max_retries: int = 100

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive (got {self.eta!r})")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive (got {self.T!r})")
        if int(self.t) < 1:
            raise ValueError("t must be a positive integer")
        if self.m is not None and int(self.m) < 1:
            raise ValueError("m must be a positive integer when given")
        if int(self.max_retries) < 1:
            raise ValueError("max_retries must be at least 1")


def make_ladder(target, c1=1.0, c2=1.0, proposal_mode="neighbor") -> TemperatureLadder:
    """Arithmetic temperature ladder sized from the target geometry.

    The lowest inverse temperature is ``min(1, c1 * sigma2 / D^2)`` and
    the spacing is ``c2 * sigma2 / (D^2 (d + ln(1/w_min)))``, clamped so
    the last level lands exactly on 1. A target with all means at the
    origin (D = 0) is already unimodal and gets the single-level ladder.
    Relative level weights are uniform.
    """
    if not (c1 > 0 and c2 > 0):
        raise ValueError("c1 and c2 must be positive")
    D = target.D
    if D == 0.0:
        betas = [1.0]
    else:
        b1 = min(1.0, c1 * target.sigma2 / D**2)
        step = c2 * target.sigma2 / (D**2 * (target.d + math.log(1.0 / target.w_min)))
        betas = [b1]
        while betas[-1] < 1.0:
            betas.append(min(betas[-1] + step, 1.0))
    L = len(betas)
    return TemperatureLadder(
        betas=np.asarray(betas),
        rel_weights=np.full(L, 1.0 / L),
        proposal_mode=proposal_mode,
    )


def type2_accept_prob(f_x, k, k_prime, ladder: TemperatureLadder, log_zhat) -> float:
    """Metropolis acceptance probability for a level move k -> k_prime.

    Levels are 1-based; ``log_zhat`` holds the running log partition
    estimates, one per level.
    """
    log_zhat = np.asarray(log_zhat, dtype=float)
    la = (
        (ladder.betas[k - 1] - ladder.betas[k_prime - 1]) * f_x
        + log_zhat[k - 1]
        - log_zhat[k_prime - 1]
    )
    return float(math.exp(min(la, 0.0)))


def _step_with_info(state, target, ladder, log_zhat, params, rng):
    L = ladder.L
    if rng.random() < 0.5:
        lp = LangevinParams(params.eta, params.T, ladder.betas[state.level - 1])
        x = run_macro_step(target, lp, state.x, rng)
        return TemperingState(x, state.level), 1, 1
    if ladder.proposal_mode == "uniform":
        k_prime = int(rng.integers(1, L + 1))
    else:
        k_prime = state.level + (-1 if rng.random() < 0.5 else 1)
        if not (1 <= k_prime <= L):
            return state, 2, 0
    a = type2_accept_prob(target.f(state.x), state.level, k_prime, ladder, log_zhat)
    if rng.random() < a:
        return TemperingState(state.x, k_prime), 2, 1
    return state, 2, 0


def tempering_step(state, target, ladder, log_zhat, params, rng) -> TemperingState:
    """Advance the chain one step (coin, then within-level or level move)."""
    new_state, _, _ = _step_with_info(state, target, ladder, log_zhat, params, rng)
    return new_state


def run_stlmc(target, ladder, log_zhat, params, rng):
    """Run one tempering chain and return (sample, trace).

    The chain starts at level 1 from ``N(0, (sigma2 / beta_1) I)`` and
    runs ``params.t`` steps. The endpoint is returned only when the
    final level is the top one; otherwise the run restarts, up to
    ``params.max_retries`` attempts. The trace lists one row per step
    across all attempts: (step, level, move_type, accepted, x...).

    Raises
    ------
    RetriesExhaustedError
        When every attempt ends below the top level; the error carries
        the attempt count and a histogram of final levels.
    """
    check_step_size(LangevinParams(params.eta, params.T), target)
    log_zhat = np.asarray(log_zhat, dtype=float)
    if log_zhat.shape != (ladder.L,):
        raise ValueError("log_zhat must provide one entry per ladder level")
    scale = math.sqrt(target.sigma2 / ladder.betas[0])
    trace = []
    step_no = 0
    final_levels: dict[int, int] = {}
    for _attempt in range(params.max_retries):
        state = TemperingState(scale * rng.standard_normal(target.d), 1)
        for _ in range(int(params.t)):
            state, move_type, accepted = _step_with_info(
                state, target, ladder, log_zhat, params, rng
            )
            step_no += 1
            trace.append((step_no, state.level, move_type, accepted, *state.x))
        if state.level == ladder.L:
            return state.x, trace
        final_levels[state.level] = final_levels.get(state.level, 0) + 1
    raise RetriesExhaustedError(params.max_retries, final_levels)


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


def run_tempering_batch(
    target,
    betas,
    log_zhat,
    n_chains,
    params: RunParams,
    rng,
    proposal_mode="neighbor",
    stats=None,
    occupancy_burn_in=0,
):
    """Advance n_chains independent tempering replicas for params.t steps.

    ``betas`` may be any ladder prefix; levels here are 0-based row
    indices into it. Returns the final points (n_chains, d) and final
    levels (n_chains,). When a ``stats`` dict from ``new_batch_stats``
    is passed, per-pair proposal/acceptance counts, per-step level
    occupancy (from ``occupancy_burn_in`` on) and the gradient-evaluation
    count are accumulated into it.

    ``rng`` is one Generator or a sequence of k per-block generators.
    Block b owns rows ``[b * n, (b + 1) * n)`` with ``n = n_chains / k``
    and draws all of its randomness from its own generator, in the same
    order each step: the n coin flips, the Langevin noise of its
    within-level rows, then the proposals and the acceptance uniforms of
    its level-move rows. The arithmetic runs once on all rows, and each
    row's result does not depend on the other rows, so one call with k
    generators returns exactly the concatenated results (and the summed
    stats) of k one-block calls.

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
    if proposal_mode not in _PROPOSAL_MODES:
        raise ValueError(f"proposal_mode must be one of {_PROPOSAL_MODES}")
    sizes = [n_chains // len(rngs)] * len(rngs)
    betas = np.asarray(betas, dtype=float)
    log_zhat = np.asarray(log_zhat, dtype=float)
    L = betas.shape[0]
    if log_zhat.shape[0] != L:
        raise ValueError("log_zhat must match betas in length")
    K = max(1, round(params.T / params.eta))
    d = target.d
    root = math.sqrt(2.0 * params.eta)
    x = _per_block(rngs, sizes, lambda g, c: g.standard_normal((c, d)))
    x *= math.sqrt(target.sigma2 / betas[0])
    lev = np.zeros(n_chains, dtype=np.int64)
    grad_evals = 0
    for step in range(int(params.t)):
        heads = _per_block(rngs, sizes, lambda g, c: g.random(c)) < 0.5
        n_heads = np.count_nonzero(heads.reshape(len(rngs), -1), axis=1)
        idx1 = np.flatnonzero(heads)
        if idx1.size:
            # one (K, h, d) draw per block is its K successive (h, d) draws
            noise = np.concatenate(
                [g.standard_normal((K, h, d)) for g, h in zip(rngs, n_heads)], axis=1
            )
            noise *= root
            xs = x[idx1]
            eta_b = params.eta * betas[lev[idx1]][:, None]
            for k in range(K):
                _, grad = target.f_and_grad(xs)
                moved = xs - eta_b * grad + noise[k]
                if not np.isfinite(moved).all():
                    bad = np.flatnonzero(~np.isfinite(moved).all(axis=1))[0]
                    raise NonFiniteGradientError(xs[bad])
                xs = moved
            x[idx1] = xs
            grad_evals += K * idx1.size
        idx2 = np.flatnonzero(~heads)
        if idx2.size:
            n_tails = sizes[0] - n_heads
            l2 = lev[idx2]
            if proposal_mode == "neighbor":
                flip = _per_block(rngs, n_tails, lambda g, c: g.random(c))
                prop = l2 + np.where(flip < 0.5, -1, 1)
                valid = (prop >= 0) & (prop < L)
            else:
                prop = _per_block(rngs, n_tails, lambda g, c: g.integers(0, L, c))
                valid = np.ones(idx2.size, dtype=bool)
            u = _per_block(rngs, n_tails, lambda g, c: g.random(c))
            propc = np.clip(prop, 0, L - 1)
            f_x = np.atleast_1d(target.f(x[idx2]))
            la = (betas[l2] - betas[propc]) * f_x + log_zhat[l2] - log_zhat[propc]
            # 1 - U lies in (0, 1], keeping the log finite
            acc = valid & (np.log(1.0 - u) < la)
            if stats is not None:
                np.add.at(stats["proposals"], (l2[valid], propc[valid]), 1)
                np.add.at(stats["accepts"], (l2[acc], propc[acc]), 1)
            lev[idx2] = np.where(acc, propc, l2)
        if stats is not None and step >= occupancy_burn_in:
            stats["occupancy"] += np.bincount(lev, minlength=L)
    if stats is not None:
        stats["grad_evals"] += grad_evals
        stats["chains"] += n_chains
    return x, lev


def write_trace_csv(path, trace, d: int) -> None:
    """Write a chain trace as CSV with a versioned header comment."""
    cols = ["step", "level", "move_type", "accepted"] + [f"x_{j + 1}" for j in range(d)]
    with open(path, "w") as fh:
        fh.write("# stlmc trace v1\n")
        fh.write(",".join(cols) + "\n")
        for row in trace:
            head = ",".join(str(int(v)) for v in row[:4])
            tail = ",".join(f"{v:.17g}" for v in row[4:])
            fh.write(head + "," + tail + "\n")
