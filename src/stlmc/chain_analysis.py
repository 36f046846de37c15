"""Finite-state chain toolkit: gaps, conductance, restriction, projection,
tempering gap bounds, and discretized Langevin generators.

Finite chains are explicit row-stochastic matrices, small enough for
dense eigen-solves; discretized generators are sparse matrices with
shift-invert Lanczos eigen-solves. All of it checks the spectral
machinery behind the sampler numerically: two-sided Cheeger bounds, the
gap-product inequality for a partitioned chain, the tempering gap lower
bounds driven by the overlap of adjacent-level densities, and the
eigenvalue-gap phenomenon of multimodal Langevin generators.
scipy's linear-algebra and sparse stacks are imported inside the
functions that use them, so importing this module loads neither; each
loads on its first call.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .diagnostics import chi_sq_divergence, log_partition_quadrature
from .errors import BoundViolationError, NonReversibleError, ReducibleChainError

if TYPE_CHECKING:
    from scipy.sparse import csr_array

__all__ = [
    "FiniteChain",
    "Partition",
    "DiscretizedGenerator",
    "chain_eigenvalues",
    "spectral_gap",
    "mixing_rate",
    "conductance",
    "cheeger_constant",
    "restrict",
    "project",
    "gap_product_check",
    "build_tempering_chain",
    "overlap_delta",
    "tempering_gap_bound_check",
    "refinement_gap_bound_check",
    "chi_sq_decay_check",
    "discretize_langevin_generator",
    "perturbation_gap_check",
    "z_ratio_bound_check",
    "sce_envelope_1d",
    "random_reversible_chain",
    "random_partition",
]

# Subsets per block of the exhaustive Cheeger search: a block's temporaries
# stay under 330 KB for n <= 20, which the allocator recycles; 2**14-subset
# blocks (2.4 MB at n = 18) were mapped afresh each time, up to 2x slower.
_CHEEGER_CHUNK = 2**11


def _closed_classes(P):
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(csr_array(P > 0), directed=True, connection="strong")
    closed = []
    for c in range(n_comp):
        members = np.nonzero(labels == c)[0]
        outside = np.nonzero(labels != c)[0]
        if outside.size == 0 or P[np.ix_(members, outside)].sum() == 0:
            closed.append(members)
    return n_comp, closed


class FiniteChain:
    """Explicit finite Markov chain: states, transition matrix, stationary law.

    The stationary distribution is computed by a dense eigen-solve
    unless one is supplied, in which case it is only validated. The
    ``reversible`` flag records whether detailed balance holds within
    1e-8.
    """

    def __init__(self, P, states=None, stationary=None):
        P = np.array(P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] == 0:
            raise ValueError("P must be a non-empty square matrix")
        if P.min() < -1e-12:
            raise ValueError(f"P has a negative entry ({P.min()!r})")
        P = np.clip(P, 0.0, None)
        rows = P.sum(axis=1)
        if np.abs(rows - 1.0).max() > 1e-10:
            raise ValueError("rows of P must sum to 1 within 1e-10")
        n = P.shape[0]
        if states is None:
            states = list(range(n))
        elif len(states) != n:
            raise ValueError("need one state label per row of P")
        if stationary is None:
            n_comp, closed = _closed_classes(P)
            if n_comp > 1:
                raise ReducibleChainError([[states[i] for i in c] for c in closed])
            w, v = np.linalg.eig(P.T)
            p = np.real(v[:, np.argmin(np.abs(w - 1.0))])
            p = np.abs(p)
            p = p / p.sum()
        else:
            p = np.asarray(stationary, dtype=float)
            if p.shape != (n,):
                raise ValueError("stationary must have one entry per state")
            if p.min() <= 0:
                raise ValueError("stationary must be strictly positive")
            p = p / p.sum()
        if np.abs(p @ P - p).max() > 1e-8:
            raise ValueError("supplied or computed distribution is not stationary")
        P.flags.writeable = False
        p.flags.writeable = False
        self.P = P
        self.p = p
        self.states = list(states)
        Q = p[:, None] * P
        self.reversible = bool(np.abs(Q - Q.T).max() <= 1e-8)

    @property
    def n(self) -> int:
        return self.P.shape[0]

    def flow(self):
        """Edge flow matrix Q(x, y) = p(x) P(x, y)."""
        return self.p[:, None] * self.P


@dataclass(frozen=True)
class Partition:
    """Grouping of state indices into disjoint non-empty blocks."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in block) for block in self.blocks)
        if len(blocks) == 0 or any(len(b) == 0 for b in blocks):
            raise ValueError("partition blocks must be non-empty")
        flat = [i for b in blocks for i in b]
        if len(set(flat)) != len(flat):
            raise ValueError("partition blocks must be disjoint")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_labels(cls, labels):
        labels = np.asarray(labels)
        return cls(tuple(
            tuple(np.nonzero(labels == lab)[0]) for lab in np.unique(labels)
        ))

    @classmethod
    def whole(cls, n):
        return cls((tuple(range(n)),))

    @classmethod
    def singletons(cls, n):
        return cls(tuple((i,) for i in range(n)))

    def validate_for(self, n: int) -> None:
        flat = sorted(i for b in self.blocks for i in b)
        if flat != list(range(n)):
            raise ValueError(f"partition must cover exactly the {n} states")

    def indicator(self, n):
        """(blocks, n) 0/1 matrix M of block membership: block masses are ``M @ p``."""
        M = np.zeros((len(self.blocks), n))
        rows = np.repeat(np.arange(len(self.blocks)), [len(b) for b in self.blocks])
        M[rows, np.concatenate(self.blocks)] = 1.0
        return M

    def masses(self, p):
        p = np.asarray(p, dtype=float)
        return self.indicator(len(p)) @ p

    def is_refinement_of(self, coarser: "Partition") -> bool:
        sets = [set(b) for b in coarser.blocks]
        return all(any(set(b) <= s for s in sets) for b in self.blocks)


def chain_eigenvalues(chain: FiniteChain):
    """Ascending eigenvalues of I - P in the stationary inner product."""
    if not chain.reversible:
        raise NonReversibleError("eigen-analysis requires a reversible chain")
    if chain.n == 1:
        return np.array([0.0])
    from scipy.linalg import eigh

    s = np.sqrt(chain.p)
    A = (s[:, None] * chain.P) / s[None, :]
    A = 0.5 * (A + A.T)
    return np.sort(1.0 - eigh(A, eigvals_only=True))


def spectral_gap(chain: FiniteChain) -> float:
    """Smallest nonzero eigenvalue of I - P.

    A one-state chain imposes no variational constraint; by convention
    it gets 2.0, the supremum of the spectrum of I - P over all chains,
    which keeps the partition-based two-sided bounds valid.
    """
    if chain.n == 1:
        return 2.0
    return float(chain_eigenvalues(chain)[1])


def mixing_rate(chain: FiniteChain) -> float:
    """Decay rate min(lambda_2(I - P), 2 - lambda_max(I - P))."""
    if chain.n == 1:
        return 1.0
    lam = chain_eigenvalues(chain)
    return float(min(lam[1], 2.0 - lam[-1]))


def _subset_indices(subset, n):
    subset = np.asarray(subset)
    if subset.dtype == bool:
        if subset.shape != (n,):
            raise ValueError("boolean subset mask must have one entry per state")
        subset = np.nonzero(subset)[0]
    subset = np.unique(subset.astype(int))
    if subset.size == 0:
        raise ValueError("subset must be non-empty")
    if subset.min() < 0 or subset.max() >= n:
        raise ValueError("subset indices out of range")
    return subset


def conductance(chain: FiniteChain, subset) -> float:
    """phi(S) = Q(S, S^c) / p(S) for a proper non-empty subset."""
    idx = _subset_indices(subset, chain.n)
    if idx.size == chain.n:
        raise ValueError("subset must be proper")
    comp = np.setdiff1d(np.arange(chain.n), idx)
    Q = chain.flow()
    return float(Q[np.ix_(idx, comp)].sum() / chain.p[idx].sum())


def cheeger_constant(chain: FiniteChain) -> float:
    """Minimum conductance over subsets with at most half the mass.

    Exhaustive over 2 to 20 states, and refused with ``ValueError``
    otherwise: bitmask subsets in blocks of ``_CHEEGER_CHUNK``, each a 0/1
    membership matrix B with masses ``B @ p`` and cuts summed from the
    non-negative terms of ``(B @ Q) * (1 - B)``, so 0 for a disconnected chain.
    """
    n = chain.n
    if not 2 <= n <= 20:
        raise ValueError(f"cheeger constant needs 2 to 20 states, got {n}")
    Q = chain.flow()
    p = chain.p
    best = math.inf
    bits = np.arange(n)
    for start in range(1, 2**n - 1, _CHEEGER_CHUNK):
        masks = np.arange(start, min(start + _CHEEGER_CHUNK, 2**n - 1))
        B = ((masks[:, None] >> bits) & 1).astype(float)
        pS = B @ p
        small = pS <= 0.5 + 1e-12
        if small.any():
            B = B[small]
            cut = ((B @ Q) * (1.0 - B)).sum(axis=1)
            best = min(best, float((cut / pS[small]).min()))
    return float(best)


def restrict(chain: FiniteChain, subset) -> FiniteChain:
    """Chain confined to a subset: moves that would leave become self-loops.

    For a reversible chain the stationary law of the result is the
    conditional distribution on the subset. A subset that is internally
    disconnected yields a warning, not an error.
    """
    idx = _subset_indices(subset, chain.n)
    sub = chain.P[np.ix_(idx, idx)].copy()
    leave = 1.0 - sub.sum(axis=1)
    sub[np.arange(idx.size), np.arange(idx.size)] += leave
    labels = [chain.states[i] for i in idx]
    if idx.size > 1:
        n_comp, _ = _closed_classes(sub)
        if n_comp > 1:
            warnings.warn("restriction subset is disconnected under P", stacklevel=2)
    if chain.reversible:
        cond = chain.p[idx] / chain.p[idx].sum()
        return FiniteChain(sub, states=labels, stationary=cond)
    return FiniteChain(sub, states=labels)


def project(chain: FiniteChain, partition: Partition) -> FiniteChain:
    """Block-level chain ``M Q M^T / p(A)`` with block masses as stationary law."""
    partition.validate_for(chain.n)
    M = partition.indicator(chain.n)
    pb = M @ chain.p
    return FiniteChain((M @ chain.flow() @ M.T) / pb[:, None], stationary=pb)


def gap_product_check(chain: FiniteChain, partition: Partition):
    """Two-sided control of the gap by a partition.

    Verifies ``(1/2) Gap(projected) * min_block Gap(restricted) <= Gap
    <= Gap(projected)`` and returns the triple (lhs, gap, rhs).
    """
    gap_bar = spectral_gap(project(chain, partition))
    lhs = 0.5 * gap_bar * _min_restriction_gap([chain], [partition])
    gap = spectral_gap(chain)
    if lhs > gap + 1e-9:
        raise BoundViolationError("gap-product lower bound", lhs, gap)
    if gap > gap_bar + 1e-9:
        raise BoundViolationError("gap-product upper bound", gap, gap_bar)
    return lhs, gap, gap_bar


def build_tempering_chain(base_chains, rel_weights, proposal_mode="uniform") -> FiniteChain:
    """Explicit tempering chain on (state, level) pairs from per-level chains.

    With probability 1/2 the current level's chain moves the state; with
    probability 1/2 a level change is proposed (uniform over all levels,
    or one of the two neighbors) and accepted with the exact Metropolis
    ratio built from the true per-level stationary laws. The stationary
    distribution is rel_weights[k] * p_k(x), validated on construction.
    """
    L = len(base_chains)
    if L == 0:
        raise ValueError("need at least one base chain")
    n = base_chains[0].n
    for c in base_chains:
        if c.n != n or c.states != base_chains[0].states:
            raise ValueError("base chains must share one state set")
    r = np.asarray(rel_weights, dtype=float)
    if r.shape != (L,) or np.any(r <= 0) or abs(r.sum() - 1.0) > 1e-12:
        raise ValueError("rel_weights must be positive and sum to 1")
    if proposal_mode not in ("uniform", "neighbor"):
        raise ValueError("proposal_mode must be 'uniform' or 'neighbor'")
    N = n * L
    M = np.zeros((N, N))
    for k, c in enumerate(base_chains):
        M[k * n:(k + 1) * n, k * n:(k + 1) * n] += 0.5 * c.P
    for k in range(L):
        for kp in range(L):
            if kp == k:
                continue
            if proposal_mode == "uniform":
                q = 1.0 / L
            else:
                q = 0.5 if abs(kp - k) == 1 else 0.0
            if q == 0.0:
                continue
            acc = np.minimum(
                1.0, (r[kp] * base_chains[kp].p) / (r[k] * base_chains[k].p)
            )
            M[k * n + np.arange(n), kp * n + np.arange(n)] += 0.5 * q * acc
    # rejected and self proposals stay put
    np.fill_diagonal(M, M.diagonal() + (1.0 - M.sum(axis=1)))
    pst = np.concatenate([r[k] * base_chains[k].p for k in range(L)])
    return FiniteChain(M, stationary=pst)


def overlap_delta(distributions, partitions) -> float:
    """Worst normalized overlap of adjacent-level laws over partition blocks.

    delta = min over levels i >= 2 and blocks A of level i's partition
    of ``sum_A min(p_{i-1}, p_i) / p_i(A)``.
    """
    if len(distributions) != len(partitions):
        raise ValueError("need one partition per distribution")
    delta = 1.0
    for i in range(1, len(distributions)):
        prev = np.asarray(distributions[i - 1], dtype=float)
        cur = np.asarray(distributions[i], dtype=float)
        M = partitions[i].indicator(len(cur))
        mass = M @ cur
        if np.any(mass <= 0):
            A = partitions[i].blocks[int(np.argmax(mass <= 0))]
            raise ValueError(f"partition block {A} has zero mass")
        delta = min(delta, float((M @ np.minimum(prev, cur) / mass).min()))
    return float(delta)


def _min_restriction_gap(base_chains, partitions):
    return min(spectral_gap(restrict(chain, A))
               for chain, part in zip(base_chains, partitions) for A in part.blocks)


def _ladder_terms(base_chains, rel_weights, partitions, proposal_mode, refining=False):
    """(gap, delta, r, min restriction gap) of a ladder after checking its partitions.

    Refuses a partition count other than L, partitions that miss states, a
    first level other than the whole space and, if ``refining``, a partition
    that does not refine its predecessor, in that order.
    """
    if len(partitions) != len(base_chains):
        raise ValueError("need one partition per level")
    for part in partitions:
        part.validate_for(base_chains[0].n)
    if len(partitions[0].blocks) != 1:
        raise ValueError("the first level's partition must be the whole space")
    if refining:
        for i in range(len(partitions) - 1):
            if not partitions[i + 1].is_refinement_of(partitions[i]):
                raise ValueError(f"partition {i + 2} does not refine partition {i + 1}")
    gap = spectral_gap(build_tempering_chain(base_chains, rel_weights, proposal_mode))
    delta = overlap_delta([c.p for c in base_chains], partitions)
    r = np.asarray(rel_weights, dtype=float)
    return gap, delta, float(r.min() / r.max()), _min_restriction_gap(base_chains, partitions)


def tempering_gap_bound_check(base_chains, rel_weights, partitions, proposal_mode="uniform"):
    """Tempering gap lower bound from per-level restriction gaps.

    The first partition must be the single whole-space block. Builds the
    exact tempering chain, computes
    ``r^4 delta^2 p_min^2 / (32 L^4) * min Gap(restriction)`` (uniform
    proposals) or the ``/(128 L^2)`` variant (neighbor proposals),
    checks it lower-bounds the actual gap, and returns (bound, gap).
    """
    gap, delta, r, min_gap = _ladder_terms(base_chains, rel_weights, partitions, proposal_mode)
    L = len(base_chains)
    p_min = min(float(part.masses(c.p).min()) for c, part in zip(base_chains, partitions))
    scale = 32.0 * L**4 if proposal_mode == "uniform" else 128.0 * L**2
    bound = r**4 * delta**2 * p_min**2 / scale * min_gap
    if bound > gap + 1e-12:
        raise BoundViolationError("tempering gap bound", bound, gap)
    return bound, gap


def refinement_gap_bound_check(base_chains, rel_weights, partitions):
    """Tempering gap lower bound for a chain of successively refining partitions.

    Requires the whole space at the first level and each later partition
    to refine its predecessor. Uses
    ``r^2 gamma delta / (32 L^3) * min Gap(restriction)`` where gamma is
    the worst mass ratio of a coarse block under a finer level's law.
    Returns (bound, gap).
    """
    gap, delta, r, min_gap = _ladder_terms(base_chains, rel_weights, partitions, "uniform",
                                           refining=True)
    ps = np.array([c.p for c in base_chains])
    gamma = 1.0
    for i, part in enumerate(partitions):
        # row k: the masses of level i's blocks under level i + k's law
        m = ps[i:] @ part.indicator(ps.shape[1]).T
        gamma = min(gamma, float((m[0] / m).min()))
    bound = r**2 * gamma * delta / (32.0 * len(ps)**3) * min_gap
    if bound > gap + 1e-12:
        raise BoundViolationError("refinement gap bound", bound, gap)
    return bound, gap


def chi_sq_decay_check(chain: FiniteChain, p0, t: int):
    """Geometric chi-square contraction toward the stationary law.

    Checks ``chi2(p || p0 P^t) <= (1 - G)^t chi2(p || p0)`` where G is
    the chain's mixing rate, and returns (lhs, rhs).
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (chain.n,) or np.any(p0 < 0) or abs(p0.sum() - 1.0) > 1e-10:
        raise ValueError("p0 must be a distribution over the chain's states")
    G = mixing_rate(chain)
    pt = p0.copy()
    for _ in range(int(t)):
        pt = pt @ chain.P
    lhs = chi_sq_divergence(chain.p, pt)
    rhs = (1.0 - G) ** int(t) * chi_sq_divergence(chain.p, p0)
    if lhs > rhs + 1e-10:
        raise BoundViolationError("chi-square decay", lhs, rhs)
    return lhs, rhs


@dataclass
class DiscretizedGenerator:
    """Nearest-neighbor Metropolis-rate generator on a uniform grid.

    ``generator`` is a sparse CSR matrix with off-diagonal rates
    ``min(1, p_beta(y) / p_beta(x)) / h^2`` between grid neighbors and
    minus the row sums on the diagonal, so the associated chain is
    reversible for the grid-restricted density stored in ``weights``.
    """

    grid: np.ndarray
    h: float
    beta: float
    generator: csr_array
    weights: np.ndarray

    def eigenvalues(self, k=None):
        """Ascending eigenvalues of minus the generator, the k smallest or all.

        The symmetrization ``D^{1/2} (-G) D^{-1/2}`` (D the weights,
        averaged with its transpose) stays sparse. The k smallest
        eigenvalues come from shift-invert ``eigsh`` just below 0, with
        a fixed start vector so that repeated solves agree to the bit;
        the full spectrum, or k >= n - 1, from dense ``eigh``.
        """
        from scipy.linalg import eigh
        from scipy.sparse import csr_array
        from scipy.sparse.linalg import eigsh

        s = np.sqrt(self.weights)
        G = self.generator.tocoo()
        A = csr_array((s[G.row] * -G.data / s[G.col], (G.row, G.col)), shape=G.shape)
        A = 0.5 * (A + A.T)
        n = A.shape[0]
        count = n if k is None else min(k, n)
        if count >= n - 1:
            vals = eigh(A.toarray(), eigvals_only=True)[:count]
        else:
            sigma = -1e-6 * float(np.abs(A.diagonal()).max())
            v0 = np.random.default_rng(0).standard_normal(n)
            vals = np.sort(eigsh(A.tocsc(), k=count, sigma=sigma, which="LM", v0=v0,
                                 return_eigenvectors=False))
        if vals.min() < -1e-8:
            raise ValueError("generator spectrum unexpectedly negative")
        return np.clip(vals, 0.0, None)

    def to_chain(self, T=1.0) -> FiniteChain:
        """Discrete-time chain exp(T * generator), computed densely."""
        from scipy.linalg import expm

        return FiniteChain(expm(self.generator.toarray() * float(T)), stationary=self.weights)


def discretize_langevin_generator(target, beta, R, n_cells) -> DiscretizedGenerator:
    """Grid discretization of the level-beta diffusion on [-R, R]^d.

    ``n_cells`` counts cells per axis; the total state count is capped
    at 2000, which keeps the dense ``to_chain`` and full-spectrum paths
    viable, and d <= 2 is required.
    The radius must satisfy ``R >= D + 6 sigma / sqrt(beta)`` so the
    truncated box carries essentially all of the level's mass.
    """
    d = target.d
    if d > 2:
        raise ValueError("generator discretization supports d <= 2 only")
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite (got {beta!r})")
    min_R = target.D + 6.0 * math.sqrt(target.sigma2 / beta)
    if R < min_R - 1e-12:
        raise ValueError(f"R={R} violates the box bound R >= D + 6*sigma/sqrt(beta) = {min_R:.6g}")
    n_cells = int(n_cells)
    if n_cells < 2:
        raise ValueError("need at least 2 cells per axis")
    if n_cells**d > 2000:
        raise ValueError(f"{n_cells**d} states exceed the grid-state cap of 2000")
    from scipy.sparse import csr_array

    h = 2.0 * R / n_cells
    axis = -R + h * (np.arange(n_cells) + 0.5)
    if d == 1:
        grid = axis.reshape(-1, 1)
    else:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        grid = np.column_stack([xx.ravel(), yy.ravel()])
    logw = -beta * np.atleast_1d(target.f(grid))
    n = grid.shape[0]
    # grid-neighbor pairs (i, j): along the axis in d = 1, along x and y in d = 2
    flat = np.arange(n).reshape((n_cells,) * d)
    if d == 1:
        i, j = flat[:-1], flat[1:]
    else:
        i = np.concatenate([flat[:-1, :].ravel(), flat[:, :-1].ravel()])
        j = np.concatenate([flat[1:, :].ravel(), flat[:, 1:].ravel()])
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    rates = np.exp(np.minimum(logw[cols] - logw[rows], 0.0)) / h**2
    diag = np.arange(n)
    Lgen = csr_array((np.r_[rates, -np.bincount(rows, rates, minlength=n)],
                      (np.r_[rows, diag], np.r_[cols, diag])), shape=(n, n))
    w = np.exp(logw - logw.max())
    w = w / w.sum()
    return DiscretizedGenerator(grid=grid, h=h, beta=float(beta), generator=Lgen, weights=w)


def perturbation_gap_check(gen_a: DiscretizedGenerator, gen_b: DiscretizedGenerator,
                           delta, k=5):
    """Eigenvalue stability of the generator under a bounded energy shift.

    Compares the first k nontrivial eigenvalues of the two generators
    and checks every ratio lies in [exp(-2 delta), exp(2 delta)].
    Returns the ratio array.
    """
    if gen_a.grid.shape != gen_b.grid.shape or not np.allclose(gen_a.grid, gen_b.grid):
        raise ValueError("generators must share one grid")
    ev_a = gen_a.eigenvalues(k + 1)[1:k + 1]
    ev_b = gen_b.eigenvalues(k + 1)[1:k + 1]
    ratios = ev_a / ev_b
    lo, hi = math.exp(-2.0 * delta), math.exp(2.0 * delta)
    if np.any(ratios < lo - 1e-9) or np.any(ratios > hi + 1e-9):
        raise BoundViolationError("perturbation eigenvalue ratio", ratios, (lo, hi))
    return ratios


def z_ratio_bound_check(mixture, alpha, beta):
    """Partition-ratio interval between two inverse temperatures.

    Computes Z_beta / Z_alpha by quadrature and checks it lies in
    ``[0.5 exp(-2 (beta - alpha) (D/sigma + (sqrt(d) +
    sqrt(ln(2/w_min))) / sqrt(alpha))^2), 1]``. Returns
    (ratio, lower_bound). Arrays of pairs are checked elementwise, with
    one quadrature call for all their temperatures, and give arrays; no
    pairs give empty ones.
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(beta, float))
    if not np.all((0.0 < alpha) & (alpha <= beta) & (beta <= 1.0)):
        raise ValueError("need 0 < alpha <= beta <= 1")
    if alpha.size == 0:
        return np.empty(alpha.shape), np.empty(alpha.shape)
    temps, where = np.unique(np.concatenate([alpha.ravel(), beta.ravel()]),
                             return_inverse=True)
    log_z = log_partition_quadrature(mixture, temps)[where]
    ratio = np.exp(log_z[alpha.size:] - log_z[:alpha.size]).reshape(alpha.shape)
    sigma = math.sqrt(mixture.sigma2)
    reach = mixture.D / sigma + (
        math.sqrt(mixture.d) + math.sqrt(math.log(2.0 / mixture.w_min))
    ) / np.sqrt(alpha)
    lower = 0.5 * np.exp(-2.0 * (beta - alpha) * reach**2)
    if np.any(ratio > 1.0 + 1e-9):
        raise BoundViolationError("z-ratio upper bound", float(ratio.max()), 1.0)
    short = ratio < lower - 1e-12
    if np.any(short):
        raise BoundViolationError("z-ratio lower bound", float(lower[short][0]),
                                  float(ratio[short][0]))
    if ratio.ndim == 0:
        return float(ratio), float(lower)
    return ratio, lower


def sce_envelope_1d(xs, fs, alpha):
    """Largest alpha-strongly-convex minorant of grid samples of f.

    Subtracts ``alpha x^2 / 2``, takes the lower convex hull by a
    monotone-chain pass, and adds the quadratic back. The result is
    pointwise below f with discrete second differences at least
    ``alpha h^2`` up to rounding.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.ndim != 1 or xs.shape != fs.shape:
        raise ValueError("xs and fs must be matching 1-d arrays")
    if xs.size < 50:
        raise ValueError("grid too coarse: need at least 50 points")
    steps = np.diff(xs)
    if np.any(steps <= 0) or np.abs(steps - steps[0]).max() > 1e-9 * max(1.0, abs(steps[0])):
        raise ValueError("xs must be a uniform increasing grid")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    ys = fs - 0.5 * alpha * xs**2
    hull_x = [xs[0]]
    hull_y = [ys[0]]
    for x, y in zip(xs[1:], ys[1:]):
        while len(hull_x) >= 2:
            x1, y1 = hull_x[-2], hull_y[-2]
            x2, y2 = hull_x[-1], hull_y[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull_x.pop()
                hull_y.pop()
            else:
                break
        hull_x.append(x)
        hull_y.append(y)
    env = np.interp(xs, hull_x, hull_y)
    return env + 0.5 * alpha * xs**2


def random_reversible_chain(n, rng, lazy=0.0) -> FiniteChain:
    """Seeded random reversible chain from a symmetric positive weight matrix."""
    W = rng.random((n, n)) + 1e-3
    W = 0.5 * (W + W.T)
    P = W / W.sum(axis=1, keepdims=True)
    p = W.sum(axis=1) / W.sum()
    if lazy:
        P = lazy * np.eye(n) + (1.0 - lazy) * P
    return FiniteChain(P, stationary=p)


def random_partition(n, n_blocks, rng) -> Partition:
    """Random partition of range(n) into exactly n_blocks non-empty blocks."""
    if not 1 <= n_blocks <= n:
        raise ValueError("need 1 <= n_blocks <= n")
    while True:
        labels = rng.integers(0, n_blocks, size=n)
        if np.unique(labels).size == n_blocks:
            return Partition.from_labels(labels)
