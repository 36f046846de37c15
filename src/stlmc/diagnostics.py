"""Sampling-quality diagnostics: histogram TV distance, finite divergences,
mixture divergence inequalities, and mode-occupancy summaries.

The d <= 2 oracles live here too: ``exact_bin_masses`` on a Gauss-Legendre
grid and ``log_partition_quadrature`` by cubature (``scipy.integrate`` loads
on its first call), both over one box [-R, R]^d, R = D + 8 sigma / sqrt(beta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import BoundViolationError
from .mixture_target import GaussianMixture, _as_points

# Grid points per target.f call in exact_bin_masses. The 2D product grid of
# 100 bins holds 1.56 million; one f call on all of them took a process's
# peak from 55 to 170 MiB, blocks of this size to 115 MiB at the same speed.
_F_ROWS = 65_536
# Gauss-Legendre nodes per panel and axis in exact_bin_masses
_GL_NODES = 12

__all__ = [
    "Histogram",
    "default_box",
    "tv_from_masses",
    "tv_distance",
    "exact_bin_masses",
    "bin_mass_points",
    "log_partition_quadrature",
    "chi_sq_divergence",
    "chi_sq_mixture_check",
    "kl_divergence",
    "kl_decomposition_check",
    "mode_occupancy",
]


@dataclass(frozen=True)
class Histogram:
    """Counts on a uniform grid over a box; draws outside stay in ``total``."""

    box_lo: np.ndarray
    box_hi: np.ndarray
    bins: int
    counts: np.ndarray
    total: int

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.box_lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.box_hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or np.any(hi <= lo):
            raise ValueError("box_hi must exceed box_lo componentwise")
        counts = np.asarray(self.counts)
        if counts.shape != (self.bins,) * lo.size or np.any(counts < 0):
            raise ValueError("counts must be a non-negative (bins,)*d array")
        if self.total < counts.sum():
            raise ValueError("total cannot be smaller than the binned count")
        for arr in (lo, hi):
            arr.flags.writeable = False
        object.__setattr__(self, "box_lo", lo)
        object.__setattr__(self, "box_hi", hi)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_samples(cls, points, box_lo, box_hi, bins=100):
        lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.shape[1] != lo.size:
            raise ValueError("points dimension does not match the box")
        hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
        counts, _ = np.histogramdd(
            pts, bins=(bins,) * lo.size, range=list(zip(lo, hi))
        )
        return cls(lo, hi, bins, counts.astype(np.int64), pts.shape[0])

    @property
    def d(self) -> int:
        return self.box_lo.size

    def edges(self, axis=0):
        return np.linspace(self.box_lo[axis], self.box_hi[axis], self.bins + 1)

    def masses(self):
        """Per-bin empirical probability mass."""
        if self.total == 0:
            raise ValueError("histogram holds no samples")
        return self.counts / self.total

    def out_of_box_mass(self) -> float:
        return 1.0 - self.counts.sum() / self.total


def default_box(target):
    """Measurement box [-D - 6 sigma, D + 6 sigma]^d."""
    half = target.D + 6.0 * math.sqrt(target.sigma2)
    return -half * np.ones(target.d), half * np.ones(target.d)


def tv_from_masses(a, b) -> float:
    """Total variation between two sub-probability mass vectors.

    Mass missing from either vector is treated as one shared extra
    bin, which keeps the value symmetric and inside [0, 1].
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("mass vectors must have matching shapes")
    if a.min() < -1e-12 or b.min() < -1e-12 or a.sum() > 1 + 1e-9 or b.sum() > 1 + 1e-9:
        raise ValueError("inputs must be sub-probability vectors")
    rest = abs((1.0 - a.sum()) - (1.0 - b.sum()))
    return float(0.5 * (np.abs(a - b).sum() + rest))


def tv_distance(histogram: Histogram, exact_masses) -> float:
    """TV between a sample histogram and exact per-bin masses.

    Out-of-box mass on either side enters the distance as an extra bin.
    """
    exact = np.asarray(exact_masses, dtype=float)
    if exact.shape != histogram.counts.shape:
        raise ValueError("exact_masses must match the histogram grid")
    return tv_from_masses(histogram.masses(), exact)


def exact_bin_masses(target, histogram: Histogram, beta=1.0):
    """Exact probability mass of the level-beta density in each bin.

    Plain mixtures at beta = 1 use the closed-form Gaussian cell masses.
    Otherwise one 12-point Gauss-Legendre rule per panel and axis (a
    product rule in 2D) integrates exp(-beta f) over panels at most about
    sigma wide: each bin split into ceil(width / sigma) equal panels, and
    tail panels that extend each axis to the oracles' box [-R, R], R = D +
    8 sigma / sqrt(beta), or to the histogram's box where that reaches
    further. The bin integrals divided by the integral over the whole
    grid are the masses.
    """
    if histogram.d != target.d:
        raise ValueError("histogram and target dimensions differ")
    sigma = math.sqrt(target.sigma2)
    if isinstance(target, GaussianMixture) and beta == 1.0:
        per_axis = []
        for axis in range(target.d):
            e = histogram.edges(axis)
            z = (e[None, :] - target.means[:, axis, None]) / sigma
            per_axis.append(np.diff(ndtr(z), axis=1))
        if target.d == 1:
            return target.weights @ per_axis[0]
        return np.einsum("k,ki,kj->ij", target.weights, per_axis[0], per_axis[1])
    R = _box_half_width(target, beta)
    nodes, gl_w = np.polynomial.legendre.leggauss(_GL_NODES)
    axes, halves, inner, split = [], [], [], []
    for axis in range(target.d):
        e = histogram.edges(axis)
        n_below, k, n_above = _axis_panels(sigma, R, e[0], e[-1], histogram.bins)
        below = np.linspace(-R, e[0], n_below + 1)[:-1]
        above = np.linspace(e[-1], R, n_above + 1)[1:]
        panels = np.concatenate([below, np.linspace(e[0], e[-1], histogram.bins * k + 1), above])
        half = np.diff(panels) / 2.0
        axes.append(((panels[:-1] + half)[:, None] + half[:, None] * nodes).ravel())
        halves.append(half)
        inner.append(slice(below.size, below.size + histogram.bins * k))
        split += [histogram.bins, k]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, target.d)
    vals = np.empty(pts.shape[0])
    for first in range(0, pts.shape[0], _F_ROWS):
        vals[first:first + _F_ROWS] = target.f(pts[first:first + _F_ROWS])
    vals = np.exp(-beta * vals).reshape([n for half in halves for n in (half.size, _GL_NODES)])
    # contract each panel's node axis with the weights, leaving one axis per dimension
    for axis in range(1, target.d + 1):
        vals = np.tensordot(vals, gl_w, axes=([axis], [0]))
    for axis, half in enumerate(halves):
        vals *= half.reshape((-1,) + (1,) * (target.d - 1 - axis))
    # add each bin's k panels back together
    binned = vals[tuple(inner)].reshape(split).sum(axis=tuple(range(1, 2 * target.d, 2)))
    return binned / vals.sum()


def _box_half_width(target, beta):
    """D + 8 sigma / sqrt(min beta): 8 level-beta scales past the farthest mean."""
    low = float(np.min(beta))
    if not low > 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    return target.D + 8.0 * math.sqrt(target.sigma2 / low)


def _axis_panels(sigma, R, lo, hi, bins):
    """Panel counts on one axis of ``exact_bin_masses``' grid: (below, per bin, above).

    Each of the ``bins`` bins of [lo, hi] splits into ceil(width / sigma)
    equal panels, and equal tail panels at most sigma wide run from -R to
    lo and from hi to R; a side the bins already reach past gets none.
    """
    per_bin = max(1, math.ceil((hi - lo) / bins / sigma))
    return max(0, math.ceil((lo + R) / sigma)), per_bin, max(0, math.ceil((R - hi) / sigma))


def bin_mass_points(target, box_lo, box_hi, bins) -> int:
    """Points at which ``exact_bin_masses`` at beta = 1 evaluates a (bins,)*d histogram.

    ``bins**d`` cells for a plain mixture's closed form, else the
    Gauss-Legendre nodes of the product grid; counted without building it.
    """
    if isinstance(target, GaussianMixture):
        return bins ** target.d
    sigma, R = math.sqrt(target.sigma2), _box_half_width(target, 1.0)
    points = 1
    for lo, hi in zip(box_lo, box_hi):
        n_below, k, n_above = _axis_panels(sigma, R, lo, hi, bins)
        points *= _GL_NODES * (n_below + bins * k + n_above)
    return points


def log_partition_quadrature(target, beta):
    """log of the normalizer of exp(-beta f), by adaptive cubature.

    Integrates over [-R, R]^d, R = D + 8 sigma / sqrt(min beta), with one
    vectorized ``scipy.integrate.cubature`` call to relative tolerance
    1e-10; available for d <= 2 only. A 1-d array of betas gives an
    array from one call with the vector integrand ``exp(-f(x) beta)``,
    each element held to the tolerance. Raises ``BoundViolationError``
    when an error estimate does not reach the tolerance.
    """
    if target.d > 2:
        raise ValueError("quadrature oracle supports d <= 2 only")
    from scipy.integrate import cubature

    betas = np.asarray(beta, dtype=float)
    R = _box_half_width(target, betas)
    rtol = 1e-10
    res = cubature(lambda x: np.exp(-np.multiply.outer(target.f(x), betas)),
                   np.full(target.d, -R), np.full(target.d, R), rtol=rtol, atol=0.0)
    val, err = np.asarray(res.estimate, dtype=float), np.asarray(res.error, dtype=float)
    if res.status != "converged":
        worst = np.argmax(err - rtol * np.abs(val))
        raise BoundViolationError("quadrature error estimate", float(err.flat[worst]),
                                  rtol * abs(float(val.flat[worst])))
    return math.log(float(val)) if betas.ndim == 0 else np.log(val)


def _check_dist(v, name):
    v = np.asarray(v, dtype=float).ravel()
    if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a probability distribution")
    return v


def chi_sq_divergence(p, q) -> float:
    """chi-square divergence with q in the numerator: sum q_i^2 / p_i - 1.

    Atoms where q puts mass but p does not make the divergence infinite.
    """
    p = _check_dist(p, "p")
    q = _check_dist(q, "q")
    if p.shape != q.shape:
        raise ValueError("p and q must have matching shapes")
    if np.any((p == 0) & (q > 0)):
        return math.inf
    live = p > 0
    return max(float(np.sum(q[live] ** 2 / p[live]) - 1.0), 0.0)


def chi_sq_mixture_check(components, weights, q):
    """Mixture convexity of the chi-square divergence in its first argument.

    Checks ``chi2(sum_i w_i p_i || q) <= sum_i w_i chi2(p_i || q)`` and
    returns (lhs, rhs).
    """
    w = _check_dist(weights, "weights")
    comps = [np.asarray(c, dtype=float) for c in components]
    if len(comps) != w.size:
        raise ValueError("need one weight per component")
    mix = sum(wi * ci for wi, ci in zip(w, comps))
    lhs = chi_sq_divergence(mix, q)
    parts = [chi_sq_divergence(c, q) for c in comps]
    rhs = math.inf if any(math.isinf(t) for t in parts) else float(np.dot(w, parts))
    if lhs > rhs + 1e-9:
        raise BoundViolationError("chi-square mixture convexity", lhs, rhs)
    return lhs, rhs


def kl_divergence(p, q) -> float:
    """KL(p || q) with 0 log 0 = 0 and infinity when q misses mass of p."""
    p = _check_dist(p, "p")
    q = _check_dist(q, "q")
    if p.shape != q.shape:
        raise ValueError("p and q must have matching shapes")
    if np.any((q == 0) & (p > 0)):
        return math.inf
    live = p > 0
    return max(float(np.sum(p[live] * np.log(p[live] / q[live]))), 0.0)


def kl_decomposition_check(w, w_prime, components_p, components_q):
    """Chain-rule upper bound for the KL divergence of two finite mixtures.

    Checks ``KL(sum w_i p_i || sum w'_i q_i) <= KL(w || w') +
    sum_i w_i KL(p_i || q_i)`` and returns (lhs, rhs).
    """
    w = _check_dist(w, "w")
    wp = _check_dist(w_prime, "w_prime")
    ps = [np.asarray(c, dtype=float) for c in components_p]
    qs = [np.asarray(c, dtype=float) for c in components_q]
    if not (len(ps) == len(qs) == w.size == wp.size):
        raise ValueError("need matching weight and component counts")
    mix_p = sum(wi * ci for wi, ci in zip(w, ps))
    mix_q = sum(wi * ci for wi, ci in zip(wp, qs))
    lhs = kl_divergence(mix_p, mix_q)
    rhs = kl_divergence(w, wp)
    for wi, pi, qi in zip(w, ps, qs):
        if wi > 0:
            term = kl_divergence(pi, qi)
            rhs = math.inf if math.isinf(term) else rhs + wi * term
            if math.isinf(rhs):
                break
    if lhs > rhs + 1e-9:
        raise BoundViolationError("KL mixture decomposition", lhs, rhs)
    return lhs, rhs


def mode_occupancy(points, centers, radius):
    """Fraction of points within ``radius`` of each center.

    Points are assigned to the nearest center only, so the fractions sum
    to at most 1; the leftover fraction is returned separately.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    pts, _ = _as_points(points, centers.shape[1])
    if pts.shape[0] == 0:
        raise ValueError("need at least one point")
    if radius <= 0:
        raise ValueError("radius must be positive")
    dist = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2)
    nearest = np.argmin(dist, axis=1)
    within = dist[np.arange(pts.shape[0]), nearest] <= radius
    fractions = np.bincount(nearest[within], minlength=centers.shape[0]) / pts.shape[0]
    return fractions, float(1.0 - fractions.sum())
