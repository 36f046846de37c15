"""Target densities: equal-variance Gaussian mixtures and bounded perturbations.

A target is specified through an energy ``f`` with density
``p(x) proportional to exp(-f(x))``. The mixture energy is

    f(x) = -log sum_i w_i exp(-||x - mu_i||^2 / (2 sigma2))

so each component is a sub-probability bump and ``f >= 0`` everywhere.
Expanding the square gives ``f(x) = ||x||^2 / (2 sigma2) - logsumexp_i a_i``
with ``a_i = x . mu_i / sigma2 + log w_i - ||mu_i||^2 / (2 sigma2)``, so
the kernels need one (n, m) array instead of (m, n, d) differences.

Both target classes carry the same plain attributes, set at
construction: the geometry the sampler sizes its ladder from, ``n``
(components), ``d``, ``sigma2``, ``D`` (the largest mean norm),
``w_min`` (the smallest weight) and ``means``, and the perturbation
bounds ``delta``, ``tau`` and ``curvature``, which are 0 for a mixture.
A ``PerturbedTarget`` copies the geometry from its base.

Each target class has one energy kernel, ``_energy``, and one gradient
kernel, ``_grad``, both on checked (m, d) points. The mixture's kernels
share one contraction, ``_padded_logits``: it copies the points into the
columns of a (d, w) array whose width w is m padded with zero columns to
a multiple of ``_PAD``, and takes the logits of every column with one
matrix product. Every column then goes down the same BLAS path, so a
row's bits do not depend on the rows evaluated with it, on its memory
layout or on the number of BLAS threads. The energy takes the logsumexp
by a max shift; the gradient ``(x - sum_i resp_i mu_i) / sigma2`` comes
from a max-subtracted softmax of the same logits, back-projected onto the
means by a second matrix product. ``f``, ``grad`` and ``f_and_grad`` are
shells over the kernels that share one input path (``_evaluate``), so
``f_and_grad(x)[0]`` has the bits of ``f(x)`` and ``grad(x)`` those of
``f_and_grad(x)[1]``. The Langevin kernel needs only the gradient and
calls ``f_and_grad(x, value=False)``, which runs no energy kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError

__all__ = [
    "GaussianMixture",
    "PerturbedTarget",
    "locate_min",
    "hessian_max_eig",
    "close_to_sum_ratio",
    "check_perturbation_bounds",
]

# The kernels pad their column width with zero columns to a multiple of
# this. Every column of a matrix product then takes the same path through
# BLAS; at other widths the last columns, or all of them at width 1, can
# take an edge path whose sums round differently. The sums over
# components, across at least two columns, add the rows in order.
_PAD = 64


def _as_points(x, d):
    """Normalize input to an (m, d) array; report whether it was a single point.

    Accepts a scalar (d == 1 only), a (d,) vector, an (m, d) batch, and,
    for d == 1, a flat (m,) batch.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        if d != 1:
            raise ValueError(f"scalar input only valid for d=1 targets, not d={d}")
        return x.reshape(1, 1), True
    if x.ndim == 1:
        if x.shape[0] == d:
            return x.reshape(1, d), True
        if d == 1:
            return x.reshape(-1, 1), False
        raise ValueError(f"point has dimension {x.shape[0]}, target has d={d}")
    if x.ndim == 2:
        if x.shape[1] != d:
            raise ValueError(f"points have dimension {x.shape[1]}, target has d={d}")
        return x, False
    raise ValueError(f"input must have at most 2 axes, got shape {x.shape}")


def _check_finite(pts):
    if not np.isfinite(pts).all():
        raise ValueError("x must be finite")


def _evaluate(target, x, value, grad):
    """``(f(x), grad f(x))`` from the target's kernels, None where not asked for.

    The one input path of every ``f``, ``grad`` and ``f_and_grad``: it
    normalizes x with ``_as_points``, checks it once, and unwraps a single
    point to a float energy and a (d,) gradient.
    """
    pts, single = _as_points(x, target.d)
    _check_finite(pts)
    fv = target._energy(pts) if value else None
    g = target._grad(pts) if grad else None
    if single:
        return (None if fv is None else float(fv[0])), (None if g is None else g[0])
    return fv, g


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Mixture of spherical Gaussians with one shared variance.

    Parameters
    ----------
    weights : array-like, shape (n,)
        Positive component weights summing to 1.
    means : array-like, shape (n, d) or (n,) for d=1
        Component means.
    sigma2 : float
        Shared per-coordinate variance, strictly positive.

    Construction also sets the geometry that sizes the ladder: ``n``
    components in ``d`` dimensions, ``D`` = max_i ||mu_i|| and ``w_min``,
    the smallest weight; and ``delta = tau = curvature = 0``, as there is
    no perturbation. Means and sigma2 for which D, mu_i / sigma2 or
    ||mu_i||^2 / (2 sigma2) overflow are refused. Equality and hashing
    are by identity.
    """

    weights: np.ndarray
    means: np.ndarray
    sigma2: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        if mu.ndim == 1:
            mu = mu.reshape(-1, 1)
        if w.ndim != 1 or mu.ndim != 2 or w.shape[0] != mu.shape[0] or w.size == 0:
            raise ValueError("need one weight per mean and at least one component")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(mu)):
            raise ValueError("weights and means must be finite")
        if np.any(w <= 0):
            raise ValueError("all weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {w.sum()!r})")
        s2 = float(self.sigma2)
        if not (s2 > 0 and math.isfinite(s2)):
            raise ValueError(f"sigma2 must be a positive real (got {self.sigma2!r})")
        w = w.copy()
        mu = mu.copy()
        w.flags.writeable = False
        mu.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "sigma2", s2)
        with np.errstate(over="ignore"):
            D = float(np.linalg.norm(mu, axis=1).max())
            mu_scaled = mu / s2
            shift = np.log(w) - np.einsum("nd,nd->n", mu, mu) / (2.0 * s2)
        if not (math.isfinite(D) and np.isfinite(mu_scaled).all() and np.isfinite(shift).all()):
            raise ValueError(
                f"means up to {np.abs(mu).max():.6g} in size with sigma2={s2:.6g} overflow "
                "D = max ||mu_i||, mu_i / sigma2 or ||mu_i||^2 / (2 sigma2)")
        object.__setattr__(self, "n", w.shape[0])
        object.__setattr__(self, "d", mu.shape[1])
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "w_min", float(w.min()))
        for name in ("delta", "tau", "curvature"):
            object.__setattr__(self, name, 0.0)
        object.__setattr__(self, "_mu_scaled", mu_scaled)
        object.__setattr__(self, "_a_shift", shift[:, None])

    def _padded_logits(self, pts):
        """The (m, d) points as (d, w) zero-padded columns, and their (n, w) logits a_i.

        Columns from m on are zero; see the module docstring for a_i.
        """
        m = pts.shape[0]
        xt = np.zeros((self.d, -(-m // _PAD) * _PAD))
        xt[:, :m] = pts.T
        # at d = 1 the outer product has the bits of a one-deep matrix
        # product and takes a fraction of its time
        a = self._mu_scaled * xt if self.d == 1 else self._mu_scaled @ xt
        a += self._a_shift
        return xt, a

    def f(self, x):
        """Energy f(x); float for a single point, (m,) array for a batch."""
        return _evaluate(self, x, True, False)[0]

    def grad(self, x):
        """Gradient of f; same leading shape as the input."""
        return _evaluate(self, x, False, True)[1]

    def f_and_grad(self, x, *, value=True):
        """``(f(x), grad(x))``, shaped as theirs and with the bits of the separate calls.

        With ``value=False`` the energy is not computed and ``None``
        stands in its place.
        """
        return _evaluate(self, x, value, True)

    def _energy(self, pts):
        xt, a = self._padded_logits(pts)
        q = np.einsum("dw,dw->w", xt, xt)
        q /= 2.0 * self.sigma2
        q -= _logsumexp(a)
        return q[:pts.shape[0]]

    def _grad(self, pts):
        xt, e = self._padded_logits(pts)
        e -= e.max(axis=0)
        np.exp(e, out=e)
        e /= e.sum(axis=0)
        g = self.means.T @ e
        np.subtract(xt, g, out=g)
        g /= self.sigma2
        return g[:, :pts.shape[0]].T


def _logsumexp(a):
    """log sum_i exp(a_i) over axis 0 of an (n, w) array a by a max shift; overwrites a."""
    top = a.max(axis=0)
    a -= top
    np.exp(a, out=a)
    s = a.sum(axis=0)
    np.log(s, out=s)
    s += top
    return s


@dataclass(frozen=True, eq=False)
class PerturbedTarget:
    """A mixture target plus a product-of-sines perturbation of its energy.

    ``f(x) = base.f(x) + amplitude * prod_j sin(x_j / scale)``;
    ``amplitude`` and ``scale`` are the keys of a config's
    ``perturbation`` section. Construction sets the perturbation's
    closed-form sup-norm bounds: ``delta = |amplitude|`` on the energy
    shift, ``tau = |amplitude| sqrt(d) / scale`` on the gradient shift and
    ``curvature = |amplitude| d / scale^2`` on the Hessian shift's largest
    eigenvalue. Unlike the exact mixture, f may dip as low as ``-delta``. The base's geometry (``n``, ``d``,
    ``sigma2``, ``D``, ``w_min`` and ``means``, the centers of the
    perturbed modes) is copied at construction; equality is identity.
    """

    base: GaussianMixture
    amplitude: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        for name in ("n", "d", "sigma2", "D", "w_min", "means"):
            object.__setattr__(self, name, getattr(self.base, name))
        amp = abs(self.amplitude)
        object.__setattr__(self, "delta", float(amp))
        object.__setattr__(self, "tau", float(amp * math.sqrt(self.d) / self.scale))
        object.__setattr__(self, "curvature", float(amp * self.d / self.scale**2))

    def f(self, x):
        return _evaluate(self, x, True, False)[0]

    def grad(self, x):
        return _evaluate(self, x, False, True)[1]

    def f_and_grad(self, x, *, value=True):
        """``(f(x), grad(x))``, shaped as ``GaussianMixture.f_and_grad``'s."""
        return _evaluate(self, x, value, True)

    def _energy(self, pts):
        bump = self.amplitude * np.prod(np.sin(pts / self.scale), axis=-1)
        return self.base._energy(pts) + bump

    def _grad(self, pts):
        """The base gradient plus the perturbation's, with no sines at d == 1.

        Coordinate j of the perturbation's gradient is
        (amplitude / scale) cos(x_j / scale) prod_{k != j} sin(x_k / scale).
        """
        z = pts / self.scale
        s = np.sin(z) if self.d > 1 else None
        g = np.cos(z)
        for j in range(self.d):
            others = [k for k in range(self.d) if k != j]
            rest = np.prod(s[:, others], axis=-1) if others else 1.0
            g[:, j] = (self.amplitude / self.scale) * g[:, j] * rest
        return self.base._grad(pts) + g


def locate_min(target, step=None, max_iter=10_000, tol=1e-8):
    """Approximate argmin of f by multi-start gradient descent.

    Starts from every component mean and from the origin, runs descent
    with a fixed step (default ``0.1 * sigma2``) until the gradient norm
    falls below ``tol``, and returns the best converged iterate. For an
    exact mixture the result satisfies ``||x*|| <= sqrt(2) * D`` up to
    tolerance.

    Raises
    ------
    NonConvergenceError
        If no start converges within ``max_iter`` iterations; the error
        carries the best iterate seen.
    """
    if step is None:
        step = 0.1 * target.sigma2
    starts = np.vstack([target.means, np.zeros((1, target.d))])
    x = starts.copy()
    done = np.zeros(len(x), dtype=bool)
    for _ in range(max_iter):
        idx = np.nonzero(~done)[0]
        if idx.size == 0:
            break
        g = target.grad(x[idx])
        gn = np.linalg.norm(g, axis=1)
        conv = gn <= tol
        done[idx[conv]] = True
        if (~conv).any():
            x[idx[~conv]] = x[idx[~conv]] - step * g[~conv]
    fvals = np.atleast_1d(target.f(x))
    if not done.any():
        gfin = np.linalg.norm(np.atleast_2d(target.grad(x)), axis=1)
        best = int(np.argmin(fvals))
        raise NonConvergenceError(x[best], float(gfin[best]), max_iter)
    fvals = np.where(done, fvals, np.inf)
    return x[int(np.argmin(fvals))]


def hessian_max_eig(target, x, h=1e-4):
    """Largest eigenvalue of the central finite-difference Hessian at x."""
    pts, _ = _as_points(x, target.d)
    _check_finite(pts)
    x0 = pts[0]
    d = target.d
    H = np.empty((d, d))
    eye = np.eye(d)
    for i in range(d):
        for j in range(i, d):
            fpp = target.f(x0 + h * eye[i] + h * eye[j])
            fpm = target.f(x0 + h * eye[i] - h * eye[j])
            fmp = target.f(x0 - h * eye[i] + h * eye[j])
            fmm = target.f(x0 - h * eye[i] - h * eye[j])
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return float(np.linalg.eigvalsh(H).max())


def close_to_sum_ratio(mixture: GaussianMixture, beta, x):
    """Ratio of exp(-beta*f) to the mixture of component powers at x.

    Compares ``g_beta = exp(-beta f)`` against
    ``gtilde_beta = sum_i w_i exp(-beta ||x - mu_i||^2 / (2 sigma2))``;
    the ratio always lies in ``[1, 1/w_min]``.
    """
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta!r}")
    pts, single = _as_points(x, mixture.d)
    _check_finite(pts)
    a = mixture._padded_logits(pts)[1]
    # with q = ||x||^2 / (2 sigma2), -beta f = beta logsumexp_i a_i - beta q and
    # log gtilde_beta = logsumexp_i(log w_i + beta (a_i - log w_i)) - beta q
    log_w = np.log(mixture.weights)[:, None]
    log_ratio = -_logsumexp(log_w + beta * (a - log_w))
    log_ratio += beta * _logsumexp(a)
    out = np.exp(log_ratio[:pts.shape[0]])
    return float(out[0]) if single else out


def check_perturbation_bounds(target: PerturbedTarget, n_points=10_000, rng=None, radius=None):
    """Empirically verify the declared perturbation bounds on a ball.

    Samples ``n_points`` uniform points in a ball of radius
    ``2 D + 6 sigma`` (or the given radius) and returns the largest
    observed energy deviation and gradient deviation from the base
    mixture. Callers compare these against ``target.delta`` and
    ``target.tau``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    d = target.d
    if radius is None:
        radius = 2.0 * target.D + 6.0 * math.sqrt(target.sigma2)
    dirs = rng.standard_normal((n_points, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.random(n_points) ** (1.0 / d)
    pts = dirs * radii[:, None]
    f_dev = np.abs(target.f(pts) - target.base.f(pts))
    g_dev = np.linalg.norm(target.grad(pts) - target.base.grad(pts), axis=1)
    return float(f_dev.max()), float(g_dev.max())
