"""Target densities: equal-variance Gaussian mixtures and bounded perturbations.

A target is specified through an energy ``f`` with density
``p(x) proportional to exp(-f(x))``. The mixture energy is

    f(x) = -log sum_i w_i exp(-||x - mu_i||^2 / (2 sigma2))

so each component is a sub-probability bump and ``f >= 0`` everywhere.
Expanding the square gives ``f(x) = ||x||^2 / (2 sigma2) - logsumexp_i a_i``
with ``a_i = x . mu_i / sigma2 + log w_i - ||mu_i||^2 / (2 sigma2)``, so
the kernels need one (n, m) array instead of (m, n, d) differences.

Each target class has one energy kernel, ``_energy``, and one gradient
kernel, ``_grad``, both on checked (m, d) points. The mixture's energy
takes the logsumexp by logaddexp; its gradient ``(x - sum_i resp_i mu_i) /
sigma2`` comes from a max-subtracted softmax of the same logits. ``f``,
``grad`` and ``f_and_grad`` are shells over the kernels that share one
input path (``_evaluate``), so ``f_and_grad(x)[0]`` has the bits of
``f(x)`` and ``grad(x)`` those of ``f_and_grad(x)[1]``. The Langevin
kernel needs only the gradient and calls ``f_and_grad(x, value=False)``,
which runs no energy kernel. Each row's result is computed the same way
whatever the batch size, so a point's energy and gradient do not depend
on the rows evaluated with it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, _coerce

__all__ = [
    "GaussianMixture",
    "PerturbedTarget",
    "SinusoidalPerturbation",
    "locate_min",
    "hessian_max_eig",
    "close_to_sum_ratio",
    "check_perturbation_bounds",
    "target_from_config",
]


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
    # the energy's sums over coordinates add in memory order, so C-ordered
    # rows keep its bits whatever the layout of x
    fv = target._energy(np.ascontiguousarray(pts)) if value else None
    g = target._grad(pts) if grad else None
    if single:
        return (None if fv is None else float(fv[0])), (None if g is None else g[0])
    return fv, g


@dataclass(frozen=True)
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
        object.__setattr__(self, "_mu_scaled", mu / s2)
        shift = np.log(w) - np.einsum("nd,nd->n", mu, mu) / (2.0 * s2)
        object.__setattr__(self, "_a_shift", shift[:, None])

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @property
    def D(self) -> float:
        """Largest mean norm, max_i ||mu_i||."""
        return float(np.linalg.norm(self.means, axis=1).max())

    @property
    def w_min(self) -> float:
        return float(self.weights.min())

    def _logits(self, pts):
        """(n, m) logits a_i of the (m, d) points; see the module docstring."""
        a = np.einsum("nd,md->nm", self._mu_scaled, pts)
        a += self._a_shift
        return a

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
        # one logaddexp pass takes the fewest numpy calls for single
        # points, and it adds in component order for any m
        return (np.einsum("md,md->m", pts, pts) / (2.0 * self.sigma2)
                - np.logaddexp.reduce(self._logits(pts), axis=0))

    def _grad(self, pts):
        # Work in the (d, m) layout so that einsum and the sums over
        # components run over rows innermost, which is fast and adds in the
        # same order for every row. The layout costs no copy when pts is the
        # transpose of a (d, m) array, as the engine passes it, so the
        # gradient goes into a new array and pts is never written. A lone
        # row would drop that axis and switch both to another summation
        # order, so it is doubled.
        m = pts.shape[0]
        xt = np.ascontiguousarray(pts.T)
        if m == 1:
            xt = np.repeat(xt, 2, axis=1)
        e = np.einsum("nd,dm->nm", self._mu_scaled, xt)
        e += self._a_shift
        e -= e.max(axis=0)
        np.exp(e, out=e)
        e /= e.sum(axis=0)
        g = xt - np.einsum("nm,nd->dm", e, self.means)
        g /= self.sigma2
        return g.T[:m]


@dataclass(frozen=True)
class SinusoidalPerturbation:
    """Product-of-sines perturbation delta(x) = amplitude * prod_j sin(x_j / scale).

    Bounds are available in closed form: the sup norm of delta is
    |amplitude|, the sup norm of its gradient is
    |amplitude| * sqrt(d) / scale, and the largest Hessian eigenvalue
    is at most |amplitude| * d / scale^2 in absolute value.
    """

    amplitude: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")

    def value(self, pts):
        return self.amplitude * np.prod(np.sin(pts / self.scale), axis=-1)

    def grad(self, pts):
        """Gradient of ``value``; at d == 1, (amplitude / scale) cos(x / scale), with no sines."""
        z = pts / self.scale
        d = pts.shape[-1]
        s = np.sin(z) if d > 1 else None
        c = np.cos(z)
        out = np.empty_like(c)
        for j in range(d):
            others = [k for k in range(d) if k != j]
            rest = np.prod(s[..., others], axis=-1) if others else 1.0
            out[..., j] = (self.amplitude / self.scale) * c[..., j] * rest
        return out

    @property
    def delta(self) -> float:
        return abs(self.amplitude)

    def tau(self, d: int) -> float:
        return abs(self.amplitude) * math.sqrt(d) / self.scale

    def curvature(self, d: int) -> float:
        return abs(self.amplitude) * d / self.scale**2


class PerturbedTarget:
    """A mixture target plus a bounded perturbation of its energy.

    ``f = base.f + perturbation.value`` with declared sup-norm bounds
    ``delta`` on the energy shift, ``tau`` on the gradient shift and
    ``curvature`` on the Hessian shift. Unlike the exact mixture, f may
    dip as low as ``-delta``.
    """

    def __init__(self, base: GaussianMixture, perturbation):
        self.base = base
        self.perturbation = perturbation
        self.delta = float(perturbation.delta)
        self.tau = float(perturbation.tau(base.d))
        self.curvature = float(perturbation.curvature(base.d))

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def sigma2(self) -> float:
        return self.base.sigma2

    @property
    def D(self) -> float:
        return self.base.D

    @property
    def w_min(self) -> float:
        return self.base.w_min

    def f(self, x):
        return _evaluate(self, x, True, False)[0]

    def grad(self, x):
        return _evaluate(self, x, False, True)[1]

    def f_and_grad(self, x, *, value=True):
        """``(f(x), grad(x))``, shaped as ``GaussianMixture.f_and_grad``'s."""
        return _evaluate(self, x, value, True)

    def _energy(self, pts):
        return self.base._energy(pts) + self.perturbation.value(pts)

    def _grad(self, pts):
        return self.base._grad(pts) + self.perturbation.grad(pts)


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
    base = target.base if isinstance(target, PerturbedTarget) else target
    starts = np.vstack([base.means, np.zeros((1, target.d))])
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
    a = mixture._logits(np.ascontiguousarray(pts))
    # with q = ||x||^2 / (2 sigma2), -beta f = beta logsumexp_i a_i - beta q and
    # log gtilde_beta = logsumexp_i(log w_i + beta (a_i - log w_i)) - beta q
    log_w = np.log(mixture.weights)[:, None]
    log_ratio = (beta * np.logaddexp.reduce(a, axis=0)
                 - np.logaddexp.reduce(log_w + beta * (a - log_w), axis=0))
    out = np.exp(log_ratio)
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


def target_from_config(config: dict):
    """Build a target from a config's ``target`` section.

    Expected fields: ``weights``, ``means``, ``sigma2`` and optionally
    ``perturbation`` with ``amplitude`` and ``scale``. A section that is
    not a mapping, or a field that does not convert to floats, raises a
    ValueError naming it.
    """
    if not isinstance(config, dict):
        raise ValueError(f"the target section must be a JSON object (got {config!r})")

    def floats(value):
        return np.asarray(value, dtype=float)

    try:
        weights, means, sigma2 = config["weights"], config["means"], config["sigma2"]
    except KeyError as exc:
        raise ValueError(f"target config missing field {exc.args[0]!r}") from None
    mix = GaussianMixture(
        weights=_coerce("target.weights", floats, weights),
        means=_coerce("target.means", floats, means),
        sigma2=_coerce("target.sigma2", float, sigma2),
    )
    pert = config.get("perturbation")
    if pert is None:
        return mix
    if not isinstance(pert, dict):
        raise ValueError(f"the perturbation section must be a JSON object (got {pert!r})")
    if "amplitude" not in pert:
        raise ValueError("perturbation config requires an 'amplitude' field")
    return PerturbedTarget(
        mix,
        SinusoidalPerturbation(
            amplitude=_coerce("perturbation.amplitude", float, pert["amplitude"]),
            scale=_coerce("perturbation.scale", float, pert.get("scale", 1.0)),
        ),
    )
