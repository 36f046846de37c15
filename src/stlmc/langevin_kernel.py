"""Unadjusted Langevin dynamics at an inverse temperature beta.

One macro-step applies ``K = max(1, round(T / eta))`` Euler
discretization steps (``RunParams.steps_per_macro``)

    x <- x - eta * beta * grad_f(x) + sqrt(2 * eta) * xi

with fresh standard-normal noise each step and no Metropolis
correction; the discretization bias is controlled through eta.
``_updates`` is the one loop that applies these steps: the tempering
chain's within-level moves and ``run_macro_step`` both call it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteGradientError

__all__ = ["check_step_size", "run_macro_step"]


def check_step_size(eta, target) -> None:
    """Enforce eta <= 1 / (2 (1/sigma2 + curvature)) for the given target.

    ``curvature`` is the target's bound on the Hessian its perturbation
    adds (0 without one), so a plain mixture keeps eta <= sigma2 / 2.
    """
    if target.curvature:
        limit = 1.0 / (2.0 * (1.0 / target.sigma2 + target.curvature))
        bound = f"1/(2 (1/sigma2 + curvature)) = {limit}"
    else:
        limit = target.sigma2 / 2.0
        bound = f"sigma2/2 = {limit}"
    if eta > limit + 1e-15:
        raise ValueError(f"eta={eta} violates the step-size bound eta <= {bound}")


def _updates(target, xs, eta_b, noise):
    """Apply one Langevin update per (d, h) array in ``noise``; return the result.

    ``xs`` holds h points as the columns of a C-ordered (d, h) array, the
    mixture kernel's own layout; it is overwritten, and the result is
    ``xs`` or a second buffer of its shape. ``eta_b`` is eta * beta, one
    value or one per column; the noise is already scaled by sqrt(2 eta).
    Gradients come only from ``target.f_and_grad(..., value=False)``, which
    skips the energy the update never reads. An update that leaves
    a point non-finite raises ``NonFiniteGradientError`` carrying the
    point the update started from.
    """
    moved = np.empty_like(xs)
    # xs and moved swap roles each update, so xs still holds the
    # update's start rows when the check fails
    for step_noise in noise:
        _, grad = target.f_and_grad(xs.T, value=False)
        np.multiply(eta_b, grad.T, out=moved)
        np.subtract(xs, moved, out=moved)
        moved += step_noise
        if not np.isfinite(moved).all():
            bad = np.flatnonzero(~np.isfinite(moved).all(axis=0))[0]
            raise NonFiniteGradientError(xs[:, bad].copy())
        xs, moved = moved, xs
    return xs


def run_macro_step(target, x, rng, eta, n_steps, beta=1.0):
    """Apply n_steps Langevin steps to a (d,) point or an (m, d) batch.

    Each step draws ``rng.standard_normal(x.shape)``, so the noise
    stream is that of one draw per step in the point's own shape; the
    result has x's shape and x is not written.
    """
    x = np.asarray(x, dtype=float)
    xs = np.array(x.reshape(-1, target.d).T, order="C")
    scale = math.sqrt(2.0 * eta)
    noise = (rng.standard_normal(x.shape).reshape(-1, target.d).T * scale
             for _ in range(n_steps))
    return np.ascontiguousarray(_updates(target, xs, eta * beta, noise).T).reshape(x.shape)
