"""Unadjusted Langevin dynamics at an inverse temperature beta.

One macro-step applies ``round(T / eta)`` Euler discretization steps

    x <- x - eta * beta * grad_f(x) + sqrt(2 * eta) * xi

with fresh standard-normal noise each step and no Metropolis
correction; the discretization bias is controlled through eta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteGradientError

__all__ = ["LangevinParams", "check_step_size", "langevin_step", "run_macro_step"]


@dataclass(frozen=True)
class LangevinParams:
    """Step size eta, macro-step time interval T, inverse temperature beta."""

    eta: float
    T: float
    beta: float = 1.0

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive (got {self.eta!r})")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive (got {self.T!r})")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must lie in [0, 1] (got {self.beta!r})")

    @property
    def steps_per_macro(self) -> int:
        return max(1, round(self.T / self.eta))


def check_step_size(params: LangevinParams, target) -> None:
    """Enforce eta <= 1 / (2 (1/sigma2 + curvature)) for the given target.

    ``curvature`` is the target's bound on the Hessian its perturbation
    adds (0 without one), so a plain mixture keeps eta <= sigma2 / 2.
    """
    curvature = getattr(target, "curvature", 0.0)
    if curvature:
        limit = 1.0 / (2.0 * (1.0 / target.sigma2 + curvature))
        bound = f"1/(2 (1/sigma2 + curvature)) = {limit}"
    else:
        limit = target.sigma2 / 2.0
        bound = f"sigma2/2 = {limit}"
    if params.eta > limit + 1e-15:
        raise ValueError(f"eta={params.eta} violates the step-size bound eta <= {bound}")


def langevin_step(target, params: LangevinParams, x, noise):
    """One Euler step; x and noise share shape (d,) or (m, d)."""
    x = np.asarray(x, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if noise.shape != x.shape:
        raise ValueError(f"noise shape {noise.shape} does not match x shape {x.shape}")
    g = target.grad(x)
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradientError(x)
    return x - params.eta * params.beta * g + math.sqrt(2.0 * params.eta) * noise


def run_macro_step(target, params: LangevinParams, x, rng):
    """Apply steps_per_macro Langevin steps with noise drawn from rng."""
    x = np.asarray(x, dtype=float)
    for _ in range(params.steps_per_macro):
        x = langevin_step(target, params, x, rng.standard_normal(x.shape))
    return x
