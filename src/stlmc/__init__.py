"""Simulated tempering Langevin Monte Carlo for multimodal targets.

The library samples from densities proportional to ``exp(-f)`` where f
is the energy of an equal-variance Gaussian mixture (optionally with a
bounded smooth perturbation), estimating the per-temperature
normalizing constants along an automatically built ladder. A companion
finite-chain toolkit checks the spectral inequalities that make the
approach work. Import names from the submodules, as README shows.
"""

__version__ = "0.1.0"
