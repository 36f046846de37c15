"""Shared fixtures: the two desk-scale mixtures used across test modules."""
import pytest

from stlmc.mixture_target import GaussianMixture


@pytest.fixture(scope="session")
def desk():
    """Symmetric two-mode 1D mixture, modes at +-3, unit variance."""
    return GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], 1.0)


@pytest.fixture(scope="session")
def cheap():
    """Close-mode variant (modes at +-1.5) with a short 4-level ladder."""
    return GaussianMixture([0.5, 0.5], [[-1.5], [1.5]], 1.0)
