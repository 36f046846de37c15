"""Exception types shared across the package, and the field converter that raises them."""
from __future__ import annotations

import numbers


def _coerce(name, kind, value):
    """``kind(value)``, with a ValueError naming the field when that fails.

    A bool is never a number here, and ``int`` takes only integral
    numbers (``50.0``, not ``50.5``), so no value is silently truncated.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        out = kind(value)
        if kind is int and isinstance(value, numbers.Real) and out != value:
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be {kind.__name__} (got {value!r})") from None


class ConfigError(ValueError):
    """Invalid configuration or command-line input."""


class NonFiniteGradientError(RuntimeError):
    """Gradient evaluation produced NaN or infinity.

    Carries the offending point in ``x``.
    """

    def __init__(self, x):
        self.x = x
        super().__init__(f"non-finite gradient at x={x!r}")


class NonConvergenceError(RuntimeError):
    """Iterative minimization did not reach the requested tolerance.

    Carries the best iterate found (``best_x``), its gradient norm
    (``grad_norm``) and the iteration count.
    """

    def __init__(self, best_x, grad_norm, iterations):
        self.best_x = best_x
        self.grad_norm = grad_norm
        self.iterations = iterations
        super().__init__(
            f"no start converged within {iterations} iterations "
            f"(best gradient norm {grad_norm:.3e})"
        )


class RetriesExhaustedError(RuntimeError):
    """A sampling run never ended at the top temperature level.

    ``attempts`` is the number of rounds of restarts used, the
    ``max_retries`` budget. ``level_counts`` counts the chains that ended
    at each 0-based level; ``final_levels`` maps each final level
    reached, numbered from 1, to that count.
    """

    def __init__(self, attempts, level_counts, message=None):
        self.attempts = attempts
        self.final_levels = {lv + 1: int(c) for lv, c in enumerate(level_counts) if c}
        super().__init__(
            message
            or f"no accepted sample after {attempts} rounds; "
            f"final-level histogram {self.final_levels}"
        )


class ReducibleChainError(ValueError):
    """Transition matrix is not irreducible.

    ``closed_classes`` lists the state labels of each closed
    communicating class found.
    """

    def __init__(self, closed_classes):
        self.closed_classes = [list(c) for c in closed_classes]
        super().__init__(
            f"chain is reducible; closed classes: {self.closed_classes}"
        )


class NonReversibleError(ValueError):
    """Operation requires a reversible chain."""


class BoundViolationError(AssertionError):
    """A checked inequality failed.

    Carries ``lhs``/``rhs`` so callers can report the margin.
    """

    def __init__(self, name, lhs, rhs):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"{name}: {lhs!r} exceeds {rhs!r}")
