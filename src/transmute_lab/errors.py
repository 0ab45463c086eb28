"""Exception types for the scattering model.

Divergent or singular quantities are structural facts of the model (the
unregulated resolvent integral really is infinite) and are surfaced as typed
errors rather than as large floats or signed infinities.
"""

from __future__ import annotations


class TransmuteLabError(Exception):
    """Base class for all package errors."""


class DomainError(TransmuteLabError, ValueError):
    """Input outside the mathematical domain of an operation."""


class SingularInputError(TransmuteLabError):
    """Evaluation requested exactly at a singular point (z = 0, z = cutoff edge), the first at index."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DivergenceError(TransmuteLabError):
    """The requested quantity is a divergent integral; no finite value exists."""


class PoleSingularityError(TransmuteLabError):
    """Evaluation landed on (or within guard distance of) an amplitude pole.

    Carries the located pole energy when it is computable so that callers can
    distinguish a resonant blowup from an overflow.
    """

    def __init__(self, message: str, pole_energy: complex | float | None = None):
        super().__init__(message)
        self.pole_energy = pole_energy


class NoBoundStateError(TransmuteLabError):
    """No bound-state pole exists (or none was bracketed numerically).

    ``exact`` is True when the absence is a rigorous property of the model
    (the unregulated contact interaction never binds), False when the root
    search simply failed to bracket a root in the representable range.
    """

    def __init__(self, message: str, exact: bool = False):
        super().__init__(message)
        self.exact = exact


class UnitarityViolationError(TransmuteLabError):
    """Continuum amplitude violates elastic unitarity beyond tolerance.

    Signals a branch or regulator inconsistency upstream; carries the defect.
    """

    def __init__(self, message: str, defect: float = 0.0):
        super().__init__(message)
        self.defect = defect


class PrecisionFailureError(TransmuteLabError):
    """Adaptive integration could not reach the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message: str, best_estimate: complex, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
