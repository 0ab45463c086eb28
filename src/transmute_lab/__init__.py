"""Numerical laboratory for two-dimensional contact-interaction scattering.

The model is a pair of particles in two spatial dimensions with an
attractive delta-function potential of dimensionless strength eps.  Solved
exactly through its rank-one separable structure, the unregulated model
neither scatters nor binds: tau(z) = 0 identically in the upper half energy
plane.  Introducing any short-distance regulator generates a bound-state
scale E_B = Lambda e^{-4 pi/eps} (up to a regulator-dependent O(1) factor in
Lambda), and removing the regulator at fixed E_B yields the renormalized
amplitude tau(z) = 4 pi / ln(-E_B/z).  This package computes all three
regimes with independent brute-force oracles for every closed form.
"""

from .amplitude import (
    Amplitude,
    BoundState,
    FlowPoint,
    TransmutationStep,
    ZERO_AMPLITUDE,
    amplitudes_over_cutoffs,
    bound_state_pole,
    regulated_amplitude,
    renormalized_amplitude,
    slide_amplitude,
    transmutation_schedule,
)
from .energy_plane import (
    NATURAL_UNITS,
    ComplexEnergy,
    PhysicalScales,
    Wavenumber,
    as_energy,
    principal_log_ratio,
    wavenumber,
)
from .errors import (
    DivergenceError,
    DomainError,
    NoBoundStateError,
    PoleSingularityError,
    PrecisionFailureError,
    SingularInputError,
    TransmuteLabError,
    UnitarityViolationError,
)
from .observables import (
    f_from_tau,
    optical_theorem_defect,
    tau_from_phase_shift,
    total_target_length,
    unitarity_defect,
)
from .regulators import (
    GaussianFormFactor,
    PureDelta,
    Regulator,
    SharpCutoff,
    decay_amplitude,
    form_factor_squared,
    resolvent_element,
    slide_kernel,
    spectral_weight,
)

__version__ = "0.1.0"
