"""Independent brute-force verification layer.

Everything here recomputes the model's closed forms by a different route:
special functions from series/asymptotics (in ``transmute_lab.special``),
spectral integrals by adaptive Gauss-Kronrod quadrature with explicit
principal-value handling, and a genuine finite-range circular well solved by
Bessel matching with no separable approximation anywhere.
"""

from .quadrature import (  # noqa: F401
    QuadratureSpec,
    QuadratureResult,
    integrate,
    quadrature_resolvent,
    quadrature_spectral_weight,
    quadrature_decay_amplitude,
    upper_half_residue,
)
from .well import (  # noqa: F401
    WellParameters,
    well_from_coupling,
    well_bound_state,
    well_phase_shift,
    bound_energy_from_phase,
)
