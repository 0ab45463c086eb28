"""Independent brute-force verification layer.

Everything here recomputes the model's closed forms by a different route:
special functions from series/asymptotics (in ``transmute_lab.special``),
spectral integrals by adaptive Gauss-Kronrod quadrature with explicit
principal-value handling, and a genuine finite-range circular well solved by
Bessel matching with no separable approximation anywhere.
"""

from ..special import (  # noqa: F401
    bessel_j0,
    bessel_j1,
    bessel_y0,
    bessel_y1,
    bessel_i0,
    bessel_i1,
    bessel_k0,
    bessel_k1,
    bessel_k0_scaled,
    bessel_k1_scaled,
    exp1_scaled,
    expi,
    expi_scaled,
)
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
    coupling_of_well,
    well_bound_state,
    well_phase_shift,
    bound_energy_from_phase,
)
