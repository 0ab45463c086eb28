"""Exact 2D quantum mechanics for an attractive circular well.

The well V(r) = -V0 for r < a (V0 > 0) is a genuine finite-range smearing of
the contact interaction: no separable approximation enters anywhere, which
is what makes it an independent probe of how the generated bound-state scale
depends on the regulator.  The correspondence to the dimensionless contact
coupling equates the spatial integral of the potential with the delta
strength:

    eps = V0 * pi * a^2 / kinetic_constant.

s-wave bound state at energy -E_B (0 < E_B < V0): interior J0(k_in r) with
k_in = sqrt((V0 - E_B)/kappa) matches exterior K0(gamma r) with
gamma = sqrt(E_B/kappa) through equality of logarithmic derivatives at r = a,

    k_in J1(k_in a) / J0(k_in a) = gamma K1(gamma a) / K0(gamma a).

s-wave phase shift at continuum wavenumber k: interior J0(k_in r) with
k_in = sqrt((E + V0)/kappa) matches cos(d) J0(kr) - sin(d) Y0(kr) outside;
the matching is kept in cross-multiplied (cotangent-safe) form so interior
J0 zeros cause no division blowup.  A shallow 2D well always binds, and at
k a << 1 the phase shift runs logarithmically, cot(d) = ln(E/E_B^eff)/pi up
to range corrections, which ties the well back to the renormalized
amplitude.

well_phase_shift_array forms the phase shifts of a whole wavenumber grid
from one bessel_jy_array pass over the interior and exterior arguments
[k_in a, k a]; well_phase_shift is its one-element call.  The bound-state
matching stays scalar: its root search evaluates J, K one point at a time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ..energy_plane import NATURAL_UNITS, PhysicalScales, log_bracket_root, log_search_floor
from ..errors import DomainError, NoBoundStateError
from ..special import EULER_GAMMA, bessel_j0, bessel_j1, bessel_jy_array, bessel_k0_scaled, bessel_k1_scaled

__all__ = [
    "WellParameters",
    "well_from_coupling",
    "coupling_of_well",
    "well_bound_state",
    "well_phase_shift",
    "well_phase_shift_array",
    "bound_energy_from_phase",
]

# first zero of J1: the ground state has k_in a < j0,1 and every excited
# state k_in a > j1,1, since a root needs J1/J0 > 0
_J1_FIRST_ZERO = 3.8317059702075125

# shallow-well asymptote ln(E_B a^2/kappa) = -4 pi/eps + _SHALLOW_LOG_OFFSET + O(eps)
_SHALLOW_LOG_OFFSET = math.log(4.0) - 2.0 * EULER_GAMMA + 0.5


def _check_radius(radius: float) -> None:
    """The model divides by radius**2, so its square must not underflow or
    overflow either."""
    if not (radius > 0.0 and math.isfinite(radius)):
        raise DomainError(f"well radius must be positive, got {radius}")
    if not sys.float_info.min <= radius * radius < math.inf:
        raise DomainError(f"well radius {radius!r} is out of range: its square underflows or overflows")


@dataclass(frozen=True)
class WellParameters:
    """Attractive circular well: value -depth inside r < radius, 0 outside."""

    radius: float
    depth: float

    def __post_init__(self):
        _check_radius(self.radius)
        if not (self.depth > 0.0 and math.isfinite(self.depth)):
            raise DomainError(f"well depth must be positive, got {self.depth}")


def well_from_coupling(epsilon: float, radius: float, scales: PhysicalScales = NATURAL_UNITS) -> WellParameters:
    """Well with the same spatial integral as a contact coupling eps.

    A depth that underflows to zero raises NoBoundStateError(exact=False):
    the ground state of such a well, below its depth, lies below the bound
    state search limit (kappa/a^2) * 1e-300.
    """
    if not (epsilon > 0.0):
        raise DomainError(f"coupling must be positive, got {epsilon}")
    _check_radius(radius)
    depth = epsilon * scales.kinetic_constant / (math.pi * radius**2)
    if depth == 0.0:
        raise NoBoundStateError(f"well depth eps*kappa/(pi a^2) underflows at eps = {epsilon}", exact=False)
    return WellParameters(radius=radius, depth=depth)


def coupling_of_well(well: WellParameters, scales: PhysicalScales = NATURAL_UNITS) -> float:
    return well.depth * math.pi * well.radius**2 / scales.kinetic_constant


def _matching(well: WellParameters, energy: float, kappa: float) -> float:
    """Bound-state matching function, cross-multiplied so both J0 and K0
    zeros are harmless and scaled by e^{gamma a} so K0 and K1 do not
    underflow; positive at E -> 0+, negative at E -> depth-."""
    a = well.radius
    k_in = math.sqrt((well.depth - energy) / kappa)
    gamma = math.sqrt(energy / kappa)
    return (k_in * bessel_j1(k_in * a) * bessel_k0_scaled(gamma * a)
            - gamma * bessel_k1_scaled(gamma * a) * bessel_j0(k_in * a))


def well_bound_state(well: WellParameters, scales: PhysicalScales = NATURAL_UNITS) -> float:
    """Ground-state binding energy E_B > 0 (pole of the amplitude at -E_B).

    log_bracket_root searches the matching root in ln E, outward from the
    shallow-well asymptote, between the search limit (kappa/a^2) * 1e-300
    and depth * (1 - 1e-12).  In a deep well (depth > j1,1^2 kappa/a^2) the
    floor rises to ln(depth - j1,1^2 kappa/a^2), where the matching function
    is -gamma K1 J0(j1,1) > 0 and below which every excited state lies, so
    the bracket holds the ground state alone.  A 2D attractive well always
    binds, but the search raises NoBoundStateError(exact=False), as the
    separable pole search does, below eps ~ 0.018, where
    E_B ~ (kappa/a^2) e^{-4 pi/eps} lies under the limit, and above
    eps ~ 2e13, where E_B lies above depth * (1 - 1e-12).
    """
    kappa, v0 = scales.kinetic_constant, well.depth
    nominal = kappa / well.radius**2
    x_floor = log_search_floor(nominal)
    if v0 > _J1_FIRST_ZERO**2 * nominal:
        x_floor = max(x_floor, math.log(v0 - _J1_FIRST_ZERO**2 * nominal))
    eps = coupling_of_well(well, scales)
    # a coupling that underflows to zero puts the asymptote at -inf, with no division
    guess = math.log(nominal) + _SHALLOW_LOG_OFFSET - 4.0 * math.pi / eps if eps > 0.0 else -math.inf
    f = lambda x: _matching(well, math.exp(x), kappa)
    return math.exp(log_bracket_root(f, x_floor, math.log(v0) + math.log1p(-1e-12), guess))


def well_phase_shift_array(well: WellParameters, k, scales: PhysicalScales = NATURAL_UNITS) -> np.ndarray:
    """s-wave phase shifts delta0 in (-pi/2, pi/2] elementwise over an array
    of wavenumbers k > 0.

    tan(delta0) = [M J0(ka) + k J0in J1(ka)] / [M Y0(ka) + k J0in Y1(ka)]
    with M = -k_in J1(k_in a) and J0in = J0(k_in a): the cross-multiplied
    form of logarithmic-derivative matching at r = a.  One bessel_jy_array
    pass over [k_in a, k a] gives every Bessel value of every row.
    """
    k = np.asarray(k, dtype=float)
    bad = ~((k > 0.0) & np.isfinite(k))
    if bad.any():
        raise DomainError(f"phase shift requires k > 0, got {k[bad][0]}")
    kappa = scales.kinetic_constant
    a = well.radius
    flat = k.ravel()
    energy = kappa * flat * flat
    k_in = np.sqrt((energy + well.depth) / kappa)
    j0, y0, j1, y1 = bessel_jy_array(np.concatenate([k_in * a, flat * a]))
    n = flat.size
    m = -k_in * j1[:n]
    k_j0_in = flat * j0[:n]
    num = m * j0[n:] + k_j0_in * j1[n:]
    den = m * y0[n:] + k_j0_in * y1[n:]
    delta = np.arctan2(num, den)
    delta[delta > 0.5 * math.pi] -= math.pi
    delta[delta <= -0.5 * math.pi] += math.pi
    return delta.reshape(k.shape)


def well_phase_shift(well: WellParameters, k: float, scales: PhysicalScales = NATURAL_UNITS) -> float:
    """s-wave phase shift delta0 in (-pi/2, pi/2] at wavenumber k > 0: the
    one-element call of well_phase_shift_array."""
    return float(well_phase_shift_array(well, [k], scales)[0])


def bound_energy_from_phase(energy: float, delta0: float) -> float:
    """Effective bound-state scale from one continuum phase shift, inverting
    the renormalized running cot(delta0) = ln(E/E_B)/pi."""
    if not (energy > 0.0):
        raise DomainError(f"continuum energy must be positive, got {energy}")
    s = math.sin(delta0)
    if s == 0.0:
        raise DomainError("zero phase shift carries no bound-state scale")
    return energy * math.exp(-math.pi * math.cos(delta0) / s)
