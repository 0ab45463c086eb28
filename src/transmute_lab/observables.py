"""Continuum scattering observables derived from the dimensionless amplitude.

On the continuum E + i0+ with wavenumber k = sqrt(E/kinetic_constant):

    f(E)      = -sqrt(1/(8 pi k)) tau        (dimension sqrt(length))
    dL/dtheta = |f|^2                        (differential target length)
    L         = -(1/k) Im tau                (total target length)
              = sqrt(8 pi / k) Im f          (2D optical theorem)

The two expressions for L agree only if Im tau <= 0 on the continuum, which
fixes the phase convention of the outgoing-wave prefactor.  Elastic
unitarity is Im(1/tau) = 1/4, equivalently |tau| <= 4, saturated at a
resonance; the unique phase parametrization in (-pi/2, pi/2] is then

    tau = -4 e^{i delta0} sin(delta0),   cot(delta0) = -4 Re(1/tau),

with delta0 = pi/2 exactly where Re(1/tau) = 0 (in the renormalized model,
at E = E_B).  The target length is the 2D analog of a total cross section
and carries the same length unit as 1/k.

continuum_observables_array forms all of these over a whole energy grid in
one numpy pass.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .amplitude import Amplitude
from .energy_plane import NATURAL_UNITS, PhysicalScales, Wavenumber, complex_divide_array
from .errors import DomainError, UnitarityViolationError
from .tolerances import IM_TAU_POSITIVE_TOL, UNITARITY_DEFECT_TOL

__all__ = [
    "f_from_tau",
    "total_target_length",
    "phase_shift_from_tau",
    "optical_theorem_defect",
    "unitarity_defect",
    "tau_from_phase_shift",
    "continuum_observables_array",
]


def _as_tau(tau) -> complex:
    if isinstance(tau, Amplitude):
        return tau.tau
    return complex(tau)


def f_from_tau(tau, k: Wavenumber) -> complex:
    """Dimensional scattering amplitude f = -sqrt(1/(8 pi k)) tau."""
    if not (k > 0.0):
        raise DomainError(f"continuum wavenumber must be positive, got {k}")
    return -math.sqrt(1.0 / (8.0 * math.pi * k)) * _as_tau(tau)


def total_target_length(tau, k: Wavenumber) -> float:
    """L = -(1/k) Im tau, the total target length.

    Raises if Im tau > 0 beyond tolerance: a positive imaginary part on the
    continuum signals a branch or regulator inconsistency upstream.
    """
    if not (k > 0.0):
        raise DomainError(f"continuum wavenumber must be positive, got {k}")
    t = _as_tau(tau)
    if t.imag > IM_TAU_POSITIVE_TOL:
        raise UnitarityViolationError(
            f"Im tau = {t.imag:.3e} > 0 on the continuum", defect=t.imag
        )
    return -min(t.imag, 0.0) / k


def unitarity_defect(tau) -> float:
    """Im(1/tau) - 1/4; zero for an elastic unitary amplitude."""
    t = _as_tau(tau)
    if t == 0:
        return 0.0
    return (1.0 / t).imag - 0.25


def phase_shift_from_tau(tau, defect_tol: float = UNITARITY_DEFECT_TOL) -> float:
    """Phase shift delta0 in (-pi/2, pi/2] with tau = -4 e^{i delta0} sin(delta0).

    tau = 0 returns 0 (the no-scattering limit).  A unitarity defect beyond
    tolerance raises: the parametrization only exists on the unitary circle.
    """
    t = _as_tau(tau)
    if t == 0:
        return 0.0
    defect = unitarity_defect(t)
    if abs(defect) > defect_tol:
        raise UnitarityViolationError(
            f"unitarity defect Im(1/tau) - 1/4 = {defect:.3e}", defect=abs(defect)
        )
    x = (1.0 / t).real
    if x == 0.0:
        return 0.5 * math.pi
    return math.atan(-1.0 / (4.0 * x))


def tau_from_phase_shift(delta0: float) -> complex:
    """Unitary amplitude -4 e^{i delta0} sin(delta0)."""
    return -4.0 * cmath.exp(1j * delta0) * math.sin(delta0)


def optical_theorem_defect(tau, k: Wavenumber) -> float:
    """2 pi |f|^2 - sqrt(8 pi / k) Im f.

    Zero for elastic unitary amplitudes (the optical theorem); positive for
    a constructed violation such as |tau| > 4.
    """
    if not (k > 0.0):
        raise DomainError(f"continuum wavenumber must be positive, got {k}")
    f = f_from_tau(tau, k)
    return 2.0 * math.pi * abs(f) ** 2 - math.sqrt(8.0 * math.pi / k) * f.imag


def continuum_observables_array(
    tau,
    energies,
    scales: PhysicalScales = NATURAL_UNITS,
    defect_tol: float = UNITARITY_DEFECT_TOL,
) -> dict[str, np.ndarray]:
    """Observables over arrays of continuum energies and their amplitudes,
    elementwise as wavenumber, f_from_tau, optical_theorem_defect and
    phase_shift_from_tau form them.  Returns arrays keyed k, f, dL_dtheta,
    L_optical (the optical-theorem route), L_from_im_tau (-Im tau / k,
    unclipped), optical_defect, phase_shift and violation; a row whose
    unitarity defect exceeds defect_tol is flagged in violation and its
    phase shift is NaN."""
    tau = np.asarray(tau, dtype=complex)
    with np.errstate(invalid="ignore"):
        k = np.sqrt(np.asarray(energies, dtype=float) / scales.kinetic_constant)
    if not (k > 0.0).all():
        raise DomainError(f"continuum wavenumber must be positive, got {k[~(k > 0.0)][0]}")
    f = -np.sqrt(1.0 / (8.0 * math.pi * k)) * tau
    dl_dtheta = np.hypot(f.real, f.imag) ** 2
    l_optical = np.sqrt(8.0 * math.pi / k) * f.imag
    zero = tau == 0
    inverse = complex_divide_array(1.0, tau)
    x = inverse.real
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = np.arctan(-1.0 / (4.0 * x))
    violation = ~zero & (np.abs(inverse.imag - 0.25) > defect_tol)
    phase = np.where(x == 0.0, 0.5 * math.pi, phase)
    phase[zero] = 0.0
    phase[violation] = np.nan
    return {
        "k": k,
        "f": f,
        "dL_dtheta": dl_dtheta,
        "L_optical": l_optical,
        "L_from_im_tau": -tau.imag / k,
        "optical_defect": 2.0 * math.pi * dl_dtheta - l_optical,
        "phase_shift": phase,
        "violation": violation,
    }
