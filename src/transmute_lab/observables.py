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
one numpy pass; f_from_tau and the other scalar names are its one-element
calls, so they equal its rows to the bit.  tau_from_phase_shift is likewise
the one-element call of tau_from_phase_shift_array.
"""

from __future__ import annotations

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
    "tau_from_phase_shift_array",
    "continuum_observables_array",
]


def _as_tau(tau) -> complex:
    return tau.tau if isinstance(tau, Amplitude) else complex(tau)


def _observables(tau: np.ndarray, k: np.ndarray, defect_tol: float) -> dict[str, np.ndarray]:
    """The observables of continuum_observables_array over arrays of
    amplitudes and wavenumbers, with the unitarity defect Im(1/tau) - 1/4
    (0 where tau = 0) under the key unitarity_defect."""
    if not (k > 0.0).all():
        raise DomainError(f"continuum wavenumber must be positive, got {k[~(k > 0.0)][0]}")
    f = -np.sqrt(1.0 / (8.0 * math.pi * k)) * tau
    dl_dtheta = np.hypot(f.real, f.imag) ** 2
    l_optical = np.sqrt(8.0 * math.pi / k) * f.imag
    zero = tau == 0
    inverse = complex_divide_array(1.0, tau)
    x = inverse.real
    defect = np.where(zero, 0.0, inverse.imag - 0.25)
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = np.arctan(-1.0 / (4.0 * x))
    violation = ~zero & (np.abs(defect) > defect_tol)
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
        "unitarity_defect": defect,
    }


def _one(tau, k: Wavenumber = 1.0, defect_tol: float = UNITARITY_DEFECT_TOL) -> dict[str, np.ndarray]:
    """_observables of one amplitude, as a one-element array (numpy rounds
    some functions of 0-d arrays otherwise); the unitarity defect and the
    phase shift do not depend on k."""
    return _observables(np.array([_as_tau(tau)]), np.array([float(k)]), defect_tol)


def f_from_tau(tau, k: Wavenumber) -> complex:
    """Dimensional scattering amplitude f = -sqrt(1/(8 pi k)) tau."""
    return complex(_one(tau, k)["f"][0])


def total_target_length(tau, k: Wavenumber) -> float:
    """L = -(1/k) Im tau, the total target length.

    Raises if Im tau > 0 beyond tolerance: a positive imaginary part on the
    continuum signals a branch or regulator inconsistency upstream.
    """
    obs = _one(tau, k)
    im = _as_tau(tau).imag
    if im > IM_TAU_POSITIVE_TOL:
        raise UnitarityViolationError(f"Im tau = {im:.3e} > 0 on the continuum", defect=im)
    return max(float(obs["L_from_im_tau"][0]), 0.0)


def unitarity_defect(tau) -> float:
    """Im(1/tau) - 1/4; zero for an elastic unitary amplitude."""
    return float(_one(tau)["unitarity_defect"][0])


def phase_shift_from_tau(tau, defect_tol: float = UNITARITY_DEFECT_TOL) -> float:
    """Phase shift delta0 in (-pi/2, pi/2] with tau = -4 e^{i delta0} sin(delta0).

    tau = 0 returns 0 (the no-scattering limit).  A unitarity defect beyond
    tolerance raises: the parametrization only exists on the unitary circle.
    """
    obs = _one(tau, defect_tol=defect_tol)
    if obs["violation"][0]:
        defect = float(obs["unitarity_defect"][0])
        raise UnitarityViolationError(f"unitarity defect Im(1/tau) - 1/4 = {defect:.3e}", defect=abs(defect))
    return float(obs["phase_shift"][0])


def tau_from_phase_shift_array(delta0) -> np.ndarray:
    """Unitary amplitudes -4 e^{i delta0} sin(delta0) elementwise over an
    array of phase shifts."""
    delta0 = np.asarray(delta0, dtype=float)
    return -4.0 * np.exp(1j * delta0) * np.sin(delta0)


def tau_from_phase_shift(delta0: float) -> complex:
    """Unitary amplitude -4 e^{i delta0} sin(delta0): the one-element call of
    tau_from_phase_shift_array."""
    return complex(tau_from_phase_shift_array([delta0])[0])


def optical_theorem_defect(tau, k: Wavenumber) -> float:
    """2 pi |f|^2 - sqrt(8 pi / k) Im f.

    Zero for elastic unitary amplitudes (the optical theorem); positive for
    a constructed violation such as |tau| > 4.
    """
    return float(_one(tau, k)["optical_defect"][0])


def continuum_observables_array(
    tau,
    energies,
    scales: PhysicalScales = NATURAL_UNITS,
    defect_tol: float = UNITARITY_DEFECT_TOL,
) -> dict[str, np.ndarray]:
    """Observables over arrays of continuum energies and their amplitudes.
    Returns arrays keyed k, f, dL_dtheta, L_optical (the optical-theorem
    route), L_from_im_tau (-Im tau / k, unclipped), optical_defect,
    phase_shift, violation and unitarity_defect; a row whose unitarity
    defect exceeds defect_tol is flagged in violation and its phase shift is
    NaN.  f_from_tau, total_target_length, unitarity_defect,
    phase_shift_from_tau and optical_theorem_defect are its one-element
    calls."""
    with np.errstate(invalid="ignore"):
        k = np.sqrt(np.asarray(energies, dtype=float) / scales.kinetic_constant)
    return _observables(np.asarray(tau, dtype=complex), k, defect_tol)
