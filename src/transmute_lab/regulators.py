"""Short-distance regularizations of the 2D contact interaction.

A rank-one separable potential V = V0 |v><v| is fixed by its momentum-space
form factor <k|v>.  Everything downstream is built from the spectral weight
of the form factor over the free continuum,

    Q(E) = <v| delta(E - H) |v> = |<k(E)|v>|^2 / (4 pi kappa),

with kappa = kinetic_constant = hbar^2/(2 mu) and E = kappa k^2, and from the
resolvent expectation

    g(z) = <v| (z - H)^{-1} |v> = Int_0^inf Q(E) dE / (z - E).

The variants:

* pure-delta        |<k|v>|^2 = 1 for all k.  g diverges logarithmically
                    (this divergence is the whole story of the model); only
                    the sliding difference g(z) - g(z0) is finite.
* sharp-cutoff      |<k|v>|^2 = 1 for kinetic energy <= Lambda, 0 above.
                    The cutoff acts on energy, not |k|, which makes the
                    closed forms below exact.  The alternative |k| cutoff
                    differs by an O(1) redefinition of Lambda inside a
                    logarithm; precisely the freedom that makes the generated
                    bound-state scale conventional.
* gaussian          |<k|v>|^2 = exp(-k^2 a^2).

The circular well of radius a is a genuine finite-range potential, not a
form factor, so it is no regulator here: its one type is the oracle's
WellParameters (transmute_lab.oracle.well), solved by Bessel matching.

Closed forms (kappa = kinetic_constant, b = a^2/kappa):

    sharp:     g(z) = ln[z/(z - Lambda)] / (4 pi kappa)
    gaussian:  g(z) = -e^{-b z} E1(-b z) / (4 pi kappa)

Boundary values E + i0+ follow from the branch policy of energy_plane (for
the gaussian this is the limit e^{-bE}(Ei(bE) - i pi) / (4 pi kappa)).

resolvent_array is the one implementation of g(z) and its one dispatch on
the regulator: the sharp cutoff in closed form, the gaussian through the
array form of E1.  resolvent_element and slide_kernel are its 0-d calls.
On the negative real axis g is real: resolvent_derivative gives J'(E) of
J(E) = kappa g(-E), the pole residues' derivative, over columns of
energies, the gaussian through the real special.exp1_scaled_real.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .energy_plane import (
    NATURAL_UNITS,
    PhysicalScales,
    as_energy,
    complex_divide_array,
    principal_log_ratio_array,
    scaled_magnitude_array,
)
from .errors import DivergenceError, DomainError, SingularInputError
from .special import EULER_GAMMA, exp1_scaled_array, exp1_scaled_real

__all__ = [
    "PureDelta",
    "SharpCutoff",
    "GaussianFormFactor",
    "Regulator",
    "form_factor_squared",
    "spectral_weight",
    "decay_amplitude",
    "resolvent_element",
    "slide_kernel",
    "resolvent_array",
    "slide_kernels_along",
]


@dataclass(frozen=True)
class PureDelta:
    """Unregulated contact interaction, <k|v> = 1 for all k."""


@dataclass(frozen=True)
class SharpCutoff:
    """Unit form factor up to kinetic energy ``cutoff``, zero above."""

    cutoff: float

    def __post_init__(self):
        if not (self.cutoff > 0.0) or not math.isfinite(self.cutoff):
            raise DomainError(f"cutoff must be positive and finite, got {self.cutoff}")


@dataclass(frozen=True)
class GaussianFormFactor:
    """|<k|v>|^2 = exp(-k^2 length^2)."""

    length: float

    def __post_init__(self):
        if not (self.length > 0.0) or not math.isfinite(self.length):
            raise DomainError(f"length must be positive and finite, got {self.length}")


Regulator = Union[PureDelta, SharpCutoff, GaussianFormFactor]


def form_factor_squared(reg: Regulator, k: float, scales: PhysicalScales = NATURAL_UNITS) -> float:
    """|<k|v>|^2 at wavenumber k >= 0."""
    if k < 0.0:
        raise DomainError(f"wavenumber must be >= 0, got {k}")
    if isinstance(reg, PureDelta):
        return 1.0
    if isinstance(reg, SharpCutoff):
        return 1.0 if scales.kinetic_constant * k * k <= reg.cutoff else 0.0
    return math.exp(-(k * reg.length) ** 2)


def spectral_weight(reg: Regulator, energy: float, scales: PhysicalScales = NATURAL_UNITS) -> float:
    """Q(E) = |<k(E)|v>|^2 / (4 pi kinetic_constant) for E >= 0."""
    if energy < 0.0:
        raise DomainError(f"spectral weight requires E >= 0, got {energy}")
    kappa = scales.kinetic_constant
    base = 1.0 / (4.0 * math.pi * kappa)
    if isinstance(reg, PureDelta):
        return base
    if isinstance(reg, SharpCutoff):
        return base if energy <= reg.cutoff else 0.0
    return base * math.exp(-energy * reg.length**2 / kappa)


def decay_amplitude(reg: Regulator, t: float, scales: PhysicalScales = NATURAL_UNITS) -> complex:
    """q(t) = Int_0^inf Q(E) e^{-iEt} dE, with time in units where hbar = 1.

    For the pure delta this is 1/(4 pi i kappa t) exactly, the 1/t tail whose
    t -> 0 end makes the resolvent integral diverge.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"decay amplitude requires t > 0, got {t}")
    kappa = scales.kinetic_constant
    if isinstance(reg, PureDelta):
        return 1.0 / (4.0 * math.pi * kappa * 1j * t)
    if isinstance(reg, SharpCutoff):
        return (1.0 - cmath.exp(-1j * reg.cutoff * t)) / (4.0 * math.pi * kappa * 1j * t)
    return 1.0 / (4.0 * math.pi * (reg.length**2 + 1j * kappa * t))


def resolvent_element(reg: Regulator, z, scales: PhysicalScales = NATURAL_UNITS) -> complex:
    """g(z) at one point: the 0-d case of resolvent_array."""
    ze = as_energy(z)
    return complex(resolvent_array(reg, [ze.re], [ze.im], scales)[0])


def resolvent_derivative(reg: Regulator, energy, scales: PhysicalScales = NATURAL_UNITS) -> np.ndarray:
    """d/dE of the dimensionless resolvent along the negative real axis,
    i.e. J'(E) with J(E) = kappa*g(-E), elementwise over an array of E > 0.
    Used for pole residues."""
    energy = _negative_axis(reg, energy)
    if isinstance(reg, SharpCutoff):
        return (1.0 / energy - 1.0 / (energy + reg.cutoff)) / (4.0 * math.pi)
    b = reg.length**2 / scales.kinetic_constant
    x = b * energy
    # d/dE [-(1/4pi) e^{x} E1(x)] = -(b/4pi) (e^{x} E1(x) - 1/x)
    return -(b / (4.0 * math.pi)) * (exp1_scaled_real(x) - 1.0 / x)


def _negative_axis(reg: Regulator, energy) -> np.ndarray:
    """The energies E > 0 of -E as a float array, for a separable regulator."""
    energy = np.asarray(energy, dtype=float)
    if not isinstance(reg, (SharpCutoff, GaussianFormFactor)) or not (energy > 0.0).all():
        raise DomainError("the negative-axis resolvent needs E > 0 and a sharp-cutoff or gaussian regulator")
    return energy


def slide_kernel(reg: Regulator, z, z0, scales: PhysicalScales = NATURAL_UNITS) -> complex:
    """Sliding kernel g(z) - g(z0) that transports the amplitude between
    energy scales: the one-point case of slide_kernels_along.

    For the pure delta the divergences cancel in the difference and the
    kernel is exactly ln(z/z0)/(4 pi kinetic_constant); the regulated kernels
    converge to it as the regulator is removed.
    """
    ze = as_energy(z)
    return complex(slide_kernels_along(reg, [ze.re], [ze.im], z0, scales)[0][0])


def resolvent_array(reg, re, im, scales: PhysicalScales = NATURAL_UNITS) -> np.ndarray:
    """g(z) = Int_0^inf Q(E) dE / (z - E) in closed form, elementwise over
    broadcastable arrays of Re z and Im z.  reg is a regulator, or an array
    of sharp cutoffs that broadcasts with the points (a cutoff schedule).

    Diverges for the pure delta (raises DivergenceError): with Q constant the
    integral grows logarithmically at large E for every z in the upper half
    plane.  Boundary values follow the limit-from-above branch policy: the
    gaussian takes every point through E1, continuum points (Im z = 0 < Re z)
    on the lower lip of its cut.  z = 0 and the sharp edge z = Lambda raise
    SingularInputError with the flat index of the first such point.
    """
    if isinstance(reg, PureDelta):
        raise DivergenceError(
            "the unregulated resolvent element |g(z)| is infinite for every "
            "upper-half-plane z; only differences g(z) - g(z0) are finite"
        )
    re, im = np.broadcast_arrays(np.asarray(re, dtype=float), np.asarray(im, dtype=float))
    on_axis = im == 0.0
    singular = on_axis & (re == 0.0)
    if singular.any():
        raise SingularInputError("g(z) is singular at z = 0 (continuum endpoint)", int(np.argmax(singular)))
    kappa = scales.kinetic_constant
    if isinstance(reg, GaussianFormFactor):
        return _gaussian_resolvent_array(reg.length, kappa, re, im)
    cutoff = reg.cutoff if isinstance(reg, SharpCutoff) else np.asarray(reg, dtype=float)
    singular = on_axis & (re == cutoff)
    if singular.any():
        raise SingularInputError("g(z) is singular at the cutoff edge z = Lambda", int(np.argmax(singular)))
    return complex_divide_array(principal_log_ratio_array(re, im, re - cutoff, im), 4.0 * math.pi * kappa)


def _gaussian_resolvent_array(length: float, kappa: float, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The gaussian g(z) over arrays of Re z, Im z of one shape, z != 0."""
    b = length**2 / kappa
    pref = 1.0 / (4.0 * math.pi * kappa)
    g = np.empty(re.shape, dtype=complex)
    # where |w| = b|z| lies below the smallest normal double, w may round to
    # 0, and e^w E1(w) = -gamma - ln w and e^{-x} Ei(x) = gamma + ln x hold
    # to |w ln w|: g = pref (gamma + ln w), with ln w = ln b + ln|z| +
    # i arg(-z) formed in logs from a, kappa and z (b itself may underflow);
    # arg(-z) = -pi on the continuum, and -0.0 on the negative axis, as the
    # E1 route gives
    small = b * np.hypot(re, im) < sys.float_info.min
    if small.any():
        mag, shift = scaled_magnitude_array(re[small], im[small])
        ln_z = np.log(mag) - shift
        g.real[small] = pref * (EULER_GAMMA + ((2.0 * math.log(length) - math.log(kappa)) + ln_z))
        g.imag[small] = pref * np.arctan2(-np.abs(im[small]), -re[small])
    rest = ~small
    if rest.any():
        # g(z) = -e^{-bz} E1(-bz); evaluate through the scaled E1 so the
        # negative axis never overflows: g = -(e^{w} E1(w)) with w = -b z.  A
        # continuum point has w = -bE - 0i on the lower lip of the cut, where
        # E1 gives the Sokhotski limit g = pref e^{-bE} (Ei(bE) - i pi)
        w = np.empty(int(rest.sum()), dtype=complex)
        w.real, w.imag = -b * re[rest], -b * im[rest]
        e1 = exp1_scaled_array(w)
        g.real[rest], g.imag[rest] = -pref * e1.real, -pref * e1.imag
    return g


def slide_kernels_along(reg: Regulator, re, im, z0, scales: PhysicalScales = NATURAL_UNITS):
    """Sliding kernels along a path of points z_i = re_i + i*im_i: the
    kernel G(z_i, z0) from the anchor to every point, and G(z_{i+1}, z_i)
    between neighbours; SingularInputError carries the index of the first
    singular point of the path, or None for the anchor."""
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    z0e = as_energy(z0)
    if isinstance(reg, PureDelta):
        zero = np.flatnonzero((re == 0.0) & (im == 0.0))
        if z0e.is_zero or zero.size:
            raise SingularInputError("sliding kernel is singular at z = 0", None if z0e.is_zero else int(zero[0]))
        scale = 4.0 * math.pi * scales.kinetic_constant
        return (complex_divide_array(principal_log_ratio_array(re, im, z0e.re, z0e.im), scale),
                complex_divide_array(principal_log_ratio_array(re[1:], im[1:], re[:-1], im[:-1]), scale))
    # the anchor rides along as the last point; coincident regular points
    # cancel exactly, and singular ones raise from resolvent_array
    try:
        g = resolvent_array(reg, np.append(re, z0e.re), np.append(im, z0e.im), scales)
    except SingularInputError as exc:
        exc.index = None if exc.index == re.size else exc.index
        raise
    g, g0 = g[:-1], g[-1]
    return g - g0, g[1:] - g[:-1]
