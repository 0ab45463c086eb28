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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

from .energy_plane import (
    NATURAL_UNITS,
    ComplexEnergy,
    PhysicalScales,
    as_energy,
    principal_log_ratio,
)
from .errors import (
    DivergenceError,
    DomainError,
    SingularInputError,
    UnsupportedRegulatorError,
)
from .special import exp1_scaled, expi_scaled

__all__ = [
    "PureDelta",
    "SharpCutoff",
    "GaussianFormFactor",
    "Regulator",
    "REGULATOR_NAMES",
    "regulator_from_name",
    "regulator_name",
    "form_factor_squared",
    "spectral_weight",
    "decay_amplitude",
    "resolvent_element",
    "dimensionless_resolvent",
    "slide_kernel",
    "nominal_cutoff",
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

REGULATOR_NAMES = ("pure-delta", "sharp-cutoff", "gaussian")


def regulator_from_name(name: str, cutoff: float | None = None, length: float | None = None) -> Regulator:
    """Build a regulator from its CLI name and the relevant scale parameter."""
    if name == "pure-delta":
        return PureDelta()
    if name == "sharp-cutoff":
        if cutoff is None:
            raise DomainError("sharp-cutoff requires a cutoff energy")
        return SharpCutoff(cutoff)
    if name == "gaussian":
        if length is None:
            raise DomainError("gaussian requires a smearing length")
        return GaussianFormFactor(length)
    raise DomainError(f"unknown regulator {name!r}; expected one of {REGULATOR_NAMES}")


def regulator_name(reg: Regulator) -> str:
    if isinstance(reg, PureDelta):
        return "pure-delta"
    if isinstance(reg, SharpCutoff):
        return "sharp-cutoff"
    return "gaussian"


def nominal_cutoff(reg: Regulator, scales: PhysicalScales = NATURAL_UNITS) -> float:
    """The energy scale at which the regulator suppresses the form factor.

    Exact for the sharp cutoff; kinetic_constant/length^2 for smeared
    regulators (their effective cutoff differs from this by the O(1) factor
    the model cannot fix).
    """
    if isinstance(reg, SharpCutoff):
        return reg.cutoff
    if isinstance(reg, GaussianFormFactor):
        return scales.kinetic_constant / reg.length**2
    raise UnsupportedRegulatorError("the pure delta carries no scale")


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


def _gaussian_resolvent(reg: GaussianFormFactor, z: ComplexEnergy, kappa: float) -> complex:
    b = reg.length**2 / kappa
    pref = 1.0 / (4.0 * math.pi * kappa)
    if z.boundary:
        # Sokhotski limit on the continuum: e^{-bE} (Ei(bE) - i pi)
        x = b * z.re
        return pref * complex(expi_scaled(x), -math.pi * math.exp(-x))
    # g(z) = -e^{-bz} E1(-bz); evaluate through the scaled E1 so the negative
    # axis never overflows: g = -(e^{w} E1(w)) with w = -b z
    w = -b * z.z
    return -pref * exp1_scaled(w)


def resolvent_element(reg: Regulator, z, scales: PhysicalScales = NATURAL_UNITS) -> complex:
    """g(z) = Int_0^inf Q(E) dE / (z - E) in closed form.

    Diverges for the pure delta (raises DivergenceError): with Q constant the
    integral grows logarithmically at large E for every z in the upper half
    plane.  Boundary values follow the limit-from-above branch policy.
    """
    ze = as_energy(z)
    kappa = scales.kinetic_constant
    if isinstance(reg, PureDelta):
        raise DivergenceError(
            "the unregulated resolvent element |g(z)| is infinite for every "
            "upper-half-plane z; only differences g(z) - g(z0) are finite"
        )
    if ze.is_zero:
        raise SingularInputError("g(z) is singular at z = 0 (continuum endpoint)")
    if isinstance(reg, SharpCutoff):
        if ze.im == 0.0 and ze.re == reg.cutoff:
            raise SingularInputError("g(z) is singular at the cutoff edge z = Lambda")
        shifted = ComplexEnergy(ze.re - reg.cutoff, ze.im)
        return principal_log_ratio(ze, shifted) / (4.0 * math.pi * kappa)
    return _gaussian_resolvent(reg, ze, kappa)


def dimensionless_resolvent(reg: Regulator, z, scales: PhysicalScales = NATURAL_UNITS) -> complex:
    """kinetic_constant * g(z): the dimensionless integral whose value shifts
    the inverse coupling.  For the sharp cutoff in the scaling regime this
    approaches ln(-z/Lambda)/(4 pi)."""
    return scales.kinetic_constant * resolvent_element(reg, z, scales)


def resolvent_derivative(reg: Regulator, energy: float, scales: PhysicalScales = NATURAL_UNITS) -> float:
    """d/dE of the dimensionless resolvent along the negative real axis,
    i.e. J'(E) with J(E) = kappa*g(-E).  Used for pole residues."""
    if not (energy > 0.0):
        raise DomainError(f"derivative requires E > 0, got {energy}")
    kappa = scales.kinetic_constant
    if isinstance(reg, SharpCutoff):
        return (1.0 / energy - 1.0 / (energy + reg.cutoff)) / (4.0 * math.pi)
    if isinstance(reg, GaussianFormFactor):
        b = reg.length**2 / kappa
        x = b * energy
        # d/dE [-(1/4pi) e^{x} E1(x)] = -(b/4pi) (e^{x} E1(x) - 1/x)
        return -(b / (4.0 * math.pi)) * (exp1_scaled(x).real - 1.0 / x)
    raise UnsupportedRegulatorError("resolvent derivative defined for sharp-cutoff and gaussian only")


def slide_kernel(reg: Regulator, z, z0, scales: PhysicalScales = NATURAL_UNITS) -> complex:
    """Sliding kernel g(z) - g(z0) that transports the amplitude between
    energy scales.

    For the pure delta the divergences cancel in the difference and the
    kernel is exactly ln(z/z0)/(4 pi kinetic_constant); the regulated kernels
    converge to it as the regulator is removed.
    """
    ze = as_energy(z)
    z0e = as_energy(z0)
    if isinstance(reg, PureDelta):
        if ze.is_zero or z0e.is_zero:
            raise SingularInputError("sliding kernel is singular at z = 0")
        return principal_log_ratio(ze, z0e) / (4.0 * math.pi * scales.kinetic_constant)
    # coincident regular points cancel exactly; coincident singular points
    # raise from resolvent_element
    return resolvent_element(reg, ze, scales) - resolvent_element(reg, z0e, scales)
