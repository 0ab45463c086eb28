"""The dimensionless scattering amplitude tau(z) in all three regimes.

With the attractive contact coupling eps > 0 and the dimensionless resolvent
integral I(z) = kinetic_constant * g(z), the amplitude at a fixed energy is

    tau(z) = -eps / (1 + eps * I(z)).

For the unregulated interaction |I(z)| is infinite at every upper-half-plane
point, so tau(z) = 0 identically: the model neither scatters nor binds.
That exact zero is a reachable, tested code path here (an Amplitude carrying
``exact_zero``), not an exception.

For a regulated interaction the amplitude is finite and obeys the exact
sliding relation

    1/tau(z) = 1/tau(z0) - kappa * G(z, z0),
    kappa * G(z, z0) -> ln(z/z0) / (4 pi)    as the regulator is removed,

a one-parameter group in the energy scale.  Choosing eps and a cutoff Lambda
so that 1 + eps*I(-E_B) = 0 places a bound-state pole at -E_B; eliminating
(eps, Lambda) for E_B gives the renormalized closed form

    tau(z) = 4 pi / ln(-E_B / z),

whose scale E_B is inherited entirely from the regulator: the limit
Lambda -> inf, eps -> 0+ with Lambda e^{-4 pi/eps} held fixed reproduces it
for any chosen E_B.  Both limiting processes are implemented as schedule
scans below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .energy_plane import (
    NATURAL_UNITS,
    ComplexEnergy,
    PhysicalScales,
    as_energy,
    log_bracket_root,
    principal_log_ratio,
)
from .errors import (
    DivergenceError,
    DomainError,
    NoBoundStateError,
    PoleSingularityError,
)
from .regulators import (
    PureDelta,
    Regulator,
    SharpCutoff,
    dimensionless_resolvent,
    form_factor_squared,
    nominal_cutoff,
    resolvent_derivative,
    slide_kernel,
)
from .tolerances import POLE_GUARD

__all__ = [
    "Amplitude",
    "FlowPoint",
    "BoundState",
    "TransmutationStep",
    "ZERO_AMPLITUDE",
    "regulated_amplitude",
    "on_shell_amplitude",
    "slide_amplitude",
    "renormalized_amplitude",
    "bound_state_pole",
    "amplitudes_over_cutoffs",
    "transmutation_schedule",
    "cutoff_envelope",
]


@dataclass(frozen=True)
class Amplitude:
    """Dimensionless complex amplitude.

    ``exact_zero`` marks the rigorous unregulated result tau = 0 (a
    structural zero, not a numerically small value).
    """

    tau: complex
    exact_zero: bool = False

    def __complex__(self) -> complex:
        return self.tau

    @property
    def inverse(self) -> complex:
        if self.tau == 0:
            raise DomainError("1/tau undefined for the zero amplitude")
        return 1.0 / self.tau


ZERO_AMPLITUDE = Amplitude(0.0 + 0.0j, exact_zero=True)


@dataclass(frozen=True)
class FlowPoint:
    """Anchor (z0, tau(z0)) for the sliding relation."""

    z0: ComplexEnergy
    tau0: Amplitude

    def __post_init__(self):
        if not isinstance(self.z0, ComplexEnergy):
            object.__setattr__(self, "z0", as_energy(self.z0))
        if not isinstance(self.tau0, Amplitude):
            object.__setattr__(self, "tau0", Amplitude(complex(self.tau0)))


@dataclass(frozen=True)
class BoundState:
    """Pole of tau on the negative real axis at z = -energy, with the residue
    of tau there (4 pi * energy in the renormalized limit)."""

    energy: float
    residue: float


@dataclass(frozen=True)
class TransmutationStep:
    """One step of the renormalization limiting process."""

    index: int
    cutoff: float
    coupling: float
    amplitude: Amplitude
    deviation: float


def _check_coupling(epsilon: float) -> None:
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise DomainError(f"coupling must be positive (attractive), got {epsilon}")


def regulated_amplitude(
    epsilon: float,
    reg: Regulator,
    z,
    scales: PhysicalScales = NATURAL_UNITS,
) -> Amplitude:
    """tau(z) = -eps / (1 + eps*I(z)) for a regulated interaction.

    The pure delta returns the exact zero amplitude: its divergent I is
    surfaced by the resolvent and consumed here, which is the content of the
    no-scattering theorem rather than an error condition.
    """
    _check_coupling(epsilon)
    ze = as_energy(z)
    try:
        resolvent = dimensionless_resolvent(reg, ze, scales)
    except DivergenceError:
        return ZERO_AMPLITUDE
    denom = 1.0 + epsilon * resolvent
    if abs(denom) < POLE_GUARD:
        pole = _closed_form_pole(epsilon, reg)
        raise PoleSingularityError(
            f"amplitude evaluated at a bound-state pole (|1 + eps*I| = {abs(denom):.3e})",
            pole_energy=None if pole is None else -pole,
        )
    return Amplitude(-epsilon / denom)


def on_shell_amplitude(
    epsilon: float,
    reg: Regulator,
    energy: float,
    scales: PhysicalScales = NATURAL_UNITS,
) -> Amplitude:
    """Physical on-shell amplitude at continuum energy E.

    The scattering matrix element carries the form factor at the on-shell
    wavenumber on both sides, tau_on(E) = |<k(E)|v>|^2 tau(E + i0+), which is
    what elastic unitarity constrains.  For the sharp cutoff below Lambda
    this is tau itself; above Lambda the model has no phase space and the
    on-shell amplitude vanishes.
    """
    if not (energy > 0.0):
        raise DomainError(f"on-shell amplitude requires E > 0, got {energy}")
    if isinstance(reg, PureDelta):
        return ZERO_AMPLITUDE
    weight = form_factor_squared(reg, math.sqrt(energy / scales.kinetic_constant), scales)
    if weight == 0.0:
        return Amplitude(0.0 + 0.0j)
    base = regulated_amplitude(epsilon, reg, ComplexEnergy.continuum(energy), scales)
    return Amplitude(base.tau * weight, base.exact_zero)


def slide_amplitude(
    anchor: FlowPoint,
    z,
    reg: Regulator = PureDelta(),
    scales: PhysicalScales = NATURAL_UNITS,
) -> Amplitude:
    """Transport the amplitude from the anchor scale z0 to z:

        tau(z) = tau(z0) / (1 - tau(z0) * kappa * G(z, z0)).

    Zero is a fixed point of the flow; the pure-delta kernel makes this the
    exact logarithmic running.
    """
    ze = as_energy(z)
    tau0 = anchor.tau0.tau
    if tau0 == 0:
        return Amplitude(0.0 + 0.0j, exact_zero=anchor.tau0.exact_zero)
    kernel = scales.kinetic_constant * slide_kernel(reg, ze, anchor.z0, scales)
    denom = 1.0 - tau0 * kernel
    if abs(denom) < POLE_GUARD * (1.0 + abs(tau0 * kernel)):
        pole: complex | None = None
        if isinstance(reg, PureDelta):
            pole = anchor.z0.z * cmath.exp(4.0 * math.pi / tau0)
        raise PoleSingularityError(
            "sliding denominator vanished: target energy sits on the amplitude pole",
            pole_energy=pole,
        )
    return Amplitude(tau0 / denom)


def renormalized_amplitude(bound_energy: float, z) -> Amplitude:
    """Closed-form amplitude with a bound-state pole at z = -bound_energy:

        tau(z) = 4 pi / ln(-E_B / z),

    with -E_B read as the limit from above (argument pi).  Dimensionless and
    scale-free: only the ratio z/E_B enters.
    """
    if not (bound_energy > 0.0) or not math.isfinite(bound_energy):
        raise DomainError(f"bound-state energy must be positive, got {bound_energy}")
    ze = as_energy(z)
    log_ratio = principal_log_ratio(ComplexEnergy(-bound_energy, 0.0), ze)
    if abs(log_ratio) < POLE_GUARD:
        raise PoleSingularityError(
            "renormalized amplitude evaluated at its bound-state pole",
            pole_energy=-bound_energy,
        )
    return Amplitude(4.0 * math.pi / log_ratio)


def _closed_form_pole(epsilon: float, reg: Regulator) -> float | None:
    """Exact pole energy where available (sharp cutoff)."""
    if isinstance(reg, SharpCutoff):
        x = 4.0 * math.pi / epsilon
        if x < 700.0:
            return reg.cutoff / math.expm1(x)
    return None


def bound_state_pole(
    epsilon: float,
    reg: Regulator,
    scales: PhysicalScales = NATURAL_UNITS,
) -> BoundState:
    """Locate the bound state: the root of 1 + eps*I(-E) = 0 on the negative
    real axis (limit from above).

    The root is searched by log_bracket_root in ln E, between the nominal
    cutoff Lambda and Lambda*1e-300; E_B spans hundreds of orders of
    magnitude in eps, and log coordinates keep the conditioning uniform.
    For the sharp cutoff the solution is Lambda / (e^{4 pi/eps} - 1), i.e.
    Lambda e^{-4 pi/eps} up to O(E_B/Lambda).
    """
    _check_coupling(epsilon)
    if isinstance(reg, PureDelta):
        raise NoBoundStateError(
            "the unregulated contact interaction never binds (tau is identically zero)",
            exact=True,
        )

    def mismatch(x: float) -> float:
        value = dimensionless_resolvent(reg, ComplexEnergy(-math.exp(x), 0.0), scales)
        return 1.0 + epsilon * value.real

    lam = nominal_cutoff(reg, scales)
    energy = math.exp(log_bracket_root(mismatch, lam, math.log(lam)))
    residue = 1.0 / resolvent_derivative(reg, energy, scales)
    return BoundState(energy=energy, residue=residue)


def amplitudes_over_cutoffs(
    epsilon: float,
    z,
    cutoffs,
    scales: PhysicalScales = NATURAL_UNITS,
) -> list[Amplitude]:
    """Sharp-cutoff amplitude tau_Lambda(z) along an increasing cutoff
    schedule: the constructive view of the no-scattering theorem.

    |tau_Lambda(z)| peaks where the generated bound state sweeps past |z|
    (Lambda ~ |z| e^{4 pi/eps}) and then falls like 4 pi / ln(Lambda/|z|),
    which the rigorous envelope

        |tau_Lambda(z)| <= 4 pi / (ln[(Lambda - |z|)/|z|] - 4 pi/eps)

    makes quantitative beyond the peak.  The Lambda -> inf limit is zero.
    """
    _check_coupling(epsilon)
    ze = as_energy(z)
    magnitude = ze.magnitude()
    cutoffs = list(cutoffs)
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise DomainError("cutoff schedule must be strictly increasing")
    out = []
    for lam in cutoffs:
        if lam <= magnitude:
            raise DomainError(f"cutoff {lam} must exceed |z| = {magnitude}")
        out.append(regulated_amplitude(epsilon, SharpCutoff(lam), ze, scales))
    return out


def transmutation_schedule(
    bound_energy: float,
    z,
    steps: int,
    scales: PhysicalScales = NATURAL_UNITS,
) -> list[TransmutationStep]:
    """The renormalization limiting process at fixed target E_B:

        Lambda_n = E_B * 10^n,   eps_n = 4 pi / ln(Lambda_n / E_B),

    so that Lambda_n e^{-4 pi/eps_n} = E_B at every step while eps_n -> 0 and
    Lambda_n -> inf.  Reports the regulated amplitude and its deviation from
    the renormalized closed form per step; the deviation falls like
    E_B/Lambda_n, one decade per step.
    """
    if not (bound_energy > 0.0):
        raise DomainError(f"bound-state energy must be positive, got {bound_energy}")
    if steps < 2:
        raise DomainError("transmutation schedule needs at least 2 steps")
    ze = as_energy(z)
    target = renormalized_amplitude(bound_energy, ze)
    out = []
    for n in range(1, steps + 1):
        lam = bound_energy * 10.0**n
        eps_n = 4.0 * math.pi / (n * math.log(10.0))
        amp = regulated_amplitude(eps_n, SharpCutoff(lam), ze, scales)
        out.append(
            TransmutationStep(
                index=n,
                cutoff=lam,
                coupling=eps_n,
                amplitude=amp,
                deviation=abs(amp.tau - target.tau),
            )
        )
    return out


def cutoff_envelope(epsilon: float, magnitude: float, lam: float) -> float | None:
    """Rigorous bound on |tau_Lambda(z)| beyond the resonance region, from
    |1/tau| >= |Re(1/eps + I)|; None where the bound is vacuous."""
    if lam <= magnitude:
        return None
    shifted = math.log((lam - magnitude) / magnitude) - 4.0 * math.pi / epsilon
    if shifted <= 0.0:
        return None
    return 4.0 * math.pi / shifted
