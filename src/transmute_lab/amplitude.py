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

The *_array functions evaluate tau over numpy arrays for whole tables: the
renormalized form, the sharp cutoff and the pure delta in closed form, the
gaussian through the array forms of E1 and Ei.  The scalar functions stay
the reference they are tested against.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .energy_plane import (
    NATURAL_UNITS,
    ComplexEnergy,
    PhysicalScales,
    as_energy,
    complex_divide_array,
    log_bracket_root,
    log_search_floor,
    principal_log_ratio,
    principal_log_ratio_array,
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
    gaussian_resolvent_array,
    nominal_cutoff,
    resolvent_derivative,
    sharp_resolvent_array,
    slide_kernel,
)
from .special import EULER_GAMMA
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
    "renormalized_amplitude_array",
    "sharp_amplitude_array",
    "on_shell_amplitude_array",
    "cutoff_envelope_array",
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


def _sharp_log_pole(epsilon: float, cutoff: float) -> float:
    """ln E of the exact sharp-cutoff pole Lambda / expm1(4 pi/eps), as
    ln Lambda - ln expm1(4 pi/eps) with ln expm1(t) = t + ln(1 - e^{-t}):
    finite for every coupling, where expm1 itself overflows below eps ~ 0.018."""
    t = 4.0 * math.pi / epsilon
    return math.log(cutoff) - (t + math.log(-math.expm1(-t)))


def _closed_form_pole(epsilon: float, reg: Regulator) -> float | None:
    """Exact pole energy where available (sharp cutoff)."""
    if isinstance(reg, SharpCutoff):
        return math.exp(_sharp_log_pole(epsilon, reg.cutoff))
    return None


def bound_state_pole(
    epsilon: float,
    reg: Regulator,
    scales: PhysicalScales = NATURAL_UNITS,
) -> BoundState:
    """Locate the bound state: the root of 1 + eps*I(-E) = 0 on the negative
    real axis (limit from above).

    E_B spans hundreds of orders of magnitude in eps, so the root is sought
    in ln E, between the nominal cutoff Lambda and the floor of
    log_search_floor (Lambda*1e-300, never below the smallest normal
    double); a root outside that range raises NoBoundStateError(exact=False).
    For the sharp cutoff the root is exact, E_B = Lambda / (e^{4 pi/eps} - 1),
    i.e. Lambda e^{-4 pi/eps} up to O(E_B/Lambda), and nothing is searched.
    The gaussian root is bracketed around its small-coupling asymptote
    ln E_B = ln(kappa/a^2) - gamma_E - 4 pi/eps and refined by
    log_bracket_root.
    """
    _check_coupling(epsilon)
    if isinstance(reg, PureDelta):
        raise NoBoundStateError(
            "the unregulated contact interaction never binds (tau is identically zero)",
            exact=True,
        )
    lam = nominal_cutoff(reg, scales)
    x_top = math.log(lam)
    if isinstance(reg, SharpCutoff):
        x_root = _sharp_log_pole(epsilon, reg.cutoff)
        if not log_search_floor(lam) <= x_root <= x_top:
            raise NoBoundStateError("bound state lies outside [Lambda*1e-300, Lambda]", exact=False)
    else:
        def mismatch(x: float) -> float:
            value = dimensionless_resolvent(reg, ComplexEnergy(-math.exp(x), 0.0), scales)
            return 1.0 + epsilon * value.real

        # the bracket [guess - 2, guess + 2], then brackets twice as wide
        # below it; log_bracket_root checks the top first, so a root above
        # guess + 2 is bracketed from there
        guess = x_top - EULER_GAMMA - 4.0 * math.pi / epsilon
        scan = (guess + 6.0 - 2.0**k for k in itertools.count(2))
        x_root = log_bracket_root(mismatch, lam, x_top, scan)
    energy = math.exp(x_root)
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
    ratio = (lam - magnitude) / magnitude
    # where the ratio overflows, its log from the logs of its terms
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(lam - magnitude) - math.log(magnitude)
    shifted = log_ratio - 4.0 * math.pi / epsilon
    if shifted <= 0.0:
        return None
    return 4.0 * math.pi / shifted


def renormalized_amplitude_array(bound_energy: float, re, im=0.0) -> np.ndarray:
    """renormalized_amplitude elementwise over arrays of Re z and Im z."""
    if not (bound_energy > 0.0) or not math.isfinite(bound_energy):
        raise DomainError(f"bound-state energy must be positive, got {bound_energy}")
    log_ratio = principal_log_ratio_array(-bound_energy, 0.0, re, im)
    if (np.hypot(log_ratio.real, log_ratio.imag) < POLE_GUARD).any():
        raise PoleSingularityError(
            "renormalized amplitude evaluated at its bound-state pole",
            pole_energy=-bound_energy,
        )
    return complex_divide_array(4.0 * math.pi, log_ratio)


def sharp_amplitude_array(
    epsilon: float,
    cutoff,
    re,
    im,
    scales: PhysicalScales = NATURAL_UNITS,
) -> np.ndarray:
    """regulated_amplitude of the sharp cutoff, tau = -eps / (1 + eps*I(z)),
    elementwise over broadcastable arrays of cutoffs and of Re z, Im z: a
    cutoff schedule at one z, or one cutoff over an energy grid."""
    _check_coupling(epsilon)
    resolvent = scales.kinetic_constant * sharp_resolvent_array(cutoff, re, im, scales)

    def pole_energy(i: int) -> float:
        return -_closed_form_pole(epsilon, SharpCutoff(float(np.broadcast_to(cutoff, resolvent.shape).flat[i])))

    return _tau_array(epsilon, resolvent, pole_energy)


def _tau_array(epsilon: float, resolvent: np.ndarray, pole_energy) -> np.ndarray:
    """tau = -eps / (1 + eps*I) over an array of dimensionless resolvents I,
    raising as regulated_amplitude does at the first row on a pole, with
    pole_energy(row) as the pole it names."""
    denom = 1.0 + epsilon * resolvent
    at_pole = np.hypot(denom.real, denom.imag) < POLE_GUARD
    if at_pole.any():
        i = int(np.argmax(at_pole))
        raise PoleSingularityError(
            f"amplitude evaluated at a bound-state pole (|1 + eps*I| = {abs(denom.flat[i]):.3e})",
            pole_energy=pole_energy(i),
        )
    return complex_divide_array(-epsilon, denom)


def on_shell_amplitude_array(
    epsilon: float,
    reg: Regulator,
    energies,
    scales: PhysicalScales = NATURAL_UNITS,
) -> np.ndarray:
    """on_shell_amplitude elementwise over an array of continuum energies."""
    energies = np.asarray(energies, dtype=float)
    if not (energies > 0.0).all():
        raise DomainError(f"on-shell amplitude requires E > 0, got {energies[~(energies > 0.0)][0]}")
    if isinstance(reg, PureDelta):
        return np.zeros(energies.shape, dtype=complex)
    # the on-shell weight of form_factor_squared, with k = sqrt(E/kappa)
    # rounded as there: kappa k^2 <= Lambda, or exp(-(k a)^2)
    kappa = scales.kinetic_constant
    k = np.sqrt(energies / kappa)
    tau = np.zeros(energies.shape, dtype=complex)
    if isinstance(reg, SharpCutoff):
        inside = kappa * k * k <= reg.cutoff
        if inside.any():
            tau[inside] = sharp_amplitude_array(epsilon, reg.cutoff, energies[inside], 0.0, scales)
        return tau
    weight = np.exp(-(k * reg.length) ** 2)
    inside = weight != 0.0
    if inside.any():
        _check_coupling(epsilon)
        resolvent = kappa * gaussian_resolvent_array(reg.length, energies[inside], 0.0, scales)
        base = _tau_array(epsilon, resolvent, lambda i: None)
        # tau * weight, as a complex times a float
        tau.real[inside], tau.imag[inside] = base.real * weight[inside], base.imag * weight[inside]
    return tau


def cutoff_envelope_array(epsilon: float, magnitude: float, cutoffs) -> np.ndarray:
    """cutoff_envelope elementwise over an array of cutoffs, with NaN where
    the bound is vacuous (None in the scalar form)."""
    cutoffs = np.asarray(cutoffs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = (cutoffs - magnitude) / magnitude
        log_ratio = np.log(ratio)
        overflow = np.isposinf(ratio)
        if overflow.any():
            # Lambda/|z| beyond the double range: the log from the logs of
            # its terms, as in cutoff_envelope
            log_ratio[overflow] = np.log(cutoffs[overflow] - magnitude) - math.log(magnitude)
        shifted = log_ratio - 4.0 * math.pi / epsilon
        bound = 4.0 * math.pi / shifted
    return np.where((cutoffs > magnitude) & (shifted > 0.0), bound, np.nan)
