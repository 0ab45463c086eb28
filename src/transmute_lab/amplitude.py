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

Each closed form has one implementation, an *_array function over numpy
arrays of couplings, cutoffs and energies; regulated_amplitude and
renormalized_amplitude are its 0-d calls.  Each limiting process is one
array function that checks its schedule (DomainError) before it evaluates
its columns: amplitudes_over_cutoffs_array and transmutation_schedule_array,
whose rows amplitudes_over_cutoffs and transmutation_schedule return as
objects.  Each model of scatter and bind, a regulator or the circular well
as its radius, has one dispatch: on_shell_amplitude_array on the continuum,
bound_states over a column of couplings (bound_state_pole for one).
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
    libm,
    log_bracket_root,
    log_ratio_array,
    log_search_floor,
    principal_log_ratio_array,
)
from .errors import (
    DivergenceError,
    DomainError,
    NoBoundStateError,
    PoleSingularityError,
    SingularInputError,
)
from .regulators import (
    GaussianFormFactor,
    PureDelta,
    Regulator,
    SharpCutoff,
    resolvent_array,
    resolvent_derivative,
    slide_kernel,
)
from .oracle.well import well_bound_states, well_depths, well_from_coupling, well_phase_shift_array
from .special import EULER_GAMMA, exp1_scaled_positive
from .tolerances import POLE_GUARD

__all__ = [
    "Amplitude",
    "FlowPoint",
    "BoundState",
    "TransmutationStep",
    "ZERO_AMPLITUDE",
    "regulated_amplitude",
    "slide_amplitude",
    "renormalized_amplitude",
    "bound_state_pole",
    "bound_states",
    "amplitudes_over_cutoffs",
    "amplitudes_over_cutoffs_array",
    "transmutation_schedule",
    "transmutation_schedule_array",
    "renormalized_amplitude_array",
    "regulated_amplitude_array",
    "on_shell_amplitude_array",
    "cutoff_envelope_array",
    "tau_from_phase_shift",
    "tau_from_phase_shift_array",
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
    """One step of the renormalization limiting process: the regulated
    amplitude and its deviation |tau_n - closed_form| from the renormalized
    closed form 4 pi / ln(-E_B/z), which every step shares."""

    index: int
    cutoff: float
    coupling: float
    amplitude: Amplitude
    deviation: float
    closed_form: complex


def _check_coupling(epsilon) -> None:
    """Couplings, a float or an array, must be positive and finite."""
    eps = np.asarray(epsilon, dtype=float)
    bad = ~((eps > 0.0) & np.isfinite(eps))
    if bad.any():
        raise DomainError(f"coupling must be positive (attractive), got {eps[bad][0]}")


def regulated_amplitude(
    epsilon: float,
    reg: Regulator,
    z,
    scales: PhysicalScales = NATURAL_UNITS,
) -> Amplitude:
    """tau(z) = -eps / (1 + eps*I(z)) for a regulated interaction: the 0-d
    case of regulated_amplitude_array.  The pure delta returns the exact zero
    amplitude."""
    ze = as_energy(z)
    tau = complex(regulated_amplitude_array(epsilon, reg, [ze.re], [ze.im], scales)[0])
    return ZERO_AMPLITUDE if isinstance(reg, PureDelta) else Amplitude(tau)


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
    """Closed-form amplitude 4 pi / ln(-E_B / z) at one point: the 0-d case
    of renormalized_amplitude_array."""
    ze = as_energy(z)
    return Amplitude(complex(renormalized_amplitude_array(bound_energy, [ze.re], [ze.im])[0]))


def _sharp_log_pole(epsilon: float, cutoff: float) -> float:
    """ln E of the exact sharp-cutoff pole Lambda / expm1(4 pi/eps), as
    ln Lambda - ln expm1(4 pi/eps) with ln expm1(t) = t + ln(1 - e^{-t}):
    finite for every coupling, where expm1 itself overflows below eps ~ 0.018."""
    t = 4.0 * math.pi / epsilon
    return math.log(cutoff) - (t + math.log(-math.expm1(-t)))


def bound_states(epsilon, model, scales: PhysicalScales = NATURAL_UNITS) -> tuple:
    """The bound states over a 1-d array of couplings for one model of bind:
    a regulator, or the radius a of the circular well as a float.  Returns
    an array of E_B, NaN in the rows of the mask returned second, which have
    none in the search range, and the nominal cutoff Lambda_nominal of the
    closed form Lambda_nominal e^{-4 pi/eps}: Lambda for the sharp cutoff,
    kappa/a^2 for the gaussian and for the well (that of a gaussian of the
    same length), and NaN for the pure delta, which never binds.  This is
    the one dispatch on the model of the bound-state path.

    For a regulator E_B is the root of 1 + eps*I(-E) = 0 on the negative
    real axis (limit from above).  E_B spans hundreds of orders of magnitude
    in eps, so the root is sought in ln E, between Lambda_nominal and the
    floor of log_search_floor (Lambda_nominal*1e-300, never below the
    smallest normal double); a row whose root lies outside has none.  For
    the sharp cutoff the root is exact, E_B = Lambda / (e^{4 pi/eps} - 1),
    i.e. Lambda e^{-4 pi/eps} up to O(E_B/Lambda), and nothing is searched.
    The gaussian roots are searched by log_bracket_root from the
    small-coupling asymptote ln E_B = ln(kappa/a^2) - gamma_E - 4 pi/eps,
    Newton's method on 1 + eps*J(E) and its slope eps*(bE*J + 1/(4 pi)) in
    ln E.  The well's ground states are oracle.well.well_bound_states' at
    the depths of well_depths, whose matching function, range and guess
    stay with the well.
    """
    eps = np.asarray(epsilon, dtype=float)
    _check_coupling(eps)
    if isinstance(model, PureDelta):
        nan = np.full(eps.shape, np.nan)
        return nan, np.isnan(nan), math.nan
    if isinstance(model, SharpCutoff):
        nominal = model.cutoff
        x_root = np.array([_sharp_log_pole(e, nominal) for e in eps.tolist()])
        x_root[~((log_search_floor(nominal) <= x_root) & (x_root <= math.log(nominal)))] = np.nan
        energy = libm(math.exp, x_root)
    elif isinstance(model, GaussianFormFactor):
        nominal = scales.kinetic_constant / model.length**2
        x_floor, x_top = log_search_floor(nominal), math.log(nominal)
        b = model.length**2 / scales.kinetic_constant

        def mismatch(index, x):
            # 1 + eps*J with J = kappa g(-E) = -e^{bE} E1(bE)/(4 pi), and its
            # slope in ln E, eps*(bE*J + 1/(4 pi)); every bE of the range is
            # positive, so no step checks its column
            be, e = b * np.exp(x), eps[index]
            j = (-1.0 / (4.0 * math.pi)) * exp1_scaled_positive(be)
            return 1.0 + e * j, e * (be * j + 1.0 / (4.0 * math.pi))

        energy = libm(math.exp, log_bracket_root(mismatch, x_floor, x_top, x_top - EULER_GAMMA - 4.0 * math.pi / eps))
    else:
        # the circular well of radius model
        nominal = scales.kinetic_constant / model**2
        energy = well_bound_states(model, well_depths(eps, model, scales), scales)[0]
    return energy, np.isnan(energy), nominal


def bound_state_pole(epsilon: float, reg: Regulator, scales: PhysicalScales = NATURAL_UNITS) -> BoundState:
    """The bound state at one coupling, the one-element call of bound_states,
    with the residue 1/J'(E_B) of resolvent_derivative; NoBoundStateError
    where it has none, exact for the pure delta, which never binds (the one
    model without a nominal cutoff)."""
    energy, unbound, nominal = bound_states([epsilon], reg, scales)
    if math.isnan(nominal):
        raise NoBoundStateError("the unregulated contact interaction never binds (tau is identically zero)", exact=True)
    if unbound[0]:
        raise NoBoundStateError("no bound state within [Lambda*1e-300, Lambda]", exact=False)
    return BoundState(energy=float(energy[0]), residue=float(1.0 / resolvent_derivative(reg, energy, scales)[0]))


def amplitudes_over_cutoffs(epsilon: float, z, cutoffs, scales: PhysicalScales = NATURAL_UNITS) -> list[Amplitude]:
    """amplitudes_over_cutoffs_array as Amplitude objects, over any iterable of cutoffs."""
    return [Amplitude(t) for t in amplitudes_over_cutoffs_array(epsilon, z, list(cutoffs), scales).tolist()]


def amplitudes_over_cutoffs_array(epsilon: float, z, cutoffs, scales: PhysicalScales = NATURAL_UNITS) -> np.ndarray:
    """Sharp-cutoff amplitude tau_Lambda(z) along a cutoff schedule, an
    array that must be strictly increasing, finite and above |z|: the
    constructive view of the no-scattering theorem.

    |tau_Lambda(z)| peaks where the generated bound state sweeps past |z|
    (Lambda ~ |z| e^{4 pi/eps}) and then falls like 4 pi / ln(Lambda/|z|),
    which the rigorous envelope

        |tau_Lambda(z)| <= 4 pi / (ln[(Lambda - |z|)/|z|] - 4 pi/eps)

    makes quantitative beyond the peak.  The Lambda -> inf limit is zero.
    """
    ze = as_energy(z)
    magnitude = ze.magnitude()
    cutoffs = np.asarray(cutoffs, dtype=float)
    if (cutoffs[1:] <= cutoffs[:-1]).any():
        raise DomainError("cutoff schedule must be strictly increasing")
    bad = ~((cutoffs > magnitude) & np.isfinite(cutoffs))
    if bad.any():
        raise DomainError(f"cutoff {cutoffs[bad][0]} must be finite and exceed |z| = {magnitude}")
    return regulated_amplitude_array(epsilon, cutoffs, ze.re, ze.im, scales)


def transmutation_schedule(bound_energy: float, z, steps: int,
                           scales: PhysicalScales = NATURAL_UNITS) -> list[TransmutationStep]:
    """The rows of transmutation_schedule_array as TransmutationStep objects."""
    n, cutoffs, couplings, tau, deviations, target = transmutation_schedule_array(bound_energy, z, steps, scales)
    rows = zip(n.tolist(), cutoffs.tolist(), couplings.tolist(), map(Amplitude, tau.tolist()), deviations.tolist())
    return [TransmutationStep(*row, closed_form=target) for row in rows]


def _decade_cutoff(bound_energy: float, n: int) -> float:
    """E_B * 10.0**n by libm pow where 10^n is a double (n <= 308), else the
    product rounded once; inf on overflow, as for every E_B > 0 at n >= 632."""
    if n <= 308:
        return bound_energy * 10.0**n
    numerator, denominator = bound_energy.as_integer_ratio()
    try:
        return numerator * 10**n / denominator if n < 632 else math.inf
    except OverflowError:
        return math.inf


def transmutation_schedule_array(bound_energy: float, z, steps: int, scales: PhysicalScales = NATURAL_UNITS) -> tuple:
    """The renormalization limiting process at fixed target E_B:

        Lambda_n = E_B * 10^n,   eps_n = 4 pi / ln(Lambda_n / E_B),

    so that Lambda_n e^{-4 pi/eps_n} = E_B at every step while eps_n -> 0 and
    Lambda_n -> inf.  Returns the columns n = 1..steps, Lambda_n, eps_n, the
    regulated tau_n at z and |tau_n - tau_inf|, and the renormalized closed
    form tau_inf = 4 pi / ln(-E_B/z); the deviation falls like E_B/Lambda_n,
    one decade per step.  Needs E_B > 0, steps >= 2 and a finite Lambda_n.
    """
    ze = as_energy(z)
    target = renormalized_amplitude(bound_energy, ze).tau
    if steps < 2:
        raise DomainError("transmutation schedule needs at least 2 steps")
    # the cutoffs rise with n, so the last is checked before any is formed
    if _decade_cutoff(bound_energy, steps) == math.inf:
        raise DomainError(f"the last cutoff E_B * 10**{steps} overflows")
    n = np.arange(1, steps + 1)
    cutoffs = np.fromiter(map(_decade_cutoff, itertools.repeat(bound_energy), range(1, steps + 1)), np.float64, steps)
    couplings = 4.0 * math.pi / (n * math.log(10.0))
    tau = regulated_amplitude_array(couplings, cutoffs, ze.re, ze.im, scales)
    # hypot, the C library's, as Python's abs of a complex takes it
    difference = tau - target
    return n, cutoffs, couplings, tau, np.hypot(difference.real, difference.imag), target


def renormalized_amplitude_array(bound_energy: float, re, im=0.0) -> np.ndarray:
    """Closed-form amplitude with a bound-state pole at z = -bound_energy,

        tau(z) = 4 pi / ln(-E_B / z),

    elementwise over arrays of Re z and Im z, with -E_B read as the limit
    from above (argument pi).  Dimensionless and scale-free: only the ratio
    z/E_B enters."""
    if not (bound_energy > 0.0) or not math.isfinite(bound_energy):
        raise DomainError(f"bound-state energy must be positive, got {bound_energy}")
    log_ratio = principal_log_ratio_array(-bound_energy, 0.0, re, im)
    if (np.hypot(log_ratio.real, log_ratio.imag) < POLE_GUARD).any():
        raise PoleSingularityError(
            "renormalized amplitude evaluated at its bound-state pole",
            pole_energy=-bound_energy,
        )
    return complex_divide_array(4.0 * math.pi, log_ratio)


def regulated_amplitude_array(
    epsilon,
    reg,
    re,
    im=0.0,
    scales: PhysicalScales = NATURAL_UNITS,
) -> np.ndarray:
    """tau(z) = -eps / (1 + eps*I(z)) elementwise over broadcastable arrays of
    couplings eps and of Re z, Im z.  reg is a regulator, or an array of
    sharp cutoffs that broadcasts with them, as in resolvent_array: a cutoff
    schedule.

    The pure delta gives zeros: its divergent I is surfaced by the resolvent
    and consumed here, which is the content of the no-scattering theorem
    rather than an error condition.  A row on a pole, |1 + eps*I| <
    POLE_GUARD, raises PoleSingularityError with the pole energy where it is
    exact: -Lambda/expm1(4 pi/eps) for the sharp cutoff.
    """
    _check_coupling(epsilon)
    try:
        resolvent = scales.kinetic_constant * resolvent_array(reg, re, im, scales)
    except DivergenceError:
        return np.zeros(np.broadcast_shapes(np.shape(epsilon), np.shape(re), np.shape(im)), dtype=complex)
    eps = np.asarray(epsilon, dtype=float)
    denom = 1.0 + eps * resolvent
    at_pole = np.hypot(denom.real, denom.imag) < POLE_GUARD
    if at_pole.any():
        i = int(np.argmax(at_pole))
        pole = None
        if not isinstance(reg, GaussianFormFactor):
            cutoff = reg.cutoff if isinstance(reg, SharpCutoff) else reg
            eps_i, lam_i = (float(np.broadcast_to(v, denom.shape).flat[i]) for v in (eps, cutoff))
            pole = -math.exp(_sharp_log_pole(eps_i, lam_i))
        raise PoleSingularityError(
            f"amplitude evaluated at a bound-state pole (|1 + eps*I| = {abs(denom.flat[i]):.3e})",
            pole_energy=pole,
        )
    return complex_divide_array(-eps, denom)


def on_shell_amplitude_array(epsilon: float, model, energies, scales: PhysicalScales = NATURAL_UNITS) -> np.ndarray:
    """Physical on-shell amplitude over an array of continuum energies E for
    one model of scatter: a regulator, or the radius a of the circular well
    as a float.  This is the one dispatch on the model of the continuum.

    The scattering matrix element carries the form factor at the on-shell
    wavenumber on both sides, tau_on(E) = |<k(E)|v>|^2 tau(E + i0+), which is
    what elastic unitarity constrains.  For the sharp cutoff below Lambda
    this is tau itself; above Lambda the model has no phase space and the
    on-shell amplitude vanishes; SingularInputError carries the index of the
    first energy at Lambda.  The well's is tau_from_phase_shift_array of its
    exact phase shifts, at the depth of well_from_coupling.
    """
    energies = np.asarray(energies, dtype=float)
    if not (energies > 0.0).all():
        raise DomainError(f"on-shell amplitude requires E > 0, got {energies[~(energies > 0.0)][0]}")
    tau = np.zeros(energies.shape, dtype=complex)
    if isinstance(model, PureDelta):
        return tau
    # the weight of form_factor_squared, with k = sqrt(E/kappa) rounded as
    # there: kappa k^2 <= Lambda, or exp(-(k a)^2)
    kappa = scales.kinetic_constant
    k = np.sqrt(energies / kappa)
    if isinstance(model, SharpCutoff):
        weight = (kappa * k * k <= model.cutoff).astype(float)
    elif isinstance(model, GaussianFormFactor):
        weight = np.exp(-(k * model.length) ** 2)
    else:
        return tau_from_phase_shift_array(well_phase_shift_array(well_from_coupling(epsilon, model, scales), k, scales))
    inside = weight != 0.0
    if inside.any():
        try:
            base = regulated_amplitude_array(epsilon, model, energies[inside], 0.0, scales)
        except SingularInputError as exc:
            exc.index = int(np.flatnonzero(inside)[exc.index])
            raise
        # tau * weight, as a complex times a float
        tau.real[inside], tau.imag[inside] = base.real * weight[inside], base.imag * weight[inside]
    return tau


def tau_from_phase_shift_array(delta0) -> np.ndarray:
    """Unitary amplitudes -4 e^{i delta0} sin(delta0) elementwise over an
    array of phase shifts."""
    delta0 = np.asarray(delta0, dtype=float)
    return -4.0 * np.exp(1j * delta0) * np.sin(delta0)


def tau_from_phase_shift(delta0: float) -> complex:
    """Unitary amplitude -4 e^{i delta0} sin(delta0): the one-element call of
    tau_from_phase_shift_array."""
    return complex(tau_from_phase_shift_array([delta0])[0])


def cutoff_envelope_array(epsilon: float, magnitude: float, cutoffs) -> np.ndarray:
    """Rigorous bound on |tau_Lambda(z)| beyond the resonance region, from
    |1/tau| >= |Re(1/eps + I)|, elementwise over an array of cutoffs at
    |z| = magnitude: 4 pi / (ln[(Lambda - |z|)/|z|] - 4 pi/eps), and NaN
    where the bound is vacuous."""
    cutoffs = np.asarray(cutoffs, dtype=float)
    above = cutoffs > magnitude
    shifted = log_ratio_array(np.where(above, cutoffs - magnitude, magnitude), magnitude) - 4.0 * math.pi / epsilon
    with np.errstate(divide="ignore"):
        bound = 4.0 * math.pi / shifted
    return np.where(above & (shifted > 0.0), bound, np.nan)
