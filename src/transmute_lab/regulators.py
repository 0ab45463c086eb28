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
form factor, so it is no regulator here: its model type is the oracle's
CircularWell (transmute_lab.oracle.well), solved by Bessel matching.

Closed forms (kappa = kinetic_constant, b = a^2/kappa):

    sharp:     g(z) = ln[z/(z - Lambda)] / (4 pi kappa)
    gaussian:  g(z) = -e^{-b z} E1(-b z) / (4 pi kappa)

Boundary values E + i0+ follow from the branch policy of energy_plane (for
the gaussian this is the limit e^{-bE}(Ei(bE) - i pi) / (4 pi kappa)).

Each regulator type carries its forms as methods, which are the one
dispatch on the regulator: the form factor, the decay amplitude, g(z) over
arrays (the sharp cutoff over one cutoff or a schedule of them, the gaussian
through E1), J'(E) of J(E) = kappa g(-E) on the negative axis, the amplitude
tau = -eps/(1 + eps kappa g) and its on-shell weighting, the sliding kernels,
the bound states with their nominal cutoff, the exact poles and the
quadrature support.  The functions below check their inputs and call them.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .energy_plane import (
    NATURAL_UNITS,
    PhysicalScales,
    as_energy,
    complex_divide_array,
    libm,
    log_bracket_root,
    log_search_floor,
    principal_log_ratio_array,
    scaled_magnitude_array,
)
from .errors import DivergenceError, DomainError, PoleSingularityError, SingularInputError
from .special import EULER_GAMMA, exp1_scaled_array, exp1_scaled_positive, exp1_scaled_real
from .tolerances import POLE_GUARD

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


class Regulator:
    """The forms the regulators share, where g(z) is finite: the pure delta
    overrides them."""

    # the amplitude is the structural zero of the no-scattering theorem
    exact_zero = False

    def amplitude(self, eps, re, im, scales: PhysicalScales):
        """tau = -eps/(1 + eps kappa g) over broadcastable arrays of checked couplings
        and of Re z, Im z; PoleSingularityError at |1 + eps kappa g| < POLE_GUARD."""
        eps = np.asarray(eps, dtype=float)
        denom = 1.0 + eps * (scales.kinetic_constant * resolvent_array(self, re, im, scales))
        at_pole = np.hypot(denom.real, denom.imag) < POLE_GUARD
        if at_pole.any():
            i = int(np.argmax(at_pole))
            raise PoleSingularityError(
                f"amplitude evaluated at a bound-state pole (|1 + eps*I| = {abs(denom.flat[i]):.3e})",
                pole_energy=self.pole_energy(eps, i, denom.shape),
            )
        return complex_divide_array(-eps, denom)

    def on_shell(self, eps: float, energies: np.ndarray, scales: PhysicalScales) -> np.ndarray:
        """|<k(E)|v>|^2 tau(E + i0+) over continuum energies, with k = sqrt(E/kappa);
        SingularInputError carries the index of the first singular energy."""
        tau = np.zeros(energies.shape, dtype=complex)
        weight = self.form_factor_squared(np.sqrt(energies / scales.kinetic_constant), scales.kinetic_constant)
        inside = weight != 0.0
        if inside.any():
            try:
                base = self.amplitude(eps, energies[inside], 0.0, scales)
            except SingularInputError as exc:
                exc.index = int(np.flatnonzero(inside)[exc.index])
                raise
            # tau * weight, as a complex times a float
            tau.real[inside], tau.imag[inside] = base.real * weight[inside], base.imag * weight[inside]
        return tau

    def slide_kernels(self, re: np.ndarray, im: np.ndarray, z0e, scales: PhysicalScales):
        # the anchor rides along as the last point; coincident regular points
        # cancel exactly, and singular ones raise from resolvent_array
        try:
            g = resolvent_array(self, np.append(re, z0e.re), np.append(im, z0e.im), scales)
        except SingularInputError as exc:
            exc.index = None if exc.index == re.size else exc.index
            raise
        g, g0 = g[:-1], g[-1]
        return g - g0, g[1:] - g[:-1]

    # the energy of the amplitude's pole at a flat index of its shape, and
    # that where the sliding denominator from (z0, tau0) vanishes, where exact
    def pole_energy(self, eps: np.ndarray, index: int, shape: tuple):
        return None

    def slide_pole(self, z0: complex, tau0: complex):
        return None

    def support(self) -> float:
        """The upper end of the support of Q(E), for the quadrature."""
        return math.inf


@dataclass(frozen=True)
class PureDelta(Regulator):
    """Unregulated contact interaction, <k|v> = 1 for all k."""

    exact_zero = True

    def form_factor_squared(self, k, kappa: float):
        return np.ones(np.shape(k))

    def decay(self, t: float, kappa: float) -> complex:
        return 1.0 / (4.0 * math.pi * kappa * 1j * t)

    def resolvent(self, re, im, kappa: float):
        raise DivergenceError("the unregulated resolvent element |g(z)| is infinite for every upper-half-plane z; "
                              "only differences g(z) - g(z0) are finite")

    def derivative(self, energy: np.ndarray, kappa: float):
        raise DomainError("the unregulated resolvent is infinite on the negative axis too")

    def amplitude(self, eps, re, im, scales: PhysicalScales):
        # the divergent g makes tau vanish: the no-scattering theorem
        return np.zeros(np.broadcast_shapes(np.shape(eps), np.shape(re), np.shape(im)), dtype=complex)

    def slide_kernels(self, re: np.ndarray, im: np.ndarray, z0e, scales: PhysicalScales):
        # the divergences cancel in the difference: ln(z/z0)/(4 pi kappa)
        zero = np.flatnonzero((re == 0.0) & (im == 0.0))
        if z0e.is_zero or zero.size:
            raise SingularInputError("sliding kernel is singular at z = 0", None if z0e.is_zero else int(zero[0]))
        scale = 4.0 * math.pi * scales.kinetic_constant
        return (complex_divide_array(principal_log_ratio_array(re, im, z0e.re, z0e.im), scale),
                complex_divide_array(principal_log_ratio_array(re[1:], im[1:], re[:-1], im[:-1]), scale))

    def slide_pole(self, z0: complex, tau0: complex) -> complex:
        return z0 * cmath.exp(4.0 * math.pi / tau0)

    def bound_states(self, eps: np.ndarray, scales: PhysicalScales) -> tuple:
        # the one model without a nominal cutoff: it never binds
        return np.full(eps.shape, np.nan), math.nan

    def support(self) -> float:
        raise DivergenceError("the unregulated spectral weight is constant on [0, inf): its integrals diverge")


def _sharp_log_pole(epsilon: float, cutoff: float) -> float:
    """ln E of the exact sharp-cutoff pole Lambda / expm1(4 pi/eps), as
    ln Lambda - ln expm1(4 pi/eps) with ln expm1(t) = t + ln(1 - e^{-t}):
    finite for every coupling, where expm1 itself overflows below eps ~ 0.018."""
    t = 4.0 * math.pi / epsilon
    return math.log(cutoff) - (t + math.log(-math.expm1(-t)))


@dataclass(frozen=True)
class SharpCutoff(Regulator):
    """Unit form factor up to kinetic energy ``cutoff``, zero above: one
    cutoff, or an array of them that broadcasts with the points (a cutoff
    schedule)."""

    cutoff: float | np.ndarray

    def __post_init__(self):
        cutoff = np.asarray(self.cutoff, dtype=float)
        bad = ~((cutoff > 0.0) & np.isfinite(cutoff))
        if bad.any():
            raise DomainError(f"cutoff must be positive and finite, got {cutoff[bad][0]}")

    def form_factor_squared(self, k, kappa: float):
        return np.where(kappa * k * k <= self.cutoff, 1.0, 0.0)

    def decay(self, t: float, kappa: float) -> complex:
        return (1.0 - cmath.exp(-1j * self.cutoff * t)) / (4.0 * math.pi * kappa * 1j * t)

    def resolvent(self, re: np.ndarray, im: np.ndarray, kappa: float) -> np.ndarray:
        singular = (im == 0.0) & (re == self.cutoff)
        if singular.any():
            raise SingularInputError("g(z) is singular at the cutoff edge z = Lambda", int(np.argmax(singular)))
        return complex_divide_array(principal_log_ratio_array(re, im, re - self.cutoff, im), 4.0 * math.pi * kappa)

    def derivative(self, energy: np.ndarray, kappa: float) -> np.ndarray:
        return (1.0 / energy - 1.0 / (energy + self.cutoff)) / (4.0 * math.pi)

    def pole_energy(self, eps: np.ndarray, index: int, shape: tuple) -> float:
        eps_i, lam_i = (float(np.broadcast_to(v, shape).flat[index]) for v in (eps, self.cutoff))
        return -math.exp(_sharp_log_pole(eps_i, lam_i))

    def bound_states(self, eps: np.ndarray, scales: PhysicalScales) -> tuple:
        # the exact root, in the search range of the other models
        x_root = np.array([_sharp_log_pole(e, self.cutoff) for e in eps.tolist()])
        x_root[~((log_search_floor(self.cutoff) <= x_root) & (x_root <= math.log(self.cutoff)))] = np.nan
        return libm(math.exp, x_root), self.cutoff

    def support(self) -> float:
        return self.cutoff


@dataclass(frozen=True)
class GaussianFormFactor(Regulator):
    """|<k|v>|^2 = exp(-k^2 length^2)."""

    length: float

    def __post_init__(self):
        if not (self.length > 0.0) or not math.isfinite(self.length):
            raise DomainError(f"length must be positive and finite, got {self.length}")

    def form_factor_squared(self, k, kappa: float):
        return np.exp(-(k * self.length) ** 2)

    def decay(self, t: float, kappa: float) -> complex:
        return 1.0 / (4.0 * math.pi * (self.length**2 + 1j * kappa * t))

    def resolvent(self, re: np.ndarray, im: np.ndarray, kappa: float) -> np.ndarray:
        b = self.length**2 / kappa
        pref = 1.0 / (4.0 * math.pi * kappa)
        g = np.empty(re.shape, dtype=complex)
        # where |w| = b|z| lies below the smallest normal double, w may round
        # to 0, and e^w E1(w) = -gamma - ln w and e^{-x} Ei(x) = gamma + ln x
        # hold to |w ln w|: g = pref (gamma + ln w), with ln w = ln b + ln|z|
        # + i arg(-z) formed in logs from a, kappa and z (b itself may
        # underflow); arg(-z) = -pi on the continuum, and -0.0 on the
        # negative axis, as the E1 route gives
        small = b * np.hypot(re, im) < sys.float_info.min
        if small.any():
            mag, shift = scaled_magnitude_array(re[small], im[small])
            ln_z = np.log(mag) - shift
            g.real[small] = pref * (EULER_GAMMA + ((2.0 * math.log(self.length) - math.log(kappa)) + ln_z))
            g.imag[small] = pref * np.arctan2(-np.abs(im[small]), -re[small])
        rest = ~small
        if rest.any():
            # g(z) = -e^{-bz} E1(-bz); evaluate through the scaled E1 so the
            # negative axis never overflows: g = -(e^{w} E1(w)) with w = -b z.
            # A continuum point has w = -bE - 0i on the lower lip of the cut,
            # where E1 gives the Sokhotski limit g = pref e^{-bE} (Ei(bE) - i pi)
            w = np.empty(int(rest.sum()), dtype=complex)
            w.real, w.imag = -b * re[rest], -b * im[rest]
            e1 = exp1_scaled_array(w)
            g.real[rest], g.imag[rest] = -pref * e1.real, -pref * e1.imag
        return g

    def derivative(self, energy: np.ndarray, kappa: float) -> np.ndarray:
        b = self.length**2 / kappa
        x = b * energy
        # d/dE [-(1/4pi) e^{x} E1(x)] = -(b/4pi) (e^{x} E1(x) - 1/x)
        return -(b / (4.0 * math.pi)) * (exp1_scaled_real(x) - 1.0 / x)

    def bound_states(self, eps: np.ndarray, scales: PhysicalScales) -> tuple:
        """The roots of 1 + eps*J(E) = 0 below the nominal cutoff kappa/a^2, by
        Newton's method in ln E (log_bracket_root) from the small-coupling
        asymptote ln E_B = ln(kappa/a^2) - gamma_E - 4 pi/eps."""
        nominal = scales.kinetic_constant / self.length**2
        x_floor, x_top = log_search_floor(nominal), math.log(nominal)
        b = self.length**2 / scales.kinetic_constant

        def mismatch(index, x):
            # 1 + eps*J with J = kappa g(-E) = -e^{bE} E1(bE)/(4 pi), and its
            # slope in ln E, eps*(bE*J + 1/(4 pi)); every bE of the range is
            # positive, so no step checks its column
            be, e = b * np.exp(x), eps[index]
            j = (-1.0 / (4.0 * math.pi)) * exp1_scaled_positive(be)
            return 1.0 + e * j, e * (be * j + 1.0 / (4.0 * math.pi))

        guess = x_top - EULER_GAMMA - 4.0 * math.pi / eps
        return libm(math.exp, log_bracket_root(mismatch, x_floor, x_top, guess)), nominal


def form_factor_squared(reg: Regulator, k: float, scales: PhysicalScales = NATURAL_UNITS) -> float:
    """|<k|v>|^2 at wavenumber k >= 0."""
    if k < 0.0:
        raise DomainError(f"wavenumber must be >= 0, got {k}")
    return float(reg.form_factor_squared(k, scales.kinetic_constant))


def spectral_weight(reg: Regulator, energy: float, scales: PhysicalScales = NATURAL_UNITS) -> float:
    """Q(E) = |<k(E)|v>|^2 / (4 pi kinetic_constant) for E >= 0, with
    k(E) = sqrt(E/kinetic_constant)."""
    if energy < 0.0:
        raise DomainError(f"spectral weight requires E >= 0, got {energy}")
    kappa = scales.kinetic_constant
    return float(reg.form_factor_squared(math.sqrt(energy / kappa), kappa)) / (4.0 * math.pi * kappa)


def decay_amplitude(reg: Regulator, t: float, scales: PhysicalScales = NATURAL_UNITS) -> complex:
    """q(t) = Int_0^inf Q(E) e^{-iEt} dE, with time in units where hbar = 1.

    For the pure delta this is 1/(4 pi i kappa t) exactly, the 1/t tail whose
    t -> 0 end makes the resolvent integral diverge.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"decay amplitude requires t > 0, got {t}")
    return reg.decay(t, scales.kinetic_constant)


def resolvent_element(reg: Regulator, z, scales: PhysicalScales = NATURAL_UNITS) -> complex:
    """g(z) at one point: the 0-d case of resolvent_array."""
    ze = as_energy(z)
    return complex(resolvent_array(reg, [ze.re], [ze.im], scales)[0])


def resolvent_derivative(reg: Regulator, energy, scales: PhysicalScales = NATURAL_UNITS) -> np.ndarray:
    """d/dE of the dimensionless resolvent along the negative real axis,
    i.e. J'(E) with J(E) = kappa*g(-E), elementwise over an array of E > 0,
    for the sharp cutoff or the gaussian.  Used for pole residues."""
    energy = np.asarray(energy, dtype=float)
    if not (energy > 0.0).all():
        raise DomainError("the negative-axis resolvent needs E > 0 and a sharp-cutoff or gaussian regulator")
    return reg.derivative(energy, scales.kinetic_constant)


def slide_kernel(reg: Regulator, z, z0, scales: PhysicalScales = NATURAL_UNITS) -> complex:
    """Sliding kernel g(z) - g(z0) that transports the amplitude between
    energy scales: the one-point case of slide_kernels_along.

    For the pure delta the divergences cancel in the difference and the
    kernel is exactly ln(z/z0)/(4 pi kinetic_constant); the regulated kernels
    converge to it as the regulator is removed.
    """
    ze = as_energy(z)
    return complex(slide_kernels_along(reg, [ze.re], [ze.im], z0, scales)[0][0])


def resolvent_array(reg: Regulator, re, im, scales: PhysicalScales = NATURAL_UNITS) -> np.ndarray:
    """g(z) = Int_0^inf Q(E) dE / (z - E) in closed form, elementwise over
    broadcastable arrays of Re z and Im z (and a SharpCutoff's schedule).

    Diverges for the pure delta (raises DivergenceError): with Q constant the
    integral grows logarithmically at large E for every z in the upper half
    plane.  Boundary values follow the limit-from-above branch policy: the
    gaussian takes every point through E1, continuum points (Im z = 0 < Re z)
    on the lower lip of its cut.  z = 0 and the sharp edge z = Lambda raise
    SingularInputError with the flat index of the first such point.
    """
    re, im = np.broadcast_arrays(np.asarray(re, dtype=float), np.asarray(im, dtype=float))
    singular = (im == 0.0) & (re == 0.0)
    if singular.any():
        raise SingularInputError("g(z) is singular at z = 0 (continuum endpoint)", int(np.argmax(singular)))
    return reg.resolvent(re, im, scales.kinetic_constant)


def slide_kernels_along(reg: Regulator, re, im, z0, scales: PhysicalScales = NATURAL_UNITS):
    """Sliding kernels along a path of points z_i = re_i + i*im_i: the
    kernel G(z_i, z0) from the anchor to every point, and G(z_{i+1}, z_i)
    between neighbours; SingularInputError carries the index of the first
    singular point of the path, or None for the anchor."""
    return reg.slide_kernels(np.asarray(re, dtype=float), np.asarray(im, dtype=float), as_energy(z0), scales)
