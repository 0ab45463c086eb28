"""Complex-energy domain, unit conventions and the single logarithm branch.

Every energy in the model lives in the closed upper half of the complex
plane.  Real-axis points are always understood as analytic limits from
above (E + i0+), so the argument function used throughout is

    arg z = atan2(Im z, Re z)      for Im z > 0,
    arg z = 0                      on the positive real axis,
    arg z = pi                     on the negative real axis,

i.e. arg in [0, pi] with no other branch anywhere in the package.  Boundary
values are produced by these limit formulas, never by a small finite
imaginary part, which keeps unitarity checks exact.

Internal natural units set the single dimensionful combination
kinetic_constant = hbar^2/(2*mu) to 1 (and hbar = 1 for the time domain),
so E = k^2.  The model itself has no intrinsic energy scale; the unit
system is imposed here and converted only at the CLI boundary.

Both bound-state solvers (separable poles, circular well) search in ln E
with the one root finder here, log_bracket_root, under one bracket policy:
from the caller's asymptotic estimate outward in doubling steps, then one
run of Chandrupatla's method.

principal_log_ratio_array is the one implementation of that logarithm,
over arrays of real and imaginary parts; principal_log_ratio is its 0-d
call.  Throughout the package a scalar name calls its array form on
one-element arrays, not 0-d ones: numpy evaluates some elementary functions
of 0-d arrays through the C library and of arrays through its own loops,
which round differently, and a scalar name must equal the array rows to the
bit.  complex_divide_array divides as Python's complex division does.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoBoundStateError
from .tolerances import POLE_SEARCH_LOG_TOL

__all__ = [
    "PhysicalScales",
    "NATURAL_UNITS",
    "ComplexEnergy",
    "Wavenumber",
    "as_energy",
    "principal_log_ratio",
    "principal_log_ratio_array",
    "log_ratio_array",
    "complex_divide_array",
    "wavenumber",
]
# log_bracket_root and log_search_floor stay out of __all__: bench/spans.py
# wraps these names, and a span around the solver would hide its evaluations
# from the counts of solver work.

# Wavenumbers are plain positive floats in units of 1/length.
Wavenumber = float


@dataclass(frozen=True)
class PhysicalScales:
    """Unit system: the single combination hbar^2/(2 mu) with dimensions
    energy*length^2.  All outputs scale under it exactly as dimensional
    analysis dictates (the dimensionless amplitude is invariant)."""

    kinetic_constant: float = 1.0

    def __post_init__(self):
        if not (self.kinetic_constant > 0.0) or not math.isfinite(self.kinetic_constant):
            raise DomainError(f"kinetic_constant must be positive and finite, got {self.kinetic_constant}")


NATURAL_UNITS = PhysicalScales(1.0)


@dataclass(frozen=True)
class ComplexEnergy:
    """A point z in the closed upper half energy plane.

    ``boundary`` marks continuum points E + i0+ (im stored as 0, re > 0).
    Points with im == 0 and re < 0 are negative-axis limits from above and
    carry arg = pi.  im < 0 is never admitted.
    """

    re: float
    im: float = 0.0
    boundary: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise DomainError(f"non-finite energy ({self.re}, {self.im})")
        if self.im < 0.0:
            raise DomainError(f"energy must lie in the closed upper half plane, got im = {self.im}")
        if self.boundary and (self.im != 0.0 or self.re <= 0.0):
            raise DomainError("boundary points are continuum energies: im = 0 and re > 0 required")
        if self.im == 0.0 and self.re > 0.0 and not self.boundary:
            # canonicalize: a positive real-axis point is a continuum boundary value
            object.__setattr__(self, "boundary", True)

    @classmethod
    def interior(cls, re: float, im: float) -> "ComplexEnergy":
        if im <= 0.0:
            raise DomainError(f"interior point needs im > 0, got {im}")
        return cls(re, im)

    @classmethod
    def continuum(cls, energy: float) -> "ComplexEnergy":
        """The limit E + i0+ for a continuum energy E > 0."""
        if energy <= 0.0:
            raise DomainError(f"continuum energy must be positive, got {energy}")
        return cls(energy, 0.0, boundary=True)

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0.0 and self.im == 0.0

    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    def arg_from_above(self) -> float:
        """Argument in [0, pi] under the limit-from-above convention."""
        if self.is_zero:
            raise DomainError("argument of zero energy is undefined")
        return float(_arg_from_above_array(np.array([self.re]), np.array([self.im]))[0])

    def scaled(self, factor: float) -> "ComplexEnergy":
        if factor <= 0.0:
            raise DomainError("energy scale factor must be positive")
        return ComplexEnergy(self.re * factor, self.im * factor, self.boundary)


def as_energy(value: "ComplexEnergy | complex | float | int") -> ComplexEnergy:
    """Coerce to ComplexEnergy.

    Real inputs become limits from above on the real axis; complex inputs
    must have Im >= 0.
    """
    if isinstance(value, ComplexEnergy):
        return value
    if isinstance(value, complex):
        return ComplexEnergy(value.real, value.imag)
    return ComplexEnergy(float(value), 0.0)


def principal_log_ratio(z, z0) -> complex:
    """ln(z/z0) on the single branch of the package.

    Returns ln|z/z0| + i*(arg z - arg z0) with both arguments taken in
    [0, pi]; the imaginary part therefore lies in [-pi, pi], and argument
    differences compose additively without winding.  The 0-d case of
    principal_log_ratio_array.
    """
    ze, z0e = as_energy(z), as_energy(z0)
    return complex(principal_log_ratio_array([ze.re], [ze.im], [z0e.re], [z0e.im])[0])


def _arg_from_above_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # |Im z| turns -0.0 into +0.0, so the negative axis keeps arg = pi where
    # atan2(-0.0, re) would give -pi; atan2(+0.0, re) is exactly 0 or pi
    return np.arctan2(np.abs(im), re)


def log_ratio_array(num, den) -> np.ndarray:
    """ln(num/den) elementwise over broadcastable arrays of positive numbers,
    finite wherever both are: where the quotient overflows or falls below
    the normal range (a subnormal quotient has lost digits), ln num - ln den
    instead, which gives up exactness of power-of-two scaling for range."""
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        ratio = num / den
        log = np.log(ratio)
        far = (ratio < sys.float_info.min) | np.isinf(ratio)
        if far.any():
            log = np.where(far, np.log(num) - np.log(den), log)
    return log


def principal_log_ratio_array(re, im, re0, im0) -> np.ndarray:
    """ln(z/z0) elementwise, on the branch of principal_log_ratio, for z =
    re + i*im and z0 = re0 + i*im0 given as broadcastable arrays of real and
    imaginary parts (Im >= 0; Im = 0 is the limit from above), with
    ln|z/z0| from log_ratio_array."""
    re, im, re0, im0 = (np.asarray(v, dtype=float) for v in (re, im, re0, im0))
    if (im < 0.0).any() or (im0 < 0.0).any():
        raise DomainError("energy must lie in the closed upper half plane")
    mag, mag0 = np.hypot(re, im), np.hypot(re0, im0)
    if not (mag.all() and mag0.all()):
        raise DomainError("principal_log_ratio requires nonzero energies")
    log_mag = log_ratio_array(mag, mag0)
    out = np.empty(log_mag.shape, dtype=complex)
    out.real = log_mag
    out.imag = _arg_from_above_array(re, im) - _arg_from_above_array(re0, im0)
    return out


def complex_divide_array(a, b) -> np.ndarray:
    """a / b elementwise over broadcastable complex arrays, rounded as
    Python's complex division (Smith's method) rounds it, where numpy's
    division rounds differently: array columns then keep the last bits of
    Python's complex arithmetic, which the scalar observables use, and with
    them the unitarity defect that a status reads against its tolerance."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    real_major = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(real_major, bi / br, br / bi)
        denom = np.where(real_major, br + bi * ratio, br * ratio + bi)
        re = np.where(real_major, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(real_major, ai - ar * ratio, ai * ratio - ar) / denom
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def wavenumber(energy: float, scales: PhysicalScales = NATURAL_UNITS) -> Wavenumber:
    """k = sqrt(E / kinetic_constant) for a continuum energy E > 0."""
    if not (energy > 0.0) or not math.isfinite(energy):
        raise DomainError(f"wavenumber requires E > 0, got {energy}")
    return math.sqrt(energy / scales.kinetic_constant)


def log_search_floor(nominal: float) -> float:
    """Lowest ln E a bound-state search reaches: ln(nominal * 1e-300), with
    nominal the regulator's nominal cutoff, and never below the smallest
    normal double."""
    return max(math.log(nominal) + math.log(1e-300), math.log(sys.float_info.min))


def log_bracket_root(f, x_floor: float, x_top: float, guess: float) -> float:
    """ln E of the bound-state root of f(ln E) between x_floor and x_top,
    searched outward from the estimate ``guess``.

    f is evaluated at x_top, then at guess + 2 and guess - 2, then at points
    twice as far apart each time (guess - 10, guess - 26, ...), each clamped
    to x_floor; points at or above the last one are skipped.  The first sign
    change brackets the root, and one run of Chandrupatla's method refines it
    to POLE_SEARCH_LOG_TOL * max(1, |ln E|).  Raises
    NoBoundStateError(exact=False) when f keeps its sign down to x_floor, so
    a guess below the floor costs two evaluations.
    """
    if not x_floor < x_top:
        raise NoBoundStateError("bound-state search range is empty", exact=False)
    xb, fb = x_top, f(x_top)
    if fb == 0.0:
        return x_top
    for k in itertools.count(2):
        x = max(guess + 6.0 - 2.0**k, x_floor)
        if x >= xb:
            continue
        fa = f(x)
        if fa == 0.0:
            return x
        if (fa > 0.0) != (fb > 0.0):
            return _chandrupatla(f, x, fa, xb, fb)
        if x == x_floor:
            raise NoBoundStateError("no bound state bracketed above the search floor", exact=False)
        xb, fb = x, fa


def _chandrupatla(f, a: float, fa: float, b: float, fb: float) -> float:
    """Root of f in the bracket [a, b] (fa, fb of opposite signs) by
    Chandrupatla's method (Adv. Eng. Softw. 28, 1997), a safeguarded hybrid
    in the spirit of Brent's (1973, ch. 4): inverse quadratic interpolation
    through the newest point a, its bracket partner b and the point c it
    replaced, where the three points allow it, and bisection otherwise.  The
    root lies within POLE_SEARCH_LOG_TOL * max(1, |x|) of the returned x."""
    t = 0.5
    while True:
        x = a + t * (b - a)
        fx = f(x)
        if (fx > 0.0) == (fa > 0.0):
            c, fc = a, fa
        else:
            c, fc = b, fb
            b, fb = a, fa
        a, fa = x, fx
        xm, fm = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        tl = 0.5 * POLE_SEARCH_LOG_TOL * max(1.0, abs(xm)) / abs(b - a)
        if tl > 0.5 or fm == 0.0:
            return xm
        xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        else:
            t = 0.5
        # never closer to either end than tl: the bracket keeps shrinking
        t = min(1.0 - tl, max(tl, t))
