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
with the one root finder here, log_bracket_root.

principal_log_ratio_array is the elementwise form of the logarithm over
arrays of real and imaginary parts, for tables evaluated as numpy columns;
complex_divide_array divides as the scalar code does.
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
    "complex_divide_array",
    "wavenumber",
]
# log_bracket_root stays out of __all__: bench/spans.py wraps these names,
# and a span around the solver would hide its evaluations from the counts
# of solver work.

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
        if self.im > 0.0:
            return math.atan2(self.im, self.re)
        return 0.0 if self.re > 0.0 else math.pi

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
    differences compose additively without winding.
    """
    ze = as_energy(z)
    z0e = as_energy(z0)
    if ze.is_zero or z0e.is_zero:
        raise DomainError("principal_log_ratio requires nonzero energies")
    ratio = ze.magnitude() / z0e.magnitude()
    if ratio == 0.0 or math.isinf(ratio):
        # magnitudes too far apart for a single quotient; give up exactness
        # of power-of-two scaling in favor of range
        log_mag = math.log(ze.magnitude()) - math.log(z0e.magnitude())
    else:
        log_mag = math.log(ratio)
    return complex(log_mag, ze.arg_from_above() - z0e.arg_from_above())


def _arg_from_above_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # im == 0 holds for -0.0 too, so the negative axis keeps arg = pi where
    # atan2(-0.0, re) would give -pi
    return np.where(im > 0.0, np.arctan2(im, re), np.where(re > 0.0, 0.0, math.pi))


def principal_log_ratio_array(re, im, re0, im0) -> np.ndarray:
    """ln(z/z0) elementwise, on the branch of principal_log_ratio, for z =
    re + i*im and z0 = re0 + i*im0 given as broadcastable arrays of real and
    imaginary parts (Im >= 0; Im = 0 is the limit from above)."""
    re, im, re0, im0 = (np.asarray(v, dtype=float) for v in (re, im, re0, im0))
    if (im < 0.0).any() or (im0 < 0.0).any():
        raise DomainError("energy must lie in the closed upper half plane")
    mag, mag0 = np.hypot(re, im), np.hypot(re0, im0)
    if not (mag.all() and mag0.all()):
        raise DomainError("principal_log_ratio requires nonzero energies")
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        ratio = mag / mag0
        log_mag = np.log(ratio)
    far = (ratio == 0.0) | np.isinf(ratio)
    if far.any():
        # magnitudes too far apart for a single quotient, as in the scalar form
        log_mag = np.where(far, np.log(mag) - np.log(mag0), log_mag)
    out = np.empty(log_mag.shape, dtype=complex)
    out.real = log_mag
    out.imag = _arg_from_above_array(re, im) - _arg_from_above_array(re0, im0)
    return out


def complex_divide_array(a, b) -> np.ndarray:
    """a / b elementwise over broadcastable complex arrays, rounded as
    Python's complex division (Smith's method) rounds it, where numpy's
    division rounds differently: array columns then keep the last bits of
    the scalar functions, and with them the unitarity defect that a status
    reads against its tolerance."""
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


def log_bracket_root(f, nominal: float, x_top: float, scan=()) -> float:
    """ln E of the bound-state root of f(ln E) below x_top.

    The bracket's lower limit is nominal * 1e-300, with nominal the
    regulator's nominal cutoff, and never below the smallest normal double.
    f is evaluated at x_top, at the points of the decreasing sequence
    ``scan`` above the limit, and at the limit; the first sign change
    brackets the root, which bisection refines to POLE_SEARCH_LOG_TOL and
    four secant steps polish.  Raises NoBoundStateError(exact=False) when f
    keeps its sign down to the limit.
    """
    x_floor = max(math.log(nominal) + math.log(1e-300), math.log(sys.float_info.min))
    if not x_floor < x_top:
        raise NoBoundStateError("bound-state search range lies below nominal*1e-300", exact=False)
    xb, fb = x_top, f(x_top)
    if fb == 0.0:
        return x_top
    for x in itertools.chain(scan, (x_floor,)):
        x = max(x, x_floor)
        fa = f(x)
        if fa == 0.0:
            return x
        if (fa > 0.0) != (fb > 0.0):
            break
        if x == x_floor:
            raise NoBoundStateError("no bound state bracketed above nominal*1e-300", exact=False)
        xb, fb = x, fa
    xa = x
    for _ in range(200):
        xm = 0.5 * (xa + xb)
        fm = f(xm)
        if fm != 0.0 and (fm > 0.0) == (fa > 0.0):
            xa, fa = xm, fm
        else:
            xb, fb = xm, fm
        if xb - xa < POLE_SEARCH_LOG_TOL:
            break
    x_root = 0.5 * (xa + xb)
    for _ in range(4):
        if fb == fa:
            break
        x_sec = xb - fb * (xb - xa) / (fb - fa)
        if not (min(xa, xb) <= x_sec <= max(xa, xb)):
            break
        xa, fa = xb, fb
        xb, fb = x_sec, f(x_sec)
        x_root = xb
    return x_root
