"""Adaptive Gauss-Kronrod quadrature for the model's spectral integrals.

A 7-point Gauss / 15-point Kronrod pair with bisection of the worst interval
gives the embedded error estimate; semi-infinite ranges are mapped through
E = a + t/(1-t).  Continuum boundary energies sit exactly on the integration
contour, so those evaluations are split as

    g(E0 + i0+) = PV Int Q(E)/(E0 - E) dE  -  i pi Q(E0)

with the principal value computed by subtracting Q(E0) on an interval
symmetric about the pole (plus the closed-form logarithm of the remainder).
This module never looks at the closed forms in ``regulators`` beyond the
spectral weight Q itself, which is the integrand both routes share, and its
support, whose integrals diverge for the pure delta (DivergenceError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, NamedTuple

from ..energy_plane import NATURAL_UNITS, PhysicalScales, as_energy
from ..errors import DomainError, PrecisionFailureError, SingularInputError
from ..regulators import Regulator, form_factor_squared, spectral_weight

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "integrate",
    "quadrature_resolvent",
    "quadrature_spectral_weight",
    "quadrature_decay_amplitude",
    "upper_half_residue",
]

# 15-point Kronrod extension of 7-point Gauss (positive abscissae; symmetric).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for adaptive integration."""

    abs_tol: float = 1e-13
    rel_tol: float = 1e-11
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 64:
            raise DomainError("max_subdivisions must be at least 64")


class QuadratureResult(NamedTuple):
    value: complex
    error: float


def _gk15(f: Callable[[float], complex], a: float, b: float) -> tuple[complex, float]:
    """Kronrod-15 value and error estimate on [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fv = []
    for x in _XGK[:-1]:
        fv.append(f(mid - half * x))
        fv.append(f(mid + half * x))
    f_mid = f(mid)
    kron = _WGK[-1] * f_mid
    gauss = _WG[-1] * f_mid
    for i in range(7):
        pair = fv[2 * i] + fv[2 * i + 1]
        kron += _WGK[i] * pair
        if i % 2 == 1:
            gauss += _WG[i // 2] * pair
    kron *= half
    gauss *= half
    # rescaled QUADPACK-style estimate: compare against the integral of
    # |f - mean| so the raw |K - G| cannot be spuriously tiny
    mean = kron / (b - a)
    resasc = _WGK[-1] * abs(f_mid - mean)
    for i in range(7):
        resasc += _WGK[i] * (abs(fv[2 * i] - mean) + abs(fv[2 * i + 1] - mean))
    resasc *= abs(half)
    raw = abs(kron - gauss)
    if resasc != 0.0 and raw != 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    return kron, err


def integrate(
    f: Callable[[float], complex],
    a: float,
    b: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadratureResult:
    """Adaptive integral of a (possibly complex-valued) function.

    ``b`` may be math.inf; the tail is mapped through t -> a + t/(1-t).
    Raises PrecisionFailureError (carrying the best estimate) if the
    subdivision budget is exhausted before the tolerance is met.
    """
    if math.isinf(b):
        def g(t: float) -> complex:
            onem = 1.0 - t
            return f(a + t / onem) / (onem * onem)

        return integrate(g, 0.0, 1.0, spec)
    if not (b > a):
        raise DomainError(f"integration range [{a}, {b}] is empty or reversed")

    value, err = _gk15(f, a, b)
    heap: list[tuple[float, int, float, float, complex, float]] = []
    counter = 0
    heappush(heap, (-err, counter, a, b, value, err))
    total = value
    total_err = err
    for _ in range(spec.max_subdivisions):
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return QuadratureResult(total, total_err)
        neg_err, _, lo, hi, val, err = heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution; keep its estimate
            heappush(heap, (0.0, counter + 1, lo, hi, val, err))
            counter += 1
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        counter += 1
        heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heappush(heap, (-e2, counter, mid, hi, v2, e2))
    if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
        return QuadratureResult(total, total_err)
    raise PrecisionFailureError(
        f"quadrature stalled at error {total_err:.3e} after {spec.max_subdivisions} subdivisions",
        best_estimate=total,
        error_estimate=total_err,
    )


def quadrature_resolvent(
    reg: Regulator,
    z,
    spec: QuadratureSpec = QuadratureSpec(),
    scales: PhysicalScales = NATURAL_UNITS,
) -> QuadratureResult:
    """Brute-force g(z) = Int Q(E)/(z - E) dE.

    Interior points integrate directly; continuum boundary points use the
    principal-value decomposition PV - i pi Q(E0).
    """
    ze = as_energy(z)
    upper = reg.support()
    if ze.is_zero:
        raise SingularInputError("resolvent integral singular at z = 0")
    q = lambda e: spectral_weight(reg, e, scales)

    if ze.im > 0.0 or (ze.im == 0.0 and ze.re < 0.0):
        zc = ze.z
        return integrate(lambda e: q(e) / (zc - e), 0.0, upper, spec)

    # boundary value E0 + i0+
    e0 = ze.re
    if math.isfinite(upper) and e0 == upper:
        raise SingularInputError("resolvent integral singular at the cutoff edge")
    if math.isfinite(upper) and e0 > upper:
        # pole lies outside the support; plain real integral
        return integrate(lambda e: q(e) / (e0 - e), 0.0, upper, spec)
    q0 = q(e0)
    h = 1e-6 * e0
    qp0 = (q(e0 + h) - q(e0 - h)) / (2.0 * h)
    guard = 1e-7 * e0

    def subtracted(e: float) -> float:
        if abs(e - e0) < guard:
            return -qp0
        return (q(e) - q0) / (e0 - e)

    b_pv = min(2.0 * e0, upper)
    pv = integrate(subtracted, 0.0, b_pv, spec)
    # exactly zero when the window is symmetric (b_pv = 2 e0)
    log_term = q0 * math.log(e0 / (b_pv - e0))
    tail = QuadratureResult(0.0, 0.0)
    if b_pv < upper:
        tail = integrate(lambda e: q(e) / (e0 - e), b_pv, upper, spec)
    value = pv.value + log_term + tail.value - 1j * math.pi * q0
    return QuadratureResult(value, pv.error + tail.error)


def quadrature_spectral_weight(
    reg: Regulator,
    energy: float,
    spec: QuadratureSpec = QuadratureSpec(),
    scales: PhysicalScales = NATURAL_UNITS,
) -> float:
    """Brute-force Q(E): differentiate the cumulative shell integral

        N(E) = Int_{kappa k^2 <= E} |<k|v>|^2 d^2k/(2 pi)^2
             = (1/2 pi) Int_0^{k(E)} |<k|v>|^2 k dk

    by Richardson-extrapolated central differences.  Independent of the
    closed-form shell reduction in ``regulators``.
    """
    if not (energy > 0.0):
        raise DomainError(f"spectral-weight oracle requires E > 0, got {energy}")
    kappa = scales.kinetic_constant

    def cumulative(e: float) -> float:
        k_max = math.sqrt(e / kappa)
        res = integrate(lambda k: form_factor_squared(reg, k, scales) * k, 0.0, k_max, spec)
        return res.value.real / (2.0 * math.pi)

    h = 1e-3 * energy
    d1 = (cumulative(energy + h) - cumulative(energy - h)) / (2.0 * h)
    d2 = (cumulative(energy + 0.5 * h) - cumulative(energy - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def quadrature_decay_amplitude(
    reg: Regulator,
    t: float,
    spec: QuadratureSpec = QuadratureSpec(),
    scales: PhysicalScales = NATURAL_UNITS,
) -> QuadratureResult:
    """Brute-force q(t) = Int_0^inf Q(E) e^{-iEt} dE (hbar = 1)."""
    if not (t > 0.0):
        raise DomainError(f"decay-amplitude oracle requires t > 0, got {t}")
    upper = reg.support()
    q = lambda e: spectral_weight(reg, e, scales)
    return integrate(lambda e: q(e) * complex(math.cos(e * t), -math.sin(e * t)), 0.0, upper, spec)


def upper_half_residue(
    fn: Callable[[complex], complex],
    center: float,
    radius: float,
    n: int = 64,
) -> complex:
    """Residue of fn at a real-axis pole, by a circular contour sampled at n
    midpoints.

    fn need only be defined on the closed upper half plane; the lower
    semicircle is filled in by Schwarz reflection fn(conj z) = conj fn(z),
    valid for amplitudes that are real-analytic across the negative axis.
    """
    if not (radius > 0.0) or n < 4:
        raise DomainError("residue extraction needs radius > 0 and n >= 4")
    total = 0.0 + 0.0j
    for j in range(n):
        theta = 2.0 * math.pi * (j + 0.5) / n
        zj = complex(center + radius * math.cos(theta), radius * math.sin(theta))
        if zj.imag >= 0.0:
            val = fn(zj)
        else:
            val = fn(zj.conjugate()).conjugate()
        total += val * complex(math.cos(theta), math.sin(theta))
    return total * radius / n
