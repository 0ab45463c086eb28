"""Special functions built in-repo from series, asymptotic expansions and
fixed Gauss rules.

The brute-force verification layer must not assume a host math library, so
the cylinder functions J0, J1, Y0, Y1, K0, K1 and the exponential integrals
are implemented here from scratch:

* J and Y: ascending power series for x <= 12, Hankel large-argument
  expansions beyond.  The switchover at 12.0 balances series cancellation
  (growing like (x/2)^(2k)/(k!)^2) against the optimally truncated
  asymptotic error (roughly exp(-2x)); measured worst-case envelope-relative
  error over (0, 700] is below 1e-11.
* K: ascending series for x <= 2.  Beyond that the Hankel asymptotic series
  alone cannot reach 1e-10 until x ~ 18 while the series loses exp(2x) digits
  to cancellation, so the large-x branch evaluates the exact resummation of
  the asymptotic series,

      K_nu(x) = sqrt(pi/2x) e^{-x} / Gamma(nu+1/2)
                * Int_0^inf e^{-t} t^{nu-1/2} (1 + t/2x)^{nu-1/2} dt,

  as one dot product over the fixed nodes of composite Gauss-Legendre panels
  (t = u^2 removes the endpoint singularity).  Measured accuracy is a few
  ulp for all x >= 2.
* E1(w) on the closed lower half plane plus the positive real axis (the image
  of the upper half energy plane under w = -b*z), scaled as e^w E1(w).  The
  branches are taken in this order (DLMF 6.6-6.12): the lower lip of the cut
  (Im w = 0 > Re w) through Ei; the power series for |w| <= 3.5; the
  optimally truncated asymptotic series for |w| >= 40, in every direction;
  the modified Lentz continued fraction for Re w >= 0; the power series
  again near the negative axis (|w| + Re w <= 9); and a fixed Gauss rule on
  the Stieltjes form e^{-w} Int_0^inf e^{-u}/(w+u) du in the one wedge left.
* Ei(x) for x > 0: power series for x <= 40, asymptotic series above.

The Bessel series are accumulated with math.fsum so the only error left is
term roundoff.

exp1_scaled_array and expi_scaled_array evaluate e^w E1(w) and e^{-x} Ei(x)
over numpy arrays: each branch runs over the elements its mask selects,
each series or continued fraction stops element by element, and the
Stieltjes rule is one matrix-vector product.  expi_scaled_array is the one
implementation of Ei; expi_scaled and expi are its 0-d calls.  exp1_scaled
and the Bessel functions stay scalar, because the bound-state searches (the
gaussian pole, the circular well) evaluate them one point at a time and a
0-d array call costs some 20 times a scalar one.  exp1_scaled takes the
branches of exp1_scaled_array in the same order; it rounds complex
arithmetic as Python does, so inside the power-series bands, where terms
cancel, the two forms may differ by some hundred ulps, both within about
1e-12 of the value.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "bessel_j0",
    "bessel_j1",
    "bessel_y0",
    "bessel_y1",
    "bessel_i0",
    "bessel_i1",
    "bessel_k0",
    "bessel_k1",
    "bessel_k0_scaled",
    "bessel_k1_scaled",
    "exp1",
    "exp1_scaled",
    "exp1_scaled_array",
    "expi",
    "expi_scaled",
    "expi_scaled_array",
    "EULER_GAMMA",
]

EULER_GAMMA = 0.5772156649015328606065121

# J/Y: power series below, Hankel asymptotics above.
_JY_SWITCH = 12.0
# K: ascending series below, resummed asymptotic integral above.
_K_SWITCH = 2.0

_MAX_SERIES_TERMS = 300


def _require_positive(x: float, name: str) -> None:
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"{name} requires x > 0, got {x}")


# ----------------------------------------------------------------------
# ascending series
# ----------------------------------------------------------------------

def _j0_series(x: float) -> float:
    q = 0.25 * x * x
    term = 1.0
    terms = [1.0]
    for k in range(1, _MAX_SERIES_TERMS):
        term *= -q / (k * k)
        terms.append(term)
        if abs(term) < 1e-20:
            break
    return math.fsum(terms)


def _j1_series(x: float) -> float:
    q = 0.25 * x * x
    term = 0.5 * x
    terms = [term]
    for k in range(1, _MAX_SERIES_TERMS):
        term *= -q / (k * (k + 1))
        terms.append(term)
        if abs(term) < 1e-20:
            break
    return math.fsum(terms)


def _y0_series(x: float) -> float:
    q = 0.25 * x * x
    term = 1.0
    harmonic = 0.0
    terms = []
    for k in range(1, _MAX_SERIES_TERMS):
        term *= -q / (k * k)  # (-1)^k q^k / (k!)^2
        harmonic += 1.0 / k
        terms.append(-term * harmonic)
        if abs(term) < 1e-20:
            break
    lead = (math.log(0.5 * x) + EULER_GAMMA) * _j0_series(x)
    return (2.0 / math.pi) * (lead + math.fsum(terms))


def _y1_series(x: float) -> float:
    q = 0.25 * x * x
    term = 1.0  # (-1)^k q^k / (k! (k+1)!) at k = 0
    h_k = 0.0
    h_k1 = 1.0
    terms = [term * (h_k + h_k1)]
    for k in range(1, _MAX_SERIES_TERMS):
        term *= -q / (k * (k + 1))
        h_k += 1.0 / k
        h_k1 += 1.0 / (k + 1)
        terms.append(term * (h_k + h_k1))
        if abs(term) < 1e-20:
            break
    lead = (math.log(0.5 * x) + EULER_GAMMA) * _j1_series(x)
    return (2.0 / math.pi) * lead - 2.0 / (math.pi * x) - (x / (2.0 * math.pi)) * math.fsum(terms)


# ----------------------------------------------------------------------
# Hankel asymptotic expansions
# ----------------------------------------------------------------------

def _hankel_pq(mu: float, x: float) -> tuple[float, float]:
    """P and Q sums of the large-argument expansion, truncated at the
    smallest term (mu = 4 nu^2)."""
    p = 1.0
    q = 0.0
    term = 1.0
    prev = math.inf
    for k in range(1, 60):
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(term) > prev:
            break
        prev = abs(term)
        if k % 2 == 1:
            q += term if k % 4 == 1 else -term
        else:
            p += term if k % 4 == 0 else -term
        if abs(term) < 1e-19:
            break
    return p, q


def _jy_asymptotic(nu: int, x: float) -> tuple[float, float]:
    p, q = _hankel_pq(4.0 * nu * nu, x)
    chi = x - (0.5 * nu + 0.25) * math.pi
    amp = math.sqrt(2.0 / (math.pi * x))
    c, s = math.cos(chi), math.sin(chi)
    return amp * (p * c - q * s), amp * (p * s + q * c)


# ----------------------------------------------------------------------
# public J and Y
# ----------------------------------------------------------------------

def bessel_j0(x: float) -> float:
    """Bessel function J0 for x >= 0."""
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"bessel_j0 requires x >= 0, got {x}")
    if x <= _JY_SWITCH:
        return _j0_series(x)
    return _jy_asymptotic(0, x)[0]


def bessel_j1(x: float) -> float:
    """Bessel function J1 for x >= 0."""
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"bessel_j1 requires x >= 0, got {x}")
    if x <= _JY_SWITCH:
        return _j1_series(x)
    return _jy_asymptotic(1, x)[0]


def bessel_y0(x: float) -> float:
    """Bessel function Y0 for x > 0."""
    _require_positive(x, "bessel_y0")
    if x <= _JY_SWITCH:
        return _y0_series(x)
    return _jy_asymptotic(0, x)[1]


def bessel_y1(x: float) -> float:
    """Bessel function Y1 for x > 0."""
    _require_positive(x, "bessel_y1")
    if x <= _JY_SWITCH:
        return _y1_series(x)
    return _jy_asymptotic(1, x)[1]


# ----------------------------------------------------------------------
# modified functions I and K
# ----------------------------------------------------------------------

def bessel_i0(x: float) -> float:
    """Modified Bessel function I0 (series; used by the K series and tests)."""
    if x < 0.0:
        x = -x
    q = 0.25 * x * x
    term = 1.0
    terms = [1.0]
    for k in range(1, _MAX_SERIES_TERMS):
        term *= q / (k * k)
        terms.append(term)
        if term < 1e-20 * terms[0] and term < 1e-20 * max(terms):
            break
    return math.fsum(terms)


def bessel_i1(x: float) -> float:
    """Modified Bessel function I1 (series)."""
    sign = -1.0 if x < 0.0 else 1.0
    x = abs(x)
    q = 0.25 * x * x
    term = 0.5 * x
    terms = [term]
    for k in range(1, _MAX_SERIES_TERMS):
        term *= q / (k * (k + 1))
        terms.append(term)
        if term < 1e-20 * max(terms):
            break
    return sign * math.fsum(terms)


def _k0_series(x: float) -> float:
    q = 0.25 * x * x
    term = 1.0
    harmonic = 0.0
    terms = []
    for k in range(1, _MAX_SERIES_TERMS):
        term *= q / (k * k)
        harmonic += 1.0 / k
        terms.append(harmonic * term)
        if harmonic * term < 1e-20:
            break
    return -(math.log(0.5 * x) + EULER_GAMMA) * bessel_i0(x) + math.fsum(terms)


def _k1_series(x: float) -> float:
    q = 0.25 * x * x
    term = 1.0
    h_k = 0.0
    h_k1 = 1.0
    terms = [(h_k + h_k1 - 2.0 * EULER_GAMMA) * term]
    for k in range(1, _MAX_SERIES_TERMS):
        term *= q / (k * (k + 1))
        h_k += 1.0 / k
        h_k1 += 1.0 / (k + 1)
        terms.append((h_k + h_k1 - 2.0 * EULER_GAMMA) * term)
        if term < 1e-20:
            break
    return 1.0 / x + math.log(0.5 * x) * bessel_i1(x) - 0.25 * x * math.fsum(terms)


def _composite_gauss(panels, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre rules on each panel."""
    t, wt = np.polynomial.legendre.leggauss(n)
    nodes = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * t for a, b in panels])
    weights = np.concatenate([0.5 * (b - a) * wt for a, b in panels])
    return nodes, weights


# Fixed Gauss-Legendre panels for the resummed asymptotic integral, with the
# integrand's e^{-u^2} folded into the weights; u <= 9 truncates below 1e-35.
_K_NODES, _K_WEIGHTS = _composite_gauss(((0.0, 1.5), (1.5, 4.0), (4.0, 9.0)), 60)
_K_WEIGHTS = _K_WEIGHTS * np.exp(-_K_NODES**2)
_K_NODES_SQ = _K_NODES**2


def bessel_k0_scaled(x: float) -> float:
    """e^x K0(x), stable for arbitrarily large x."""
    _require_positive(x, "bessel_k0_scaled")
    if x <= _K_SWITCH:
        return math.exp(x) * _k0_series(x)
    integral = float(_K_WEIGHTS @ (1.0 / np.sqrt(1.0 + _K_NODES_SQ / (2.0 * x))))
    return math.sqrt(math.pi / (2.0 * x)) * (2.0 / math.sqrt(math.pi)) * integral


def bessel_k1_scaled(x: float) -> float:
    """e^x K1(x), stable for arbitrarily large x."""
    _require_positive(x, "bessel_k1_scaled")
    if x <= _K_SWITCH:
        return math.exp(x) * _k1_series(x)
    integral = float(_K_WEIGHTS @ (_K_NODES_SQ * np.sqrt(1.0 + _K_NODES_SQ / (2.0 * x))))
    return math.sqrt(math.pi / (2.0 * x)) * (4.0 / math.sqrt(math.pi)) * integral


def bessel_k0(x: float) -> float:
    """Modified Bessel function K0 for x > 0.

    Underflows to 0 near x ~ 745; use bessel_k0_scaled beyond.
    """
    _require_positive(x, "bessel_k0")
    if x <= _K_SWITCH:
        return _k0_series(x)
    return math.exp(-x) * bessel_k0_scaled(x)


def bessel_k1(x: float) -> float:
    """Modified Bessel function K1 for x > 0.

    Underflows to 0 near x ~ 745; use bessel_k1_scaled beyond.
    """
    _require_positive(x, "bessel_k1")
    if x <= _K_SWITCH:
        return _k1_series(x)
    return math.exp(-x) * bessel_k1_scaled(x)


# ----------------------------------------------------------------------
# exponential integrals
# ----------------------------------------------------------------------

# Branches of e^w E1(w), shared by exp1_scaled and exp1_scaled_array and taken
# in this order (DLMF 6.6-6.12): the lower lip of the cut (Im w = 0 > Re w)
# through Ei; the power series for |w| <= _E1_SERIES_RADIUS; the asymptotic
# series for |w| >= _E1_ASYMPTOTIC_RADIUS, in every direction, where its
# optimally truncated error ~e^{-|w|} and the Stokes term i pi e^{w} near the
# negative axis both lie below 1e-15 of the value; the continued fraction for
# Re w >= 0; the power series again near the negative axis,
# |w| + Re w <= _E1_NEAR_AXIS; the Stieltjes integral in the wedge left over.
_E1_SERIES_RADIUS = 3.5
_E1_ASYMPTOTIC_RADIUS = 40.0
_E1_NEAR_AXIS = 9.0
# Ei: power series for x <= _EI_SERIES_MAX, asymptotic series above.
_EI_SERIES_MAX = 40.0

_MAX_EXPINT_SERIES_TERMS = 1200
_MAX_CF_TERMS = 5000
_MAX_ASYMPTOTIC_TERMS = 200


def _e1_power_series(w: complex) -> complex:
    # E1(w) = -gamma - ln w + sum_{k>=1} (-1)^{k+1} w^k / (k k!)
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(1, _MAX_EXPINT_SERIES_TERMS):
        term *= -w / k
        add = -term / k
        total += add
        if abs(add) < 1e-18 * max(1.0, abs(total)):
            break
    return -EULER_GAMMA - cmath.log(w) + total


def _e1_continued_fraction_scaled(w: complex) -> complex:
    # modified Lentz on e^w E1(w) = 1/(w + 1 - 1/(w + 3 - 4/(w + 5 - ...)))
    tiny = 1e-300
    b = w + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_CF_TERMS):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _e1_asymptotic_scaled(w: complex) -> complex:
    # e^w E1(w) = (1/w) * sum (-1)^k k!/w^k, truncated at the smallest term
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    prev = 1.0
    for k in range(1, _MAX_ASYMPTOTIC_TERMS):
        term *= -k / w
        if abs(term) > prev:
            break
        prev = abs(term)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total / w


# e^w E1(w) = Int_0^inf e^{-u}/(w+u) du, valid off the cut, by a fixed rule
# with e^{-u} folded into the weights; used only where the pole at u = -w
# stays far from the contour (|Im w| > 9 in the Stieltjes wedge).
_E1_NODES, _E1_WEIGHTS = _composite_gauss(((0.0, 4.0), (4.0, 12.0), (12.0, 28.0), (28.0, 55.0)), 48)
_E1_WEIGHTS = _E1_WEIGHTS * np.exp(-_E1_NODES)


# Rows per block of the (rows, nodes) matrix, which bounds its memory; the
# sum over nodes is einsum's own loop, not BLAS, whose threads would spin on
# other cores after every large enough product.
_STIELTJES_BLOCK = 512


def _e1_stieltjes_scaled_array(w: np.ndarray) -> np.ndarray:
    out = np.empty_like(w)
    for start in range(0, w.size, _STIELTJES_BLOCK):
        block = w[start:start + _STIELTJES_BLOCK]
        out[start:start + block.size] = np.einsum("ij,j->i", 1.0 / (block[:, None] + _E1_NODES), _E1_WEIGHTS)
    return out


def _check_exp1_domain(zero: bool, upper: bool) -> None:
    if zero:
        raise DomainError("E1 diverges at w = 0")
    if upper:
        raise DomainError("exp1 is implemented for Im w <= 0 only")


def exp1_scaled(w: complex) -> complex:
    """e^w E1(w) for w in the closed lower half plane or on the positive real
    axis (the image of upper-half-plane energies under w = -b*z).

    Natively scaled in every regime, so it stays O(1/w) even where e^w alone
    would overflow.  Points on the negative real axis are limits from below
    the cut, consistent with the package branch policy.
    """
    w = complex(w)
    _check_exp1_domain(w == 0, w.imag > 0.0)
    if w.imag == 0.0 and w.real < 0.0:
        # lower lip of the cut: e^w E1(w) = -e^{-x} Ei(x) + i pi e^{-x}, x = -w
        x = -w.real
        return complex(-expi_scaled(x), math.pi * math.exp(-x))
    r = abs(w)
    if r <= _E1_SERIES_RADIUS:
        return cmath.exp(w) * _e1_power_series(w)
    if r >= _E1_ASYMPTOTIC_RADIUS:
        return _e1_asymptotic_scaled(w)
    if w.real >= 0.0:
        return _e1_continued_fraction_scaled(w)
    if r + w.real <= _E1_NEAR_AXIS:
        # near the negative axis the alternating series stays cancellation-safe
        return cmath.exp(w) * _e1_power_series(w)
    return complex(_e1_stieltjes_scaled_array(np.array([w]))[0])


def exp1(w: complex) -> complex:
    """Exponential integral E1(w); domain as exp1_scaled.

    Overflows where |e^{-w}| does; use exp1_scaled in exponential regimes.
    """
    w = complex(w)
    if w != 0 and w.imag == 0.0 and w.real < 0.0:
        x = -w.real
        return complex(-expi(x), math.pi)
    return cmath.exp(-w) * exp1_scaled(w)


def expi_scaled(x: float) -> float:
    """e^{-x} Ei(x) for x > 0, stable for arbitrarily large x: the 0-d case
    of expi_scaled_array."""
    return float(expi_scaled_array([x])[0])


def expi(x: float) -> float:
    """Exponential integral Ei(x) for x > 0 (principal value)."""
    _require_positive(x, "expi")
    return math.exp(x) * expi_scaled(x)


# ----------------------------------------------------------------------
# array forms of the exponential integrals
# ----------------------------------------------------------------------

def _per_element(step, state, terms: int) -> np.ndarray:
    """Iterate state, done = step(k, *state) for k = 1, 2, ... as the scalar
    loops do, each element on its own: it leaves the live set with its value
    state[0] once its own done holds."""
    out = np.empty_like(state[0])
    live = np.arange(out.size)
    for k in range(1, terms):
        state, done = step(k, *state)
        if done.any():
            out[live[done]] = state[0][done]
            keep = ~done
            live, state = live[keep], [part[keep] for part in state]
            if not live.size:
                return out
    out[live] = state[0]
    return out


def _e1_power_series_step(k, total, term, w):
    term = term * (-w / k)
    add = -term / k
    total = total + add
    return (total, term, w), np.abs(add) < 1e-18 * np.maximum(1.0, np.abs(total))


def _e1_continued_fraction_step(i, h, b, c, d):
    a = -float(i * i)
    b = b + 2.0
    d = 1.0 / (a * d + b)
    c = b + a / c
    delta = c * d
    return (h * delta, b, c, d), np.abs(delta - 1.0) < 1e-16


def _asymptotic_step(k, total, term, prev, w, *, sign):
    term = term * (sign * k / w)
    size = np.abs(term)
    grew = size > prev
    total = np.where(grew, total, total + term)
    return (total, term, size, w), grew | (size < 1e-18 * np.abs(total))


def _expi_series_step(k, total, term, x):
    term = term * (x / k)
    total = total + term / k
    return (total, term, x), term / k < 1e-18 * np.abs(total)


def _asymptotic_array(w: np.ndarray, sign: float) -> np.ndarray:
    """(1/w) * sum_k k! (sign/w)^k truncated at the smallest term: e^w E1(w)
    for sign -1, e^{-x} Ei(x) for sign +1 and real w = x."""
    ones = np.ones_like(w)
    step = functools.partial(_asymptotic_step, sign=sign)
    return _per_element(step, (ones, ones, np.ones(w.shape), w), _MAX_ASYMPTOTIC_TERMS) / w


def _e1_series_scaled_array(w: np.ndarray) -> np.ndarray:
    state = (np.zeros_like(w), np.ones_like(w), w)
    return np.exp(w) * (-EULER_GAMMA - np.log(w) + _per_element(_e1_power_series_step, state, _MAX_EXPINT_SERIES_TERMS))


def _e1_continued_fraction_scaled_array(w: np.ndarray) -> np.ndarray:
    d = 1.0 / (w + 1.0)
    return _per_element(_e1_continued_fraction_step, (d, w + 1.0, np.full_like(w, 1.0 / 1e-300), d), _MAX_CF_TERMS)


def _e1_lower_lip_array(w: np.ndarray) -> np.ndarray:
    x = -w.real
    out = np.empty_like(w)
    out.real, out.imag = -expi_scaled_array(x), math.pi * np.exp(-x)
    return out


def expi_scaled_array(x) -> np.ndarray:
    """e^{-x} Ei(x) elementwise over an array of x > 0: the power series for
    x <= _EI_SERIES_MAX, the asymptotic series above."""
    x = np.asarray(x, dtype=float)
    bad = ~((x > 0.0) & np.isfinite(x))
    if bad.any():
        raise DomainError(f"expi_scaled requires x > 0, got {x[bad][0]}")
    out = np.empty_like(x)
    series = x <= _EI_SERIES_MAX
    if series.any():
        v = x[series]
        state = (np.zeros_like(v), np.ones_like(v), v)
        total = _per_element(_expi_series_step, state, _MAX_EXPINT_SERIES_TERMS)
        out[series] = np.exp(-v) * (EULER_GAMMA + np.log(v) + total)
    if not series.all():
        out[~series] = _asymptotic_array(x[~series], 1.0)
    return out


def exp1_scaled_array(w) -> np.ndarray:
    """exp1_scaled elementwise over an array of w, by the same branches and
    with the same domain errors."""
    w = np.asarray(w, dtype=complex)
    _check_exp1_domain((w == 0).any(), (w.imag > 0.0).any())
    flat = w.ravel()
    re, r = flat.real, np.abs(flat)
    # (condition, evaluation) in the order of precedence of exp1_scaled; an
    # element takes the first branch whose condition it meets
    branches = [
        ((flat.imag == 0.0) & (re < 0.0), _e1_lower_lip_array),
        (r <= _E1_SERIES_RADIUS, _e1_series_scaled_array),
        (r >= _E1_ASYMPTOTIC_RADIUS, lambda v: _asymptotic_array(v, -1.0)),
        (re >= 0.0, _e1_continued_fraction_scaled_array),
        (r + re <= _E1_NEAR_AXIS, _e1_series_scaled_array),
    ]
    choice = np.select([cond for cond, _ in branches], range(len(branches)), len(branches))
    out = np.empty_like(flat)
    for index, evaluate in enumerate([evaluate for _, evaluate in branches] + [_e1_stieltjes_scaled_array]):
        mask = choice == index
        if mask.any():
            out[mask] = evaluate(flat[mask])
    return out.reshape(w.shape)
