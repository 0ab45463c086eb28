"""Special functions built in-repo from series, asymptotic expansions and
fixed Gauss rules.

The brute-force verification layer must not assume a host math library, so
the cylinder functions J0, J1, Y0, Y1, K0, K1 and the exponential integrals
are implemented here from scratch:

* J and Y: the ascending power series for x <= 2, as a fixed Horner
  polynomial of 13 terms.  Above 2 they are the real and imaginary parts of
  H^(1)_nu(x) = (2/(pi i)) e^{-i nu pi/2} K_nu(-ix) (DLMF 10.27.8), by the
  K integral below at z = -ix over the same Gauss rule (cf. Amos, ACM TOMS
  644, 1986), with the square roots in real arithmetic and the phase from
  cos x and sin x of the exact x.  Measured over (0, 1e6], the error is
  below 1e-15 of the envelope hypot(J, Y), and below 1e-12 of the value
  wherever |value| >= 1e-3 of the envelope.
* K: the ascending series for x <= 2, from the Horner table of J and Y at
  q = +x^2/4, whose rows then sum I0 and 2 I1/x; measured over (0, 2], the
  error is below 4e-15 of the value.  Beyond that the Hankel asymptotic
  series alone cannot reach 1e-10 until x ~ 18 while the series loses
  exp(2x) digits to cancellation, so the large-x branch evaluates the exact
  resummation of the asymptotic series,

      K_nu(x) = sqrt(pi/2x) e^{-x} / Gamma(nu+1/2)
                * Int_0^inf e^{-t} t^{nu-1/2} (1 + t/2x)^{nu-1/2} dt,

  as one dot product over the fixed nodes of three panels of the 60-point
  rule of _gauss_legendre (t = u^2 removes the endpoint singularity), with
  worst errors against mpmath of 9.2e-16 of hypot(J, Y) and 8.1e-16 of
  e^x K at 1,500 log-uniform x in (2, 1e6] (numpy's rule: 1.4e-15).
* e^w E1(w) on the closed lower half plane plus the positive real axis,
  by the first of these branches that holds, each a fixed number of terms
  (DLMF 6.6-6.12), with its largest measured error relative to the value:
  - the lower lip of the cut (Im w = 0 > Re w): e^{-x} (-Ei(x) + i pi) at
    x = -w, through Ei below;
  - |w| >= 40: the asymptotic series (6.12.1), 40 terms; 4.2e-16;
  - |w| + Re w <= 2: the power series (6.6.2), 104 terms, which cancels by
    at most e^{|w| + Re w}; 2.2e-15;
  - elsewhere the Stieltjes form Int_0^inf e^{-u}/(w+u) du (6.2.2) by a
    rule of 4 panels of 24 Gauss-Legendre nodes, where the pole u = -w lies
    at least 2 off the real axis or 1 from the origin; 2.1e-15.
  For real x > 0, exp1_scaled_real takes the power series at x <= 1 (18
  terms) and the same rule above.
* e^{-x} Ei(x) for x > 0: a Taylor series within 0.05 of the zero
  x0 = 0.3725 of Ei (24 terms), the power series (6.6.1) at x <= 40 (104
  terms), the asymptotic series (6.12.2) above (40 terms); 2.3e-15.
The errors are the largest against mpmath over the sweeps of
tests/test_special.py and 32,000 further points drawn in every branch.

_K_SWITCH = 2 is the one switch of all six cylinder functions.

exp1_scaled_array and expi_scaled_array evaluate e^w E1(w) and e^{-x} Ei(x)
over numpy arrays: each branch is a fixed sequence of numpy calls over the
elements its mask selects, whatever their values (polynomials by two
levels of Horner's rule, the rule by einsum) in blocks of 1024 elements.  They
are the one implementation of E1 and Ei on their domains; exp1_scaled and
expi_scaled are their 0-d calls, at 30-70 us.
bessel_jy_array gives J0, Y0, J1 and Y1 together over a numpy array and
bessel_k_scaled_array e^x K0 and e^x K1, by the same _evaluate, the rule in
blocks of 64 elements;
bessel_j_k_scaled_array gives J0 and J1 at one array and e^x K0 and e^x K1
at another, summing both series in one stacked pass.  The well takes all of
its Bessel values from such passes, and the gaussian pole search e^x E1(x)
from exp1_scaled_positive, exp1_scaled_real without its domain check, over
arrays of real x.  The Bessel names are their one-element calls.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "bessel_j0",
    "bessel_j1",
    "bessel_y0",
    "bessel_y1",
    "bessel_jy_array",
    "bessel_k0",
    "bessel_k1",
    "bessel_k_scaled_array",
    "bessel_j_k_scaled_array",
    "exp1_scaled",
    "exp1_scaled_array",
    "exp1_scaled_real",
    "exp1_scaled_positive",
    "expi_scaled",
    "expi_scaled_array",
    "EULER_GAMMA",
]

EULER_GAMMA = 0.5772156649015328606065121

# J, Y and K: ascending series at or below, the Gauss rule of the resummed
# asymptotic integral above.
_K_SWITCH = 2.0


# ----------------------------------------------------------------------
# ascending series of J, Y and K
# ----------------------------------------------------------------------

# Coefficients of the ascending series, in powers of q = -x^2/4 for J0,
# 2 J1/x and the harmonic sums of Y0 and Y1 (DLMF 10.8.1-2), and of
# q = +x^2/4 for I0, 2 I1/x and the harmonic sums of K0 and K1 (DLMF
# 10.31.1-2); each an integer ratio rounded once, with n! H_k an integer for
# k <= n.  At x <= _K_SWITCH the first term left out, k = _JY_SERIES_TERMS,
# lies below 1e-19.  Stacked as (terms, 4, 1), one Horner pass sums all
# four, each row by the operations of a pass of its own.
_JY_SERIES_TERMS = 13
_F = [math.factorial(k) for k in range(_JY_SERIES_TERMS + 1)]


def _factorial_harmonic(n: int, k: int) -> int:
    """n! H_k."""
    return sum(_F[n] // j for j in range(1, k + 1))


_JY_SERIES = np.array([
    [1 / _F[k] ** 2 for k in range(_JY_SERIES_TERMS)],
    [1 / (_F[k] * _F[k + 1]) for k in range(_JY_SERIES_TERMS)],
    [-_factorial_harmonic(k, k) / _F[k] ** 3 for k in range(_JY_SERIES_TERMS)],
    [(_factorial_harmonic(k + 1, k) + _factorial_harmonic(k + 1, k + 1)) / (_F[k] * _F[k + 1] ** 2)
     for k in range(_JY_SERIES_TERMS)],
]).T[:, :, None]


def _horner(q, coefficients):
    total = coefficients[-1]
    for c in coefficients[-2::-1]:
        total = total * q + c
    return total


def _jy_series(x):
    """J0, Y0, J1 and Y1 over an array of 0 < x <= _K_SWITCH."""
    j0, j1, y0, y1 = _horner(-0.25 * x * x, _JY_SERIES)
    j1 = 0.5 * x * j1
    lead = np.log(0.5 * x) + EULER_GAMMA
    y0 = (2.0 / math.pi) * (lead * j0 + y0)
    y1 = (2.0 / math.pi) * lead * j1 - 2.0 / (math.pi * x) - (x / (2.0 * math.pi)) * y1
    return j0, y0, j1, y1


def _k_series(x, rows=None):
    """e^x K0 and e^x K1 over an array of 0 < x <= _K_SWITCH, from the rows
    of the series table at q = +x^2/4 (summed here unless given): rows 0 and
    1 sum I0 and 2 I1/x, and with L = ln(x/2) + gamma, K0 = -L I0 - row 2
    and K1 = 1/x + L I1 - (x/4) row 3."""
    i0, i1, k0, k1 = _horner(0.25 * x * x, _JY_SERIES) if rows is None else rows
    lead = np.log(0.5 * x) + EULER_GAMMA
    scale = np.exp(x)
    return scale * (-lead * i0 - k0), scale * (1.0 / x + lead * 0.5 * x * i1 - 0.25 * x * k1)


# ----------------------------------------------------------------------
# modified functions K
# ----------------------------------------------------------------------

def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], n even, by three Newton
    steps from Tricomi's estimate of each root: its moments of t^k, k < 2n,
    are within 6e-16 at n = 24, 48 and 60, where numpy's rules miss by up to 9.7e-15."""
    t = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * np.arange(1, n // 2 + 1) - 1) / (4 * n + 2))
    for _ in range(4):
        p0, p1 = np.ones_like(t), t
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * t * p1 - (j - 1) * p0) / j
        dp = n * (t * p1 - p0) / (t * t - 1.0)
        t, nodes = t - p1 / dp, t
    weights = 2.0 / ((1.0 - nodes * nodes) * dp * dp)
    return np.concatenate([-nodes, nodes[::-1]]), np.concatenate([weights, weights[::-1]])


def _composite_gauss(panels, rule) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a rule (t, wt) on [-1, 1] mapped to each panel."""
    t, wt = rule
    nodes = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * t for a, b in panels])
    weights = np.concatenate([0.5 * (b - a) * wt for a, b in panels])
    return nodes, weights


# Fixed Gauss-Legendre panels for the resummed asymptotic integral, with the
# integrand's e^{-u^2} folded into the weights; u <= 9 truncates below 1e-35.
_K_NODES, _K_WEIGHTS = _composite_gauss(((0.0, 1.5), (1.5, 4.0), (4.0, 9.0)), _gauss_legendre(60))
_K_WEIGHTS = _K_WEIGHTS * np.exp(-_K_NODES**2)
_K_NODES_SQ = _K_NODES**2
_K_WEIGHTS_U2 = _K_WEIGHTS * _K_NODES_SQ


def _k_rule(x):
    """e^x K0 and e^x K1 over an array of x > _K_SWITCH, by the rule."""
    root = np.sqrt(1.0 + _K_NODES_SQ / (2.0 * x[:, None]))
    scale = np.sqrt(math.pi / (2.0 * x)) * (2.0 / math.sqrt(math.pi))
    return scale * _rule_sum(1.0 / root, _K_WEIGHTS), 2.0 * scale * _rule_sum(root, _K_WEIGHTS_U2)


# ----------------------------------------------------------------------
# J and Y
# ----------------------------------------------------------------------

# H^(1)_nu(x) = J_nu(x) + i Y_nu(x) = (2/(pi i)) e^{-i nu pi/2} K_nu(-ix)
# (DLMF 10.27.8) is the K integral above at z = -ix, where
# 1 + u^2/(2z) = 1 + i s with s = u^2/(2x):
#
#     H0(x) =  (2/(pi sqrt x)) (1 - i) e^{ix} Int e^{-u^2} (1 + i s)^{-1/2} du,
#     H1(x) = -(4/(pi sqrt x)) (1 + i) e^{ix} Int e^{-u^2} u^2 (1 + i s)^{1/2} du,
#
# both over the rule of K.  The square roots are taken in real arithmetic,
# (1 + i s)^{1/2} = h + i g and (1 + i s)^{-1/2} = (h - i g)/r with
# r = |1 + i s| = sqrt(1 + s^2), h = sqrt((1 + r)/2) and g = s/(2h); the
# phase comes from cos x and sin x of the exact x, never from a rounded
# x - pi/4.  s <= 9^2/4 at x > 2, so s^2 cannot overflow, and numpy's
# hypot would cost twice the whole sqrt(1 + s^2).


def _rule_sum(values, weights):
    """Sum over the nodes by einsum's own loop, which sums one x and each row
    of a block alike (BLAS need not, and its threads would spin on other
    cores after every large enough product)."""
    return np.einsum("...j,j->...", values, weights)


def _rotate(scale, a, b, cos, sin):
    """Re and Im of scale * e^{ix} (a + i b)."""
    return scale * (cos * a - sin * b), scale * (sin * a + cos * b)


def _jy_rule(x):
    """J0, Y0, J1 and Y1 over an array of x > _K_SWITCH, by the rule, whose
    nodes run along the last axis."""
    s = _K_NODES_SQ * (0.5 / x[:, None])
    r = np.sqrt(1.0 + s * s)
    h = np.sqrt(0.5 * r + 0.5)
    g = 0.5 * s / h
    cos, sin = np.cos(x), np.sin(x)
    re0, im0 = _rule_sum(h / r, _K_WEIGHTS), -_rule_sum(g / r, _K_WEIGHTS)
    re1, im1 = _rule_sum(h, _K_WEIGHTS_U2), _rule_sum(g, _K_WEIGHTS_U2)
    return (*_rotate(2.0 / (math.pi * x**0.5), re0 + im0, im0 - re0, cos, sin),
            *_rotate(-4.0 / (math.pi * x**0.5), re1 - im1, re1 + im1, cos, sin))


# Elements per block of the J, Y and K rule: 64 ran fastest against 32, 128
# and 512, and larger blocks also raise peak memory.
_JY_BLOCK = 64


def _positive_array(x, name: str) -> np.ndarray:
    """x as a float array whose elements must all be positive and finite."""
    x = np.asarray(x, dtype=float)
    bad = ~((x > 0.0) & np.isfinite(x))
    if bad.any():
        raise DomainError(f"{name} requires x > 0, got {x[bad][0]}")
    return x


# Elements per block of every other branch, which bounds its temporaries: 96
# nodes an element in the E1 rule, 13 complex rows in its series.
_EVALUATE_BLOCK = 1024


def _evaluate(x: np.ndarray, branches, rest, rows: int = 0, rest_block: int = _EVALUATE_BLOCK) -> np.ndarray:
    """Each element of the array x by the first (mask, evaluate) of branches
    whose mask it meets, in blocks of _EVALUATE_BLOCK, else by rest, in blocks
    of rest_block.  An evaluate maps a 1-d array to one of its type, or to
    ``rows`` such rows if rows > 0, stacked along a first axis."""
    flat = x.ravel()
    out = np.empty((rows, flat.size) if rows else flat.size, x.dtype)
    left = np.ones(flat.size, dtype=bool)
    for mask, evaluate, block in [*((m, e, _EVALUATE_BLOCK) for m, e in branches), (left, rest, rest_block)]:
        index = np.flatnonzero(mask.ravel() & left)
        if index.size:
            left[index] = False
            v = flat[index]
            for i in range(0, index.size, block):
                out[..., index[i:i + block]] = evaluate(v[i:i + block])
    return out.reshape((rows, *x.shape) if rows else x.shape)


def bessel_jy_array(x):
    """J0, Y0, J1 and Y1 elementwise over an array of x > 0, in one pass:
    the power series at x <= _K_SWITCH, the Gauss rule of H0 and H1 above."""
    x = _positive_array(x, "bessel_jy_array")
    return tuple(_evaluate(x, [(x <= _K_SWITCH, _jy_series)], _jy_rule, 4, _JY_BLOCK))


def bessel_k_scaled_array(x):
    """e^x K0(x) and e^x K1(x) elementwise over an array of x > 0: the series
    of the J/Y table at q = +x^2/4 at x <= _K_SWITCH, the Gauss rule of the
    resummed asymptotic integral above."""
    x = _positive_array(x, "bessel_k_scaled_array")
    return tuple(_evaluate(x, [(x <= _K_SWITCH, _k_series)], _k_rule, 2, _JY_BLOCK))


def bessel_j_k_scaled_array(x_j, x_k):
    """J0 and J1 at x_j and e^x K0 and e^x K1 at x_k, elementwise over two
    1-d arrays of x > 0 of one length.  Where both lie at or below
    _K_SWITCH, the series of J at q = -x_j^2/4 and of K at q = +x_k^2/4 are
    summed in one stacked Horner pass, to the bit the values of
    bessel_jy_array and bessel_k_scaled_array, which give the rest."""
    x_j, x_k = _positive_array(x_j, "bessel_j_k_scaled_array"), _positive_array(x_k, "bessel_j_k_scaled_array")
    out = np.empty((4, x_j.size))
    both = (x_j <= _K_SWITCH) & (x_k <= _K_SWITCH)
    if both.any():
        xj, xk = x_j[both], x_k[both]
        rows = _horner(np.concatenate([-0.25 * xj * xj, 0.25 * xk * xk]), _JY_SERIES)
        n = xj.size
        out[0, both], out[1, both] = rows[0, :n], 0.5 * xj * rows[1, :n]
        out[2:, both] = _k_series(xk, rows[:, n:])
    rest = ~both
    if rest.any():
        j0, _, j1, _ = bessel_jy_array(x_j[rest])
        out[:, rest] = (j0, j1, *bessel_k_scaled_array(x_k[rest]))
    return tuple(out)


def bessel_j0(x: float) -> float:
    """Bessel function J0 for x >= 0."""
    return 1.0 if x == 0.0 else float(bessel_jy_array(_positive_array([x], "bessel_j0"))[0][0])


def bessel_j1(x: float) -> float:
    """Bessel function J1 for x >= 0."""
    return 0.0 if x == 0.0 else float(bessel_jy_array(_positive_array([x], "bessel_j1"))[2][0])


def bessel_y0(x: float) -> float:
    """Bessel function Y0 for x > 0."""
    return float(bessel_jy_array(_positive_array([x], "bessel_y0"))[1][0])


def bessel_y1(x: float) -> float:
    """Bessel function Y1 for x > 0."""
    return float(bessel_jy_array(_positive_array([x], "bessel_y1"))[3][0])


def bessel_k0(x: float) -> float:
    """Modified Bessel function K0 for x > 0; underflows to 0 near x ~ 745,
    where e^x K0 of bessel_k_scaled_array does not."""
    return math.exp(-x) * float(bessel_k_scaled_array(_positive_array([x], "bessel_k0"))[0][0])


def bessel_k1(x: float) -> float:
    """Modified Bessel function K1 for x > 0; underflows to 0 near x ~ 745,
    where e^x K1 of bessel_k_scaled_array does not."""
    return math.exp(-x) * float(bessel_k_scaled_array(_positive_array([x], "bessel_k1"))[1][0])


# ----------------------------------------------------------------------
# exponential integrals
# ----------------------------------------------------------------------

# The switches of the branches in the module docstring.
_E1_ASYMPTOTIC_RADIUS = 40.0
_E1_NEAR_AXIS = 2.0
_EI_ZERO_RADIUS = 0.05
# Polynomials are summed in rows of _BLOCK coefficients.
_BLOCK = 8


def _columns(coefficients) -> np.ndarray:
    """Coefficients of ascending powers, a multiple of _BLOCK of them, as the
    (_BLOCK, rows, 1) array that _polynomial reads."""
    return np.reshape(np.asarray(coefficients, dtype=float), (-1, _BLOCK)).T[:, :, None].copy()


def _polynomial(x: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """sum_k c_k x^k over a 1-d array x by two levels of Horner's rule: each
    row of _BLOCK coefficients in x, all rows at once, then the rows in
    x^_BLOCK; 2 (_BLOCK + rows) numpy calls for any count."""
    rows = columns[-1]
    for c in columns[-2::-1]:
        rows = rows * x + c
    step = x * x
    step = step * step
    step = step * step
    total = rows[-1]
    for row in rows[-2::-1]:
        total = total * step + row
    return total


# E1(w) = -gamma - ln w + w sum_k (-1)^k w^k / ((k+1) (k+1)!), and the sum
# at w = -x is Ei(x) - gamma - ln x: at |w| < 40 the first term left out lies
# below 3e-18 of the sum of their sizes, e^{|w|}/|w|.  The asymptotic series
# (1/w) sum_k (-1)^k k!/w^k, also -e^{-x} Ei(x) at w = -x: 40!/40^40 = 6.7e-17.
_E1_SERIES = [(-1) ** k / ((k + 1) * math.factorial(k + 1)) for k in range(104)]
_E1_SERIES_COLUMNS = _columns(_E1_SERIES)
_E1_ASYMPTOTIC_COLUMNS = _columns([(-1) ** k * float(math.factorial(k)) for k in range(40)])
# x0 = _EI_ZERO + _EI_ZERO_LOW, ln of the Ramanujan-Soldner constant (DLMF
# 6.13); e^{-x} Ei(x) = e^{-h} (h/x0) sum_k c_k h^k/(k+1) at h = x - x0,
# the c_k those of e^h/(1 + h/x0), and (0.05/x0)^24 < 1e-20.  Each c_k is
# added left to right: Python 3.12's sum compensates, and would change bits.
_EI_ZERO, _EI_ZERO_LOW = 0.3725074107813666, 1.3140183414386028e-17
_EI_ZERO_COLUMNS = _columns([functools.reduce(float.__add__, ((-1 / _EI_ZERO) ** (k - j) / math.factorial(j)
                                                              for j in range(k + 1)), 0.0)
                             / ((k + 1) * _EI_ZERO) for k in range(24)])


# The Stieltjes rule, e^{-u} folded into the weights (u <= 55 truncates below
# 2e-24); 24 nodes a panel reach rounding where 16 left 4.5e-13 at w = 1.
_E1_PANELS = ((0.0, 4.0), (4.0, 12.0), (12.0, 28.0), (28.0, 55.0))
_E1_NODES, _E1_WEIGHTS = _composite_gauss(_E1_PANELS, _gauss_legendre(24))
_E1_WEIGHTS = _E1_WEIGHTS * np.exp(-_E1_NODES)


def _e1_stieltjes_scaled_array(w: np.ndarray) -> np.ndarray:
    """The rule, 1/(w + u) = (a - i y)/(a^2 + y^2) at a = Re w + u, y = Im w."""
    a = w.real[:, None] + _E1_NODES
    q = 1.0 / (a * a + (w.imag * w.imag)[:, None])
    out = np.empty_like(w)
    out.real = np.einsum("ij,ij,j->i", a, q, _E1_WEIGHTS)
    out.imag = -w.imag * _rule_sum(q, _E1_WEIGHTS)
    return out


def exp1_scaled_real(x) -> np.ndarray:
    """e^x E1(x) elementwise over an array of real x > 0: the power series at
    x <= 1 as a Horner polynomial of 18 terms, the Stieltjes rule above.
    Measured over [1e-300, 1e300], the error is below 1.3e-15 of the value."""
    return exp1_scaled_positive(_positive_array(x, "exp1_scaled_real"))


def exp1_scaled_positive(x: np.ndarray) -> np.ndarray:
    """exp1_scaled_real over a float array whose elements the caller knows
    to be positive and finite, unchecked: for a search that checks its range
    once and evaluates within it every step."""
    low = x <= 1.0
    # the series needs no blocks, whose temporaries bound the rule's memory
    if low.all():
        return _e1_real_series(x)
    return _evaluate(x, [(low, _e1_real_series)], _e1_real_rule)


def _e1_real_series(x: np.ndarray) -> np.ndarray:
    return np.exp(x) * (-EULER_GAMMA - np.log(x) + x * _horner(x, _E1_SERIES[:18]))


def _e1_real_rule(x: np.ndarray) -> np.ndarray:
    return _rule_sum(1.0 / (x[:, None] + _E1_NODES), _E1_WEIGHTS)


def exp1_scaled(w: complex) -> complex:
    """e^w E1(w) at one w: the 0-d case of exp1_scaled_array."""
    return complex(exp1_scaled_array([w])[0])


def expi_scaled(x: float) -> float:
    """e^{-x} Ei(x) at one x > 0: the 0-d case of expi_scaled_array."""
    return float(expi_scaled_array([x])[0])


def _e1_series_scaled_array(w: np.ndarray) -> np.ndarray:
    return np.exp(w) * (-EULER_GAMMA - np.log(w) + w * _polynomial(w, _E1_SERIES_COLUMNS))


def _e1_asymptotic_scaled_array(w: np.ndarray) -> np.ndarray:
    u = 1.0 / w
    return u * _polynomial(u, _E1_ASYMPTOTIC_COLUMNS)


def _e1_lower_lip_array(w: np.ndarray) -> np.ndarray:
    x = -w.real
    out = np.empty_like(w)
    out.real, out.imag = -expi_scaled_array(x), math.pi * np.exp(-x)
    return out


def _ei_near_zero_scaled_array(x: np.ndarray) -> np.ndarray:
    h = (x - _EI_ZERO) - _EI_ZERO_LOW
    return np.exp(-h) * h * _polynomial(h, _EI_ZERO_COLUMNS)


def _ei_series_scaled_array(x: np.ndarray) -> np.ndarray:
    return np.exp(-x) * (EULER_GAMMA + np.log(x) + x * _polynomial(-x, _E1_SERIES_COLUMNS))


def _ei_asymptotic_scaled_array(x: np.ndarray) -> np.ndarray:
    return -_e1_asymptotic_scaled_array(-x)


def expi_scaled_array(x) -> np.ndarray:
    """e^{-x} Ei(x) elementwise over an array of x > 0."""
    x = _positive_array(x, "expi_scaled")
    branches = [(np.abs(x - _EI_ZERO) <= _EI_ZERO_RADIUS, _ei_near_zero_scaled_array),
                (x <= _E1_ASYMPTOTIC_RADIUS, _ei_series_scaled_array)]
    return _evaluate(x, branches, _ei_asymptotic_scaled_array)


def exp1_scaled_array(w) -> np.ndarray:
    """e^w E1(w) elementwise over an array of w in the closed lower half plane
    or on the positive real axis (the image of upper-half-plane energies
    under w = -b*z), natively scaled: it stays O(1/w) where e^w alone would
    overflow.  The negative real axis is the lower lip of the cut, as the
    package branch policy has it."""
    w = np.asarray(w, dtype=complex)
    if (w == 0).any():
        raise DomainError("E1 diverges at w = 0")
    if (w.imag > 0.0).any():
        raise DomainError("exp1 is implemented for Im w <= 0 only")
    re, r = w.real, np.abs(w)
    branches = [((w.imag == 0.0) & (re < 0.0), _e1_lower_lip_array),
                (r >= _E1_ASYMPTOTIC_RADIUS, _e1_asymptotic_scaled_array),
                (r + re <= _E1_NEAR_AXIS, _e1_series_scaled_array)]
    return _evaluate(w, branches, _e1_stieltjes_scaled_array)
