"""Special-function accuracy against an arbitrary-precision reference and
against exact cross-identities (Wronskians, derivative relations)."""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transmute_lab import special
from transmute_lab.errors import DomainError
from transmute_lab.special import (
    _E1_ASYMPTOTIC_RADIUS,
    _E1_NEAR_AXIS,
    _E1_PANELS,
    _EI_ZERO,
    _EI_ZERO_COLUMNS,
    _EI_ZERO_RADIUS,
    _K_NODES,
    _K_WEIGHTS,
    EULER_GAMMA,
    _columns,
    _composite_gauss,
    _gauss_legendre,
    bessel_j0,
    bessel_j1,
    bessel_k0,
    bessel_k1,
    bessel_y0,
    bessel_y1,
    bessel_j_k_scaled_array,
    bessel_jy_array,
    bessel_k_scaled_array,
    exp1_scaled,
    exp1_scaled_array,
    exp1_scaled_positive,
    exp1_scaled_real,
    expi_scaled,
    expi_scaled_array,
)
from transmute_lab.tolerances import SPECIAL_FUNCTION_RTOL

mp.mp.dps = 30

# log+linear grid straddling the series/integral switchover at 2, out to
# the contract edge
GRID = (
    [0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.3, 1.9999, 2.0, 2.0001, 3.0]
    + [4.0 + 0.7 * i for i in range(12)]
    + [11.9999, 12.0, 12.0001, 13.7, 21.3, 34.9, 55.1, 89.7, 144.9, 233.1, 377.7, 610.9, 700.0]
)


def envelope_rel_error(value, reference, x):
    """Relative error measured against max(|f|, oscillation envelope): the
    plain relative error is unbounded at the zeros of J and Y."""
    env = math.sqrt(2.0 / (math.pi * x)) if x > 1.0 else 1.0
    return abs(value - reference) / max(abs(reference), env)


@pytest.mark.parametrize(
    "ours,ref",
    [
        (bessel_j0, lambda x: mp.besselj(0, x)),
        (bessel_j1, lambda x: mp.besselj(1, x)),
        (bessel_y0, lambda x: mp.bessely(0, x)),
        (bessel_y1, lambda x: mp.bessely(1, x)),
    ],
    ids=["j0", "j1", "y0", "y1"],
)
def test_cylinder_functions_against_mpmath(ours, ref):
    for x in GRID:
        assert envelope_rel_error(ours(x), float(ref(mp.mpf(x))), x) < SPECIAL_FUNCTION_RTOL, x


@pytest.mark.parametrize(
    "ours,ref",
    [
        (bessel_k0, lambda x: mp.besselk(0, x)),
        (bessel_k1, lambda x: mp.besselk(1, x)),
    ],
    ids=["k0", "k1"],
)
def test_modified_functions_against_mpmath(ours, ref):
    for x in GRID:
        rel = abs(ours(x) - float(ref(mp.mpf(x)))) / abs(float(ref(mp.mpf(x))))
        assert rel < SPECIAL_FUNCTION_RTOL, x


# x log-uniform in (0, 1e6], with the decades of the integral branch (x > 2)
# drawn on their own as well
JY_PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)
cylinder_arguments = st.one_of(st.floats(-2.0, 6.0), st.floats(-300.0, 6.0)).map(lambda e: 10.0**e)
SCALAR_JY = (bessel_j0, bessel_y0, bessel_j1, bessel_y1)


@JY_PROPERTY
@given(xs=st.lists(cylinder_arguments, min_size=1, max_size=8))
def test_cylinder_columns_against_mpmath(xs):
    # J0, Y0, J1, Y1 from one column pass: within 1e-14 of the envelope
    # hypot(J, Y) everywhere, within SPECIAL_FUNCTION_RTOL of the value
    # wherever |value| >= 1e-3 of the envelope; the scalar names agree with
    # the column within 1e-15 of the envelope
    columns = bessel_jy_array(np.array(xs))
    for i, x in enumerate(xs):
        with mp.workdps(30):
            xm = mp.mpf(x)
            ref = [mp.besselj(0, xm), mp.bessely(0, xm), mp.besselj(1, xm), mp.bessely(1, xm)]
            envelopes = [float(mp.hypot(ref[0], ref[1]))] * 2 + [float(mp.hypot(ref[2], ref[3]))] * 2
            ref = [float(v) for v in ref]
        for got, value, envelope, scalar in zip((c[i] for c in columns), ref, envelopes, SCALAR_JY):
            assert abs(got - value) <= 1e-14 * envelope, (x, scalar.__name__)
            if abs(value) >= 1e-3 * envelope:
                assert abs(got - value) <= SPECIAL_FUNCTION_RTOL * abs(value), (x, scalar.__name__)
            assert abs(scalar(x) - got) <= 1e-15 * envelope, (x, scalar.__name__)


def test_cylinder_columns_keep_shape_and_domain():
    x = np.array([[0.5, 2.0], [2.5, 1e3]])
    for column_form in (bessel_jy_array, bessel_k_scaled_array):
        for column, flat in zip(column_form(x), column_form(x.ravel())):
            assert column.shape == (2, 2)
            assert column.ravel().tolist() == flat.tolist()
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match=f"{column_form.__name__} requires x > 0"):
                column_form(np.array([3.0, bad]))


def _series_then_rule_blocks(x, rows, series, rule):
    """The cylinder columns as they were evaluated before the blocked
    branch evaluator took them over: the series over every x <= 2 in one
    call, the rule over the rest in blocks of 64 elements."""
    out = np.empty((rows, x.size))
    low = x <= 2.0
    if low.any():
        out[:, low] = series(x[low])
    high = np.flatnonzero(~low)
    for start in range(0, high.size, 64):
        out[:, high[start:start + 64]] = rule(x[high[start:start + 64]])
    return tuple(out)


@pytest.mark.parametrize("n", [1, 64, 65, 200])
@pytest.mark.parametrize("lo", [0.01, 2.5], ids=["both-branches", "rule"])
def test_cylinder_columns_keep_their_bits(n, lo):
    # J0, Y0, J1, Y1, e^x K0 and e^x K1 at block edges of the rule: each row
    # is summed alike whatever its block, so the bits are those of the
    # unblocked series and the 64-element rule blocks
    x = np.geomspace(lo, 300.0, n)
    x = np.concatenate([x[::2], x[1::2]])
    jy = _series_then_rule_blocks(x, 4, special._jy_series, special._jy_rule)
    k = _series_then_rule_blocks(x, 2, special._k_series, special._k_rule)
    for columns, reference in ((bessel_jy_array(x), jy), (bessel_k_scaled_array(x), k)):
        for column, expected in zip(columns, reference):
            assert column.tobytes() == expected.tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pairs=st.lists(st.tuples(cylinder_arguments, cylinder_arguments), min_size=1, max_size=12))
def test_j_k_pairs_are_the_separate_columns(pairs):
    # the stacked series pass of J and K, and the rules beside it, give the
    # bits of the two separate column passes
    x_j, x_k = (np.array(v) for v in zip(*pairs))
    j0, _, j1, _ = bessel_jy_array(x_j)
    for pair, separate in zip(bessel_j_k_scaled_array(x_j, x_k), (j0, j1, *bessel_k_scaled_array(x_k))):
        assert pair.tobytes() == separate.tobytes()


def test_j_k_pairs_domain():
    for bad in (0.0, -1.0, math.inf, math.nan):
        for x_j, x_k in (([1.0, bad], [1.0, 1.0]), ([1.0, 1.0], [bad, 3.0])):
            with pytest.raises(DomainError, match="bessel_j_k_scaled_array requires x > 0"):
                bessel_j_k_scaled_array(np.array(x_j), np.array(x_k))


@JY_PROPERTY
@given(xs=st.lists(cylinder_arguments, min_size=1, max_size=8))
def test_k_columns_against_mpmath(xs):
    # e^x K0 and e^x K1 from one column pass over both branches: within
    # 1e-14 of the value, and the scalar names' K0 and K1 to the bit
    columns = bessel_k_scaled_array(np.array(xs))
    for i, x in enumerate(xs):
        with mp.workdps(30):
            refs = [float(mp.besselk(order, mp.mpf(x)) * mp.exp(mp.mpf(x))) for order in (0, 1)]
        for column, ref, scalar in zip(columns, refs, (bessel_k0, bessel_k1)):
            assert abs(column[i] - ref) <= 1e-14 * ref, (x, scalar.__name__)
            assert scalar(x) == math.exp(-x) * column[i], (x, scalar.__name__)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(x=st.one_of(st.floats(-300.0, math.log10(2.0)).map(lambda e: min(10.0**e, 2.0)), st.floats(1e-3, 2.0)))
def test_k_series_against_mpmath(x):
    # the ascending series from the J/Y table at q = +x^2/4, over (0, 2]
    with mp.workdps(30):
        refs = [float(mp.besselk(order, mp.mpf(x)) * mp.exp(mp.mpf(x))) for order in (0, 1)]
    for order, (ours, ref) in enumerate(zip(bessel_k_scaled_array(np.array([x])), refs)):
        assert abs(ours[0] - ref) <= 1e-14 * ref, (x, order)


def test_scaled_k_no_underflow():
    for x in (500.0, 2000.0, 1e5):
        ref0 = float(mp.besselk(0, mp.mpf(x)) * mp.e**x)
        ref1 = float(mp.besselk(1, mp.mpf(x)) * mp.e**x)
        k0, k1 = bessel_k_scaled_array(np.array([x]))
        assert k0[0] == pytest.approx(ref0, rel=1e-12)
        assert k1[0] == pytest.approx(ref1, rel=1e-12)


def test_j0_series_constant_term():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j1(0.0) == 0.0


def test_j0_first_zero_regression_pin():
    # root of our own series by bisection; standard value used only as a pin
    lo, hi = 2.0, 3.0
    f_lo = bessel_j0(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = bessel_j0(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    assert 0.5 * (lo + hi) == pytest.approx(2.404825557695773, abs=1e-10)


def test_jy_wronskian():
    # J0(x) Y1(x) - J1(x) Y0(x) = -2/(pi x)
    for x in (0.1, 1.0, 10.0, 100.0):
        w = bessel_j0(x) * bessel_y1(x) - bessel_j1(x) * bessel_y0(x)
        assert w == pytest.approx(-2.0 / (math.pi * x), rel=1e-10)


def _derivative_5point(f, x, h):
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


@pytest.mark.parametrize("x", [0.3, 1.1, 2.7, 8.3, 15.9, 120.7])
def test_derivative_relations(x):
    # J0' = -J1, K0' = -K1 via a 5-point stencil (truncation ~ h^4); the step
    # scales with x for K, whose derivatives grow like x^-5 near the origin
    dj0 = _derivative_5point(bessel_j0, x, 6e-3)
    assert dj0 == pytest.approx(-bessel_j1(x), abs=2e-10)
    if x < 500:
        dk0 = _derivative_5point(bessel_k0, x, 2e-3 * x)
        assert dk0 == pytest.approx(-bessel_k1(x), rel=3e-10)


class TestExponentialIntegrals:
    def test_expi_against_mpmath(self):
        for x in (1e-3, 0.5, 1.0, 7.7, 39.9, 40.1, 250.0, 700.0):
            assert math.exp(x) * expi_scaled(x) == pytest.approx(float(mp.ei(x)), rel=1e-12)

    def test_expi_scaled_large(self):
        for x in (50.0, 1e4):
            ref = float(mp.ei(mp.mpf(x)) * mp.e**-x)
            assert expi_scaled(x) == pytest.approx(ref, rel=1e-12)

    def test_exp1_lower_half_plane_polar_survey(self):
        # every method region: the power series, the Stieltjes rule and the
        # asymptotic series
        for r in (0.1, 1.0, 3.4, 3.6, 8.0, 15.0, 25.0, 39.0, 41.0, 300.0):
            for deg in (0, -20, -45, -80, -90, -100, -120, -150, -179):
                w = r * cmath.exp(1j * math.radians(deg))
                wm = mp.mpc(w.real, w.imag)
                ref = complex(mp.exp(wm) * mp.e1(wm))
                got = exp1_scaled(w)
                assert abs(got - ref) / abs(ref) < 1e-11, (r, deg)

    def test_exp1_negative_axis_is_lower_lip(self):
        # limit from below the cut: e^w E1(w) at w = -x - i0 is
        # e^{-x} (-Ei(x) + i pi)
        for x in (0.5, 3.0, 20.0):
            got = exp1_scaled(complex(-x, 0.0))
            assert got.real == pytest.approx(-float(mp.exp(-x) * mp.ei(x)), rel=1e-12)
            assert got.imag == math.pi * math.exp(-x)

    def test_exp1_scaled_huge_negative_axis(self):
        # e^w E1(w) stays finite where e^{-w} alone would overflow
        x = 800.0
        got = exp1_scaled(complex(x, -0.0))
        assert got.real == pytest.approx(1.0 / x, rel=1e-2)

    def test_domains(self):
        with pytest.raises(DomainError):
            exp1_scaled(0.0)
        with pytest.raises(DomainError):
            exp1_scaled(1.0 + 1.0j)
        with pytest.raises(DomainError):
            expi_scaled(-1.0)
        with pytest.raises(DomainError):
            bessel_y0(0.0)
        with pytest.raises(DomainError):
            bessel_k0(-2.0)
        with pytest.raises(DomainError):
            bessel_j0(-0.5)

    def test_euler_gamma_pin(self):
        assert EULER_GAMMA == pytest.approx(float(mp.euler), abs=1e-16)


# e^w E1(w) over the closed lower half plane: |w| log-uniform over the double
# range and the phase uniform in [-pi, 0], with both ends drawn on their own;
# the negative axis with Im w = +0.0 and -0.0 (both the lower lip of the
# cut); and points just below it, Im w = -|w| 10^e with e uniform in [-20, 0]
PROPERTIES = settings(max_examples=200, derandomize=True, deadline=None)
magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
phases = st.one_of(st.floats(-math.pi, 0.0), st.sampled_from([0.0, -0.5 * math.pi]))


@st.composite
def lower_half_plane(draw, radii=magnitudes):
    r = draw(radii)
    kind = draw(st.sampled_from(["phase", "lip", "below-lip"]))
    if kind == "lip":
        return complex(-r, draw(st.sampled_from([0.0, -0.0])))
    if kind == "below-lip":
        return complex(-r, -r * 10.0 ** draw(st.floats(-20.0, 0.0)))
    phase = draw(phases)
    return complex(r * math.cos(phase), r * math.sin(phase))


def exp1_scaled_mp(w: complex, dps: int = 30) -> complex:
    """e^w E1(w) by mpmath, with the negative axis as the lower lip,
    e^{-x} (-Ei(x) + i pi) at w = -x."""
    with mp.workdps(dps):
        if w.imag == 0.0 and w.real < 0.0:
            x = mp.mpf(-w.real)
            return complex(-mp.exp(-x) * mp.ei(x), math.pi * mp.exp(-x))
        wm = mp.mpc(w.real, w.imag)
        return complex(mp.exp(wm) * mp.e1(wm))


def assert_exp1_close(got, w):
    ref = exp1_scaled_mp(w)
    assert abs(got - ref) <= SPECIAL_FUNCTION_RTOL * abs(ref), (w, got, ref)


class TestExponentialIntegralProperties:
    @PROPERTIES
    @given(w=lower_half_plane())
    def test_exp1_scaled_against_mpmath(self, w):
        assert_exp1_close(exp1_scaled(w), w)

    @PROPERTIES
    @given(ws=st.lists(lower_half_plane(), min_size=1, max_size=20))
    def test_exp1_scaled_array_against_mpmath(self, ws):
        for w, got in zip(ws, exp1_scaled_array(np.array(ws)).tolist()):
            assert_exp1_close(got, w)

    @PROPERTIES
    @given(xs=st.lists(magnitudes, min_size=1, max_size=20))
    def test_expi_scaled_array_against_mpmath(self, xs):
        for x, got in zip(xs, expi_scaled_array(np.array(xs)).tolist()):
            with mp.workdps(30):
                ref = float(mp.exp(-mp.mpf(x)) * mp.ei(mp.mpf(x)))
            assert abs(got - ref) <= SPECIAL_FUNCTION_RTOL * abs(ref), x

    def test_array_keeps_shape(self):
        w = np.array([[0.5 - 0.5j, -3.0 + 0.0j], [-30.0 - 20.0j, 1e5 - 1e5j]])
        values = exp1_scaled_array(w)
        assert values.shape == (2, 2)
        assert values.ravel().tolist() == exp1_scaled_array(w.ravel()).tolist()

    @pytest.mark.parametrize("w", [np.array([1.0 - 1.0j, 0.0]), np.array([-2.0 - 0.0j, 1.0 + 1.0j]),
                                   np.array([0.0 + 1e-300j])],
                             ids=["zero", "upper-half-plane", "zero-first"])
    def test_array_domain_errors_match_scalar(self, w):
        with pytest.raises(DomainError) as scalar:
            for v in w.tolist():
                exp1_scaled(v)
        with pytest.raises(DomainError) as array:
            exp1_scaled_array(w)
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_expi_array_domain_errors_match_scalar(self, x):
        with pytest.raises(DomainError) as scalar:
            expi_scaled(x)
        with pytest.raises(DomainError) as array:
            expi_scaled_array(np.array([2.0, x]))
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("w", [-1e3 - 1e-3j, -1e3 - 1j, -1e5 - 1e3j, -1e8 - 1j, -1e300 - 1j, -40.0 - 1e-3j],
                             ids=["1e3-1e-3i", "1e3-1i", "1e5-1e3i", "1e8-1i", "1e300-1i", "40-1e-3i"])
    def test_finite_near_the_negative_axis_far_out(self, w):
        # the power series overflowed here before the asymptotic branch was
        # taken first for |w| >= 40
        assert_exp1_close(exp1_scaled(w), w)
        assert_exp1_close(complex(exp1_scaled_array(np.array([w]))[0]), w)


# |w| also uniform in [3.5, 40], which holds the Stieltjes rule and the
# near-axis series
every_branch = lower_half_plane(st.one_of(magnitudes, st.floats(3.5, 40.0)))


@PROPERTIES
@given(w=every_branch)
def test_exp1_scaled_is_the_one_element_array_call(w):
    # the same value to the bit, sign of zero included
    assert repr(exp1_scaled(w)) == repr(complex(exp1_scaled_array([w])[0])), w


# x log-uniform over [1e-300, 1e300], and over [1e-2, 1e2] about the switch
# from the power series to the Stieltjes rule at 1
real_arguments = st.one_of(st.floats(-300.0, 300.0), st.floats(-2.0, 2.0)).map(lambda e: 10.0**e)


@PROPERTIES
@given(x=st.one_of(real_arguments, st.sampled_from([1.0, math.nextafter(1.0, 2.0)])))
def test_exp1_scaled_real_against_mpmath(x):
    # the element of a column that also holds both branches
    with mp.workdps(30):
        ref = float(mp.exp(mp.mpf(x)) * mp.e1(mp.mpf(x)))
    assert abs(exp1_scaled_real([0.5, x, 3.0])[1] - ref) <= 2e-15 * ref, x


@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
def test_exp1_scaled_real_domain(x):
    with pytest.raises(DomainError, match="exp1_scaled_real requires x > 0"):
        exp1_scaled_real([2.0, x])


def test_exp1_scaled_positive_is_the_real_kernel():
    # the unchecked form gives exp1_scaled_real's bits on both branches
    x = np.geomspace(1e-300, 1e300, 2001)
    assert exp1_scaled_positive(x).tobytes() == exp1_scaled_real(x).tobytes()
    assert exp1_scaled_positive(x[x <= 1.0]).tobytes() == exp1_scaled_real(x[x <= 1.0]).tobytes()


def test_ei_zero_coefficients_add_left_to_right():
    # Python 3.12's sum compensates, and changes 15 of these 24 sums in the
    # last bits; the coefficients are those of a plain loop on any version
    coefficients = []
    for k in range(24):
        total = 0.0
        for j in range(k + 1):
            total += (-1 / _EI_ZERO) ** (k - j) / math.factorial(j)
        coefficients.append(total / ((k + 1) * _EI_ZERO))
    assert _EI_ZERO_COLUMNS.tobytes() == _columns(coefficients).tobytes()


# ----------------------------------------------------------------------
# the Gauss rules of the Stieltjes and cylinder integrals
# ----------------------------------------------------------------------

def moment_errors(t, wt):
    """|sum_i wt_i t_i^k - Int_{-1}^{1} t^k dt| for k < 2n, in exact rationals
    of the float nodes and weights."""
    t, wt = [Fraction(float(v)) for v in t], [Fraction(float(v)) for v in wt]
    return [abs(float(sum(w * x**k for w, x in zip(wt, t)) - (Fraction(2, k + 1) if k % 2 == 0 else 0)))
            for k in range(2 * len(t))]


@pytest.mark.parametrize("n", [24, 48, 60])
def test_gauss_legendre_moments(n):
    # numpy's leggauss(48) misses the t^2 moment by 5.5e-15
    assert max(moment_errors(*_gauss_legendre(n))) <= 6e-16


def test_cylinder_rule_is_the_in_repo_generator():
    # the J/Y/K rule: three panels of the 60-point rule of _gauss_legendre,
    # e^{-u^2} folded into the weights, bit for bit
    nodes, weights = _composite_gauss(((0.0, 1.5), (1.5, 4.0), (4.0, 9.0)), _gauss_legendre(60))
    assert _K_NODES.tobytes() == nodes.tobytes()
    assert _K_WEIGHTS.tobytes() == (weights * np.exp(-nodes**2)).tobytes()


def test_stieltjes_panel_moments():
    # each panel integrates t^k, k < 2n, in its own variable t = (u - c)/h
    nodes, weights = _composite_gauss(_E1_PANELS, _gauss_legendre(24))
    for (a, b), u, w in zip(_E1_PANELS, np.split(nodes, len(_E1_PANELS)), np.split(weights, len(_E1_PANELS))):
        c, h = (Fraction(a) + Fraction(b)) / 2, (Fraction(b) - Fraction(a)) / 2
        local = [(Fraction(float(v)) - c) / h for v in u]
        assert max(moment_errors(local, [Fraction(float(v)) / h for v in w])) <= 6e-16, (a, b)


# ----------------------------------------------------------------------
# accuracy sweep of the exponential integrals
# ----------------------------------------------------------------------

def ulps_around(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


def e1_sweep():
    """|w| log-spaced over [1e-3, 1e3] at angles over [-pi, 0], the lip with
    both zeros, and w within an ulp of every branch boundary: |w| = 40,
    |w| + Re w = 2, the lip and just below it."""
    points = [complex(r * math.cos(t), r * math.sin(t))
              for r in np.logspace(-3, 3, 61) for t in np.linspace(-math.pi, 0.0, 37)]
    points += [complex(-r, zero) for r in np.logspace(-3, 3, 25) for zero in (0.0, -0.0)]
    for t in np.linspace(-math.pi, 0.0, 13):
        points += [complex(r * math.cos(t), r * math.sin(t)) for r in ulps_around(_E1_ASYMPTOTIC_RADIUS)]
    for x in (0.0, 0.5, 3.0, 10.0, 30.0, 39.0):
        # |w| + Re w = 2 at Re w = -x, Im w = -sqrt(4 + 4x)
        points += [complex(-x, -y) for y in ulps_around(math.sqrt(_E1_NEAR_AXIS**2 + 2 * _E1_NEAR_AXIS * x))]
    points += [complex(x, -0.0) for x in ulps_around(0.5 * _E1_NEAR_AXIS)]
    for x in (1e-3, 0.5, 2.0, 39.9, 40.0, 40.1, 500.0):
        points += [complex(-x, -y) for y in (5e-324, 1e-300, 1e-8)]
    return np.array(points)


def expi_sweep():
    """x log-spaced over [1e-300, 1e300] and over [1e-3, 1e3], and x within an
    ulp of every branch boundary and of the zero of Ei."""
    points = list(np.logspace(-300, 300, 121)) + list(np.logspace(-3, 3, 241))
    for x in (_E1_ASYMPTOTIC_RADIUS, _EI_ZERO - _EI_ZERO_RADIUS, _EI_ZERO + _EI_ZERO_RADIUS, _EI_ZERO):
        points += ulps_around(x)
    points += [_EI_ZERO + d for d in (1e-12, 1e-8, 1e-4, -1e-6, -1e-3)]
    return np.array(points)


def test_exp1_scaled_array_sweep():
    w = e1_sweep()
    ref = np.array([exp1_scaled_mp(v, dps=40) for v in w.tolist()])
    err = np.abs(exp1_scaled_array(w) - ref) / np.abs(ref)
    assert err.max() <= 1e-14, w[err.argmax()]


def test_expi_scaled_array_sweep():
    x = expi_sweep()
    with mp.workdps(40):
        ref = np.array([float(mp.exp(-mp.mpf(v)) * mp.ei(mp.mpf(v))) for v in x.tolist()])
    err = np.abs(expi_scaled_array(x) - ref) / np.abs(ref)
    assert err.max() <= 1e-14, x[err.argmax()]
