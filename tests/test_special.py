"""Special-function accuracy against an arbitrary-precision reference and
against exact cross-identities (Wronskians, derivative relations)."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transmute_lab.errors import DomainError
from transmute_lab.special import (
    EULER_GAMMA,
    bessel_i0,
    bessel_i1,
    bessel_j0,
    bessel_j1,
    bessel_k0,
    bessel_k0_scaled,
    bessel_k1,
    bessel_k1_scaled,
    bessel_y0,
    bessel_y1,
    bessel_jy_array,
    exp1_scaled,
    exp1_scaled_array,
    expi,
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
        (bessel_i0, lambda x: mp.besseli(0, x)),
        (bessel_i1, lambda x: mp.besseli(1, x)),
    ],
    ids=["k0", "k1", "i0", "i1"],
)
def test_modified_functions_against_mpmath(ours, ref):
    for x in GRID:
        if ours in (bessel_i0, bessel_i1) and x > 200.0:
            continue  # I overflows the double range long before 700
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
    for column, flat in zip(bessel_jy_array(x), bessel_jy_array(x.ravel())):
        assert column.shape == (2, 2)
        assert column.ravel().tolist() == flat.tolist()
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="bessel_jy_array requires x > 0"):
            bessel_jy_array(np.array([3.0, bad]))


def test_scaled_k_no_underflow():
    for x in (500.0, 2000.0, 1e5):
        ref0 = float(mp.besselk(0, mp.mpf(x)) * mp.e**x)
        ref1 = float(mp.besselk(1, mp.mpf(x)) * mp.e**x)
        assert bessel_k0_scaled(x) == pytest.approx(ref0, rel=1e-12)
        assert bessel_k1_scaled(x) == pytest.approx(ref1, rel=1e-12)


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


def test_ik_wronskian():
    # I0(x) K1(x) + I1(x) K0(x) = 1/x
    for x in (0.1, 1.0, 10.0, 100.0):
        w = bessel_i0(x) * bessel_k1(x) + bessel_i1(x) * bessel_k0(x)
        assert w == pytest.approx(1.0 / x, rel=1e-10)


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
            assert expi(x) == pytest.approx(float(mp.ei(x)), rel=1e-12)

    def test_expi_scaled_large(self):
        for x in (50.0, 1e4):
            ref = float(mp.ei(mp.mpf(x)) * mp.e**-x)
            assert expi_scaled(x) == pytest.approx(ref, rel=1e-12)

    def test_exp1_lower_half_plane_polar_survey(self):
        # every method region: series, continued fraction, asymptotics, and
        # the Stieltjes wedge
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
            expi(-1.0)
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
def lower_half_plane(draw):
    r = draw(magnitudes)
    kind = draw(st.sampled_from(["phase", "lip", "below-lip"]))
    if kind == "lip":
        return complex(-r, draw(st.sampled_from([0.0, -0.0])))
    if kind == "below-lip":
        return complex(-r, -r * 10.0 ** draw(st.floats(-20.0, 0.0)))
    phase = draw(phases)
    return complex(r * math.cos(phase), r * math.sin(phase))


def exp1_scaled_mp(w: complex) -> complex:
    """e^w E1(w) by mpmath, with the negative axis as the lower lip,
    e^{-x} (-Ei(x) + i pi) at w = -x."""
    with mp.workdps(30):
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
