"""Amplitude in all three regimes: exact zero, regulated, renormalized; the
sliding flow; bound-state poles; and the two limiting processes."""

import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from transmute_lab.amplitude import (
    Amplitude,
    FlowPoint,
    _decade_cutoff,
    amplitudes_over_cutoffs,
    amplitudes_over_cutoffs_array,
    bound_state_pole,
    cutoff_envelope_array,
    on_shell_amplitude_array,
    regulated_amplitude,
    regulated_amplitude_array,
    renormalized_amplitude,
    renormalized_amplitude_array,
    slide_amplitude,
    transmutation_schedule,
    transmutation_schedule_array,
)
from transmute_lab.energy_plane import ComplexEnergy, PhysicalScales, principal_log_ratio
from transmute_lab.errors import (
    DomainError,
    NoBoundStateError,
    PoleSingularityError,
    SingularInputError,
    TransmuteLabError,
)
from transmute_lab.oracle.quadrature import quadrature_resolvent, upper_half_residue
from transmute_lab.regulators import GaussianFormFactor, PureDelta, SharpCutoff
from transmute_lab.tolerances import (
    ANCHOR_INDEPENDENCE_RTOL,
    FLOW_GROUP_RTOL,
    RESIDUE_RTOL,
    SPECIAL_FUNCTION_RTOL,
)
from test_energy_plane import random_upper_half_point

mp.mp.dps = 30
FOUR_PI = 4.0 * math.pi


class TestRegulatedAmplitude:
    def test_pure_delta_is_exact_zero(self):
        for z in (ComplexEnergy(0.0, 1.0), ComplexEnergy.continuum(5.0), ComplexEnergy(-2.0, 0.0)):
            amp = regulated_amplitude(1.0, PureDelta(), z)
            assert amp.tau == 0
            assert amp.exact_zero

    def test_independent_quadrature_route(self):
        # direct closed form vs tau rebuilt from the brute-force resolvent
        eps, reg = FOUR_PI, SharpCutoff(math.e**8)
        z = ComplexEnergy.continuum(1.0)
        direct = regulated_amplitude(eps, reg, z).tau
        g_quad, _ = quadrature_resolvent(reg, z)
        indirect = -eps / (1.0 + eps * g_quad)
        assert abs(direct - indirect) <= 1e-8 * abs(direct)

    def test_inverse_structure_on_continuum(self):
        # 1/tau = -1/eps - I with Im(1/tau) = +1/4 below the cutoff
        eps, lam = FOUR_PI, math.e**8
        inv = 1.0 / regulated_amplitude(eps, SharpCutoff(lam), ComplexEnergy.continuum(1.0)).tau
        assert inv.imag == pytest.approx(0.25, abs=1e-15)
        assert inv.real == pytest.approx(-1.0 / eps - math.log(1.0 / (lam - 1.0)) / FOUR_PI, rel=1e-12)

    def test_pole_signal_at_exact_pole(self):
        eps, lam = 2.0, 10.0
        e_pole = lam / math.expm1(FOUR_PI / eps)
        with pytest.raises(PoleSingularityError):
            regulated_amplitude(eps, SharpCutoff(lam), ComplexEnergy(-e_pole, 0.0))

    def test_small_coupling_linearity(self):
        z = ComplexEnergy(0.0, 1.0)
        for eps in (1e-4, 1e-6):
            tau = regulated_amplitude(eps, SharpCutoff(100.0), z).tau
            assert abs(tau / (-eps) - 1.0) < eps

    def test_coupling_domain(self):
        with pytest.raises(DomainError):
            regulated_amplitude(-1.0, SharpCutoff(1.0), ComplexEnergy(0.0, 1.0))


class TestSlide:
    def test_identity(self):
        anchor = FlowPoint(ComplexEnergy(0.0, 1.0), Amplitude(0.3 + 0.1j))
        assert slide_amplitude(anchor, ComplexEnergy(0.0, 1.0)).tau == 0.3 + 0.1j

    def test_zero_fixed_point(self):
        anchor = FlowPoint(ComplexEnergy(0.0, 1.0), Amplitude(0.0j, exact_zero=True))
        out = slide_amplitude(anchor, ComplexEnergy(4.0, 5.0))
        assert out.tau == 0
        assert out.exact_zero

    def test_hand_value_e4(self):
        # tau0 = 4 pi slid up four e-folds: 1/tau = (1 - 4)/(4 pi) -> -4 pi/3
        anchor = FlowPoint(ComplexEnergy(0.0, 1.0), Amplitude(complex(FOUR_PI)))
        out = slide_amplitude(anchor, ComplexEnergy(0.0, math.e**4))
        assert out.tau == pytest.approx(-FOUR_PI / 3.0, rel=1e-14)

    def test_running_relation_random_pairs(self):
        # 1/tau(z) - 1/tau(z0) + ln(z/z0)/(4 pi) = 0 to 1e-12 absolute
        rng = random.Random(7)
        for _ in range(100):
            z0 = random_upper_half_point(rng)
            z = random_upper_half_point(rng)
            tau0 = complex(rng.uniform(-3, 3), rng.uniform(-3, 0))
            if abs(tau0) < 1e-2:
                continue
            anchor = FlowPoint(z0, Amplitude(tau0))
            try:
                tau = slide_amplitude(anchor, z).tau
            except PoleSingularityError:
                continue
            residual = 1.0 / tau - 1.0 / tau0 + principal_log_ratio(z, z0) / FOUR_PI
            assert abs(residual) <= 1e-12

    def test_flow_group_property(self):
        rng = random.Random(1234)
        for _ in range(100):
            z0, z1, z2 = (random_upper_half_point(rng) for _ in range(3))
            tau0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 0))
            if abs(tau0) < 1e-2:
                continue
            anchor = FlowPoint(z0, Amplitude(tau0))
            try:
                via = slide_amplitude(FlowPoint(z1, slide_amplitude(anchor, z1)), z2)
                direct = slide_amplitude(anchor, z2)
            except PoleSingularityError:
                continue
            assert abs(via.tau - direct.tau) <= 1e-12 * max(1.0, abs(direct.tau))

    def test_anchor_independence_of_regulated_flow(self):
        # direct regulated evaluation equals transport from any anchor using
        # the same regulator's kernel
        eps = 2.5
        z_list = [ComplexEnergy(0.0, 0.7), ComplexEnergy(-1.3, 0.0), ComplexEnergy(2.0, 4.0)]
        anchors = [ComplexEnergy(0.0, 3.0), ComplexEnergy(-0.2, 1.1)]
        for reg in (SharpCutoff(40.0), GaussianFormFactor(0.3)):
            for z0 in anchors:
                anchor = FlowPoint(z0, regulated_amplitude(eps, reg, z0))
                for z in z_list:
                    direct = regulated_amplitude(eps, reg, z).tau
                    slid = slide_amplitude(anchor, z, reg).tau
                    assert abs(slid - direct) <= ANCHOR_INDEPENDENCE_RTOL * abs(direct)

    def test_pole_signal_carries_location(self):
        anchor = FlowPoint(ComplexEnergy(0.0, 1.0), Amplitude(complex(FOUR_PI)))
        with pytest.raises(PoleSingularityError) as err:
            slide_amplitude(anchor, ComplexEnergy(0.0, math.e))
        assert err.value.pole_energy == pytest.approx(math.e * 1j, rel=1e-12)


class TestRenormalized:
    def test_resonance_value(self):
        assert renormalized_amplitude(1.0, ComplexEnergy.continuum(1.0)).tau == -4j
        assert renormalized_amplitude(0.37, 0.37).tau == -4j

    def test_e_pi_value(self):
        tau = renormalized_amplitude(1.0, ComplexEnergy.continuum(math.exp(math.pi))).tau
        assert tau == pytest.approx(-2.0 - 2.0j, rel=1e-15)

    def test_pole_signal(self):
        with pytest.raises(PoleSingularityError) as err:
            renormalized_amplitude(2.0, ComplexEnergy(-2.0, 0.0))
        assert err.value.pole_energy == -2.0

    def test_simple_pole_expansion(self):
        # tau ~ 4 pi E_B / (z + E_B) near the pole
        e_b = 0.8
        for delta in (1e-4, 1e-5):
            z = ComplexEnergy(-e_b * (1.0 + delta), 0.0)
            tau = renormalized_amplitude(e_b, z).tau
            expected = FOUR_PI * e_b / (z.re + e_b)
            assert tau.real == pytest.approx(expected, rel=2.0 * delta)

    def test_pole_residue_contour_extraction(self):
        # symmetric contour average at two radii with a Richardson step
        e_b = 1.7

        def f(z):
            return renormalized_amplitude(e_b, z).tau

        r1, r2 = 1e-4 * e_b, 1e-5 * e_b
        res1 = upper_half_residue(f, -e_b, r1)
        res2 = upper_half_residue(f, -e_b, r2)
        refined = (r1 * res2 - r2 * res1) / (r1 - r2)
        assert refined.real == pytest.approx(FOUR_PI * e_b, rel=RESIDUE_RTOL)
        assert abs(refined.imag) <= RESIDUE_RTOL * FOUR_PI * e_b

    def test_scale_free(self):
        # only z/E_B enters
        t1 = renormalized_amplitude(1.0, ComplexEnergy(0.5, 2.0)).tau
        t2 = renormalized_amplitude(4.0, ComplexEnergy(2.0, 8.0)).tau
        assert t1 == t2


class TestBoundStatePole:
    def test_sharp_cutoff_exact_root(self):
        for eps in (0.5, 1.0, 4.0, 8.0):
            for lam in (1.0, 10.0, 1e3):
                found = bound_state_pole(eps, SharpCutoff(lam)).energy
                exact = lam / math.expm1(FOUR_PI / eps)
                assert found == pytest.approx(exact, rel=1e-12)

    def test_tiny_cutoff_search_limit(self):
        # Lambda * 1e-300 underflows; the search stops at the smallest normal
        # double instead of evaluating g at z = 0
        lam = 1e-30
        found = bound_state_pole(1.0, SharpCutoff(lam)).energy
        assert found == pytest.approx(lam / math.expm1(FOUR_PI), rel=1e-12)

    def test_closed_form_band(self):
        # relative deviation from Lambda e^{-4 pi/eps} is at most 2 E_B/Lambda
        for eps in (0.5, 1.0, 2.0, 4.0, 8.0):
            lam = 1.0
            found = bound_state_pole(eps, SharpCutoff(lam)).energy
            closed = lam * math.exp(-FOUR_PI / eps)
            assert abs(found - closed) / closed <= 2.0 * found / lam

    def test_scaling_regime_example(self):
        found = bound_state_pole(1.0, SharpCutoff(1.0)).energy
        assert found == pytest.approx(math.exp(-FOUR_PI), rel=4e-6)
        assert found == pytest.approx(3.4873e-6, rel=1e-4)

    def test_residue_near_4pi_eb(self):
        state = bound_state_pole(1.0, SharpCutoff(1.0))
        assert state.residue == pytest.approx(FOUR_PI * state.energy, rel=1e-5)

    def test_gaussian_against_independent_gap_equation(self):
        # e^{x} E1(x) = 4 pi / eps at x = b E_B, solved here with mpmath
        reg = GaussianFormFactor(1.0)
        for eps in (1.0, 2.0):
            found = bound_state_pole(eps, reg).energy
            target = FOUR_PI / eps
            x = mp.findroot(lambda t: mp.e**t * mp.e1(t) - target, mp.mpf(found))
            assert found == pytest.approx(float(x), rel=1e-10)

    def test_gaussian_prefactor_trend(self):
        # E_B -> e^{-gamma} (kappa/a^2) e^{-4 pi/eps} in the scaling regime
        reg = GaussianFormFactor(1.0)
        eps = 0.5
        found = bound_state_pole(eps, reg).energy
        predicted = math.exp(-0.5772156649015329) * math.exp(-FOUR_PI / eps)
        assert found == pytest.approx(predicted, rel=5e-3)

    def test_pure_delta_never_binds(self):
        with pytest.raises(NoBoundStateError) as err:
            bound_state_pole(1.0, PureDelta())
        assert err.value.exact

    def test_unbracketable_root(self):
        with pytest.raises(NoBoundStateError) as err:
            bound_state_pole(0.01, SharpCutoff(1.0))
        assert not err.value.exact

    def test_kinetic_constant_scaling(self):
        # energies scale with kappa at fixed lengths
        base = bound_state_pole(1.5, GaussianFormFactor(1.0)).energy
        scaled = bound_state_pole(1.5, GaussianFormFactor(1.0), PhysicalScales(3.0)).energy
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)


class TestCutoffRemoval:
    def test_monotone_beyond_peak_and_envelope(self):
        eps = 1.0
        z = ComplexEnergy(0.0, 1.0)
        schedule = [10.0**n for n in range(2, 13, 2)]
        amps = amplitudes_over_cutoffs(eps, z, schedule)
        peak = z.magnitude() * math.exp(FOUR_PI / eps)
        beyond = [(lam, abs(a.tau)) for lam, a in zip(schedule, amps) if lam > peak]
        assert len(beyond) >= 3
        assert all(b2 < b1 for (_, b1), (_, b2) in zip(beyond, beyond[1:]))
        lams, mags = zip(*beyond)
        bounds = cutoff_envelope_array(eps, z.magnitude(), lams)
        assert not np.isnan(bounds).any() and (np.array(mags) <= bounds).all()
        # NaN where the envelope is vacuous: at and below the peak
        assert np.isnan(cutoff_envelope_array(eps, z.magnitude(), [lam for lam in schedule if lam <= peak])).all()

    def test_tail_slope_is_one_over_4pi(self):
        # the asymptotic running 1/|tau| ~ ln(Lambda)/(4 pi): fit on the tail
        eps = 1.0
        z = ComplexEnergy(0.0, 1.0)
        schedule = [10.0**n for n in range(12, 21, 2)]
        amps = amplitudes_over_cutoffs(eps, z, schedule)
        xs = [math.log(lam) for lam in schedule]
        ys = [1.0 / abs(a.tau) for a in amps]
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        assert slope == pytest.approx(1.0 / FOUR_PI, rel=0.01)

    def test_infinite_cutoff_limit_is_zero(self):
        eps = 1.0
        z = ComplexEnergy(0.0, 1.0)
        tail = amplitudes_over_cutoffs(eps, z, [1e30, 1e60, 1e120])
        mags = [abs(a.tau) for a in tail]
        assert mags[-1] < mags[0] < 0.25
        assert mags[-1] == pytest.approx(FOUR_PI / math.log(1e120), rel=0.1)

    def test_schedule_validation(self):
        with pytest.raises(DomainError):
            amplitudes_over_cutoffs(1.0, ComplexEnergy(0.0, 1.0), [10.0, 5.0])
        with pytest.raises(DomainError):
            amplitudes_over_cutoffs(1.0, ComplexEnergy(0.0, 2.0), [1.0, 10.0])

    def test_objects_are_the_array(self):
        z, schedule = ComplexEnergy(0.3, 1.0), np.geomspace(2.0, 1e200, 50)
        tau = amplitudes_over_cutoffs_array(1.2, z, schedule)
        assert [a.tau for a in amplitudes_over_cutoffs(1.2, z, iter(schedule.tolist()))] == tau.tolist()


class TestTransmutation:
    def test_deviation_shrinks_monotonically(self):
        steps = transmutation_schedule(1.0, ComplexEnergy.continuum(2.0), 10)
        devs = [s.deviation for s in steps]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-9

    def test_pole_position_tracks_target(self):
        e_b = 1.0
        prev = math.inf
        for step in transmutation_schedule(e_b, ComplexEnergy.continuum(2.0), 8):
            pole = bound_state_pole(step.coupling, SharpCutoff(step.cutoff)).energy
            gap = abs(pole - e_b)
            assert gap < prev or gap < 1e-12
            prev = gap
        assert prev <= 1e-7

    def test_interior_point(self):
        steps = transmutation_schedule(0.3, ComplexEnergy(-0.1, 0.9), 6)
        assert steps[-1].deviation < steps[0].deviation

    def test_steps_carry_the_closed_form(self):
        z = ComplexEnergy(-0.1, 0.9)
        target = renormalized_amplitude(0.3, z).tau
        for step in transmutation_schedule(0.3, z, 6):
            assert step.closed_form == target
            assert step.deviation == abs(step.amplitude.tau - target)

    def test_validation(self):
        with pytest.raises(DomainError):
            transmutation_schedule(0.0, ComplexEnergy(0.0, 1.0), 5)
        with pytest.raises(DomainError):
            transmutation_schedule(1.0, ComplexEnergy(0.0, 1.0), 1)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(log_e_b=st.floats(-300.0, 300.0), phase=st.floats(0.0, math.pi), log_z=st.floats(-3.0, 3.0),
           steps=st.integers(2, 40))
    def test_steps_are_the_columns(self, log_e_b, phase, log_z, steps):
        # each step holds the bits of its row of the columns, and the columns
        # the bits of the per-step formulas: e_b * 10.0**n, 4 pi/(n ln 10)
        # and Python's abs of the complex difference
        e_b, r = 10.0**log_e_b, 10.0**log_z
        z = ComplexEnergy(r * math.cos(phase), r * math.sin(phase)) if 0.0 < phase < math.pi else \
            ComplexEnergy(r if phase == 0.0 else -r, 0.0)
        assume(e_b * 10.0**min(steps, 308) < math.inf)
        try:
            n, cutoffs, couplings, tau, deviations, target = transmutation_schedule_array(e_b, z, steps)
        except (PoleSingularityError, SingularInputError):
            return
        assert n.tolist() == list(range(1, steps + 1))
        assert cutoffs.tolist() == [e_b * 10.0**i for i in range(1, steps + 1)]
        assert couplings.tolist() == [4.0 * math.pi / (i * math.log(10.0)) for i in range(1, steps + 1)]
        assert deviations.tolist() == [abs(t - target) for t in tau.tolist()]
        assert target == renormalized_amplitude(e_b, z).tau
        schedule = transmutation_schedule(e_b, z, steps)
        assert [(s.index, s.cutoff, s.coupling, s.amplitude.tau, s.deviation, s.closed_form) for s in schedule] == \
            list(zip(n.tolist(), cutoffs.tolist(), couplings.tolist(), tau.tolist(), deviations.tolist(),
                     [target] * steps))

    def test_cutoffs_beyond_ten_to_the_308(self):
        # 10**400 overflows a double, but e_b * 10**400 = 1e100 does not
        n, cutoffs, *_ = transmutation_schedule_array(1e-300, ComplexEnergy.continuum(2.0), 400)
        assert np.isfinite(cutoffs).all() and (cutoffs[1:] > cutoffs[:-1]).all()
        assert cutoffs[299] == 1e-300 * 10.0**300
        assert cutoffs[-1] == pytest.approx(1e100, rel=1e-14)
        assert len(transmutation_schedule(1e-300, ComplexEnergy.continuum(2.0), 400)) == 400

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(e_b=st.floats(math.log(5e-324), math.log(sys.float_info.max)).map(math.exp).filter(lambda v: v > 0.0),
           n=st.integers(309, 640))
    @example(e_b=5e-324, n=631)
    @example(e_b=1e-20, n=320)
    @example(e_b=5e-324, n=632)
    def test_cutoffs_beyond_ten_to_the_308_are_correctly_rounded(self, e_b, n):
        # e_b log-uniform over the positive doubles: Lambda_n is the product
        # e_b * 10^n rounded once, or inf where that overflows
        try:
            expected = float(Fraction(e_b) * 10**n)
        except OverflowError:
            expected = math.inf
        assert _decade_cutoff(e_b, n) == expected

    @pytest.mark.parametrize("e_b, steps", [(1.0, 309), (1e10, 299), (5e-324, 633), (1.0, 10**15)])
    def test_overflowing_last_cutoff(self, e_b, steps):
        with pytest.raises(DomainError, match=f"10\\*\\*{steps} overflows"):
            transmutation_schedule_array(e_b, ComplexEnergy.continuum(2.0), steps)


class TestScalingCovariance:
    def test_bit_level_power_of_two(self):
        # multiplying every input energy by 2^k leaves tau bit-identical
        eps = 1.3
        z = ComplexEnergy(0.7, 1.9)
        lam = 37.0
        base = regulated_amplitude(eps, SharpCutoff(lam), z)
        for k in (-20, -1, 1, 13, 40):
            s = 2.0**k
            scaled = regulated_amplitude(eps, SharpCutoff(lam * s), z.scaled(s))
            assert scaled.tau == base.tau

    def test_bit_level_renormalized(self):
        e_b = 0.23
        z = ComplexEnergy(1.1, 0.6)
        base = renormalized_amplitude(e_b, z).tau
        for k in (-8, 5, 31):
            s = 2.0**k
            assert renormalized_amplitude(e_b * s, z.scaled(s)).tau == base

    def test_bit_level_gaussian_power_of_four(self):
        # lengths scale by exact powers of two when energies scale by 4^k
        eps = 2.2
        a = 0.9
        z = ComplexEnergy(0.4, 1.2)
        base = regulated_amplitude(eps, GaussianFormFactor(a), z).tau
        for k in (-4, 3):
            s = 4.0**k
            scaled = regulated_amplitude(eps, GaussianFormFactor(a / 2.0**k), z.scaled(s)).tau
            assert scaled == base

    def test_pure_delta_zero_everywhere(self):
        rng = random.Random(5)
        anchor = FlowPoint(ComplexEnergy(0.0, 1.0), regulated_amplitude(1.0, PureDelta(), ComplexEnergy(0.0, 1.0)))
        for _ in range(25):
            z = random_upper_half_point(rng)
            out = slide_amplitude(anchor, z)
            assert out.tau == 0
            assert out.exact_zero


class TestOnShell:
    def test_sharp_below_cutoff_unchanged(self):
        eps, lam = 1.0, 50.0
        direct = regulated_amplitude(eps, SharpCutoff(lam), ComplexEnergy.continuum(3.0)).tau
        assert on_shell_amplitude_array(eps, SharpCutoff(lam), [3.0])[0] == direct

    def test_sharp_above_cutoff_vanishes(self):
        # the amplitude is zero above the sharp cutoff, and not below it
        values = on_shell_amplitude_array(1.0, SharpCutoff(2.0), [1.0, 5.0, 9.0])
        assert values[0] != 0 and values[1] == values[2] == 0

    def test_gaussian_exactly_unitary(self):
        tau = complex(on_shell_amplitude_array(1.5, GaussianFormFactor(0.8), [2.0])[0])
        assert (1.0 / tau).imag == pytest.approx(0.25, abs=1e-14)

    def test_pure_delta(self):
        assert not on_shell_amplitude_array(1.0, PureDelta(), [1e-3, 1.0, 1e3]).any()


PROPERTIES = settings(max_examples=60, derandomize=True, deadline=None)

magnitudes = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
regs = st.sampled_from([SharpCutoff(1.0), SharpCutoff(1e3), GaussianFormFactor(1.0), GaussianFormFactor(0.1)])


# interior phases keep Im z, and with it |z - Lambda|, at 1e-12 or more: a
# quotient of magnitudes beyond the normal range gives up the exactness of
# power-of-two scaling (energy_plane.log_ratio_array)
phases = st.floats(1e-9, math.pi - 1e-9)


@st.composite
def upper_points(draw):
    """A nonzero point of the closed upper half plane: interior, continuum
    or negative axis, the axes with Im = +0.0 or -0.0."""
    r = draw(magnitudes)
    kind = draw(st.sampled_from(["interior", "continuum", "negative"]))
    if kind == "interior":
        phase = draw(phases)
        return r * math.cos(phase), r * math.sin(phase)
    zero = draw(st.sampled_from([0.0, -0.0]))
    return (r, zero) if kind == "continuum" else (-r, zero)


def bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


def evaluate(fn, *args):
    """fn(*args) as bytes, or the class of the error it raises (a row on a
    pole, or on the sharp cutoff's edge)."""
    try:
        return bits(fn(*args))
    except TransmuteLabError as exc:
        return type(exc)


class TestKappaInvariance:
    """The amplitude is dimensionless: kinetic_constant enters only with the
    energies, through z/Lambda, z a^2/kappa and z/E_B.  Multiplying
    kinetic_constant and every energy by the same power of two, lengths
    fixed, changes no bit."""

    @PROPERTIES
    @given(reg=regs, eps=st.floats(0.05, 20.0), point=upper_points(), k=st.integers(-40, 40),
           kappa=st.sampled_from([1.0, 3.5, 0.25]))
    def test_regulated(self, reg, eps, point, k, kappa):
        s = 2.0**k
        scaled = SharpCutoff(reg.cutoff * s) if isinstance(reg, SharpCutoff) else reg
        re, im = point
        base = evaluate(regulated_amplitude_array, eps, reg, [re], [im], PhysicalScales(kappa))
        assert evaluate(regulated_amplitude_array, eps, scaled, [re * s], [im * s],
                        PhysicalScales(kappa * s)) == base

    @PROPERTIES
    @given(reg=regs, eps=st.floats(0.05, 20.0), energies=st.lists(magnitudes, min_size=1, max_size=5),
           k=st.integers(-40, 40), kappa=st.sampled_from([1.0, 3.5, 0.25]))
    def test_on_shell(self, reg, eps, energies, k, kappa):
        s = 2.0**k
        scaled = SharpCutoff(reg.cutoff * s) if isinstance(reg, SharpCutoff) else reg
        base = evaluate(on_shell_amplitude_array, eps, reg, energies, PhysicalScales(kappa))
        assert evaluate(on_shell_amplitude_array, eps, scaled, [e * s for e in energies],
                        PhysicalScales(kappa * s)) == base

    @PROPERTIES
    @given(e_b=magnitudes, point=upper_points(), k=st.integers(-40, 40))
    def test_renormalized(self, e_b, point, k):
        # no kinetic_constant enters: the energies carry the unit
        s = 2.0**k
        re, im = point
        base = evaluate(renormalized_amplitude_array, e_b, [re], [im])
        assert evaluate(renormalized_amplitude_array, e_b * s, [re * s], [im * s]) == base


def renormalized_inverse_mp(e_b, z):
    """1/tau = ln(-E_B/z)/(4 pi) on mpmath's principal branch, which is
    analytic off the cut z > 0, lower half plane included."""
    return mp.log(-mp.mpf(e_b) / z) / (4 * mp.pi)


def regulated_inverse_mp(eps, reg, z):
    """1/tau = -(1/eps + I(z)) with I from the closed forms on mpmath's
    principal branches, analytic off the cut (z in [0, Lambda] for the
    sharp cutoff, z >= 0 for the gaussian), lower half plane included."""
    if isinstance(reg, SharpCutoff):
        resolvent = mp.log(z / (z - reg.cutoff)) / (4 * mp.pi)
    else:
        w = -mp.mpf(reg.length) ** 2 * z
        resolvent = -mp.exp(w) * mp.e1(w) / (4 * mp.pi)
    return -(1 / mp.mpf(eps) + resolvent)


class TestSchwarzReflection:
    """tau(conj z) = conj tau(z) off the cut.  The package evaluates only the
    closed upper half plane, so the property is checked twice: on the real
    axis off the cut, where Im = -0.0 makes conj z a point the package takes
    and tau must be real; and in the interior, against the closed form
    continued into the lower half plane by mpmath at conj z."""

    @PROPERTIES
    @given(reg=regs, eps=st.floats(0.05, 20.0), r=magnitudes, above_cutoff=st.booleans())
    def test_regulated_on_the_axis(self, reg, eps, r, above_cutoff):
        # off the cut: the negative axis, or beyond the sharp cutoff's edge
        x = reg.cutoff * (1.0 + r) if above_cutoff and isinstance(reg, SharpCutoff) else -r
        try:
            tau = regulated_amplitude_array(eps, reg, [x, x], [0.0, -0.0])
        except PoleSingularityError:
            assume(False)
        assert tau[1] == tau[0].conjugate()
        assert tau[0].imag == 0.0

    @PROPERTIES
    @given(e_b=magnitudes, r=magnitudes)
    def test_renormalized_on_the_axis(self, e_b, r):
        try:
            tau = renormalized_amplitude_array(e_b, [-r, -r], [0.0, -0.0])
        except PoleSingularityError:
            assume(False)
        assert tau[1] == tau[0].conjugate()
        assert tau[0].imag == 0.0

    @PROPERTIES
    @given(reg=regs, eps=st.floats(0.05, 20.0), r=magnitudes,
           phase=phases)
    def test_regulated_in_the_interior(self, reg, eps, r, phase):
        re, im = r * math.cos(phase), r * math.sin(phase)
        try:
            tau = complex(regulated_amplitude_array(eps, reg, [re], [im])[0])
        except PoleSingularityError:
            assume(False)
        with mp.workdps(40):
            reflected = complex(regulated_inverse_mp(eps, reg, mp.mpc(re, -im)))
            # 1/tau against the size of its terms, 1/eps and |I|
            scale = 1.0 / eps + abs(1.0 / eps + reflected)
        rtol = FLOW_GROUP_RTOL if isinstance(reg, SharpCutoff) else SPECIAL_FUNCTION_RTOL
        assert abs(1.0 / tau - reflected.conjugate()) <= rtol * scale

    @PROPERTIES
    @given(e_b=magnitudes, r=magnitudes, phase=phases)
    def test_renormalized_in_the_interior(self, e_b, r, phase):
        re, im = r * math.cos(phase), r * math.sin(phase)
        tau = complex(renormalized_amplitude_array(e_b, [re], [im])[0])
        with mp.workdps(40):
            reflected = complex(renormalized_inverse_mp(e_b, mp.mpc(re, -im)))
        # 1/tau against the size of its terms, ln|E_B/z| and arg
        scale = (abs(math.log(e_b / r)) + math.pi) / FOUR_PI
        assert abs(1.0 / tau - reflected.conjugate()) <= FLOW_GROUP_RTOL * scale
