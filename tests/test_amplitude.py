"""Amplitude in all three regimes: exact zero, regulated, renormalized; the
sliding flow; bound-state poles; and the two limiting processes."""

import math
import random

import mpmath as mp
import pytest

from transmute_lab.amplitude import (
    Amplitude,
    FlowPoint,
    amplitudes_over_cutoffs,
    bound_state_pole,
    cutoff_envelope,
    on_shell_amplitude,
    regulated_amplitude,
    renormalized_amplitude,
    slide_amplitude,
    transmutation_schedule,
)
from transmute_lab.energy_plane import ComplexEnergy, PhysicalScales, principal_log_ratio
from transmute_lab.errors import DomainError, NoBoundStateError, PoleSingularityError
from transmute_lab.oracle.quadrature import quadrature_resolvent, upper_half_residue
from transmute_lab.regulators import GaussianFormFactor, PureDelta, SharpCutoff
from transmute_lab.tolerances import ANCHOR_INDEPENDENCE_RTOL, RESIDUE_RTOL
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
        for lam, mag in beyond:
            bound = cutoff_envelope(eps, z.magnitude(), lam)
            assert bound is not None and mag <= bound

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

    def test_validation(self):
        with pytest.raises(DomainError):
            transmutation_schedule(0.0, ComplexEnergy(0.0, 1.0), 5)
        with pytest.raises(DomainError):
            transmutation_schedule(1.0, ComplexEnergy(0.0, 1.0), 1)


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
        assert on_shell_amplitude(eps, SharpCutoff(lam), 3.0).tau == direct

    def test_sharp_above_cutoff_vanishes(self):
        assert on_shell_amplitude(1.0, SharpCutoff(2.0), 5.0).tau == 0

    def test_gaussian_exactly_unitary(self):
        tau = on_shell_amplitude(1.5, GaussianFormFactor(0.8), 2.0).tau
        assert (1.0 / tau).imag == pytest.approx(0.25, abs=1e-14)

    def test_pure_delta(self):
        amp = on_shell_amplitude(1.0, PureDelta(), 1.0)
        assert amp.tau == 0 and amp.exact_zero
