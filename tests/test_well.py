"""Circular-well oracle: bound states against an independent radial
integration, phase shifts, and the regulator-dependence of the generated
scale."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import j0 as sp_j0, j1 as sp_j1, k0 as sp_k0, k1 as sp_k1, y0 as sp_y0, y1 as sp_y1

from transmute_lab.amplitude import renormalized_amplitude
from transmute_lab.energy_plane import PhysicalScales, wavenumber
from transmute_lab.errors import DomainError, NoBoundStateError
from transmute_lab.observables import tau_from_phase_shift
from transmute_lab.oracle.well import (
    WellParameters,
    bound_energy_from_phase,
    well_bound_state,
    well_bound_states,
    well_depths,
    well_from_coupling,
    well_phase_shift,
)

FOUR_PI = 4.0 * math.pi


def radial_log_derivative(k_in_sq: float, a: float) -> float:
    """psi'/psi at r = a for the regular interior solution of
    psi'' + psi'/r + k_in^2 psi = 0, by direct integration (scipy, not this
    package's Bessel functions)."""
    r0 = 1e-10 * a

    def rhs(r, y):
        return [y[1], -y[1] / r - k_in_sq * y[0]]

    y0 = [1.0 - 0.25 * k_in_sq * r0 * r0, -0.5 * k_in_sq * r0]
    sol = solve_ivp(rhs, (r0, a), y0, rtol=1e-10, atol=1e-12, dense_output=False)
    return sol.y[1][-1] / sol.y[0][-1]


def bound_state_by_radial_integration(well: WellParameters) -> float:
    """Match the integrated interior solution to the scipy K0 exterior."""
    a, v0 = well.radius, well.depth

    def mismatch(log_e):
        e_b = math.exp(log_e)
        gamma = math.sqrt(e_b)
        interior = radial_log_derivative(v0 - e_b, a)
        exterior = -gamma * sp_k1(gamma * a) / sp_k0(gamma * a)
        return interior - exterior

    lo = math.log(v0) - 30.0
    hi = math.log(v0 * (1.0 - 1e-10))
    return math.exp(brentq(mismatch, lo, hi, xtol=1e-13))


class TestWellBoundState:
    def test_regression_pin(self):
        # eps = 4 pi, a = 1 (depth 4); value verified against an independent
        # high-precision matching solve on first run, then frozen
        well = well_from_coupling(FOUR_PI, 1.0)
        assert well.depth == pytest.approx(4.0, rel=1e-15)
        assert well_bound_state(well) == pytest.approx(1.6646535706198899, rel=1e-12)

    def test_against_radial_integration(self):
        for eps in (2.0, FOUR_PI):
            well = well_from_coupling(eps, 1.0)
            ours = well_bound_state(well)
            independent = bound_state_by_radial_integration(well)
            assert ours == pytest.approx(independent, rel=1e-6)

    def test_scaling_covariance(self):
        # V0 -> s V0, a -> a/sqrt(s): E_B -> s E_B
        base = well_bound_state(WellParameters(1.0, 3.0))
        s = 4.0
        scaled = well_bound_state(WellParameters(1.0 / math.sqrt(s), 3.0 * s))
        assert scaled == pytest.approx(s * base, rel=1e-10)

    def test_kinetic_constant_scaling(self):
        well = WellParameters(1.0, 3.0)
        base = well_bound_state(well)
        # same well in kappa = 2 units binds at the same E_B/kappa ratio
        # when the depth doubles with kappa
        scaled = well_bound_state(WellParameters(1.0, 6.0), PhysicalScales(2.0))
        assert scaled == pytest.approx(2.0 * base, rel=1e-12)

    def test_transmutation_exponent_slope(self):
        # ln E_B linear in -4 pi/eps with slope 1 (universal); prefactor is
        # the well's own effective cutoff
        xs, ys = [], []
        for eps in np.linspace(0.5, 2.0, 7):
            e_b = well_bound_state(well_from_coupling(float(eps), 1.0))
            xs.append(-FOUR_PI / eps)
            ys.append(math.log(e_b))
        slope = np.polyfit(xs, ys, 1)[0]
        assert abs(slope - 1.0) <= 0.02

    def test_always_binds(self):
        # even a very shallow well has a (tiny) bound state
        e_b = well_bound_state(well_from_coupling(0.25, 1.0))
        assert 0.0 < e_b < 1e-20

    def test_shallow_well_near_search_limit(self):
        # ln E_B ~ -675, just above the search limit ln(1e-300) = -690.8;
        # shallow-well matching gives
        # ln(E_B a^2/kappa) = -4 pi/eps + ln 4 - 2 gamma_E + 1/2 + O(eps)
        eps = 0.0186
        log_e_b = math.log(well_bound_state(well_from_coupling(eps, 1.0)))
        expected = -FOUR_PI / eps + math.log(4.0) - 2.0 * np.euler_gamma + 0.5
        assert log_e_b == pytest.approx(expected, abs=1e-3)

    def test_depths_of_a_coupling_column(self):
        # eps*kappa/(pi a^2) as well_from_coupling has it; 0 where it
        # underflows, which has no bound state; DomainError naming the first
        # coupling where it overflows, or the first that is not positive
        eps = [2.0, 5e-324, 0.5]
        depths = well_depths(eps, 1.5, PhysicalScales(2.0))
        assert depths.tolist() == [2.0 * 2.0 / (math.pi * 1.5**2), 0.0, 0.5 * 2.0 / (math.pi * 1.5**2)]
        assert well_bound_states(1.5, depths, PhysicalScales(2.0))[1].tolist() == [False, True, False]
        with pytest.raises(DomainError, match="overflows at eps = 1e[+]308"):
            well_depths([1.0, 1e308, 1e300], 1e-4)
        with pytest.raises(DomainError, match="coupling must be positive, got -1.0"):
            well_depths([1.0, -1.0, math.nan], 1.0)

    @pytest.mark.parametrize("eps", [0.015, 1e-300])
    def test_no_bound_state_below_search_limit(self, eps):
        # E_B ~ (kappa/a^2) e^{-4 pi/eps} lies below (kappa/a^2) * 1e-300:
        # an inexact NoBoundStateError, as for the separable regulators
        with pytest.raises(NoBoundStateError) as err:
            well_bound_state(well_from_coupling(eps, 1.0))
        assert not err.value.exact


class TestWellPhaseShift:
    def test_free_limit(self):
        delta = well_phase_shift(WellParameters(1.0, 1e-12), 0.7)
        assert abs(delta) < 1e-10

    def test_against_radial_integration(self):
        well = well_from_coupling(2.0, 1.0)
        a = well.radius
        for k in (0.3, 1.1, 4.7):
            interior = radial_log_derivative(k * k + well.depth, a)
            num = interior * sp_j0(k * a) + k * sp_j1(k * a)
            den = interior * sp_y0(k * a) + k * sp_y1(k * a)
            expected = math.atan2(num, den)
            if expected > 0.5 * math.pi:
                expected -= math.pi
            elif expected <= -0.5 * math.pi:
                expected += math.pi
            assert well_phase_shift(well, k) == pytest.approx(expected, abs=1e-7)

    def test_range_convention(self):
        well = well_from_coupling(2.0, 1.0)
        for k in np.exp(np.linspace(-6, 2, 40)):
            delta = well_phase_shift(well, float(k))
            assert -0.5 * math.pi < delta <= 0.5 * math.pi

    def test_low_energy_log_running(self):
        # cot(delta) = ln(E/E_B)/pi at k a << 1, with E_B the well's own
        # bound state: the fitted scale agrees within 5%
        for eps in (1.0, 2.0):
            well = well_from_coupling(eps, 1.0)
            e_b = well_bound_state(well)
            k = 1e-3
            delta = well_phase_shift(well, k)
            fitted = bound_energy_from_phase(k * k, delta)
            assert abs(fitted - e_b) / e_b <= 0.05

    def test_resonant_phase_near_bound_scale(self):
        well = well_from_coupling(2.0, 1.0)
        e_b = well_bound_state(well)
        delta = well_phase_shift(well, math.sqrt(e_b))
        assert abs(delta - 0.5 * math.pi) < 0.1

    def test_low_energy_amplitude_matches_renormalized(self):
        # the well's continuum amplitude reproduces the renormalized closed
        # form with the fitted scale to 3% for E a^2 <= 1e-4
        well = well_from_coupling(2.0, 1.0)
        k_fit = 1e-3
        e_b_fit = bound_energy_from_phase(k_fit * k_fit, well_phase_shift(well, k_fit))
        for energy in (1e-4, 1e-5, 1e-6):
            k = wavenumber(energy)
            tau_well = tau_from_phase_shift(well_phase_shift(well, k))
            tau_ren = renormalized_amplitude(e_b_fit, energy).tau
            assert abs(tau_well - tau_ren) <= 0.03 * abs(tau_ren)

    @pytest.mark.parametrize("energy", [136.8618828366563, 142.23448951541366])
    def test_cancelling_row_against_mpmath(self, energy):
        # rows 245 and 246 (1-based) of 0.011376664526243608:1137.6664526243608:
        # 300,log at eps = 0.7130104612422048, the benchmark's seed-4103 well
        # scatter: num and den cancel some 18-fold, and J/Y accurate only to
        # their envelope once left delta0 1.6e-12 and 1.2e-12 off
        well = well_from_coupling(0.7130104612422048, 1.0)
        k = math.sqrt(energy)
        with mp.workdps(40):
            km, a = mp.mpf(k), mp.mpf(well.radius)
            k_in = mp.sqrt(km * km + mp.mpf(well.depth))
            m, j0_in = -k_in * mp.besselj(1, k_in * a), mp.besselj(0, k_in * a)
            num = m * mp.besselj(0, km * a) + km * j0_in * mp.besselj(1, km * a)
            den = m * mp.bessely(0, km * a) + km * j0_in * mp.bessely(1, km * a)
            expected = float(mp.atan(num / den))
        assert abs(well_phase_shift(well, k) - expected) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            well_phase_shift(WellParameters(1.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            bound_energy_from_phase(1.0, 0.0)


class TestCoupling:
    def test_validation(self):
        with pytest.raises(DomainError):
            WellParameters(0.0, 1.0)
        with pytest.raises(DomainError):
            well_from_coupling(-1.0, 1.0)

    @pytest.mark.parametrize("radius", [1e-200, 1e200])
    def test_radius_whose_square_leaves_the_double_range(self, radius):
        # the model divides by radius**2: its underflow or overflow is a
        # DomainError, not a ZeroDivisionError or OverflowError
        with pytest.raises(DomainError, match="square underflows or overflows"):
            WellParameters(radius=radius, depth=1.0)
        with pytest.raises(DomainError, match="square underflows or overflows"):
            well_from_coupling(1.0, radius)
