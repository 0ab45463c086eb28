"""Continuum observables: unitarity, the optical theorem, phase-shift
round trips and the two target-length routes."""

import math

import numpy as np
import pytest

from transmute_lab.amplitude import on_shell_amplitude_array, renormalized_amplitude
from transmute_lab.energy_plane import wavenumber
from transmute_lab.errors import DomainError, UnitarityViolationError
from transmute_lab.observables import (
    continuum_observables_array,
    f_from_tau,
    optical_theorem_defect,
    tau_from_phase_shift,
    total_target_length,
    unitarity_defect,
)
from transmute_lab.regulators import GaussianFormFactor, SharpCutoff

FOUR_PI = 4.0 * math.pi


def phase_shift(tau):
    """delta0 of one amplitude: its row of continuum_observables_array, NaN
    where it violates unitarity."""
    return float(continuum_observables_array(np.array([tau], dtype=complex), [1.0])["phase_shift"][0])


class TestF:
    def test_zero_amplitude(self):
        assert f_from_tau(0.0, 2.0) == 0.0

    def test_resonant_value(self):
        # tau = -4i at E = E_B: f = 4i sqrt(1/(8 pi k)) = i sqrt(2/(pi k))
        e_b = 1.0
        k = wavenumber(e_b)
        f = f_from_tau(renormalized_amplitude(e_b, e_b).tau, k)
        assert f == pytest.approx(1j * math.sqrt(2.0 / (math.pi * k)), rel=1e-14)

    def test_differential_length_chains(self):
        tau = -2.0 - 2.0j
        f = f_from_tau(tau, 3.0)
        assert abs(f) ** 2 == pytest.approx(abs(tau) ** 2 / (8.0 * math.pi * 3.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            f_from_tau(1.0, 0.0)


class TestTargetLength:
    def test_resonant_maximum(self):
        k = 2.0
        assert total_target_length(-4j, k) == pytest.approx(4.0 / k, rel=1e-15)

    def test_zero(self):
        assert total_target_length(0.0, 1.0) == 0.0

    def test_hand_value(self):
        # tau = -2-2i at E = e^pi E_B: L = 2/k
        e_b = 1.0
        energy = math.exp(math.pi)
        k = wavenumber(energy)
        tau = renormalized_amplitude(e_b, energy).tau
        assert total_target_length(tau, k) == pytest.approx(2.0 / k, rel=1e-14)

    def test_positive_imaginary_rejected(self):
        with pytest.raises(UnitarityViolationError):
            total_target_length(1.0 + 0.1j, 1.0)

    def test_two_routes_agree(self):
        # -(1/k) Im tau vs sqrt(8 pi/k) Im f, row by row
        e_b = 0.7
        for i in range(25):
            energy = e_b * 10.0 ** (-3.0 + 6.0 * i / 24.0)
            k = wavenumber(energy)
            tau = renormalized_amplitude(e_b, energy).tau
            via_tau = total_target_length(tau, k)
            via_f = math.sqrt(8.0 * math.pi / k) * f_from_tau(tau, k).imag
            assert via_f == pytest.approx(via_tau, rel=1e-12)


class TestPhaseShift:
    def test_resonance(self):
        assert phase_shift(-4j) == 0.5 * math.pi

    def test_hand_value(self):
        assert phase_shift(-2.0 - 2.0j) == pytest.approx(0.25 * math.pi, rel=1e-14)

    def test_zero_limit(self):
        assert phase_shift(0.0) == 0.0

    def test_round_trip(self):
        for delta in (-1.4, -0.3, 0.01, 0.7, 1.2, 0.5 * math.pi):
            tau = tau_from_phase_shift(delta)
            assert phase_shift(tau) == pytest.approx(delta, abs=1e-12)

    def test_round_trip_from_model(self):
        e_b = 1.0
        for energy in (1e-4, 0.2, 1.0, 7.0, 1e5):
            tau = renormalized_amplitude(e_b, energy).tau
            delta = phase_shift(tau)
            assert tau_from_phase_shift(delta) == pytest.approx(tau, rel=1e-12)

    def test_range_convention(self):
        e_b = 1.0
        below = phase_shift(renormalized_amplitude(e_b, 0.99 * e_b).tau)
        above = phase_shift(renormalized_amplitude(e_b, 1.01 * e_b).tau)
        assert -0.5 * math.pi < below < 0.0 or below == pytest.approx(-0.5 * math.pi, abs=0.01)
        assert 0.0 < above <= 0.5 * math.pi

    def test_violation_rejected(self):
        # the parametrization exists only on the unitary circle: a violating
        # row is flagged and its phase shift is NaN
        obs = continuum_observables_array(np.array([-5j, -4j]), [1.0, 1.0])
        assert obs["violation"].tolist() == [True, False]
        assert math.isnan(obs["phase_shift"][0]) and obs["phase_shift"][1] == 0.5 * math.pi


class TestOpticalTheorem:
    def test_unitary_family(self):
        k = 1.7
        for i in range(41):
            delta = -1.5 + 3.0 * i / 40.0
            tau = tau_from_phase_shift(delta)
            defect = optical_theorem_defect(tau, k)
            assert abs(defect) <= 1e-12 * (4.0 / k)

    def test_zero(self):
        assert optical_theorem_defect(0.0, 1.0) == 0.0

    def test_constructed_violation_is_positive(self):
        assert optical_theorem_defect(-5j, 1.0) > 0.0


class TestUnitarityInvariants:
    def test_renormalized_model_exact(self):
        # Im(1/tau) = 1/4 to 1e-13 and |tau| <= 4 across twelve decades
        e_b = 1.0
        for i in range(200):
            energy = e_b * 10.0 ** (-6.0 + 12.0 * i / 199.0)
            tau = renormalized_amplitude(e_b, energy).tau
            assert abs(unitarity_defect(tau)) <= 1e-13
            assert abs(tau) <= 4.0 + 1e-12

    def test_regulated_on_shell_unitary(self):
        for reg in (SharpCutoff(100.0), GaussianFormFactor(0.5)):
            for energy in (0.01, 1.0, 30.0):
                tau = complex(on_shell_amplitude_array(1.0, reg, [energy])[0])
                assert abs(unitarity_defect(tau)) <= 1e-13

    def test_low_energy_running_formula(self):
        # L = (1/k) 4 pi^2 / (ln^2(E_B/E) + pi^2), exact for the closed form
        e_b = 1.0
        for energy in (1e-8, 1e-5, 1e-2):
            k = wavenumber(energy)
            tau = renormalized_amplitude(e_b, energy).tau
            expected = (1.0 / k) * 4.0 * math.pi**2 / (math.log(e_b / energy) ** 2 + math.pi**2)
            assert total_target_length(tau, k) == pytest.approx(expected, rel=1e-12)


class TestBundle:
    def test_resonance_row(self):
        obs = continuum_observables_array(np.array([renormalized_amplitude(1.0, 1.0).tau]), [1.0])
        assert obs["L_from_im_tau"][0] == pytest.approx(4.0, rel=1e-14)
        assert obs["L_optical"][0] == pytest.approx(4.0, rel=1e-14)
        assert obs["phase_shift"][0] == 0.5 * math.pi
        assert obs["dL_dtheta"][0] == pytest.approx(abs(obs["f"][0]) ** 2)

    def test_round_trip_identity_tolerance(self):
        tau = renormalized_amplitude(1.0, 5.0).tau
        obs = continuum_observables_array(np.array([tau]), [5.0])
        rebuilt = tau_from_phase_shift(float(obs["phase_shift"][0]))
        assert abs(rebuilt - tau) <= 1e-12 * abs(tau)

    def test_interior_point_rejected(self):
        with pytest.raises(DomainError):
            continuum_observables_array(np.array([-4j]), [-1.0])
