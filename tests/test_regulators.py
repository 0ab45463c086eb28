"""Closed forms of the regulator family: spectral weights, decay amplitudes,
resolvents and sliding kernels, checked against hand values, scaling laws and
the quadrature oracle."""

import math

import pytest

from transmute_lab.energy_plane import ComplexEnergy, PhysicalScales, principal_log_ratio
from transmute_lab.errors import (
    DivergenceError,
    DomainError,
    SingularInputError,
)
from transmute_lab.oracle.quadrature import quadrature_resolvent
from transmute_lab.regulators import (
    GaussianFormFactor,
    PureDelta,
    SharpCutoff,
    decay_amplitude,
    dimensionless_resolvent,
    regulator_from_name,
    regulator_name,
    resolvent_derivative,
    resolvent_element,
    slide_kernel,
    spectral_weight,
)
from transmute_lab.tolerances import QUADRATURE_MATCH_RTOL

FOUR_PI = 4.0 * math.pi


class TestSpectralWeight:
    def test_pure_delta_constant(self):
        assert spectral_weight(PureDelta(), 1.0) == pytest.approx(1.0 / FOUR_PI, rel=1e-15)
        assert spectral_weight(PureDelta(), 123.0) == spectral_weight(PureDelta(), 1e-9)

    def test_sharp_cutoff_step(self):
        reg = SharpCutoff(10.0)
        assert spectral_weight(reg, 9.999) == pytest.approx(1.0 / FOUR_PI)
        assert spectral_weight(reg, 20.0) == 0.0

    def test_gaussian_shell_value(self):
        # |<k|v>|^2 = e^{-k^2 a^2} at E = k^2 (kappa = 1): Q(1) = e^{-1}/(4 pi)
        assert spectral_weight(GaussianFormFactor(1.0), 1.0) == pytest.approx(
            math.exp(-1.0) / FOUR_PI, rel=1e-15
        )

    def test_kinetic_constant_scaling(self):
        scales = PhysicalScales(4.0)
        assert spectral_weight(PureDelta(), 1.0, scales) == pytest.approx(1.0 / (FOUR_PI * 4.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            spectral_weight(PureDelta(), -1.0)


class TestDecayAmplitude:
    def test_pure_delta_closed_form(self):
        assert decay_amplitude(PureDelta(), 1.0) == pytest.approx(-1j / FOUR_PI, rel=1e-15)
        assert decay_amplitude(PureDelta(), 2.0) == pytest.approx(-1j / (8.0 * math.pi), rel=1e-15)

    def test_gaussian_short_time_limit(self):
        reg = GaussianFormFactor(1.0)
        value = decay_amplitude(reg, 1e-12)
        assert value == pytest.approx(1.0 / (FOUR_PI * reg.length**2), rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            decay_amplitude(PureDelta(), 0.0)


class TestResolvent:
    def test_pure_delta_diverges(self):
        with pytest.raises(DivergenceError):
            resolvent_element(PureDelta(), ComplexEnergy(0.0, 1.0))
        with pytest.raises(DivergenceError):
            dimensionless_resolvent(PureDelta(), ComplexEnergy(-3.0, 0.0))

    def test_sharp_cutoff_closed_form_is_log_ratio(self):
        reg = SharpCutoff(100.0)
        z = ComplexEnergy(2.0, 3.0)
        expected = principal_log_ratio(z, ComplexEnergy(2.0 - 100.0, 3.0)) / FOUR_PI
        assert resolvent_element(reg, z) == expected

    def test_sharp_cutoff_scaling_regime(self):
        # ln(-z/Lambda)/(4 pi) up to O(|z|/Lambda) for |z| << Lambda
        lam = 1e9
        for z, neg_log in (
            (ComplexEnergy(-2.5, 0.0), math.log(2.5 / lam)),
            (ComplexEnergy(0.0, 1.0), math.log(1.0 / lam) + 1j * math.pi / 2.0),
        ):
            value = dimensionless_resolvent(SharpCutoff(lam), z)
            # arg(-z): the negative axis maps to 0, the upper axis to pi/2 - pi
            expected = (neg_log - (0 if z.im == 0 else 1j * math.pi)) / FOUR_PI
            assert value == pytest.approx(expected, rel=3e-9)

    def test_dimensionless_resolvent_at_closed_form_pole(self):
        # at E_B = Lambda e^{-4 pi/eps} the running integral is -1/eps + O(E_B/Lambda)
        lam = 1.0
        for eps in (0.7, 1.0, 2.0):
            e_b = lam * math.exp(-FOUR_PI / eps)
            value = dimensionless_resolvent(SharpCutoff(lam), ComplexEnergy(-e_b, 0.0))
            assert value.imag == 0.0
            assert value.real == pytest.approx(-1.0 / eps, abs=2.0 * e_b / lam)

    def test_hand_value_lambda_e4(self):
        # Lambda = e^4 |z|, z = -1: I = ln(1/(1+e^4))/(4 pi), close to -1/pi
        value = dimensionless_resolvent(SharpCutoff(math.e**4), ComplexEnergy(-1.0, 0.0))
        assert value.real == pytest.approx(math.log(1.0 / (1.0 + math.e**4)) / FOUR_PI, rel=1e-15)
        assert value.real == pytest.approx(-1.0 / math.pi, abs=2e-3)

    def test_gaussian_against_quadrature(self):
        reg = GaussianFormFactor(0.8)
        for z in (ComplexEnergy(0.0, 0.3), ComplexEnergy(-4.0, 0.0), ComplexEnergy(1.5, 2.5),
                  ComplexEnergy.continuum(2.0)):
            closed = resolvent_element(reg, z)
            quad, _ = quadrature_resolvent(reg, z)
            assert abs(quad - closed) <= QUADRATURE_MATCH_RTOL * abs(closed)

    def test_sharp_against_quadrature_high_cutoff(self):
        closed = resolvent_element(SharpCutoff(1e6), ComplexEnergy(0.0, 1.0))
        quad, _ = quadrature_resolvent(SharpCutoff(1e6), ComplexEnergy(0.0, 1.0))
        assert abs(quad - closed) <= QUADRATURE_MATCH_RTOL * abs(closed)

    def test_gaussian_boundary_unitarity_part(self):
        reg = GaussianFormFactor(1.0)
        for energy in (0.1, 1.0, 10.0):
            g = resolvent_element(reg, ComplexEnergy.continuum(energy))
            assert g.imag == pytest.approx(-math.pi * spectral_weight(reg, energy), rel=1e-14)

    def test_singular_inputs(self):
        with pytest.raises(SingularInputError):
            resolvent_element(SharpCutoff(5.0), ComplexEnergy(5.0, 0.0))
        with pytest.raises(SingularInputError):
            resolvent_element(SharpCutoff(5.0), ComplexEnergy(0.0, 0.0))

    def test_kinetic_constant_covariance(self):
        # holding lengths fixed, energies scale with kappa and g scales as 1/kappa
        reg1 = SharpCutoff(7.0)
        reg4 = SharpCutoff(28.0)
        s4 = PhysicalScales(4.0)
        g1 = resolvent_element(reg1, ComplexEnergy(0.0, 1.0))
        g4 = resolvent_element(reg4, ComplexEnergy(0.0, 4.0), s4)
        assert g4 == pytest.approx(g1 / 4.0, rel=1e-15)

    def test_resolvent_derivative_matches_finite_difference(self):
        for reg in (SharpCutoff(9.0), GaussianFormFactor(0.6)):
            for energy in (1e-4, 0.2, 2.0):
                h = 1e-5 * energy
                fd = (
                    dimensionless_resolvent(reg, ComplexEnergy(-(energy + h), 0.0)).real
                    - dimensionless_resolvent(reg, ComplexEnergy(-(energy - h), 0.0)).real
                ) / (2.0 * h)
                assert resolvent_derivative(reg, energy) == pytest.approx(fd, rel=1e-8)


class TestSlideKernel:
    def test_identity(self):
        z = ComplexEnergy(0.4, 0.9)
        assert slide_kernel(PureDelta(), z, z) == 0.0
        assert slide_kernel(SharpCutoff(10.0), z, z) == 0.0

    def test_pure_delta_e4_ratio(self):
        z0 = ComplexEnergy(0.0, 1.0)
        z = ComplexEnergy(0.0, math.e**4)
        value = slide_kernel(PureDelta(), z, z0)
        assert value == pytest.approx(1.0 / math.pi, rel=1e-14)
        scaled = slide_kernel(PureDelta(), z, z0, PhysicalScales(2.0))
        assert scaled == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_sharp_cutoff_converges_to_pure_delta(self):
        z, z0 = ComplexEnergy(0.0, 1.0), ComplexEnergy(0.0, 2.0)
        exact = slide_kernel(PureDelta(), z, z0)
        value = slide_kernel(SharpCutoff(1e8), z, z0)
        assert abs(value - exact) <= 1e-6 * abs(exact)

    def test_regulator_removal_rate(self):
        # error of the regulated kernel is bounded by C*max|z| * (1/Lambda or b)
        z, z0 = ComplexEnergy(0.3, 1.2), ComplexEnergy(-0.7, 0.4)
        exact = slide_kernel(PureDelta(), z, z0)
        scale = max(z.magnitude(), z0.magnitude())
        for decade in range(3, 9):
            lam = 10.0**decade
            err = abs(slide_kernel(SharpCutoff(lam), z, z0) - exact)
            assert err <= 2.0 * scale / lam
        for decade in range(2, 6):
            b = 10.0 ** (-decade)  # length^2 in natural units
            err = abs(slide_kernel(GaussianFormFactor(math.sqrt(b)), z, z0) - exact)
            assert err <= 2.0 * scale * b

    def test_cutoff_difference_universality(self):
        # I(Lambda', z) - I(Lambda, z) = ln(Lambda/Lambda')/(4 pi), z-independent
        lam, lam_p = 1e7, 1e9
        expected = math.log(lam / lam_p) / FOUR_PI
        for z in (ComplexEnergy(0.0, 1.0), ComplexEnergy(-2.0, 0.0), ComplexEnergy(1.0, 1.0)):
            assert z.magnitude() / lam <= 1e-6
            diff = (
                dimensionless_resolvent(SharpCutoff(lam_p), z)
                - dimensionless_resolvent(SharpCutoff(lam), z)
            )
            assert diff.real == pytest.approx(expected, abs=1e-5)
            assert abs(diff.imag) <= 1e-5


class TestNames:
    def test_round_trip(self):
        assert regulator_name(regulator_from_name("pure-delta")) == "pure-delta"
        assert regulator_from_name("sharp-cutoff", cutoff=3.0) == SharpCutoff(3.0)
        assert regulator_from_name("gaussian", length=0.5) == GaussianFormFactor(0.5)

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            regulator_from_name("lattice")

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            SharpCutoff(-1.0)
        with pytest.raises(DomainError):
            GaussianFormFactor(0.0)
