"""The adaptive integrator itself, the principal-value resolvent route, and
the contour residue extractor."""

import cmath
import math

import pytest

from transmute_lab.energy_plane import ComplexEnergy
from transmute_lab.errors import (
    DivergenceError,
    DomainError,
    PrecisionFailureError,
    SingularInputError,
)
from transmute_lab.oracle.quadrature import (
    QuadratureSpec,
    integrate,
    quadrature_decay_amplitude,
    quadrature_resolvent,
    quadrature_spectral_weight,
    upper_half_residue,
)
from transmute_lab.regulators import (
    GaussianFormFactor,
    PureDelta,
    SharpCutoff,
    decay_amplitude,
    resolvent_element,
    slide_kernel,
    spectral_weight,
)
from transmute_lab.tolerances import QUADRATURE_MATCH_RTOL


class TestIntegrate:
    def test_polynomial_exact(self):
        value, err = integrate(lambda x: x
** 3 - 2 * x + 1, 0.0, 2.0)
        assert value == pytest.approx(2.0, abs=1e-13)
        assert err < 1e-12

    def test_oscillatory(self):
        value, _ = integrate(lambda x: math.cos(10.0 * x), 0.0, math.pi)
        assert value == pytest.approx(math.sin(10.0 * math.pi) / 10.0, abs=1e-12)

    def test_semi_infinite_exponential(self):
        value, _ = integrate(lambda x: math.exp(-0.5 * x), 1.0, math.inf)
        assert value == pytest.approx(2.0 * math.exp(-0.5), rel=1e-11)

    def test_complex_integrand(self):
        value, _ = integrate(lambda x: complex(math.cos(x), math.sin(x)), 0.0, 1.0)
        assert value.real == pytest.approx(math.sin(1.0), abs=1e-13)
        assert value.imag == pytest.approx(1.0 - math.cos(1.0), abs=1e-13)

    def test_precision_failure_carries_best_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=64)
        c = 0.3141
        exact = (2.0 / 3.0) * (c**1.5 + (1.0 - c) ** 1.5)
        with pytest.raises(PrecisionFailureError) as err:
            integrate(lambda x: math.sqrt(abs(x - c)), 0.0, 1.0, spec)
        assert abs(err.value.best_estimate.real - exact) < 1e-4
        assert err.value.error_estimate > 0.0

    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 1.0)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=10)


class TestResolventOracle:
    def test_interior_grid_matches_closed_forms(self):
        # 20-point log grid per regulator, points off the continuum
        regs = [SharpCutoff(50.0), GaussianFormFactor(0.7)]
        for reg in regs:
            for i in range(20):
                mag = 10.0 ** (-2.0 + 4.0 * i / 19.0)
                for point in (ComplexEnergy(0.0, mag), ComplexEnergy(-mag, 0.0),
                              ComplexEnergy(-0.6 * mag, 0.8 * mag)):
                    closed = resolvent_element(reg, point)
                    quad, _ = quadrature_resolvent(reg, point)
                    assert abs(quad - closed) <= QUADRATURE_MATCH_RTOL * abs(closed), (reg, point)

    def test_boundary_sokhotski_imaginary_part(self):
        # Im g(E + i0+) = -pi Q(E) exactly from the decomposition
        for reg in (SharpCutoff(50.0), GaussianFormFactor(0.7)):
            for energy in (0.5, 3.0, 20.0):
                value, _ = quadrature_resolvent(reg, ComplexEnergy.continuum(energy))
                assert value.imag == pytest.approx(-math.pi * spectral_weight(reg, energy), rel=1e-14)

    def test_boundary_matches_closed_form(self):
        for reg in (SharpCutoff(50.0), GaussianFormFactor(0.7)):
            for energy in (0.5, 3.0, 20.0):
                closed = resolvent_element(reg, ComplexEnergy.continuum(energy))
                quad, _ = quadrature_resolvent(reg, ComplexEnergy.continuum(energy))
                assert abs(quad - closed) <= QUADRATURE_MATCH_RTOL * abs(closed)

    def test_boundary_above_cutoff_is_real(self):
        reg = SharpCutoff(10.0)
        value, _ = quadrature_resolvent(reg, ComplexEnergy.continuum(25.0))
        closed = resolvent_element(reg, ComplexEnergy.continuum(25.0))
        assert value.imag == 0.0
        assert value.real == pytest.approx(closed.real, rel=1e-10)

    def test_pure_delta_diverges(self):
        with pytest.raises(DivergenceError):
            quadrature_resolvent(PureDelta(), ComplexEnergy(0.0, 1.0))

    def test_singular_edges(self):
        with pytest.raises(SingularInputError):
            quadrature_resolvent(SharpCutoff(10.0), ComplexEnergy.continuum(10.0))


class TestSpectralWeightOracle:
    def test_brute_force_shell_reduction(self):
        for reg in (PureDelta(), SharpCutoff(50.0), GaussianFormFactor(1.3)):
            for i in range(10):
                energy = 10.0 ** (-2.0 + 3.0 * i / 9.0)
                brute = quadrature_spectral_weight(reg, energy)
                closed = spectral_weight(reg, energy)
                assert brute == pytest.approx(closed, rel=1e-10), (reg, energy)


class TestDecayAmplitudeOracle:
    def test_sharp_cutoff(self):
        reg = SharpCutoff(30.0)
        for t in (0.05, 0.7, 3.0):
            quad, _ = quadrature_decay_amplitude(reg, t)
            assert quad == pytest.approx(decay_amplitude(reg, t), rel=1e-9)

    def test_gaussian(self):
        reg = GaussianFormFactor(0.9)
        for t in (0.05, 0.7, 3.0):
            quad, _ = quadrature_decay_amplitude(reg, t)
            assert quad == pytest.approx(decay_amplitude(reg, t), rel=1e-9)

    def test_pure_delta_not_absolutely_convergent(self):
        with pytest.raises(DivergenceError):
            quadrature_decay_amplitude(PureDelta(), 1.0)


class TestTimeDomainRoutes:
    """The resolvent and the sliding kernel re-derived from the decay
    amplitude: g(z) = -i Int_0^inf e^{izt} q(t) dt and
    G(z,z0) = i Int_0^inf (e^{iz0 t} - e^{iz t}) q(t) dt (hbar = 1).
    A fully independent route to the same closed forms."""

    def test_resolvent_from_decay_amplitude(self):
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=20000)
        for reg in (SharpCutoff(8.0), GaussianFormFactor(0.9)):
            for zc in (1.5j, -2.0 + 0.8j):
                def integrand(t, zc=zc, reg=reg):
                    phase = complex(math.cos(zc.real * t), math.sin(zc.real * t))
                    return phase * math.exp(-zc.imag * t) * decay_amplitude(reg, t)

                value, _ = integrate(integrand, 0.0, math.inf, spec)
                closed = resolvent_element(reg, ComplexEnergy(zc.real, zc.imag))
                assert -1j * value == pytest.approx(closed, rel=1e-8)

    def test_pure_delta_kernel_from_decay_amplitude(self):
        # the log kernel emerges from the 1/t tail: divergences at t -> 0
        # cancel inside the difference
        z, z0 = 0.5 + 1.0j, 2.5j
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=20000)

        def integrand(t):
            ph = cmath.exp(1j * z0 * t) - cmath.exp(1j * z * t)
            return ph * decay_amplitude(PureDelta(), t)

        value, _ = integrate(integrand, 0.0, math.inf, spec)
        closed = slide_kernel(PureDelta(), ComplexEnergy(z.real, z.imag), ComplexEnergy(z0.real, z0.imag))
        assert 1j * value == pytest.approx(closed, rel=1e-9)


class TestContourResidue:
    def test_known_simple_pole(self):
        # f(z) = R/(z - c) + analytic part, real-analytic across the axis
        center, residue = -2.0, 3.7

        def f(z):
            return residue / (z - center) + 0.25 * z * z + 1.0

        for radius in (0.5, 0.01):
            got = upper_half_residue(f, center, radius, n=32)
            assert got.real == pytest.approx(residue, rel=1e-12)
            assert abs(got.imag) < 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            upper_half_residue(lambda z: z, 0.0, -1.0)
