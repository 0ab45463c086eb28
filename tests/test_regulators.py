"""Closed forms of the regulator family: spectral weights, decay amplitudes,
resolvents and sliding kernels, checked against hand values, scaling laws and
the quadrature oracle."""

import ast
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import transmute_lab
from transmute_lab.energy_plane import NATURAL_UNITS, ComplexEnergy, PhysicalScales, principal_log_ratio
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
    resolvent_array,
    resolvent_derivative,
    resolvent_element,
    slide_kernel,
    slide_kernels_along,
    spectral_weight,
)
from transmute_lab.tolerances import QUADRATURE_MATCH_RTOL, SPECIAL_FUNCTION_RTOL

FOUR_PI = 4.0 * math.pi
KAPPA = NATURAL_UNITS.kinetic_constant


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
    @pytest.mark.parametrize("re, im", [(-5e-324, 0.0), (5e-324, 0.0), (0.0, 5e-324), (-3e-320, 2e-320),
                                        (1e-310, 0.0), (-4.4e-308, 1e-309)])
    def test_gaussian_at_subnormal_energies(self, re, im):
        # w = -b z rounds to 0 or to a subnormal: g is formed in logs from z,
        # negative on the negative axis, with Im g = -0.0 there as E1 gives
        reg, kappa = GaussianFormFactor(0.7), PhysicalScales(1.3)
        g = complex(resolvent_array(reg, np.array([re]), np.array([im]), kappa)[0])
        with mp.workdps(40):
            b, z = mp.mpf(0.7**2 / 1.3), mp.mpc(re, im)
            if im == 0.0 and re > 0.0:
                ref = mp.exp(-b * re) * mp.mpc(mp.ei(b * re), -mp.pi) / (4 * mp.pi * 1.3)
            else:
                ref = -mp.exp(-b * z) * mp.e1(-b * z) / (4 * mp.pi * 1.3)
            ref = complex(ref)
        assert g.real == pytest.approx(ref.real, rel=4e-16)
        assert g.imag == pytest.approx(ref.imag, rel=4e-16, abs=0.0)
        if re < 0.0 and im == 0.0:
            assert g.real < 0.0 and math.copysign(1.0, g.imag) == -1.0

    def test_gaussian_whose_b_underflows(self):
        # a^2/kappa = 1e-400 rounds to 0: ln b is formed from a and kappa, and
        # ln|z| of z itself where |z| is normal (z 2^600 overflows at 1e300)
        reg = GaussianFormFactor(1e-200)
        re, im = [-1.0, 2.0, 0.0, -1e300, 1e300], [0.0, 0.0, 3.0, 0.0, 0.0]
        g = resolvent_array(reg, np.array(re), np.array(im))
        with mp.workdps(40):
            b = mp.mpf(1e-200) ** 2
            ref = []
            for x, y in zip(re, im):
                if y == 0.0 and x > 0.0:
                    ref.append(complex(mp.exp(-b * x) * mp.mpc(mp.ei(b * x), -mp.pi) / (4 * mp.pi)))
                else:
                    w = -b * mp.mpc(x, y)
                    ref.append(complex(-mp.exp(w) * mp.e1(w) / (4 * mp.pi)))
        for value, expected in zip(g.tolist(), ref):
            assert value.real == pytest.approx(expected.real, rel=4e-16)
            assert value.imag == pytest.approx(expected.imag, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("re, im", [(-3e-320, 2e-320), (1e-320, 1e-321)])
    def test_sharp_cutoff_at_subnormal_energies(self, re, im):
        # ln|z| of z 2^600: hypot rounds a subnormal |z| to the subnormal grid
        g = complex(resolvent_array(SharpCutoff(1.0), np.array([re]), np.array([im]))[0])
        with mp.workdps(40):
            ref = complex((mp.log(mp.mpc(re, im)) - mp.log(mp.mpc(re - 1.0, im))) / (4 * mp.pi))
        assert g.real == pytest.approx(ref.real, rel=4e-16)
        assert g.imag == pytest.approx(ref.imag, rel=4e-16)

    def test_pure_delta_diverges(self):
        with pytest.raises(DivergenceError):
            resolvent_element(PureDelta(), ComplexEnergy(0.0, 1.0))
        with pytest.raises(DivergenceError):
            resolvent_element(PureDelta(), ComplexEnergy(-3.0, 0.0))

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
            value = KAPPA * resolvent_element(SharpCutoff(lam), z)
            # arg(-z): the negative axis maps to 0, the upper axis to pi/2 - pi
            expected = (neg_log - (0 if z.im == 0 else 1j * math.pi)) / FOUR_PI
            assert value == pytest.approx(expected, rel=3e-9)

    def test_dimensionless_resolvent_at_closed_form_pole(self):
        # at E_B = Lambda e^{-4 pi/eps} the running integral is -1/eps + O(E_B/Lambda)
        lam = 1.0
        for eps in (0.7, 1.0, 2.0):
            e_b = lam * math.exp(-FOUR_PI / eps)
            value = KAPPA * resolvent_element(SharpCutoff(lam), ComplexEnergy(-e_b, 0.0))
            assert value.imag == 0.0
            assert value.real == pytest.approx(-1.0 / eps, abs=2.0 * e_b / lam)

    def test_hand_value_lambda_e4(self):
        # Lambda = e^4 |z|, z = -1: I = ln(1/(1+e^4))/(4 pi), close to -1/pi
        value = KAPPA * resolvent_element(SharpCutoff(math.e**4), ComplexEnergy(-1.0, 0.0))
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

    @pytest.mark.parametrize("z", [1e3 + 1e-3j, 1e3 + 1j, 1e5 + 1e3j, 1e8 + 1j, 1e300 + 1j])
    def test_gaussian_near_the_continuum_far_out(self, z):
        # these interior points gave nan+nanj while E1 took the power series
        # near the negative axis at any |w|
        reg = GaussianFormFactor(1.0)
        with mp.workdps(30):
            w = mp.mpc(-z.real, -z.imag)
            ref = complex(-mp.exp(w) * mp.e1(w) / (4 * mp.pi))
        for value in (resolvent_element(reg, z), resolvent_array(reg, z.real, z.imag)[()]):
            assert abs(value - ref) <= SPECIAL_FUNCTION_RTOL * abs(ref)

    def test_gaussian_array_branches_and_errors(self):
        # continuum points through Ei, the negative axis (either zero sign)
        # and interior points through E1, each against mpmath at 30 digits
        reg = GaussianFormFactor(0.8)
        s2 = PhysicalScales(2.0)
        b, pref = reg.length**2 / 2.0, 1.0 / (FOUR_PI * 2.0)
        re = np.array([2.0, 2.0, -4.0, -4.0, 1.5, 0.0, -1e4])
        im = np.array([0.0, -0.0, 0.0, -0.0, 2.5, 0.3, 1e-3])
        values = resolvent_array(reg, re, im, s2)
        with mp.workdps(30):
            for r, i, v in zip(re.tolist(), im.tolist(), values.tolist()):
                if i == 0.0 and r > 0.0:
                    x = mp.mpf(b * r)
                    ref = pref * complex(mp.exp(-x) * mp.ei(x), -math.pi * mp.exp(-x))
                else:
                    w = mp.mpc(-b * r, -b * i)
                    ref = -pref * complex(mp.exp(w) * mp.e1(w))
                assert abs(v - ref) <= 1e-14 * abs(ref)
        with pytest.raises(SingularInputError) as scalar:
            resolvent_element(reg, ComplexEnergy(0.0, 0.0))
        with pytest.raises(SingularInputError) as array:
            resolvent_array(reg, [1.0, 0.0], [0.0, -0.0])
        assert str(array.value) == str(scalar.value)

    def test_cutoff_schedule_broadcasts(self):
        # an array of sharp cutoffs in place of the regulator: one point
        # over a schedule, each row the closed form ln[z/(z - Lambda)]/(4 pi)
        cutoffs = np.array([3.0, 50.0, 1e9])
        values = resolvent_array(SharpCutoff(cutoffs), 1.0, 2.0)
        with mp.workdps(30):
            for lam, v in zip(cutoffs.tolist(), values.tolist()):
                z = mp.mpc(1.0, 2.0)
                assert abs(v - complex(mp.log(z / (z - lam)) / (4 * mp.pi))) <= 1e-15 * abs(v)
        with pytest.raises(SingularInputError):
            resolvent_array(SharpCutoff(cutoffs), 50.0, -0.0)

    def test_negative_axis_resolvent_against_mpmath(self):
        # J(E) = kappa g(-E) = -e^{bE} E1(bE)/(4 pi) for the gaussian, over
        # one array
        s3 = PhysicalScales(3.0)
        energies = [1e-300, 1e-12, 0.04, 1.7, 90.0, 1e5]
        gaussian = 3.0 * resolvent_array(GaussianFormFactor(0.6), -np.array(energies), 0.0, s3).real
        for energy, ours_gaussian in zip(energies, gaussian.tolist()):
            with mp.workdps(40):
                x = mp.mpf(0.6) ** 2 / 3 * mp.mpf(energy)
                assert ours_gaussian == pytest.approx(float(-mp.exp(x) * mp.e1(x) / (4 * mp.pi)), rel=1e-14)
        with pytest.raises(DomainError):
            resolvent_derivative(PureDelta(), [1.0])
        for reg in (SharpCutoff(1.0), GaussianFormFactor(1.0)):
            with pytest.raises(DomainError):
                resolvent_derivative(reg, [1.0, 0.0])
            with pytest.raises(DomainError):
                resolvent_derivative(reg, [-1.0])

    def test_kinetic_constant_covariance(self):
        # holding lengths fixed, energies scale with kappa and g scales as 1/kappa
        reg1 = SharpCutoff(7.0)
        reg4 = SharpCutoff(28.0)
        s4 = PhysicalScales(4.0)
        g1 = resolvent_element(reg1, ComplexEnergy(0.0, 1.0))
        g4 = resolvent_element(reg4, ComplexEnergy(0.0, 4.0), s4)
        assert g4 == pytest.approx(g1 / 4.0, rel=1e-15)

    def test_resolvent_derivative_matches_finite_difference(self):
        energy = np.array([1e-4, 0.2, 2.0])
        h = 1e-5 * energy
        for reg in (SharpCutoff(9.0), GaussianFormFactor(0.6)):
            # J(E) = kappa g(-E), with kappa = 1
            above, below = resolvent_array(reg, -(energy + h), 0.0).real, resolvent_array(reg, -(energy - h), 0.0).real
            fd = (above - below) / (2.0 * h)
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
                KAPPA * resolvent_element(SharpCutoff(lam_p), z)
                - KAPPA * resolvent_element(SharpCutoff(lam), z)
            )
            assert diff.real == pytest.approx(expected, abs=1e-5)
            assert abs(diff.imag) <= 1e-5

    @pytest.mark.parametrize("reg, singular", [(SharpCutoff(2.0), (2.0, 0.0)), (PureDelta(), (0.0, 0.0))])
    def test_singular_point_index(self, reg, singular):
        # the first singular point of the path by its index; the anchor,
        # which rides along as the last point, by index None
        re, im = np.array([1.0, singular[0], singular[0]]), np.array([1.0, singular[1], singular[1]])
        with pytest.raises(SingularInputError) as point:
            slide_kernels_along(reg, re, im, ComplexEnergy(0.0, 1.0))
        with pytest.raises(SingularInputError) as anchor:
            slide_kernels_along(reg, re[:1], im[:1], ComplexEnergy(*singular))
        assert (point.value.index, anchor.value.index) == (1, None)


class TestNames:
    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            SharpCutoff(-1.0)
        with pytest.raises(DomainError):
            GaussianFormFactor(0.0)


class TestOneDispatch:
    """Each model type carries its own forms: no module but the two that
    define the model types picks a form by a model's type."""

    MODEL_TYPES = {"Regulator", "PureDelta", "SharpCutoff", "GaussianFormFactor", "CircularWell", "WellParameters"}
    OWNERS = {"regulators.py", "oracle/well.py"}

    def test_no_other_module_branches_on_a_model_type(self):
        package = Path(transmute_lab.__file__).parent
        sites = []
        for path in sorted(package.rglob("*.py")):
            module = path.relative_to(package).as_posix()
            if module in self.OWNERS:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                        and len(node.args) == 2):
                    continue
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                names = {getattr(kind, "id", getattr(kind, "attr", None)) for kind in kinds}
                if names & self.MODEL_TYPES:
                    sites.append(f"{module}:{node.lineno}")
        assert sites == []
