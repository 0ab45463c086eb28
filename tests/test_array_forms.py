"""Array forms against independent references, row by row.

Each closed form has one implementation, an array form; the scalar names
are its 0-d calls.  A test named for the scalar form checks that each row
equals it to the bit (tests/test_zero_dim.py holds this as a property),
and every value against mpmath at 40 digits, evaluated at the float inputs
of its row (and, where the code rounds an argument first, at that rounded
argument).  Budgets against mpmath:

* ULP_BUDGET units in the last place of the value's scale: the value itself,
  or for a quantity formed from nearly cancelling terms (a sliding kernel,
  the unitarity defect, 1/tau near a pole, the envelope near its vacuous
  edge) the size of those terms, carried to the value.  This holds for the
  gaussian too, in every branch of E1 and Ei.
* Complex division is rounded as Python rounds it and must match exactly.
* ULP_BUDGET units of the conditioning scale for a well phase shift, whose
  numerator and denominator are sums of Bessel products that may cancel:
  the size of those products over |num + i den|.
"""

import math
import random
import sys

import mpmath as mp
import numpy as np
import pytest

from transmute_lab import cli
from transmute_lab.amplitude import (
    cutoff_envelope_array,
    on_shell_amplitude_array,
    regulated_amplitude,
    regulated_amplitude_array,
    renormalized_amplitude,
    renormalized_amplitude_array,
)
from transmute_lab.energy_plane import (
    NATURAL_UNITS,
    ComplexEnergy,
    PhysicalScales,
    complex_divide_array,
    principal_log_ratio,
    principal_log_ratio_array,
    wavenumber,
)
from transmute_lab.errors import PoleSingularityError, SingularInputError
from transmute_lab.observables import (
    continuum_observables_array,
    tau_from_phase_shift,
    tau_from_phase_shift_array,
)
from transmute_lab.oracle.well import CircularWell, well_from_coupling, well_phase_shift, well_phase_shift_array
from transmute_lab.regulators import GaussianFormFactor, PureDelta, SharpCutoff, slide_kernel, slide_kernels_along
from transmute_lab.tolerances import POLE_GUARD, UNITARITY_DEFECT_TOL

ULP_BUDGET = 8
EPS = sys.float_info.epsilon
KAPPA = PhysicalScales(3.5)
DPS = 40


def assert_within_budget(values, reference, scale=None, budget=ULP_BUDGET * EPS):
    values = np.asarray(values, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    scale = np.abs(reference) if scale is None else np.asarray(scale, dtype=float)
    limit = budget * scale
    for part in (np.real, np.imag):
        err = np.abs(part(values) - part(reference))
        assert np.all(err <= limit), (err / np.maximum(scale * EPS, 1e-320)).max()


# ----------------------------------------------------------------------
# mpmath references
# ----------------------------------------------------------------------

def log_from_above(re, im):
    """ln z with arg z in [0, pi]: mpmath has no -0.0, so the negative axis
    takes arg pi whatever the sign of the float's zero."""
    return mp.log(mp.mpc(re, im))


def log_ratio_mp(re, im, re0, im0):
    with mp.workdps(DPS):
        return complex(log_from_above(re, im) - log_from_above(re0, im0))


def sharp_resolvent_mp(lam, re, im):
    """kappa g(z) of the sharp cutoff, ln[z/(z - Lambda)]/(4 pi), at the
    float z - Lambda that the closed form rounds."""
    return (log_from_above(re, im) - log_from_above(re - lam, im)) / (4 * mp.pi)


def gaussian_w(reg, re, im, scales):
    """The E1 argument w = -b z of the gaussian resolvent, rounded as there;
    None on the continuum, where the resolvent goes through Ei."""
    if im == 0.0 and re > 0.0:
        return None
    b = reg.length**2 / scales.kinetic_constant
    return complex(-b * re, -b * im)


def gaussian_resolvent_mp(reg, re, im, scales):
    """kappa g(z) of the gaussian, at the rounded E1 or Ei argument."""
    w = gaussian_w(reg, re, im, scales)
    if w is None:
        x = mp.mpf(reg.length**2 / scales.kinetic_constant * re)
        return mp.exp(-x) * mp.mpc(mp.ei(x), -mp.pi) / (4 * mp.pi)
    wm = mp.mpc(w.real, w.imag)
    return -mp.exp(wm) * mp.e1(wm) / (4 * mp.pi)


def resolvent_mp(reg, re, im, scales):
    if isinstance(reg, SharpCutoff):
        return sharp_resolvent_mp(reg.cutoff, re, im)
    return gaussian_resolvent_mp(reg, re, im, scales)


def tau_mp(eps, resolvent):
    """tau = -eps/(1 + eps I) and the scale of its terms: 1/tau = -(1 +
    eps I)/eps is a sum of terms of size (1 + |eps I|)/eps, carried to tau
    by |tau|^2."""
    tau = -eps / (1 + eps * resolvent)
    return complex(tau), float(abs(tau) ** 2 * (1 + abs(eps * resolvent)) / eps)


def on_shell_mp(eps, reg, energy, scales):
    """On-shell amplitude and its scale: the weight at the rounded k of the
    code (kappa k^2 <= Lambda, or exp(-(k a)^2)) times tau(E + i0)."""
    k = math.sqrt(energy / scales.kinetic_constant)
    with mp.workdps(DPS):
        if isinstance(reg, SharpCutoff):
            weight = 1.0 if scales.kinetic_constant * k * k <= reg.cutoff else 0.0
        else:
            weight = mp.exp(-mp.mpf((k * reg.length) ** 2))
        if weight == 0:
            return 0j, 0.0
        tau, scale = tau_mp(eps, resolvent_mp(reg, energy, 0.0, scales))
        return complex(weight * tau), float(weight * scale)


def well_phase_mp(well, k, scales):
    """The well's phase shift delta0 at the float k_in a and k a that the
    code rounds, and its conditioning scale: the size of the Bessel products
    in num and den over |num + i den|."""
    kappa, a = scales.kinetic_constant, well.radius
    k_in = math.sqrt((kappa * k * k + well.depth) / kappa)
    with mp.workdps(DPS):
        inner, outer = mp.mpf(k_in * a), mp.mpf(k * a)
        j0_in, y0_in, j1_in, y1_in = (f(n, inner) for n in (0, 1) for f in (mp.besselj, mp.bessely))
        j0, y0, j1, y1 = (f(n, outer) for n in (0, 1) for f in (mp.besselj, mp.bessely))
        m = -mp.mpf(k_in) * j1_in
        num, den = m * j0 + k * j0_in * j1, m * y0 + k * j0_in * y1
        terms = (k_in * mp.hypot(j1_in, y1_in) + k * mp.hypot(j0_in, y0_in)) * (mp.hypot(j0, y0) + mp.hypot(j1, y1))
        return float(mp.atan(num / den)), float(terms / mp.hypot(num, den))


def log_grid(lo, hi, n):
    return np.array([10.0 ** (lo + (hi - lo) * i / (n - 1)) for i in range(n)])


def upper_half_points(rng, n):
    """Random points of the closed upper half plane, axis points included,
    with -0.0 imaginary parts on both half-axes."""
    pts = []
    for i in range(n):
        mag = 10.0 ** rng.uniform(-300, 300)
        kind = i % 5
        if kind == 0:
            pts.append((mag, 0.0))
        elif kind == 1:
            pts.append((-mag, -0.0))
        elif kind == 2:
            pts.append((-mag, 0.0))
        else:
            phase = rng.uniform(0.0, math.pi)
            pts.append((mag * math.cos(phase), mag * math.sin(phase)))
    return pts


class TestEnergyPlane:
    def test_log_ratio_matches_scalar(self):
        rng = random.Random(3)
        z = upper_half_points(rng, 400)
        z0 = upper_half_points(rng, 400)
        re, im = np.array(z).T
        re0, im0 = np.array(z0).T
        values = principal_log_ratio_array(re, im, re0, im0)
        assert values.tolist() == [principal_log_ratio(ComplexEnergy(*a), ComplexEnergy(*b)) for a, b in zip(z, z0)]
        reference = [log_ratio_mp(*a, *b) for a, b in zip(z, z0)]
        # the log of the magnitude ratio crosses zero: scale by its terms
        scale = np.maximum(np.abs(reference), np.abs(np.log(np.hypot(re, im))) + np.abs(np.log(np.hypot(re0, im0))))
        assert_within_budget(values, reference, scale)

    def test_negative_zero_keeps_negative_axis_argument(self):
        values = principal_log_ratio_array([-2.0, -2.0, 2.0], [-0.0, 0.0, -0.0], 1.0, 0.0)
        assert values.imag.tolist() == [math.pi, math.pi, 0.0]
        assert principal_log_ratio(ComplexEnergy(-2.0, -0.0), 1.0).imag == math.pi

    def test_division_matches_python_to_the_bit(self):
        rng = random.Random(5)
        parts = [0.0, -0.0, 1.0, -3.5, 1e-300, -1e300, 0.25]
        nums, dens = [], []
        for _ in range(2000):
            nums.append(complex(rng.choice(parts) * rng.uniform(-4, 4), rng.choice(parts) * rng.uniform(-4, 4)))
            dens.append(complex(rng.uniform(-1e3, 1e3) * rng.choice(parts[2:]), rng.uniform(-1e3, 1e3) * rng.choice(parts)))
        values = complex_divide_array(np.array(nums), np.array(dens)).tolist()
        reference = [a / b for a, b in zip(nums, dens)]
        assert [(v.real, v.imag) for v in values] == [(r.real, r.imag) for r in reference]
        assert complex_divide_array(1.0, np.array(dens)).tolist() == [1.0 / d for d in dens]


class TestAmplitudes:
    def test_renormalized_matches_scalar(self):
        e_b = 2.5
        energies = log_grid(-12, 12, 301)
        points = [(e, 0.0) for e in energies.tolist()]
        points += [(-1.0, 0.0), (-1.0, -0.0), (0.0, 7.0), (-3.0, 1e-9), (1e-300, 1e-300)]
        re, im = np.array(points).T
        values = renormalized_amplitude_array(e_b, re, im)
        assert values.tolist() == [renormalized_amplitude(e_b, complex(*p)).tau for p in points]
        with mp.workdps(DPS):
            reference = [complex(4 * mp.pi / (log_from_above(-e_b, 0.0) - log_from_above(*p))) for p in points]
        assert_within_budget(values, reference)

    def test_renormalized_pole_raises(self):
        with pytest.raises(PoleSingularityError) as exc:
            renormalized_amplitude_array(2.5, np.array([1.0, -2.5]), np.array([0.0, -0.0]))
        assert exc.value.pole_energy == -2.5

    @pytest.mark.parametrize("reg", [PureDelta(), SharpCutoff(7.0), SharpCutoff(1e-200), GaussianFormFactor(0.5)],
                             ids=["pure-delta", "sharp", "sharp-tiny", "gaussian"])
    def test_on_shell_matches_scalar(self, reg):
        energies = log_grid(-6, 6, 241)
        values = on_shell_amplitude_array(1.3, reg, energies, KAPPA)
        # each row is the one-element call, to the bit
        assert values.tolist() == [on_shell_amplitude_array(1.3, reg, [e], KAPPA)[0] for e in energies.tolist()]
        if isinstance(reg, PureDelta):
            assert not values.any()
            return
        reference, scale = zip(*(on_shell_mp(1.3, reg, e, KAPPA) for e in energies.tolist()))
        assert_within_budget(values, reference, scale)
        assert ((values == 0) == (np.array(reference) == 0)).all()

    def test_on_shell_weight_boundary(self):
        # energies a few ulps around the cutoff: the weight keeps the
        # rounding of kappa*k*k <= Lambda, not E <= Lambda
        lam = 7.0
        reg = SharpCutoff(lam)
        energies = [lam]
        for _ in range(6):
            energies = [math.nextafter(energies[0], 0.0)] + energies + [math.nextafter(energies[-1], math.inf)]
        energies = [e for e in energies if e != lam]
        values = on_shell_amplitude_array(0.9, reg, energies, KAPPA)
        reference, scale = zip(*(on_shell_mp(0.9, reg, e, KAPPA) for e in energies))
        inside = [KAPPA.kinetic_constant * wavenumber(e, KAPPA) ** 2 <= lam for e in energies]
        assert ((values != 0) == np.array(inside)).all()
        assert any(inside) and not all(inside)
        assert_within_budget(values, reference, scale)

    def test_cutoff_edge_raises_like_scalar(self):
        reg = SharpCutoff(3.0)
        with pytest.raises(SingularInputError) as scalar:
            on_shell_amplitude_array(1.0, reg, [3.0])
        with pytest.raises(SingularInputError) as array:
            on_shell_amplitude_array(1.0, reg, [1.0, 3.0])
        assert str(array.value) == str(scalar.value)

    def test_cutoff_edge_index_is_that_of_the_energies(self):
        # 5.0 lies above the cutoff, so the edge is the second energy
        # evaluated but the third given
        with pytest.raises(SingularInputError) as edge:
            on_shell_amplitude_array(1.0, SharpCutoff(3.0), [1.0, 5.0, 3.0, 3.0])
        assert edge.value.index == 2

    @pytest.mark.parametrize("eps,radius", [(1.0, 1.0), (0.7130104612422048, 1.0), (15.0, 3.0), (40.0, 1e-3)])
    def test_on_shell_well_is_its_phase_shifts(self, eps, radius):
        # the circular well is the exact phase-shift route of the oracle,
        # to the bit
        energies = log_grid(-6, 6, 241)
        k = np.sqrt(energies / KAPPA.kinetic_constant)
        expected = tau_from_phase_shift_array(well_phase_shift_array(well_from_coupling(eps, radius, KAPPA), k, KAPPA))
        assert on_shell_amplitude_array(eps, CircularWell(radius), energies, KAPPA).tolist() == expected.tolist()

    def test_sharp_over_cutoffs_matches_scalar(self):
        # z = -1 passes the pole at Lambda = e^{4 pi/1.1} - 1: tau is held to
        # the terms of its inverse there
        cutoffs = log_grid(0.5, 300, 400)
        for z in [(0.0, 1.0), (2.0, 0.0), (-1.0, -0.0), (0.3, 0.2)]:
            values = regulated_amplitude_array(1.1, SharpCutoff(cutoffs), *z, KAPPA)
            scalar = [regulated_amplitude(1.1, SharpCutoff(lam), complex(*z), KAPPA).tau for lam in cutoffs[::20].tolist()]
            assert values[::20].tolist() == scalar
            with mp.workdps(DPS):
                reference, scale = zip(*(tau_mp(1.1, sharp_resolvent_mp(lam, *z)) for lam in cutoffs.tolist()))
            assert_within_budget(values, reference, scale)

    def test_couplings_and_cutoffs_broadcast(self):
        # the transmute schedule: one coupling per cutoff
        cutoffs = np.array([10.0**n for n in range(1, 12)])
        couplings = 4.0 * math.pi / np.log(cutoffs)
        values = regulated_amplitude_array(couplings, SharpCutoff(cutoffs), 2.0, 0.0)
        with mp.workdps(DPS):
            reference, scale = zip(*(tau_mp(e, sharp_resolvent_mp(lam, 2.0, 0.0))
                                     for e, lam in zip(couplings.tolist(), cutoffs.tolist())))
        assert_within_budget(values, reference, scale)

    def test_sharp_pole_raises_like_scalar(self):
        reg = SharpCutoff(10.0)
        eps = 2.0
        pole = reg.cutoff / math.expm1(4.0 * math.pi / eps)
        with pytest.raises(PoleSingularityError) as scalar:
            regulated_amplitude(eps, reg, -pole)
        with pytest.raises(PoleSingularityError) as array:
            regulated_amplitude_array(eps, reg, np.array([1.0, -pole]), 0.0)
        assert array.value.pole_energy == scalar.value.pole_energy == pytest.approx(-pole, rel=1e-15)

    def test_envelope_matches_scalar(self):
        eps = 0.9
        cutoffs = np.concatenate([log_grid(-1, 300, 500), [1.0, math.nextafter(1.0, 2.0)]])
        values = cutoff_envelope_array(eps, 1.0, cutoffs)
        for lam, value in zip(cutoffs.tolist(), values.tolist()):
            with mp.workdps(DPS):
                shifted = mp.log(mp.mpf(lam) - 1) - 4 * mp.pi / eps if lam > 1.0 else None
                if shifted is None or shifted <= 0:
                    assert math.isnan(value)
                    continue
                # 4 pi/shifted, shifted a difference of terms
                terms = abs(mp.log(mp.mpf(lam) - 1)) + 4 * mp.pi / eps
                reference, scale = float(4 * mp.pi / shifted), float(4 * mp.pi * terms / shifted**2)
            assert_within_budget(value, reference, scale)


class TestSlideKernels:
    @pytest.mark.parametrize("reg", [PureDelta(), SharpCutoff(50.0), GaussianFormFactor(0.7)],
                             ids=["pure-delta", "sharp", "gaussian"])
    @pytest.mark.parametrize("phase", [0.0, 1.0, 0.5 * math.pi, math.pi])
    def test_kernels_match_scalar(self, reg, phase):
        mags = log_grid(-3, 4, 120)
        if phase == math.pi:
            re, im = -mags, np.full_like(mags, -0.0)
        else:
            re, im = mags * math.cos(phase), mags * math.sin(phase)
            if phase == 0.0:
                im = np.zeros_like(mags)
        if isinstance(reg, SharpCutoff) and phase == 0.0:
            keep = re != reg.cutoff
            re, im = re[keep], im[keep]
        z0 = ComplexEnergy(0.0, 1.0)
        from_anchor, steps = slide_kernels_along(reg, re, im, z0, KAPPA)
        points = list(zip(re.tolist(), im.tolist()))
        for i in range(0, len(points) - 1, 15):
            assert slide_kernel(reg, ComplexEnergy(*points[i]), z0, KAPPA) == from_anchor[i]
            assert slide_kernel(reg, ComplexEnergy(*points[i + 1]), ComplexEnergy(*points[i]), KAPPA) == steps[i]
        terms = 4.0 * math.pi * KAPPA.kinetic_constant
        with mp.workdps(DPS):
            if isinstance(reg, PureDelta):
                g = [log_from_above(*p) / terms for p in points]
                g0 = log_from_above(0.0, 1.0) / terms
            else:
                g = [resolvent_mp(reg, *p, KAPPA) / KAPPA.kinetic_constant for p in points]
                g0 = resolvent_mp(reg, 0.0, 1.0, KAPPA) / KAPPA.kinetic_constant
            ref_anchor = np.array([complex(v - g0) for v in g])
            ref_steps = np.array([complex(b - a) for a, b in zip(g, g[1:])])
        if isinstance(reg, GaussianFormFactor):
            g = np.array([complex(v) for v in g])
            # a kernel is a difference of resolvents: scale by the terms
            scale_anchor, scale_steps = np.abs(g) + abs(complex(g0)), np.abs(g[1:]) + np.abs(g[:-1])
            assert_within_budget(from_anchor, ref_anchor, scale_anchor)
            assert_within_budget(steps, ref_steps, scale_steps)
            return
        # a kernel is a difference of logs: scale by the terms
        scale_anchor = np.abs(ref_anchor) + (np.abs(np.log(mags[: len(re)])) + 2 * math.pi + 5) / terms
        assert_within_budget(from_anchor, ref_anchor, scale_anchor)
        assert_within_budget(steps, ref_steps, scale_anchor[1:] + scale_anchor[:-1])


class TestObservables:
    def taus(self):
        rng = random.Random(11)
        unitary = [tau_from_phase_shift(rng.uniform(-0.5 * math.pi, 0.5 * math.pi)) for _ in range(300)]
        # |tau| > 4 and Im tau > 0 violate unitarity
        broken = [complex(rng.uniform(-9, 9), rng.uniform(-9, 1)) for _ in range(100)]
        edge = [0j, -4j, tau_from_phase_shift(0.5 * math.pi), 4.0 * math.pi / complex(0.0, math.pi)]
        return unitary + broken + edge

    @pytest.mark.parametrize("tol", [1e-9, 1e-20])
    def test_matches_scalar_row_by_row(self, tol):
        taus = self.taus()
        energies = [10.0 ** (-6 + 12 * i / len(taus)) for i in range(len(taus))]
        obs = continuum_observables_array(np.array(taus), energies, KAPPA, tol)
        for i, (tau, energy) in enumerate(zip(taus, energies)):
            k = wavenumber(energy, KAPPA)
            assert obs["k"][i] == k
            with mp.workdps(DPS):
                t = mp.mpc(tau.real, tau.imag)
                f = -mp.sqrt(1 / (8 * mp.pi * k)) * t
                dl = abs(f) ** 2
                l_optical = mp.sqrt(8 * mp.pi / k) * f.imag
                # a difference of two nearly equal terms: absolute, against them
                defect, terms = 2 * mp.pi * dl - l_optical, 2 * mp.pi * dl + abs(l_optical)
                x = (1 / t).real if tau != 0 else None
                delta0 = 0.0 if x is None else (mp.pi / 2 if x == 0 else mp.atan(-1 / (4 * x)))
                # Im(1/tau) - 1/4, against the terms it is the difference of
                u_defect = 0 if x is None else (1 / t).imag - mp.mpf(0.25)
                u_terms = 0 if x is None else abs((1 / t).imag) + mp.mpf(0.25)
            assert_within_budget(obs["f"][i], complex(f))
            assert_within_budget(obs["dL_dtheta"][i], float(dl))
            assert_within_budget(obs["L_optical"][i], float(l_optical))
            assert_within_budget(obs["L_from_im_tau"][i], -tau.imag / k)
            assert_within_budget(obs["optical_defect"][i], float(defect), float(terms))
            assert_within_budget(obs["unitarity_defect"][i], float(u_defect), float(u_terms))
            # the violation flag is the exact decision wherever the defect's
            # rounding budget cannot reach the tolerance
            slack = ULP_BUDGET * EPS * float(u_terms)
            if abs(u_defect) > tol + slack:
                assert obs["violation"][i]
            elif abs(u_defect) < tol - slack:
                assert not obs["violation"][i]
            if obs["violation"][i]:
                assert math.isnan(obs["phase_shift"][i])
            else:
                assert_within_budget(obs["phase_shift"][i], float(delta0))
        assert obs["violation"].any() and not obs["violation"].all()

    def test_resonance_row_is_exact(self):
        obs = continuum_observables_array(np.array([-4j]), [1.0])
        assert obs["phase_shift"][0] == 0.5 * math.pi


class TestWellPhaseShift:
    # the first well is the one whose rows 245 and 246 (1-based) of
    # 0.011376664526243608:1137.6664526243608:300,log once failed the
    # benchmark's check
    @pytest.mark.parametrize("eps,radius", [(0.7130104612422048, 1.0), (2.0, 0.5), (15.0, 3.0), (40.0, 1e-3)])
    def test_matches_scalar_row_by_row(self, eps, radius):
        well = well_from_coupling(eps, radius, KAPPA)
        ks = log_grid(-4.0, 3.0, 40) / radius
        deltas = well_phase_shift_array(well, ks, KAPPA)
        for k, delta in zip(ks.tolist(), deltas.tolist()):
            expected, scale = well_phase_mp(well, k, KAPPA)
            assert_within_budget(delta, expected, scale)
            assert -0.5 * math.pi < delta <= 0.5 * math.pi
            # the scalar name is a one-element call: the same row, to the bit
            assert well_phase_shift(well, k, KAPPA) == delta

    def test_tau_from_phase_shift_is_a_one_element_call(self):
        deltas = np.array([random.Random(5).uniform(-0.5 * math.pi, 0.5 * math.pi) for _ in range(50)] + [0.5 * math.pi])
        taus = tau_from_phase_shift_array(deltas)
        for delta, tau in zip(deltas.tolist(), taus.tolist()):
            assert tau_from_phase_shift(delta) == tau
            with mp.workdps(DPS):
                expected = complex(-4 * mp.expj(delta) * mp.sin(delta))
            assert_within_budget(tau, expected, 4.0)


class TestTables:
    """Whole CLI tables against mpmath, row by row."""

    def run(self, args, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert cli.main(args + ["--out", str(out)]) == 0, capsys.readouterr().err
        lines = [ln for ln in out.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
        return [[None if c == "" else (c if c[0].isalpha() else float(c)) for c in ln.split(",")] for ln in lines[1:]]

    def check_scatter_row(self, row, eps, reg, tol):
        """A scatter row against mpmath; the status at a rounding-level
        tolerance is a decision on the rounded amplitude, which the
        library's one-element call reproduces."""
        energy = row[0]
        tau, scale = on_shell_mp(eps, reg, energy, NATURAL_UNITS)
        k = wavenumber(energy)
        f_scale = math.sqrt(1.0 / (8.0 * math.pi * k))
        assert_within_budget(row[2] + 1j * row[3], -f_scale * tau, f_scale * scale)
        computed = complex(on_shell_amplitude_array(eps, reg, [energy])[0])
        violated = computed != 0 and abs((1.0 / computed).imag - 0.25) > tol
        assert row[9] == ("UNITARITY_VIOLATION" if violated else "OK")
        if violated:
            assert row[7] is None
        elif tau != 0:
            with mp.workdps(DPS):
                x = float((1 / mp.mpc(tau.real, tau.imag)).real)
                delta0 = float(mp.atan(-1 / (4 * mp.mpf(x)))) if x else 0.5 * math.pi
            # the phase shift reads Re(1/tau), a sum of terms of size
            # scale/|tau|^2, through d(delta0)/dx = 4/(1 + 16 x^2)
            assert_within_budget(row[7], delta0, 4.0 * scale / abs(tau) ** 2 / (1.0 + 16.0 * x * x))
        return violated

    def test_scatter_rows(self, tmp_path, capsys):
        # rows below and above the cutoff (zero amplitude), the two sides of
        # the weight boundary and, at a tight tolerance, unitarity violations
        lam, eps, tol = 4.0, 1.0, 1e-17
        reg = SharpCutoff(lam)
        args = ["scatter", "--regulator", "sharp-cutoff", "--lambda", repr(lam), "--epsilon", repr(eps),
                "--tol-override", f"unitarity_defect_tol={tol!r}", "--energy"]
        rows = []
        above = [math.nextafter(lam, math.inf)]
        while len(above) < 8:
            above.append(math.nextafter(above[-1], math.inf))
        for grid in ["0.01:100:40,log", repr(math.nextafter(lam, 0.0))] + [repr(e) for e in above]:
            rows += self.run(args + [grid], tmp_path, capsys)
        violated = {self.check_scatter_row(row, eps, reg, tol) for row in rows}
        assert violated == {False, True}
        # above the cutoff, the on-shell weight follows kappa*k*k <= Lambda
        weighted = [row[2] != 0.0 for row in rows if row[0] > lam and row[0] in above]
        assert any(weighted) and not all(weighted)

    def test_gaussian_flow_rows(self, tmp_path, capsys):
        # the z_phase = 1 ray crosses every E1 branch from the series to the
        # asymptotic one; the default ray (Re w = 0) the Stieltjes rule
        reg, tau0 = GaussianFormFactor(1.0), complex(4.0 * math.pi, 0.0)
        config = tmp_path / "flow.cfg"
        config.write_text("regulator = gaussian\nz_phase = 1.0\n", encoding="utf-8")
        rows = self.run(["flow", "--config", str(config), "--energy", "0.05:3000:90,log"], tmp_path, capsys)
        rows += self.run(["flow", "--regulator", "gaussian", "--energy", "0.05:3000:30,log"], tmp_path, capsys)
        with mp.workdps(DPS):
            g0 = gaussian_resolvent_mp(reg, 0.0, 1.0, NATURAL_UNITS)
            for z_re, z_im, *cells in rows:
                inv, tau = cells[0] + 1j * cells[1], cells[2] + 1j * cells[3]
                g = gaussian_resolvent_mp(reg, z_re, z_im, NATURAL_UNITS)
                ref = 1 / mp.mpf(tau0.real) - (g - g0)
                scale = abs(1.0 / tau0) + float(abs(g)) + float(abs(g0))
                assert_within_budget(inv, complex(ref), scale)
                assert_within_budget(tau, complex(1 / ref), abs(tau) ** 2 * scale)

    def test_gaussian_scatter_rows(self, tmp_path, capsys):
        # continuum values go through Ei alone; above E ~ 745 the on-shell
        # weight exp(-(k a)^2) underflows and the amplitude is zero
        reg, eps = GaussianFormFactor(1.0), 1.7
        rows = self.run(["scatter", "--regulator", "gaussian", "--epsilon", repr(eps), "--energy", "0.001:2000:90,log"],
                        tmp_path, capsys)
        for row in rows:
            assert (row[2] == row[3] == 0.0) == (on_shell_mp(eps, reg, row[0], NATURAL_UNITS)[0] == 0)
            self.check_scatter_row(row, eps, reg, UNITARITY_DEFECT_TOL)
        assert rows[-1][2] == 0.0 and rows[0][2] != 0.0

    def test_gaussian_scatter_subnormal_row(self, tmp_path, capsys):
        # b E underflows to 0 at E = 5e-324: g(E + i0) is formed in logs, and
        # the row holds its amplitude against mpmath at the exact b E
        eps, length = 1.0, 0.7
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"a = {length!r}\n", encoding="utf-8")
        (row,) = self.run(["scatter", "--regulator", "gaussian", "--epsilon", repr(eps), "--energy", "5e-324",
                           "--config", str(cfg)], tmp_path, capsys)
        with mp.workdps(DPS):
            x = mp.mpf(length**2) * mp.mpf(row[0])
            tau, scale = tau_mp(eps, mp.exp(-x) * mp.mpc(mp.ei(x), -mp.pi) / (4 * mp.pi))
        f_scale = math.sqrt(1.0 / (8.0 * math.pi * wavenumber(row[0])))
        assert_within_budget(row[2] + 1j * row[3], -f_scale * tau, f_scale * scale)
        assert row[9] == "OK"

    def test_well_scatter_rows(self, tmp_path, capsys):
        # the column pass of the circular well, from J/Y series rows (k a <= 2)
        # to integral rows; f carries the phase shift's error through
        # |d(e^{i delta} sin delta)/d delta| = 1
        eps = 0.7130104612422048
        well = well_from_coupling(eps, 1.0)
        rows = self.run(["scatter", "--regulator", "circular-well", "--epsilon", repr(eps),
                         "--energy", "0.011376664526243608:1137.6664526243608:300,log"], tmp_path, capsys)
        for row in rows[::7] + rows[240:250]:
            k = wavenumber(row[0])
            delta, scale = well_phase_mp(well, k, NATURAL_UNITS)
            f_scale = math.sqrt(1.0 / (8.0 * math.pi * k))
            with mp.workdps(DPS):
                f = complex(4 * f_scale * mp.expj(delta) * mp.sin(delta))
            assert_within_budget(row[2] + 1j * row[3], f, 4.0 * f_scale * (scale + 1.0))
            assert row[9] == "OK"

    def test_flow_pole_row(self, tmp_path, capsys):
        # 1/tau vanishes at |z| = e on the imaginary axis: tau cells blank
        rows = self.run(["flow", "--energy", f"1:{math.e ** 2!r}:5,log"], tmp_path, capsys)
        rows += self.run(["flow", "--energy", repr(math.e)], tmp_path, capsys)
        tau0 = complex(4.0 * math.pi, 0.0)
        for row in rows:
            with mp.workdps(DPS):
                inv = complex(1 / mp.mpf(tau0.real) - (log_from_above(row[0], row[1]) - log_from_above(0.0, 1.0)) / (4 * mp.pi))
            scale = abs(1.0 / tau0) + abs(inv)
            assert_within_budget(row[2] + 1j * row[3], inv, scale)
            if abs(row[2] + 1j * row[3]) < POLE_GUARD:
                assert row[4] is None and row[5] is None
            else:
                assert_within_budget(row[4] + 1j * row[5], 1.0 / inv, abs(1.0 / inv) ** 2 * scale)
        assert rows[-1][2] == 0.0 and rows[-1][4] is None

    def test_theorem_rows(self, tmp_path, capsys):
        eps = 1.2
        rows = self.run(["theorem", "--epsilon", repr(eps), "--lambda", "1.5:1e300:60,log"], tmp_path, capsys)
        for lam, abs_tau, naive, envelope in rows:
            with mp.workdps(DPS):
                tau, scale = tau_mp(eps, sharp_resolvent_mp(lam, 0.0, 1.0))
                naive_ref = float(4 * mp.pi / mp.log(lam))
                shifted = mp.log(mp.mpf(lam) - 1) - 4 * mp.pi / eps
                terms = abs(mp.log(mp.mpf(lam) - 1)) + 4 * mp.pi / eps
                env_ref = float(4 * mp.pi / shifted) if shifted > 0 else None
                env_scale = float(4 * mp.pi * terms / shifted**2)
            assert_within_budget(abs_tau, abs(tau), scale)
            assert_within_budget(naive, naive_ref)
            assert (envelope is None) == (env_ref is None)
            if env_ref is not None:
                assert_within_budget(envelope, env_ref, env_scale)
        assert rows[0][3] is None and rows[-1][3] is not None
