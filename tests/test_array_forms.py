"""Array forms against the scalar reference functions, row by row.

The array forms use numpy's elementary functions (log, atan2, hypot,
arctan, sqrt), which may round differently from the C library that the
scalar functions call.  Every value must lie within ULP_BUDGET units in the
last place of its scale: the value itself, or for a difference of nearly
equal terms (unitarity defect, sliding kernels, 1/tau) the largest term.
Complex division is rounded as Python rounds it and must match exactly.

Gaussian values whose E1 argument lies in a power-series band of special
(|w| <= 3.5, or |w| < 40 near the negative axis) are the exception.  There
the array and the scalar forms sum the same cancelling series with
differently rounded complex arithmetic, and they may differ by hundreds of
ulps; both forms are held against mpmath instead, within MPMATH_RTOL of the
terms.
"""

import math
import random
import sys

import mpmath as mp
import numpy as np
import pytest

from transmute_lab import cli
from transmute_lab.amplitude import (
    cutoff_envelope,
    cutoff_envelope_array,
    on_shell_amplitude,
    on_shell_amplitude_array,
    regulated_amplitude,
    renormalized_amplitude,
    renormalized_amplitude_array,
    sharp_amplitude_array,
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
from transmute_lab.errors import PoleSingularityError, SingularInputError, UnitarityViolationError
from transmute_lab.observables import (
    continuum_observables_array,
    f_from_tau,
    optical_theorem_defect,
    phase_shift_from_tau,
    tau_from_phase_shift,
)
from transmute_lab.regulators import (
    GaussianFormFactor,
    PureDelta,
    SharpCutoff,
    resolvent_element,
    slide_kernel,
    slide_kernels_along,
)
from transmute_lab.special import _E1_ASYMPTOTIC_RADIUS, _E1_NEAR_AXIS, _E1_SERIES_RADIUS
from transmute_lab.tolerances import POLE_GUARD

ULP_BUDGET = 8
MPMATH_RTOL = 1e-12
EPS = sys.float_info.epsilon
KAPPA = PhysicalScales(3.5)


def assert_within_budget(values, reference, scale=None):
    values = np.asarray(values, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    scale = np.abs(reference) if scale is None else np.asarray(scale, dtype=float)
    limit = ULP_BUDGET * EPS * scale
    for part in (np.real, np.imag):
        err = np.abs(part(values) - part(reference))
        assert np.all(err <= limit), (err / np.maximum(scale * EPS, 1e-320)).max()


def assert_near_mpmath(values, reference, scale):
    err = np.abs(np.asarray(values, dtype=complex) - np.asarray(reference, dtype=complex))
    assert np.all(err <= MPMATH_RTOL * np.asarray(scale)), (err / np.asarray(scale)).max()


def gaussian_w(reg, re, im, scales):
    """The E1 argument w = -b z of the gaussian resolvent, rounded as there;
    None on the continuum, where the resolvent goes through Ei."""
    if im == 0.0 and re > 0.0:
        return None
    b = reg.length**2 / scales.kinetic_constant
    return complex(-b * re, -b * im)


def in_series_band(reg, re, im, scales):
    w = gaussian_w(reg, re, im, scales)
    if w is None or (w.imag == 0.0 and w.real < 0.0):
        return False
    r = abs(w)
    return r <= _E1_SERIES_RADIUS or (r < _E1_ASYMPTOTIC_RADIUS and w.real < 0.0 and r + w.real <= _E1_NEAR_AXIS)


def gaussian_resolvent_mp(reg, re, im, scales):
    """The gaussian g(z) by mpmath, at the rounded E1 or Ei argument."""
    kappa = scales.kinetic_constant
    pref = 1.0 / (4.0 * math.pi * kappa)
    w = gaussian_w(reg, re, im, scales)
    with mp.workdps(30):
        if w is None:
            x = mp.mpf(reg.length**2 / kappa * re)
            return pref * complex(mp.exp(-x) * mp.ei(x), -math.pi * mp.exp(-x))
        wm = mp.mpc(w.real, w.imag)
        return -pref * complex(mp.exp(wm) * mp.e1(wm))


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
        reference = [principal_log_ratio(ComplexEnergy(*a), ComplexEnergy(*b)) for a, b in zip(z, z0)]
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
        values = renormalized_amplitude_array(e_b, energies)
        reference = [renormalized_amplitude(e_b, ComplexEnergy.continuum(e)).tau for e in energies]
        assert_within_budget(values, reference)
        points = [(-1.0, 0.0), (-1.0, -0.0), (0.0, 7.0), (-3.0, 1e-9), (1e-300, 1e-300)]
        re, im = np.array(points).T
        values = renormalized_amplitude_array(e_b, re, im)
        assert_within_budget(values, [renormalized_amplitude(e_b, complex(*p)).tau for p in points])

    def test_renormalized_pole_raises(self):
        with pytest.raises(PoleSingularityError) as exc:
            renormalized_amplitude_array(2.5, np.array([1.0, -2.5]), np.array([0.0, -0.0]))
        assert exc.value.pole_energy == -2.5

    @pytest.mark.parametrize("reg", [PureDelta(), SharpCutoff(7.0), SharpCutoff(1e-200), GaussianFormFactor(0.5)],
                             ids=["pure-delta", "sharp", "sharp-tiny", "gaussian"])
    def test_on_shell_matches_scalar(self, reg):
        energies = log_grid(-6, 6, 241)
        values = on_shell_amplitude_array(1.3, reg, energies, KAPPA)
        reference = [on_shell_amplitude(1.3, reg, e, KAPPA).tau for e in energies]
        assert_within_budget(values, reference)
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
        reference = [on_shell_amplitude(0.9, reg, e, KAPPA).tau for e in energies]
        inside = [KAPPA.kinetic_constant * wavenumber(e, KAPPA) ** 2 <= lam for e in energies]
        assert ((values != 0) == np.array(inside)).all()
        assert any(inside) and not all(inside)
        assert_within_budget(values, reference)

    def test_cutoff_edge_raises_like_scalar(self):
        reg = SharpCutoff(3.0)
        with pytest.raises(SingularInputError) as scalar:
            on_shell_amplitude(1.0, reg, 3.0)
        with pytest.raises(SingularInputError) as array:
            on_shell_amplitude_array(1.0, reg, [1.0, 3.0])
        assert str(array.value) == str(scalar.value)

    def test_sharp_over_cutoffs_matches_scalar(self):
        cutoffs = log_grid(0.5, 300, 400)
        for z in [(0.0, 1.0), (2.0, 0.0), (-1.0, -0.0), (0.3, 0.2)]:
            values = sharp_amplitude_array(1.1, cutoffs, *z, KAPPA)
            reference = [regulated_amplitude(1.1, SharpCutoff(lam), complex(*z), KAPPA).tau for lam in cutoffs]
            assert_within_budget(values, reference)

    def test_sharp_pole_raises_like_scalar(self):
        reg = SharpCutoff(10.0)
        eps = 2.0
        pole = reg.cutoff / math.expm1(4.0 * math.pi / eps)
        with pytest.raises(PoleSingularityError) as scalar:
            regulated_amplitude(eps, reg, -pole)
        with pytest.raises(PoleSingularityError) as array:
            sharp_amplitude_array(eps, reg.cutoff, np.array([1.0, -pole]), 0.0)
        assert array.value.pole_energy == scalar.value.pole_energy

    def test_envelope_matches_scalar(self):
        cutoffs = np.concatenate([log_grid(-1, 300, 500), [1.0, math.nextafter(1.0, 2.0)]])
        values = cutoff_envelope_array(0.9, 1.0, cutoffs)
        reference = [cutoff_envelope(0.9, 1.0, lam) for lam in cutoffs]
        assert np.isnan(values).tolist() == [r is None for r in reference]
        kept = ~np.isnan(values)
        assert_within_budget(values[kept], [r for r in reference if r is not None])


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
        points = [ComplexEnergy(r, i) for r, i in zip(re.tolist(), im.tolist())]
        ref_anchor = [slide_kernel(reg, p, z0, KAPPA) for p in points]
        ref_steps = [slide_kernel(reg, b, a, KAPPA) for a, b in zip(points, points[1:])]
        if isinstance(reg, GaussianFormFactor):
            g = np.array([resolvent_element(reg, p, KAPPA) for p in points])
            g0 = resolvent_element(reg, z0, KAPPA)
            series = np.array([in_series_band(reg, r, i, KAPPA) for r, i in zip(re.tolist(), im.tolist())])
            series_step = series[1:] | series[:-1]
            # a kernel is a difference of resolvents: scale by the terms
            scale_anchor, scale_steps = np.abs(g) + abs(g0), np.abs(g[1:]) + np.abs(g[:-1])
            assert_within_budget(from_anchor[~series], np.array(ref_anchor)[~series], scale_anchor[~series])
            assert_within_budget(steps[~series_step], np.array(ref_steps)[~series_step], scale_steps[~series_step])
            # the anchor z0 = i is itself in a series band, and both forms
            # take g(z0) from resolvent_element
            g_mp = np.array([gaussian_resolvent_mp(reg, p.re, p.im, KAPPA) for p in points])
            for anchor, step in ((from_anchor, steps), (ref_anchor, ref_steps)):
                assert_near_mpmath(np.asarray(anchor)[series], (g_mp - g0)[series], scale_anchor[series])
                assert_near_mpmath(np.asarray(step)[series_step], (g_mp[1:] - g_mp[:-1])[series_step],
                                   scale_steps[series_step])
            assert series.any() == (phase != 0.0)
            return
        # a kernel is a difference of logs: scale by the terms
        terms = 4.0 * math.pi * KAPPA.kinetic_constant
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
            f = f_from_tau(tau, k)
            assert obs["k"][i] == k
            assert_within_budget(obs["f"][i], f)
            assert_within_budget(obs["dL_dtheta"][i], abs(f) ** 2)
            l_optical = math.sqrt(8.0 * math.pi / k) * f.imag
            assert_within_budget(obs["L_optical"][i], l_optical)
            assert_within_budget(obs["L_from_im_tau"][i], -tau.imag / k)
            # a difference of two nearly equal terms: absolute, against them
            terms = 2.0 * math.pi * abs(f) ** 2 + abs(l_optical)
            assert_within_budget(obs["optical_defect"][i], optical_theorem_defect(tau, k), terms)
            try:
                delta0 = phase_shift_from_tau(tau, defect_tol=tol)
            except UnitarityViolationError:
                assert obs["violation"][i] and math.isnan(obs["phase_shift"][i])
            else:
                assert not obs["violation"][i]
                assert_within_budget(obs["phase_shift"][i], delta0)
        assert obs["violation"].any() and not obs["violation"].all()

    def test_resonance_row_is_exact(self):
        obs = continuum_observables_array(np.array([-4j]), [1.0])
        assert obs["phase_shift"][0] == 0.5 * math.pi == phase_shift_from_tau(-4j)


class TestTables:
    """Whole CLI tables against the row code of the scalar functions."""

    def run(self, args, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert cli.main(args + ["--out", str(out)]) == 0, capsys.readouterr().err
        lines = [ln for ln in out.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
        return [[None if c == "" else (c if c[0].isalpha() else float(c)) for c in ln.split(",")] for ln in lines[1:]]

    def test_scatter_rows(self, tmp_path, capsys):
        # rows below and above the cutoff (zero amplitude), the two sides of
        # the weight boundary and, at a tight tolerance, unitarity violations
        lam, eps, tol = 4.0, 1.0, 1e-17
        args = ["scatter", "--regulator", "sharp-cutoff", "--lambda", repr(lam), "--epsilon", repr(eps),
                "--tol-override", f"unitarity_defect_tol={tol!r}", "--energy"]
        rows = []
        above = [math.nextafter(lam, math.inf)]
        while len(above) < 8:
            above.append(math.nextafter(above[-1], math.inf))
        for grid in ["0.01:100:40,log", repr(math.nextafter(lam, 0.0))] + [repr(e) for e in above]:
            rows += self.run(args + [grid], tmp_path, capsys)
        statuses = set()
        for row in rows:
            energy = row[0]
            tau = on_shell_amplitude(eps, SharpCutoff(lam), energy).tau
            f = f_from_tau(tau, wavenumber(energy))
            assert_within_budget(row[2] + 1j * row[3], f)
            try:
                delta0, status = phase_shift_from_tau(tau, defect_tol=tol), "OK"
            except UnitarityViolationError:
                delta0, status = None, "UNITARITY_VIOLATION"
            assert row[9] == status
            if delta0 is None:
                assert row[7] is None
            else:
                assert_within_budget(row[7], delta0)
            statuses.add(status)
        assert statuses == {"OK", "UNITARITY_VIOLATION"}
        # above the cutoff, the on-shell weight follows kappa*k*k <= Lambda
        weighted = [row[2] != 0.0 for row in rows if row[0] > lam and row[0] in above]
        assert any(weighted) and not all(weighted)

    def test_gaussian_flow_rows(self, tmp_path, capsys):
        # the z_phase = 1 ray crosses every E1 branch from the series to the
        # asymptotic one; the default ray (Re w = 0) the continued fraction
        reg, z0, tau0 = GaussianFormFactor(1.0), ComplexEnergy(0.0, 1.0), complex(4.0 * math.pi, 0.0)
        config = tmp_path / "flow.cfg"
        config.write_text("regulator = gaussian\nz_phase = 1.0\n", encoding="utf-8")
        rows = self.run(["flow", "--config", str(config), "--energy", "0.05:3000:90,log"], tmp_path, capsys)
        rows += self.run(["flow", "--regulator", "gaussian", "--energy", "0.05:3000:30,log"], tmp_path, capsys)
        g0 = resolvent_element(reg, z0)
        bands = set()
        for z_re, z_im, *cells in rows:
            z = ComplexEnergy(z_re, z_im)
            inv, tau = cells[0] + 1j * cells[1], cells[2] + 1j * cells[3]
            g = resolvent_element(reg, z)
            scale = abs(1.0 / tau0) + abs(g) + abs(g0)
            series = in_series_band(reg, z_re, z_im, NATURAL_UNITS)
            bands.add(series)
            if series:
                ref = 1.0 / tau0 - (gaussian_resolvent_mp(reg, z_re, z_im, NATURAL_UNITS) - g0)
                assert_near_mpmath(inv, ref, scale)
                assert_near_mpmath(tau, 1.0 / ref, abs(tau) ** 2 * scale)
            else:
                ref = 1.0 / tau0 - slide_kernel(reg, z, z0)
                assert_within_budget(inv, ref, scale)
                assert_within_budget(tau, 1.0 / ref)
        assert bands == {True, False}

    def test_gaussian_scatter_rows(self, tmp_path, capsys):
        # continuum values go through Ei alone; above E ~ 745 the on-shell
        # weight exp(-(k a)^2) underflows and the amplitude is zero
        reg, eps = GaussianFormFactor(1.0), 1.7
        rows = self.run(["scatter", "--regulator", "gaussian", "--epsilon", repr(eps), "--energy", "0.001:2000:90,log"],
                        tmp_path, capsys)
        for row in rows:
            energy = row[0]
            tau = on_shell_amplitude(eps, reg, energy).tau
            f = f_from_tau(tau, wavenumber(energy))
            assert_within_budget(row[2] + 1j * row[3], f)
            assert (row[2] == row[3] == 0.0) == (tau == 0)
            try:
                delta0, status = phase_shift_from_tau(tau), "OK"
            except UnitarityViolationError:
                delta0, status = None, "UNITARITY_VIOLATION"
            assert row[9] == status
            if delta0 is None:
                assert row[7] is None
            else:
                assert_within_budget(row[7], delta0)
        assert rows[-1][2] == 0.0 and rows[0][2] != 0.0

    def test_flow_pole_row(self, tmp_path, capsys):
        # 1/tau vanishes at |z| = e on the imaginary axis: tau cells blank
        rows = self.run(["flow", "--energy", f"1:{math.e ** 2!r}:5,log"], tmp_path, capsys)
        rows += self.run(["flow", "--energy", repr(math.e)], tmp_path, capsys)
        tau0 = complex(4.0 * math.pi, 0.0)
        z0 = ComplexEnergy(0.0, 1.0)
        for row in rows:
            z = ComplexEnergy(row[0], row[1])
            inv = 1.0 / tau0 - slide_kernel(PureDelta(), z, z0)
            assert_within_budget(row[2] + 1j * row[3], inv, abs(1.0 / tau0) + abs(inv))
            if abs(inv) < POLE_GUARD:
                assert row[4] is None and row[5] is None
            else:
                assert_within_budget(row[4] + 1j * row[5], 1.0 / inv)
        assert rows[-1][2] == 0.0 and rows[-1][4] is None

    def test_theorem_rows(self, tmp_path, capsys):
        eps = 1.2
        rows = self.run(["theorem", "--epsilon", repr(eps), "--lambda", "1.5:1e300:60,log"], tmp_path, capsys)
        for lam, abs_tau, naive, envelope in rows:
            assert_within_budget(abs_tau, abs(regulated_amplitude(eps, SharpCutoff(lam), 1j).tau))
            assert_within_budget(naive, 4.0 * math.pi / math.log(lam))
            reference = cutoff_envelope(eps, 1.0, lam)
            assert (envelope is None) == (reference is None)
            if reference is not None:
                assert_within_budget(envelope, reference)
        assert rows[0][3] is None and rows[-1][3] is not None

