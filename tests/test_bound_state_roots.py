"""Bound-state roots over the whole coupling range: the sharp cutoff against
its closed form, the gaussian and the circular well against sign changes of
independently computed matching functions (scipy), the search limit, and
how many evaluations each root costs."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import exp1, j0, j1, k0e, k1e

from transmute_lab import amplitude
from transmute_lab.amplitude import bound_state_pole
from transmute_lab.energy_plane import PhysicalScales, log_bracket_root, log_search_floor
from transmute_lab.errors import NoBoundStateError
from transmute_lab.oracle import well as well_module
from transmute_lab.oracle.well import WellParameters, well_bound_state, well_from_coupling
from transmute_lab.regulators import GaussianFormFactor, SharpCutoff
from transmute_lab.tolerances import POLE_SEARCH_LOG_TOL

FOUR_PI = 4.0 * math.pi

ROOTS = settings(max_examples=60, derandomize=True, deadline=None)
couplings = st.floats(math.log(0.015), math.log(60.0)).map(math.exp)
scales = st.floats(-30.0, 30.0).map(lambda e: 10.0**e)
kappas = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
deep_couplings = st.floats(math.log(0.015), math.log(1e9)).map(math.exp)

J0_FIRST_ZERO = 2.404825557695773


def root_tol(x: float) -> float:
    return POLE_SEARCH_LOG_TOL * max(1.0, abs(x))


def changes_sign(f, lo: float, hi: float) -> bool:
    f_lo, f_hi = f(lo), f(hi)
    return f_lo == 0.0 or f_hi == 0.0 or (f_lo > 0.0) != (f_hi > 0.0)


def assert_root_or_no_bound_state(solve, mismatch, x_floor: float, x_top: float) -> None:
    """A root carries a sign change of the mismatch within its tolerance;
    NO_BOUND_STATE comes exactly when the mismatch keeps its sign from the
    floor to the top (both mismatches are monotone where no root exists)."""
    try:
        x = solve()
    except NoBoundStateError as exc:
        assert not exc.exact
        assert x_top <= x_floor or not changes_sign(mismatch, x_floor, x_top)
        return
    assert x_floor - root_tol(x_floor) <= x <= x_top + root_tol(x_top)
    assert changes_sign(mismatch, x - root_tol(x), x + root_tol(x))


def well_mismatch(well: WellParameters, kappa: float):
    # scaled by e^{gamma a}, which keeps the sign where K0 and K1 underflow,
    # and at its E -> depth limit above the depth
    a, v0 = well.radius, well.depth

    def f(x):
        energy = math.exp(x)
        k_in, gamma = math.sqrt(max(v0 - energy, 0.0) / kappa), math.sqrt(energy / kappa)
        return k_in * j1(k_in * a) * k0e(gamma * a) - gamma * k1e(gamma * a) * j0(k_in * a)

    return f


def well_top(well: WellParameters) -> float:
    return math.log(well.depth) + math.log1p(-1e-12)


class TestRootProperties:
    @ROOTS
    @given(eps=couplings, lam=scales, kappa=kappas)
    def test_sharp_root_is_the_closed_form(self, eps, lam, kappa):
        with mp.workdps(40):
            exact = float(mp.log(lam) - mp.log(mp.expm1(FOUR_PI / mp.mpf(eps))))
        x_floor, x_top = log_search_floor(lam), math.log(lam)
        if x_floor + 1e-9 < exact < x_top - 1e-9:
            x = math.log(bound_state_pole(eps, SharpCutoff(lam), PhysicalScales(kappa)).energy)
            assert abs(x - exact) <= root_tol(exact)
        elif not x_floor - 1e-9 <= exact <= x_top + 1e-9:
            with pytest.raises(NoBoundStateError) as err:
                bound_state_pole(eps, SharpCutoff(lam), PhysicalScales(kappa))
            assert not err.value.exact

    @ROOTS
    @given(eps=couplings, length=scales, kappa=kappas)
    def test_gaussian_root_is_a_sign_change(self, eps, length, kappa):
        # 1 + eps*I(-E) with I(-E) = -e^{bE} E1(bE)/(4 pi), b = a^2/kappa
        log_b = 2.0 * math.log(length) - math.log(kappa)

        def mismatch(x):
            t = math.exp(x + log_b)
            return 1.0 - eps * math.exp(t) * exp1(t) / FOUR_PI

        nominal = kappa / length**2
        assert_root_or_no_bound_state(
            lambda: math.log(bound_state_pole(eps, GaussianFormFactor(length), PhysicalScales(kappa)).energy),
            mismatch, log_search_floor(nominal), math.log(nominal))

    @ROOTS
    @given(eps=couplings, radius=scales, kappa=kappas)
    def test_well_root_is_a_sign_change(self, eps, radius, kappa):
        well = well_from_coupling(eps, radius, PhysicalScales(kappa))
        assert_root_or_no_bound_state(
            lambda: math.log(well_bound_state(well, PhysicalScales(kappa))),
            well_mismatch(well, kappa), log_search_floor(kappa / radius**2), well_top(well))

    @ROOTS
    @given(eps=deep_couplings, radius=scales, kappa=kappas)
    def test_well_root_is_the_ground_state(self, eps, radius, kappa):
        # a deep well has excited states too; the root must be the one with
        # no interior node, k_in a < j0,1, within the root's tolerance
        well = well_from_coupling(eps, radius, PhysicalScales(kappa))
        try:
            x = math.log(well_bound_state(well, PhysicalScales(kappa)))
        except NoBoundStateError:
            assert not changes_sign(well_mismatch(well, kappa), log_search_floor(kappa / radius**2), well_top(well))
            return
        assert changes_sign(well_mismatch(well, kappa), x - root_tol(x), x + root_tol(x))
        k_in = math.sqrt(max(well.depth - math.exp(x + root_tol(x)), 0.0) / kappa)
        assert k_in * radius < J0_FIRST_ZERO


class TestSearchLimit:
    @pytest.mark.parametrize("eps", [*np.linspace(0.0170, 0.0190, 81).tolist(), 1e-300])
    def test_well_shortcut_keeps_the_scan_decision(self, eps):
        # around the search limit a search that starts at the asymptote
        # decides as a scan over the whole range would: NO_BOUND_STATE
        # exactly where the mismatch keeps its sign from floor to top
        well = well_from_coupling(eps, 1.0)
        assert_root_or_no_bound_state(
            lambda: math.log(well_bound_state(well)), well_mismatch(well, 1.0), log_search_floor(1.0),
            well_top(well))

    @pytest.mark.parametrize("eps", np.geomspace(1e9, 1e14, 11).tolist())
    def test_deep_well_binds_up_to_the_top(self, eps):
        # NO_BOUND_STATE only where the ground state lies above the search
        # top depth * (1 - 1e-12), whose k_in a is then past j0,1: from
        # eps ~ 2e13 on
        well = well_from_coupling(eps, 1.0)
        try:
            x = math.log(well_bound_state(well))
        except NoBoundStateError:
            assert eps > 1e13 and math.sqrt(well.depth - math.exp(well_top(well))) > J0_FIRST_ZERO
            return
        assert changes_sign(well_mismatch(well, 1.0), x - root_tol(x), x + root_tol(x))

    def test_sharp_limits(self):
        # a root above Lambda (eps > 4 pi/ln 2) or below Lambda*1e-300 is
        # NO_BOUND_STATE, as the bracket over [floor, Lambda] decided it
        for eps in (FOUR_PI / math.log(2.0) * 1.001, FOUR_PI / 691.0):
            with pytest.raises(NoBoundStateError):
                bound_state_pole(eps, SharpCutoff(1.0))
        for eps in (FOUR_PI / math.log(2.0) * 0.999, FOUR_PI / 690.0):
            assert bound_state_pole(eps, SharpCutoff(1.0)).energy > 0.0


class TestLogBracketRoot:
    @pytest.mark.parametrize("root", [-650.0, -3.0, -0.25, 0.0, 0.5])
    def test_refines_to_tolerance(self, root):
        # a steep and a flat branch on either side of the root
        f = lambda x: math.expm1(min(3.0 * (x - root), 50.0)) if x > root else 1e-3 * (x - root)
        x = log_bracket_root(f, log_search_floor(1.0), 1.0, root - 1.3)
        assert abs(x - root) <= root_tol(root)

    def test_no_sign_change_down_to_the_floor(self):
        with pytest.raises(NoBoundStateError) as err:
            log_bracket_root(lambda x: 1.0, log_search_floor(1.0), 0.0, -1.0)
        assert not err.value.exact

    @pytest.mark.parametrize("guess, points", [
        # the top, guess +- 2, then steps twice as wide, clamped to the floor
        (-10.0, [0.0, -8.0, -12.0, -20.0, -36.0, -68.0, -100.0]),
        # points at or above the last one are skipped
        (1.0, [0.0, -1.0, -9.0, -25.0, -57.0, -100.0]),
        # a guess below the floor costs two evaluations, and so does -inf
        (-150.0, [0.0, -100.0]),
        (-math.inf, [0.0, -100.0]),
    ])
    def test_evaluation_points(self, guess, points):
        seen = []
        with pytest.raises(NoBoundStateError):
            log_bracket_root(lambda x: seen.append(x) or 1.0, -100.0, 0.0, guess)
        assert seen == points

    def test_empty_range_evaluates_nothing(self):
        seen = []
        with pytest.raises(NoBoundStateError) as err:
            log_bracket_root(lambda x: seen.append(x) or 1.0, 0.0, 0.0, -1.0)
        assert not err.value.exact and seen == []


class TestEvaluationCounts:
    """Solver effort per root, counted: this pins the cost of a bound state
    without timing anything."""

    @pytest.fixture
    def resolvent_calls(self, monkeypatch):
        calls = []
        inner = amplitude.negative_axis_resolvent
        monkeypatch.setattr(amplitude, "negative_axis_resolvent", lambda *a: calls.append(1) or inner(*a))
        return calls

    def test_sharp_cutoff_evaluates_nothing(self, resolvent_calls):
        for eps in np.geomspace(0.3, 15.0, 25).tolist():
            bound_state_pole(eps, SharpCutoff(1.0))
        assert resolvent_calls == []

    def test_gaussian_at_most_twelve(self, resolvent_calls):
        for eps in np.geomspace(0.3, 15.0, 25).tolist():
            resolvent_calls.clear()
            bound_state_pole(eps, GaussianFormFactor(1.0))
            assert len(resolvent_calls) <= 12, eps

    def test_well_at_most_twelve(self, monkeypatch):
        # the search starts at the shallow-well asymptote, and a guess 2 or
        # more below the floor ends after the top and the floor
        calls = []
        inner = well_module._matching
        monkeypatch.setattr(well_module, "_matching", lambda *a: calls.append(1) or inner(*a))
        for eps in np.geomspace(0.3, 15.0, 25).tolist():
            calls.clear()
            well_bound_state(well_from_coupling(eps, 1.0))
            assert len(calls) <= 12, eps
        for eps in (0.012, 0.015, 1e-300):
            calls.clear()
            with pytest.raises(NoBoundStateError):
                well_bound_state(well_from_coupling(eps, 1.0))
            assert len(calls) <= 2, eps
