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

from transmute_lab import regulators
from transmute_lab.amplitude import bound_state_pole, bound_states
from transmute_lab.energy_plane import PhysicalScales, log_bracket_root, log_search_floor
from transmute_lab.errors import NoBoundStateError
from transmute_lab.oracle import well as well_module
from transmute_lab.oracle.well import (
    CircularWell,
    WellParameters,
    well_bound_state,
    well_bound_states,
    well_depths,
    well_from_coupling,
)
from transmute_lab.regulators import GaussianFormFactor, PureDelta, SharpCutoff
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


def traced(f, seen):
    """f, recording each element's evaluation points in seen[element]."""
    def g(index, x):
        for i, v in zip(index.tolist(), x.tolist()):
            seen.setdefault(i, []).append(v)
        return f(index, x)

    return g


def rising(roots):
    """f = x - root per element, with its slope: a Newton step lands on the
    root from anywhere."""
    roots = np.asarray(roots, dtype=float)

    def f(index, x):
        return x - roots[index], np.ones(x.size)

    return f


class TestLogBracketRoot:
    # every root and every guess below also sits in a column with the others
    ROOTS = [-650.0, -3.0, -0.25, 0.0, 0.5]
    GUESSES = [-10.0, 1.0, -150.0, -math.inf]

    @pytest.mark.parametrize("root", ROOTS)
    def test_refines_to_tolerance(self, root):
        # a steep and a flat branch on either side of each root of a column
        roots = np.array([root] + [r for r in self.ROOTS if r != root])

        def f(index, x):
            d = x - roots[index]
            steep = np.minimum(3.0 * d, 50.0)
            return (np.where(d > 0.0, np.expm1(steep), 1e-3 * d),
                    np.where(d > 0.0, np.where(3.0 * d < 50.0, 3.0 * np.exp(steep), 0.0), 1e-3))

        x = log_bracket_root(f, log_search_floor(1.0), 1.0, roots - 1.3)
        assert abs(x[0] - root) <= root_tol(root)
        assert np.all(np.abs(x - roots) <= POLE_SEARCH_LOG_TOL * np.maximum(1.0, np.abs(roots)))

    def test_no_sign_change_down_to_the_floor(self):
        # roots below the floor and above the top: f keeps its sign over the range
        x = log_bracket_root(rising([-1e3, -2e3, 5.0, 1e3]), log_search_floor(1.0), 0.0, [-1.0, -5.0, -1.0, 0.0])
        assert np.isnan(x).all()

    @pytest.mark.parametrize("guess, points", [
        # the guess clamped to the range, then Newton's step, clamped to the
        # floor, where the root's sign ends the search
        (-10.0, [-10.0, -100.0]),
        (1.0, [0.0, -100.0]),
        # a guess below the floor costs one evaluation, and so does -inf
        (-150.0, [-100.0]),
        (-math.inf, [-100.0]),
    ])
    def test_evaluation_points(self, guess, points):
        # each element of a column that holds every guess searches as it
        # would alone; every root lies below the floor
        guesses = [guess] + [g for g in self.GUESSES if g != guess]
        seen = {}
        x = log_bracket_root(traced(rising(np.full(4, -1e3)), seen), -100.0, 0.0, guesses)
        assert np.isnan(x).all() and seen[0] == points

    def test_empty_range_evaluates_nothing(self):
        # only the element with a nonempty range is evaluated
        seen = {}
        x = log_bracket_root(traced(rising([5.0, 5.0]), seen), [0.0, -1.0], 0.0, -1.0)
        assert np.isnan(x).all() and list(seen) == [1]

    def test_exact_zeros_end_the_search(self):
        # f = 0 at the top, or at a point of the search, is the root itself
        zeros = np.array([0.0, -8.0, -36.0])
        seen = {}
        x = log_bracket_root(traced(rising(zeros), seen), -100.0, 0.0, np.full(3, -10.0))
        assert x.tolist() == zeros.tolist()
        assert [seen[i] for i in range(3)] == [[-10.0, 0.0], [-10.0, -8.0], [-10.0, -36.0]]

    def test_overshooting_newton_steps_fall_back_to_the_bracket(self):
        # arctan sends Newton's step from 3 away from its root far past it;
        # every point stays inside the bracket of the points before it, and
        # the search ends within the tolerance
        roots = np.array([-20.0, -3.0, 0.5])
        seen = {}

        def f(index, x):
            d = x - roots[index]
            return np.arctan(d), 1.0 / (1.0 + d * d)

        x = log_bracket_root(traced(f, seen), -100.0, 10.0, roots + 3.0)
        assert np.all(np.abs(x - roots) <= POLE_SEARCH_LOG_TOL * np.maximum(1.0, np.abs(roots)))
        for i, root in enumerate(roots.tolist()):
            points = seen[i]
            for k, p in enumerate(points):
                lower = max([q for q in points[:k] if q <= root], default=-100.0)
                upper = min([q for q in points[:k] if q >= root], default=10.0)
                assert lower <= p <= upper
            assert len(points) <= 12


class TestEvaluationCounts:
    """Solver effort per root, counted: this pins the cost of a bound state
    without timing anything."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """Evaluation points per element of every column search."""
        seen = {}
        for module in (regulators, well_module):
            inner = module.log_bracket_root
            monkeypatch.setattr(module, "log_bracket_root", lambda f, *a, inner=inner: inner(traced(f, seen), *a))
        return seen

    def test_sharp_cutoff_evaluates_nothing(self, evaluations):
        bound_states(np.geomspace(0.3, 15.0, 25), SharpCutoff(1.0))
        assert evaluations == {}

    def test_gaussian_at_most_twelve(self, evaluations):
        _, unbound, _ = bound_states(np.geomspace(0.3, 15.0, 25), GaussianFormFactor(1.0))
        assert not unbound.any() and len(evaluations) == 25
        assert max(map(len, evaluations.values())) <= 12

    def test_well_at_most_twelve(self, evaluations):
        # the search starts at the shallow-well asymptote, and a root below
        # a guess below the floor ends after the floor
        eps = np.geomspace(0.3, 15.0, 25)
        _, unbound = well_bound_states(1.0, well_depths(eps, 1.0))
        assert not unbound.any() and len(evaluations) == 25
        assert max(map(len, evaluations.values())) <= 12
        evaluations.clear()
        _, unbound = well_bound_states(1.0, well_depths([0.012, 0.015, 1e-300], 1.0))
        assert unbound.all() and max(map(len, evaluations.values())) <= 1

    # evaluations per element of two wide columns under the outward walk and
    # Chandrupatla's method that the Newton search replaced; the search takes
    # no more for any element, and half as many or fewer for the column
    WALK_GAUSSIAN = [2, 2, 2, 2, 2, 2, 4, 4, 4, 5, 4, 4, 4, 5, 4, 4, 4, 4, 5, 6,
                     5, 6, 7, 7, 8, 8, 8, 9, 9, 9, 9, 10, 8, 9, 9, 9, 9, 9, 9, 9]
    WALK_WELL = [2, 2, 5, 5, 5, 7, 8, 9, 10, 11, 9, 10, 10, 10, 10, 9, 9, 9, 9, 9,
                 9, 9, 9, 9, 9, 8, 8, 8, 8, 8, 8, 7, 7, 7, 6, 6, 6, 4, 3, 2]

    def test_wide_gaussian_column_costs_no_more_than_the_walk(self, evaluations):
        # from below the floor (eps < 0.018) to above the top (eps > 21.1)
        bound_states(np.geomspace(0.005, 60.0, 40), GaussianFormFactor(1.0))
        counts = [len(evaluations[i]) for i in range(40)]
        assert all(n <= walk for n, walk in zip(counts, self.WALK_GAUSSIAN)), counts
        assert 2 * sum(counts) <= sum(self.WALK_GAUSSIAN), counts

    def test_wide_well_column_costs_no_more_than_the_walk(self, evaluations):
        # from below the floor to deep wells, whose search starts at the
        # infinitely deep well's ground state, and above the top (eps > 2e13)
        well_bound_states(1.0, well_depths(np.geomspace(0.005, 3e13, 40), 1.0))
        counts = [len(evaluations[i]) for i in range(40)]
        assert all(n <= walk for n, walk in zip(counts, self.WALK_WELL)), counts
        assert 2 * sum(counts) <= sum(self.WALK_WELL), counts

    def test_slopes_are_derivatives(self, monkeypatch):
        # each search's f returns its slope in ln E: a central difference of
        # its values agrees about every point the search evaluates
        searches = []
        for module in (regulators, well_module):
            def record(f, *args, inner=module.log_bracket_root):
                seen = {}
                searches.append((f, seen))
                return inner(traced(f, seen), *args)

            monkeypatch.setattr(module, "log_bracket_root", record)
        eps, scales = np.geomspace(0.3, 60.0, 9), PhysicalScales(2.0)
        bound_states(eps, GaussianFormFactor(0.7), scales)
        well_bound_states(0.7, well_depths(eps, 0.7, scales), scales)
        assert len(searches) == 2
        for f, seen in searches:
            index = np.array([i for i, points in seen.items() for _ in points])
            x = np.array([p for points in seen.values() for p in points])
            # centred just below each point, which may be the top
            h = 1e-6 * np.maximum(1.0, np.abs(x))
            central = (f(index, x)[0] - f(index, x - 2.0 * h)[0]) / (2.0 * h)
            assert np.allclose(f(index, x - h)[1], central, rtol=1e-5, atol=1e-9)


def mp_root(f, u: float):
    """The root of f near the double u at 40 digits: two secant steps from u
    and a point 1e-14 * max(1, |u|) above it, after which its error lies
    below 1e-30 (the second ends at once where the first met the root)."""
    with mp.workdps(40):
        a = mp.mpf(u)
        b = a + mp.mpf(1e-14) * max(1.0, abs(u))
        fa, fb = f(a), f(b)
        for _ in range(2):
            if fb == fa:
                break
            a, fa, b = b, fb, b - fb * (b - a) / (fb - fa)
            fb = f(b)
        return b


class TestAgainstMpmath:
    """The roots are as accurate as their functions: within 1e-15 *
    max(1, |ln E|) of 40-digit roots, a fraction of POLE_SEARCH_LOG_TOL."""

    @staticmethod
    def assert_within(u: float, exact) -> None:
        assert abs(float(u - exact)) <= 1e-15 * max(1.0, abs(u)), (u, float(exact))

    def test_gaussian_roots(self):
        eps = np.geomspace(0.3, 15.0, 40)
        energy, unbound, _ = bound_states(eps, GaussianFormFactor(1.0))
        assert not unbound.any()
        for e, u in zip(eps.tolist(), np.log(energy).tolist()):
            # 1 - (eps/4 pi) e^x E1(x) at x = E, a = kappa = 1
            self.assert_within(u, mp_root(lambda v: 1 - e / (4 * mp.pi) * mp.exp(mp.exp(v)) * mp.e1(mp.exp(v)), u))

    def test_well_roots(self):
        # the workloads' couplings, and deep wells whose search starts at the
        # infinitely deep well's ground state
        eps = np.array([*np.geomspace(0.3, 15.0, 10), 30.0, 60.0, 200.0])
        depth = well_depths(eps, 1.0)
        energy, unbound = well_bound_states(1.0, depth)
        assert not unbound.any()
        for v0, u in zip(depth.tolist(), np.log(energy).tolist()):
            def matching(v, v0=mp.mpf(v0)):
                k_in, gamma = mp.sqrt(v0 - mp.exp(v)), mp.exp(v / 2)
                return k_in * mp.besselj(1, k_in) * mp.besselk(0, gamma) - gamma * mp.besselk(1, gamma) * mp.besselj(0, k_in)

            self.assert_within(u, mp_root(matching, u))


class TestOneDispatch:
    """bound_states solves every model of bind: the three regulators and the
    circular well."""

    # the first row's root lies below the search floor
    EPS = np.geomspace(0.01, 40.0, 9)

    def test_nominal_cutoff_per_model(self):
        scales = PhysicalScales(2.0)
        solves = [bound_states(self.EPS, model, scales)
                  for model in (SharpCutoff(3.0), GaussianFormFactor(0.7), CircularWell(0.7), PureDelta())]
        assert [nominal for _, _, nominal in solves[:3]] == [3.0, 2.0 / 0.7**2, 2.0 / 0.7**2]
        energy, unbound, nominal = solves[3]
        assert math.isnan(nominal) and unbound.all() and np.isnan(energy).all()

    @pytest.mark.parametrize("radius,kappa", [(1.0, 1.0), (0.7, 2.0), (1e-3, 5.0)])
    def test_well_rows_are_the_oracle_columns(self, radius, kappa):
        scales = PhysicalScales(kappa)
        energy, unbound, _ = bound_states(self.EPS, CircularWell(radius), scales)
        expected, expected_unbound = well_bound_states(radius, well_depths(self.EPS, radius, scales), scales)
        assert energy.tobytes() == expected.tobytes() and unbound.tolist() == expected_unbound.tolist()
        assert unbound[0] and not unbound[1:].any()
