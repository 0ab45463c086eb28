"""Each closed form has one implementation, its array form; the scalar names
are its 0-d calls.  These properties hold every array form equal, to the
bit, to its scalar name element by element (or, for the on-shell amplitude,
the cutoff envelope and the phase shift, which have no scalar name, to its
one-element call), for 1-d, 2-d and broadcast
shapes of contiguous arrays (numpy rounds some functions of a reversed view
through other loops); points include -0.0 imaginary parts, continuum points
and gaussian resolvents across the E1 branches.  The bound-state solves are
column solves too, and each column root equals its one-element call; the
one-coupling names stay scalar, each one one-element column solve.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from transmute_lab import amplitude
from transmute_lab.amplitude import (
    bound_state_pole,
    bound_states,
    cutoff_envelope_array,
    on_shell_amplitude_array,
    regulated_amplitude,
    regulated_amplitude_array,
    renormalized_amplitude,
    renormalized_amplitude_array,
)
from transmute_lab.energy_plane import ComplexEnergy, PhysicalScales, principal_log_ratio, principal_log_ratio_array
from transmute_lab.errors import NoBoundStateError, TransmuteLabError
from transmute_lab.observables import (
    continuum_observables_array,
    f_from_tau,
    optical_theorem_defect,
    tau_from_phase_shift,
    total_target_length,
    unitarity_defect,
)
from transmute_lab.oracle import well as well_module
from transmute_lab.oracle.well import well_bound_state, well_bound_states, well_depths, well_from_coupling
from transmute_lab.regulators import (
    GaussianFormFactor,
    PureDelta,
    SharpCutoff,
    resolvent_array,
    resolvent_derivative,
    resolvent_element,
    slide_kernel,
    slide_kernels_along,
)
from transmute_lab.special import expi_scaled, expi_scaled_array

ZERO_DIM = settings(max_examples=25, derandomize=True, deadline=None)

# |z| across the E1 branches of a unit-length gaussian (|w| = |z| from 1e-3
# to 1e3) and across the double range
magnitudes = st.one_of(st.floats(-3.0, 3.0), st.floats(-300.0, 300.0)).map(lambda e: 10.0**e)
kappas = st.sampled_from([PhysicalScales(1.0), PhysicalScales(3.5), PhysicalScales(0.25)])
couplings = st.floats(0.05, 20.0)
regs = st.sampled_from([SharpCutoff(1.0), SharpCutoff(1e4), GaussianFormFactor(1.0), GaussianFormFactor(0.1)])


@st.composite
def points(draw):
    """A nonzero point of the closed upper half plane: interior, continuum
    (Im = +0.0 or -0.0) or negative axis (Im = +0.0 or -0.0)."""
    r = draw(magnitudes)
    kind = draw(st.sampled_from(["interior", "continuum", "negative"]))
    if kind == "interior":
        phase = draw(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
        return r * math.cos(phase), max(r * math.sin(phase), 5e-324)
    zero = draw(st.sampled_from([0.0, -0.0]))
    return (r, zero) if kind == "continuum" else (-r, zero)


@st.composite
def shaped(draw, elements):
    """Two arrays of elements in one of three layouts: equal 1-d shapes,
    equal 2-d shapes, or an (n, 1) and a (1, m) that broadcast to (n, m)."""
    layout = draw(st.sampled_from(["1d", "2d", "broadcast"]))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if layout == "1d":
        a, b = zip(*draw(st.lists(elements, min_size=n, max_size=n)))
        return np.array(a), np.array(b)
    if layout == "2d":
        cells = draw(st.lists(elements, min_size=n * m, max_size=n * m))
        a, b = (np.array(part).reshape(n, m) for part in zip(*cells))
        return a, b
    first = draw(st.lists(elements, min_size=n, max_size=n))
    second = draw(st.lists(elements, min_size=m, max_size=m))
    return np.array([p[0] for p in first]).reshape(n, 1), np.array([p[1] for p in second]).reshape(1, m)


def elementwise(fn, *arrays):
    """fn applied to each element of the broadcast arrays, in their shape."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    flat = [np.broadcast_to(a, shape).ravel().tolist() for a in arrays]
    return np.array([fn(*args) for args in zip(*flat)]).reshape(shape)


def same(values, reference):
    assert values.shape == reference.shape
    assert values.ravel().tolist() == reference.ravel().tolist()


def evaluated(fn, *args):
    """fn(*args), or None where it raises (a pole, a singular point): the
    array form raises too, which its own tests pin."""
    try:
        return fn(*args)
    except TransmuteLabError:
        return None


class TestArrayEqualsZeroDim:
    @ZERO_DIM
    @given(zs=shaped(points()))
    def test_principal_log_ratio(self, zs):
        re, im = zs
        re0, im0 = np.roll(re, 1), np.roll(im, 1)
        values = principal_log_ratio_array(re, im, re0, im0)
        same(values, elementwise(lambda a, b, c, d: principal_log_ratio(ComplexEnergy(a, b), ComplexEnergy(c, d)),
                                 re, im, re0, im0))

    @ZERO_DIM
    @given(reg=regs, zs=shaped(points()), kappa=kappas)
    def test_resolvent(self, reg, zs, kappa):
        re, im = zs
        values = evaluated(resolvent_array, reg, re, im, kappa)
        assume(values is not None)
        same(values, elementwise(lambda a, b: resolvent_element(reg, ComplexEnergy(a, b), kappa), re, im))

    @ZERO_DIM
    @given(eps=couplings, reg=st.one_of(regs, st.just(PureDelta())), zs=shaped(points()), kappa=kappas)
    def test_regulated_amplitude(self, eps, reg, zs, kappa):
        re, im = zs
        values = evaluated(regulated_amplitude_array, eps, reg, re, im, kappa)
        assume(values is not None)
        same(values, elementwise(lambda a, b: regulated_amplitude(eps, reg, ComplexEnergy(a, b), kappa).tau, re, im))

    @ZERO_DIM
    @given(eps=st.lists(couplings, min_size=1, max_size=5), z=points())
    def test_regulated_amplitude_over_a_cutoff_schedule(self, eps, z):
        cutoffs = np.geomspace(2.0, 1e30, len(eps)) * max(abs(z[0]), abs(z[1]))
        values = evaluated(regulated_amplitude_array, np.array(eps), cutoffs, *z)
        assume(values is not None)
        same(values, elementwise(lambda e, lam: regulated_amplitude(e, SharpCutoff(lam), complex(*z)).tau,
                                 np.array(eps), cutoffs))

    @ZERO_DIM
    @given(eps=couplings, reg=st.one_of(regs, st.just(PureDelta())), zs=shaped(points()), kappa=kappas)
    def test_on_shell_amplitude(self, eps, reg, zs, kappa):
        energies = np.abs(zs[0])
        values = evaluated(on_shell_amplitude_array, eps, reg, energies, kappa)
        assume(values is not None)
        same(values, elementwise(lambda e: on_shell_amplitude_array(eps, reg, [e], kappa)[0], energies))

    @ZERO_DIM
    @given(e_b=magnitudes, zs=shaped(points()))
    def test_renormalized_amplitude(self, e_b, zs):
        re, im = zs
        values = evaluated(renormalized_amplitude_array, e_b, re, im)
        assume(values is not None)
        same(values, elementwise(lambda a, b: renormalized_amplitude(e_b, ComplexEnergy(a, b)).tau, re, im))

    @ZERO_DIM
    @given(eps=couplings, magnitude=magnitudes, zs=shaped(points()))
    def test_cutoff_envelope(self, eps, magnitude, zs):
        cutoffs = np.hypot(zs[0], zs[1])
        values = cutoff_envelope_array(eps, magnitude, cutoffs)
        reference = elementwise(lambda lam: cutoff_envelope_array(eps, magnitude, [lam])[0], cutoffs)
        same(np.where(np.isnan(values), None, values), np.where(np.isnan(reference), None, reference))

    @ZERO_DIM
    @given(xs=shaped(st.tuples(magnitudes, magnitudes)))
    def test_expi_scaled(self, xs):
        same(expi_scaled_array(xs[0]), elementwise(expi_scaled, xs[0]))

    @ZERO_DIM
    @given(reg=st.one_of(regs, st.just(PureDelta())), path=st.lists(points(), min_size=1, max_size=6),
           z0=points(), kappa=kappas)
    def test_slide_kernels(self, reg, path, z0, kappa):
        re, im = (np.array(part) for part in zip(*path))
        kernels = evaluated(slide_kernels_along, reg, re, im, ComplexEnergy(*z0), kappa)
        assume(kernels is not None)
        from_anchor, steps = kernels
        z = [ComplexEnergy(*p) for p in path]
        assert from_anchor.tolist() == [slide_kernel(reg, p, ComplexEnergy(*z0), kappa) for p in z]
        assert steps.tolist() == [slide_kernel(reg, b, a, kappa) for a, b in zip(z, z[1:])]

    @ZERO_DIM
    @given(deltas=st.lists(st.floats(-0.5 * math.pi, 0.5 * math.pi), min_size=1, max_size=6),
           broken=st.lists(st.complex_numbers(max_magnitude=9.0), max_size=4),
           energy=magnitudes, tol=st.sampled_from([1e-9, 1e-20]))
    def test_observables(self, deltas, broken, energy, tol):
        taus = [tau_from_phase_shift(d) for d in deltas] + [0j, *broken]
        energies = np.geomspace(energy, 4.0 * energy, len(taus))
        obs = continuum_observables_array(np.array(taus), energies, defect_tol=tol)
        k = obs["k"].tolist()
        assert obs["f"].tolist() == [f_from_tau(t, q) for t, q in zip(taus, k)]
        assert obs["optical_defect"].tolist() == [optical_theorem_defect(t, q) for t, q in zip(taus, k)]
        assert obs["unitarity_defect"].tolist() == [unitarity_defect(t) for t in taus]
        lengths = [evaluated(total_target_length, t, q) for t, q in zip(taus, k)]
        assert [max(v, 0.0) for v, n in zip(obs["L_from_im_tau"].tolist(), lengths) if n is not None] == [
            n for n in lengths if n is not None]
        one = [continuum_observables_array(np.array([t]), [e], defect_tol=tol) for t, e in zip(taus, energies.tolist())]
        assert obs["violation"].tolist() == [o["violation"][0] for o in one]
        same(np.where(obs["violation"], None, obs["phase_shift"]),
             np.array([None if o["violation"][0] else o["phase_shift"][0] for o in one], dtype=object))


# unsorted columns with repeats, from below the search floor (eps < 0.018)
# to above the sharp and gaussian search tops (eps > 18.2 and 21.1)
coupling_columns = st.lists(st.floats(math.log(0.008), math.log(100.0)).map(math.exp), min_size=1, max_size=6).flatmap(
    lambda eps: st.permutations(eps + eps[:2]))
COLUMNS = settings(max_examples=15, derandomize=True, deadline=None)


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestColumnSolves:
    @COLUMNS
    @given(eps=coupling_columns, reg=st.sampled_from([SharpCutoff(1.0), GaussianFormFactor(0.7)]))
    def test_poles_are_one_element_calls(self, eps, reg):
        # the column has no residues; the one-element call forms its residue
        # from its energy alone
        scales = PhysicalScales(2.0)
        energy, unbound, _ = bound_states(np.array(eps), reg, scales)
        for e, energy_i, unbound_i in zip(eps, energy.tolist(), unbound.tolist()):
            try:
                state = bound_state_pole(e, reg, scales)
            except NoBoundStateError:
                assert unbound_i and math.isnan(energy_i), e
            else:
                residue = 1.0 / resolvent_derivative(reg, np.array([energy_i]), scales)[0]
                assert not unbound_i and same_bits(state.energy, energy_i) and same_bits(state.residue, residue), e

    @COLUMNS
    @given(eps=coupling_columns, radius=st.sampled_from([1.0, 0.3]))
    def test_well_roots_are_one_element_calls(self, eps, radius):
        energy, unbound = well_bound_states(radius, well_depths(eps, radius))
        for e, energy_i, unbound_i in zip(eps, energy.tolist(), unbound.tolist()):
            try:
                e_b = well_bound_state(well_from_coupling(e, radius))
            except NoBoundStateError:
                assert unbound_i and math.isnan(energy_i), e
            else:
                assert not unbound_i and same_bits(e_b, energy_i), e


@pytest.fixture
def column_calls(monkeypatch):
    """The column lengths that each call of the two column solvers receives."""
    lengths = []

    def spy(module, name, column_arg):
        solve = getattr(module, name)

        def recorded(*args, **kwargs):
            lengths.append(len(args[column_arg]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    spy(amplitude, "bound_states", 0)
    spy(well_module, "well_bound_states", 1)
    return lengths


class TestRootSearchStaysScalar:
    """bound_state_pole and well_bound_state take one coupling and return
    Python floats, through one one-element column solve and no loop."""

    @pytest.mark.parametrize("reg", [SharpCutoff(1.0), GaussianFormFactor(1.0)], ids=["sharp", "gaussian"])
    def test_bound_state_pole(self, column_calls, reg):
        for eps in (0.3, 1.0, 4.0, 15.0):
            state = bound_state_pole(eps, reg, PhysicalScales(2.0))
            assert type(state.energy) is float and type(state.residue) is float
            assert 0.0 < state.energy and state.residue > 0.0
        assert column_calls == [1, 1, 1, 1]

    def test_well_bound_state(self, column_calls):
        for eps in (0.3, 1.0, 4.0, 15.0):
            e_b = well_bound_state(well_from_coupling(eps, 1.0))
            assert type(e_b) is float and 0.0 < e_b
        assert column_calls == [1, 1, 1, 1]

    def test_the_patch_bites(self, column_calls):
        amplitude.bound_states(np.array([0.3, 1.0, 4.0]), GaussianFormFactor(1.0))
        well_module.well_bound_states(1.0, well_depths([0.3, 1.0], 1.0))
        assert column_calls == [3, 2]
