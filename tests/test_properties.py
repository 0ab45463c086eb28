"""Exact relations of the closed forms as derandomized properties over the
energy plane: the sliding group, elastic unitarity on the continuum for
every regulator, and the single branch arg z in [0, pi] with -0.0 imaginary
parts."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from transmute_lab.amplitude import on_shell_amplitude_array, regulated_amplitude_array, renormalized_amplitude_array
from transmute_lab.energy_plane import ComplexEnergy, principal_log_ratio_array
from transmute_lab.observables import tau_from_phase_shift_array
from transmute_lab.oracle.well import well_from_coupling, well_phase_shift_array
from transmute_lab.regulators import GaussianFormFactor, PureDelta, SharpCutoff, slide_kernel, slide_kernels_along
from transmute_lab.tolerances import FLOW_GROUP_RTOL

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)

REGULATORS = [PureDelta(), SharpCutoff(50.0), GaussianFormFactor(0.7)]
# one unit of logarithmic running, ln(z/z0) = 1, moves a kernel by this much
RUNNING_UNIT = 1.0 / (4.0 * math.pi)

magnitudes = st.floats(-3.0, 4.0).map(lambda e: 10.0**e)
# a point of the closed upper half plane: interior, on the continuum, or on
# the negative axis from above, with either sign of a zero imaginary part
points = st.one_of(
    st.tuples(magnitudes, st.floats(0.0, math.pi)).map(lambda p: (p[0] * math.cos(p[1]), p[0] * math.sin(p[1]))),
    st.tuples(magnitudes, st.sampled_from([0.0, -0.0])),
    st.tuples(magnitudes.map(lambda m: -m), st.sampled_from([0.0, -0.0])),
)


@PROPERTY
@given(reg=st.sampled_from(REGULATORS), z0=points, z1=points, z2=points)
def test_sliding_kernels_compose(reg, z0, z1, z2):
    # G(z2, z0) = G(z2, z1) + G(z1, z0); the rounding of each kernel is
    # relative to its own size, and to one unit of running where they cancel
    if isinstance(reg, SharpCutoff) and 50.0 in (z0[0], z1[0], z2[0]):
        return
    e0, e1, e2 = ComplexEnergy(*z0), ComplexEnergy(*z1), ComplexEnergy(*z2)
    g21, g10, g20 = slide_kernel(reg, e2, e1), slide_kernel(reg, e1, e0), slide_kernel(reg, e2, e0)
    assert abs(g21 + g10 - g20) <= FLOW_GROUP_RTOL * (abs(g21) + abs(g10) + RUNNING_UNIT)


@PROPERTY
@given(eps=st.floats(0.05, 40.0), reg=st.sampled_from(REGULATORS[1:]),
       energies=st.lists(st.floats(-6.0, 2.0), min_size=1, max_size=40))
def test_unitarity_on_the_continuum(eps, reg, energies):
    # Im(1/tau) = 1/4 to 1e-13 wherever the on-shell amplitude is not zero:
    # the sharp cutoff below its cutoff (at it, where the resolvent diverges,
    # tau is 0), the gaussian while its form factor e^{-(k a)^2} stays above
    # e^{-100}; above the cutoff it is exactly zero
    scale = reg.cutoff if isinstance(reg, SharpCutoff) else 1.0 / reg.length**2
    e = scale * 10.0 ** np.array(energies)
    tau = on_shell_amplitude_array(eps, reg, e)
    if isinstance(reg, SharpCutoff):
        assert (tau[e > reg.cutoff] == 0).all()
        tau = tau[e < reg.cutoff]
    assert (np.abs((1.0 / tau).imag - 0.25) <= 1e-13).all()


@PROPERTY
@given(eps=st.floats(0.05, 40.0), energies=st.lists(st.floats(-6.0, 4.0), min_size=1, max_size=40))
def test_unitarity_without_a_separable_regulator(eps, energies):
    # the renormalized amplitude, the pure delta (exactly zero) and the
    # circular well, whose amplitude comes from its phase shift: there the
    # rounding of 1/tau is relative to its size
    e = 10.0 ** np.array(energies)
    assert (np.abs((1.0 / renormalized_amplitude_array(eps, e)).imag - 0.25) <= 1e-13).all()
    assert (on_shell_amplitude_array(eps, PureDelta(), e) == 0).all()
    inverse = 1.0 / tau_from_phase_shift_array(well_phase_shift_array(well_from_coupling(eps, 1.0), np.sqrt(e)))
    assert (np.abs(inverse.imag - 0.25) <= 1e-13 * np.maximum(1.0, np.abs(inverse))).all()


@PROPERTY
@given(re=st.lists(st.one_of(magnitudes, magnitudes.map(lambda m: -m)), min_size=1, max_size=20),
       eps=st.floats(0.05, 40.0), reg=st.sampled_from(REGULATORS[1:]))
def test_one_branch_from_above(re, eps, reg):
    # on the real axis a -0.0 imaginary part is the limit from above, as
    # +0.0 is: arg z is 0 or pi, never -pi, and every closed form gives the
    # same bits on both
    re = np.array(re)
    if isinstance(reg, SharpCutoff):
        re = re[re != reg.cutoff]
    plus, minus = np.zeros(re.shape), np.full(re.shape, -0.0)
    args = principal_log_ratio_array(re, minus, 1.0, 0.0).imag
    assert set(args.tolist()) <= {0.0, math.pi}
    assert ((args == math.pi) == (re < 0.0)).all()
    for z in (ComplexEnergy(v, -0.0) for v in re.tolist()):
        assert 0.0 <= z.arg_from_above() <= math.pi
    pairs = [
        (principal_log_ratio_array(re, plus, -2.0, 0.0), principal_log_ratio_array(re, minus, -2.0, -0.0)),
        (renormalized_amplitude_array(eps, re, plus), renormalized_amplitude_array(eps, re, minus)),
        (regulated_amplitude_array(eps, reg, re, plus), regulated_amplitude_array(eps, reg, re, minus)),
        (slide_kernels_along(reg, re, plus, 1j)[0], slide_kernels_along(reg, re, minus, 1j)[0]),
        (slide_kernels_along(PureDelta(), re, plus, 1j)[0], slide_kernels_along(PureDelta(), re, minus, 1j)[0]),
    ]
    for a, b in pairs:
        assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist()
