"""Independent high-precision checks of sampled output rows.

Each sampled row is recomputed with mpmath from the formulas of the model,
written here from scratch (no transmute_lab code), and compared within the
constants of ``src/transmute_lab/tolerances.py``:

* elementary closed forms (renormalized, sharp cutoff, pure-delta flow,
  theorem, transmute) within FLOW_GROUP_RTOL;
* forms built on special functions (gaussian, circular well) within
  SPECIAL_FUNCTION_RTOL;
* bound states: the root of the bound-state condition, in ln E, within
  POLE_SEARCH_LOG_TOL * max(1, |ln E|).

Deviations are relative to the reference value, except for flows, which are
relative to the largest term of 1/tau0 - [g(z) - g(z0)].

Rows are sampled by the run seed: the first, the last and two more per table.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import mpmath as mp
from workloads import read_table

mp.mp.dps = 40
PI = mp.pi


def load_tolerances(src: Path):
    """tolerances.py as a standalone module (it imports nothing), so the
    checks need not import the package under test."""
    spec = importlib.util.spec_from_file_location("bench_tolerances", src / "transmute_lab" / "tolerances.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _log(z):
    """ln z with arg z in [0, pi]: the package's single branch (energies
    lie in the closed upper half plane, negative reals carry arg pi)."""
    return mp.log(mp.mpc(z))


def _rel(got: complex, ref, scale=None) -> float:
    """|got - ref| / scale, with scale |ref| by default and never below the
    smallest normal double: values that underflow in double precision are
    compared absolutely."""
    ref = mp.mpc(ref)
    scale = max(abs(ref) if scale is None else scale, sys.float_info.min)
    return float(abs(mp.mpc(got) - ref) / scale)


def _sharp_I(z, lam):
    return (_log(z) - _log(mp.mpc(z) - lam)) / (4 * PI)


def _gaussian_I(z, a):
    """kappa*g(z) for the gaussian form factor, kappa = 1."""
    b = mp.mpf(a) ** 2
    z = mp.mpc(z)
    if z.imag == 0 and z.real > 0:  # E + i0+
        x = b * z.real
        return mp.exp(-x) * (mp.ei(x) - 1j * PI) / (4 * PI)
    w = -b * z
    return -mp.exp(w) * mp.e1(w) / (4 * PI)


def _well_phase(eps, a, k):
    a, k = mp.mpf(a), mp.mpf(k)
    v0 = eps / (PI * a * a)
    k_in = mp.sqrt(k * k + v0)
    j0_in = mp.besselj(0, k_in * a)
    m = -k_in * mp.besselj(1, k_in * a)
    num = m * mp.besselj(0, k * a) + k * j0_in * mp.besselj(1, k * a)
    den = m * mp.bessely(0, k * a) + k * j0_in * mp.bessely(1, k * a)
    delta = mp.atan2(num, den)
    if delta > PI / 2:
        delta -= PI
    elif delta <= -PI / 2:
        delta += PI
    return delta


def check_scatter(row, p, tol):
    energy = mp.mpf(row["E"])
    k = mp.sqrt(energy)
    model = p["model"]
    if model == "renormalized":
        tau = 4 * PI / (_log(-p["e_b"]) - _log(energy))
    elif model == "pure-delta":
        tau = mp.mpc(0)
    elif model == "sharp-cutoff":
        tau = mp.mpc(0) if energy > p["lam"] else -p["eps"] / (1 + p["eps"] * _sharp_I(energy, p["lam"]))
    elif model == "gaussian":
        tau = -p["eps"] / (1 + p["eps"] * _gaussian_I(energy, p["a"])) * mp.exp(-energy * p["a"] ** 2)
    else:
        delta = _well_phase(p["eps"], p["a"], k)
        tau = -4 * mp.expj(delta) * mp.sin(delta)
    f_ref = -mp.sqrt(1 / (8 * PI * k)) * tau
    special = model in ("gaussian", "circular-well")
    return _rel(complex(row["re_f"], row["im_f"]), f_ref), tol.SPECIAL_FUNCTION_RTOL if special else tol.FLOW_GROUP_RTOL


def check_flow(row, p, tol):
    z = complex(row["z_re"], row["z_im"])
    z0, tau0 = p["z0"], p["tau0"]
    reg = p["regulator"]
    if reg == "pure-delta":
        kernel = (_log(z) - _log(z0)) / (4 * PI)
        terms = [kernel]
    elif reg == "sharp-cutoff":
        g, g0 = _sharp_I(z, p["lam"]), _sharp_I(z0, p["lam"])
        kernel, terms = g - g0, [g, g0]
    else:
        g, g0 = _gaussian_I(z, p["a"]), _gaussian_I(z0, p["a"])
        kernel, terms = g - g0, [g, g0]
    inv_ref = 1 / mp.mpc(tau0) - kernel
    scale = max(abs(1 / mp.mpc(tau0)), *(abs(t) for t in terms))
    rtol = tol.SPECIAL_FUNCTION_RTOL if reg == "gaussian" else tol.FLOW_GROUP_RTOL
    return _rel(complex(row["re_inv_tau"], row["im_inv_tau"]), inv_ref, scale), rtol


def check_theorem(row, p, tol):
    eps = p["eps"]
    ref = abs(eps / (1 + eps * _sharp_I(p["z"], row["Lambda"])))
    return _rel(row["abs_tau"], ref), tol.FLOW_GROUP_RTOL


def check_transmute(row, p, tol):
    eps = mp.mpf(row["epsilon_n"])
    tau = -eps / (1 + eps * _sharp_I(p["z"], row["Lambda_n"]))
    return _rel(complex(row["re_tau"], row["im_tau"]), tau), tol.FLOW_GROUP_RTOL


def _root_log(mismatch, x_start):
    return mp.findroot(lambda x: mismatch(mp.exp(x)), mp.mpf(x_start), tol=mp.mpf(10) ** -30)


def check_bind(row, p, tol):
    if row["status"] != "OK":
        return 0.0, 0.0  # NO_BOUND_STATE rows carry no energy to compare
    eps, reg, e_solver = mp.mpf(row["epsilon"]), row["regulator"], mp.mpf(row["E_B_solver"])
    if reg == "sharp-cutoff":
        ln_ref = mp.log(p["lam"] / mp.expm1(4 * PI / eps))
    elif reg == "gaussian":
        b = mp.mpf(p["a"]) ** 2
        ln_ref = _root_log(lambda e: 1 - eps * mp.exp(b * e) * mp.e1(b * e) / (4 * PI), mp.log(e_solver))
    else:
        a = mp.mpf(p["a"])
        v0 = eps / (PI * a * a)

        def matching(e):
            k_in, gamma = mp.sqrt(v0 - e), mp.sqrt(e)
            return (k_in * mp.besselj(1, k_in * a) * mp.besselk(0, gamma * a)
                    - gamma * mp.besselk(1, gamma * a) * mp.besselj(0, k_in * a))

        ln_ref = _root_log(matching, mp.log(e_solver))
    dev = abs(mp.log(e_solver) - ln_ref) / max(1, abs(ln_ref))
    return float(dev), tol.POLE_SEARCH_LOG_TOL


CHECKS = {
    "scatter": check_scatter,
    "flow": check_flow,
    "theorem": check_theorem,
    "transmute": check_transmute,
    "bind": check_bind,
}


def check_table(inv, tol, rng: random.Random, samples: int = 4) -> tuple[float, list[str]]:
    """Sample rows of one output table; returns the largest relative
    deviation seen and a message per row outside its tolerance."""
    rows = read_table(inv.out, inv.fmt)
    picks = sorted({0, len(rows) - 1, *(rng.randrange(len(rows)) for _ in range(samples - 2))})
    worst, problems = 0.0, []
    for i in picks:
        dev, rtol = CHECKS[inv.params["command"]](rows[i], inv.params, tol)
        worst = max(worst, dev)
        if not dev <= rtol:
            problems.append(f"row {i}: relative deviation {dev:.3e} exceeds {rtol:.1e}")
    return worst, problems
