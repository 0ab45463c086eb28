"""End-to-end command tests: emitted tables, determinism, exit codes and
config/flag precedence."""

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import transmute_lab
from transmute_lab import amplitude, cli, render, special
from transmute_lab.cli import main
from transmute_lab.energy_plane import log_bracket_root
from transmute_lab.errors import TransmuteLabError
from transmute_lab.oracle import well as well_module
from transmute_lab.oracle.well import CircularWell
from transmute_lab.regulators import GaussianFormFactor, PureDelta, SharpCutoff
from transmute_lab.tolerances import FLOW_GROUP_RTOL, ROUTE_AGREEMENT_RTOL, UNITARITY_DEFECT_TOL

FOUR_PI = 4.0 * math.pi
MAX = repr(sys.float_info.max)


def run_cli(args, tmp_path, name="out.csv", config_text=None, env_threads=None):
    out = tmp_path / name
    argv = list(args) + ["--out", str(out)]
    if config_text is not None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config_text, encoding="utf-8")
        argv += ["--config", str(cfg)]
    old = os.environ.get("TRANSMUTE_LAB_THREADS")
    try:
        if env_threads is not None:
            os.environ["TRANSMUTE_LAB_THREADS"] = str(env_threads)
        code = main(argv)
    finally:
        if env_threads is not None:
            if old is None:
                os.environ.pop("TRANSMUTE_LAB_THREADS", None)
            else:
                os.environ["TRANSMUTE_LAB_THREADS"] = old
    return code, out


def parse_csv(path):
    header, rows, footer = None, [], {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body and ":" not in body.split("=")[0]:
                key, value = body.split("=", 1)
                footer[key.strip()] = value.strip()
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows, footer


def cell(row, header, name):
    value = row[header.index(name)]
    return None if value == "" else value


def read_footer(out, fmt):
    """The footer of a table file as JSON values, in either format."""
    if fmt == "json":
        return json.loads(out.read_text(encoding="utf-8"))["footer"]
    return {k: json.loads(v) for k, v in parse_csv(out)[2].items()}


@pytest.mark.parametrize("lo, hi, n", [(1e-6, 1e6, 5000), (2.5, 3.7e300, 777), (1e-300, 1e-299, 2), (1e3, 1e-3, 13),
                                        (7.0, 7.0, 4)])
def test_log_grid_matches_the_per_point_formula(lo, hi, n):
    la, lb = math.log10(lo), math.log10(hi)
    expected = [10.0 ** (la + (lb - la) * i / (n - 1)) for i in range(n)]
    expected[0], expected[-1] = lo, hi
    assert [v.hex() for v in cli._parse_grid(f"{lo!r}:{hi!r}:{n},log")] == [v.hex() for v in expected]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lo=st.floats(1e-300, 1e300), hi=st.floats(1e-300, 1e300), n=st.integers(1, 400), log=st.booleans())
def test_grids_are_float_arrays_of_the_per_point_formula(lo, hi, n, log):
    # each inner point has the bits of its Python formula: libm pow for a
    # log grid; the ends are lo and hi themselves
    if log:
        la, lb = math.log10(lo), math.log10(hi)
        expected = [10.0 ** (la + (lb - la) * i / (n - 1)) for i in range(1, n - 1)]
    else:
        expected = [lo + (hi - lo) * i / (n - 1) for i in range(1, n - 1)]
    expected = [lo] if n == 1 else [lo, *expected, hi]
    grid = cli._parse_grid(f"{lo!r}:{hi!r}:{n}" + (",log" if log else ""))
    assert isinstance(grid, np.ndarray) and grid.dtype == np.float64 and grid.shape == (n,)
    assert [v.hex() for v in grid.tolist()] == [v.hex() for v in expected]


def fit_by_loop(xs, ys):
    """Least-squares slope and intercept over Python floats, each sum added
    left to right from 0.0 in a plain loop; None where the abscissae are
    degenerate."""
    def total(values):
        s = 0.0
        for v in values:
            s += v
        return s

    n = len(xs)
    mx, my = total(xs) / n, total(ys) / n
    sxx = total((x - mx) ** 2 for x in xs)
    sxy = total((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0.0:
        return None
    slope = sxy / sxx
    return slope, my - slope * mx


_fit_values = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-0.0, 0.0, 1e-300, -2.5]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(xs=st.lists(_fit_values, min_size=2, max_size=40, unique=True), data=st.data())
def test_fit_line_adds_as_a_left_to_right_loop(xs, data):
    # bit for bit, the sign of a zero sum too (all ys -0.0)
    ys = data.draw(st.one_of(st.lists(_fit_values, min_size=len(xs), max_size=len(xs)),
                             st.just([-0.0] * len(xs))))
    expected = fit_by_loop(xs, ys)
    if expected is None:
        with pytest.raises(TransmuteLabError, match="degenerate"):
            cli._fit_line(np.array(xs), np.array(ys))
    else:
        assert [v.hex() for v in cli._fit_line(np.array(xs), np.array(ys))] == [v.hex() for v in expected]


def test_fit_line_squares_by_libm_pow():
    # glibc's pow(d, 2) differs from d * d in about 1 of 1,200 doubles; the
    # sxx = 2 d^2 of a two-point fit keeps the difference, in several of
    # these 6,000 fits
    rng = np.random.default_rng(24)
    for xs, ys in zip(*rng.standard_normal((2, 6000, 2)) * 1e3):
        assert [v.hex() for v in cli._fit_line(xs, ys)] == [v.hex() for v in fit_by_loop(xs.tolist(), ys.tolist())]


class TestFlow:
    def test_inverse_amplitude_runs_linearly(self, tmp_path):
        code, out = run_cli(["flow", "--energy", "1:2980.9579870417283:9,log"], tmp_path)
        assert code == 0
        header, rows, footer = parse_csv(out)
        xs, ys = [], []
        for row in rows:
            z_im = float(cell(row, header, "z_im"))
            ys.append(float(cell(row, header, "re_inv_tau")))
            xs.append(math.log(z_im))
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        assert slope == pytest.approx(-1.0 / FOUR_PI, rel=FLOW_GROUP_RTOL)
        assert float(footer["max_flow_defect"]) <= 1e-13

    def test_pole_row_keeps_inverse_column(self, tmp_path):
        code, out = run_cli(["flow", "--energy", str(math.e)], tmp_path)
        assert code == 0
        header, rows, _ = parse_csv(out)
        assert float(cell(rows[0], header, "re_inv_tau")) == 0.0
        assert cell(rows[0], header, "re_tau") is None

    def test_zero_anchor_flows_to_zero(self, tmp_path):
        cfg = "tau0_re = 0\ntau0_im = 0\n"
        code, out = run_cli(["flow", "--energy", "1:100:5,log"], tmp_path, config_text=cfg)
        assert code == 0
        header, rows, _ = parse_csv(out)
        for row in rows:
            assert float(cell(row, header, "re_tau")) == 0.0
            assert float(cell(row, header, "im_tau")) == 0.0

    @pytest.mark.parametrize("z0_re", ["1e3", "1e8", "1e300"])
    def test_gaussian_anchor_near_the_continuum_far_out(self, tmp_path, z0_re):
        # g(z0) at z0 = z0_re + 1i was nan, and the table exited 1
        cfg = f"regulator = gaussian\nz0_re = {z0_re}\n"
        code, out = run_cli(["flow"], tmp_path, config_text=cfg)
        assert code == 0
        header, rows, _ = parse_csv(out)
        assert all(math.isfinite(float(cell(row, header, "re_inv_tau"))) for row in rows)

    def test_single_point_echoes_anchor(self, tmp_path):
        cfg = "tau0_re = 2.5\ntau0_im = -0.5\nz0_im = 1\n"
        code, out = run_cli(["flow", "--energy", "1"], tmp_path, config_text=cfg)
        assert code == 0
        header, rows, _ = parse_csv(out)
        assert float(cell(rows[0], header, "re_tau")) == pytest.approx(2.5, rel=1e-15)
        assert float(cell(rows[0], header, "im_tau")) == pytest.approx(-0.5, rel=1e-15)

    def test_cutoff_edge_names_its_row(self, tmp_path, capsys):
        # the real ray meets the sharp cutoff edge at E = 1: a numerical
        # failure naming the row
        code, out = run_cli(["flow", "--regulator", "sharp-cutoff", "--lambda", "1", "--energy", "0.5:2:4"], tmp_path,
                            config_text="z_phase = 0\n")
        err = capsys.readouterr().err
        assert code == 1 and len(err.strip().splitlines()) == 1, err
        assert "cutoff edge z = Lambda: z_re = 1.0, z_im = 0.0 in row 2" in err
        assert not out.exists()

    def test_composition_defect_names_its_row(self, tmp_path, capsys, monkeypatch):
        # a kernel step off by 1e-3 between rows 3 and 4: re-anchoring row 3
        # misses row 4 by that much
        slide = amplitude.slide_kernels_along

        def off(*args):
            from_anchor, steps = slide(*args)
            steps[2] += 1e-3
            return from_anchor, steps

        monkeypatch.setattr(amplitude, "slide_kernels_along", off)
        code, out = run_cli(["flow"], tmp_path)
        err = capsys.readouterr().err
        assert code == 1 and len(err.strip().splitlines()) == 1, err
        assert err.endswith(f": flow composition defect 1.000e-03 exceeds {FLOW_GROUP_RTOL:.1e} in row 4\n"), err
        assert not out.exists()

    def test_anchor_on_the_cutoff_edge_is_a_usage_error(self, tmp_path, capsys):
        # the anchor, unlike a row, is input: exit 2, naming z0
        code, out = run_cli(["flow", "--regulator", "sharp-cutoff", "--lambda", "1", "--energy", "0.5:2:4"], tmp_path,
                            config_text="z0_re = 1\nz0_im = 0\n")
        err = capsys.readouterr().err
        assert code == 2 and len(err.strip().splitlines()) == 1, err
        assert "usage error: invalid z0: g(z) is singular at the cutoff edge z = Lambda" in err
        assert not out.exists()


class TestBind:
    def test_sharp_cutoff_closed_forms(self, tmp_path):
        code, out = run_cli(
            ["bind", "--epsilon", "1:4:3,log", "--lambda", "1", "--regulator", "sharp-cutoff"],
            tmp_path,
        )
        assert code == 0
        header, rows, footer = parse_csv(out)
        closed = [float(cell(r, header, "E_B_closed_form")) for r in rows]
        assert closed == pytest.approx(
            [math.exp(-FOUR_PI), math.exp(-2.0 * math.pi), math.exp(-math.pi)], rel=1e-15
        )
        assert float(footer["fit_slope_sharp_cutoff"]) == pytest.approx(1.0, abs=0.02)

    def test_well_slope_and_prefactors(self, tmp_path):
        code, out = run_cli(
            ["bind", "--epsilon", "0.5:2:5,log", "--regulator", "sharp-cutoff,gaussian,circular-well"],
            tmp_path,
        )
        assert code == 0
        _, _, footer = parse_csv(out)
        assert float(footer["fit_slope_circular_well"]) == pytest.approx(1.0, abs=0.02)
        assert float(footer["fit_slope_gaussian"]) == pytest.approx(1.0, abs=0.02)
        # smeared regulators generate measurably different O(1) prefactors
        gauss = float(footer["prefactor_vs_sharp_cutoff_gaussian"])
        well = float(footer["prefactor_vs_sharp_cutoff_circular_well"])
        assert 0.1 < gauss < 1.0 < well < 10.0

    def test_underflowing_well_depth_has_no_bound_state(self, tmp_path):
        # eps*kappa/(pi a^2) underflows to zero: the well's ground state lies
        # below the search limit, like the sharp cutoff's at the same eps
        code, out = run_cli(["bind", "--regulator", "sharp-cutoff,circular-well", "--epsilon", "1e-300"],
                            tmp_path, config_text="a = 1e30\n")
        assert code == 0
        header, rows, _ = parse_csv(out)
        assert [cell(r, header, "status") for r in rows] == ["NO_BOUND_STATE", "NO_BOUND_STATE"]

    def test_pure_delta_rows(self, tmp_path):
        code, out = run_cli(["bind", "--epsilon", "1", "--regulator", "pure-delta"], tmp_path)
        assert code == 0
        header, rows, _ = parse_csv(out)
        assert cell(rows[0], header, "status") == "NO_BOUND_STATE"
        assert cell(rows[0], header, "E_B_solver") is None

    def test_one_bound_states_call_per_regulator(self, tmp_path, monkeypatch):
        # the one regulator branch of bind lies in amplitude.bound_states:
        # cmd_bind hands it each model with the whole coupling column, and
        # holds no other column solver
        solve, calls = cli.bound_states, []

        def recorded(eps, model, scales):
            calls.append((eps.tolist(), model))
            return solve(eps, model, scales)

        monkeypatch.setattr(cli, "bound_states", recorded)
        names = "circular-well,pure-delta,gaussian,sharp-cutoff"
        code, _ = run_cli(["bind", "--epsilon", "0.5:4:3,log", "--regulator", names], tmp_path,
                          config_text="a = 0.5\nlambda = 3\n")
        assert code == 0
        models = [CircularWell(0.5), PureDelta(), GaussianFormFactor(0.5), SharpCutoff(3.0)]
        assert [model for _, model in calls] == models
        assert all(eps == calls[0][0] and len(eps) == 3 for eps, _ in calls)
        solvers = (amplitude.bound_states, amplitude.bound_state_pole, well_module.well_bound_states,
                   well_module.well_bound_state, well_module.well_depths, log_bracket_root)
        assert [name for name, value in vars(cli).items() if any(value is f for f in solvers)] == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_lambda_eff_reported_in_log_space(self, tmp_path, fmt):
        # at the largest cutoff e^intercept overflows: the footer carries
        # ln_lambda_eff, and the prefactor against it stays finite
        code, out = run_cli(["bind", "--regulator", "sharp-cutoff,gaussian", "--lambda", MAX, "--epsilon", "1:4:3,log",
                             "--format", fmt], tmp_path, f"out.{fmt}")
        assert code == 0
        footer = read_footer(out, fmt)
        assert "lambda_eff_sharp_cutoff" not in footer
        ln_sharp = footer["ln_lambda_eff_sharp_cutoff"]
        assert ln_sharp > math.log(sys.float_info.max)
        ratio = math.exp(math.log(footer["lambda_eff_gaussian"]) - ln_sharp)
        assert footer["prefactor_vs_sharp_cutoff_gaussian"] == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_prefactor_reported_in_log_space(self, tmp_path, fmt):
        # Lambda_eff of 6e299 over 1e-300 overflows: the footer carries the
        # log of the prefactor, where CSV wrote inf and JSON raised
        code, out = run_cli(["bind", "--regulator", "gaussian,sharp-cutoff", "--lambda", "1e-300",
                             "--epsilon", "1:4:3,log", "--format", fmt], tmp_path, f"out.{fmt}", config_text="a = 1e-150\n")
        assert code == 0
        footer = read_footer(out, fmt)
        assert "prefactor_vs_sharp_cutoff_gaussian" not in footer
        ln_ratio = math.log(footer["lambda_eff_gaussian"]) - math.log(footer["lambda_eff_sharp_cutoff"])
        assert footer["ln_prefactor_vs_sharp_cutoff_gaussian"] == pytest.approx(ln_ratio, rel=1e-12)

    def test_repeated_regulator_is_usage_error(self, tmp_path, capsys):
        # a second fit of one name would overwrite the first in the footer
        code, out = run_cli(["bind", "--regulator", "gaussian,sharp-cutoff,gaussian"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and err == "transmute-lab: usage error: bind lists regulator 'gaussian' twice\n"
        assert not out.exists()


class TestTheorem:
    def test_schedule_and_footer(self, tmp_path):
        code, out = run_cli(["theorem", "--lambda", "1e2:1e12:6,log", "--epsilon", "1"], tmp_path)
        assert code == 0
        header, rows, footer = parse_csv(out)
        assert footer["monotone_beyond_peak"] == "true"
        assert footer["envelope_respected"] == "true"
        lams = [float(cell(r, header, "Lambda")) for r in rows]
        assert lams == [1e2, 1e4, 1e6, 1e8, 1e10, 1e12]
        peak = float(footer["peak_lambda"])
        mags = [float(cell(r, header, "abs_tau")) for r in rows]
        beyond = [m for lam, m in zip(lams, mags) if lam > peak]
        assert all(b < a for a, b in zip(beyond, beyond[1:]))

    def test_rise_beyond_the_peak_names_its_row(self, tmp_path, capsys, monkeypatch):
        # rows 3 to 6 lie beyond the peak at e^{4 pi}; row 5 made to rise
        amplitudes = cli.amplitudes_over_cutoffs_array

        def rising(*args):
            tau = amplitudes(*args)
            tau[4] *= 10.0
            return tau

        monkeypatch.setattr(cli, "amplitudes_over_cutoffs_array", rising)
        code, out = run_cli(["theorem"], tmp_path)
        err = capsys.readouterr().err
        assert code == 1 and len(err.strip().splitlines()) == 1, err
        tau = amplitudes(1.0, cli.ComplexEnergy(0.0, 1.0), np.array([1e8, 1e10])) * np.array([1.0, 10.0])
        before, after = np.hypot(tau.real, tau.imag).tolist()
        assert err.endswith(f"beyond the peak: abs_tau = {after!r} after {before!r} in row 5\n"), err
        assert not out.exists()

    def test_envelope_violation_names_its_row(self, tmp_path, capsys, monkeypatch):
        envelope = cli.cutoff_envelope_array

        def halved(*args):
            bound = envelope(*args)
            bound[5] *= 0.5
            return bound

        monkeypatch.setattr(cli, "cutoff_envelope_array", halved)
        code, out = run_cli(["theorem"], tmp_path)
        err = capsys.readouterr().err
        assert code == 1 and len(err.strip().splitlines()) == 1, err
        bound = float(envelope(1.0, 1.0, np.array([1e12]))[0]) * 0.5
        assert "violated its rigorous envelope: abs_tau = " in err
        assert err.endswith(f" exceeds envelope_bound = {bound!r} in row 6\n"), err
        assert not out.exists()

    def test_cutoff_below_z_rejected(self, tmp_path):
        code, _ = run_cli(["theorem", "--lambda", "0.5"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("schedule", ["1e12:1e2:6,log", "1e2:1e2:3"])
    def test_schedule_not_increasing_is_usage_error(self, tmp_path, capsys, fmt, schedule):
        # a decreasing or repeating schedule is bad input (exit 2), not a
        # failed monotonicity check
        code, out = run_cli(["theorem", "--epsilon", "1", "--lambda", schedule, "--format", fmt], tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err and len(err.strip().splitlines()) == 1, err
        assert "strictly increasing" in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("eps", [0.01, 1e-30])
    def test_overflowing_peak_reported_in_log_space(self, tmp_path, fmt, eps):
        # |z| e^{4 pi/eps} overflows: the footer carries ln of the peak, and
        # every schedule point lies below it
        code, out = run_cli(["theorem", "--epsilon", repr(eps), "--lambda", "1e2:1e300:5,log",
                             "--format", fmt], tmp_path, name=f"out.{fmt}")
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "inf" not in text.lower() and "nan" not in text.lower()
        if fmt == "json":
            footer = json.loads(text)["footer"]
        else:
            footer = {k: json.loads(v) for k, v in parse_csv(out)[2].items()}
        assert "peak_lambda" not in footer
        assert footer["ln_peak_lambda"] == pytest.approx(FOUR_PI / eps, rel=1e-15)
        assert "fit_slope_beyond_peak" not in footer

    @pytest.mark.parametrize("lam,cfg", [
        ("1e2:1e300:5,log", "z_re = 0\nz_im = 1e-10\n"),
        (None, "z_re = 1e-320\nz_im = 0\n"),
    ], ids=["tiny-z", "subnormal-z"])
    def test_envelope_where_lambda_over_z_overflows(self, tmp_path, lam, cfg):
        # (Lambda - |z|)/|z| overflows: the envelope comes from the logs of
        # the terms instead of reading 0, and the table stays valid
        args = ["theorem"] + ([] if lam is None else ["--lambda", lam])
        code, out = run_cli(args, tmp_path, config_text=cfg)
        assert code == 0
        header, rows, footer = parse_csv(out)
        assert footer["envelope_respected"] == "true"
        magnitude = 1e-10 if lam else 1e-320
        for row in rows:
            lam_value, envelope = float(cell(row, header, "Lambda")), float(cell(row, header, "envelope_bound"))
            shifted = math.log(lam_value - magnitude) - math.log(magnitude) - FOUR_PI
            assert envelope == pytest.approx(FOUR_PI / shifted, rel=1e-12)
            assert float(cell(row, header, "abs_tau")) <= envelope

    @pytest.mark.parametrize("lam,cfg", [
        ("1e2:1e300:5,log", "z_re = 0\nz_im = 1e-10\n"),
        (None, "z_re = 1e-320\nz_im = 0\n"),
    ], ids=["tiny-z", "subnormal-z"])
    def test_asymptote_where_lambda_over_z_overflows(self, tmp_path, lam, cfg):
        # Lambda/|z| overflows: the asymptote 4 pi/ln(Lambda/|z|) comes from
        # ln Lambda - ln|z| instead of reading 0
        args = ["theorem"] + ([] if lam is None else ["--lambda", lam])
        code, out = run_cli(args, tmp_path, config_text=cfg)
        assert code == 0
        header, rows, _ = parse_csv(out)
        magnitude = 1e-10 if lam else 1e-320
        for row in rows:
            lam_value = float(cell(row, header, "Lambda"))
            expected = FOUR_PI / (math.log(lam_value) - math.log(magnitude))
            assert float(cell(row, header, "bound_4pi_over_lnLambda")) == pytest.approx(expected, rel=1e-12)

    def test_peak_stays_linear_while_finite(self, tmp_path):
        # at eps = 0.0178 the peak is about 4e306; one cutoff lies beyond it
        code, out = run_cli(["theorem", "--epsilon", "0.0178", "--lambda", "1e2:1e307:2,log"], tmp_path)
        assert code == 0
        footer = parse_csv(out)[2]
        assert float(footer["peak_lambda"]) == pytest.approx(math.exp(FOUR_PI / 0.0178), rel=1e-12)
        assert "ln_peak_lambda" not in footer


class TestTransmute:
    def test_deviation_column_decreases(self, tmp_path):
        code, out = run_cli(["transmute"], tmp_path)
        assert code == 0
        header, rows, footer = parse_csv(out)
        devs = [float(cell(r, header, "deviation_from_closed_form")) for r in rows]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert footer["monotone_deviation"] == "true"
        # the closed form echoed in the footer matches the final iterate
        assert float(footer["closed_form_re"]) == pytest.approx(float(cell(rows[-1], header, "re_tau")), rel=1e-8)

    def test_deviation_that_does_not_fall_names_its_step(self, tmp_path, capsys):
        # from step 18 on the deviation lies at the rounding floor of the
        # difference |tau_n - tau_inf|
        code, out = run_cli(["transmute"], tmp_path, config_text="steps = 18\n")
        err = capsys.readouterr().err
        assert code == 1 and len(err.strip().splitlines()) == 1, err
        deviations = amplitude.transmutation_schedule_array(1.0, 2.0, 18)[4].tolist()
        assert f"at step n = 18: {deviations[17]!r} after {deviations[16]!r}" in err
        assert not out.exists()

    def test_cutoffs_beyond_ten_to_the_308_are_evaluated(self, tmp_path, capsys):
        # 10**400 overflows a double but e_b * 10**400 = 1e100 does not: the
        # table is evaluated, and fails only where the deviation reaches the
        # rounding floor
        code, out = run_cli(["transmute"], tmp_path, config_text="e_b = 1e-300\nsteps = 400\n")
        err = capsys.readouterr().err
        assert code == 1 and len(err.strip().splitlines()) == 1, err
        assert "failed to decrease monotonically at step n = " in err
        assert not out.exists()

    def test_one_schedule_call(self, tmp_path, monkeypatch):
        # cmd_transmute holds no schedule check of its own: every column
        # comes from one transmutation_schedule_array call
        columns, calls = cli.transmutation_schedule_array, []
        monkeypatch.setattr(cli, "transmutation_schedule_array", lambda *args: calls.append(args) or columns(*args))
        code, out = run_cli(["transmute"], tmp_path, config_text="steps = 12\n")
        assert code == 0 and len(calls) == 1
        header, rows, _ = parse_csv(out)
        n, cutoffs, *_ = columns(*calls[0])
        assert [int(cell(r, header, "n")) for r in rows] == n.tolist()
        assert [float(cell(r, header, "Lambda_n")) for r in rows] == cutoffs.tolist()


@pytest.mark.parametrize("args, config", [
    (["theorem", "--lambda", "1e4:1e2:3,log"], None),
    (["theorem", "--lambda", "1:1e4:3,log"], None),
    (["theorem", "--lambda", "0.5:1e4:3,log"], "z_re = 0.3\nz_im = 0.4\n"),
    (["transmute"], "steps = 1\n"),
    (["transmute"], "steps = -3\n"),
    (["transmute"], "e_b = 1e-300\nsteps = 633\n"),
    (["transmute"], "steps = 1000000000000000\n"),
], ids=["not-increasing", "at-z", "below-z", "one-step", "negative-steps", "overflow", "huge-steps"])
def test_bad_schedule_is_one_line_usage_error(args, config, tmp_path, capsys):
    # the library's schedule check is the only one, and the CLI reports it
    # as a usage error
    code, out = run_cli(args, tmp_path, config_text=config)
    assert_one_line_error(capsys, code, 2)
    assert not out.exists()


class TestScatter:
    def test_resonance_row(self, tmp_path):
        cfg = "e_b = 1\n"
        code, out = run_cli(["scatter", "--energy", "1"], tmp_path, config_text=cfg)
        assert code == 0
        header, rows, _ = parse_csv(out)
        row = rows[0]
        k = float(cell(row, header, "k"))
        assert float(cell(row, header, "L_from_im_tau")) == pytest.approx(4.0 / k, rel=1e-14)
        assert float(cell(row, header, "delta0")) == pytest.approx(0.5 * math.pi, rel=1e-15)

    def test_target_length_routes_agree_rowwise(self, tmp_path):
        code, out = run_cli(["scatter", "--energy", "1e-6:1e6:25,log"], tmp_path)
        assert code == 0
        header, rows, _ = parse_csv(out)
        for row in rows:
            l_opt = float(cell(row, header, "L_optical"))
            l_tau = float(cell(row, header, "L_from_im_tau"))
            assert abs(l_opt - l_tau) <= ROUTE_AGREEMENT_RTOL * max(abs(l_tau), 1e-300)
            assert cell(row, header, "status") == "OK"

    def test_pure_delta_all_zero(self, tmp_path):
        code, out = run_cli(["scatter", "--regulator", "pure-delta", "--energy", "0.5:2:3,log"], tmp_path)
        assert code == 0
        header, rows, _ = parse_csv(out)
        for row in rows:
            for name in ("re_f", "im_f", "dL_dtheta", "L_optical", "L_from_im_tau", "delta0", "unitarity_defect"):
                assert float(cell(row, header, name)) == 0.0

    def test_circular_well_matches_renormalized_at_low_energy(self, tmp_path):
        from transmute_lab.oracle.well import well_bound_state, well_from_coupling

        e_b = well_bound_state(well_from_coupling(2.0, 1.0))
        grid = "1e-8:1e-6:3,log"
        cfg_well = "model = circular-well\nepsilon = 2\na = 1\n"
        code_w, out_w = run_cli(["scatter", "--energy", grid], tmp_path, "well.csv", cfg_well)
        cfg_ren = f"model = renormalized\ne_b = {e_b!r}\n"
        code_r, out_r = run_cli(["scatter", "--energy", grid], tmp_path, "ren.csv", cfg_ren)
        assert code_w == 0 and code_r == 0
        header_w, rows_w, _ = parse_csv(out_w)
        header_r, rows_r, _ = parse_csv(out_r)
        for row_w, row_r in zip(rows_w, rows_r):
            for name in ("re_f", "im_f", "L_from_im_tau"):
                vw = float(cell(row_w, header_w, name))
                vr = float(cell(row_r, header_r, name))
                assert abs(vw - vr) <= 0.03 * max(abs(vr), 1e-300), name

    def test_route_disagreement_names_its_row(self, tmp_path, capsys, monkeypatch):
        observables = cli.continuum_observables_array

        def doubled(*args):
            obs = observables(*args)
            obs["L_optical"][7] *= 2.0
            return obs

        monkeypatch.setattr(cli, "continuum_observables_array", doubled)
        code, out = run_cli(["scatter"], tmp_path)
        err = capsys.readouterr().err
        assert code == 1 and len(err.strip().splitlines()) == 1, err
        energy = float(cli._parse_grid("1e-3:1e3:13,log")[7])
        assert f"target-length routes disagree at E = {energy!r}: " in err and err.endswith(" in row 8\n"), err
        assert not out.exists()

    def test_cutoff_edge_names_its_row(self, tmp_path, capsys):
        code, out = run_cli(["scatter", "--regulator", "sharp-cutoff", "--epsilon", "1", "--energy", "0.5:1.5:3"],
                            tmp_path)
        err = capsys.readouterr().err
        assert code == 1 and len(err.strip().splitlines()) == 1, err
        assert "cutoff edge z = Lambda: E = 1.0 in row 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("name, model", [("sharp-cutoff", SharpCutoff(3.0)), ("gaussian", GaussianFormFactor(0.5)),
                                             ("pure-delta", PureDelta()), ("circular-well", CircularWell(0.5))])
    def test_one_on_shell_call_per_model(self, tmp_path, monkeypatch, name, model):
        # the one model dispatch of scatter lies in on_shell_amplitude_array:
        # cli builds the well's model type and calls no function of the oracle
        on_shell, calls = cli.on_shell_amplitude_array, []
        monkeypatch.setattr(cli, "on_shell_amplitude_array", lambda *args: calls.append(args) or on_shell(*args))
        code, _ = run_cli(["scatter", "--regulator", name, "--epsilon", "1.5", "--energy", "0.5:4:3,log"], tmp_path,
                          config_text="a = 0.5\nlambda = 3\n")
        assert code == 0
        assert [args[1] for args in calls] == [model]
        oracle = [f for f in map(vars(well_module).get, well_module.__all__) if inspect.isfunction(f)]
        assert [attr for attr, value in vars(cli).items() if any(value is f for f in oracle)] == []

    def test_sharp_cutoff_rows_above_cutoff_are_zero(self, tmp_path):
        cfg = "model = sharp-cutoff\nepsilon = 1\nlambda = 1\n"
        code, out = run_cli(["scatter", "--energy", "2:8:2,log"], tmp_path, config_text=cfg)
        assert code == 0
        header, rows, _ = parse_csv(out)
        for row in rows:
            assert float(cell(row, header, "L_from_im_tau")) == 0.0
            assert cell(row, header, "status") == "OK"


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        args = ["scatter", "--energy", "1e-3:1e3:40,log"]
        _, out1 = run_cli(args, tmp_path, "a.csv")
        _, out2 = run_cli(args, tmp_path, "b.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_thread_counts_agree(self, tmp_path):
        args = ["bind", "--epsilon", "0.5:4:7,log"]
        _, out1 = run_cli(args, tmp_path, "t1.csv", env_threads=1)
        _, out4 = run_cli(args, tmp_path, "t4.csv", env_threads=4)
        assert out1.read_bytes() == out4.read_bytes()

    def test_float_rendering_fixed_width(self, tmp_path):
        _, out = run_cli(["scatter", "--energy", "1"], tmp_path)
        header, rows, _ = parse_csv(out)
        for value in rows[0][:-1]:
            if value:
                mantissa = value.split("e")[0].replace("-", "")
                assert len(mantissa) == 18  # d.dddddddddddddddd


class TestKappaInvariance:
    """Tables are dimensionless: with a = sqrt(kinetic_constant), so that
    kappa/a^2 = 1, the energy columns of bind and the 1/tau and tau columns
    of flow keep every bit at each power-of-two kinetic_constant."""

    KAPPAS = (0.25, 1.0, 4.0, 1024.0)

    def bits(self, tmp_path, args, names):
        """The columns names of the table of args at each kinetic_constant,
        each cell as the hex of its double, or None where it is blank."""
        tables = []
        for kappa in self.KAPPAS:
            code, out = run_cli(args, tmp_path, f"kappa{kappa}.csv",
                                config_text=f"kinetic_constant = {kappa!r}\na = {math.sqrt(kappa)!r}\n")
            assert code == 0
            header, rows, _ = parse_csv(out)
            tables.append([[v if v is None else float(v).hex() for v in (cell(row, header, n) for n in names)]
                           for row in rows])
        return tables

    def test_bind(self, tmp_path):
        args = ["bind", "--regulator", "sharp-cutoff,gaussian,circular-well,pure-delta", "--epsilon", "0.3:15:9,log"]
        tables = self.bits(tmp_path, args, ["E_B_solver", "E_B_closed_form", "rel_dev"])
        # every row of the three models that bind has its root
        assert len(tables[0]) == 36 and all(None not in row for row in tables[0][:27])
        assert tables[1:] == tables[:1] * 3

    @pytest.mark.parametrize("name", ["pure-delta", "sharp-cutoff", "gaussian"])
    def test_flow(self, tmp_path, name):
        tables = self.bits(tmp_path, ["flow", "--regulator", name], ["re_inv_tau", "im_inv_tau", "re_tau", "im_tau"])
        # tau is blank at the pure delta's pole in row 2, 1/tau nowhere
        assert len(tables[0]) == 9 and all(None not in row[:2] for row in tables[0])
        assert tables[1:] == tables[:1] * 3


class TestExitCodes:
    def test_usage_error_bad_grid(self, tmp_path):
        code, _ = run_cli(["scatter", "--energy", "banana"], tmp_path)
        assert code == 2

    def test_usage_error_nonpositive_grid(self, tmp_path):
        code, _ = run_cli(["scatter", "--energy=-5:5:3"], tmp_path)
        assert code == 2

    def test_usage_error_bad_model(self, tmp_path):
        code, _ = run_cli(["scatter"], tmp_path, config_text="model = warp\n")
        assert code == 2

    def test_usage_error_unreadable_config(self, tmp_path):
        code = main(["flow", "--config", str(tmp_path / "missing.txt")])
        assert code == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_config_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys, fmt):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"\xff\xfe")
        out = tmp_path / f"out.{fmt}"
        code = main(["transmute", "--config", str(config), "--format", fmt, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and len(err.strip().splitlines()) == 1 and "Traceback" not in err, err
        assert err.startswith(f"transmute-lab: usage error: cannot read config file {config}: "), err
        assert not out.exists()

    def test_flow_rejects_circular_well(self, tmp_path, capsys):
        # the circular well lives only in the oracle; flow has no coupling
        # to build it from
        code, _ = run_cli(["flow", "--regulator", "circular-well"], tmp_path)
        assert_one_line_error(capsys, code, 2)

    def test_numerical_failure_suppresses_output(self, tmp_path):
        # a grid point exactly on the cutoff edge is a singular input
        cfg = "model = sharp-cutoff\nepsilon = 1\nlambda = 4\n"
        code, out = run_cli(["scatter", "--energy", "1:4:2,log"], tmp_path, config_text=cfg)
        assert code == 1
        assert not out.exists()


class TestConfigPrecedence:
    def test_flag_wins_over_file(self, tmp_path):
        cfg = "energy = 7\ne_b = 1\n"
        code, out = run_cli(["scatter", "--energy", "9"], tmp_path, config_text=cfg)
        assert code == 0
        header, rows, _ = parse_csv(out)
        assert float(cell(rows[0], header, "E")) == 9.0

    def test_file_used_when_no_flag(self, tmp_path):
        cfg = "energy = 7\n"
        code, out = run_cli(["scatter"], tmp_path, config_text=cfg)
        assert code == 0
        header, rows, _ = parse_csv(out)
        assert float(cell(rows[0], header, "E")) == 7.0

    def test_kinetic_constant_rescales_wavenumbers(self, tmp_path):
        cfg = "kinetic_constant = 4\ne_b = 1\n"
        code, out = run_cli(["scatter", "--energy", "1"], tmp_path, config_text=cfg)
        assert code == 0
        header, rows, _ = parse_csv(out)
        assert float(cell(rows[0], header, "k")) == 0.5
        # the dimensionless amplitude is unit-independent: delta0 unchanged
        assert float(cell(rows[0], header, "delta0")) == pytest.approx(0.5 * math.pi)

    def test_config_echoed_in_header(self, tmp_path):
        cfg = "e_b = 2\n"
        _, out = run_cli(["scatter", "--energy", "2"], tmp_path, config_text=cfg)
        text = out.read_text(encoding="utf-8")
        assert "# config: e_b=2" in text
        assert "# config: energy=2" in text

    def test_regulator_flag_wins_over_model_key(self, tmp_path):
        # scatter's model is the file's model key before its regulator key,
        # and the --regulator flag before both; the echoed config names the
        # model the table used
        cfg = "model = gaussian\nregulator = pure-delta\nepsilon = 1.7\n"
        code, out = run_cli(["scatter", "--energy", "0.5"], tmp_path, config_text=cfg)
        assert code == 0
        assert "# continuum observables for the gaussian model\n" in out.read_text(encoding="utf-8")
        code, out = run_cli(["scatter", "--regulator", "sharp-cutoff", "--energy", "0.5"], tmp_path, config_text=cfg)
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "# continuum observables for the sharp-cutoff model\n" in text
        assert "# config: regulator=sharp-cutoff\n" in text and "# config: model=" not in text


class TestTolOverride:
    def test_tightened_unitarity_tolerance_flags_rows(self, tmp_path):
        # the gaussian on-shell rows are unitary to rounding, so an absurdly
        # tight override flips them to UNITARITY_VIOLATION
        cfg = "model = gaussian\nepsilon = 1\na = 0.5\n"
        code, out = run_cli(
            ["scatter", "--energy", "0.5:2:3,log", "--tol-override", "unitarity_defect_tol=1e-20"],
            tmp_path,
            config_text=cfg,
        )
        assert code == 0
        header, rows, _ = parse_csv(out)
        assert any(cell(r, header, "status") == "UNITARITY_VIOLATION" for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command, name", [("scatter", "unitarity_defect_tol"), ("flow", "flow_defect_tol")])
    def test_tolerance_out_of_range_is_usage_error(self, tmp_path, capsys, command, name, value, where, fmt):
        # a tolerance must be non-negative and finite: nan and inf reached
        # the JSON footer as a traceback, and -1 flagged every scatter row
        # and failed every flow as a numerical failure
        args, config = [command, "--format", fmt], f"{name} = {value}\n"
        if where == "flag":
            args, config = args + ["--tol-override", f"{name}={value}"], None
        code, out = run_cli(args, tmp_path, f"out.{fmt}", config_text=config)
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"transmute-lab: usage error: {name} must be non-negative and finite, got {float(value)!r}\n"
        assert not out.exists()

    def test_zero_tolerance_is_accepted(self, tmp_path):
        code, out = run_cli(["scatter", "--tol-override", "unitarity_defect_tol=0"], tmp_path)
        assert code == 0
        assert float(parse_csv(out)[2]["unitarity_defect_tol"]) == 0.0

    def test_malformed_override_is_usage_error(self, tmp_path):
        code, _ = run_cli(["scatter", "--tol-override", "nonsense"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("name", ["POLE_GUARD", "unitarity_defect_tol_", "e_b", ""])
    def test_unknown_name_is_usage_error(self, name, capsys):
        # a name no command reads would be echoed in the config and ignored
        code = main(["bind", "--epsilon", "1", "--regulator", "sharp-cutoff", "--tol-override", f"{name}=1e-3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("transmute-lab: usage error: unknown tolerance")
        assert len(captured.err.splitlines()) == 1


class TestTheoremUsage:
    def test_epsilon_grid_rejected(self, tmp_path):
        code, _ = run_cli(["theorem", "--epsilon", "1:2:3,log"], tmp_path)
        assert code == 2


class TestJson:
    def test_json_output_parses(self, tmp_path):
        code, out = run_cli(["scatter", "--energy", "1:4:3,log", "--format", "json"], tmp_path, "out.json")
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["command"] == "scatter"
        assert len(doc["rows"]) == 3
        names = [c["name"] for c in doc["columns"]]
        assert names[0] == "E" and "delta0" in names

    def test_json_deterministic(self, tmp_path):
        args = ["bind", "--epsilon", "1:4:3,log", "--format", "json"]
        _, out1 = run_cli(args, tmp_path, "a.json")
        _, out2 = run_cli(args, tmp_path, "b.json")
        assert out1.read_bytes() == out2.read_bytes()


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    # the child imports the same package copy as this test, installed or not
    src = os.path.dirname(os.path.dirname(transmute_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "transmute_lab.cli", "scatter", "--energy", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert out.exists()


def assert_one_line_error(capsys, code, expected):
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err


def test_benchmark_interface():
    # bench/ calls cli._ordered_map directly and wraps Table.write_* by name
    calling_thread = threading.get_ident()
    items = [5, 3, 9, 1, 7]
    assert cli._ordered_map(lambda x: (x, threading.get_ident()), items) == [
        (x, calling_thread) for x in items
    ]
    assert cli._ordered_map(str, []) == []
    for method in (cli.Table.write_csv, cli.Table.write_json):
        assert list(inspect.signature(method).parameters) == ["self", "stream"]
    table = cli.Table("t", "d", {"k": "v"}, [("x", "", np.array([1.0]))], footer={"rows": 1})
    csv_buf, json_buf = io.BytesIO(), io.BytesIO()
    table.write_csv(csv_buf)
    table.write_json(json_buf)
    assert csv_buf.getvalue().splitlines()[-2:] == [b"1.0000000000000000e+00", b"# rows=1"]
    assert json.loads(json_buf.getvalue())["rows"] == [[1.0]]
    # bench/worker.py times these special functions by name, one scalar
    # argument per call
    for name, arg in [("exp1_scaled", 5.0 - 3.0j), ("expi_scaled", 7.0), ("bessel_j0", 3.0),
                      ("bessel_y0", 3.0), ("bessel_k0", 3.0), ("bessel_k1", 3.0)]:
        fn = getattr(special, name)
        params = list(inspect.signature(fn).parameters.values())
        assert len(params) == 1 and params[0].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert type(fn(arg)) in (float, complex)


class TestRender:
    def test_row_templates_render_as_fmt(self):
        # float columns with blank cells, a str column and an int column
        # render exactly as the per-cell formatter does
        cells = [
            np.array([1.0, math.pi, 1.0, 0.1, 1.0 / 3.0]),
            np.array([-0.0, 0.0, 7.0, 2.5, 1e-5]),
            np.array([5e-324, -1e-300, 0.1, 1e22, 123456789.0]),
            np.array([1.7976931348623157e308, 2.0, 0.0, 1.0, -2.0]),
            label_column(["OK", "UNITARITY_VIOLATION", "", "OK", "OK"]),
            label_column([3, -7, 0, 3, 11]),
        ]
        blank = {1: np.array([False, True, True, False, False]), 3: np.array([False, False, True, False, False])}
        columns = [(f"c{j}", "", col, blank.get(j)) for j, col in enumerate(cells)]
        table = cli.Table("t", "d", {}, columns)
        buf = io.BytesIO()
        table.write_csv(buf)
        body = buf.getvalue().decode().splitlines()[-5:]
        assert body == [",".join(cli._fmt(c) for c in row) for row in row_lists(table.columns)]

    def test_numpy_zero_cells_keep_their_sign(self):
        # 0.0 == -0.0: a lookup keyed by value would write the first zero's
        # sign for both
        table = cli.Table("t", "d", {}, [("a", "", np.array([0.0, -0.0])), ("b", "", (("OK",), np.zeros(2, int)))])
        buf = io.BytesIO()
        table.write_csv(buf)
        assert buf.getvalue().splitlines()[-2:] == [b"0.0000000000000000e+00,OK", b"-0.0000000000000000e+00,OK"]
        assert json.loads(json_of(table))["rows"] == [[0.0, "OK"], [-0.0, "OK"]]
        assert [math.copysign(1.0, row[0]) for row in json.loads(json_of(table))["rows"]] == [1.0, -1.0]

    @pytest.mark.parametrize("bad", [True, 1.0, None, np.int64(1), np.float64(1.0), (1,), [1], {"a": 1}])
    def test_other_list_cells_raise(self, bad):
        # a label column holds str or int labels only
        table = cli.Table("t", "d", {}, [("a", "", ((1, bad), np.array([0, 1])))])
        for write in (table.write_csv, table.write_json):
            with pytest.raises(TypeError, match="neither str nor int"):
                write(io.BytesIO())


def block_rows(columns, lines):
    """The rows of the first block that lines yields for these columns."""
    first = next(lines(columns))
    return first.count(b"\n") if lines is render.csv_lines else first.count(b"\n    ],\n")


def edge_columns(n):
    """n rows of float columns, one with blank cells, a str column of
    several labels, a str column of one, and an int column."""
    rng = np.random.default_rng(n)
    floats = [rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n) for _ in range(3)]
    floats[1][::5] = 0.0
    strings = (("OK", "NO_BOUND_STATE", "caf\u00e9 \"\u2211\"", ""), np.arange(n) % 4)
    cells = floats + [strings, (("OK",), np.zeros(n, int)), (tuple(range(-50, 7 * n - 50, 7)), np.arange(n))]
    return [(f"c{j}", "", col, np.arange(n) % 3 == 1) if j == 2 else (f"c{j}", "", col) for j, col in enumerate(cells)]


@pytest.mark.parametrize("lines", [render.csv_lines, render.json_lines])
def test_tables_at_block_edges(lines):
    # tables of 1, B - 1, B, B + 1 and 2B + 1 rows, B the rows per block:
    # every block renders as fmt_cell and json.dump do, and the JSON tail
    # is cut from the last block whichever row ends it
    big = edge_columns(5000)
    b = block_rows(big, lines)
    assert 2 < b < 2000
    for n in (1, b - 1, b, b + 1, 2 * b + 1):
        columns = edge_columns(n)
        chunks = list(lines(columns))
        assert len(chunks) == -(-n // b)
        table = cli.Table("t", "d \u00e9", {"k": "v"}, columns, footer={"rows": n})
        if lines is render.csv_lines:
            expected = "".join(",".join(cli._fmt(c) for c in row) + "\n" for row in row_lists(columns))
            assert b"".join(chunks) == expected.encode()
            buf = io.BytesIO()
            table.write_csv(buf)
            assert buf.getvalue().endswith(expected.encode() + b"# rows=%d\n" % n)
        else:
            assert json_of(table) == reference_json(table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["flow", "bind", "theorem", "transmute", "scatter"])
def test_rows_footer_counts_the_body_rows(command, fmt, tmp_path):
    code, out = run_cli([command, "--format", fmt], tmp_path, f"out.{fmt}")
    assert code == 0
    if fmt == "csv":
        _, rows, footer = parse_csv(out)
        assert int(footer["rows"]) == len(rows) > 1
    else:
        table = json.loads(out.read_text(encoding="utf-8"))
        assert table["footer"]["rows"] == len(table["rows"]) > 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", [
    ["flow", "--energy", "1:1e3:7,log"],
    ["bind", "--epsilon", "0.5:4:5,log", "--regulator", "sharp-cutoff,gaussian,pure-delta"],
    ["theorem", "--epsilon", "1", "--lambda", "1e2:1e12:6,log"],
    ["transmute"],
    ["scatter", "--energy", "1e-6:1e6:1200,log"],
])
def test_stdout_bytes_equal_out_file(args, fmt, tmp_path, capsysbinary):
    # the table reaches stdout through its binary layer as the same bytes
    # that --out writes
    out = tmp_path / f"out.{fmt}"
    assert main(args + ["--format", fmt, "--out", str(out)]) == 0
    assert main(args + ["--format", fmt]) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    assert captured.out == out.read_bytes()


def test_stdout_text_layer_flushed_first(tmp_path, monkeypatch):
    # text written to stdout before the table is flushed out ahead of the
    # table's bytes, which go to the binary layer
    out = tmp_path / "out.csv"
    assert main(["scatter", "--energy", "1:4:3,log", "--out", str(out)]) == 0
    binary = io.BytesIO()
    text = io.TextIOWrapper(binary, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", text)
    text.write("text before the table\n")
    assert main(["scatter", "--energy", "1:4:3,log"]) == 0
    text.flush()
    assert binary.getvalue() == b"text before the table\n" + out.read_bytes()


def kernel_text(values):
    """The cells that format_e16 renders, as text."""
    rows = render.format_e16(np.array(values, dtype=float)).view(np.uint8)
    return [bytes(row[row != 0xFF]).decode() for row in rows]


def percent_e16(values):
    return ["%.16e" % v for v in values]


class TestFloatKernel:
    def test_powers_of_ten_and_their_neighbours(self):
        powers = [float(f"1e{k}") for k in range(-323, 309)]
        values = powers + [math.nextafter(p, math.inf) for p in powers] + [math.nextafter(p, 0.0) for p in powers]
        values += [-v for v in values]
        assert kernel_text(values) == percent_e16(values)

    def test_floor_of_y_guards_the_lower_range(self):
        # the double of 1e-277 lies just below 10^-277 while log10 returns
        # exactly -277: y rounds up to 10^16 at the wrong exponent
        assert kernel_text([1e-277]) == ["9.9999999999999997e-278"]

    def test_edge_values(self):
        tiny, huge = sys.float_info.min, sys.float_info.max
        values = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, huge, -huge, 1e-280, 1e280, 1.0, -1.0, 0.1, 1e22, 1e23]
        values += [float(i) for i in range(200001)]
        values += [i + 0.5 for i in range(-2000, 2000)]
        # exact ties of the 17th digit, which '%.16e' rounds to even: odd
        # multiples of 2^-j whose 18th digit is a 5
        values += [(8 * 10**14 + 2 * k + 1) / 2.0**j for k in range(200) for j in range(1, 6)]
        assert kernel_text(values) == percent_e16(values)

    def test_near_ties_fall_back(self):
        # doubles whose y lies within 1.5e-14 of a half-integer, on both
        # sides, where the error of the computed y can cross 1/2
        values = []
        for d in (1, -1):
            # x = m 2^-(s + k): y = m 5^k / 2^s = K + 1/2 + d 2^-s
            for k, s in ((20, 46), (25, 57), (30, 69)):
                m = (2 ** (s - 1) + d) * pow(5**k, -1, 2**s) % 2**s
                m += -(-(10**16 * 2**s // 5**k - m) // 2**s) * 2**s
                values += [m / 2 ** (s + k) for m in range(m, 2**53, 2**s)]
            # x = m 2^67: y = m 2^47 / 5^20 = K + 1/2 + d / (2 5^20)
            m = (5**20 + d) // 2 * pow(2**47, -1, 5**20) % 5**20
            m += -(-(10**16 * 5**20 // 2**47 - m) // 5**20) * 5**20
            values += [float(m * 2**67) for m in range(m, 2**53, 5**20)]
        assert len(values) > 80
        assert kernel_text(values) == percent_e16(values)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=64),
           floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64))
    def test_renders_as_percent_format(self, bits, floats):
        raw = np.array(bits, dtype=np.uint64).view(np.float64).tolist()
        values = [v for v in raw if math.isfinite(v)] + floats
        assert kernel_text(values) == percent_e16(values)

    def test_non_finite_cells_render_as_percent_format(self):
        values = [math.inf, -math.inf, math.nan, 1.0]
        assert kernel_text(values) == percent_e16(values)


def repr_text(values):
    """The cells that format_repr renders, as text."""
    rows = render.format_repr(np.array(values, dtype=float)).view(np.uint8)
    return [bytes(row[row != 0xFF]).decode() for row in rows]


def reprs(values):
    return [repr(v) for v in values]


def with_neighbours(values):
    return values + [math.nextafter(v, math.inf) for v in values] + [math.nextafter(v, -math.inf) for v in values]


class TestReprKernel:
    def test_powers_of_ten_and_their_neighbours(self):
        values = with_neighbours([float(f"1e{k}") for k in range(-323, 309)])
        values += [-v for v in values]
        assert repr_text(values) == reprs(values)

    def test_powers_of_two(self):
        # below a power of two the doubles lie twice as dense: the rounding
        # interval is asymmetric
        values = [2.0**k for k in range(-1074, 1024)]
        values += [-v for v in values]
        assert repr_text(values) == reprs(values)

    def test_layout_edges(self):
        # the point position E + 1 picks the form: fixed from -3 to 16,
        # exponent form with at least two exponent digits outside
        values = [0.0001, 1e-05, 9999999999999998.0, 1e16, 1e22, 123456789012345.0, 0.00012345678901234567,
                  1.2345678901234568e-05, 1234567890123456.8, 1.2345678901234568e16, 1.5e300, 2.5e-300]
        assert repr_text(values) == ["0.0001", "1e-05", "9999999999999998.0", "1e+16", "1e+22", "123456789012345.0",
                                     "0.00012345678901234567", "1.2345678901234568e-05", "1234567890123456.8",
                                     "1.2345678901234568e+16", "1.5e+300", "2.5e-300"]
        assert repr_text(values) == reprs(values)

    def test_edge_values(self):
        tiny, huge = sys.float_info.min, sys.float_info.max
        values = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, huge, -huge, 1.0, -1.0, 0.1, 0.5, 2.5, 1e-281, 1e280]
        values += [float(i) for i in range(-2000, 2000)] + [i / 8 for i in range(-200, 200)]
        assert repr_text(values) == reprs(values)

    def test_integers_around_two_to_the_53(self):
        values = [float(2**53 + k) for k in range(-300, 300)] + [float(2**54 + 4 * k) for k in range(-300, 300)]
        assert repr_text(values) == reprs(values)

    def test_ties_between_shortest_candidates(self):
        # y = m 5^12 with m odd ends in a 5 and has half-ulp 7.3: two
        # 16-digit candidates are equally near, and repr rounds to even
        values = [(2**28 + 2 * k + 1) / 4096 for k in range(0, 20000, 97)]
        # 1e23 lies halfway between two doubles; an end of its rounding
        # interval is the candidate itself
        values += with_neighbours([1e23, 9007199254740993.0])
        assert repr_text(values) == reprs(values)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=64),
           floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64))
    def test_renders_as_repr(self, bits, floats):
        raw = np.array(bits, dtype=np.uint64).view(np.float64).tolist()
        values = [v for v in raw if math.isfinite(v)] + floats
        assert repr_text(values) == reprs(values)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_cell_raises(self, bad):
        # as json.dump(allow_nan=False) refuses it
        with pytest.raises(ValueError, match="not JSON compliant"):
            render.format_repr(np.array([1.0, bad]))


def test_powers_of_ten_are_proven(monkeypatch):
    # every 10^k from 1e-280 to 1e279 and both its neighbours: the digit
    # core proves all, '%.16e' renders all in the array pass, and repr all
    # but 1e23 and the double above it, whose rounding intervals end on
    # their shortest decimal (1e23 is halfway between the two doubles)
    values = np.array(with_neighbours([float(f"1e{k}") for k in range(-280, 280)]))
    assert render.digits17(values)[3].all()
    fallbacks = []
    fallback = render._fallback

    def recording(out, x, proven, fmt):
        fallbacks.extend(x[~proven].tolist())
        return fallback(out, x, proven, fmt)

    monkeypatch.setattr(render, "_fallback", recording)
    render.format_e16(values)
    assert fallbacks == []
    render.format_repr(values)
    assert fallbacks == [1e23, 1.0000000000000001e23]


def test_normal_doubles_beyond_1e280_and_below_1e_281_are_proven(monkeypatch):
    # there 10^(16 - E) alone would lose bits or overflow: the shift of E's
    # row scales |x| and the power by 2^s and 2^-s, so the array pass
    # renders every normal double
    rng = np.random.default_rng(280)

    def between(lo, hi):
        return rng.integers(*np.array([lo, hi]).view(np.int64), 20000, endpoint=True).view(np.float64)

    tiny, huge = 2.0**-1022, sys.float_info.max
    values = np.concatenate([between(1e280, huge), between(tiny, 1e-281), [1e280, huge, tiny, 1e-281]])
    values = np.concatenate([values, -values])
    fallbacks = []
    fallback = render._fallback

    def recording(out, x, proven, fmt):
        fallbacks.extend(x[~proven].tolist())
        return fallback(out, x, proven, fmt)

    monkeypatch.setattr(render, "_fallback", recording)
    assert kernel_text(values) == percent_e16(values.tolist())
    assert repr_text(values) == reprs(values.tolist())
    assert fallbacks == []


# SHA-256 of the CSV of small tables, pinned from the template renderer that
# wrote one '%.16e' per cell.  Together they hold every kind of cell the
# commands write: blank cells (a pole row, a zero anchor, the vacuous
# envelope, the phase shift of a violating row), NO_BOUND_STATE and
# UNITARITY_VIOLATION rows, the int step index of transmute, and 0.0 and
# -0.0 cells (sharp cutoff above its cutoff).  Their numbers come from
# numpy's log and libm; a numpy build whose log rounds differently in the
# last bit changes a digest without a fault in the renderer.
GOLDEN_CSV = [
    (["flow"], None, "7434f403a51cb0fdcab6a097969d759a5d001d1621148b714a879ef166c62f4f"),
    (["flow", "--energy", "1:10:3,log"], "tau0_re = 0\n",
     "d1b7feeb24d933bf21d185780145dad78955b9b2e36d29e14e929d84d014f1ea"),
    (["bind", "--regulator", "sharp-cutoff,pure-delta", "--epsilon", "0.5:2:3,log"], None,
     "8c4f2a689b46a98f25fff152a753c69ffd04d6d49ca762fedcde4dccc206bc00"),
    (["scatter", "--energy", "1e-3:1e3:7,log", "--tol-override", "unitarity_defect_tol=1e-20"], None,
     "d8c026f213ce0b0fcb4f4acd7923c9b14fde3f005faeac4f96028a677186a387"),
    (["transmute"], None, "1099302dc6aa70ae80dcb83f1461af7976b0abe7ebd53f9e88e11acc3cabad21"),
    (["scatter", "--regulator", "sharp-cutoff", "--epsilon", "1", "--lambda", "4", "--energy", "1:16:4,log"], None,
     "623dce438ba71afc91771a06fb4b375fb120f16453a717cd3d4a3ef38d40fc9f"),
    (["theorem", "--epsilon", "1", "--lambda", "1e2:1e12:6,log"], None,
     "c72a918cc3fc97bbd6775aceb61dac67a7399641982abb172a9b44da7ba8b47c"),
    # 13 NO_BOUND_STATE rows with blank cells, pinned from the row-list
    # renderer that bind used before it emitted columns, and re-pinned when
    # the gaussian and well roots moved to Newton's method (their OK cells
    # and fits changed in the last digits, no status and no blank cell did)
    (["bind", "--regulator", "sharp-cutoff,gaussian,circular-well,pure-delta", "--epsilon", "0.005:2:7,log"], None,
     "b2a7287a23cbbfafd4ed891242bf5748e6b5c92a24863cb4be3518f7adeb7cb1"),
]


@pytest.mark.parametrize("args, config, digest", GOLDEN_CSV, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_golden_csv_digests(args, config, digest, tmp_path):
    code, out = run_cli(args, tmp_path, config_text=config)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of the JSON of the same tables, pinned from the template renderer
# that wrote one repr per float cell; blank cells are null
GOLDEN_JSON = [
    (["flow"], None, "dcfb4e9c0c0a5473c43921e74efc0678c1c74e1d30c602090f418bd1ed9680c7"),
    (["flow", "--energy", "1:10:3,log"], "tau0_re = 0\n",
     "9d9aa3042800314fa5525fd135a8116433ae661c07b1d284b88114d7801291ed"),
    (["bind", "--regulator", "sharp-cutoff,pure-delta", "--epsilon", "0.5:2:3,log"], None,
     "90fcd44f3b1b4800cdc73c4d3b75963c8612200a5ae81006af76ef90d7f8792d"),
    (["scatter", "--energy", "1e-3:1e3:7,log", "--tol-override", "unitarity_defect_tol=1e-20"], None,
     "40c1136859095ed4be84e4c29e6016a436cb6c3929522324e169e3daa739affb"),
    (["transmute"], None, "29ff41b13ba9ef7d7b66dfebecfedbf588db19d0d176f3dcdc325fea57bdc0ac"),
    (["scatter", "--regulator", "sharp-cutoff", "--epsilon", "1", "--lambda", "4", "--energy", "1:16:4,log"], None,
     "e0360d2fc074171e12e064243a010476f972c91483e8f3abc63f418087f20f25"),
    (["theorem", "--epsilon", "1", "--lambda", "1e2:1e12:6,log"], None,
     "d733b63049aad760ddda8e3f41ca2f1272bf6e46be77b410891d0ad3e0a1d3c4"),
    # null cells; pinned as in GOLDEN_CSV
    (["bind", "--regulator", "sharp-cutoff,gaussian,circular-well,pure-delta", "--epsilon", "0.005:2:7,log"], None,
     "0de73f4f7aed9f2f5948c0b113e4c2635733f67a8c2c71192c4a64f2d447bb12"),
]


@pytest.mark.parametrize("args, config, digest", GOLDEN_JSON, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_golden_json_digests(args, config, digest, tmp_path):
    code, out = run_cli(args + ["--format", "json"], tmp_path, "out.json", config_text=config)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args", [
    ["flow"],
    ["bind", "--regulator", "sharp-cutoff,gaussian,pure-delta", "--epsilon", "0.5:2:3,log"],
    ["theorem", "--epsilon", "1", "--lambda", "1e2:1e12:6,log"],
    ["transmute"],
    ["scatter", "--energy", "1e-3:1e3:13,log", "--tol-override", "unitarity_defect_tol=1e-20"],
], ids=lambda args: args[0])
def test_csv_cells_read_back_as_json_cells(args, tmp_path):
    # the two renderers agree cell by cell: a float to the bit, the sign of
    # zero too; a blank CSV cell is null; strings and ints alike
    assert run_cli(args, tmp_path, "out.csv")[0] == 0
    assert run_cli(args + ["--format", "json"], tmp_path, "out.json")[0] == 0
    header, csv_rows, _ = parse_csv(tmp_path / "out.csv")
    doc = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    assert header == [c["name"] for c in doc["columns"]]
    assert len(csv_rows) == len(doc["rows"]) > 0
    kinds = set()
    for csv_row, json_row in zip(csv_rows, doc["rows"]):
        assert len(csv_row) == len(json_row)
        for text, value in zip(csv_row, json_row):
            kinds.add(type(value))
            if value is None:
                assert text == ""
            elif isinstance(value, float):
                assert float(text).hex() == value.hex()
            elif isinstance(value, int):
                assert text == str(value)
            else:
                assert text == value
    assert float in kinds


def label_column(cells):
    """A list of str or int cells as a label column (labels, codes)."""
    labels = tuple(dict.fromkeys(cells))
    return labels, np.array([labels.index(c) for c in cells], dtype=int)


def row_lists(columns):
    """The rows of a table's columns as lists of cells, a blank cell None."""
    cols = []
    for _, _, col, *blank in columns:
        if isinstance(col, np.ndarray):
            empty = blank[0] if blank and blank[0] is not None else np.zeros(col.shape, bool)
            col = [None if e else v for v, e in zip(col.tolist(), empty.tolist())]
        else:
            labels, codes = col
            col = [labels[c] for c in codes.tolist()]
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def reference_json(table):
    """The table as json.dump wrote it before its rows went through
    templates."""
    obj = {
        "command": table.command,
        "description": table.description,
        "config": table.config,
        "columns": [{"name": n, "description": d} for n, d, *_ in table.columns],
        "rows": row_lists(table.columns),
        "footer": dict(table.footer),
    }
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def json_of(table):
    buf = io.BytesIO()
    table.write_json(buf)
    return buf.getvalue().decode()


RENDER = settings(max_examples=200, derandomize=True, deadline=None)
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e22, 1e-7, 1e16,
                                     1.7976931348623157e308]))
_strings = st.one_of(st.text(), st.sampled_from(["OK", "NO_BOUND_STATE", 'a "quoted" \\ cell', "\u00e9\u2211\U0001f600",
                                                 "inf", "nan", "-inf", "\n      nan", "%s %d %%"]))


@st.composite
def table_columns(draw):
    """Columns of every kind: float64 arrays with random blank masks, and
    str and int label columns, some of two or fewer labels with bool codes,
    all of one random length."""
    n = draw(st.integers(0, 8))
    columns = []
    for j, kind in enumerate(draw(st.lists(st.sampled_from(["float", "str", "int"]), max_size=6))):
        if kind == "float":
            column = (f"c{j}", "", np.array(draw(st.lists(_finite, min_size=n, max_size=n)), dtype=np.float64))
            if draw(st.booleans()):
                column += (np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),)
        else:
            labels, codes = label_column(draw(st.lists(_strings if kind == "str" else st.integers(), min_size=n,
                                                       max_size=n)))
            if len(labels) <= 2 and draw(st.booleans()):
                codes = codes.astype(bool)
            column = (f"c{j}", "", (labels, codes))
        columns.append(column)
    return columns


class TestJsonTemplates:
    @RENDER
    @given(columns=table_columns(), footer=st.dictionaries(st.text(max_size=4), _finite, max_size=3))
    def test_rows_render_as_json_dump(self, columns, footer):
        table = cli.Table("scatter", "d \u00e9", {"b": "2", "a": "x\"y"}, columns, footer=footer)
        assert json_of(table) == reference_json(table)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.inf), np.float64(math.nan)])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_non_finite_cell_raises(self, bad, where):
        # as json.dump(allow_nan=False) does: a non-finite float is never
        # written as inf or nan, wherever its float column stands
        cells = [label_column(["OK", "inf"]), label_column([3, 4])]
        cells.insert(where, np.array([1.0, bad]))
        table = cli.Table("t", "d", {}, [(name, "", col) for name, col in zip("abc", cells)])
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            reference_json(table)
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            json_of(table)

    def test_string_cells_spelling_inf_and_nan(self):
        table = cli.Table("t", "d", {}, [("a", "", label_column(["nan", "inf"])),
                                         ("b", "", np.array([1.0, 0.0]), np.array([False, True]))])
        assert json_of(table) == reference_json(table)


def _mixed_command_lines(tmp_path):
    """Command lines over all five commands and both formats, with config
    files, repeated --tol-override, and usage errors and numerical failures
    in between."""
    transmute_cfg = tmp_path / "transmute.cfg"
    transmute_cfg.write_text("steps = 12\nformat = json\n", encoding="utf-8")
    edge_cfg = tmp_path / "edge.cfg"
    edge_cfg.write_text("model = sharp-cutoff\nepsilon = 1\nlambda = 4\n", encoding="utf-8")
    return [
        ["flow"],
        ["scatter", "--tol-override", "unitarity_defect_tol=1e-20", "--tol-override", "flow_defect_tol=1e-9"],
        ["scatter", "--format", "json"],
        ["bind", "--epsilon", "1:4:3,log", "--format", "json"],
        ["scatter", "--energy", "banana"],
        ["transmute", "--config", str(transmute_cfg)],
        ["theorem", "--epsilon", "1", "--lambda", "1e2:1e12:6,log"],
        ["scatter", "--energy", "1:4:2,log", "--config", str(edge_cfg)],
        ["flow", "--regulator", "gaussian", "--format", "json", "--tol-override", "flow_defect_tol=1e-9"],
        ["bind", "--tol-override", "POLE_GUARD=1e-3"],
        ["theorem", "--epsilon", "1", "--format", "json"],
        ["transmute"],
        ["bind", "--regulator", "circular-well", "--epsilon", "0.5:2:3,log"],
        ["flow", "--bogus"],
        ["scatter", "--regulator", "gaussian", "--epsilon", "1.5", "--energy", "1e-2:1e2:5,log", "--format", "json"],
        ["scatter"],
    ]


def test_repeated_main_matches_fresh_processes(tmp_path):
    # one process calls main over and over: every result equals that of a
    # fresh interpreter, which makes its one main call, so no call carries
    # anything over to the next (the --tol-override values included)
    src = os.path.dirname(os.path.dirname(transmute_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = _mixed_command_lines(tmp_path)
    in_process = []
    for _ in range(2):
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            in_process.append((code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")))
    assert {code for code, _, _ in in_process} == {0, 1, 2}
    for argv, first, again in zip(runs, in_process, in_process[len(runs):]):
        proc = subprocess.run([sys.executable, "-m", "transmute_lab.cli", *argv], capture_output=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == first, argv
        assert again == first, argv


class TestBoundaryErrors:
    @pytest.mark.parametrize("command,config", [
        ("flow", "flow_defect_tol = abc\n"),
        ("scatter", "unitarity_defect_tol = x\n"),
        ("scatter", "format = xml\n"),
        ("scatter", "kinetic_constant = 0\n"),
        ("flow", "tau0_re = nan\n"),
        ("flow", "tau0_im = inf\n"),
        ("flow", "z0_re = -inf\n"),
        ("theorem", "z_re = nan\n"),
        ("theorem", "z_im = inf\n"),
        ("theorem", "z_im = -1\n"),
        ("transmute", "z_re = nan\n"),
        ("transmute", "z_im = -inf\n"),
        ("transmute", "e_b = nan\n"),
        ("transmute", "e_b = inf\n"),
        ("transmute", "steps = 309\n"),
        ("transmute", "steps = 400\n"),
        ("transmute", "e_b = 1e10\nsteps = 299\n"),
    ])
    def test_bad_config_value(self, tmp_path, capsys, command, config):
        code, out = run_cli([command, "--energy", "1"], tmp_path, config_text=config)
        assert_one_line_error(capsys, code, 2)
        assert not out.exists()

    @pytest.mark.parametrize("regulator", ["gaussian", "circular-well"])
    def test_scale_ratio_out_of_range(self, tmp_path, capsys, regulator):
        # kinetic_constant/a^2 underflows to 0 and a^2/kinetic_constant
        # overflows: a usage error naming both keys, not a traceback from
        # the logarithm of the nominal cutoff
        code, out = run_cli(["bind", "--regulator", regulator, "--epsilon", "1e300"], tmp_path,
                            config_text="kinetic_constant = 1e-300\na = 1e100\n")
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err and len(err.strip().splitlines()) == 1, err
        assert "kinetic_constant" in err and "a = 1e+100" in err
        assert not out.exists()

    def test_overflowing_well_depth_names_its_row(self, tmp_path, capsys):
        # eps*kappa/(pi a^2) overflows from eps = 10: exit 1, and the message
        # names that coupling
        code, out = run_cli(["bind", "--regulator", "gaussian,circular-well", "--epsilon", "1:100:3,log"], tmp_path,
                            config_text="kinetic_constant = 1e300\na = 1e-4\n")
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err and len(err.strip().splitlines()) == 1, err
        assert "overflows at eps = 10.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cell_is_numerical_failure(self, tmp_path, capsys, fmt):
        # 1/tau0 overflows, so the 1/tau cells are infinite
        code, out = run_cli(["flow", "--format", fmt], tmp_path, f"out.{fmt}", config_text="tau0_re = 1e-320\n")
        assert_one_line_error(capsys, code, 1)
        assert not out.exists()

    def test_non_finite_cell_names_row_and_column(self, tmp_path, capsys):
        run_cli(["flow"], tmp_path, config_text="tau0_re = 1e-320\n")
        assert "re_inv_tau = inf in row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_bind_cell_names_row_and_column(self, tmp_path, capsys, monkeypatch, fmt):
        # an infinite root is a numerical failure found by the cell check,
        # before the footer fit would carry it into the JSON header; the
        # well's rows come through the same solver
        solve, models = cli.bound_states, []

        def overflowing(eps, model, scales):
            models.append(model)
            energy, unbound, nominal = solve(eps, model, scales)
            return np.where(eps == 2.0, math.inf, energy), unbound, nominal

        monkeypatch.setattr(cli, "bound_states", overflowing)
        code, out = run_cli(["bind", "--regulator", "sharp-cutoff,gaussian,circular-well", "--epsilon", "1:2:2",
                             "--format", fmt], tmp_path, f"out.{fmt}")
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err and len(err.strip().splitlines()) == 1, err
        assert "non-finite E_B_solver = inf in row 2" in err
        assert not out.exists()
        assert models == [SharpCutoff(1.0), GaussianFormFactor(1.0), CircularWell(1.0)]

    def test_tolerance_defaults_come_from_tolerances(self, tmp_path):
        code, out = run_cli(["scatter", "--energy", "1"], tmp_path)
        assert code == 0
        _, _, footer = parse_csv(out)
        assert float(footer["unitarity_defect_tol"]) == UNITARITY_DEFECT_TOL

    @pytest.mark.parametrize("grid", ["nan", "inf", "1:inf:3", "1:nan:3,log", "nan:1:3"])
    def test_non_finite_grid(self, tmp_path, capsys, grid):
        code, out = run_cli(["scatter", "--energy", grid], tmp_path)
        assert_one_line_error(capsys, code, 2)
        assert not out.exists()

    @pytest.mark.parametrize("args", [["scatter", "--energy", "1:1.7976931348623157e308:3,log"],
                                      ["theorem", "--lambda", "1e2:1.7976931348623157e308:5,log"]])
    def test_log_grid_up_to_the_largest_double(self, tmp_path, args):
        # the last point is hi itself: 10^log10(hi) overflows
        code, out = run_cli(args, tmp_path)
        assert code == 0
        _, rows, _ = parse_csv(out)
        assert float(rows[-1][0]) == sys.float_info.max

    @pytest.mark.parametrize("args", [["scatter", "--energy", f"{MAX}:{MAX}:3,log"],
                                      ["bind", "--epsilon", f"{MAX}:{MAX}:3,log"]])
    def test_log_grid_whose_inner_pow_overflows(self, tmp_path, args):
        # 10^log10(hi) overflows at the inner point too, which is then hi
        assert cli._parse_grid(args[-1]).tolist() == [sys.float_info.max] * 3
        code, _ = run_cli(args, tmp_path)
        assert code == 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_footer_is_numerical_failure(self, tmp_path, capsys, monkeypatch, fmt):
        # the footer has the cells' finiteness check, so CSV (which wrote
        # inf) and JSON (which raised) fail alike
        scatter = cli._COMMANDS["scatter"]

        def broken(opts):
            table = scatter(opts)
            table.footer["broken"] = math.inf
            return table

        monkeypatch.setitem(cli._COMMANDS, "scatter", broken)
        code, out = run_cli(["scatter", "--energy", "1", "--format", fmt], tmp_path, f"out.{fmt}")
        err = capsys.readouterr().err
        assert code == 1 and err == "transmute-lab: numerical failure: non-finite footer broken = inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("args", [["scatter", "--energy", "1:1e308:5"], ["theorem", "--lambda", "1e2:1e308:5"]])
    def test_overflowing_linear_grid(self, tmp_path, capsys, args):
        code, out = run_cli(args, tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err and len(err.strip().splitlines()) == 1, err
        assert "linear grid" in err and "overflows" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["1:2:1000000000000000", "1:2:1000000000000000,log", "1:2:" + "9" * 40])
    def test_grid_too_large_to_hold(self, tmp_path, capsys, grid):
        # 10**15 points would take 8 PB: the allocation fails at once, and
        # nothing is allocated
        code, out = run_cli(["scatter", "--energy", grid], tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err and len(err.strip().splitlines()) == 1, err
        assert "too many points" in err
        assert not out.exists()

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(["scatter", "--energy", "1", "--out", str(out)])
        assert_one_line_error(capsys, code, 2)
        assert not out.parent.exists()

    @pytest.mark.parametrize("binary", [True, False])
    def test_failed_stdout_write(self, capsys, monkeypatch, binary):
        # a stdout that refuses the table, through its binary layer or, for
        # a text-only stream, its text layer: one line and exit 2, as for an
        # unwritable --out
        class Refusing(io.BytesIO):
            def write(self, data):
                raise OSError(28, "No space left on device")

        class Text(io.StringIO):
            buffer = Refusing()

        monkeypatch.setattr(sys, "stdout", Text() if binary else Refusing())
        code = main(["scatter", "--energy", "1e-6:1e6:13,log"])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert err.splitlines() == ["transmute-lab: usage error: cannot write output: [Errno 28] "
                                    "No space left on device"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("rows", [13, 5000])
    def test_stdout_on_a_full_device(self, rows, unbuffered):
        # a fresh process whose stdout is full, with a buffered and with an
        # unbuffered binary layer: the failed write is a usage error, and
        # the flush at exit finds nothing left to write
        src = os.path.dirname(os.path.dirname(transmute_lab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "transmute_lab.cli", "scatter",
                                   "--energy", f"1e-6:1e6:{rows},log"], stdout=full, stderr=subprocess.PIPE, env=env)
        err = proc.stderr.decode()
        assert proc.returncode == 2, err
        assert err.splitlines() == ["transmute-lab: usage error: cannot write output: [Errno 28] "
                                    "No space left on device"]

    def test_failed_render_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch):
        def failing_render(self, stream):
            stream.write(b"# transmute-lab partial\n")
            raise TransmuteLabError("render failed")

        monkeypatch.setattr(cli.Table, "write_csv", failing_render)
        code, out = run_cli(["scatter", "--energy", "1"], tmp_path)
        assert_one_line_error(capsys, code, 1)
        assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "1e-300", "1e-30", "0.5", "1e30", "1e300"])
@pytest.mark.parametrize("key", ["lambda", "epsilon", "a"])
@pytest.mark.parametrize("regulator", ["pure-delta", "sharp-cutoff", "gaussian", "circular-well"])
@pytest.mark.parametrize("command", ["flow", "bind", "scatter"])
def test_scale_sweep(command, regulator, key, value, tmp_path, capsys):
    # any scale ends in exit 0, 1 or 2 with at most one stderr line and an
    # output file only on success; a nonpositive or non-finite value of a
    # key the command and regulator use is a usage error
    args = [command, "--regulator", regulator]
    if command == "scatter":
        args += ["--energy", "0.3:3:3,log"]
    config = f"a = {value}\n" if key == "a" else None
    if config is None:
        args.append(f"--{key}={value}")
    code, out = run_cli(args, tmp_path, config_text=config)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err and len(err.strip().splitlines()) <= 1, err
    assert out.exists() == (code == 0)
    uses = {
        "lambda": regulator == "sharp-cutoff",
        "a": regulator in ("gaussian", "circular-well"),
        "epsilon": command != "flow",
    }[key]
    if uses and value in ("nan", "inf", "-1", "0"):
        assert code == 2


# ----------------------------------------------------------------------
# fuzz: random command lines and config files over all five commands
# ----------------------------------------------------------------------

FUZZ = settings(max_examples=100, derandomize=True, deadline=None)
_good = st.sampled_from(["1", "0.5", "2e3", "0.01", "15", "4.5e-7", "1e-300", "1e300", "1e-320", "1e308", "3",
                         "1.7976931348623157e308"])
_bad = st.sampled_from(["-1", "0", "-0", "nan", "inf", "-inf", "x", ""])
# one bad value in four
_numbers = st.one_of(_good, _good, _good, _bad)
_grids = st.builds(lambda lo, hi, n, log: f"{lo}:{hi}:{n}" + (",log" if log else ""), _numbers, _numbers,
                   st.sampled_from(["1", "2", "5", "8", "8", "8", "0", "2.5"]), st.booleans())
_names = st.sampled_from(["pure-delta", "sharp-cutoff", "gaussian", "circular-well", "renormalized",
                          "sharp-cutoff,gaussian", "gaussian, circular-well", "lattice"])
_values = st.one_of(_numbers, _grids, _names)
_flags = {
    "--regulator": _names,
    "--epsilon": st.one_of(_numbers, _grids),
    "--lambda": st.one_of(_numbers, _grids),
    "--energy": st.one_of(_numbers, _grids),
    "--format": st.sampled_from(["csv", "json", "json", "xml"]),
    "--tol-override": st.builds("{}={}".format, st.sampled_from(["unitarity_defect_tol", "flow_defect_tol",
                                                                 "POLE_GUARD", "unknown_tol"]), _numbers),
}
_config_keys = ["z_re", "z_im", "z0_re", "z0_im", "tau0_re", "tau0_im", "z_phase", "a", "lambda", "epsilon",
                "energy", "e_b", "steps", "kinetic_constant", "model", "regulator", "unitarity_defect_tol",
                "flow_defect_tol", "format", "unknown_key"]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["flow", "bind", "theorem", "transmute", "scatter"] * 4 + ["bogus"]))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(_flags)), max_size=4, unique=True)):
        value = draw(_flags[flag])
        argv += [f"{flag}={value}"] if value.startswith("-") else [flag, value]
    lines = [f"{key} = {draw(_values)}" for key in draw(st.lists(st.sampled_from(_config_keys), max_size=3))]
    if draw(st.integers(0, 5)) == 0:
        lines.append(draw(st.sampled_from(["no equals sign", "= 1", "--bogus = 1", "steps = 1e400"])))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(1, draw(st.sampled_from(["--bogus", "-x", "--epsilon"])))
    return argv, "\n".join(lines) + "\n"


# the numerical failures of a whole table, which name no row
_TABLE_FAILURES = ("fit abscissae are degenerate", "bound-state pole", "well depth eps*kappa/(pi a^2) overflows")


@FUZZ
@given(case=command_lines())
@example(case=(["scatter", "--format", "json", "--tol-override", "unitarity_defect_tol=inf"], "\n"))
@example(case=(["bind", "--regulator", "sharp-cutoff", "--lambda", MAX, "--epsilon", "1:4:3,log"], "\n"))
@example(case=(["bind", "--epsilon", f"{MAX}:{MAX}:3,log"], "\n"))
@example(case=(["theorem", "--epsilon", "1e-320"], "\n"))
def test_fuzzed_command_lines(case):
    # any command line and config ends in exit 0, 1 or 2; a failure prints
    # exactly one stderr line, success writes the output file, no traceback
    # ever escapes main, and a numerical failure names its row (transmute:
    # its step) unless it is one of a whole table
    argv, config = case
    with tempfile.TemporaryDirectory() as tmp:
        out, cfg = os.path.join(tmp, "out"), os.path.join(tmp, "cfg.txt")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(config)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--config", cfg, "--out", out])
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        assert lines == [] if code == 0 else len(lines) == 1, lines
        assert os.path.exists(out) == (code == 0)
        if code == 1:
            assert any(name in lines[0] for name in (" in row ", " at step n = ", *_TABLE_FAILURES)), lines


# ----------------------------------------------------------------------
# the argv reader against the argparse parser it replaced
# ----------------------------------------------------------------------

class ArgparseError(Exception):
    pass


def argparse_reference() -> argparse.ArgumentParser:
    """The argparse parser that read the command line before cli._read_argv,
    with its errors raised as ArgparseError."""

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ArgparseError(message)

    parser = Parser(prog="transmute-lab", description=cli.__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in cli._COMMANDS.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").split("\n")[0])
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--regulator", help="regulator name (bind: comma-separated list)")
        p.add_argument("--epsilon", help="coupling value or grid v1:v2:n[,log]")
        p.add_argument("--lambda", dest="lambda", help="cutoff value or schedule lo:hi:n[,log]")
        p.add_argument("--energy", help="energy grid lo:hi:n[,log]")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        p.add_argument("--tol-override", action="append", default=[],
                       metavar="NAME=VALUE", help="override a named tolerance")
    return parser


REFERENCE = argparse_reference()


def argparse_reads(argv):
    """(command, flag values, --tol-override values) as the reference reads
    argv, None where it prints its help, or "error"."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ns = REFERENCE.parse_args(argv)
    except ArgparseError:
        return "error"
    except SystemExit as exc:
        return None if exc.code == 0 else "error"
    values = {key: value for key, value in vars(ns).items()
              if value is not None and key not in ("command", "tol_override")}
    return ns.command, values, ns.tol_override


def reader_reads(argv):
    try:
        return cli._read_argv(argv)
    except cli.UsageError:
        return "error"


def assert_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert (code, out.getvalue(), len(lines)) == (2, "", 1), (argv, lines)
    assert lines[0].startswith("transmute-lab: usage error: "), lines


# the reader keeps the rules of Python 3.11's argparse where later versions
# may differ: '-1e3' is an unknown option, not a value, and '--' ends the
# options, after which no token is read.  test_pinned_tokens pins both
PINNED = sys.version_info[:2] == (3, 11)
# prefixes (unique, ambiguous), '=' forms, negative numbers, an unknown
# option, a bare '-', a flag whose value may be missing and extra
# positionals; the pinned tokens under 3.11 only
_READER_TOKENS = ["--eps", "--e", "--tol", "--tol=flow_defect_tol=1e-9", "--eps=2", "--energy=", "--format=json",
                  "--format=xml", "--form", "-1", "-.5", "-x", "-", "--energy", "--out", "extra", "1", "-1 2",
                  "--bogus"] + (["-1e3", "--"] if PINNED else [])


@st.composite
def reader_lines(draw):
    argv, _ = draw(command_lines())
    for token in draw(st.lists(st.sampled_from(_READER_TOKENS), max_size=3)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=reader_lines())
@example(argv=["scatter", "--epsilon", "-1"])
@example(argv=["scatter", "--eps", "2", "--e", "1"])
@example(argv=["scatter", "--epsilon=-.5", "--epsilon", "3"])
@example(argv=["bind", "--tol", "a=1", "--tol-override=b=2", "--format", "json", "--form=csv"])
@example(argv=["flow", "--energy"])
@example(argv=["flow", "--energy", "--out", "x"])
@example(argv=["flow", "-", "1"])
@example(argv=["-x", "flow"])
@example(argv=[])
def test_reader_matches_argparse(argv):
    # where argparse reads a command line, the reader reads the same flag
    # values; where argparse rejects it, the reader ends main in a usage
    # error of one stderr line
    expected = argparse_reads(argv)
    assert reader_reads(argv) == expected, argv
    if expected == "error":
        assert_usage_error(argv)


@pytest.mark.parametrize("argv, expected", [
    (["scatter", "--epsilon", "-1e3"], "error"),
    (["scatter", "--epsilon", "-1e3", "-h"], "error"),
    (["scatter", "-1e3"], "error"),
    (["scatter", "--"], "error"),
    (["scatter", "--epsilon", "2", "--"], "error"),
    (["scatter", "--epsilon", "--", "2"], "error"),
    (["scatter", "--", "--epsilon", "2"], "error"),
    (["--", "scatter"], "error"),
    (["scatter", "--", "-h"], "error"),
    (["scatter", "-h", "--"], None),
])
def test_pinned_tokens(argv, expected):
    # '-1e3' is an unknown option, so no flag takes it as its value; after
    # '--' every token is a value, which no flag takes.  Pinned from Python
    # 3.11's argparse
    assert reader_reads(argv) == expected
    if PINNED:
        assert argparse_reads(argv) == expected


def test_double_dash_after_equals_is_the_value():
    # argparse 3.11 dropped it and set the flag to an empty list, which
    # escaped main as a traceback where a command read it
    assert reader_reads(["bind", "--epsilon=--"]) == ("bind", {"epsilon": "--"}, [])
    assert_usage_error(["bind", "--epsilon=--"])


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"], ["scatter", "--help"], ["bind", "-h", "--bogus"],
                                  ["flow", "--epsilon", "1", "--h"], ["theorem", "extra", "-hh"]])
def test_help(argv, capsys):
    # help prints the module docstring and the flags to stdout and returns
    # 0, wherever argparse printed its help
    assert argparse_reads(argv) is None
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert all(f"transmute-lab {name}" in captured.out for name in cli._COMMANDS)
    assert all(flag in captured.out for flag in ("--epsilon", "--tol-override", "--format"))


@pytest.mark.parametrize("argv", [["--help=1"], ["scatter", "--help=1"], ["scatter", "-hx"],
                                  ["scatter", "--format", "xml", "-h"]])
def test_help_with_a_value_is_a_usage_error(argv):
    assert argparse_reads(argv) == "error"
    assert_usage_error(argv)


@pytest.mark.parametrize("epsilon", ["1e-320", "6.9e-308", "6.99e-308"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_theorem_below_its_smallest_coupling(epsilon, fmt, tmp_path, capsys):
    # below 4 pi/max double, 4 pi/eps overflows: the peak |z| e^(4 pi/eps)
    # lies beyond every double, even in log space.  A usage error that
    # names the bound
    code, out = run_cli(["theorem", "--epsilon", epsilon, "--format", fmt], tmp_path)
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err == (f"transmute-lab: usage error: theorem takes epsilon of at least 4 pi/max double = 6.9903e-308, "
                   f"got {float(epsilon)!r}: below it the peak |z| e^(4 pi/eps) lies beyond every double, even in "
                   "log space\n")


@pytest.mark.parametrize("epsilon", [repr(FOUR_PI / sys.float_info.max), "6.991e-308", "7e-308"])
def test_theorem_at_its_smallest_coupling(epsilon, tmp_path):
    code, out = run_cli(["theorem", "--epsilon", epsilon, "--format", "json"], tmp_path)
    assert code == 0
    assert "ln_peak_lambda" in json.loads(out.read_text(encoding="utf-8"))["footer"]
