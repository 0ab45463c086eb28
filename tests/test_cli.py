"""End-to-end command tests: emitted tables, determinism, exit codes and
config/flag precedence."""

import contextlib
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
from hypothesis import given, settings, strategies as st

import transmute_lab
from transmute_lab import cli, special
from transmute_lab.cli import main
from transmute_lab.errors import TransmuteLabError
from transmute_lab.tolerances import FLOW_GROUP_RTOL, ROUTE_AGREEMENT_RTOL, UNITARITY_DEFECT_TOL

FOUR_PI = 4.0 * math.pi


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

    def test_cutoff_below_z_rejected(self, tmp_path):
        code, _ = run_cli(["theorem", "--lambda", "0.5"], tmp_path)
        assert code == 2

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
    table = cli.Table("t", "d", {"k": "v"}, [("x", "")], rows=[[1.0]], footer={"rows": 1})
    csv_buf, json_buf = io.StringIO(), io.StringIO()
    table.write_csv(csv_buf)
    table.write_json(json_buf)
    assert csv_buf.getvalue().splitlines()[-2:] == ["1.0000000000000000e+00", "# rows=1"]
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
        # rows whose cell types vary (None, strings, ints, bools, numpy
        # floats) render exactly as the per-cell formatter does
        rows = [
            [1.0, -0.0, 5e-324, 1.7976931348623157e308, "OK", 3],
            [math.pi, None, -1e-300, 2.0, "UNITARITY_VIOLATION", -7],
            [1.0, True, 0.1, None, None, 0],
            [np.float64(0.1), 2.5, 1e22, 1.0, "OK", 3],
            (1.0 / 3.0, 1e-5, 123456789.0, -2.0, "OK", 11),
        ]
        table = cli.Table("t", "d", {}, [(f"c{j}", "") for j in range(6)], rows=rows)
        buf = io.StringIO()
        table.write_csv(buf)
        body = buf.getvalue().splitlines()[-len(rows):]
        assert body == [",".join(cli._fmt(c) for c in row) for row in rows]


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cell_is_numerical_failure(self, tmp_path, capsys, fmt):
        # 1/tau0 overflows, so the 1/tau cells are infinite
        code, out = run_cli(["flow", "--format", fmt], tmp_path, f"out.{fmt}", config_text="tau0_re = 1e-320\n")
        assert_one_line_error(capsys, code, 1)
        assert not out.exists()

    def test_non_finite_cell_names_row_and_column(self, tmp_path, capsys):
        run_cli(["flow"], tmp_path, config_text="tau0_re = 1e-320\n")
        assert "re_inv_tau = inf in row 1" in capsys.readouterr().err

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

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(["scatter", "--energy", "1", "--out", str(out)])
        assert_one_line_error(capsys, code, 2)
        assert not out.parent.exists()

    def test_failed_render_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch):
        def failing_render(self, stream):
            stream.write("# transmute-lab partial\n")
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
_good = st.sampled_from(["1", "0.5", "2e3", "0.01", "15", "4.5e-7", "1e-300", "1e300", "1e-320", "1e308", "3"])
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


@FUZZ
@given(case=command_lines())
def test_fuzzed_command_lines(case):
    # any command line and config ends in exit 0, 1 or 2; a failure prints
    # exactly one stderr line, success writes the output file, and no
    # traceback ever escapes main
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
