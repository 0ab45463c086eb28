"""The tables of CI's console-script step, checked in tier-1: every table,
in both formats, is the same bytes on stdout and in its --out file; every
JSON table is the bytes that json.dump writes for its own content; and every
circular-well row of the deep bind binds.  Each table comes from a fresh
``python -m transmute_lab.cli`` process, as the console script makes it, and
such a process imports neither the quadrature oracle nor numpy.polynomial,
nor argparse.  Scale ratios out of range end such a process with one stderr
line and no traceback."""

import csv
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import transmute_lab

# the z_phase = 1 gaussian flow reaches the series, the Stieltjes rule and
# the asymptotic series of E1; the gaussian scatter the zero, series and
# asymptotic branches of Ei; the wide bind's well roots reach the series and
# rules of J and K, and its sharp and gaussian rows turn NO_BOUND_STATE above
# their search tops; the deep bind's wells reach depths where the search
# starts at the infinitely deep well's ground state; the 17-step transmute,
# the longest whose deviations still fall, and the theorem sweep to 1e300
# run both schedule columns in fresh processes
TABLES = {
    "flow": ["flow", "--regulator", "gaussian", "--energy", "1:1e3:7,log"],
    "flow_phase": ["flow", "--config", "phase.cfg", "--energy", "0.05:3000:90,log"],
    "gaussian": ["scatter", "--regulator", "gaussian", "--epsilon", "1.7", "--energy", "0.001:2000:90,log"],
    "bind": ["bind", "--regulator", "sharp-cutoff,gaussian,circular-well,pure-delta", "--epsilon", "0.005:2:7,log"],
    "bind_wide": ["bind", "--regulator", "sharp-cutoff,gaussian,circular-well,pure-delta", "--epsilon", "0.3:60:40,log"],
    "bind_deep": ["bind", "--regulator", "circular-well,gaussian", "--epsilon", "0.02:1e13:25,log"],
    "theorem": ["theorem", "--epsilon", "1", "--lambda", "1e2:1e12:6,log"],
    "transmute": ["transmute"],
    "transmute_17": ["transmute", "--config", "steps.cfg"],
    "theorem_1e300": ["theorem", "--epsilon", "1", "--lambda", "1e2:1e300:60,log"],
    "scatter": ["scatter", "--energy", "1e-6:1e6:200,log"],
    "well": ["scatter", "--regulator", "circular-well", "--epsilon", "1", "--energy", "1e-3:1e3:50,log"],
}
FORMATS = ("csv", "json")
# each table in each format, written to stdout and with --out
RUNS = [(name, fmt, to_file) for name in TABLES for fmt in FORMATS for to_file in (False, True)]


def fresh(argv, cwd):
    """A fresh interpreter, which imports the same package copy as this test,
    installed or not."""
    src = os.path.dirname(os.path.dirname(transmute_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, cwd=cwd, env=env)


def console(args, cwd):
    """A fresh ``python -m transmute_lab.cli`` process."""
    return fresh(["-m", "transmute_lab.cli", *args], cwd)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """The bytes of each run, from fresh processes two at a time; each must
    exit 0 with nothing on stderr, and with nothing on stdout under --out."""
    work = tmp_path_factory.mktemp("console")
    (work / "phase.cfg").write_text("regulator = gaussian\nz_phase = 1.0\n", encoding="utf-8")
    (work / "steps.cfg").write_text("steps = 17\n", encoding="utf-8")

    def run(key):
        name, fmt, to_file = key
        out = work / f"{name}.{fmt}"
        proc = console([*TABLES[name], "--format", fmt, *(["--out", out.name] if to_file else [])], work)
        assert (proc.returncode, proc.stderr) == (0, b""), (key, proc.stderr)
        if to_file:
            assert proc.stdout == b"", key
            return out.read_bytes()
        return proc.stdout

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(RUNS, pool.map(run, RUNS)))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", TABLES)
def test_stdout_is_the_out_file(tables, name, fmt):
    # stdout goes through sys.stdout.buffer, --out through open(); the bytes
    # are the same
    assert tables[name, fmt, False] == tables[name, fmt, True]


@pytest.mark.parametrize("name", TABLES)
def test_json_table_is_the_bytes_json_dump_writes(tables, name):
    data = tables[name, "json", False]
    assert (json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n").encode() == data


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_deep_well_binds(tables, fmt):
    text = tables["bind_deep", fmt, False].decode("utf-8")
    if fmt == "csv":
        rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
    else:
        table = json.loads(text)
        names = [c["name"] for c in table["columns"]]
        rows = [dict(zip(names, r)) for r in table["rows"]]
    assert sum(r["regulator"] == "circular-well" and r["status"] == "OK" for r in rows) == 25


# kinetic_constant/a^2 underflows: a usage error (exit 2); the well depth
# overflows at eps = 10: a numerical failure naming the row (exit 1)
@pytest.mark.parametrize("config, args, code", [
    ("kinetic_constant = 1e-300\na = 1e100\n", ["--regulator", "gaussian", "--epsilon", "1e300"], 2),
    ("kinetic_constant = 1e-300\na = 1e100\n", ["--regulator", "circular-well", "--epsilon", "1e300"], 2),
    ("kinetic_constant = 1e300\na = 1e-4\n", ["--regulator", "gaussian,circular-well", "--epsilon", "1:100:3,log"], 1),
])
def test_scale_ratios_out_of_range(tmp_path, config, args, code):
    (tmp_path / "scales.cfg").write_text(config, encoding="utf-8")
    proc = console(["bind", *args, "--config", "scales.cfg"], tmp_path)
    err = proc.stderr.decode()
    assert proc.returncode == code and "Traceback" not in err and len(err.splitlines()) == 1, err


def test_console_path_imports_only_what_it_runs(tmp_path):
    # the quadrature oracle and numpy.polynomial serve only the tests, and
    # the command line is read without argparse (nor the gettext it loads):
    # a console call imports none of them (numpy before 2.0 imports
    # numpy.polynomial itself)
    probe = ("import sys, numpy; loaded = set(sys.modules); import transmute_lab.cli as cli; "
             "code = cli.main(['scatter', '--format', 'json', '--out', 'probe.json']); "
             "print(code, sorted({'argparse', 'gettext', 'numpy.polynomial', 'transmute_lab.oracle.quadrature'}"
             " & set(sys.modules) - loaded))")
    proc = fresh(["-c", probe], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0 []\n", b"")
