"""Workload definitions: the argv cycles the benchmark feeds to
``transmute_lab.cli.main``.

A workload is a *cycle*: an ordered list of invocations that the closed loop
repeats until the run's time is up.  Every invocation is generated from the
workload seed (grid endpoints, couplings, the small-tables sequence); the
program sees only the argv.  Each invocation also carries the parameters an
independent reference needs to recompute its rows (``params``), including the
CLI defaults it relies on, and the row count the table must have.

The seed moves parameters but keeps each cycle's composition (row counts,
branch coverage, command and format mix), so seeds differ little in cost.
The dense-grid and regulated cycles have an odd number of slots whose
per-table times are well apart, so the median and the 90th percentile of the
per-invocation times fall inside one slot's cluster instead of on the border
between two.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("dense-grid", "regulated", "small-tables")

# CLI defaults that the generated invocations rely on (see cli.cmd_*).
FLOW_Z0 = complex(0.0, 1.0)
FLOW_TAU0 = complex(4.0 * math.pi, 0.0)
THEOREM_Z = complex(0.0, 1.0)
TRANSMUTE_Z = complex(2.0, 0.0)
E_B = 1.0
LENGTH = 1.0

# Rows per table at full size.
DENSE_ROWS = 5000
# A run makes at least this many invocations: p90 needs ten samples beyond it.
MIN_INVOCATIONS = 100
# Smoke mode (run.py --smoke): grids shrunk to this share, one cycle per run.
SMOKE_SCALE = 0.02


@dataclass
class Invocation:
    """One table: argv (with --out and --config already pointing into the
    run's scratch directory), the config file text it reads, and what an
    independent check needs."""

    argv: list[str]
    rows: int
    fmt: str
    out: str
    params: dict = field(default_factory=dict)
    config: str | None = None
    config_path: str | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv[:-2])  # without --out


def _grid(lo: float, hi: float, n: int) -> str:
    return f"{lo!r}:{hi!r}:{n},log"


def _decades(rng: random.Random, lo_exp: float, hi_exp: float) -> tuple[float, float]:
    """Log-grid endpoints 10^lo_exp and 10^hi_exp, both shifted up by the
    same random fraction of a quarter decade: the grid keeps its width, so
    every seed puts about the same number of rows in each branch of the
    special functions."""
    shift = 0.25 * rng.random()
    return 10.0 ** (lo_exp + shift), 10.0 ** (hi_exp + shift)


def _couplings(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    """Coupling-grid endpoints scaled together by a factor in [0.95, 1.05]."""
    factor = 0.95 + 0.1 * rng.random()
    return lo * factor, hi * factor


class _Cycle:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.cycle: list[Invocation] = []

    def add(self, argv, rows, fmt="csv", config=None, **params) -> None:
        slot = len(self.cycle)
        out = f"{self.workdir}/slot{slot:03d}.{fmt}"
        argv = list(argv)
        config_path = None
        if config is not None:
            config_path = f"{self.workdir}/slot{slot:03d}.cfg"
            argv += ["--config", config_path]
        if fmt != "csv":
            argv += ["--format", fmt]
        argv += ["--out", out]
        self.cycle.append(Invocation(argv, rows, fmt, out, params, config, config_path))


def _dense_grid(b: _Cycle, rng: random.Random, scale: float) -> None:
    n = max(3, round(DENSE_ROWS * scale))
    lo, hi = _decades(rng, -6.0, 6.0)
    b.add(["scatter", "--energy", _grid(lo, hi, n)], n,
          command="scatter", model="renormalized", e_b=E_B)
    lam = 10.0 ** (3.0 + rng.random())
    eps = 0.5 + 1.5 * rng.random()
    lo, hi = _decades(rng, -6.0, 6.0)
    b.add(["scatter", "--regulator", "sharp-cutoff", "--lambda", repr(lam), "--epsilon", repr(eps),
           "--energy", _grid(lo, hi, n)], n,
          command="scatter", model="sharp-cutoff", eps=eps, lam=lam)
    lo, hi = _decades(rng, 0.0, 6.0)
    b.add(["flow", "--energy", _grid(lo, hi, n)], n,
          command="flow", regulator="pure-delta", z0=FLOW_Z0, tau0=FLOW_TAU0)
    eps = 0.8 + 0.7 * rng.random()
    lo, hi = _decades(rng, 2.0, 300.0)
    b.add(["theorem", "--epsilon", repr(eps), "--lambda", _grid(lo, hi, n)], n,
          command="theorem", eps=eps, z=THEOREM_Z)
    lo, hi = _decades(rng, -8.0, 4.0)
    b.add(["scatter", "--energy", _grid(lo, hi, n)], n, fmt="json",
          command="scatter", model="renormalized", e_b=E_B)


def _regulated(b: _Cycle, rng: random.Random, scale: float) -> None:
    def rows(n):
        return max(3, round(n * scale))

    # z_phase = 1.0: |w| = |b z| sweeps the E1 series, near-axis series,
    # Stieltjes and asymptotic branches
    n = rows(1000)
    lo, hi = _decades(rng, -1.0, 3.0)
    b.add(["flow"], n, config=f"regulator = gaussian\nz_phase = 1.0\nenergy = {_grid(lo, hi, n)}\n",
          command="flow", regulator="gaussian", a=LENGTH, phase=1.0, z0=FLOW_Z0, tau0=FLOW_TAU0)
    # default pi/2 ray: Re w = 0, the series and continued-fraction branches
    n = rows(600)
    lo, hi = _decades(rng, -1.0, 3.0)
    b.add(["flow", "--regulator", "gaussian", "--energy", _grid(lo, hi, n)], n,
          command="flow", regulator="gaussian", a=LENGTH, z0=FLOW_Z0, tau0=FLOW_TAU0)
    # boundary values: expi_scaled series (bE <= 40) and asymptotic branches
    n = rows(1000)
    eps = 0.5 + 1.5 * rng.random()
    lo, hi = _decades(rng, -3.0, 3.0)
    b.add(["scatter", "--regulator", "gaussian", "--epsilon", repr(eps), "--energy", _grid(lo, hi, n)], n,
          command="scatter", model="gaussian", eps=eps, a=LENGTH)
    # J/Y series (x <= 12) and Hankel expansions
    n = rows(300)
    eps = 0.5 + 1.5 * rng.random()
    lo, hi = _decades(rng, -2.0, 3.0)
    b.add(["scatter", "--regulator", "circular-well", "--epsilon", repr(eps), "--energy", _grid(lo, hi, n)], n,
          command="scatter", model="circular-well", eps=eps, a=LENGTH)
    # log-space bisection roots of the separable regulators
    n = rows(40)
    lo, hi = _couplings(rng, 0.3, 15.0)
    b.add(["bind", "--regulator", "sharp-cutoff,gaussian", "--epsilon", _grid(lo, hi, n)], 2 * n,
          command="bind", lam=1.0, a=LENGTH)
    # exact well matching; eps above 4 pi puts the top of the scan on the
    # K0/K1 Gauss panels (gamma a > 2)
    n = rows(12)
    lo, hi = _couplings(rng, 0.3, 15.0)
    b.add(["bind", "--regulator", "circular-well", "--epsilon", _grid(lo, hi, n)], n,
          command="bind", lam=1.0, a=LENGTH)
    # small-coupling probe: ln(V0/E_B) ~ 4 pi/eps exceeds the well solver's
    # 650-unit scan below eps ~ 0.019, so this exits 1 until the solver
    # covers the range; it counts as a failed invocation
    eps = 0.012 + 0.006 * rng.random()
    b.add(["bind", "--regulator", "circular-well", "--epsilon", repr(eps)], 1,
          command="bind", lam=1.0, a=LENGTH)


SMALL_ROWS = (13, 22, 31, 40, 50)


def _small_tables(b: _Cycle, rng: random.Random, scale: float) -> None:
    """Each (command, format) pair once per row count in SMALL_ROWS (bind
    tables all have 50 rows): 50 tables of the same composition for every
    seed; the seed picks their order and parameters."""
    specs = [(command, fmt, n, i) for command in ("flow", "bind", "theorem", "transmute", "scatter")
             for fmt in ("csv", "json") for i, n in enumerate(SMALL_ROWS)]
    rng.shuffle(specs)
    for command, fmt, n, i in specs:
        if command == "flow":
            reg = ("pure-delta", "sharp-cutoff")[i % 2]
            lam = 10.0 ** (2.0 + 2.0 * rng.random())
            lo, hi = _decades(rng, 0.0, 4.0)
            b.add(["flow", "--regulator", reg, "--lambda", repr(lam), "--energy", _grid(lo, hi, n)], n, fmt,
                  command="flow", regulator=reg, lam=lam, z0=FLOW_Z0, tau0=FLOW_TAU0)
        elif command == "bind":
            # root finding makes bind the slowest command here; one size for
            # all its tables keeps the 90th percentile inside their cluster
            lo, hi = _couplings(rng, 0.5, 8.0)
            b.add(["bind", "--regulator", "sharp-cutoff,gaussian", "--epsilon", _grid(lo, hi, 25)], 50, fmt,
                  command="bind", lam=1.0, a=LENGTH)
        elif command == "theorem":
            eps = 0.8 + 0.7 * rng.random()
            lo, hi = _decades(rng, 2.0, 300.0)
            b.add(["theorem", "--epsilon", repr(eps), "--lambda", _grid(lo, hi, n)], n, fmt,
                  command="theorem", eps=eps, z=THEOREM_Z)
        elif command == "transmute":
            # from 18 steps on the deviation reaches the double-precision
            # floor and the monotone-deviation check rejects the table
            steps = 13 + i
            b.add(["transmute"], steps, fmt, config=f"steps = {steps}\n",
                  command="transmute", e_b=E_B, z=TRANSMUTE_Z)
        else:
            model = ("renormalized", "sharp-cutoff", "pure-delta")[i % 3]
            lam = 10.0 ** (1.0 + 2.0 * rng.random())
            eps = 0.5 + 1.5 * rng.random()
            lo, hi = _decades(rng, -3.0, 3.0)
            b.add(["scatter", "--regulator", model, "--lambda", repr(lam), "--epsilon", repr(eps),
                   "--energy", _grid(lo, hi, n)], n, fmt,
                  command="scatter", model=model, eps=eps, lam=lam, e_b=E_B)


_MAKERS = {"dense-grid": _dense_grid, "regulated": _regulated, "small-tables": _small_tables}


def build_cycle(workload: str, seed: int, workdir: str, smoke: bool = False) -> list[Invocation]:
    """The invocation cycle of ``workload`` for ``seed``; smoke mode shrinks
    the grids to SMOKE_SCALE."""
    rng = random.Random(f"{workload}:{seed}")
    b = _Cycle(workdir)
    _MAKERS[workload](b, rng, SMOKE_SCALE if smoke else 1.0)
    return b.cycle


def read_table(path: str, fmt: str) -> list[dict]:
    """The rows of an output table as dicts by column name; CSV cells are
    floats where they parse, '#' comment lines are skipped."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "json":
        obj = json.loads(text)
        names = [c["name"] for c in obj["columns"]]
        return [dict(zip(names, row)) for row in obj["rows"]]
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(body))
    names = rows[0]
    out = []
    for cells in rows[1:]:
        row = {}
        for name, cell in zip(names, cells):
            try:
                row[name] = float(cell) if cell else None
            except ValueError:
                row[name] = cell
        out.append(row)
    return out
