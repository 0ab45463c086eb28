"""Batch command-line driver: named numerical experiments emitted as
deterministic CSV or JSON tables.

    transmute-lab flow       running of 1/tau along an energy ray
    transmute-lab bind       bound-state scale vs coupling, per regulator
    transmute-lab theorem    removal of the cutoff at fixed coupling
    transmute-lab transmute  the renormalization limiting process
    transmute-lab scatter    continuum observables on an energy grid

Configuration is a flat key=value text file ('#' comments); command-line
flags override file values.  Output is byte-deterministic across runs on one
machine and numpy build: floats render at 17 significant digits, tables are
evaluated in one thread, and no timestamps enter the data body.  flow,
scatter, theorem and transmute are evaluated as numpy columns, through the
one array form of each closed form.  Only bind runs row by row: its root
searches evaluate one point at a time, about 8 times per pole, through the
scalar code kept for them (the negative-axis resolvent, exp1_scaled and the
Bessel functions), since a 0-d array call costs 16-26 times a scalar one.
numpy's elementary functions may round differently from the C library's, so
array-evaluated tables may differ from earlier versions in the last digits,
within the 8-ulp budget of tests/test_array_forms.py.  A non-finite cell is
a numerical failure.
Exit codes: 0 success, 1 numerical failure (partial output suppressed),
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .amplitude import (
    bound_state_pole,
    cutoff_envelope_array,
    on_shell_amplitude_array,
    regulated_amplitude_array,
    renormalized_amplitude_array,
    transmutation_schedule,
)
from .energy_plane import ComplexEnergy, PhysicalScales, complex_divide_array, log_ratio_array
from .errors import DomainError, NoBoundStateError, TransmuteLabError
from .observables import continuum_observables_array, tau_from_phase_shift_array
from .regulators import (
    REGULATOR_NAMES,
    nominal_cutoff,
    regulator_from_name,
    slide_kernels_along,
)
from .tolerances import (
    FLOW_GROUP_RTOL,
    POLE_GUARD,
    ROUTE_AGREEMENT_RTOL,
    THEOREM_ENVELOPE_RTOL,
    UNITARITY_DEFECT_TOL,
)
from .oracle.well import WellParameters, well_bound_state, well_from_coupling, well_phase_shift_array

__all__ = ["main"]

FOUR_PI = 4.0 * math.pi
_LN_FLOAT_MAX = math.log(sys.float_info.max)


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------

def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: single value 'v', or 'lo:hi:n' (linear), or
    'lo:hi:n,log' (log-spaced); endpoints exact."""
    text = text.strip()
    spacing = "linear"
    if "," in text:
        text, mode = text.rsplit(",", 1)
        mode = mode.strip()
        if mode not in ("log", "lin", "linear"):
            raise UsageError(f"unknown grid spacing {mode!r}")
        spacing = "log" if mode == "log" else "linear"
    parts = text.split(":")
    try:
        if len(parts) == 1:
            value = float(parts[0])
            if not (0.0 < value < math.inf):
                raise UsageError(f"grid values must be positive and finite, got {value}")
            return [value]
        if len(parts) != 3:
            raise ValueError
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"bad grid {text!r}; expected v or lo:hi:n[,log]") from None
    if n < 1:
        raise UsageError("grid needs at least one point")
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise UsageError(f"grid bounds must be positive and finite, got {lo} and {hi}")
    if n == 1:
        return [lo]
    if spacing == "log":
        la, lb = math.log10(lo), math.log10(hi)
        # base-10 exponents keep decade schedules exact
        pts = [10.0 ** (la + (lb - la) * i / (n - 1)) for i in range(n)]
    else:
        pts = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    pts[0], pts[-1] = lo, hi
    return pts


# the tolerances some command reads, and so the only names --tol-override takes
_TOLERANCE_KEYS = ("flow_defect_tol", "unitarity_defect_tol")


def _parse_tol_overrides(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--tol-override expects name=value, got {pair!r}")
        name, value = (part.strip() for part in pair.split("=", 1))
        if name not in _TOLERANCE_KEYS:
            raise UsageError(f"unknown tolerance {name!r}; --tol-override takes {' or '.join(_TOLERANCE_KEYS)}")
        try:
            out[name] = float(value)
        except ValueError:
            raise UsageError(f"tolerance override {pair!r} is not a number") from None
    return out


class Options:
    """Effective configuration: file values overridden by flags, with typed
    accessors that raise UsageError on malformed input."""

    def __init__(self, file_values: dict[str, str], flag_values: dict[str, str]):
        self.values = dict(file_values)
        self.values.update({k: v for k, v in flag_values.items() if v is not None})

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def get_float(self, key: str, default: float | None = None) -> float:
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise UsageError(f"missing required configuration key {key!r}")
            return default
        try:
            return float(raw)
        except ValueError:
            raise UsageError(f"configuration key {key!r} expects a number, got {raw!r}") from None

    def get_int(self, key: str, default: int | None = None) -> int:
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise UsageError(f"missing required configuration key {key!r}")
            return default
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"configuration key {key!r} expects an integer, got {raw!r}") from None

    def get_grid(self, key: str, default: str | None = None) -> list[float]:
        raw = self.values.get(key, default)
        if raw is None:
            raise UsageError(f"missing required configuration key {key!r}")
        return _parse_grid(raw)

    def effective(self) -> dict[str, str]:
        # the output path is not part of the experiment: echoing it would
        # break byte-identity of otherwise identical runs
        return dict(sorted((k, v) for k, v in self.values.items() if k != "out"))


def _scales(opts: Options) -> PhysicalScales:
    try:
        return PhysicalScales(opts.get_float("kinetic_constant", 1.0))
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _ordered_map(fn, items):
    """Map in input order, in the calling thread.  No command calls it any
    more; the benchmark in bench/ still wraps and calls it."""
    return [fn(x) for x in items]


# ----------------------------------------------------------------------
# table model and deterministic rendering
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.16e}"


# cell types that a %-template renders exactly as _fmt does
_CELL_FORMATS = {float: "%.16e", int: "%d", str: "%s", type(None): "%.0s"}


def _row_template(kinds: tuple) -> str | None:
    """The %-template of a row whose cells have these types, or None when a
    type has no template (bool, numpy scalars) and _fmt renders the row."""
    if not all(kind in _CELL_FORMATS for kind in kinds):
        return None
    return ",".join(_CELL_FORMATS[kind] for kind in kinds) + "\n"


# cell types that a %-template renders exactly as json.dump does: float and
# int through their repr, None as null (the %.0s consumes the cell)
_JSON_CELL_FORMATS = {float: "%r", int: "%d", type(None): "%.0snull"}
# a row cell sits at depth 3 of the JSON document, indented by 2 per depth
_JSON_CELL_INDENT = "\n      "
# a non-finite float that %r wrote: a cell line of its own, where a string
# cell would start with a quote
_NON_FINITE_CELL = re.compile(r"^ {6}(-?inf|nan),?$", re.MULTILINE)


def _json_cell(cell) -> str:
    """A cell that no template covers, as json.dump renders it in a row."""
    if type(cell) is str:
        # a string renders alike at any indent, and json.dumps without
        # arguments skips building an encoder: a third of the cost
        return json.dumps(cell)
    return json.dumps(cell, sort_keys=True, indent=2, allow_nan=False).replace("\n", _JSON_CELL_INDENT)


def _json_row_template(kinds: tuple) -> tuple[str, tuple[int, ...]]:
    """The %-template of a JSON row whose cells have these types, and the
    positions of the cells that _json_cell renders first."""
    if not kinds:
        return "    []", ()
    cells = ("," + _JSON_CELL_INDENT).join(_JSON_CELL_FORMATS.get(kind, "%s") for kind in kinds)
    return "    [" + _JSON_CELL_INDENT + cells + "\n    ]", tuple(
        j for j, kind in enumerate(kinds) if kind not in _JSON_CELL_FORMATS)


def _json_rows(rows) -> str:
    """The rows array as json.dump(indent=2, allow_nan=False) writes it in
    a table document, through one %-template per distinct row of cell types."""
    templates: dict[tuple, tuple[str, tuple[int, ...]]] = {}
    parts = []
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in templates:
            templates[kinds] = _json_row_template(kinds)
        template, rendered = templates[kinds]
        if rendered:
            row = list(row)
            for j in rendered:
                row[j] = _json_cell(row[j])
        parts.append(template % tuple(row))
    text = ",\n".join(parts)
    # json.dump refuses non-finite floats; %r writes them as inf or nan
    if ("inf" in text or "nan" in text) and (bad := _NON_FINITE_CELL.search(text)):
        raise ValueError(f"Out of range float values are not JSON compliant: {bad.group(1)}")
    return text


@dataclass
class Table:
    command: str
    description: str
    config: dict[str, str]
    columns: list[tuple[str, str]]
    rows: list[list | tuple] = field(default_factory=list)
    footer: dict[str, object] = field(default_factory=dict)

    def write_csv(self, stream) -> None:
        w = stream.write
        w(f"# transmute-lab {self.command}\n")
        w(f"# {self.description}\n")
        for key, value in self.config.items():
            w(f"# config: {key}={value}\n")
        w("# columns:\n")
        for name, desc in self.columns:
            w(f"#   {name}: {desc}\n")
        w(",".join(name for name, _ in self.columns) + "\n")
        # one template per distinct row of cell types: a table has one or a
        # few (None cells and status strings vary by row)
        templates: dict[tuple, str | None] = {}
        for row in self.rows:
            kinds = tuple(map(type, row))
            if kinds not in templates:
                templates[kinds] = _row_template(kinds)
            template = templates[kinds]
            w(template % tuple(row) if template else ",".join(_fmt(cell) for cell in row) + "\n")
        for key, value in sorted(self.footer.items()):
            w(f"# {key}={_fmt(value)}\n")

    def write_json(self, stream) -> None:
        """The table as json.dump(obj, sort_keys=True, indent=2,
        allow_nan=False) writes it; the rows go through _json_rows, since
        with indent json.dump always runs its pure-Python encoder."""
        obj = {
            "command": self.command,
            "description": self.description,
            "config": self.config,
            "columns": [{"name": n, "description": d} for n, d in self.columns],
            "rows": [],
            "footer": {k: v for k, v in self.footer.items()},
        }
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
        if self.rows:
            # "rows" sorts last: the document ends with its empty list, "[]\n}"
            text = text[:-4] + "[\n" + _json_rows(self.rows) + "\n  ]\n}"
        stream.write(text)
        stream.write("\n")


def _rows(columns: list[tuple[str, str]], cells: list, blank: dict[int, np.ndarray] | None = None) -> list[tuple]:
    """Table rows from per-column cells: float arrays, or lists of strings.
    ``blank`` maps a column index to a mask of cells left empty (None).
    Every other float cell must be finite; the first column that holds a
    non-finite one makes the table a numerical failure naming its row."""
    blank = blank or {}
    out = []
    for j, ((name, _), col) in enumerate(zip(columns, cells)):
        if isinstance(col, np.ndarray):
            empty = blank.get(j)
            bad = ~np.isfinite(col) if empty is None else ~(np.isfinite(col) | empty)
            if bad.any():
                i = int(np.argmax(bad))
                raise TransmuteLabError(f"non-finite {name} = {float(col[i])!r} in row {i + 1}")
            col = col.tolist()
            if empty is not None:
                for i in np.flatnonzero(empty).tolist():
                    col[i] = None
        out.append(col)
    return list(zip(*out))


def _emit(table: Table, opts: Options) -> None:
    """Render the whole table before opening --out, so that a render that
    raises leaves no partial file."""
    fmt = opts.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown output format {fmt!r}")
    buf = io.StringIO()
    if fmt == "csv":
        table.write_csv(buf)
    else:
        table.write_json(buf)
    out = opts.get("out")
    if out is None:
        sys.stdout.write(buf.getvalue())
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise UsageError(f"cannot write output file {out}: {exc}") from None


def _fit_line(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares slope and intercept."""
    n = len(xs)
    if n < 2:
        raise TransmuteLabError("fit needs at least two points")
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0.0:
        raise TransmuteLabError("fit abscissae are degenerate")
    slope = sxy / sxx
    return slope, my - slope * mx


def _positive(opts: Options, key: str, squared: bool = False) -> float:
    """A scalar key that must be positive and finite; a length is squared by
    the model, so its square must not underflow or overflow either."""
    value = opts.get_float(key, 1.0)
    if not 0.0 < value < math.inf:
        raise UsageError(f"{key} must be positive and finite, got {value!r}")
    if squared and not sys.float_info.min <= value * value < math.inf:
        raise UsageError(f"{key} = {value!r} is out of range: its square underflows or overflows")
    return value


def _model(name: str, opts: Options, scales: PhysicalScales, epsilon: float | None = None):
    """The model that a regulator name and its scale keys select: a separable
    regulator, or for circular-well the oracle's well of radius a at
    coupling epsilon.  Without a coupling (flow) only the separable
    regulators are accepted."""
    lam, length = _positive(opts, "lambda"), _positive(opts, "a", squared=True)
    if name == "circular-well" and epsilon is not None:
        return well_from_coupling(epsilon, length, scales)
    if name not in REGULATOR_NAMES:
        names = REGULATOR_NAMES if epsilon is None else REGULATOR_NAMES + ("circular-well",)
        raise UsageError(f"regulator must be one of {', '.join(names)}; got {name!r}")
    return regulator_from_name(name, cutoff=lam, length=length)


def _finite(opts: Options, key: str, default: float) -> float:
    value = opts.get_float(key, default)
    if not math.isfinite(value):
        raise UsageError(f"{key} must be finite, got {value!r}")
    return value


def _config_energy(opts: Options, key: str, re: float, im: float) -> ComplexEnergy:
    """The energy point of the keys key_re and key_im."""
    try:
        return ComplexEnergy(_finite(opts, f"{key}_re", re), _finite(opts, f"{key}_im", im))
    except DomainError as exc:
        raise UsageError(f"invalid {key}: {exc}") from None


def _ray(magnitudes: list[float], phase: float) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of the points at these magnitudes on the ray of this phase;
    the axis phases are exact."""
    m = np.array(magnitudes)
    if phase == 0.0:
        return m, np.zeros_like(m)
    if phase == 0.5 * math.pi:
        return np.zeros_like(m), m
    if phase == math.pi:
        return -m, np.zeros_like(m)
    if not (0.0 < phase < math.pi):
        raise UsageError(f"ray phase must lie in [0, pi], got {phase}")
    return m * math.cos(phase), m * math.sin(phase)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_flow(opts: Options) -> Table:
    """Transport the amplitude from an anchor (z0, tau0) along an energy ray
    and tabulate 1/tau, whose real part runs linearly in ln|z| with slope
    -1/(4 pi) for the exact kernel."""
    scales = _scales(opts)
    z0 = _config_energy(opts, "z0", 0.0, 1.0)
    if z0.is_zero:
        raise UsageError("flow anchor z0 must be nonzero")
    tau0 = complex(_finite(opts, "tau0_re", FOUR_PI), _finite(opts, "tau0_im", 0.0))
    reg = _model(opts.get("regulator", "pure-delta"), opts, scales)
    phase = opts.get_float("z_phase", 0.5 * math.pi)
    re, im = _ray(opts.get_grid("energy", "1:2980.9579870417283:9,log"), phase)
    kappa = scales.kinetic_constant
    if tau0 == 0:
        # zero is a fixed point of the flow: tau stays 0 and 1/tau is blank
        tau = inv = np.zeros(re.shape, dtype=complex)
        blank_inv, at_pole = np.ones(re.shape, dtype=bool), None
    else:
        # tabulate 1/tau directly: it runs through amplitude poles smoothly
        # (a pole is just a zero of 1/tau); tau cells stay empty there
        from_anchor, steps = slide_kernels_along(reg, re, im, z0, scales)
        inv = 1.0 / tau0 - kappa * from_anchor
        blank_inv = None
        at_pole = np.hypot(inv.real, inv.imag) < POLE_GUARD
        tau = complex_divide_array(1.0, inv)
    columns = [
        ("z_re", "Re z of the evaluation point"),
        ("z_im", "Im z of the evaluation point"),
        ("re_inv_tau", "Re[1/tau(z)]; exact kernel: 1/tau(z) = 1/tau(z0) - ln(z/z0)/(4 pi)"),
        ("im_inv_tau", "Im[1/tau(z)] under the same running relation"),
        ("re_tau", "Re tau(z) = Re[ tau0 / (1 - tau0 * kappa * (g(z)-g(z0))) ]"),
        ("im_tau", "Im tau(z)"),
    ]
    rows = _rows(columns, [re, im, inv.real, inv.imag, tau.real, tau.imag],
                 {2: blank_inv, 3: blank_inv, 4: at_pole, 5: at_pole})
    # group property row-to-row: re-anchoring 1/tau at row i must reproduce
    # row i+1 through the kernel between consecutive points
    max_defect = 0.0
    if tau0 != 0 and steps.size:
        defect = inv[1:] - (inv[:-1] - kappa * steps)
        max_defect = float(np.max(np.hypot(defect.real, defect.imag)))
    defect_tol = opts.get_float("flow_defect_tol", FLOW_GROUP_RTOL)
    if not max_defect <= defect_tol:
        raise TransmuteLabError(
            f"flow composition defect {max_defect:.3e} exceeds {defect_tol:.1e}"
        )
    return Table(
        command="flow",
        description="sliding-scale running of the amplitude from a fixed anchor",
        config=opts.effective(),
        columns=columns,
        rows=rows,
        footer={"max_flow_defect": max_defect, "rows": len(rows)},
    )


def cmd_bind(opts: Options) -> Table:
    """Bound-state scale per (coupling, regulator): solver vs the closed form
    Lambda * exp(-4 pi / eps), with the regulator's nominal cutoff standing
    in for Lambda when the regulator is smeared."""
    scales = _scales(opts)
    eps_grid = opts.get_grid("epsilon", "1:4:3,log")
    names = [n.strip() for n in (opts.get("regulator") or "sharp-cutoff,gaussian,circular-well,pure-delta").split(",")]
    rows = []
    fits: dict[str, tuple[float, float]] = {}
    for name in names:
        xs, ys = [], []
        for eps in eps_grid:
            try:
                model = _model(name, opts, scales, eps)
                if isinstance(model, WellParameters):
                    # the well's nominal cutoff is that of a gaussian of the same length
                    solver, nominal = well_bound_state(model, scales), scales.kinetic_constant / model.radius**2
                else:
                    solver, nominal = bound_state_pole(eps, model, scales).energy, nominal_cutoff(model, scales)
            except NoBoundStateError:
                rows.append([eps, name, None, None, None, "NO_BOUND_STATE"])
                continue
            closed = nominal * math.exp(-FOUR_PI / eps)
            rel = (solver - closed) / closed
            rows.append([eps, name, solver, closed, rel, "OK"])
            xs.append(-FOUR_PI / eps)
            ys.append(math.log(solver))
        if len(xs) >= 2:
            slope, intercept = _fit_line(xs, ys)
            fits[name] = (slope, math.exp(intercept))

    footer: dict[str, object] = {"rows": len(rows)}
    for name, (slope, lam_eff) in fits.items():
        tag = name.replace("-", "_")
        footer[f"fit_slope_{tag}"] = slope
        footer[f"lambda_eff_{tag}"] = lam_eff
    if "sharp-cutoff" in fits:
        base = fits["sharp-cutoff"][1]
        for name, (_, lam_eff) in fits.items():
            if name != "sharp-cutoff":
                footer[f"prefactor_vs_sharp_cutoff_{name.replace('-', '_')}"] = lam_eff / base
    return Table(
        command="bind",
        description="bound-state energy: ln E_B runs linearly in -4 pi/eps with a regulator-dependent prefactor",
        config=opts.effective(),
        columns=[
            ("epsilon", "dimensionless attractive coupling"),
            ("regulator", "regulator name"),
            ("E_B_solver", "root of 1 + eps*I(-E) = 0 (or exact well matching)"),
            ("E_B_closed_form", "Lambda_nominal * exp(-4 pi / eps)"),
            ("rel_dev", "(E_B_solver - E_B_closed_form)/E_B_closed_form"),
            ("status", "OK or NO_BOUND_STATE"),
        ],
        rows=rows,
        footer=footer,
    )


def cmd_theorem(opts: Options) -> Table:
    """Remove the cutoff at fixed coupling: |tau_Lambda(z)| rises to a peak
    where the generated bound state sweeps past |z|, then falls to zero like
    4 pi / ln(Lambda/|z|).  Monotone decrease is asserted beyond the peak,
    which the footer reports as peak_lambda, or as ln_peak_lambda where
    |z| e^{4 pi/eps} overflows."""
    scales = _scales(opts)
    eps_grid = opts.get_grid("epsilon", "1")
    if len(eps_grid) != 1:
        raise UsageError("theorem takes a single epsilon")
    eps = eps_grid[0]
    z = _config_energy(opts, "z", 0.0, 1.0)
    schedule = np.array(opts.get_grid("lambda", "1e2:1e12:6,log"))
    magnitude = z.magnitude()
    below = schedule <= magnitude
    if below.any():
        raise UsageError(f"cutoff {float(schedule[below][0])} must exceed |z| = {magnitude}")

    tau = regulated_amplitude_array(eps, schedule, z.re, z.im, scales)
    abs_tau = np.hypot(tau.real, tau.imag)
    naive = FOUR_PI / log_ratio_array(schedule, magnitude)
    envelope = cutoff_envelope_array(eps, magnitude, schedule)
    vacuous = np.isnan(envelope)
    columns = [
        ("Lambda", "sharp kinetic-energy cutoff"),
        ("abs_tau", "|tau_Lambda(z)| = |eps / (1 + eps*I(z, Lambda))|"),
        ("bound_4pi_over_lnLambda", "asymptote 4 pi / ln(Lambda/|z|)"),
        ("envelope_bound", "rigorous bound 4 pi / (ln((Lambda-|z|)/|z|) - 4 pi/eps) beyond the peak"),
    ]
    rows = _rows(columns, [schedule, abs_tau, naive, envelope], {3: vacuous})
    # the peak |z| e^{4 pi/eps} overflows for eps below about 0.0177 at
    # |z| = 1: decide in ln Lambda, and report ln Lambda where it overflows
    ln_peak = math.log(magnitude) + FOUR_PI / eps
    beyond = np.log(schedule) > ln_peak
    tail = abs_tau[beyond]
    monotone = bool(np.all(tail[1:] < tail[:-1]))
    envelope_ok = bool(np.all(vacuous | (abs_tau <= envelope * (1.0 + THEOREM_ENVELOPE_RTOL))))
    footer: dict[str, object] = {
        "monotone_beyond_peak": monotone,
        "envelope_respected": envelope_ok,
        "rows": len(rows),
    }
    peak = magnitude * math.exp(FOUR_PI / eps) if FOUR_PI / eps < _LN_FLOAT_MAX else math.inf
    if math.isfinite(peak):
        footer["peak_lambda"] = peak
    else:
        footer["ln_peak_lambda"] = ln_peak
    if tail.size >= 2:
        slope, _ = _fit_line(np.log(schedule[beyond]).tolist(), (1.0 / tail).tolist())
        footer["fit_slope_beyond_peak"] = slope
        footer["fit_slope_target"] = 1.0 / FOUR_PI
    if not monotone:
        raise TransmuteLabError("|tau_Lambda| failed to decrease monotonically beyond the peak")
    if not envelope_ok:
        raise TransmuteLabError("|tau_Lambda| violated its rigorous envelope")
    return Table(
        command="theorem",
        description="cutoff removal at fixed coupling: the amplitude of the unregulated model is zero",
        config=opts.effective(),
        columns=columns,
        rows=rows,
        footer=footer,
    )


def cmd_transmute(opts: Options) -> Table:
    """Fix the target bound-state energy, send the cutoff to infinity and
    the coupling to zero along Lambda_n = E_B 10^n, eps_n = 4 pi/ln(Lambda_n/E_B);
    the regulated amplitude converges to 4 pi / ln(-E_B/z) one decade per step."""
    scales = _scales(opts)
    e_b = _positive(opts, "e_b")
    z = _config_energy(opts, "z", 2.0, 0.0)
    steps = opts.get_int("steps", 10)
    if steps < 2:
        raise UsageError("transmute needs steps >= 2")
    try:
        top_finite = math.isfinite(e_b * 10.0**steps)
    except OverflowError:
        top_finite = False
    if not top_finite:
        raise UsageError(f"steps = {steps} is too large: the last cutoff e_b * 10**steps overflows")
    schedule = transmutation_schedule(e_b, z, steps, scales)
    target = schedule[0].closed_form
    rows = [
        [s.index, s.cutoff, s.coupling, s.amplitude.tau.real, s.amplitude.tau.imag, s.deviation]
        for s in schedule
    ]
    deviations = [s.deviation for s in schedule]
    monotone = all(b < a for a, b in zip(deviations, deviations[1:]))
    footer = {
        "closed_form_re": target.real,
        "closed_form_im": target.imag,
        "monotone_deviation": monotone,
        "rows": len(rows),
    }
    if not monotone:
        raise TransmuteLabError("transmutation deviations failed to decrease monotonically")
    return Table(
        command="transmute",
        description="renormalization limiting process at fixed bound-state energy",
        config=opts.effective(),
        columns=[
            ("n", "step index; Lambda_n = e_b * 10^n"),
            ("Lambda_n", "sharp cutoff at this step"),
            ("epsilon_n", "coupling 4 pi / ln(Lambda_n/e_b)"),
            ("re_tau", "Re tau_{eps_n, Lambda_n}(z)"),
            ("im_tau", "Im tau_{eps_n, Lambda_n}(z)"),
            ("deviation_from_closed_form", "|tau_n(z) - 4 pi / ln(-e_b/z)|"),
        ],
        rows=rows,
        footer=footer,
    )


def cmd_scatter(opts: Options) -> Table:
    """Continuum observables for a chosen model on an energy grid, with the
    two target-length routes cross-checked row by row."""
    scales = _scales(opts)
    name = opts.get("model") or opts.get("regulator") or "renormalized"
    energies = opts.get_grid("energy", "1e-3:1e3:13,log")
    unitarity_tol = opts.get_float("unitarity_defect_tol", UNITARITY_DEFECT_TOL)
    if name == "renormalized":
        tau = renormalized_amplitude_array(_positive(opts, "e_b"), energies)
    else:
        eps = _positive(opts, "epsilon")
        model = _model(name, opts, scales, eps)
        if isinstance(model, WellParameters):
            k = np.sqrt(np.asarray(energies) / scales.kinetic_constant)
            tau = tau_from_phase_shift_array(well_phase_shift_array(model, k, scales))
        else:
            tau = on_shell_amplitude_array(eps, model, energies, scales)
    obs = continuum_observables_array(tau, energies, scales, unitarity_tol)
    violation = obs["violation"]
    columns = [
        ("E", "continuum energy (E + i0+)"),
        ("k", "wavenumber sqrt(E/kinetic_constant)"),
        ("re_f", "Re f(E), f = -sqrt(1/(8 pi k)) tau"),
        ("im_f", "Im f(E)"),
        ("dL_dtheta", "differential target length |f|^2"),
        ("L_optical", "total target length sqrt(8 pi/k) Im f (optical theorem)"),
        ("L_from_im_tau", "total target length -(1/k) Im tau"),
        ("delta0", "phase shift in (-pi/2, pi/2] with tau = -4 e^{i delta0} sin delta0"),
        ("unitarity_defect", "2 pi |f|^2 - sqrt(8 pi/k) Im f; zero for elastic unitary rows"),
        ("status", "OK or UNITARITY_VIOLATION"),
    ]
    statuses = np.where(violation, "UNITARITY_VIOLATION", "OK").tolist()
    rows = _rows(columns, [np.array(energies), obs["k"], obs["f"].real, obs["f"].imag, obs["dL_dtheta"],
                           obs["L_optical"], obs["L_from_im_tau"], obs["phase_shift"], obs["optical_defect"],
                           statuses], {7: violation})
    # the two target-length routes must agree row by row
    l_optical, l_from_tau = obs["L_optical"], obs["L_from_im_tau"]
    disagree = np.abs(l_optical - l_from_tau) > ROUTE_AGREEMENT_RTOL * np.maximum(np.abs(l_from_tau), 1e-300)
    if disagree.any():
        i = int(np.argmax(disagree))
        raise TransmuteLabError(
            f"target-length routes disagree at E = {energies[i]!r}: {float(l_optical[i])!r} vs {float(l_from_tau[i])!r}"
        )
    return Table(
        command="scatter",
        description=f"continuum observables for the {name} model",
        config=opts.effective(),
        columns=columns,
        rows=rows,
        footer={"rows": len(rows), "unitarity_violations": int(violation.sum()),
                "unitarity_defect_tol": unitarity_tol},
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

_COMMANDS = {
    "flow": cmd_flow,
    "bind": cmd_bind,
    "theorem": cmd_theorem,
    "transmute": cmd_transmute,
    "scatter": cmd_scatter,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as a UsageError,
    one line and exit 2, in place of argparse's usage block."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first main call of a process and
    shared by the later ones: parse_args leaves it unchanged, and the append
    action copies its default list before appending."""
    parser = _Parser(prog="transmute-lab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").split("\n")[0])
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--regulator", help="regulator name (bind: comma-separated list)")
        p.add_argument("--epsilon", help="coupling value or grid v1:v2:n[,log]")
        p.add_argument("--lambda", dest="lam", help="cutoff value or schedule lo:hi:n[,log]")
        p.add_argument("--energy", help="energy grid lo:hi:n[,log]")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        p.add_argument("--tol-override", action="append", default=[],
                       metavar="NAME=VALUE", help="override a named tolerance")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        file_values = _read_config_file(args.config) if args.config else {}
        flag_values = {
            "regulator": args.regulator,
            "epsilon": args.epsilon,
            "lambda": args.lam,
            "energy": args.energy,
            "out": args.out,
            "format": args.format,
        }
        opts = Options(file_values, flag_values)
        for name, value in _parse_tol_overrides(args.tol_override).items():
            opts.values[name] = repr(value)
        # a non-finite column value is reported by the cell check in _rows,
        # not by a numpy warning on stderr
        with np.errstate(all="ignore"):
            table = _COMMANDS[args.command](opts)
        _emit(table, opts)
    except UsageError as exc:
        print(f"transmute-lab: usage error: {exc}", file=sys.stderr)
        return 2
    except TransmuteLabError as exc:
        print(f"transmute-lab: numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
