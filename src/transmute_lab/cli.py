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
evaluated in one thread, and no timestamps enter the data body.  Every
command is evaluated as numpy columns by the library: theorem and transmute
take each schedule, checked, from one amplitude call, whose DomainError is a
usage error, and scatter and bind their model dispatch from
on_shell_amplitude_array and bound_states; only flow forms its running
relation, pole mask and group defect itself.  numpy's elementary functions
may round apart from the C library's, within the 8-ulp budget of
tests/test_array_forms.py.  Numeric keys are read in a range by
Options.get_number, regulator names map to models in _MODELS, and grids
parse into float64 arrays.  Every command declares each column of its table
once, in numpy arrays that reach the renderer with no per-row Python: float
cells with an optional blank mask, or (labels, codes), codes indexing a
tuple of str or int labels.  A non-finite float cell that is not blank, a
row that fails a command's check (_row_failure names it) and a non-finite
footer value are numerical failures.
Exit codes: 0 success, 1 numerical failure (partial output suppressed),
2 usage or configuration error.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .amplitude import (
    amplitudes_over_cutoffs_array,
    bound_states,
    cutoff_envelope_array,
    on_shell_amplitude_array,
    renormalized_amplitude_array,
    transmutation_schedule_array,
)
from .energy_plane import ComplexEnergy, PhysicalScales, complex_divide_array, libm, log_ratio_array
from .errors import DomainError, SingularInputError, TransmuteLabError
from .observables import continuum_observables_array
from .regulators import GaussianFormFactor, PureDelta, SharpCutoff, slide_kernels_along
from .tolerances import (
    FLOW_GROUP_RTOL,
    POLE_GUARD,
    ROUTE_AGREEMENT_RTOL,
    THEOREM_ENVELOPE_RTOL,
    UNITARITY_DEFECT_TOL,
)
from .render import csv_lines, fmt_cell as _fmt, json_cell, json_lines, row_count

__all__ = ["main"]

FOUR_PI = 4.0 * math.pi
_LN_FLOAT_MAX = math.log(sys.float_info.max)
# the smallest theorem coupling: 4 pi/eps overflows below it
_THEOREM_EPS_MIN = FOUR_PI / sys.float_info.max


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


def _parse_grid(text: str) -> np.ndarray:
    """Grid syntax: single value 'v', or 'lo:hi:n' (linear), or
    'lo:hi:n,log' (log-spaced), as a float64 array; endpoints exact."""
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
            return np.array([value])
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
        return np.array([lo])
    try:
        pts, i = np.empty(n), np.arange(1, n - 1)
    except (MemoryError, ValueError, OverflowError):
        raise UsageError(f"grid {text!r} has too many points to hold in memory") from None
    # the ends are lo and hi themselves: 10^log10(hi) may overflow.  Inner
    # points take the IEEE operations of lo + (hi - lo) * i / (n - 1), or of
    # base-10 exponents (exact decades) and libm pow, not np.power; where a
    # pow overflows, the points at log10(hi) or above are hi, whose exact
    # values lie in [lo, hi]
    if spacing == "log":
        la, lb = math.log10(lo), math.log10(hi)
        exponents = (la + (lb - la) * i / (n - 1)).tolist()
        try:
            inner = np.fromiter(map(math.pow, itertools.repeat(10.0), exponents), np.float64, n - 2)
        except OverflowError:
            inner = np.array([math.pow(10.0, e) if e < lb else hi for e in exponents])
    else:
        inner = lo + (hi - lo) * i / (n - 1)
    pts[0], pts[1:-1], pts[-1] = lo, inner, hi
    if not np.isfinite(pts).all():
        raise UsageError(f"linear grid {text!r} overflows: (hi - lo) * i exceeds the largest double; use a log grid")
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


# the ranges of numeric keys, as (test, name) pairs for Options.get_number
FINITE = (math.isfinite, "finite")
POSITIVE = (lambda v: 0.0 < v < math.inf, "positive and finite")
NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "non-negative and finite")
PHASE = (lambda v: 0.0 <= v <= math.pi, "in [0, pi]")


class Options:
    """Effective configuration: file values overridden by flags, with typed
    accessors that raise UsageError on malformed input."""

    def __init__(self, file_values: dict[str, str], flag_values: dict[str, str]):
        self.values = {**file_values, **flag_values}
        self.flags = flag_values

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def get_number(self, key: str, default, within=None, parse=float, kind: str = "a number"):
        """The value of a key by parse (float, or int), or default if unset.
        within is the range of the value, a (test, name) pair such as
        POSITIVE, or None where a library constructor checks it."""
        raw = self.values.get(key)
        try:
            value = default if raw is None else parse(raw)
        except ValueError:
            raise UsageError(f"configuration key {key!r} expects {kind}, got {raw!r}") from None
        if within is not None and not within[0](value):
            raise UsageError(f"{key} must be {within[1]}, got {value!r}")
        return value

    def get_grid(self, key: str, default: str) -> np.ndarray:
        return _parse_grid(self.values.get(key, default))

    def effective(self) -> dict[str, str]:
        # the output path is not part of the experiment: echoing it would
        # break byte-identity of otherwise identical runs
        return dict(sorted((k, v) for k, v in self.values.items() if k != "out"))


def _checked(fn, *args):
    """fn(*args), whose DomainErrors come from its input checks: a usage error."""
    try:
        return fn(*args)
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _scales(opts: Options) -> PhysicalScales:
    return _checked(PhysicalScales, opts.get_number("kinetic_constant", 1.0))


def _ordered_map(fn, items):
    """Map in input order, in the calling thread.  No command calls it any
    more; the benchmark in bench/ still wraps and calls it."""
    return [fn(x) for x in items]


# ----------------------------------------------------------------------
# table model and deterministic rendering
# ----------------------------------------------------------------------

def _json_members(items: list[str], brackets: str) -> str:
    """Members, each already written, as a list or object (brackets "[]" or
    "{}") at depth 1 of a document that json.dumps(indent=2) writes."""
    return f"{brackets[0]}\n    " + ",\n    ".join(items) + f"\n  {brackets[1]}" if items else brackets


@dataclass
class Table:
    """A table as the commands make it and the writers render it: each
    column is (name, description, cells) or (name, description, cells,
    blank), its cells a float64 array, with blank the mask of its empty
    (None) cells or None, or (labels, codes), an int or bool array codes
    indexing a tuple of distinct str or int labels."""

    command: str
    description: str
    config: dict[str, str]
    columns: list[tuple]
    footer: dict[str, object] = field(default_factory=dict)

    def write_csv(self, stream) -> None:
        """The table as CSV, in UTF-8 bytes, to a binary stream: the
        comment header, the rows from csv_lines, and the footer."""
        head = [f"# transmute-lab {self.command}\n", f"# {self.description}\n"]
        head += [f"# config: {key}={value}\n" for key, value in self.config.items()]
        head.append("# columns:\n")
        head += [f"#   {name}: {desc}\n" for name, desc, *_ in self.columns]
        head.append(",".join(name for name, *_ in self.columns) + "\n")
        stream.write("".join(head).encode())
        for chunk in csv_lines(self.columns):
            stream.write(chunk)
        stream.write("".join(f"# {key}={_fmt(value)}\n" for key, value in sorted(self.footer.items())).encode())

    def write_json(self, stream) -> None:
        """The table as json.dump(obj, sort_keys=True, indent=2,
        allow_nan=False) writes it, in bytes, to a binary stream: the
        document shell written here, since with indent json.dump always runs
        its pure-Python encoder, with its keys in sorted order, and the rows
        from json_lines."""
        columns = [f'{{\n      "description": {_json_str(d)},\n      "name": {_json_str(n)}\n    }}'
                   for n, d, *_ in self.columns]
        config, footer = ([f"{_json_str(k)}: {json_cell(v)}" for k, v in sorted(m.items())]
                          for m in (self.config, self.footer))
        text = (f'{{\n  "columns": {_json_members(columns, "[]")},\n  "command": {_json_str(self.command)},\n'
                f'  "config": {_json_members(config, "{}")},\n  "description": {_json_str(self.description)},\n'
                f'  "footer": {_json_members(footer, "{}")},\n  "rows": []\n}}')
        chunks = json_lines(self.columns)
        last = next(chunks, None)
        if last is None:
            stream.write(text.encode() + b"\n")
            return
        # "rows" sorts last: the document ends with its empty list, "[]\n}";
        # each row ends in ",\n", which the last row drops
        stream.write(text[:-4].encode() + b"[\n")
        for chunk in chunks:
            stream.write(last)
            last = chunk
        stream.write(last[:-2])
        stream.write(b"\n  ]\n}\n")


def _row_failure(checks) -> TransmuteLabError | None:
    """The numerical failure of the first check, in order, that marks a row,
    or None.  A check is a (message, mask) pair: the failure reads
    message(i), which names row i (from 0), for the first row i of mask."""
    for message, mask in checks:
        if mask.any():
            return TransmuteLabError(message(int(np.argmax(mask))))


def _table(command: str, description: str, opts: Options, columns: list[tuple], checks=()) -> Table:
    """The table of a command, with the effective configuration and the
    row count in its footer, to which the command adds its own entries.
    Every float cell that is not blank must be finite, and then no row may
    fail the command's checks: the first failure is a numerical failure.
    One isfinite pass over the float columns, with their blank masks OR-ed
    in, tests every cell at once; the per-column checks that name a failing
    cell are built only where that pass fails."""
    floats = [(name, cells, blank[0] if blank else None)
              for name, _, cells, *blank in columns if isinstance(cells, np.ndarray)]
    rows = row_count(columns)
    finite = np.isfinite(np.concatenate([cells for _, cells, _ in floats] or [np.empty(0)])).reshape(len(floats), rows)
    for ok, (_, _, blank) in zip(finite, floats):
        if blank is not None:
            ok |= blank
    if not finite.all():
        checks = [(lambda i, name=name, cells=cells: f"non-finite {name} = {float(cells[i])!r} in row {i + 1}", ~ok)
                  for ok, (name, cells, _) in zip(finite, floats)] + list(checks)
    if failure := _row_failure(checks):
        raise failure
    return Table(command, description, opts.effective(), columns, {"rows": rows})


class _Chunks(list):
    """A binary stream that keeps the chunks written to it."""

    write = list.append


def _emit(table: Table, opts: Options) -> None:
    """Render the whole table, as bytes, before opening --out, so that a
    render that raises leaves no partial file; then write the bytes to the
    file, or to stdout."""
    fmt = opts.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown output format {fmt!r}")
    for key, value in table.footer.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise TransmuteLabError(f"non-finite footer {key} = {value!r}")
    chunks = _Chunks()
    if fmt == "csv":
        table.write_csv(chunks)
    else:
        table.write_json(chunks)
    out = opts.get("out")
    if out is None:
        try:
            _write_stdout(chunks)
        except OSError as exc:
            raise UsageError(f"cannot write output: {exc}") from None
        return
    try:
        with open(out, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write output file {out}: {exc}") from None


def _write_stdout(chunks: list[bytes]) -> None:
    """Write the chunks to sys.stdout's binary layer, after flushing its
    text layer; a stream without one (io.StringIO) takes them as text.  The
    real stdout's buffer is flushed and passed by, so that a failed write
    leaves nothing in it for the flush at exit to fail on again."""
    stdout = sys.stdout
    binary = getattr(stdout, "buffer", None)
    if binary is None:
        stdout.write(b"".join(chunks).decode("utf-8", "surrogatepass"))
        return
    stdout.flush()
    binary.flush()
    stream = getattr(binary, "raw", binary)
    for chunk in chunks:
        view = memoryview(chunk)
        while view:
            written = stream.write(view)
            if written is None:
                raise BlockingIOError("stdout would block")
            view = view[written:]
    binary.flush()


def _sum(values: np.ndarray) -> float:
    """A sum added left to right from 0.0, as Python's sum adds floats
    before 3.12; the + 0.0 gives all -0.0 the sign of 0.0 + -0.0."""
    return float(np.add.accumulate(values)[-1]) + 0.0


def _fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept, by sums added left to right, each
    square by libm pow as float ** 2 takes it: np.square may round apart."""
    n = len(xs)
    if n < 2:
        raise TransmuteLabError("fit needs at least two points")
    mx, my = _sum(xs) / n, _sum(ys) / n
    dx = xs - mx
    sxx = _sum(np.fromiter(map(math.pow, dx.tolist(), itertools.repeat(2.0)), np.float64, n))
    sxy = _sum(dx * (ys - my))
    if sxx == 0.0:
        raise TransmuteLabError("fit abscissae are degenerate")
    slope = sxy / sxx
    return slope, my - slope * mx


# the model of each name, from the scale keys (lambda, a): a separable
# regulator, or the radius a of the oracle's circular well
_MODELS = {
    "pure-delta": lambda lam, a: PureDelta(),
    "sharp-cutoff": lambda lam, a: SharpCutoff(lam),
    "gaussian": lambda lam, a: GaussianFormFactor(a),
    "circular-well": lambda lam, a: a,
}


def _model(name: str, opts: Options, scales: PhysicalScales, names=tuple(_MODELS)):
    """The model of a name among the names a command admits (flow: the
    separable regulators), built from lambda and a.  The model squares a,
    so its square must not underflow or overflow either."""
    lam, length = opts.get_number("lambda", 1.0, POSITIVE), opts.get_number("a", 1.0, POSITIVE)
    if not sys.float_info.min <= length * length < math.inf:
        raise UsageError(f"a = {length!r} is out of range: its square underflows or overflows")
    if name in ("gaussian", "circular-well"):
        # the model divides kinetic_constant by a^2 and a^2 by kinetic_constant
        kappa, a2 = scales.kinetic_constant, length * length
        if not (0.0 < kappa / a2 < math.inf and 0.0 < a2 / kappa < math.inf):
            raise UsageError(f"kinetic_constant = {kappa!r} and a = {length!r} are out of range: "
                             "kinetic_constant/a^2 or a^2/kinetic_constant underflows or overflows")
    if name not in names:
        raise UsageError(f"regulator must be one of {', '.join(names)}; got {name!r}")
    return _MODELS[name](lam, length)


def _config_energy(opts: Options, key: str, re: float, im: float) -> ComplexEnergy:
    """The energy point of the keys key_re and key_im."""
    try:
        return ComplexEnergy(opts.get_number(f"{key}_re", re, FINITE), opts.get_number(f"{key}_im", im, FINITE))
    except DomainError as exc:
        raise UsageError(f"invalid {key}: {exc}") from None


def _ray(m: np.ndarray, phase: float) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of the points at magnitudes m on the ray of a phase in
    [0, pi]; the axis phases are exact."""
    if phase == 0.0:
        return m, np.zeros_like(m)
    if phase == 0.5 * math.pi:
        return np.zeros_like(m), m
    if phase == math.pi:
        return -m, np.zeros_like(m)
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
    tau0 = complex(opts.get_number("tau0_re", FOUR_PI, FINITE), opts.get_number("tau0_im", 0.0, FINITE))
    reg = _model(opts.get("regulator", "pure-delta"), opts, scales, ("pure-delta", "sharp-cutoff", "gaussian"))
    phase = opts.get_number("z_phase", 0.5 * math.pi, PHASE)
    re, im = _ray(opts.get_grid("energy", "1:2980.9579870417283:9,log"), phase)
    kappa = scales.kinetic_constant
    if tau0 == 0:
        # zero is a fixed point of the flow: tau stays 0 and 1/tau is blank
        tau = inv = np.zeros(re.shape, dtype=complex)
        blank_inv, at_pole = np.ones(re.shape, dtype=bool), None
    else:
        # tabulate 1/tau directly: it runs through amplitude poles smoothly
        # (a pole is just a zero of 1/tau); tau cells stay empty there
        try:
            from_anchor, steps = slide_kernels_along(reg, re, im, z0, scales)
        except SingularInputError as exc:
            if exc.index is None:
                raise UsageError(f"invalid z0: {exc}") from None
            raise _row_failure([(lambda i: f"{exc}: z_re = {float(re[i])!r}, z_im = {float(im[i])!r} in row {i + 1}",
                                 np.arange(re.size) == exc.index)]) from None
        inv = 1.0 / tau0 - kappa * from_anchor
        blank_inv = None
        at_pole = np.hypot(inv.real, inv.imag) < POLE_GUARD
        tau = complex_divide_array(1.0, inv)
    columns = [
        ("z_re", "Re z of the evaluation point", re),
        ("z_im", "Im z of the evaluation point", im),
        ("re_inv_tau", "Re[1/tau(z)]; exact kernel: 1/tau(z) = 1/tau(z0) - ln(z/z0)/(4 pi)", inv.real, blank_inv),
        ("im_inv_tau", "Im[1/tau(z)] under the same running relation", inv.imag, blank_inv),
        ("re_tau", "Re tau(z) = Re[ tau0 / (1 - tau0 * kappa * (g(z)-g(z0))) ]", tau.real, at_pole),
        ("im_tau", "Im tau(z)", tau.imag, at_pole),
    ]
    # group property row to row: re-anchoring 1/tau at row i - 1 must
    # reproduce row i through the kernel between consecutive points
    defect = np.zeros(re.size)
    if tau0 != 0:
        step = inv[1:] - (inv[:-1] - kappa * steps)
        defect[1:] = np.hypot(step.real, step.imag)
    defect_tol = opts.get_number("flow_defect_tol", FLOW_GROUP_RTOL, NON_NEGATIVE)
    checks = [(lambda i: f"flow composition defect {defect[i]:.3e} exceeds {defect_tol:.1e} in row {i + 1}",
               ~(defect <= defect_tol))]
    table = _table("flow", "sliding-scale running of the amplitude from a fixed anchor", opts, columns, checks)
    table.footer["max_flow_defect"] = float(np.max(defect))
    return table


def _put_exp(footer: dict, key: str, ln_value: float, value: float | None = None) -> None:
    """The footer entry key = value, by default e^ln_value, or ln_<key> =
    ln_value where value overflows."""
    try:
        value = math.exp(ln_value) if value is None else value
    except OverflowError:
        value = math.inf
    footer.update({key: value} if value < math.inf else {f"ln_{key}": ln_value})


def cmd_bind(opts: Options) -> Table:
    """Bound-state scale per (coupling, regulator): solver vs the closed form
    Lambda * exp(-4 pi / eps), with the nominal cutoff of the model standing
    in for Lambda when the regulator is smeared.  amplitude.bound_states
    solves each regulator's column, the circular well's included."""
    scales = _scales(opts)
    eps = opts.get_grid("epsilon", "1:4:3,log")
    names = [n.strip() for n in (opts.get("regulator") or "sharp-cutoff,gaussian,circular-well,pure-delta").split(",")]
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise UsageError(f"bind lists regulator {repeated[0]!r} twice")
    solvers, closed_forms, unbound = [], [], []
    for name in names:
        energy, none, nominal = bound_states(eps, _model(name, opts, scales), scales)
        solvers.append(energy)
        closed_forms.append(np.where(none, math.nan, nominal * libm(math.exp, -FOUR_PI / eps)))
        unbound.append(none)
    solver, closed, blank = np.concatenate(solvers), np.concatenate(closed_forms), np.concatenate(unbound)
    columns = [
        ("epsilon", "dimensionless attractive coupling", np.tile(eps, len(names))),
        ("regulator", "regulator name", (tuple(names), np.repeat(np.arange(len(names)), eps.size))),
        ("E_B_solver", "root of 1 + eps*I(-E) = 0 (or exact well matching)", solver, blank),
        ("E_B_closed_form", "Lambda_nominal * exp(-4 pi / eps)", closed, blank),
        ("rel_dev", "(E_B_solver - E_B_closed_form)/E_B_closed_form", (solver - closed) / closed, blank),
        ("status", "OK or NO_BOUND_STATE", (("OK", "NO_BOUND_STATE"), blank)),
    ]
    # the cell check comes before the fit, which would carry a non-finite
    # root into the footer
    table = _table("bind", "bound-state energy: ln E_B runs linearly in -4 pi/eps with a regulator-dependent prefactor",
                   opts, columns)
    # each intercept is ln Lambda_eff, and the prefactor the quotient of two
    # Lambda_eff, or e^(difference of intercepts) where one overflows
    fits = {name: _fit_line(-FOUR_PI / eps[~none], libm(math.log, energy[~none]))
            for name, energy, none in zip(names, solvers, unbound) if (~none).sum() >= 2}
    footer, tags = table.footer, {name: name.replace("-", "_") for name in fits}
    for name, (slope, intercept) in fits.items():
        footer[f"fit_slope_{tags[name]}"] = slope
        _put_exp(footer, f"lambda_eff_{tags[name]}", intercept)
    if "sharp-cutoff" in fits:
        base = footer.get("lambda_eff_sharp_cutoff")
        for name, (_, intercept) in fits.items():
            if name != "sharp-cutoff":
                lam_eff = footer.get(f"lambda_eff_{tags[name]}")
                _put_exp(footer, f"prefactor_vs_sharp_cutoff_{tags[name]}", intercept - fits["sharp-cutoff"][1],
                         lam_eff / base if lam_eff is not None and base else None)
    return table


def cmd_theorem(opts: Options) -> Table:
    """Remove the cutoff at fixed coupling: |tau_Lambda(z)| rises to a peak
    where the generated bound state sweeps past |z|, then falls to zero like
    4 pi / ln(Lambda/|z|).  Monotone decrease is asserted beyond the peak,
    which the footer reports as peak_lambda, or as ln_peak_lambda where
    |z| e^{4 pi/eps} overflows."""
    scales = _scales(opts)
    eps_grid = opts.get_grid("epsilon", "1")
    if eps_grid.size != 1:
        raise UsageError("theorem takes a single epsilon")
    eps = float(eps_grid[0])
    if FOUR_PI / eps == math.inf:
        raise UsageError(f"theorem takes epsilon of at least 4 pi/max double = {_THEOREM_EPS_MIN:.5g}, got {eps!r}: "
                         "below it the peak |z| e^(4 pi/eps) lies beyond every double, even in log space")
    z = _config_energy(opts, "z", 0.0, 1.0)
    schedule = opts.get_grid("lambda", "1e2:1e12:6,log")
    tau = _checked(amplitudes_over_cutoffs_array, eps, z, schedule, scales)
    magnitude = z.magnitude()
    abs_tau = np.hypot(tau.real, tau.imag)
    naive = FOUR_PI / log_ratio_array(schedule, magnitude)
    envelope = cutoff_envelope_array(eps, magnitude, schedule)
    vacuous = np.isnan(envelope)
    columns = [
        ("Lambda", "sharp kinetic-energy cutoff", schedule),
        ("abs_tau", "|tau_Lambda(z)| = |eps / (1 + eps*I(z, Lambda))|", abs_tau),
        ("bound_4pi_over_lnLambda", "asymptote 4 pi / ln(Lambda/|z|)", naive),
        ("envelope_bound", "rigorous bound 4 pi / (ln((Lambda-|z|)/|z|) - 4 pi/eps) beyond the peak",
         envelope, vacuous),
    ]
    # the peak |z| e^{4 pi/eps} overflows for eps below about 0.0177 at
    # |z| = 1: decide in ln Lambda, and report ln Lambda where it overflows.
    # The rows beyond it, a suffix of the increasing schedule, must fall
    ln_peak = math.log(magnitude) + FOUR_PI / eps
    beyond = np.log(schedule) > ln_peak
    rises = np.append(False, beyond[:-1] & ~(abs_tau[1:] < abs_tau[:-1]))
    outside = ~(vacuous | (abs_tau <= envelope * (1.0 + THEOREM_ENVELOPE_RTOL)))
    checks = [
        (lambda i: f"|tau_Lambda| failed to decrease monotonically beyond the peak: abs_tau = {float(abs_tau[i])!r} "
                   f"after {float(abs_tau[i - 1])!r} in row {i + 1}", rises),
        (lambda i: f"|tau_Lambda| violated its rigorous envelope: abs_tau = {float(abs_tau[i])!r} exceeds "
                   f"envelope_bound = {float(envelope[i])!r} in row {i + 1}", outside),
    ]
    table = _table("theorem", "cutoff removal at fixed coupling: the amplitude of the unregulated model is zero", opts,
                   columns, checks)
    footer = table.footer
    footer.update(monotone_beyond_peak=True, envelope_respected=True)
    peak = magnitude * math.exp(FOUR_PI / eps) if FOUR_PI / eps < _LN_FLOAT_MAX else math.inf
    _put_exp(footer, "peak_lambda", ln_peak, peak)
    tail = abs_tau[beyond]
    if tail.size >= 2:
        slope, _ = _fit_line(np.log(schedule[beyond]), 1.0 / tail)
        footer["fit_slope_beyond_peak"] = slope
        footer["fit_slope_target"] = 1.0 / FOUR_PI
    return table


def cmd_transmute(opts: Options) -> Table:
    """Fix the target bound-state energy, send the cutoff to infinity and
    the coupling to zero along Lambda_n = E_B 10^n, eps_n = 4 pi/ln(Lambda_n/E_B);
    the regulated amplitude converges to 4 pi / ln(-E_B/z) one decade per step."""
    scales = _scales(opts)
    e_b = opts.get_number("e_b", 1.0, POSITIVE)
    z = _config_energy(opts, "z", 2.0, 0.0)
    steps = opts.get_number("steps", 10, parse=int, kind="an integer")
    n, cutoffs, couplings, tau, deviations, target = _checked(transmutation_schedule_array, e_b, z, steps, scales)
    columns = [
        ("n", "step index; Lambda_n = e_b * 10^n", (tuple(n.tolist()), np.arange(n.size))),
        ("Lambda_n", "sharp cutoff at this step", cutoffs),
        ("epsilon_n", "coupling 4 pi / ln(Lambda_n/e_b)", couplings),
        ("re_tau", "Re tau_{eps_n, Lambda_n}(z)", tau.real),
        ("im_tau", "Im tau_{eps_n, Lambda_n}(z)", tau.imag),
        ("deviation_from_closed_form", "|tau_n(z) - 4 pi / ln(-e_b/z)|", deviations),
    ]
    stalls = np.append(False, ~(deviations[1:] < deviations[:-1]))
    checks = [(lambda i: f"transmutation deviations failed to decrease monotonically at step n = {int(n[i])}: "
                         f"{float(deviations[i])!r} after {float(deviations[i - 1])!r}", stalls)]
    table = _table("transmute", "renormalization limiting process at fixed bound-state energy", opts, columns, checks)
    table.footer.update(closed_form_re=target.real, closed_form_im=target.imag, monotone_deviation=True)
    return table


def cmd_scatter(opts: Options) -> Table:
    """Continuum observables for a chosen model on an energy grid, with the
    two target-length routes cross-checked row by row."""
    scales = _scales(opts)
    # the file's model key wins over its regulator key, and the --regulator
    # flag over both: the echoed config then holds no model key
    if "regulator" in opts.flags:
        opts.values.pop("model", None)
    name = opts.get("model") or opts.get("regulator") or "renormalized"
    energies = opts.get_grid("energy", "1e-3:1e3:13,log")
    unitarity_tol = opts.get_number("unitarity_defect_tol", UNITARITY_DEFECT_TOL, NON_NEGATIVE)
    if name == "renormalized":
        tau = renormalized_amplitude_array(opts.get_number("e_b", 1.0, POSITIVE), energies)
    else:
        eps, model = opts.get_number("epsilon", 1.0, POSITIVE), _model(name, opts, scales)
        try:
            tau = on_shell_amplitude_array(eps, model, energies, scales)
        except SingularInputError as exc:
            raise _row_failure([(lambda i: f"{exc}: E = {float(energies[i])!r} in row {i + 1}",
                                 np.arange(energies.size) == exc.index)]) from None
    obs = continuum_observables_array(tau, energies, scales, unitarity_tol)
    violation = obs["violation"]
    columns = [
        ("E", "continuum energy (E + i0+)", energies),
        ("k", "wavenumber sqrt(E/kinetic_constant)", obs["k"]),
        ("re_f", "Re f(E), f = -sqrt(1/(8 pi k)) tau", obs["f"].real),
        ("im_f", "Im f(E)", obs["f"].imag),
        ("dL_dtheta", "differential target length |f|^2", obs["dL_dtheta"]),
        ("L_optical", "total target length sqrt(8 pi/k) Im f (optical theorem)", obs["L_optical"]),
        ("L_from_im_tau", "total target length -(1/k) Im tau", obs["L_from_im_tau"]),
        ("delta0", "phase shift in (-pi/2, pi/2] with tau = -4 e^{i delta0} sin delta0", obs["phase_shift"], violation),
        ("unitarity_defect", "2 pi |f|^2 - sqrt(8 pi/k) Im f; zero for elastic unitary rows", obs["optical_defect"]),
        ("status", "OK or UNITARITY_VIOLATION", (("OK", "UNITARITY_VIOLATION"), violation)),
    ]
    # the two target-length routes must agree row by row
    l_optical, l_from_tau = obs["L_optical"], obs["L_from_im_tau"]
    disagree = np.abs(l_optical - l_from_tau) > ROUTE_AGREEMENT_RTOL * np.maximum(np.abs(l_from_tau), 1e-300)
    checks = [(lambda i: f"target-length routes disagree at E = {float(energies[i])!r}: "
                         f"{float(l_optical[i])!r} vs {float(l_from_tau[i])!r} in row {i + 1}", disagree)]
    table = _table("scatter", f"continuum observables for the {name} model", opts, columns, checks)
    table.footer.update(unitarity_violations=int(violation.sum()), unitarity_defect_tol=unitarity_tol)
    return table


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


# the flags of every command, with a metavar and help each: --tol-override
# appends, and any other flag given twice keeps its last value
_FLAGS = {
    "--config": ("PATH", "flat key=value configuration file"),
    "--regulator": ("NAME", "regulator name (bind: comma-separated list)"),
    "--epsilon": ("GRID", "coupling value or grid v1:v2:n[,log]"),
    "--lambda": ("GRID", "cutoff value or schedule lo:hi:n[,log]"),
    "--energy": ("GRID", "energy grid lo:hi:n[,log]"),
    "--out": ("PATH", "output path (default stdout)"),
    "--format": ("FORMAT", "output format, csv (the default) or json"),
    "--tol-override": ("NAME=VALUE", "override a named tolerance"),
    "--help": ("", "print this help"),
}
# a token that begins with '-' and is still a value: a negative number
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(token: str) -> tuple[str, str | None] | None:
    """The flag that a token names and its value after '=' (or None), or
    None for a value, as argparse tells them apart: a unique prefix names a
    flag, -h takes what follows it as its value (-hh is -h twice), and a
    token that begins with '-' is a value only as a negative number or with
    a space in it; any other is an unknown flag, named by itself."""
    if len(token) < 2 or token[0] != "-":
        return None
    if token in _FLAGS:
        return token, None
    if token[1] != "-":
        if token.startswith("-h"):
            return "--help", token[2:].lstrip("h") or None
    else:
        name, eq, value = token.partition("=")
        matches = [flag for flag in _FLAGS if flag.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    return None if _NEGATIVE_NUMBER.match(token) or " " in token else (token, None)


def _read_argv(argv: list[str]) -> tuple[str, dict[str, str], list[str]] | None:
    """The command, the flag values by key and the --tol-override values of a
    command line, or None where it asks for help.  The command comes first,
    and each flag takes its value as --flag value or --flag=value.  Every
    token is told apart before any is read, so that an ambiguous prefix is an
    error wherever it stands; after '--' every token is a value.  The tokens
    are then read in order: help, a missing value and a bad format end the
    reading there, and a token that no flag takes is an error at the end."""
    command, *tokens = argv or [""]
    if command not in _COMMANDS:
        if _option(command) == ("--help", None):
            return None
        raise UsageError(f"the command must be one of {', '.join(_COMMANDS)}; got {command!r}")
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_option(token) for token in tokens[:end]] + [None] * (len(tokens) - end)
    values, overrides, stray, i = {}, [], [], 0
    while i < len(tokens):
        kind, i = kinds[i], i + 1
        if kind is None or kind[0] not in _FLAGS:
            stray.append(tokens[i - 1])
            continue
        flag, value = kind
        if flag == "--help":
            if value is None:
                return None
            raise UsageError(f"--help takes no value, got {value!r}")
        if value is None:
            if i >= end or kinds[i] is not None:
                raise UsageError(f"{flag} expects a value")
            value, i = tokens[i], i + 1
        if flag == "--format" and value not in ("csv", "json"):
            raise UsageError(f"--format must be csv or json, got {value!r}")
        if flag == "--tol-override":
            overrides.append(value)
        else:
            values[flag[2:]] = value
    if stray:
        raise UsageError(f"unrecognized arguments: {' '.join(stray)}")
    return command, values, overrides


def _help() -> str:
    flags = "".join(f"  {(flag + ' ' + metavar).strip():<26} {text}\n" for flag, (metavar, text) in _FLAGS.items())
    return (f"usage: transmute-lab <command> [--flag VALUE | --flag=VALUE] ...\n\n{__doc__}\n"
            f"flags (a unique prefix will do: --eps for --epsilon; -h for --help):\n{flags}")


def main(argv: list[str] | None = None) -> int:
    try:
        read = _read_argv(sys.argv[1:] if argv is None else argv)
        if read is None:
            sys.stdout.write(_help())
            return 0
        command, flag_values, overrides = read
        config = flag_values.pop("config", None)
        opts = Options(_read_config_file(config) if config else {}, flag_values)
        for name, value in _parse_tol_overrides(overrides).items():
            opts.values[name] = repr(value)
        # a non-finite column value is reported by the cell check in _table,
        # not by a numpy warning on stderr
        with np.errstate(all="ignore"):
            table = _COMMANDS[command](opts)
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
