"""One workload in one fresh process: the closed loop over
``transmute_lab.cli.main`` and, with --trace 1, the traced passes and the
per-call microbenchmarks.

Started by run.py; writes its measurements as JSON to --result.  The loop is
one client: each invocation starts after the previous one returned.  Output
goes through --out into the run's scratch directory.  Between invocations,
outside the timed region, the output is read back: the row count must equal
the grid size and repeats of one argv must give identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

THREADS_ENV = "TRANSMUTE_LAB_THREADS"


def cpu_time() -> float:
    """CPU seconds of this process (all its threads) plus those of its
    children that have ended and been waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Loop:
    """Runs invocations and checks their outputs from outside."""

    def __init__(self, cycle, call):
        self.cycle = cycle
        self.call = call
        self.reference: dict[int, str] = {}
        self.problems: dict[int, str] = {}  # first problem per slot
        # slot, exit code, wall seconds, CPU seconds (cpu_time), output ok
        self.records: list[tuple[int, int, float, float, bool]] = []

    def invoke(self, slot: int, record: bool = True) -> float:
        inv = self.cycle[slot]
        with contextlib.suppress(FileNotFoundError):
            os.unlink(inv.out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start, cpu_start = time.perf_counter(), cpu_time()
            try:
                rc = self.call(len(self.records), inv.argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            elapsed, cpu = time.perf_counter() - start, cpu_time() - cpu_start
        if rc != 0:
            self.problems.setdefault(slot, f"exit {rc}: {err.getvalue().strip()[:200]}")
        ok = rc == 0 and self._check_output(slot, inv)
        if record:
            self.records.append((slot, rc, elapsed, cpu, ok))
        return elapsed

    def _check_output(self, slot: int, inv) -> bool:
        data = Path(inv.out).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        ref = self.reference.get(slot)
        if ref is None:
            rows = len(workloads.read_table(inv.out, inv.fmt))
            if rows != inv.rows:
                self.problems.setdefault(slot, f"{rows} rows, expected {inv.rows}")
                return False
            self.reference[slot] = digest
            return True
        if digest != ref:
            self.problems.setdefault(slot, "output bytes differ between repeats")
            return False
        return True

    def run_cycle(self, record: bool = True) -> float:
        return sum(self.invoke(slot, record) for slot in range(len(self.cycle)))

    def rows_of(self, records) -> int:
        return sum(self.cycle[slot].rows for slot, _, _, _, ok in records if ok)


def timed_loop(loop: Loop, seconds: float, min_invocations: int, hard_cap: float) -> None:
    """Whole cycles until at least ``seconds`` have passed and at least
    ``min_invocations`` were made (or ``hard_cap`` seconds passed)."""
    start = time.perf_counter()
    while True:
        loop.run_cycle()
        elapsed = time.perf_counter() - start
        if elapsed >= hard_cap or (elapsed >= seconds and len(loop.records) >= min_invocations):
            return


def _set_threads(value: str | None) -> None:
    if value is None:
        os.environ.pop(THREADS_ENV, None)
    else:
        os.environ[THREADS_ENV] = value


def pool_speedup(loop: Loop, seconds: float) -> tuple[float, float]:
    """Interleaved untraced cycles with the default pool and with
    TRANSMUTE_LAB_THREADS=1; returns (default rows/s over 1-thread rows/s,
    median default cycle seconds)."""
    rates: dict[str | None, list[float]] = {None: [], "1": []}
    default_cycles = []
    start = time.perf_counter()
    pair = 0
    while pair < 3 or time.perf_counter() - start < seconds:
        order = (None, "1") if pair % 2 == 0 else ("1", None)
        for threads in order:
            _set_threads(threads)
            first = len(loop.records)
            elapsed = loop.run_cycle()
            rates[threads].append(loop.rows_of(loop.records[first:]) / elapsed)
            if threads is None:
                default_cycles.append(elapsed)
        pair += 1
    _set_threads(None)
    return statistics.median(rates[None]) / statistics.median(rates["1"]), statistics.median(default_cycles)


# -- per-call microbenchmarks ------------------------------------------

def _per_call_us(fn, inputs, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for x in inputs:
            fn(*x)
        times.append((time.perf_counter() - start) / len(inputs))
    return 1e6 * statistics.median(times)


def _polar(r: float, theta: float) -> complex:
    return complex(r * math.cos(theta), -r * math.sin(theta))  # lower half plane


def branch_inputs(rng: random.Random, n: int = 40) -> dict[str, list[tuple]]:
    """Arguments inside each branch of special.py, by its documented
    boundaries: E1 |w| <= 3.5 series, Re w >= 0 continued fraction,
    |w| + Re w <= 9 near-axis series, |w| >= 40 asymptotic, Stieltjes
    otherwise; Ei series x <= 40; J/Y series x <= 12; K series x <= 2."""
    u = rng.uniform

    def near_axis():
        while True:
            w = _polar(u(5.0, 30.0), u(2.6, 3.1))
            if abs(w) > 3.5 and w.real < 0 and abs(w) + w.real <= 9.0:
                return w

    def far(lo, hi):
        while True:
            w = _polar(u(lo, hi), u(1.7, 2.3))
            if w.real < 0 and abs(w) + w.real > 9.0:
                return w

    return {
        "special.exp1_scaled.series_us": [(_polar(u(0.5, 3.4), u(0.1, 3.0)),) for _ in range(n)],
        "special.exp1_scaled.series_near_axis_us": [(near_axis(),) for _ in range(n)],
        "special.exp1_scaled.cf_us": [(_polar(u(4.0, 100.0), u(0.0, 1.5)),) for _ in range(n)],
        "special.exp1_scaled.stieltjes_us": [(far(20.0, 39.0),) for _ in range(n)],
        "special.exp1_scaled.asymptotic_us": [(far(50.0, 200.0),) for _ in range(n)],
        "special.expi_scaled.series_us": [(u(1.0, 40.0),) for _ in range(n)],
        "special.expi_scaled.asymptotic_us": [(u(41.0, 500.0),) for _ in range(n)],
        "special.bessel_j0.series_us": [(u(0.5, 12.0),) for _ in range(n)],
        "special.bessel_j0.hankel_us": [(u(12.5, 200.0),) for _ in range(n)],
        "special.bessel_y0.series_us": [(u(0.5, 12.0),) for _ in range(n)],
        "special.bessel_y0.hankel_us": [(u(12.5, 200.0),) for _ in range(n)],
        "special.bessel_k0.series_us": [(u(0.1, 2.0),) for _ in range(n)],
        "special.bessel_k0.panels_us": [(u(2.1, 50.0),) for _ in range(n)],
        "special.bessel_k1.panels_us": [(u(2.1, 50.0),) for _ in range(n)],
    }


def microbenchmarks(tracer, rng: random.Random) -> dict[str, float]:
    from transmute_lab import amplitude, special
    from transmute_lab.oracle import well
    from transmute_lab.regulators import GaussianFormFactor, SharpCutoff

    out = {}
    for name, inputs in branch_inputs(rng).items():
        fn = getattr(special, name.split(".")[1])
        out[name] = _per_call_us(fn, inputs)

    poles = [(rng.uniform(0.3, 3.0), reg) for reg in (SharpCutoff(1.0), GaussianFormFactor(1.0)) for _ in range(10)]
    wells = [(well.well_from_coupling(rng.uniform(0.3, 15.0), 1.0),) for _ in range(8)]
    shifts = [(well.well_from_coupling(rng.uniform(0.5, 2.0), 1.0), rng.uniform(0.01, 40.0)) for _ in range(40)]
    out["amplitude.bound_state_pole_us"] = _per_call_us(amplitude.bound_state_pole, poles, repeats=3)
    out["oracle.well.bound_state_us"] = _per_call_us(well.well_bound_state, wells, repeats=3)
    out["oracle.well.phase_shift_us"] = _per_call_us(well.well_phase_shift, shifts)

    # exact solver effort, counted through the traced layer boundaries
    tracer.reset()
    tracer.install()
    try:
        for args in poles:
            tracer.traced(amplitude.bound_state_pole)(*args)
        for args in wells:
            tracer.traced(well.well_bound_state)(*args)
    finally:
        tracer.uninstall()
    out["amplitude.resolvent_evals_per_pole"] = spans.children_per_parent(
        tracer.spans, "amplitude.bound_state_pole", "regulators.")
    out["oracle.well.special_calls_per_root"] = spans.children_per_parent(
        tracer.spans, "oracle.well.well_bound_state", "special.")
    tracer.reset()
    return out


# -- entry -------------------------------------------------------------

def resolved_pool_workers(cli) -> int:
    """Threads the default pool actually uses on 64 short sleeps."""
    seen = set()

    def probe(_):
        time.sleep(0.001)
        seen.add(threading.get_ident())

    cli._ordered_map(probe, list(range(64)))
    return len(seen)


def traced_passes(loop: Loop, tracer, passes: int = 2) -> tuple[list[dict], list[float]]:
    summaries, walls = [], []
    for _ in range(passes):
        tracer.reset()
        tracer.install()
        try:
            walls.append(loop.run_cycle())
        finally:
            tracer.uninstall()
        summary = spans.summarize(tracer.spans)
        summary["pool_workers"] = statistics.median(tracer.pool_threads) if tracer.pool_threads else 1
        summaries.append(summary)
    tracer.reset()
    return summaries, walls


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny grids, one timed cycle")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    from transmute_lab import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"transmute_lab imported from {cli.__file__}, not from {SRC}")

    cycle = workloads.build_cycle(args.workload, args.seed, args.workdir, args.smoke)
    for inv in cycle:
        if inv.config is not None:
            Path(inv.config_path).write_text(inv.config, encoding="utf-8")

    import numpy

    result: dict = {"env": {"pool_workers": resolved_pool_workers(cli), "numpy": numpy.__version__}}
    if args.trace:
        tracer = spans.Tracer()
        loop = Loop(cycle, tracer.call_table)
        loop.run_cycle(record=False)  # warm-up
        speedup, untraced_cycle = pool_speedup(loop, args.seconds / 2)
        summaries, walls = traced_passes(loop, tracer)
        result["trace"] = {
            "summaries": summaries,
            "pool_speedup": speedup,
            "overhead_ratio": statistics.mean(walls) / untraced_cycle,
            "micro": microbenchmarks(tracer, random.Random(f"micro:{args.seed}")),
        }
    else:
        loop = Loop(cycle, lambda _table, argv: cli.main(argv))
        loop.run_cycle(record=False)  # warm-up
        min_invocations = 1 if args.smoke else workloads.MIN_INVOCATIONS
        timed_loop(loop, args.seconds, min_invocations, hard_cap=max(3 * args.seconds, 60.0))

    result.update({
        "records": loop.records,
        "problems": loop.problems,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
