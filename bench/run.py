"""transmute-lab benchmark: closed-loop CLI workloads, end-to-end and per layer.

    python3 bench/run.py --workload dense-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all [--seed N] [--seconds S]   every workload, untraced and traced
    python3 bench/run.py --smoke                          every workload at a tiny size

One run measures one workload (see workloads.py and README.md).  It times
fresh-process set-up, then starts the workload in a fresh worker process
(worker.py) with TRANSMUTE_LAB_THREADS unset, checks sampled output rows
against mpmath (checks.py), prints the environment and a summary, and prints
as its last line one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per layer with --trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = BENCH / "_run"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

# Time metrics are CPU seconds of the measured process (all its threads)
# and of its children.  The kernel's paravirtual steal accounting keeps the
# time the hypervisor gives the VM's CPUs to other guests out of them;
# wall-clock figures, which include it, are printed in the summary.
END_TO_END = {
    "rows_per_cpu_s": "rows/s",
    "table_cpu_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

SPECIAL_BRANCHES = [
    "special.exp1_scaled.series_us", "special.exp1_scaled.series_near_axis_us", "special.exp1_scaled.cf_us",
    "special.exp1_scaled.stieltjes_us", "special.exp1_scaled.asymptotic_us",
    "special.expi_scaled.series_us", "special.expi_scaled.asymptotic_us",
    "special.bessel_j0.series_us", "special.bessel_j0.hankel_us",
    "special.bessel_y0.series_us", "special.bessel_y0.hankel_us",
    "special.bessel_k0.series_us", "special.bessel_k0.panels_us", "special.bessel_k1.panels_us",
]

PER_LAYER = {
    "cli.render_s": "s",
    "cli.command_self_s": "s",
    "cli.main_self_s": "s",
    "cli.pool_workers": "count",
    "cli.pool_speedup": "ratio",
    "amplitude.self_s": "s",
    "amplitude.calls": "count",
    "amplitude.bound_state_pole_us": "us",
    "amplitude.resolvent_evals_per_pole": "count",
    "regulators.self_s": "s",
    "regulators.calls": "count",
    "special.self_s": "s",
    "special.calls": "count",
    **{name: "us" for name in SPECIAL_BRANCHES},
    "oracle.well.self_s": "s",
    "oracle.well.bound_state_us": "us",
    "oracle.well.phase_shift_us": "us",
    "oracle.well.special_calls_per_root": "count",
    "observables.self_s": "s",
    "observables.calls": "count",
    "energy_plane.self_s": "s",
    "energy_plane.calls": "count",
    "setup.numpy_import_s": "s",
    "setup.package_import_s": "s",
    "trace.overhead_ratio": "ratio",
    "checks.max_rel_dev": "ratio",
    "code.src_lines": "lines",
}

SETUP_PROBES = 10
IMPORTTIME_PROBES = 3
SMOKE_SECONDS, SMOKE_SETUP_PROBES = 0.2, 2
WORKER_TIMEOUT = 150.0
# Wall over CPU time of the closed loop, after taking out steal: medians
# over a run's cycles of 0.84-0.99 on the reference machine, single cycles up
# to 1.30.  Above this, waiting or work done
# outside the process and its reaped children would escape the CPU-time
# metrics, so the run is incorrect.
WALL_PER_CPU_MAX = 1.5
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import transmute_lab.cli, resource; "
         "c = resource.getrusage(resource.RUSAGE_CHILDREN); "
         "print(time.process_time() + c.ru_utime + c.ru_stime, flush=True)")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TRANSMUTE_LAB_THREADS", None)  # the user default
    return env


# -- set-up ------------------------------------------------------------

def setup_times(probes: int, warm_up: bool) -> list[tuple[float, float]]:
    """(CPU, wall) seconds from the start of a fresh interpreter until it has
    imported transmute_lab.cli; an untimed first probe can compile bytecode."""
    times = []
    for i in range(-1 if warm_up else 0, probes):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)], stdout=subprocess.PIPE,
                              env=child_env(), text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            proc.communicate(timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe could not import transmute_lab.cli")
        if i >= 0:
            times.append((float(line), wall))
    return times


def import_times(probes: int) -> tuple[float, float]:
    """Median numpy and whole-package cumulative import seconds from fresh
    ``-X importtime`` interpreters."""
    numpy_s, package_s = [], []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", PROBE, str(SRC)],
                              capture_output=True, text=True, env=child_env(), timeout=60, check=True)
        numpy_us = package_us = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            cumulative, indent, name = int(m.group(1)), len(m.group(2)), m.group(3)
            if name == "numpy":
                numpy_us = cumulative
            if indent == 1 and name.split(".")[0] == "transmute_lab":
                package_us += cumulative
        numpy_s.append(numpy_us / 1e6)
        package_s.append(package_us / 1e6)
    return statistics.median(numpy_s), statistics.median(package_s)


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, busy) ticks of all CPUs from /proc/stat, busy including
    steal; None where the file is missing."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    idle = fields[3] + fields[4]  # idle, iowait
    return fields[7], sum(fields[:8]) - idle


def steal_share(before, after) -> float:
    """Share of busy CPU ticks the hypervisor gave to other guests."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


# -- environment -------------------------------------------------------

def source_files() -> list[Path]:
    pkg = SRC / "transmute_lab"
    return sorted(pkg.glob("*.py")) + sorted((pkg / "oracle").glob("*.py"))


def environment(worker_env: dict) -> dict:
    files = source_files()
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "pool_workers": worker_env["pool_workers"],
        "python": platform.python_version(),
        "numpy": worker_env["numpy"],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "machine": platform.machine(),
    }


# -- one workload ------------------------------------------------------

def run_worker(args, workdir: Path) -> dict:
    result = workdir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir),
           "--result", str(result)] + (["--smoke"] if args.smoke else [])
    log = workdir / "worker.log"
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{log.read_text(encoding='utf-8')[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def output_checks(cycle, problems: dict, seed: int) -> tuple[float, dict[int, str]]:
    import checks

    tol = checks.load_tolerances(SRC)
    rng = random.Random(f"checks:{seed}")
    worst, bad = 0.0, {}
    for slot, inv in enumerate(cycle):
        if slot in problems or not Path(inv.out).exists():
            continue
        dev, msgs = checks.check_table(inv, tol, rng)
        worst = max(worst, dev)
        if msgs:
            bad[slot] = "; ".join(msgs)
    return worst, bad


def layer_metrics(trace: dict) -> tuple[dict, float, list[str]]:
    """Per-layer metrics from the two traced passes, the share of traced
    table time spent rendering, and any tracing problems."""
    s1, s2 = trace["summaries"]
    problems = []
    if s1["calls"] != s2["calls"]:
        problems.append("traced call counts differ between two identical passes")
    if s1["orphans"] or s2["orphans"]:
        problems.append(f"{s1['orphans'] + s2['orphans']} spans not attached to their table")

    def mean(fn):
        return (fn(s1) + fn(s2)) / 2

    def self_of(prefix):
        return lambda s: sum(v for k, v in s["self_s"].items() if k.startswith(prefix))

    def layer(name, key):
        return lambda s: s["layers"].get(name, {}).get(key, 0)

    out = {
        "cli.render_s": mean(self_of("cli.Table.write_")),
        "cli.command_self_s": mean(self_of("cli.cmd_")),
        "cli.main_self_s": mean(self_of("cli.main")),
        "cli.pool_workers": mean(lambda s: s["pool_workers"]),
        "cli.pool_speedup": trace["pool_speedup"],
        "trace.overhead_ratio": trace["overhead_ratio"],
    }
    for name in ("amplitude", "regulators", "special", "oracle.well", "observables", "energy_plane"):
        out[f"{name}.self_s"] = mean(layer(name, "self_s"))
        out[f"{name}.calls"] = s1["layers"].get(name, {}).get("calls", 0)
    out.update(trace["micro"])
    render_share = out["cli.render_s"] / mean(lambda s: s["total_s"]["cli.main"])
    return out, render_share, problems


def run_one(args) -> int:
    if not (SRC / "transmute_lab" / "cli.py").is_file():
        return fail(f"no transmute_lab sources under {SRC}")
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        return measure(args, workdir)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    # set-up probes before and after the workload, so that their median
    # spans the machine's slow and fast phases like the workload does
    probes = SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES
    ticks = cpu_ticks()
    setup = setup_times(probes // 2, warm_up=True) if not args.trace else []
    importtime = import_times(IMPORTTIME_PROBES) if args.trace else None
    result = run_worker(args, workdir)
    if not args.trace:
        setup += setup_times(probes - probes // 2, warm_up=False)
    steal = steal_share(ticks, cpu_ticks())
    cycle = workloads.build_cycle(args.workload, args.seed, str(workdir), args.smoke)
    problems = {int(k): v for k, v in result["problems"].items()}
    max_dev, bad = output_checks(cycle, problems, args.seed)
    problems.update(bad)

    records = result["records"]
    ok = [rc == 0 and good and slot not in bad for slot, rc, _, _, good in records]
    attempted, failed = len(records), ok.count(False)
    # a non-zero exit only counts as failed; wrong output makes the run incorrect
    correct = not bad and all(good for _, rc, _, _, good in records if rc == 0)
    env = environment(result["env"])

    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): {why[args.workload]}")
    print("env " + json.dumps(env, sort_keys=True))
    for slot, msg in sorted(problems.items()):
        print(f"  slot {slot} [{cycle[slot].label}]: {msg}")

    if args.trace:
        layer, render_share, trace_problems = layer_metrics(result["trace"])
        correct = correct and not trace_problems
        for msg in trace_problems:
            print(f"  trace: {msg}")
        layer["setup.numpy_import_s"], layer["setup.package_import_s"] = importtime
        layer["checks.max_rel_dev"] = max_dev
        layer["code.src_lines"] = env["src_lines"]
        print(f"  cli.render_s is {100 * render_share:.1f}% of traced table time")
        if args.workload == "dense-grid" and layer["special.calls"] != 0:
            print(f"  separation broken: special.calls = {layer['special.calls']} on dense-grid")
        metrics = {name: layer[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        wall = [dt for _, _, dt, _, _ in records]
        cpu = [c for _, _, _, c, _ in records]
        good_rows = [cycle[slot].rows if good else 0 for (slot, *_), good in zip(records, ok)]
        rows = sum(good_rows)
        # records hold whole cycles; a median over cycles resists a machine
        # phase that covers a minority of the run
        n = len(cycle)
        cycles = range(0, len(records), n)
        metrics = {
            "rows_per_cpu_s": statistics.median(sum(good_rows[i:i + n]) / sum(cpu[i:i + n]) for i in cycles),
            "table_cpu_ms_p50": 1e3 * statistics.median(cpu),
            "setup_s": statistics.median(c for c, _ in setup),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
        if len(cycle) <= 10:
            for slot, inv in enumerate(cycle):
                slot_ms = 1e3 * statistics.median(c for s, _, _, c, _ in records if s == slot)
                print(f"  slot {slot}: median {slot_ms:.2f} CPU ms  {inv.label}")
        print(f"  pooled over {len(cycles)} cycles: {rows / sum(cpu):.6g} rows per CPU second")
        print(f"  wall clock: rows_per_s {rows / sum(wall):.6g} rows/s, table_ms_p50 {1e3 * statistics.median(wall):.6g} ms,"
              f" setup {statistics.median(w for _, w in setup):.6g} s")
        ratios = [(1 - steal) * sum(wall[i:i + n]) / sum(cpu[i:i + n]) for i in cycles]
        ratio = statistics.median(ratios)
        setup_ratio = (1 - steal) * statistics.median(w / c for c, w in setup)
        print(f"  wall/CPU without steal ({100 * steal:.1f}% of busy ticks): per cycle median {ratio:.3f},"
              f" max {max(ratios):.3f}; set-up {setup_ratio:.3f}; limit {WALL_PER_CPU_MAX}")
        if max(ratio, setup_ratio) > WALL_PER_CPU_MAX:
            print(f"  wall/CPU above {WALL_PER_CPU_MAX}: waiting or work outside the process and its"
                  " reaped children is missing from the CPU-time metrics")
            correct = False
        if len(records) >= workloads.MIN_INVOCATIONS:
            print(f"  p90: table_cpu_ms_p90 {1e3 * statistics.quantiles(cpu, n=10)[8]:.6g} ms,"
                  f" table_ms_p90 {1e3 * statistics.quantiles(wall, n=10)[8]:.6g} ms (not gated)")
        else:
            print(f"  p90 unavailable: {len(records)} invocations < {workloads.MIN_INVOCATIONS}")
        units = END_TO_END
    print(f"  invocations {attempted}, failed {failed} (failed_frac {failed / attempted:.4f}),"
          f" max sampled relative deviation {max_dev:.3e}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


# -- all workloads -----------------------------------------------------

def run_all(args) -> int:
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            expected = set(PER_LAYER if trace else END_TO_END)
            if result is None or not result["correct"] or not expected <= set(result["metrics"]):
                print(f"FAILED: {workload} trace {trace}", file=sys.stderr)
                status = 1
    print("all workloads passed" if status == 0 else "some workloads failed")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, one timed cycle, two set-up probes; without --workload, every workload")
    args = ap.parse_args()
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if args.all or (args.smoke and args.workload is None):
        return run_all(args)
    if args.workload is None:
        ap.error("--workload is required (or --all / --smoke)")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
