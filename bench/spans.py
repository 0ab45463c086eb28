"""In-memory span tracing of transmute_lab, installed from the benchmark.

The tracer wraps each layer's public functions (``__all__`` of energy_plane,
special, regulators, amplitude, observables and oracle.well) at the places
*other* modules import them, so a span marks a call across a layer boundary;
calls inside one module stay unwrapped.  In ``cli`` it wraps the commands in
``cli._COMMANDS`` and ``Table.write_*``; the benchmark opens the root
``cli.main`` span itself.  ``oracle.quadrature`` lies on no CLI path and is
not wrapped.

A span is ``(id, name, start, end, parent_id, table_id)``.  The current span
lives in a contextvar.  ``ThreadPoolExecutor`` does not copy contextvars into
its workers, so the tracer also wraps ``cli._ordered_map`` and re-enters the
invoking span in every worker call: rows computed on the pool stay children
of the command that asked for them.  Self time is a span's duration minus the
union of its children's intervals (children from several threads overlap).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("energy_plane", "special", "regulators", "amplitude", "observables", "oracle.well")
PACKAGE = "transmute_lab"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.pool_threads: list[int] = []
        self.wrappers: dict = {}
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("transmute_bench_span", default=(0, None))
        self._patches: list[tuple] = []
        self._build_wrappers()

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn):
        current, ids, spans, clock = self._current, self._ids, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, table = current.get()
            sid = next(ids)
            token = current.set((sid, table))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append((sid, name, start, end, parent, table))

        return traced

    def _build_wrappers(self) -> None:
        for short in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self.wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        cli = importlib.import_module(f"{PACKAGE}.cli")
        self.cli = cli
        self.main = self._wrap("cli.main", cli.main)
        self._commands = {k: self._wrap(f"cli.{fn.__name__}", fn) for k, fn in cli._COMMANDS.items()}
        self._writers = {m: self._wrap(f"cli.Table.{m}", getattr(cli.Table, m))
                         for m in ("write_csv", "write_json")}
        self._ordered_map = self._traced_map(cli._ordered_map)

    def _traced_map(self, ordered_map):
        current, pool_threads = self._current, self.pool_threads

        def traced_map(fn, items):
            invoking = current.get()
            threads: set[int] = set()

            def run(item):
                threads.add(threading.get_ident())
                token = current.set(invoking)
                try:
                    return fn(item)
                finally:
                    current.reset(token)

            out = ordered_map(run, items)
            pool_threads.append(len(threads))
            return out

        return traced_map

    def _patch(self, target, key, value, item=False) -> None:
        original = target[key] if item else getattr(target, key)
        self._patches.append((target, key, original, item))
        if item:
            target[key] = value
        else:
            setattr(target, key, value)

    def install(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in self.wrappers and value.__module__ != modname:
                    self._patch(mod, attr, self.wrappers[value])
        cli = self.cli
        for key, wrapped in self._commands.items():
            self._patch(cli._COMMANDS, key, wrapped, item=True)
        for method, wrapped in self._writers.items():
            self._patch(cli.Table, method, wrapped)
        self._patch(cli, "_ordered_map", self._ordered_map)

    def uninstall(self) -> None:
        while self._patches:
            target, key, original, item = self._patches.pop()
            if item:
                target[key] = original
            else:
                setattr(target, key, original)

    def call_table(self, table_id: int, argv: list[str]) -> int:
        """Run ``cli.main(argv)``, as the root span of table ``table_id``
        while the tracer is installed."""
        if not self._patches:
            return self.cli.main(argv)
        token = self._current.set((0, table_id))
        try:
            return self.main(argv)
        finally:
            self._current.reset(token)

    def traced(self, fn):
        """The wrapper of a layer function, for direct calls."""
        return self.wrappers[fn]

    def reset(self) -> None:
        self.spans.clear()
        self.pool_threads.clear()


# -- aggregation -------------------------------------------------------

def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0] if not name.startswith("cli.") else "cli"


def summarize(spans: list[tuple]) -> dict:
    """Per-span-name call counts and self times, per-layer totals, and the
    number of spans not attached to their table's root span."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s[4]:
            children[s[4]].append((s[2], s[3]))
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    orphans = 0
    for sid, name, start, end, parent, table in spans:
        calls[name] += 1
        total_s[name] += end - start
        self_s[name] += (end - start) - _covered(start, end, children.get(sid, ()))
        if table is None or (name != "cli.main" and (parent not in by_id or by_id[parent][5] != table)):
            orphans += 1
    layers: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for name, n in calls.items():
        layer = layers[layer_of(name)]
        layer["calls"] += n
        layer["self_s"] += self_s[name]
    return {"calls": dict(calls), "self_s": dict(self_s), "total_s": dict(total_s),
            "layers": dict(layers), "orphans": orphans}


def children_per_parent(spans: list[tuple], parent_name: str, child_prefix: str) -> float:
    """Mean number of ``child_prefix*`` spans directly under each
    ``parent_name`` span."""
    parents = {s[0] for s in spans if s[1] == parent_name}
    if not parents:
        return 0.0
    n = sum(1 for s in spans if s[4] in parents and s[1].startswith(child_prefix))
    return n / len(parents)
