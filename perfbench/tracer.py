"""In-memory span tracer that wraps the package's public functions.

`Tracer.install()` replaces every public function and public method of
the layer modules *at the point where it is looked up*: a function that
`hiddenpop.sampler` imported from `hiddenpop.kernels` is replaced in the
sampler's namespace too, because the sampler calls it through its own
global. Each call records one span (name, start, end, parent, thread,
request) in memory; nothing is written until `write_spans`.

Spans opened on a worker thread whose own stack is empty (the chains of
`run_chains`) take the innermost open span of the main thread as their
parent, which is the call that started the pool and waits for it.

Self time is a span's duration minus the union of its children's
intervals, so overlapping children on several threads are not counted
twice.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("data", "spatial", "kernels", "sampler", "simulate", "analysis", "sir", "cli")
_PACKAGE = "hiddenpop"


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self.spans: list[tuple] = []      # (id, name, start_ns, end_ns, parent, thread, request)
        self.true_results: dict[str, int] = defaultdict(int)
        self.request = -1
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _enter(self) -> tuple[int, int, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        idx = next(self._ids)
        stack.append(idx)
        return idx, parent, stack

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with _Span(tracer, name):
                result = func(*args, **kwargs)
            if result is True:
                tracer.true_results[name] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules where it is looked up."""
        import importlib

        modules = {layer: importlib.import_module(f"{_PACKAGE}.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}

        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__qualname__}", obj)
            for attr, cls in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isclass(cls):
                    continue
                if cls.__module__ != module.__name__:
                    continue
                self._wrap_methods(layer, cls)

        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(name, raw)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns sorted by id; `self_ns` is derived here."""
        rows = sorted(self.spans)
        ids, names, starts, ends, parents, threads, requests = map(list, zip(*rows))
        ids = np.array(ids, dtype=np.int64)
        position = {span_id: pos for pos, span_id in enumerate(ids.tolist())}
        parent_pos = np.array([position.get(p, -1) for p in parents], dtype=np.int64)
        start = np.array(starts, dtype=np.int64)
        end = np.array(ends, dtype=np.int64)
        return {
            "id": ids, "name": np.array(names, dtype=object), "start": start, "end": end,
            "parent": parent_pos, "thread": np.array(threads, dtype=np.int64),
            "request": np.array(requests, dtype=np.int64),
            "self_ns": self_times(start, end, parent_pos),
        }

    def write_spans(self, path: Path) -> None:
        cols = self.arrays()
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_ns", "end_ns", "parent_id", "thread", "request"])
            for i in range(cols["id"].size):
                parent = cols["parent"][i]
                writer.writerow([cols["id"][i], cols["name"][i], cols["start"][i], cols["end"][i],
                                 cols["id"][parent] if parent >= 0 else -1,
                                 cols["thread"][i], cols["request"][i]])


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx, self.parent, self.stack = self.tracer._enter()
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.stack.pop()
        self.tracer.spans.append((self.idx, self.name, self.start, end, self.parent,
                                  threading.get_ident(), self.tracer.request))
        return False


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration minus the part of the interval covered by child spans."""
    covered = np.zeros(start.size, dtype=np.int64)
    has_parent = np.flatnonzero(parent >= 0)
    order = has_parent[np.lexsort((start[has_parent], parent[has_parent]))]
    current, reach = -1, 0
    for i in order.tolist():
        p = parent[i]
        s, e = start[i], end[i]
        if p != current:
            current, reach = p, s
        s = max(s, reach)
        if e > s:
            covered[p] += e - s
            reach = e
    return (end - start) - covered


def layer_table(cols: dict[str, np.ndarray]) -> list[dict]:
    """Calls, total and self seconds per span name, largest self time first."""
    table = defaultdict(lambda: [0, 0, 0])
    durations = cols["end"] - cols["start"]
    for name, dur, own in zip(cols["name"].tolist(), durations.tolist(), cols["self_ns"].tolist()):
        row = table[name]
        row[0] += 1
        row[1] += dur
        row[2] += own
    rows = [{"name": name, "layer": name.split(".", 1)[0], "calls": calls,
             "total_s": total / 1e9, "self_s": own / 1e9, "mean_us": total / calls / 1e3}
            for name, (calls, total, own) in table.items()]
    return sorted(rows, key=lambda r: -r["self_s"])
