"""Span tracing of the program's public functions, from outside the program.

Tracer.install() replaces every binding of each traced function, in every
dirichlet_rkhs module that holds one, by a wrapper that records a span: an
id, a name, start and end (perf_counter seconds), the parent span, the
thread and the benchmark item.  Wrapping every binding matters because the
modules call each other through their own names: gram calls kernel_value,
diagnostics calls eval_zeta and cli calls map_ordered through bindings of
their own.  Spans stay in memory until the run ends.

map_ordered gets a wrapper of its own that also wraps the mapped function,
so each task in a worker thread is a span whose parent is the map span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import threading
import time

# (span name, module, function); emit_json and emit_csv share one span name
TRACED = (
    ("zeta.eval_zeta", "zeta", "eval_zeta"),
    ("zeta.eval_weighted_zeta", "zeta", "eval_weighted_zeta"),
    ("spaces.kernel_value", "spaces", "kernel_value"),
    ("spaces.kernel_norm", "spaces", "kernel_norm"),
    ("gram.gram_matrix", "gram", "gram_matrix"),
    ("gram.smallest_eigenvalue", "gram", "smallest_eigenvalue"),
    ("gram.solve_hermitian_pd", "gram", "solve_hermitian_pd"),
    ("diagnostics.space_equivalence_report", "diagnostics", "space_equivalence_report"),
    ("diagnostics.gershgorin_split", "diagnostics", "gershgorin_split"),
    ("diagnostics.almost_periodicity_probe", "diagnostics", "almost_periodicity_probe"),
    ("interpolation.min_norm_interpolant", "interpolation", "min_norm_interpolant"),
    ("interpolation.finite_interpolant", "interpolation", "finite_interpolant"),
    ("embeddings.line_embedding_ratio", "embeddings", "line_embedding_ratio"),
    ("embeddings.halfstrip_embedding_ratio", "embeddings", "halfstrip_embedding_ratio"),
    ("embeddings.random_polynomial_corpus", "embeddings", "random_polynomial_corpus"),
    ("embeddings.line_embedding_sharp_constant", "embeddings",
     "line_embedding_sharp_constant"),
    ("parallel.map_ordered", "parallel", "map_ordered"),
    ("serialize.emit", "serialize", "emit_json"),
    ("serialize.emit", "serialize", "emit_csv"),
    ("cli.run", "cli", "run"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))
TASK = "parallel.map_ordered.task"


def _package_modules():
    import dirichlet_rkhs
    mods = [dirichlet_rkhs]
    for info in pkgutil.iter_modules(dirichlet_rkhs.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"dirichlet_rkhs.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name index, start, end, parent, thread, item)
        self.names: list[str] = []
        self.item = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        key = self._name_index(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, key, t0, t1, parent, threading.get_ident(), self.item))
        return wrapper

    def _wrap_map(self, fn):
        key = self._name_index("parallel.map_ordered")
        task_key = self._name_index(TASK)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced_map(task_fn, items):
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            item = self.item

            def task(x):
                st = stack_of()
                tid = next(ids)
                st.append(tid)
                t0 = time.perf_counter()
                try:
                    return task_fn(x)
                finally:
                    t1 = time.perf_counter()
                    st.pop()
                    spans.append((tid, task_key, t0, t1, sid, threading.get_ident(), item))

            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(task, items)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, key, t0, t1, parent, threading.get_ident(), item))
        return traced_map

    def install(self) -> None:
        mods = _package_modules()
        by_module = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        for name, mod_name, attr in TRACED:
            original = getattr(by_module[mod_name], attr)
            if name == "parallel.map_ordered":
                wrapper = self._wrap_map(original)
            else:
                wrapper = self._wrap(name, original)
            for m in mods:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, binding, wrapper)


def per_layer(spans: list[tuple], names: list[str], scale: list[float]) -> dict:
    """Per-item calls, self time and the derived map/probe figures.

    Self time is a span's duration minus the durations of its children on
    the same thread; tasks run in pool threads, so a map span's self time
    is not used.  Exact checks are the zeta calls whose parent is a probe.
    Durations are multiplied by their item's factor in scale (the speed
    scaling of speed.py); the totals are divided by the number of items.
    """
    by_id = {}
    child_time: dict[int, float] = {}
    for sid, key, t0, t1, parent, thread, item in spans:
        f = scale[item] if item is not None else 1.0
        by_id[sid] = (names[key], (t1 - t0) * f, parent, thread)
    for sid, (_name, dur, parent, thread) in by_id.items():
        if parent is not None and parent in by_id and by_id[parent][3] == thread:
            child_time[parent] = child_time.get(parent, 0.0) + dur
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    wall_s: dict[str, float] = {}
    exact_checks = 0
    for sid, (name, dur, parent, _thread) in by_id.items():
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(sid, 0.0)
        wall_s[name] = wall_s.get(name, 0.0) + dur
        if (name in ("zeta.eval_zeta", "zeta.eval_weighted_zeta") and parent in by_id
                and by_id[parent][0] == "diagnostics.almost_periodicity_probe"):
            exact_checks += 1
    n = max(len(scale), 1)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls.get(name, 0) / n
        out[f"{name}.self_ms"] = 1e3 * self_s.get(name, 0.0) / n
    out["parallel.map_ordered.wall_ms"] = 1e3 * wall_s.get("parallel.map_ordered", 0.0) / n
    out["parallel.map_ordered.worker_busy_ms"] = 1e3 * wall_s.get(TASK, 0.0) / n
    out["diagnostics.almost_periodicity_probe.exact_checks"] = exact_checks / n
    return out
