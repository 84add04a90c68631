"""Outside-in tracing: spans around the public functions of each layer.

`Tracer.installed()` replaces, for its duration, the names through which
`mpslc.slc`, `mpslc.hamming` and `mpslc.hardness` call the layers below
with timing wrappers, and puts the originals back on exit. Each wrapper
records a span (name, start, end, parent) plus counts read from its
arguments and result. `run_level` also wraps every `(words, callable)` job
it receives; those unit steps are tallied into their `run_level` span
instead of getting a span each, since a run makes hundreds of thousands.
The root job is the last `run_level` call of each repetition, that is
call `levels + 1` after `sample_partition`.

A layer's self time is its span's duration minus the time of the spans
(and jobs) inside it. A hook whose function is gone, or whose arguments
or result no longer have the expected shape, is recorded as broken; the
per-layer metrics that depend on it are then reported as missing, and
the run goes on.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module under mpslc, public name it calls through)
HOOKS = (
    ("slc", "sample_partition"),
    ("slc", "base_cell_coords"),
    ("slc", "coords_at_level"),
    ("slc", "run_level"),
    ("slc", "boruvka_mst"),
    ("slc", "k_slc_from_mst"),
    ("hamming", "build_auxiliary_graph"),
    ("hamming", "distributed_sort"),
    ("hamming", "connected_components"),
    ("hardness", "gen_cycle_vectors"),
    ("hardness", "jl_project"),
)

_PARTITION = ("sample_partition", "base_cell_coords", "coords_at_level")
_GRID = _PARTITION + ("run_level", "boruvka_mst", "k_slc_from_mst")
_UNITSTEP = ("sample_partition", "run_level")

# Per-layer metric -> (unit, hooks it is computed from).
PER_LAYER = {
    "partition.shift_s": ("s", _PARTITION),
    "slc.group_s": ("s", _GRID),
    "slc.union_s": ("s", ("sample_partition", "run_level", "boruvka_mst")),
    "slc.union_edges": ("count", ("boruvka_mst",)),
    "slc.extract_s": ("s", ("k_slc_from_mst",)),
    "mpc.level_s": ("s", ("run_level",)),
    "mpc.level_calls": ("count", ("run_level",)),
    "mpc.level_jobs": ("count", ("run_level",)),
    "mpc.boruvka_s": ("s", ("boruvka_mst",)),
    "mpc.boruvka_rounds": ("count", ("boruvka_mst",)),
    "mpc.sort_s": ("s", ("distributed_sort",)),
    "mpc.sort_calls": ("count", ("distributed_sort",)),
    "mpc.connectivity_s": ("s", ("connected_components",)),
    "unitstep.bounded_s": ("s", _UNITSTEP),
    "unitstep.bounded_cells": ("count", _UNITSTEP),
    "unitstep.bounded_edges": ("count", _UNITSTEP),
    "unitstep.reps_in": ("count", _UNITSTEP),
    "unitstep.reps_out": ("count", _UNITSTEP),
    "unitstep.root_s": ("s", _UNITSTEP),
    "unitstep.root_reps": ("count", _UNITSTEP),
    "hamming.aux_s": ("s", ("build_auxiliary_graph", "distributed_sort")),
    "hamming.aux_edges": ("count", ("build_auxiliary_graph",)),
    "hamming.classes_s": ("s", ("build_auxiliary_graph", "connected_components",
                                "k_slc_from_mst")),
    "hardness.gen_s": ("s", ("gen_cycle_vectors",)),
    "hardness.jl_s": ("s", ("jl_project",)),
}

_SHAPE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


@dataclass
class JobTally:
    """Unit-step jobs of one kind (bounded levels or the root)."""

    seconds: float = 0.0
    cells: int = 0
    reps_in: int = 0
    reps_out: int = 0
    edges: int = 0


class Tracer:
    """Spans and unit-step tallies recorded while `installed()` is active;
    `metrics()` turns those since the last `reset()` into per-layer values."""

    def __init__(self):
        self.broken: dict = {}
        self.reset()

    def reset(self) -> None:
        """Forget the spans and tallies recorded so far."""
        self.spans: list = []
        self._stack: list = []
        self.bounded = JobTally()
        self.root = JobTally()
        self._levels = None
        self._dim = None
        self._calls_in_rep = 0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name=name, start=time.perf_counter(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.seconds

    @contextmanager
    def span(self, name: str, **info):
        """A span opened by the benchmark itself, such as one operation."""
        span = self._open(name)
        span.info.update(info)
        try:
            yield span
        finally:
            self._close(span)

    def _break(self, hook: str, reason: str) -> None:
        self.broken.setdefault(hook, reason)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        on_call = getattr(self, f"_on_call_{name}", None)
        on_return = getattr(self, f"_on_return_{name}", None)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            if on_call is not None:
                try:
                    on_call(span, *args, **kwargs)
                except _SHAPE_ERRORS as exc:
                    self._break(name, f"arguments: {exc!r}")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_return is not None:
                try:
                    on_return(span, result)
                except _SHAPE_ERRORS as exc:
                    self._break(name, f"result: {exc!r}")
            return result

        return wrapper

    def _wrap_run_level(self, fn):
        def wrapper(jobs, *args, **kwargs):
            span = self._open("run_level")
            self._calls_in_rep += 1
            root = self._levels is not None and self._calls_in_rep == self._levels + 1
            span.info["root"] = root
            try:
                timed = [self._timed_job(span, root, words, job) for words, job in jobs]
            except _SHAPE_ERRORS as exc:
                self._break("run_level", f"jobs: {exc!r}")
            else:
                jobs = timed
                span.info["jobs"] = len(jobs)
            try:
                return fn(jobs, *args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def _timed_job(self, span: Span, root: bool, words, job):
        tally = self.root if root else self.bounded
        reps_in = int(words) // (self._dim + 2)
        if not callable(job):
            raise TypeError(f"job {job!r} is not callable")

        def timed():
            start = time.perf_counter()
            out = job()
            seconds = time.perf_counter() - start
            span.child_s += seconds
            tally.seconds += seconds
            tally.cells += 1
            tally.reps_in += reps_in
            try:
                tally.reps_out += len(out[0])
                tally.edges += len(out[2])
            except _SHAPE_ERRORS as exc:
                self._break("run_level", f"job output: {exc!r}")
            return out

        return words, timed

    def _on_call_sample_partition(self, span, ps, params, *_args, **_kwargs):
        self._levels = int(params.levels)
        self._dim = int(ps.dim)
        self._calls_in_rep = 0

    def _on_call_boruvka_mst(self, span, graph, *_args, **_kwargs):
        span.info["edges"] = len(graph.edges)

    def _on_return_boruvka_mst(self, span, result):
        span.info["rounds"] = int(result[1].rounds)

    def _on_return_build_auxiliary_graph(self, span, result):
        span.info["edges"] = len(result[0].edges)

    @contextmanager
    def installed(self):
        """Route the layers' public functions through the wrappers."""
        saved = []
        for module_name, name in HOOKS:
            module = importlib.import_module(f"mpslc.{module_name}")
            fn = getattr(module, name, None)
            if not callable(fn):
                self._break(name, f"mpslc.{module_name} has no function {name}")
                continue
            wrapped = self._wrap_run_level(fn) if name == "run_level" else self._wrap(name, fn)
            setattr(module, name, wrapped)
            saved.append((module, name, fn))
        try:
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)

    # -- metrics -----------------------------------------------------------

    def _named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def _total(self, *names) -> float:
        return sum(s.seconds for s in self.spans if s.name in names)

    def _union_s(self, op_index: int) -> float:
        """Gaps between the end of each repetition's root level and the next
        call into a layer: the union of repetition forests into one graph."""
        children = [s for s in self.spans if s.parent == op_index]
        gap = 0.0
        for prev, nxt in zip(children, children[1:]):
            if prev.name == "run_level" and prev.info.get("root"):
                gap += nxt.start - prev.end
        return gap

    def metrics(self) -> tuple:
        """Per-layer values of the spans recorded since `reset`, and the
        metrics that could not be measured with the reason why."""
        ops = [(i, s) for i, s in enumerate(self.spans) if s.name == "op"]
        grid = [(i, s) for i, s in ops if s.info.get("path") == "grid"]
        exact = [(i, s) for i, s in ops if s.info.get("path") == "exact"]
        levels = self._named("run_level")
        boruvka = self._named("boruvka_mst")
        aux = self._named("build_auxiliary_graph")
        union_s = sum(self._union_s(i) for i, _ in grid)
        values = {
            "partition.shift_s": self._total(*_PARTITION),
            "slc.group_s": sum(s.self_s for _, s in grid) - union_s,
            "slc.union_s": union_s,
            "slc.union_edges": sum(s.info.get("edges", 0) for s in boruvka),
            "slc.extract_s": self._total("k_slc_from_mst"),
            "mpc.level_s": sum(s.self_s for s in levels),
            "mpc.level_calls": len(levels),
            "mpc.level_jobs": sum(s.info.get("jobs", 0) for s in levels),
            "mpc.boruvka_s": self._total("boruvka_mst"),
            "mpc.boruvka_rounds": sum(s.info.get("rounds", 0) for s in boruvka),
            "mpc.sort_s": self._total("distributed_sort"),
            "mpc.sort_calls": len(self._named("distributed_sort")),
            "mpc.connectivity_s": self._total("connected_components"),
            "unitstep.bounded_s": self.bounded.seconds,
            "unitstep.bounded_cells": self.bounded.cells,
            "unitstep.bounded_edges": self.bounded.edges,
            "unitstep.reps_in": self.bounded.reps_in,
            "unitstep.reps_out": self.bounded.reps_out,
            "unitstep.root_s": self.root.seconds,
            "unitstep.root_reps": self.root.reps_in,
            "hamming.aux_s": sum(s.self_s for s in aux),
            "hamming.aux_edges": sum(s.info.get("edges", 0) for s in aux),
            "hamming.classes_s": sum(s.self_s for _, s in exact),
            "hardness.gen_s": self._total("gen_cycle_vectors"),
            "hardness.jl_s": self._total("jl_project"),
        }
        missing = {}
        for metric, (_unit, hooks) in PER_LAYER.items():
            for hook in hooks:
                if hook in self.broken:
                    missing[metric] = f"{hook}: {self.broken[hook]}"
                    values[metric] = 0
                    break
        return values, missing

    def root_calls(self) -> int:
        return sum(1 for s in self._named("run_level") if s.info.get("root"))

    def span_records(self) -> list:
        """Spans as JSON-ready records, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "parent": s.parent, "start": s.start - t0,
                 "end": s.end - t0, "self_s": s.self_s, **s.info} for s in self.spans]
