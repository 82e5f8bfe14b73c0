"""Per-layer tracing from outside the program.

:class:`Tracer` installs class-level wrappers around the public entry
point of each layer of ``repro`` (kernel ``access``, cache-model
``access``, session ``run``, monitor ``observe``, ...). Each wrapped call
records one span — layer, start, end, parent span — in flat in-memory
arrays, plus the work counters of that layer. Nothing under ``src/``
changes: the wrappers are installed on the classes at run time and
removed again by :meth:`Tracer.uninstall`.

A layer's *self time* is the sum over its spans of the span's duration
minus the durations of its direct child spans. The root span covers the
whole experiment (layer ``experiments``), so the self times of all
layers add up to the traced wall time exactly.

:data:`LAYER_METRICS` names every per-layer metric the traced run
reports, with the end-to-end metric and the workloads it is expected to
move; ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

#: metric -> (unit, better, end-to-end metric it should move, workloads).
#: "all" means every workload; the prediction for the others is no change.
LAYER_METRICS: dict[str, tuple[str, str, str, str]] = {
    "workloads.feed_s": ("s", "lower", "cpu_s", "all"),
    "workloads.compile_s": ("s", "lower", "cpu_s, setup_s", "all"),
    "workloads.blocks": ("count", "lower", "cpu_s", "all"),
    "kernels.self_s": ("s", "lower", "cpu_s", "all"),
    "kernels.calls": ("count", "lower", "cpu_s", "table1-tools"),
    "kernels.refs_submitted": ("count", "lower", "cpu_s", "table1-tools"),
    "kernels.refs_consumed": ("count", "lower", "none (fixed by the simulation)", "all"),
    "kernels.consumed_ratio": (
        "ratio", "higher", "cpu_s",
        "table1-tools; no change on multicore-e14 and mrc-sweep",
    ),
    "kernels.consumed_refs_per_s": ("1/s", "higher", "cpu_s, sim_refs_per_s", "all"),
    "kernels.chunk_len_p50": ("count", "higher", "cpu_s", "table1-tools"),
    "cache.self_s": ("s", "lower", "cpu_s", "table1-tools"),
    "cache.instr_refs": ("count", "lower", "cpu_s", "table1-tools"),
    "mechanisms.self_s": ("s", "lower", "cpu_s", "mechanisms-tools"),
    "mechanisms.refs_consumed": ("count", "lower", "none (fixed by the simulation)", "mechanisms-tools"),
    "mechanisms.refs_per_s": ("1/s", "higher", "cpu_s", "mechanisms-tools"),
    "shared_port.self_s": ("s", "lower", "cpu_s", "multicore-e14"),
    "shared_port.shadow_s": ("s", "lower", "cpu_s", "multicore-e14"),
    "shared_port.shadow_refs": ("count", "lower", "cpu_s", "multicore-e14"),
    "session.self_s": ("s", "lower", "cpu_s", "table1-tools, multicore-e14"),
    "session.steps": ("count", "lower", "cpu_s", "table1-tools, multicore-e14"),
    "hpm.observe_s": ("s", "lower", "cpu_s", "table1-tools, mechanisms-tools"),
    "hpm.observe_calls": ("count", "lower", "cpu_s", "table1-tools, mechanisms-tools"),
    "ground_truth.observe_s": ("s", "lower", "cpu_s", "table1-tools, mechanisms-tools"),
    "ground_truth.miss_addrs": ("count", "lower", "none (fixed by the simulation)", "all"),
    "core.handler_s": ("s", "lower", "cpu_s", "table1-tools, mechanisms-tools"),
    "core.interrupts_overflow": ("count", "lower", "none (fixed by the simulation)", "table1-tools, mechanisms-tools"),
    "core.interrupts_timer": ("count", "lower", "none (fixed by the simulation)", "table1-tools, mechanisms-tools"),
    "cache_store.io_s": ("s", "lower", "cpu_s", "all"),
    "cache_store.bytes_written": ("bytes", "lower", "cpu_s", "all"),
    "mrc.build_s": ("s", "lower", "cpu_s", "mrc-sweep"),
    "mrc.refs": ("count", "lower", "none (fixed by the simulation)", "mrc-sweep"),
    "experiments.self_s": ("s", "lower", "cpu_s", "all"),
    "trace.overhead_pct": ("%", "lower", "none (tracing cost)", "all"),
}

#: Span layers whose self times partition the traced wall time, and the
#: metric each one reports under.
SELF_TIME_METRICS: dict[str, str] = {
    "workloads.feed": "workloads.feed_s",
    "workloads.compile": "workloads.compile_s",
    "kernels": "kernels.self_s",
    "cache": "cache.self_s",
    "mechanisms": "mechanisms.self_s",
    "shared_port": "shared_port.self_s",
    "shared_port.shadow": "shared_port.shadow_s",
    "session": "session.self_s",
    "hpm": "hpm.observe_s",
    "ground_truth": "ground_truth.observe_s",
    "core": "core.handler_s",
    "cache_store": "cache_store.io_s",
    "mrc": "mrc.build_s",
    "experiments": "experiments.self_s",
}
LAYERS = tuple(SELF_TIME_METRICS)
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}


class TraceError(RuntimeError):
    """A layer entry point the tracer must wrap does not exist."""


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        c = todo.pop()
        found.append(c)
        todo.extend(c.__subclasses__())
    return found


def _defining(base: type, name: str) -> list[type]:
    """``base`` and its loaded subclasses that define ``name`` concretely."""
    classes = [
        c
        for c in _subclasses(base)
        if name in c.__dict__
        and not getattr(c.__dict__[name], "__isabstractmethod__", False)
    ]
    if not classes:
        raise TraceError(f"no class under {base.__name__} defines {name}()")
    return classes


class Tracer:
    """Span recorder plus the class-level wrappers that feed it."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.layers = array("b")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        #: Lengths of the chunks submitted to kernels (outermost calls).
        self.chunk_lens = array("q")
        #: Shared-level ports seen, and the ids of their shadows' kernels.
        self.ports: list = []
        self._shadow_kernels: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _open(self, lid: int) -> int:
        idx = len(self.starts)
        self.parents.append(self._stack[-1])
        self.layers.append(lid)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _parent_layer(self, idx: int) -> int:
        parent = self.parents[idx]
        return self.layers[parent] if parent >= 0 else -1

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside one span of ``layer``."""
        idx = self._open(_LAYER_ID[layer])
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # --------------------------------------------------------- wrapping

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrap(self, owner, name: str, layer, after=None) -> None:
        """Wrap ``owner.name`` so each call is one span.

        ``layer`` is a layer name or a callable ``(args) -> layer id``;
        ``after(idx, args, kwargs, result)`` runs once the span closed.
        """
        fn = owner.__dict__[name]
        pick = layer if callable(layer) else None
        fixed = _LAYER_ID[layer] if pick is None else 0
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(pick(args) if pick is not None else fixed)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(idx, args, kwargs, out)
            return out

        self._patch(owner, name, wrapper)

    def _wrap_function(self, qualname: str, layer: str, after=None) -> None:
        """Wrap a module-level function in every module that bound it."""
        module_name, name = qualname.rsplit(".", 1)
        original = getattr(sys.modules[module_name], name)
        for module in list(sys.modules.values()):
            if module is not None and module.__dict__.get(name) is original:
                self._wrap(module, name, layer, after)

    def _wrap_feed(self, owner, name: str) -> None:
        """Wrap a method returning a block iterator: opening the stream
        and every ``next`` on it are spans of ``workloads.feed``."""
        fn = owner.__dict__[name]
        lid = _LAYER_ID["workloads.feed"]
        tracer = self

        def traced(it):
            while True:
                idx = tracer._open(lid)
                try:
                    block = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.counts["workloads.blocks"] += 1
                yield block

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(lid)
            try:
                it = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            return traced(iter(it))

        self._patch(owner, name, wrapper)

    # ------------------------------------------------------ installation

    def install(self) -> None:
        """Wrap every layer entry point (class level, reversible)."""
        import repro.core  # noqa: F401  (loads every tool class)
        import repro.experiments.mrc  # noqa: F401  (binds build_mrc)
        from repro.cache.attribution import GroundTruth
        from repro.cache.components import (
            MechanismDecorator,
            Pipeline,
            SharedCacheLevel,
            SharedLevelPort,
        )
        from repro.cache.direct_mapped import DirectMappedCache
        from repro.cache.kernels.base import SetKernel
        from repro.cache.set_assoc import SetAssociativeCache
        from repro.experiments.cache_store import ResultCache
        from repro.hpm.monitor import PerformanceMonitor
        from repro.sim.instrumentation import InstrumentationTool
        from repro.sim.session import MultiCoreSession, SimulationSession
        from repro.workloads.base import Workload
        from repro.workloads.compile import CompiledStream

        counts = self.counts
        L = _LAYER_ID
        cache_entry = (L["cache"], L["mechanisms"])
        kernel_ids = (L["kernels"], L["shared_port.shadow"])
        shadow = self._shadow_kernels

        def kernel_layer(args):
            parent = self._stack[-1]
            if id(args[0]) in shadow or (
                parent >= 0 and self.layers[parent] == L["shared_port.shadow"]
            ):
                return L["shared_port.shadow"]
            return L["kernels"]

        def kernel_after(idx, args, kwargs, out):
            if self._parent_layer(idx) in kernel_ids:
                return  # a backend delegating to another backend
            if self.layers[idx] == L["shared_port.shadow"]:
                counts["shared_port.shadow_refs"] += out.consumed
                return
            counts["kernels.calls"] += 1
            counts["kernels.refs_submitted"] += len(args[1])
            counts["kernels.refs_consumed"] += out.consumed
            self.chunk_lens.append(len(args[1]))

        def entry_after(idx, args, kwargs, out):
            if self._parent_layer(idx) in cache_entry:
                return
            tag = kwargs.get("tag", args[3] if len(args) > 3 else "app")
            if tag == "instr":
                counts["cache.instr_refs"] += out.consumed
            if self.layers[idx] == L["mechanisms"]:
                counts["mechanisms.refs_consumed"] += out.consumed

        def handler_after(kind):
            def after(idx, args, kwargs, out):
                if self._parent_layer(idx) != L["core"]:
                    counts[kind] += 1
            return after

        def count_call(key):
            def after(idx, args, kwargs, out):
                counts[key] += 1
            return after

        def register_port(idx, args, kwargs, out):
            self.ports.append(out)
            for value in vars(out.shadow).values():
                if isinstance(value, SetKernel):
                    shadow.add(id(value))

        for cls in _defining(SetKernel, "access"):
            self._wrap(cls, "access", kernel_layer, kernel_after)
        for cls in (SetAssociativeCache, DirectMappedCache, Pipeline):
            self._wrap(cls, "access", "cache", entry_after)
        self._wrap(MechanismDecorator, "access", "mechanisms", entry_after)
        # Pipelines reach a shared-level port through its chunk-level
        # entry, never through its public access(), so that is the call
        # that brackets the shared-level work.
        self._wrap(SharedLevelPort, "_chunk_access", "shared_port")
        self._wrap_hook(SharedCacheLevel, "port", register_port)
        for cls in (SimulationSession, MultiCoreSession):
            self._wrap(cls, "run", "session")
        self._wrap_hook(SimulationSession, "step", count_call("session.steps"))
        self._wrap(
            PerformanceMonitor, "observe", "hpm", count_call("hpm.observe_calls")
        )

        def gt_after(idx, args, kwargs, out):
            counts["ground_truth.miss_addrs"] += len(args[1])

        self._wrap(GroundTruth, "observe", "ground_truth", gt_after)
        for cls in _defining(InstrumentationTool, "on_miss_overflow"):
            self._wrap(
                cls, "on_miss_overflow", "core",
                handler_after("core.interrupts_overflow"),
            )
        for cls in _defining(InstrumentationTool, "on_timer"):
            self._wrap(
                cls, "on_timer", "core", handler_after("core.interrupts_timer")
            )
        self._wrap(ResultCache, "get", "cache_store")

        def put_after(idx, args, kwargs, out):
            counts["cache_store.bytes_written"] += Path(out).stat().st_size

        self._wrap(ResultCache, "put", "cache_store", put_after)

        def mrc_after(idx, args, kwargs, out):
            counts["mrc.refs"] += out.n_refs

        self._wrap_function("repro.cache.mrc.engine.build_mrc", "mrc", mrc_after)
        self._wrap_function(
            "repro.workloads.compile.compiled_stream_for", "workloads.compile"
        )
        self._wrap_feed(Workload, "blocks")
        self._wrap_feed(CompiledStream, "iter_blocks")

    def _wrap_hook(self, owner, name: str, after) -> None:
        """Wrap ``owner.name`` with a post-call hook but no span."""
        fn = owner.__dict__[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(-1, args, kwargs, out)
            return out

        self._patch(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as columns: layer id, start, end, parent index."""
        return {
            "layer": np.frombuffer(self.layers, dtype=np.int8).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write the spans (and the layer names) as a compressed .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, layers=np.array(LAYERS), **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(
        parent[child], weights=duration[child], minlength=len(duration)
    )
    return duration - covered


def check_nesting(spans: dict[str, np.ndarray]) -> list[str]:
    """Problems with the span tree: children must lie inside parents,
    every span must have closed, and self times must be >= 0."""
    problems = []
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    if np.any(end < start):
        problems.append("a span ends before it starts (unclosed span?)")
    child = np.flatnonzero(parent >= 0)
    if np.any(parent[child] >= child):
        problems.append("a span's parent was opened after it")
    p = parent[child]
    if np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
        problems.append("a child span lies outside its parent")
    if np.any(self_times(spans) < -1e-9):
        problems.append("a span has negative self time")
    return problems


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_pct``."""
    spans = tracer.arrays()
    own = self_times(spans)
    by_layer = np.bincount(spans["layer"], weights=own, minlength=len(LAYERS))
    metrics: dict[str, float] = {
        metric: float(by_layer[_LAYER_ID[layer]])
        for layer, metric in SELF_TIME_METRICS.items()
    }
    for name in (
        "workloads.blocks", "kernels.calls", "kernels.refs_submitted",
        "kernels.refs_consumed", "cache.instr_refs",
        "mechanisms.refs_consumed", "shared_port.shadow_refs",
        "session.steps", "hpm.observe_calls", "ground_truth.miss_addrs",
        "core.interrupts_overflow", "core.interrupts_timer",
        "cache_store.bytes_written", "mrc.refs",
    ):
        metrics[name] = float(tracer.counts[name])
    submitted = metrics["kernels.refs_submitted"]
    consumed = metrics["kernels.refs_consumed"]
    kernel_s = metrics["kernels.self_s"]
    mech_s = metrics["mechanisms.self_s"]
    metrics["kernels.consumed_ratio"] = consumed / submitted if submitted else 0.0
    metrics["kernels.consumed_refs_per_s"] = consumed / kernel_s if kernel_s else 0.0
    metrics["kernels.chunk_len_p50"] = (
        float(np.median(np.frombuffer(tracer.chunk_lens, dtype=np.int64)))
        if len(tracer.chunk_lens)
        else 0.0
    )
    metrics["mechanisms.refs_per_s"] = (
        metrics["mechanisms.refs_consumed"] / mech_s if mech_s else 0.0
    )
    return metrics


def _level_refs(ledgers) -> int:
    """Refs reaching the levels of one pipeline, outermost level first."""
    return ledgers[0].accesses + sum(upper.misses for upper in ledgers[:-1])


def cross_check(tracer: Tracer, metrics: dict[str, float], cells, mrc_refs: int):
    """Compare the tracer's counts with the program's own ledgers.

    ``cells`` are the ``(TaskSpec, RunResult)`` pairs the traced
    experiment ran. Returns metric -> problem for every count that
    disagrees, which would mean a wrapper missed calls.
    """
    from repro.hpm.interrupts import InterruptKind
    from workloads import core_results

    done = [(spec, result) for spec, result in cells if result is not None]
    cores = [core for _, result in done for core in core_results(result)]
    kinds = Counter(r.kind for core in cores for r in core.stats.interrupts.records)
    expected = {
        # Decorated stacks run the scalar path and never reach a kernel.
        # Elsewhere each level is kernel-backed and sees the refs the
        # level above it missed on (every level's ledger counts the
        # pipeline's refs as its accesses).
        "kernels.refs_consumed": sum(
            _level_refs([ledger for _, ledger in core.component_stats])
            for spec, result in done
            if not spec.sim.cache.mechanisms
            for core in core_results(result)
        ),
        "mechanisms.refs_consumed": sum(
            result.cache_stats.accesses
            for spec, result in done
            if spec.sim.cache.mechanisms
        ),
        "core.interrupts_overflow": kinds[InterruptKind.MISS_OVERFLOW],
        "core.interrupts_timer": kinds[InterruptKind.TIMER],
        "shared_port.shadow_refs": sum(p.shadow.stats.accesses for p in tracer.ports),
        "ground_truth.miss_addrs": sum(core.stats.app_misses for core in cores),
        "cache.instr_refs": sum(core.stats.instr_refs for core in cores),
        "mrc.refs": mrc_refs,
    }
    problems = {
        name: f"traced {metrics[name]:.0f} != ledger {want}"
        for name, want in expected.items()
        if metrics[name] != want
    }
    for problem in check_nesting(tracer.arrays()):
        problems.setdefault("spans", problem)
    return problems
