"""Parallel experiment execution over a declarative task grid.

The paper's evaluation is a grid of *independent* simulation runs —
workloads x sampling periods x search configurations — so instead of
executing cells serially inside one process, this module describes each
cell as a :class:`TaskSpec` (workload + kwargs, simulator knobs, tool
knobs, seed) and fans the grid out over ``ProcessPoolExecutor`` workers.
Because every cell is a pure function of its spec, parallel and serial
execution produce bit-identical results, and specs double as cache keys
for the on-disk :class:`~repro.experiments.cache_store.ResultCache`.

Per-task seeds for replicated grids are derived deterministically from
``(config hash, workload, task index)`` so a grid is reproducible
regardless of how many workers execute it or in what order cells finish.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

from repro.cache import CacheConfig
from repro.core.adaptive import AdaptiveSamplingProfiler
from repro.core.sampling import SamplingProfiler
from repro.core.search import NWaySearch
from repro.errors import SimulationError
from repro.experiments.cache_store import (
    Manifest,
    ResultCache,
    code_version_tag,
    stable_hash,
)
from repro.hpm.interrupts import CostModel
from repro.sim.engine import RunResult, Simulator
from repro.sim.session import (
    SNAPSHOT_VERSION,
    MultiCoreSession,
    SessionSnapshot,
    SimulationSession,
)
from repro.workloads.compile import StreamCompileError, compiled_stream_for
from repro.workloads.registry import make_workload

__all__ = [
    "SimSpec",
    "MultiCoreSpec",
    "ToolSpec",
    "TaskSpec",
    "CheckpointPolicy",
    "ParallelRunner",
    "execute_task",
    "derive_task_seed",
    "expand_grid",
    "strip_result",
]


# ------------------------------------------------------------------ specs

@dataclass
class MultiCoreSpec:
    """Declarative multi-core run: co-runners sharing one LLC.

    Attached to :attr:`SimSpec.multicore`. The task's ``workload`` is
    core 0; ``co_runners`` name the workloads of cores 1..N-1 (with
    optional per-co-runner constructor kwargs). The shared LLC geometry
    is ``SimSpec.cache`` and the per-core private L1 is ``SimSpec.l1``.
    ``ratios`` weights the round-robin interleaver (one entry per core,
    including core 0; None means one chunk each per turn).

    Hashing: :class:`SimSpec` is hashed field-by-field by
    :func:`~repro.experiments.cache_store.canonical`, which recurses
    into nested dataclasses — so every field here (co-runner set, their
    kwargs, the schedule) reaches the result-cache key automatically,
    and changing any of them can never serve a stale cached result.
    """

    co_runners: tuple = ()
    #: Constructor kwargs per co-runner (dicts, parallel to
    #: ``co_runners``; missing trailing entries default to {}).
    co_runner_kwargs: tuple = ()
    ratios: tuple | None = None

    def __post_init__(self) -> None:
        self.co_runners = tuple(self.co_runners)
        kwargs = tuple(dict(k) for k in self.co_runner_kwargs)
        if len(kwargs) > len(self.co_runners):
            raise SimulationError(
                f"{len(kwargs)} co_runner_kwargs for "
                f"{len(self.co_runners)} co_runners"
            )
        kwargs += tuple({} for _ in range(len(self.co_runners) - len(kwargs)))
        self.co_runner_kwargs = kwargs
        if self.ratios is not None:
            self.ratios = tuple(int(r) for r in self.ratios)
            if len(self.ratios) != self.n_cores:
                raise SimulationError(
                    f"{self.n_cores} cores but {len(self.ratios)} ratios "
                    "(ratios cover every core, including core 0)"
                )

    @property
    def n_cores(self) -> int:
        return 1 + len(self.co_runners)


@dataclass
class SimSpec:
    """Declarative :class:`~repro.sim.engine.Simulator` configuration.

    The cache kernel backend rides along in ``cache.backend`` (and
    ``l1.backend``): :func:`~repro.experiments.cache_store.canonical`
    hashes dataclasses field-by-field, so backend choice is part of every
    task's cache key even though backends are bit-identical — a cached
    result therefore always records which kernel produced it.
    """

    cache: CacheConfig = field(default_factory=CacheConfig)
    n_region_counters: int = 10
    multiplexed_counters: bool = False
    cost_model: CostModel = field(default_factory=CostModel)
    chunk_size: int = 1 << 15
    l1: CacheConfig | None = None
    prefetch_next_line: bool = False
    #: Lower workloads to precompiled reference streams before running
    #: (repro.workloads.compile). Bit-identical to the generator path,
    #: but — like ``backend`` — folded into every task key so a cached
    #: result records how it was produced. The on-disk stream cache
    #: location is a runtime concern (ParallelRunner/ExperimentRunner
    #: pass it alongside, outside the key).
    compile_streams: bool = False
    #: Co-runner matrix: when set, the task runs as a
    #: :class:`~repro.sim.session.MultiCoreSession` (the task's workload
    #: on core 0, the spec's co-runners beside it, ``cache`` as the
    #: shared LLC and ``l1`` as each core's private cache). Hashed into
    #: the task key like every other field.
    multicore: "MultiCoreSpec | None" = None

    def build(self, seed: int | None) -> Simulator:
        if self.multicore is not None:
            raise SimulationError(
                "multi-core specs run through MultiCoreSession "
                "(execute_task dispatches on sim.multicore), not Simulator"
            )
        return Simulator(
            cache_config=self.cache,
            n_region_counters=self.n_region_counters,
            multiplexed_counters=self.multiplexed_counters,
            cost_model=self.cost_model,
            seed=seed,
            chunk_size=self.chunk_size,
            l1_config=self.l1,
            prefetch_next_line=self.prefetch_next_line,
            compile_streams=self.compile_streams,
        )


#: Populated once at import time (RPL704): a worker must see the exact
#: registry the parent saw before the fork, never a partially-imported
#: module graph assembled concurrently inside each worker.
_TOOL_FACTORIES = {
    "sampling": SamplingProfiler,
    "search": NWaySearch,
    "adaptive": AdaptiveSamplingProfiler,
}


def _tool_factories() -> dict:
    return _TOOL_FACTORIES


@dataclass
class ToolSpec:
    """Declarative instrumentation-tool configuration.

    ``kind`` selects the factory ("sampling", "search" or "adaptive");
    ``kwargs`` are passed to its constructor verbatim. Keeping tools as
    data (not instances) is what lets a worker process rebuild the tool
    and lets the cache key cover its exact configuration.
    """

    kind: str
    kwargs: dict = field(default_factory=dict)

    def build(self):
        factories = _tool_factories()
        try:
            factory = factories[self.kind]
        except KeyError:
            raise SimulationError(
                f"unknown tool kind {self.kind!r}; "
                f"available: {', '.join(factories)}"
            ) from None
        return factory(**self.kwargs)


#: TaskSpec fields deliberately excluded from the result-cache key.
#: Only display/bookkeeping fields belong here — anything that changes
#: simulated behaviour MUST be hashed, and both reprolint (RPL201) and
#: the runtime guard in :meth:`TaskSpec.key` cross-check this set
#: against the dataclass fields.
_KEY_EXEMPT_FIELDS = frozenset({"label"})


@dataclass
class TaskSpec:
    """One grid cell: everything needed to reproduce a single run."""

    workload: str
    workload_kwargs: dict = field(default_factory=dict)
    seed: int | None = None
    tool: ToolSpec | None = None
    max_refs: int | None = None
    series_bucket_cycles: int | None = None
    sim: SimSpec = field(default_factory=SimSpec)
    #: Display label for manifests/progress; not part of the cache key.
    label: str = ""

    def key(self) -> str:
        """Stable content hash identifying this cell's result.

        Refuses to hash a spec whose dataclass fields have drifted from
        the payload below: a field that is neither hashed nor listed in
        ``_KEY_EXEMPT_FIELDS`` would silently serve stale cached results
        for every new value it takes.
        """
        payload = {
            "workload": self.workload,
            "workload_kwargs": self.workload_kwargs,
            "seed": self.seed,
            "tool": None
            if self.tool is None
            else {"kind": self.tool.kind, "kwargs": self.tool.kwargs},
            "max_refs": self.max_refs,
            "series_bucket_cycles": self.series_bucket_cycles,
            "sim": self.sim,
            "version": code_version_tag(),
        }
        unhashed = (
            {f.name for f in dataclasses.fields(self)}
            - payload.keys()
            - _KEY_EXEMPT_FIELDS
        )
        if unhashed:
            raise SimulationError(
                f"TaskSpec field(s) {sorted(unhashed)} are not part of the "
                "result-cache key; add them to the key() payload or, if "
                "they provably never affect results, to _KEY_EXEMPT_FIELDS"
            )
        return stable_hash(payload)

    def describe(self) -> str:
        if self.label:
            return self.label
        tool = "baseline" if self.tool is None else self.tool.kind
        return f"{self.workload}/{tool}"


def derive_task_seed(config_hash: str, workload: str, index: int) -> int:
    """Deterministic per-task seed from (config hash, workload, index).

    Stable across processes, Python versions and worker scheduling, so a
    replicated grid always runs the same per-cell seeds.
    """
    digest = hashlib.sha256(
        f"{config_hash}|{workload}|{index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1)


def expand_grid(
    workloads: list[tuple[str, dict]],
    tools: list[ToolSpec | None],
    sim: SimSpec | None = None,
    replicas: int = 1,
    seed: int | None = None,
) -> list[TaskSpec]:
    """The full workload x tool (x replica) grid as task specs.

    When ``seed`` is None, each cell gets a deterministic seed derived
    from the grid configuration hash, its workload and its cell index;
    passing an explicit ``seed`` pins every cell to it (the paper-grid
    convention, where the seed is part of the experiment definition).
    """
    sim = sim or SimSpec()
    config_hash = stable_hash(
        {
            "workloads": [[name, kwargs] for name, kwargs in workloads],
            "tools": [
                None if t is None else {"kind": t.kind, "kwargs": t.kwargs}
                for t in tools
            ],
            "sim": sim,
            "replicas": replicas,
        }
    )
    specs = []
    index = 0
    for name, kwargs in workloads:
        for tool in tools:
            for _ in range(replicas):
                task_seed = (
                    seed
                    if seed is not None
                    else derive_task_seed(config_hash, name, index)
                )
                specs.append(
                    TaskSpec(
                        workload=name,
                        workload_kwargs=dict(kwargs),
                        seed=task_seed,
                        tool=dataclasses.replace(tool) if tool else None,
                        sim=sim,
                    )
                )
                index += 1
    return specs


# ------------------------------------------------------------ checkpoints

@dataclass
class CheckpointPolicy:
    """Where and how often workers persist mid-run session snapshots.

    One checkpoint file per grid cell, named by the cell's result-cache
    key, so checkpoint identity inherits everything the result key
    covers — spec contents *and* the code version tag (which itself
    covers ``sim/session.py``, so a snapshot-format change can never be
    resumed by incompatible code). Each file additionally embeds the key,
    tag and :data:`~repro.sim.session.SNAPSHOT_VERSION` and is silently
    discarded on any mismatch or corruption: a stale checkpoint degrades
    to recomputation, never to a wrong result.
    """

    root: Path
    #: Application references simulated between checkpoint writes.
    every_refs: int = 1 << 21

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if self.every_refs <= 0:
            raise SimulationError("every_refs must be positive")

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.ckpt"

    def save(self, key: str, snapshot: SessionSnapshot) -> Path:
        """Persist one snapshot atomically (rename-into-place)."""
        payload = {
            "task_key": key,
            "code_version": code_version_tag(),
            "snapshot_version": SNAPSHOT_VERSION,
            "snapshot": snapshot,
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        return path

    def load(self, key: str) -> SessionSnapshot | None:
        """The resumable snapshot for ``key``, or None (stale/corrupt
        files are deleted so they are only ever probed once)."""
        path = self.path_for(key)
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            path.unlink(missing_ok=True)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("task_key") != key
            or payload.get("code_version") != code_version_tag()
            or payload.get("snapshot_version") != SNAPSHOT_VERSION
            or not isinstance(payload.get("snapshot"), SessionSnapshot)
        ):
            path.unlink(missing_ok=True)
            return None
        return payload["snapshot"]

    def discard(self, key: str) -> None:
        self.path_for(key).unlink(missing_ok=True)


# -------------------------------------------------------------- execution

def strip_result(result: RunResult) -> RunResult:
    """A cacheable copy of ``result``: drop the live ground-truth and
    tool objects (they hold simulator internals), keep every field the
    experiment drivers read (stats, actual/measured profiles, series,
    contention). Multi-core aggregates are stripped recursively — each
    per-core result in ``cores`` holds its own ground truth and tools."""
    stripped = dataclasses.replace(
        result, ground_truth=None, tool=None, tools=None
    )
    if stripped.cores is not None:
        stripped.cores = [strip_result(r) for r in stripped.cores]
    return stripped


def execute_task(
    spec: TaskSpec,
    checkpoint: CheckpointPolicy | None = None,
    stream_cache_dir: str | None = None,
) -> RunResult:
    """Run one grid cell to completion (pure function of the spec).

    With a :class:`CheckpointPolicy`, the run resumes from the cell's
    checkpoint when a valid one exists (a preempted or crashed worker
    left it behind), writes fresh checkpoints every ``every_refs``
    simulated references, and removes the file once the cell completes —
    results are bit-identical either way. ``stream_cache_dir`` hosts the
    compiled-stream cache when ``spec.sim.compile_streams`` is on; it is
    machine-local and deliberately outside the task key.

    Specs with ``sim.multicore`` run the workload and its co-runners
    through a :class:`~repro.sim.session.MultiCoreSession` instead of a
    single-core session — same checkpoint/resume and stream-compilation
    contract, one aggregate result with per-core results (and contention
    profiles) in ``result.cores``. Every core's workload is built with
    the task seed, and its stream is compiled *unshifted* (so the stream
    cache is shared with single-core runs of the same workload).
    """
    mc = spec.sim.multicore
    co_runners = zip(mc.co_runners, mc.co_runner_kwargs) if mc is not None else ()
    workloads = [
        make_workload(spec.workload, seed=spec.seed, **spec.workload_kwargs)
    ] + [make_workload(name, seed=spec.seed, **kwargs) for name, kwargs in co_runners]
    compiled = [
        _compiled_or_none(workload, stream_cache_dir)
        if spec.sim.compile_streams
        else None
        for workload in workloads
    ]
    key = spec.key() if checkpoint is not None else None
    snapshot = checkpoint.load(key) if checkpoint is not None else None
    try:
        session = _open_session(spec, workloads, compiled, snapshot)
    except SimulationError:
        if snapshot is None:
            raise
        checkpoint.discard(key)
        session = _open_session(spec, workloads, compiled, None)
    if checkpoint is not None:
        session.run(
            checkpoint_every_refs=checkpoint.every_refs,
            on_checkpoint=lambda snap: checkpoint.save(key, snap),
        )
    else:
        session.run()
    result = session.finalize()
    if checkpoint is not None:
        checkpoint.discard(key)
    return strip_result(result)


def _compiled_or_none(workload, stream_cache_dir: str | None):
    try:
        return compiled_stream_for(workload, stream_cache_dir)
    except StreamCompileError:
        return None


def _open_session(
    spec: TaskSpec,
    workloads: list,
    compiled: list,
    snapshot: SessionSnapshot | None,
) -> SimulationSession | MultiCoreSession:
    """The cell's session: restored from ``snapshot`` when one is given
    (raising SimulationError when it does not fit), otherwise started."""
    mc = spec.sim.multicore
    tool = spec.tool.build() if spec.tool is not None else None
    if mc is None:
        if snapshot is not None:
            return SimulationSession.restore(
                snapshot, workloads[0], compiled=compiled[0]
            )
        return spec.sim.build(spec.seed).start_session(
            workloads[0],
            tool=tool,
            series_bucket_cycles=spec.series_bucket_cycles,
            max_refs=spec.max_refs,
            compiled=compiled[0],
        )
    if spec.sim.prefetch_next_line:
        raise SimulationError(
            "multi-core sessions do not support prefetch_next_line; "
            "drop it from the SimSpec or run single-core"
        )
    if snapshot is not None:
        return MultiCoreSession.restore(snapshot, workloads, compiled=compiled)
    session = MultiCoreSession.start(
        workloads,
        llc_config=spec.sim.cache,
        l1_config=spec.sim.l1,
        backend=None,
        seed=spec.seed,
        n_region_counters=spec.sim.n_region_counters,
        multiplexed_counters=spec.sim.multiplexed_counters,
        cost_model=spec.sim.cost_model,
        chunk_size=spec.sim.chunk_size,
        series_bucket_cycles=spec.series_bucket_cycles,
        max_refs=spec.max_refs,
        ratios=mc.ratios,
        compiled=compiled,
    )
    session.attach(tool)
    return session


def _timed_execute(
    spec: TaskSpec,
    checkpoint: CheckpointPolicy | None = None,
    stream_cache_dir: str | None = None,
) -> tuple[RunResult, float]:
    """Worker entry point: execute and report wall-clock seconds."""
    t0 = time.perf_counter()
    result = execute_task(spec, checkpoint, stream_cache_dir)
    return result, time.perf_counter() - t0


class ParallelRunner:
    """Executes task grids across processes, through the result cache.

    * Cells already in the cache are served from disk (recorded as hits
      in the manifest) without touching the pool.
    * Remaining cells are deduplicated by key — a grid that names the
      same cell twice simulates it once — and fanned out over up to
      ``jobs`` worker processes (``jobs=1`` executes inline, which is
      also the fallback when only one cell is pending).
    * Results come back in input order, bit-identical to serial
      execution, and every cell is appended to the manifest.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        manifest: Manifest | None = None,
        checkpoints: CheckpointPolicy | None = None,
        stream_cache_dir: "str | os.PathLike | None" = None,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.cache = cache
        self.manifest = manifest if manifest is not None else Manifest()
        #: When set, workers checkpoint mid-run and resume preempted cells.
        self.checkpoints = checkpoints
        #: Compiled-stream cache root handed to workers (used only by
        #: specs with ``sim.compile_streams=True``).
        self.stream_cache_dir = (
            str(stream_cache_dir) if stream_cache_dir is not None else None
        )

    def run(self, specs: list[TaskSpec]) -> list[RunResult]:
        results: list[RunResult | None] = [None] * len(specs)
        pending: dict[str, list[int]] = {}
        for i, spec in enumerate(specs):
            key = spec.key()
            if key in pending:
                pending[key].append(i)
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[i] = cached
                self._log(spec, key, cached=True, wall_s=0.0)
            else:
                pending[key] = [i]

        unique = [(key, specs[idxs[0]]) for key, idxs in pending.items()]
        if self.jobs > 1 and len(unique) > 1:
            self._run_pool(unique, pending, results)
        else:
            for key, spec in unique:
                result, wall = _timed_execute(
                    spec, self.checkpoints, self.stream_cache_dir
                )
                self._finish(key, spec, result, wall, pending, results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------ internal

    def _run_pool(self, unique, pending, results) -> None:
        workers = min(self.jobs, len(unique))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    _timed_execute, spec, self.checkpoints, self.stream_cache_dir
                ): (key, spec)
                for key, spec in unique
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in done:
                    key, spec = futures[future]
                    result, wall = future.result()
                    self._finish(key, spec, result, wall, pending, results)

    def _finish(self, key, spec, result, wall_s, pending, results) -> None:
        if self.cache is not None:
            self.cache.put(key, result)
        for idx in pending[key]:
            results[idx] = result
        self._log(spec, key, cached=False, wall_s=wall_s)

    def _log(self, spec: TaskSpec, key: str, *, cached: bool, wall_s: float):
        self.manifest.record(
            task=spec.describe(),
            workload=spec.workload,
            seed=spec.seed,
            key=key,
            cached=cached,
            wall_s=wall_s,
        )
