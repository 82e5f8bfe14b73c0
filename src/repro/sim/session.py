"""Resumable simulation sessions: the stateful core of the engine.

The paper's apparatus interleaves three things — application execution,
counter-overflow/timer interrupts, and the instrumentation code that runs
*inside* the simulation (§3). :class:`SimulationSession` makes that
interleaving an explicit object with a stepwise lifecycle::

    session = SimulationSession.start(workload, cache=..., monitor=...)
    session.attach([sampler, search])      # tools share the counter bank
    while session.step():                  # one chunk or one interrupt
        ...
    result = session.finalize()

Because every piece of run state (cache, monitor, clock, stats, ground
truth, tool state, stream cursor) lives on the session rather than in
engine locals, a run can be paused, serialised with :meth:`snapshot` and
continued later — on another process or after a crash — with
:meth:`restore`, producing results bit-identical to an uninterrupted
run. :class:`~repro.sim.engine.Simulator` is now a thin driver over this
class.

Multi-tool arbitration (§2.2's counter-resource trade-offs):

* the single *overflow counter* is exclusively owned — the first tool to
  arm it keeps it until it stops re-arming; a second tool arming while
  it is owned raises :class:`~repro.errors.CounterError` (there is only
  one such counter to give);
* the single hardware *timer* is time-multiplexed: the session keeps one
  virtual deadline per tool and programs the clock with the earliest,
  so a sampling profiler (overflow-driven) and an n-way search
  (timer-driven) can share one monitor;
* the region counter bank is shared cooperatively — tools program the
  counters they were told to use (``n`` for the search), exactly as
  §3.4's resource accounting assumes.

Snapshot invariants: the reference stream itself is *not* serialised —
workload generators are deterministic functions of their seed, so
:meth:`restore` rebuilds the workload and fast-forwards its block stream
to the recorded cursor, replaying allocation/free side effects into the
fresh object map. ``reprolint`` rule RPL501 cross-checks the snapshot
and per-core payloads against the :class:`SessionSnapshot` and
:class:`CoreState` fields so they cannot drift apart silently.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro import sanitize
from repro.cache import GroundTruth
from repro.cache.base import CacheModel
from repro.errors import CounterError, SimulationError
from repro.hpm.interrupts import CostModel, InterruptKind, InterruptRecord
from repro.hpm.monitor import PerformanceMonitor
from repro.memory.allocator import HeapAllocator
from repro.sim.clock import VirtualClock
from repro.sim.events import RunStats
from repro.sim.instrumentation import HandlerResult, InstrumentationTool, ToolContext
from repro.sim.observers import ChunkEvent, InterruptEvent, SessionObserver

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.blocks import ReferenceBlock
    from repro.workloads.base import Workload
    from repro.workloads.compile import CompiledStream

#: Version stamp embedded in every snapshot; bumped whenever the payload
#: layout changes so stale checkpoint files are refused, not misread.
#: v2: the pickled ``cache`` entry may now be a component stack
#: (Pipeline / mechanism decorators over leaf models — see
#: repro.cache.components) rather than a bare single- or two-level model.
#: v3: kernel snapshot tuples carry the RNG draw count (replay-auditable
#: eviction streams — see repro.sanitize.rng), so v2 checkpoints no
#: longer unpack and are refused by version.
#: v4: the payload gains a ``cores`` entry — None for single-core
#: sessions, a list of per-core :class:`CoreState` records for
#: :class:`MultiCoreSession` snapshots (the shared LLC is pickled once
#: through the per-core cache graphs; unpickling restores the shared
#: identity). v3 checkpoints are refused by version.
#: v5: one layout for every session — the payload is just ``version``,
#: ``workload_name`` and ``cores``, and a single-core snapshot is one
#: :class:`CoreState`. v4 checkpoints are refused by version.
SNAPSHOT_VERSION = 5


# ------------------------------------------------------------- dispatcher

class ToolDispatcher:
    """Arbitrates interrupt delivery and counter resources among tools.

    One dispatcher per session. Tools are indexed in attach order, which
    is also the tie-break order for simultaneous timer deadlines, so
    delivery is deterministic regardless of how many tools are attached.
    """

    def __init__(self) -> None:
        self.tools: list[InstrumentationTool] = []
        #: Whether each tool still receives interrupts (False after done).
        self.active: list[bool] = []
        #: Per-tool virtual timer deadline (None = that tool's timer off).
        self.deadlines: list[int | None] = []
        #: Index of the tool currently owning the overflow counter.
        self.overflow_owner: int | None = None
        #: Instrumentation cycles (delivery + handler) charged per tool.
        self.cycles_by_tool: dict[str, int] = {}

    def add(self, tool: InstrumentationTool) -> int:
        self.tools.append(tool)
        self.active.append(True)
        self.deadlines.append(None)
        self.cycles_by_tool.setdefault(tool.name, 0)
        return len(self.tools) - 1

    @property
    def any_active(self) -> bool:
        return any(self.active)

    def earliest_deadline(self) -> tuple[int, int] | None:
        """(deadline, tool index) of the next timer firing, or None."""
        best: tuple[int, int] | None = None
        for idx, deadline in enumerate(self.deadlines):
            if deadline is None or not self.active[idx]:
                continue
            if best is None or deadline < best[0]:
                best = (deadline, idx)
        return best

    def set_deadline(self, idx: int, cycle: int) -> None:
        self.deadlines[idx] = cycle

    def clear_deadline(self, idx: int) -> None:
        self.deadlines[idx] = None

    def claim_overflow(self, idx: int) -> None:
        """Grant the overflow counter to ``idx`` (exclusive, §2.2)."""
        if self.overflow_owner is not None and self.overflow_owner != idx:
            owner = self.tools[self.overflow_owner].name
            raise CounterError(
                f"overflow-counter contention: tool "
                f"{self.tools[idx].name!r} armed the overflow counter "
                f"while {owner!r} owns it (one conditional overflow "
                "counter exists; see DESIGN.md section 8)"
            )
        self.overflow_owner = idx

    def deactivate(self, idx: int, monitor: PerformanceMonitor) -> None:
        """Tool finished: stop delivery and release its counter resources."""
        self.active[idx] = False
        self.deadlines[idx] = None
        if self.overflow_owner == idx:
            monitor.overflow_counter.disarm()
            self.overflow_owner = None

    def charge(self, idx: int, cycles: int) -> None:
        name = self.tools[idx].name
        self.cycles_by_tool[name] = self.cycles_by_tool.get(name, 0) + cycles


# --------------------------------------------------------------- snapshot

@dataclass
class CoreState:
    """One core's slice of a :class:`SessionSnapshot`.

    Everything needed to continue the core's run is here *except* its
    reference stream: ``blocks_fetched``/``block_pos`` are the cursor
    into the workload's deterministic block generator, which
    :meth:`SimulationSession._resume` replays. The live objects (cache,
    monitor, clock, ground truth, dispatcher with its tools) are pickled
    as one graph so shared references — a tool context pointing at the
    session's cache, or every core's pipeline ending in one shared LLC —
    survive the round trip intact. A single-core session is one record
    with ``ratio`` 1 and nothing attributed.
    """

    core_id: int
    address_offset: int
    workload_name: str
    blocks_fetched: int
    block_pos: int | None
    cycle_carry: float
    refs_left: int | None
    chunk_size: int
    cost_model: CostModel
    clock: VirtualClock
    stats: RunStats
    cache: CacheModel
    monitor: PerformanceMonitor
    ground_truth: GroundTruth | None
    dispatcher: ToolDispatcher | None
    #: Interleaver weight: chunks this core advances per round-robin turn.
    ratio: int
    #: Accumulated per-object contention attribution (qualified names).
    self_by_object: dict[str, int]
    contention_by_object: dict[str, int]
    unattributed_self: int
    unattributed_contention: int


@dataclass
class SessionSnapshot:
    """Serialized mid-run state of a single- or multi-core session.

    ``cores`` holds one :class:`CoreState` per core, the next core to
    run first (the round-robin pointer is schedule state). Whether the
    snapshot is multi-core is read from the restored cache graph: the
    core pipelines of a :class:`MultiCoreSession` end in a
    :class:`~repro.cache.components.SharedLevelPort`.
    """

    version: int
    #: The run's label: the workload name, or ``mc(a+b)`` for N cores.
    workload_name: str
    cores: list[CoreState]

    @staticmethod
    def detached(workload_name: str, cores: list[CoreState]) -> "SessionSnapshot":
        """A snapshot of ``cores`` that no live session can mutate.

        The pickle round trip detaches it, so the session can keep
        running; RPL501 guards this payload and the :class:`CoreState`
        one against drifting from their dataclasses.
        """
        payload = {
            "version": SNAPSHOT_VERSION,
            "workload_name": workload_name,
            "cores": cores,
        }
        snap = SessionSnapshot(**payload)
        detached: SessionSnapshot = pickle.loads(
            pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL)
        )
        if sanitize.is_active():
            # Canary before anyone trusts this snapshot: a second
            # roundtrip must preserve cursors, stats and cache state.
            sanitize.snapshot_canary(detached)
        return detached

    # ------------------------------------------------------------ storage

    def save(self, path: str | os.PathLike[str]) -> Path:
        """Write the snapshot to ``path`` atomically (rename-into-place)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(self, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, target)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        return target

    @staticmethod
    def load(path: str | os.PathLike[str]) -> "SessionSnapshot":
        """Read a snapshot back; raises SimulationError on bad contents
        (truncated, empty, not a pickle, wrong type or version)."""
        with Path(path).open("rb") as fh:
            try:
                loaded = pickle.load(fh)
            except (
                # What pickle raises on malformed input (see its docs).
                pickle.UnpicklingError,
                EOFError,
                AttributeError,
                ImportError,
                IndexError,
                ValueError,
                TypeError,
            ) as exc:
                raise SimulationError(
                    f"{path} is not a readable snapshot: {exc!r}"
                ) from exc
        if not isinstance(loaded, SessionSnapshot):
            raise SimulationError(f"{path} does not contain a SessionSnapshot")
        if loaded.version != SNAPSHOT_VERSION:
            raise SimulationError(
                f"snapshot version {loaded.version} incompatible with "
                f"current format {SNAPSHOT_VERSION}"
            )
        return loaded


# ---------------------------------------------------------------- session

class SimulationSession:
    """One in-progress simulated run, stepwise and serialisable."""

    def __init__(
        self,
        workload: "Workload",
        *,
        cache: CacheModel,
        monitor: PerformanceMonitor,
        clock: VirtualClock | None = None,
        stats: RunStats | None = None,
        cost_model: CostModel | None = None,
        chunk_size: int = 1 << 15,
        ground_truth: GroundTruth | None = None,
        max_refs: int | None = None,
        observers: Sequence[SessionObserver] = (),
        core_id: int = 0,
    ) -> None:
        if chunk_size <= 0:
            raise SimulationError("chunk_size must be positive")
        self.workload = workload
        self.cache = cache
        #: Which core this session models (0 in single-core runs); stamped
        #: on observer events so one observer can ride every core of a
        #: :class:`MultiCoreSession`.
        self.core_id = core_id
        #: The core's :class:`~repro.cache.components.SharedLevelPort`
        #: when this session is one core of a multi-core run (its cache
        #: pipeline ends in one); used to surface per-chunk contention
        #: counts on :class:`ChunkEvent` and to refuse lone snapshots.
        self._shared_port = _shared_port(cache)
        if self._shared_port is not None:
            # Qualify object names by core, so per-object tallies from
            # different cores never collide.
            workload.object_map.namespace = f"c{core_id}"
        self.monitor = monitor
        self.clock = clock if clock is not None else VirtualClock()
        self.stats = stats if stats is not None else RunStats()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.chunk_size = chunk_size
        self.ground_truth = ground_truth
        #: Observers are transient by design: they are not serialised in
        #: snapshots and must be re-attached after restore.
        self.observers: list[SessionObserver] = list(observers)
        self.dispatcher: ToolDispatcher | None = None

        self._blocks: Iterator["ReferenceBlock"] | None = None
        self._compiled: "CompiledStream | None" = None
        self._block: "ReferenceBlock | None" = None
        self._blocks_fetched = 0
        self._pos = 0
        self._cycle_carry = 0.0
        self._refs_left = max_refs if max_refs is not None else None
        self._exhausted = False
        self._finalized = False
        self._shared_ctx: ToolContext | None = None

    # ------------------------------------------------------------ creation

    @classmethod
    def start(
        cls,
        workload: "Workload",
        *,
        cache: CacheModel,
        monitor: PerformanceMonitor,
        cost_model: CostModel | None = None,
        chunk_size: int = 1 << 15,
        ground_truth: bool = True,
        series_bucket_cycles: int | None = None,
        max_refs: int | None = None,
        observers: Sequence[SessionObserver] = (),
        compiled: "CompiledStream | None" = None,
        core_id: int = 0,
    ) -> "SimulationSession":
        """Begin a fresh run: prepare the workload and open its stream.

        A workload whose stream was already consumed by an earlier run is
        reset first, so back-to-back runs over one instance are
        deterministic (each sees a freshly built substrate).

        ``compiled`` substitutes a precompiled copy of the workload's
        reference stream (see :mod:`repro.workloads.compile`) for the
        generator: the session verifies its fingerprint against the live
        workload, then reads blocks from the frozen arrays. The workload
        is still prepared (ground truth and tools need its object map)
        but its generator never runs, and — when nothing needs per-chunk
        interleaving — :meth:`run` switches to a bulk path.
        """
        if workload.consumed:
            workload.reset()
        workload.prepare()
        if compiled is not None:
            cls._check_compiled(workload, compiled)
        gt: GroundTruth | None = None
        if ground_truth:
            gt = GroundTruth(workload.object_map)
            if series_bucket_cycles is not None:
                gt.enable_series(series_bucket_cycles)
        session = cls(
            workload,
            cache=cache,
            monitor=monitor,
            cost_model=cost_model,
            chunk_size=chunk_size,
            ground_truth=gt,
            max_refs=max_refs,
            observers=observers,
            core_id=core_id,
        )
        if compiled is not None:
            session._compiled = compiled
            session._blocks = compiled.iter_blocks()
        else:
            session._blocks = workload.blocks()
        return session

    @staticmethod
    def _check_compiled(workload: "Workload", compiled: "CompiledStream") -> None:
        """Refuse a compiled stream that does not match the live workload."""
        from repro.workloads.compile import stream_fingerprint

        if compiled.workload_name != workload.name:
            raise SimulationError(
                f"compiled stream is for workload "
                f"{compiled.workload_name!r}, got {workload.name!r}"
            )
        expected = stream_fingerprint(workload)
        if compiled.fingerprint != expected:
            raise SimulationError(
                f"compiled stream fingerprint {compiled.fingerprint[:12]}… "
                f"does not match this workload/code version "
                f"({expected[:12]}…); recompile the stream"
            )

    # -------------------------------------------------------------- attach

    def attach(
        self, tools: "InstrumentationTool | Iterable[InstrumentationTool] | None"
    ) -> None:
        """Attach instrumentation tools (in delivery-priority order).

        Each tool gets the shared :class:`ToolContext` (one monitor, one
        cache, one instrumentation-segment allocator) and its ``attach``
        arming requests are applied through the dispatcher's arbitration
        rules. Attaching after the run has started is an error — the
        paper's tools install themselves before the application runs.
        """
        if tools is None:
            return
        if isinstance(tools, InstrumentationTool):
            tools = [tools]
        tools = list(tools)
        if not tools:
            return
        if self.stats.app_refs > 0 or self._blocks_fetched > 0:
            raise SimulationError("tools must attach before the run starts")
        if self.dispatcher is None:
            self.dispatcher = ToolDispatcher()
        if self._shared_ctx is None:
            instr_alloc = HeapAllocator(self.workload.address_space.instr)
            self._shared_ctx = ToolContext(
                object_map=self.workload.object_map,
                monitor=self.monitor,
                cost_model=self.cost_model,
                address_space=self.workload.address_space,
                cache=self.cache,
                instr_allocator=instr_alloc,
            )
        for observer in self.observers:
            observer.on_attach(self)
        for tool in tools:
            idx = self.dispatcher.add(tool)
            tool.ctx = self._shared_ctx
            init = tool.attach(self._shared_ctx)
            self._apply_handler_result(idx, init)

    def add_observer(self, observer: SessionObserver) -> None:
        self.observers.append(observer)

    # ------------------------------------------------------------- running

    @property
    def finished(self) -> bool:
        """True once the stream is exhausted or ``max_refs`` was reached."""
        return self._exhausted or (
            self._refs_left is not None and self._refs_left <= 0
        )

    def step(self) -> bool:
        """Advance by one unit — one cache chunk or one interrupt delivery.

        Returns False once the application stream is done (after which
        :meth:`finalize` produces the :class:`~repro.sim.engine.RunResult`).
        """
        if self._finalized:
            raise SimulationError("session already finalized")
        # --- stream cursor bookkeeping -------------------------------
        # Mirrors the monolithic loop exactly: a completed block charges
        # its fixed extra_cycles *before* the max_refs cut is evaluated,
        # and a mid-block cut never charges them; the next block is only
        # fetched (running generator side effects like heap churn) when
        # the run is actually going to execute it.
        while True:
            if self._block is not None and self._pos >= len(self._block.addrs):
                self.clock.advance_app(self._block.extra_cycles)
                self._block = None
            if self._refs_left is not None and self._refs_left <= 0:
                return False
            if self._block is None:
                if self._blocks is None:
                    raise SimulationError(
                        "session has no open stream (use start/restore)"
                    )
                try:
                    self._block = next(self._blocks)
                except StopIteration:
                    self._exhausted = True
                    return False
                self._blocks_fetched += 1
                self._pos = 0
                continue
            break
        self._process_chunk()
        return True

    def run(
        self,
        max_steps: int | None = None,
        checkpoint_every_refs: int | None = None,
        on_checkpoint=None,
    ) -> bool:
        """Drive :meth:`step` until done (or for ``max_steps`` units).

        ``checkpoint_every_refs`` invokes ``on_checkpoint(snapshot)``
        each time that many further application references have been
        simulated — the hook :class:`~repro.experiments.parallel.ParallelRunner`
        uses to persist worker progress. Returns True when the run is
        complete.

        A virgin session over a compiled stream with nothing observing
        individual chunks (no tools, no observers, no max_refs, no
        ground-truth series, no checkpointing) runs through the bulk
        fused path instead of stepping — bit-identical results, far
        fewer Python-level iterations (DESIGN.md section 9).
        """
        if (
            max_steps is None
            and checkpoint_every_refs is None
            and self._fused_ready()
        ):
            self._run_fused()
            return True
        return _run_steps(
            self,
            lambda: self.stats.app_refs,
            max_steps,
            checkpoint_every_refs,
            on_checkpoint,
        )

    # ----------------------------------------------------------- fused path

    def _fused_ready(self) -> bool:
        """Whether the bulk compiled-stream path would be observably
        identical to stepping: nothing may depend on per-chunk
        interleaving (interrupts, observers, series timestamps, ref
        budgets) and the session must not have started yet."""
        return (
            self._compiled is not None
            and not self._finalized
            and not self._exhausted
            and self._blocks_fetched == 0
            and self._block is None
            and self._refs_left is None
            and self.dispatcher is None
            and not self.observers
            and self.stats.app_refs == 0
            and (self.ground_truth is None or self.ground_truth.series is None)
        )

    def _chunk_invariant_kernels(self) -> bool:
        """True when every cache level's results are independent of how
        the reference stream is partitioned into ``access`` calls.

        The one dependence is RANDOM replacement: the kernels' shared
        eviction pool refills are keyed on chunk length, so re-chunking
        changes the eviction stream. LRU/FIFO kernels are pure functions
        of the reference order. Mechanism-decorated stacks are invariant
        even under RANDOM: their scalar path refills the pool only when
        it runs empty, so draws depend on the eviction count alone.
        """
        from repro.cache.policies import ReplacementPolicy

        if self.cache.config.mechanisms:
            return True
        configs = [self.cache.config]
        l1 = getattr(self.cache, "l1_config", None)
        if l1 is not None:
            configs.append(l1)
        return all(c.policy is not ReplacementPolicy.RANDOM for c in configs)

    def _run_fused(self) -> None:
        """Drive the whole compiled stream through the cache in bulk.

        Bit-identity with the stepped path needs two things replayed
        exactly: RANDOM-policy chunk boundaries (see
        :meth:`_chunk_invariant_kernels`) and the float cycle-carry
        sequence, which does not telescope across chunk splits for
        non-dyadic ``cycles_per_ref`` — so the carries are recomputed
        per generator-path chunk in a cheap scalar loop even though the
        cache saw the references in bulk.
        """
        compiled = self._compiled
        assert compiled is not None
        invariant = self._chunk_invariant_kernels()
        chunk_size = self.chunk_size
        for addrs, writes, pieces in compiled.fused_groups(invariant):
            if invariant:
                self._fused_access(addrs, writes)
            else:
                for lo in range(0, len(addrs), chunk_size):
                    hi = lo + chunk_size
                    self._fused_access(
                        addrs[lo:hi],
                        writes[lo:hi] if writes is not None else None,
                    )
            carry = self._cycle_carry
            cycles = 0
            for n_refs, cycles_per_ref, extra_cycles in pieces:
                pos = 0
                while pos < n_refs:
                    take = min(chunk_size, n_refs - pos)
                    exact = take * cycles_per_ref + carry
                    whole = int(exact)
                    carry = exact - whole
                    cycles += whole
                    pos += take
                cycles += extra_cycles
            self._cycle_carry = carry
            self.clock.advance_app(cycles)
        self._blocks_fetched = len(compiled.blocks)
        self._blocks = iter(())
        self._exhausted = True

    def _fused_access(
        self, addrs: np.ndarray, writes: np.ndarray | None
    ) -> None:
        result = self.cache.access(addrs, miss_budget=None, tag="app", writes=writes)
        miss_addrs = addrs[result.miss_mask]
        self.monitor.observe(miss_addrs)
        if self.ground_truth is not None:
            self.ground_truth.observe(miss_addrs, cycle=self.clock.now)
        self.stats.app_refs += result.consumed
        self.stats.app_misses += result.n_misses

    # ---------------------------------------------------------- chunk body

    def _process_chunk(self) -> None:
        """Simulate one chunk of application references, or deliver the
        interrupt that precedes it; the exact transcription of the
        original engine loop body (interrupt points must stay precise)."""
        block = self._block
        assert block is not None
        addrs = block.addrs
        n = len(addrs)
        dispatcher = self.dispatcher
        tool_active = dispatcher is not None and dispatcher.any_active

        cap = min(n - self._pos, self.chunk_size)
        if self._refs_left is not None:
            cap = min(cap, self._refs_left)
        until_deadline = self.clock.cycles_until_deadline()
        if until_deadline is not None and tool_active:
            if until_deadline <= 0:
                self._deliver(InterruptKind.TIMER)
                return
            cap = min(cap, block.refs_within_cycles(until_deadline))
        miss_budget = self.monitor.misses_until_overflow() if tool_active else None
        if miss_budget is not None and miss_budget <= 0:
            # Overflow already pending (e.g. from handler pollution).
            self._deliver(InterruptKind.MISS_OVERFLOW)
            return

        chunk = addrs[self._pos : self._pos + cap]
        chunk_writes = (
            block.writes[self._pos : self._pos + cap]
            if block.writes is not None
            else None
        )
        port = self._shared_port
        contention_before = (
            port.contention.contention_misses if port is not None else 0
        )
        result = self.cache.access(
            chunk, miss_budget=miss_budget, tag="app", writes=chunk_writes
        )
        consumed = result.consumed
        miss_addrs = chunk[:consumed][result.miss_mask]
        self.monitor.observe(miss_addrs)
        if self.ground_truth is not None:
            self.ground_truth.observe(miss_addrs, cycle=self.clock.now)

        exact = consumed * block.cycles_per_ref + self._cycle_carry
        cycles = int(exact)
        self._cycle_carry = exact - cycles
        self.clock.advance_app(cycles)
        self.stats.app_refs += consumed
        self.stats.app_misses += result.n_misses
        self._pos += consumed
        if self._refs_left is not None:
            self._refs_left -= consumed

        if self.observers:
            event = ChunkEvent(
                cycle=self.clock.now,
                app_refs=consumed,
                n_misses=result.n_misses,
                miss_addrs=miss_addrs,
                block_label=block.label,
                total_app_refs=self.stats.app_refs,
                core_id=self.core_id,
                n_contention=(
                    port.contention.contention_misses - contention_before
                    if port is not None
                    else 0
                ),
            )
            for observer in self.observers:
                observer.on_chunk(event)

        # Both deliveries can follow one chunk (an overflow handler can run
        # the clock past a pending deadline) — sequential ifs, not elif.
        if dispatcher is not None and dispatcher.any_active and self.monitor.overflow_pending:
            self._deliver(InterruptKind.MISS_OVERFLOW)
        if dispatcher is not None and dispatcher.any_active and self.clock.timer_expired:
            self._deliver(InterruptKind.TIMER)

    # ------------------------------------------------------------ interrupts

    def _deliver(self, kind: InterruptKind) -> None:
        """Deliver one interrupt to the tool the dispatcher selects."""
        dispatcher = self.dispatcher
        assert dispatcher is not None
        if kind is InterruptKind.MISS_OVERFLOW:
            idx = dispatcher.overflow_owner
            if idx is None:
                raise SimulationError(
                    "overflow pending but no tool owns the overflow counter"
                )
            self.monitor.overflow_counter.disarm()
            dispatcher.overflow_owner = None
            tool = dispatcher.tools[idx]
            result = tool.on_miss_overflow(self.clock.now)
        else:
            expired = dispatcher.earliest_deadline()
            if expired is None:
                raise SimulationError("timer expired but no tool deadline set")
            _, idx = expired
            dispatcher.clear_deadline(idx)
            self._sync_clock_deadline()
            tool = dispatcher.tools[idx]
            result = tool.on_timer(self.clock.now)

        delivery = self.cost_model.interrupt_delivery_cycles
        self.clock.advance_instr(delivery + result.handler_cycles)
        dispatcher.charge(idx, delivery + result.handler_cycles)
        self.stats.interrupts.append(
            InterruptRecord(
                kind=kind,
                cycle=self.clock.now,
                handler_cycles=result.handler_cycles,
                delivery_cycles=delivery,
                tool=tool.name,
            )
        )
        self._apply_handler_result(idx, result)
        if self.observers:
            event = InterruptEvent(
                cycle=self.clock.now,
                kind=kind,
                tool=tool.name,
                handler_cycles=result.handler_cycles,
                delivery_cycles=delivery,
                core_id=self.core_id,
            )
            for observer in self.observers:
                observer.on_interrupt(event)

    def _apply_handler_result(self, idx: int, result: HandlerResult) -> None:
        """Run handler memory refs through the cache and apply arming
        (after a delivery, and for each tool's ``attach`` requests)."""
        dispatcher = self.dispatcher
        assert dispatcher is not None
        if result.mem_refs is not None and len(result.mem_refs):
            refs = np.ascontiguousarray(result.mem_refs, dtype=np.uint64)
            access = self.cache.access(refs, tag="instr")
            # Instrumentation misses pollute the hardware counters exactly
            # as they would on real hardware; ground truth (below the
            # architecture) excludes them by construction.
            instr_misses = refs[access.miss_mask]
            self.monitor.observe(instr_misses)
        if result.rearm_overflow is not None:
            dispatcher.claim_overflow(idx)
            self.monitor.overflow_counter.arm_overflow(result.rearm_overflow)
        if result.next_timer_in is not None:
            dispatcher.set_deadline(
                idx, self.clock.now + max(1, result.next_timer_in)
            )
        if result.done:
            dispatcher.deactivate(idx, self.monitor)
        self._sync_clock_deadline()

    def _sync_clock_deadline(self) -> None:
        """Program the single hardware timer with the earliest deadline."""
        if self.dispatcher is None:
            return
        earliest = self.dispatcher.earliest_deadline()
        self.clock.sync_deadline(earliest[0] if earliest is not None else None)

    # ------------------------------------------------------------- finalize

    def finalize(self):
        """Close the run and assemble the :class:`~repro.sim.engine.RunResult`."""
        from repro.sim.engine import RunResult

        if self._finalized:
            raise SimulationError("session already finalized")
        self._finalized = True
        # Freeze the totals at stream end: tool teardown below must not be
        # able to drift what this run reports as instrumentation activity.
        cache_stats = self.cache.stats.snapshot()
        ledgers = getattr(self.cache, "component_ledgers", None)
        component_stats = (
            [(name, stats.snapshot()) for name, stats in ledgers()]
            if ledgers is not None
            else None
        )
        tools = self.dispatcher.tools if self.dispatcher is not None else []
        for tool in tools:
            tool.on_run_end(self.clock.now)

        self.stats.app_cycles = self.clock.app_cycles
        self.stats.instr_cycles = self.clock.instr_cycles
        self.stats.instr_refs = cache_stats.accesses_by_tag.get("instr", 0)
        self.stats.instr_misses = cache_stats.misses_by_tag.get("instr", 0)
        if self.dispatcher is not None:
            self.stats.instr_cycles_by_tool = dict(
                self.dispatcher.cycles_by_tool
            )

        for observer in self.observers:
            observer.on_finalize(self)

        gt = self.ground_truth
        primary = tools[0] if tools else None
        return RunResult(
            workload_name=self.workload.name,
            cache_config=self.cache.config,
            stats=self.stats,
            actual=gt.profile() if gt is not None else None,
            measured=primary.profile() if primary is not None else None,
            series=gt.series if gt is not None else None,
            ground_truth=gt,
            tool=primary,
            tools=list(tools) if tools else None,
            cache_stats=cache_stats,
            component_stats=component_stats,
            core_id=self.core_id,
        )

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> SessionSnapshot:
        """Serialisable copy of the complete mid-run state: a detached
        one-core :class:`SessionSnapshot`."""
        if self._finalized:
            raise SimulationError("cannot snapshot a finalized session")
        if self._exhausted:
            raise SimulationError("cannot snapshot an exhausted session")
        if self._shared_port is not None:
            raise SimulationError(
                "this session is one core of a multi-core run; snapshot "
                "the MultiCoreSession instead (its payload serialises the "
                "shared LLC exactly once)"
            )
        return SessionSnapshot.detached(
            self.workload.name, [self._core_state(CoreContext(self))]
        )

    def _core_state(self, core: "CoreContext") -> CoreState:
        """This session's :class:`CoreState`, with the interleaver weight
        and contention attribution ``core`` has accumulated. The one
        place a core's state is recorded; RPL501 guards this payload
        against drifting from the dataclass.

        An exhausted core needs no extra state: its cursor already sits
        past its last block, so the resumed core's next step finds its
        stream ended and finishes exactly as the live one did.
        """
        payload = {
            "core_id": self.core_id,
            "address_offset": self.workload.address_offset,
            "workload_name": self.workload.name,
            "blocks_fetched": self._blocks_fetched,
            "block_pos": self._pos if self._block is not None else None,
            "cycle_carry": self._cycle_carry,
            "refs_left": self._refs_left,
            "chunk_size": self.chunk_size,
            "cost_model": self.cost_model,
            "clock": self.clock,
            "stats": self.stats,
            "cache": self.cache,
            "monitor": self.monitor,
            "ground_truth": self.ground_truth,
            "dispatcher": self.dispatcher,
            "ratio": core.ratio,
            "self_by_object": dict(core.self_by_object),
            "contention_by_object": dict(core.contention_by_object),
            "unattributed_self": core.unattributed_self,
            "unattributed_contention": core.unattributed_contention,
        }
        return CoreState(**payload)

    @classmethod
    def restore(
        cls,
        snapshot: "SessionSnapshot | str | os.PathLike[str]",
        workload: "Workload",
        observers: Sequence[SessionObserver] = (),
        compiled: "CompiledStream | None" = None,
    ) -> "SimulationSession":
        """Rebuild a running session from a snapshot and an equivalent
        workload instance (same name/construction parameters/seed).

        The workload's deterministic block stream is regenerated and
        fast-forwarded to the snapshot's cursor — replaying any mid-run
        allocation churn into the fresh object map — then the restored
        ground truth and tool contexts are re-bound to that live map so
        later allocations keep flowing into attribution.

        ``compiled`` fast-forwards over a precompiled stream instead of
        re-running the generator (compiled streams are churn-free by
        construction, so there are no side effects to replay). Snapshots
        do not record which stream source produced them: the two are
        bit-identical, so either may resume the other.
        """
        [core] = _restore_cores(
            snapshot, [workload], observers, [compiled], multicore=False
        )
        return core.session

    @classmethod
    def _resume(
        cls,
        state: CoreState,
        workload: "Workload",
        observers: Sequence[SessionObserver] = (),
        compiled: "CompiledStream | None" = None,
    ) -> "SimulationSession":
        """Rebuild one core's running session from its state record.

        ``compiled`` is the *unshifted* compilation; the core's address
        relocation is reapplied here, as :meth:`MultiCoreSession.start`
        applies it.
        """
        from repro.workloads.compile import offset_stream

        if workload.name != state.workload_name:
            raise SimulationError(
                f"snapshot is for workload {state.workload_name!r}, "
                f"got {workload.name!r}"
            )
        workload.address_offset = state.address_offset
        if workload.consumed:
            workload.reset()
        workload.prepare()
        if compiled is not None:
            compiled = offset_stream(compiled, state.address_offset)
            cls._check_compiled(workload, compiled)

        session = cls(
            workload,
            cache=state.cache,
            monitor=state.monitor,
            clock=state.clock,
            stats=state.stats,
            cost_model=state.cost_model,
            chunk_size=state.chunk_size,
            ground_truth=state.ground_truth,
            observers=observers,
            core_id=state.core_id,
        )
        session.dispatcher = state.dispatcher
        session._cycle_carry = state.cycle_carry
        session._refs_left = state.refs_left

        if compiled is not None:
            session._compiled = compiled
            blocks = compiled.iter_blocks()
        else:
            blocks = workload.blocks()
        block = None
        for _ in range(state.blocks_fetched):
            try:
                block = next(blocks)
            except StopIteration:
                raise SimulationError(
                    "snapshot cursor is beyond the regenerated stream; "
                    "workload parameters differ from the snapshotted run"
                ) from None
        session._blocks = blocks
        session._blocks_fetched = state.blocks_fetched
        if state.block_pos is not None:
            session._block = block
            session._pos = state.block_pos

        # Re-bind attribution and tool contexts to the regenerated live
        # substrate (the pickled copies froze at snapshot time and would
        # miss post-restore alloc/free events), carrying over the pending
        # probe counts — ephemeral map state the next handler is charged
        # for — from the snapshotted map.
        old_map = None
        if session.ground_truth is not None:
            old_map = session.ground_truth.object_map
            session.ground_truth.object_map = workload.object_map
        if session.dispatcher is not None:
            rebound: set[int] = set()
            for tool in session.dispatcher.tools:
                ctx = tool.ctx
                if ctx is not None and id(ctx) not in rebound:
                    rebound.add(id(ctx))
                    if old_map is None:
                        old_map = ctx.object_map
                    ctx.object_map = workload.object_map
                    ctx.address_space = workload.address_space
                if tool.ctx is not None and session._shared_ctx is None:
                    session._shared_ctx = tool.ctx
        if old_map is not None:
            workload.object_map.adopt_probe_counts(old_map)
        if sanitize.is_active():
            # The restored eviction streams must equal a replay of their
            # recorded draw counts; catches rewound/double-applied RNG
            # state at the restore boundary instead of as bit drift.
            sanitize.verify_cache_rng(session.cache)
        return session


# --------------------------------------------------------- shared lifecycle

def _shared_port(cache: CacheModel):
    """The :class:`~repro.cache.components.SharedLevelPort` a multi-core
    core's pipeline ends in, or None for a single-core cache."""
    from repro.cache.components import SharedLevelPort

    levels = getattr(cache, "levels", None)
    last = levels[-1] if levels else None
    return last if isinstance(last, SharedLevelPort) else None


def _run_steps(
    session: "SimulationSession | MultiCoreSession",
    app_refs,
    max_steps: int | None,
    checkpoint_every_refs: int | None,
    on_checkpoint,
) -> bool:
    """The stepped run loop and checkpoint cadence of both session kinds.

    Steps ``session`` until done (or for ``max_steps`` units), calling
    ``on_checkpoint(session.snapshot())`` each time ``app_refs()`` has
    grown by another ``checkpoint_every_refs``. Returns True when the
    run is complete.
    """
    next_ckpt = None
    if checkpoint_every_refs is not None:
        if checkpoint_every_refs <= 0:
            raise SimulationError("checkpoint_every_refs must be positive")
        if on_checkpoint is None:
            raise SimulationError(
                "checkpoint_every_refs needs an on_checkpoint callback"
            )
        next_ckpt = app_refs() + checkpoint_every_refs
    step = session.step
    steps = 0
    while max_steps is None or steps < max_steps:
        if not step():
            return True
        steps += 1
        if next_ckpt is not None and app_refs() >= next_ckpt:
            on_checkpoint(session.snapshot())
            next_ckpt = app_refs() + checkpoint_every_refs
    return session.finished


def _restore_cores(
    snapshot: "SessionSnapshot | str | os.PathLike[str]",
    workloads: "Sequence[Workload]",
    observers: Sequence[SessionObserver],
    compiled: "Sequence[CompiledStream | None] | None",
    *,
    multicore: bool,
) -> "list[CoreContext]":
    """Resume every core of ``snapshot``, next-to-run first.

    The one resume path behind both ``restore`` methods, which differ
    only in how many cores they accept and whether the restored core
    pipelines must end in a shared port. ``workloads`` and ``compiled``
    are in core-id order; the snapshot's ``cores`` list is rotated to
    encode the scheduler pointer, so the two are matched by core id.
    """
    if not isinstance(snapshot, SessionSnapshot):
        snapshot = SessionSnapshot.load(snapshot)
    states = snapshot.cores
    shared = [_shared_port(state.cache) is not None for state in states]
    if multicore and not (shared and all(shared)):
        raise SimulationError(
            "snapshot holds a single-core session; restore it with "
            "SimulationSession.restore"
        )
    if not multicore and shared != [False]:
        raise SimulationError(
            "snapshot holds a multi-core session; restore it with "
            "MultiCoreSession.restore"
        )
    workloads = list(workloads)
    compiled_list = [None] * len(states) if compiled is None else list(compiled)
    if len(workloads) != len(states) or len(compiled_list) != len(states):
        raise SimulationError(
            f"snapshot has {len(states)} cores but {len(workloads)} "
            f"workloads and {len(compiled_list)} compiled streams were supplied"
        )
    ids = sorted(state.core_id for state in states)
    if ids != list(range(len(states))):
        raise SimulationError(f"snapshot core ids {ids} are not contiguous")
    return [
        CoreContext(
            SimulationSession._resume(
                state,
                workloads[state.core_id],
                observers=observers,
                compiled=compiled_list[state.core_id],
            ),
            ratio=state.ratio,
            self_by_object=dict(state.self_by_object),
            contention_by_object=dict(state.contention_by_object),
            unattributed_self=state.unattributed_self,
            unattributed_contention=state.unattributed_contention,
        )
        for state in states
    ]


# ------------------------------------------------------------- multi-core

@dataclass
class CoreContext:
    """Everything private to one core of a :class:`MultiCoreSession`.

    The extraction the multi-core refactor is built on: workload, private
    cache pipeline (inside ``session.cache``), monitor, per-core run
    state and ground truth all live in the per-core
    :class:`SimulationSession`; this record adds the core's handle on the
    shared level (its :class:`~repro.cache.components.SharedLevelPort`),
    its interleaver weight and the per-object contention attribution
    accumulated so far.
    """

    session: SimulationSession
    #: Interleaver weight: chunks this core advances per round-robin turn.
    ratio: int = 1
    #: Shared-level misses attributed per object (namespace-qualified
    #: names, e.g. ``"c0:field"``), split by classification.
    self_by_object: dict[str, int] = field(default_factory=dict)
    contention_by_object: dict[str, int] = field(default_factory=dict)
    #: Classified misses whose address matched no live object (e.g. freed
    #: heap blocks) — kept so the per-core sums stay conserved.
    unattributed_self: int = 0
    unattributed_contention: int = 0

    def __post_init__(self) -> None:
        self.core_id = self.session.core_id
        self.workload = self.session.workload
        #: The core's port into the shared LLC (``session.cache.levels[-1]``).
        self.port = self.session._shared_port


class MultiCoreSession:
    """N private-cache cores time-sharing one shared last-level cache.

    The multiprocessor extension of :class:`SimulationSession` (the
    paper's §5 "future work" direction): each core is a complete
    single-core session — its own workload in a disjoint shifted address
    space, private L1, monitor, clock, ground truth — whose cache
    pipeline bottoms out in a :class:`~repro.cache.components.SharedLevelPort`
    onto one shared :class:`~repro.cache.components.SharedCacheLevel`.
    A deterministic round-robin interleaver advances the cores chunk by
    chunk (``ratios`` weights the schedule), so a run is a pure function
    of (workloads, configs, seeds, ratios) — snapshot/resume included.

    Every shared-level miss is classified against a per-core *shadow*
    model (the LLC as it would look if the core ran alone): a miss the
    shadow also takes is *self*; a miss the shadow would have hit is
    *contention* — induced by co-runners evicting this core's lines.
    :meth:`finalize` surfaces the classification per (core, object).

    With one core the interleaver is a no-op and the pipeline reduces to
    the single-core stack, so results are bit-identical to
    :class:`SimulationSession` over the same workload and seeds (a test
    pins this; see DESIGN.md section 13).
    """

    def __init__(self, cores: list[CoreContext], shared_level) -> None:
        if not cores:
            raise SimulationError("MultiCoreSession needs at least one core")
        self.cores = cores
        self.shared_level = shared_level
        self._next = 0
        self._finalized = False

    # ------------------------------------------------------------ creation

    @classmethod
    def start(
        cls,
        workloads: "Sequence[Workload]",
        *,
        llc_config,
        l1_config=None,
        backend: str | None = None,
        seed: int | None = None,
        n_region_counters: int = 10,
        multiplexed_counters: bool = False,
        cost_model: CostModel | None = None,
        chunk_size: int = 1 << 15,
        ground_truth: bool = True,
        series_bucket_cycles: int | None = None,
        max_refs: int | None = None,
        observers: Sequence[SessionObserver] = (),
        ratios: Sequence[int] | None = None,
        compiled: "Sequence[CompiledStream | None] | None" = None,
    ) -> "MultiCoreSession":
        """Open an N-core run over ``workloads`` sharing one LLC.

        Core *i*'s workload is relocated into its own address namespace
        (``i * CORE_STRIDE`` — a power-of-two stride, so line/set index
        bits are unchanged and co-runners genuinely contend for sets),
        gets a private L1 (when ``l1_config`` is set) seeded like the
        single-core two-level stack, and shares the one LLC through a
        per-core port. ``ratios[i]`` chunks of core *i* run per
        round-robin turn (default 1 each). ``compiled[i]`` replays a
        precompiled stream for core *i* — compiled against the *unshifted*
        workload; the relocation is applied here.

        ``max_refs`` bounds each core individually (the same budget the
        single-core session applies), so a 1-core multi-core run stays
        bit-identical to the session it reduces to.
        """
        from repro.cache.config import CacheConfigError
        from repro.cache.hierarchy import make_shared_level, core_pipeline
        from repro.memory.address_space import CORE_STRIDE
        from repro.workloads.compile import offset_stream

        workloads = list(workloads)
        for cfg in (llc_config, l1_config):
            if cfg is not None and cfg.mechanisms:
                raise CacheConfigError(
                    f"multi-core sessions do not support mechanism "
                    f"decorators yet (config has "
                    f"{'+'.join(m.describe() for m in cfg.mechanisms)}); "
                    "strip `mechanisms` from the shared/private configs"
                )
        if ratios is None:
            ratios = [1] * len(workloads)
        ratios = [int(r) for r in ratios]
        if len(ratios) != len(workloads):
            raise SimulationError(
                f"{len(workloads)} workloads but {len(ratios)} ratios"
            )
        if any(r < 1 for r in ratios):
            raise SimulationError(f"ratios must be >= 1, got {ratios}")
        compiled_list = [None] * len(workloads) if compiled is None else list(compiled)
        if len(compiled_list) != len(workloads):
            raise SimulationError(
                f"{len(workloads)} workloads but {len(compiled_list)} "
                "compiled streams"
            )
        cost = cost_model if cost_model is not None else CostModel()

        shared = make_shared_level(llc_config, backend=backend, seed=seed)
        cores: list[CoreContext] = []
        for core_id, workload in enumerate(workloads):
            offset = core_id * CORE_STRIDE
            # Set before start(): prepare() builds the shifted address
            # space, so the object map, ground truth and generated
            # addresses all live in the core's namespace from the start.
            workload.address_offset = offset
            pipeline = core_pipeline(
                shared, core_id, l1=l1_config, backend=backend, seed=seed
            )
            monitor = PerformanceMonitor(
                n_region_counters,
                multiplexed=multiplexed_counters,
                core_id=core_id,
            )
            stream = compiled_list[core_id]
            if stream is not None:
                stream = offset_stream(stream, offset)
            session = SimulationSession.start(
                workload,
                cache=pipeline,
                monitor=monitor,
                cost_model=cost,
                chunk_size=chunk_size,
                ground_truth=ground_truth,
                series_bucket_cycles=series_bucket_cycles,
                max_refs=max_refs,
                observers=observers,
                compiled=stream,
                core_id=core_id,
            )
            cores.append(CoreContext(session, ratio=ratios[core_id]))
        return cls(cores, shared)

    # -------------------------------------------------------------- running

    @property
    def name(self) -> str:
        """Joint workload name, e.g. ``"mc(compress+ijpeg)"``."""
        return "mc(" + "+".join(c.workload.name for c in self.cores) + ")"

    @property
    def finished(self) -> bool:
        return all(core.session.finished for core in self.cores)

    def total_app_refs(self) -> int:
        return sum(core.session.stats.app_refs for core in self.cores)

    def attach(self, tools, core: int = 0) -> None:
        """Attach instrumentation tools to one core (default core 0)."""
        self.cores[core].session.attach(tools)

    def step(self) -> bool:
        """Advance the next unfinished core by one scheduling turn.

        A turn is up to ``ratio`` single-core steps (chunks or interrupt
        deliveries) of one core; the interleaver then moves to the next
        core, skipping finished ones. Returns False once every core's
        stream is done.
        """
        if self._finalized:
            raise SimulationError("session already finalized")
        n = len(self.cores)
        for _ in range(n):
            core = self.cores[self._next]
            self._next = (self._next + 1) % n
            progressed = False
            for _ in range(core.ratio):
                if not core.session.step():
                    break
                progressed = True
                self._attribute(core)
            if progressed:
                return True
        return False

    def run(
        self,
        max_steps: int | None = None,
        checkpoint_every_refs: int | None = None,
        on_checkpoint=None,
    ) -> bool:
        """Drive :meth:`step` until every core finishes (or for
        ``max_steps`` turns); True when the run is complete.

        ``checkpoint_every_refs`` invokes ``on_checkpoint(snapshot)``
        each time the *combined* reference count grows by that many,
        under the single-core run loop's cadence and validation.
        """
        return _run_steps(
            self,
            self.total_app_refs,
            max_steps,
            checkpoint_every_refs,
            on_checkpoint,
        )

    # ---------------------------------------------------------- attribution

    def _attribute(self, core: CoreContext) -> None:
        """Drain the core's classified shared-level misses into per-object
        tallies, against the object map as it stands *now* (the addresses
        were classified at most one chunk ago, so heap churn cannot have
        moved them more than one chunk's worth of allocations)."""
        pending = core.port.drain_classified()
        if not pending:
            return
        object_map = core.workload.object_map
        snap = object_map.snapshot()
        for self_addrs, contention_addrs in pending:
            core.unattributed_self += self._tally(
                snap, object_map, self_addrs, core.self_by_object
            )
            core.unattributed_contention += self._tally(
                snap, object_map, contention_addrs, core.contention_by_object
            )

    @staticmethod
    def _tally(snap, object_map, addrs, dest: dict[str, int]) -> int:
        """Add per-object counts of ``addrs`` into ``dest``; returns the
        number of addresses that matched no live object."""
        if len(addrs) == 0:
            return 0
        counts = snap.count_by_object(addrs)
        attributed = 0
        for obj, count in zip(snap.objects, counts):
            if count:
                name = object_map.qualify(obj.name)
                dest[name] = dest.get(name, 0) + int(count)
                attributed += int(count)
        return int(len(addrs)) - attributed

    def _profile(self, core: CoreContext):
        from repro.cache.contention import ContentionProfile

        return ContentionProfile(
            ledger=core.port.contention.snapshot(),
            self_by_object=dict(core.self_by_object),
            contention_by_object=dict(core.contention_by_object),
            unattributed_self=core.unattributed_self,
            unattributed_contention=core.unattributed_contention,
        )

    # ------------------------------------------------------------- finalize

    def finalize(self):
        """Finalize every core and assemble the aggregate result.

        The aggregate :class:`~repro.sim.engine.RunResult` sums reference
        and miss counts across cores, reports the *makespan* (the slowest
        core's total cycles — per-core clocks advance independently, so
        cycle sums would double-count wall time) in ``stats.app_cycles``,
        carries the shared LLC's aggregate ledger in ``cache_stats`` and
        lists every per-core result (each with its own
        :class:`~repro.cache.contention.ContentionProfile`) in ``cores``.
        """
        from repro.cache.contention import ContentionLedger, ContentionProfile
        from repro.sim.engine import RunResult

        if self._finalized:
            raise SimulationError("session already finalized")
        self._finalized = True
        results = []
        for core in self.cores:
            self._attribute(core)  # drain any classified misses left over
            result = core.session.finalize()
            result.contention = self._profile(core)
            results.append(result)

        merged_ledger = ContentionLedger()
        merged_self: dict[str, int] = {}
        merged_contention: dict[str, int] = {}
        unattr_self = 0
        unattr_contention = 0
        for result in results:
            profile = result.contention
            ledger = profile.ledger
            merged_ledger.self_misses += ledger.self_misses
            merged_ledger.contention_misses += ledger.contention_misses
            merged_ledger.rescued_misses += ledger.rescued_misses
            for tag, n in ledger.self_by_tag.items():
                merged_ledger.self_by_tag[tag] = (
                    merged_ledger.self_by_tag.get(tag, 0) + n
                )
            for tag, n in ledger.contention_by_tag.items():
                merged_ledger.contention_by_tag[tag] = (
                    merged_ledger.contention_by_tag.get(tag, 0) + n
                )
            # Names are namespace-qualified per core, so merges never
            # collide across cores.
            merged_self.update(profile.self_by_object)
            merged_contention.update(profile.contention_by_object)
            unattr_self += profile.unattributed_self
            unattr_contention += profile.unattributed_contention

        stats = RunStats(
            app_refs=sum(r.stats.app_refs for r in results),
            app_misses=sum(r.stats.app_misses for r in results),
            instr_refs=sum(r.stats.instr_refs for r in results),
            instr_misses=sum(r.stats.instr_misses for r in results),
            # Makespan: cores run concurrently, so the aggregate elapsed
            # time is the slowest core's clock, not the sum.
            app_cycles=max(r.stats.app_cycles for r in results),
            instr_cycles=max(r.stats.instr_cycles for r in results),
        )
        component_stats = [("llc", self.shared_level.stats.snapshot())]
        for core, result in zip(self.cores, results):
            if result.component_stats:
                component_stats.extend(
                    (f"c{core.core_id}.{label}", stats_snapshot)
                    for label, stats_snapshot in result.component_stats
                )
        return RunResult(
            workload_name=self.name,
            cache_config=self.shared_level.config,
            stats=stats,
            cache_stats=self.shared_level.stats.snapshot(),
            component_stats=component_stats,
            contention=ContentionProfile(
                ledger=merged_ledger,
                self_by_object=merged_self,
                contention_by_object=merged_contention,
                unattributed_self=unattr_self,
                unattributed_contention=unattr_contention,
            ),
            cores=results,
        )

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> SessionSnapshot:
        """Serialisable copy of the whole machine's mid-run state.

        One :class:`SessionSnapshot` whose ``cores`` list carries a
        :class:`CoreState` per core, rotated so the next core to run
        comes first (the round-robin pointer is schedule state).
        Pickling everything as one graph serialises the shared LLC leaf
        exactly once — unpickling rebuilds it as one object every port
        references, preserving the shared identity.
        """
        if self._finalized:
            raise SimulationError("cannot snapshot a finalized session")
        for core in self.cores:
            # Classified addresses still pending attribution would be
            # lost by a snapshot (the arrays are drained, not pickled);
            # fold them into the per-object tallies first.
            self._attribute(core)
        order = self.cores[self._next :] + self.cores[: self._next]
        return SessionSnapshot.detached(
            self.name, [core.session._core_state(core) for core in order]
        )

    @classmethod
    def restore(
        cls,
        snapshot: "SessionSnapshot | str | os.PathLike[str]",
        workloads: "Sequence[Workload]",
        observers: Sequence[SessionObserver] = (),
        compiled: "Sequence[CompiledStream | None] | None" = None,
    ) -> "MultiCoreSession":
        """Rebuild a running multi-core session from a snapshot.

        ``workloads`` must be equivalent instances (same construction
        parameters) of the snapshotted co-runners, in core order.
        ``compiled`` streams, when given, are again the *unshifted*
        compilations; per-core relocation is reapplied on resume. The
        interleaver restarts at the snapshot's first core, so restart
        order matches the interrupted schedule exactly.
        """
        resumed = _restore_cores(
            snapshot, workloads, observers, compiled, multicore=True
        )
        first = resumed[0]
        shared = first.port.shared_level
        if any(core.port.shared_level is not shared for core in resumed):
            raise SimulationError(
                "restored cores do not share one LLC; the snapshot "
                "graph lost the shared identity"
            )
        restored = cls(sorted(resumed, key=lambda core: core.core_id), shared)
        restored._next = first.core_id
        return restored
