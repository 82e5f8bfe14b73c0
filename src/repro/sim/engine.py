"""The simulation engine: drives workload references through the cache,
counters and instrumentation.

This is the reproduction of the paper's experimental apparatus: load/store
streams advance a virtual cycle clock and a simulated set-associative
cache; hardware counters observe the resulting misses; when a counter
overflows or the timer expires, the instrumentation tool's handler runs
*inside* the simulation — its cycles are charged to the clock and its own
memory references go through the same cache, so both overhead (Figure 4)
and perturbation (Figure 3) are measurable.

The run loop itself lives in :class:`~repro.sim.session.SimulationSession`
(which is exact about interrupt points: the cache's ``miss_budget`` stops
processing at the precise reference whose miss overflows the counter, so
the monitor's last-miss-address register holds the true triggering
address). :class:`Simulator` is the thin configuration-holding driver:
it builds the cache/monitor pair for its configured geometry, opens a
session, steps it to completion and finalizes. Callers that need
pause/resume, multiple tools or live observers use
:meth:`Simulator.start_session` and drive the session themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.cache import CacheConfig, CacheStats, GroundTruth, make_cache
from repro.errors import SimulationError
from repro.hpm.interrupts import CostModel
from repro.hpm.monitor import PerformanceMonitor
from repro.sim.events import RunStats
from repro.sim.instrumentation import InstrumentationTool
from repro.sim.observers import SessionObserver
from repro.sim.session import SimulationSession

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.attribution import MissSeries
    from repro.cache.contention import ContentionProfile
    from repro.core.profile import DataProfile
    from repro.workloads.base import Workload
    from repro.workloads.compile import CompiledStream


@dataclass
class RunResult:
    """Everything measured during one simulated run."""

    workload_name: str
    cache_config: CacheConfig
    stats: RunStats
    actual: "DataProfile | None" = None
    measured: "DataProfile | None" = None
    series: "MissSeries | None" = None
    ground_truth: GroundTruth | None = None
    #: The primary (first-attached) tool — the single-tool API surface.
    tool: InstrumentationTool | None = None
    #: Every attached tool in attach order (None for uninstrumented runs).
    tools: "list[InstrumentationTool] | None" = None
    #: The monitored cache's ledger, frozen at stream end (before tool
    #: teardown). For decorated stacks its ``mechanism`` dict carries the
    #: outermost mechanism's event counts.
    cache_stats: CacheStats | None = None
    #: (label, frozen stats) per cache component, outer first — one entry
    #: per pipeline level and mechanism decorator (None for models that
    #: expose no component ledgers).
    component_stats: "list[tuple[str, CacheStats]] | None" = None
    #: Which core produced this result (0 for single-core runs and for
    #: the aggregate result of a multi-core run).
    core_id: int = 0
    #: Shared-level miss classification (self vs co-runner-induced) for
    #: this core — only set on results from a multi-core session.
    contention: "ContentionProfile | None" = None
    #: Per-core results, in core order — only set on the aggregate
    #: result a :class:`~repro.sim.session.MultiCoreSession` finalizes.
    cores: "list[RunResult] | None" = None

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles


class Simulator:
    """Configurable simulator tying the substrate packages together.

    Typical use::

        sim = Simulator(CacheConfig(size="256K", assoc=4))
        result = sim.run(workloads.tomcatv(), tool=SamplingProfiler(period=4096))
        print(result.measured.table())
    """

    def __init__(
        self,
        cache_config: CacheConfig | None = None,
        n_region_counters: int = 10,
        multiplexed_counters: bool = False,
        cost_model: CostModel | None = None,
        seed: int | None = None,
        chunk_size: int = 1 << 15,
        l1_config: CacheConfig | None = None,
        prefetch_next_line: bool = False,
        compile_streams: bool = False,
        stream_cache_dir: "str | None" = None,
    ) -> None:
        if chunk_size <= 0:
            raise SimulationError("chunk_size must be positive")
        self.cache_config = cache_config or CacheConfig()
        self.l1_config = l1_config
        self.prefetch_next_line = prefetch_next_line
        #: Lower workloads to precompiled reference streams before
        #: running (see repro.workloads.compile) — bit-identical, much
        #: faster for uninstrumented runs. Workloads that cannot be
        #: compiled (``compiled_stream_safe=False``) silently fall back
        #: to their generator.
        self.compile_streams = compile_streams
        #: Experiments cache root for compiled streams (streams live in
        #: ``<dir>/streams``); None recompiles per run.
        self.stream_cache_dir = stream_cache_dir
        self.n_region_counters = n_region_counters
        self.multiplexed_counters = multiplexed_counters
        self.cost_model = cost_model or CostModel()
        self.seed = seed
        self.chunk_size = chunk_size

    # --------------------------------------------------------------- session

    def start_session(
        self,
        workload: "Workload",
        tool: "InstrumentationTool | Iterable[InstrumentationTool] | None" = None,
        ground_truth: bool = True,
        series_bucket_cycles: int | None = None,
        max_refs: int | None = None,
        observers: Sequence[SessionObserver] = (),
        compiled: "CompiledStream | None" = None,
    ) -> SimulationSession:
        """Open a :class:`SimulationSession` for this simulator's geometry.

        Builds a fresh cache and monitor, prepares the workload (resetting
        it first if a previous run consumed its stream) and attaches the
        given tool(s). The caller drives the session — ``step()`` /
        ``run()`` / ``snapshot()`` — and calls ``finalize()`` for the
        :class:`RunResult`. ``compiled`` (or the simulator-level
        ``compile_streams`` flag) substitutes a precompiled reference
        stream for the workload generator.
        """
        if compiled is None and self.compile_streams:
            compiled = self._compile(workload)
        cache = make_cache(
            self.cache_config,
            seed=self.seed,
            l1_config=self.l1_config,
            prefetch_next_line=self.prefetch_next_line,
        )
        monitor = PerformanceMonitor(
            self.n_region_counters,
            multiplexed=self.multiplexed_counters,
        )
        session = SimulationSession.start(
            workload,
            cache=cache,
            monitor=monitor,
            cost_model=self.cost_model,
            chunk_size=self.chunk_size,
            ground_truth=ground_truth,
            series_bucket_cycles=series_bucket_cycles,
            max_refs=max_refs,
            observers=observers,
            compiled=compiled,
        )
        session.attach(tool)
        return session

    def _compile(self, workload: "Workload"):
        """Compiled stream for ``workload``, or None when it opts out."""
        from repro.workloads.compile import (
            StreamCompileError,
            compiled_stream_for,
        )

        try:
            return compiled_stream_for(workload, self.stream_cache_dir)
        except StreamCompileError:
            return None

    # ------------------------------------------------------------------- run

    def run(
        self,
        workload: "Workload",
        tool: "InstrumentationTool | Iterable[InstrumentationTool] | None" = None,
        ground_truth: bool = True,
        series_bucket_cycles: int | None = None,
        max_refs: int | None = None,
        observers: Sequence[SessionObserver] = (),
        compiled: "CompiledStream | None" = None,
    ) -> RunResult:
        """Simulate ``workload`` (optionally under ``tool``) to completion.

        ``ground_truth`` enables the exact per-object attribution (the
        "Actual" column — zero simulated cost, it lives below the
        architectural level). ``series_bucket_cycles`` additionally records
        the Figure-5 time series. ``max_refs`` truncates the run after that
        many application references, which is how the paper compares
        instrumented and uninstrumented runs over "the same number of
        application instructions". ``tool`` may be a single tool or an
        iterable of tools sharing the run (see DESIGN.md section 8 for the
        arbitration rules).
        """
        session = self.start_session(
            workload,
            tool=tool,
            ground_truth=ground_truth,
            series_bucket_cycles=series_bucket_cycles,
            max_refs=max_refs,
            observers=observers,
            compiled=compiled,
        )
        session.run()
        return session.finalize()
