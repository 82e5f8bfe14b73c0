"""Experiment runner: shared configuration, result caching, scaling.

The paper's runs cover billions of cycles; ours are scaled down (see
DESIGN.md section 2), so measurement parameters that the paper quotes as
absolute values are derived here from each application's *baseline* run:

* the Table-1 sampling period ("1 in 50,000") becomes
  ``total_misses // target_samples`` so the sample count stays in the
  paper's regime;
* the search interval becomes ``total_cycles // intervals_per_run`` so a
  run holds a paper-like number of search iterations;
* Figure 3/4 sampling periods stay *absolute* (1k, 10k, 100k, 1M-miss
  equivalents scaled by one global factor), because overhead per cycle
  depends only on the miss rate and the period, not on run length.

Every run the runner performs is described by a declarative
:class:`~repro.experiments.parallel.TaskSpec` and executed through a
two-level result cache: an in-process memo (so baselines and repeated
cells are computed once per runner, as before) and, when a cache
directory is configured, the on-disk
:class:`~repro.experiments.cache_store.ResultCache` shared across
invocations. :meth:`warm` fans the standard experiment grid out over
worker processes to populate both.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

from repro.cache import CacheConfig
from repro.core.sampling import PeriodSchedule
from repro.experiments.cache_store import Manifest, ResultCache
from repro.experiments.parallel import (
    CheckpointPolicy,
    ParallelRunner,
    SimSpec,
    TaskSpec,
    ToolSpec,
    execute_task,
)
from repro.hpm.interrupts import CostModel
from repro.sim.engine import RunResult, Simulator
from repro.workloads.registry import make_workload, workload_names

#: Experiments whose cells :meth:`ExperimentRunner.warm` knows how to
#: pre-compute (the accuracy tables, the overhead/perturbation grid and
#: the MRC sweep's exact verification cells).
WARMABLE_EXPERIMENTS = ("table1", "table2", "fig3", "fig4", "fig5", "mrc")


@dataclass
class RunnerConfig:
    """Knobs shared by every experiment."""

    cache: CacheConfig = None
    seed: int = 1234
    #: Target number of samples for accuracy experiments (Table 1).
    target_samples: int = 2000
    #: Search iterations a run should be able to hold.
    intervals_per_run: int = 45
    #: Scale factor applied to the paper's absolute sampling periods in
    #: the overhead experiments (1k/10k/100k/1M misses). 1.0 keeps the
    #: paper's literal values.
    period_scale: float = 1.0
    #: Workload size knobs forwarded to each factory (quick mode shrinks).
    workload_kwargs: dict = None
    #: Lower workloads to precompiled reference streams before running
    #: (repro.workloads.compile); bit-identical speed knob, carried into
    #: task keys via SimSpec. The stream cache shares the runner's
    #: ``cache_dir``.
    compile_streams: bool = False
    #: Mechanism decorator stack applied to the cache (a spec tuple or a
    #: compact string like ``"vc+sb"`` — see repro.cache.config). It
    #: *changes simulated behaviour*, so it is folded into ``cache`` and
    #: every TaskSpec key carries it. None keeps the cache config's own
    #: ``mechanisms``.
    mechanisms: "str | tuple | None" = None

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = CacheConfig()
        if self.mechanisms is not None:
            self.cache = dataclasses.replace(
                self.cache, mechanisms=self.mechanisms
            )
        if self.workload_kwargs is None:
            self.workload_kwargs = {}


class ExperimentRunner:
    """Runs applications under the paper's measurement configurations.

    ``jobs`` sets the default worker count for :meth:`warm`;
    ``cache_dir`` (a path or an existing :class:`ResultCache`) enables
    the persistent result cache, so repeated invocations of the same
    grid are served from disk instead of re-simulating.
    """

    def __init__(
        self,
        config: RunnerConfig | None = None,
        quick: bool = False,
        jobs: int = 1,
        cache_dir: "str | os.PathLike | ResultCache | None" = None,
        resume: bool = False,
        checkpoint_every_refs: int | None = None,
    ) -> None:
        self.config = config or RunnerConfig()
        self.quick = quick
        self.jobs = max(1, jobs)
        if isinstance(cache_dir, ResultCache):
            self.result_cache: ResultCache | None = cache_dir
        elif cache_dir is not None:
            self.result_cache = ResultCache(cache_dir)
        else:
            self.result_cache = None
        #: Mid-run checkpointing (EXPERIMENTS.md "Resuming interrupted
        #: grids"): requires the persistent cache, whose directory also
        #: hosts the checkpoint files.
        self.checkpoints: CheckpointPolicy | None = None
        if resume:
            if self.result_cache is None:
                raise ValueError(
                    "resume=True requires cache_dir (checkpoints live "
                    "under the result-cache directory)"
                )
            kwargs = (
                {"every_refs": checkpoint_every_refs}
                if checkpoint_every_refs is not None
                else {}
            )
            self.checkpoints = CheckpointPolicy(
                self.result_cache.root / "checkpoints", **kwargs
            )
        # "is not None", not truthiness: ResultCache defines __len__, so a
        # fresh (empty) cache directory is falsy.
        self.manifest = Manifest(
            path=self.result_cache.manifest_path
            if self.result_cache is not None
            else None
        )
        #: In-process memo: task key -> result, so baselines and repeated
        #: cells are simulated once per runner regardless of disk caching.
        self._memo: dict[str, RunResult] = {}
        #: Compiled-stream cache root (shares the result-cache directory;
        #: None keeps compilation per-process when no cache is configured).
        self.stream_cache_dir = (
            str(self.result_cache.root)
            if self.result_cache is not None
            else None
        )
        self.sim_spec = SimSpec(
            cache=self.config.cache,
            n_region_counters=10,
            cost_model=CostModel(),
            compile_streams=self.config.compile_streams,
        )
        self.simulator = Simulator(
            cache_config=self.config.cache,
            n_region_counters=10,
            cost_model=CostModel(),
            seed=self.config.seed,
            compile_streams=self.config.compile_streams,
            stream_cache_dir=self.stream_cache_dir,
        )

    # ------------------------------------------------------------ workloads

    def apps(self) -> list[str]:
        return workload_names()

    def workload_kwargs(self, app: str) -> dict:
        """The (quick-adjusted) construction kwargs for one application."""
        kwargs = dict(self.config.workload_kwargs)
        if self.quick:
            kwargs.update(_QUICK_KWARGS.get(app, {}))
        return kwargs

    def make(self, app: str):
        """A fresh workload instance (streams are single-use generators)."""
        return make_workload(
            app, seed=self.config.seed, **self.workload_kwargs(app)
        )

    # ------------------------------------------------------------ task layer

    def task(
        self,
        app: str,
        tool: ToolSpec | None = None,
        max_refs: int | None = None,
        series_bucket_cycles: int | None = None,
        label: str = "",
    ) -> TaskSpec:
        """The :class:`TaskSpec` for one cell of this runner's grid."""
        return TaskSpec(
            workload=app,
            workload_kwargs=self.workload_kwargs(app),
            seed=self.config.seed,
            tool=tool,
            max_refs=max_refs,
            series_bucket_cycles=series_bucket_cycles,
            sim=self.sim_spec,
            label=label,
        )

    def mrc_task(
        self, app: str, size: int | None = None, max_refs: int | None = None
    ) -> TaskSpec:
        """A verification cell for the MRC sweep: this runner's cache
        geometry resized to ``size`` bytes, no instrumentation tool.

        The cell is an ordinary :class:`TaskSpec` — same seed, same
        workload kwargs, the resized cache folded into the ``sim`` spec —
        so it shares the result cache with every other experiment that
        lands on the same configuration.
        """
        cache = self.config.cache
        if size is not None:
            cache = dataclasses.replace(cache, size=size)
        return TaskSpec(
            workload=app,
            workload_kwargs=self.workload_kwargs(app),
            seed=self.config.seed,
            max_refs=max_refs,
            sim=dataclasses.replace(self.sim_spec, cache=cache),
            label=f"{app}/mrc-verify({cache.size // 1024}K)",
        )

    def run_task(self, spec: TaskSpec) -> RunResult:
        """Execute one cell through the memo and the result cache."""
        key = spec.key()
        if key in self._memo:
            return self._memo[key]
        if self.result_cache is not None:
            cached = self.result_cache.get(key)
            if cached is not None:
                self._memo[key] = cached
                self.manifest.record(
                    task=spec.describe(),
                    workload=spec.workload,
                    seed=spec.seed,
                    key=key,
                    cached=True,
                    wall_s=0.0,
                )
                return cached
        t0 = time.perf_counter()
        result = execute_task(spec, self.checkpoints, self.stream_cache_dir)
        wall = time.perf_counter() - t0
        self._memo[key] = result
        if self.result_cache is not None:
            self.result_cache.put(key, result)
        self.manifest.record(
            task=spec.describe(),
            workload=spec.workload,
            seed=spec.seed,
            key=key,
            cached=False,
            wall_s=wall,
        )
        return result

    # ------------------------------------------------------------- baseline

    def baseline(self, app: str, series_bucket_cycles: int | None = None) -> RunResult:
        """Uninstrumented run (memoised, including time-series variants)."""
        return self.run_task(
            self.task(
                app,
                series_bucket_cycles=series_bucket_cycles,
                label=f"{app}/baseline"
                + (f"+series({series_bucket_cycles})" if series_bucket_cycles else ""),
            )
        )

    # ----------------------------------------------------- derived settings

    def scaled_sampling_period(self, app: str) -> int:
        """The '1 in 50,000 equivalent' period for accuracy experiments."""
        misses = self.baseline(app).stats.app_misses
        return max(16, misses // self.config.target_samples)

    def search_interval(self, app: str) -> int:
        """Search timer interval sized to the application's run length."""
        cycles = self.baseline(app).stats.app_cycles
        return max(10_000, cycles // self.config.intervals_per_run)

    def overhead_periods(self) -> list[int]:
        """The paper's Figure 3/4 sampling periods (possibly rescaled)."""
        return [
            max(16, int(p * self.config.period_scale))
            for p in (1_000, 10_000, 100_000, 1_000_000)
        ]

    # ------------------------------------------------------------ tool runs

    def _sampling_task(
        self,
        app: str,
        period: int | None = None,
        schedule: PeriodSchedule | str = PeriodSchedule.FIXED,
        max_refs: int | None = None,
    ) -> TaskSpec:
        period = period or self.scaled_sampling_period(app)
        schedule = PeriodSchedule(schedule)
        tool = ToolSpec(
            "sampling",
            {"period": period, "schedule": schedule.value, "seed": self.config.seed},
        )
        return self.task(
            app,
            tool=tool,
            max_refs=max_refs,
            label=f"{app}/sample(1/{period},{schedule.value})",
        )

    def _search_task(
        self,
        app: str,
        n: int = 10,
        interval_cycles: int | None = None,
        max_refs: int | None = None,
        **search_kwargs,
    ) -> TaskSpec:
        interval = interval_cycles or self.search_interval(app)
        tool = ToolSpec(
            "search", {"n": n, "interval_cycles": interval, **search_kwargs}
        )
        return self.task(
            app, tool=tool, max_refs=max_refs, label=f"{app}/search({n}-way)"
        )

    def with_sampling(
        self,
        app: str,
        period: int | None = None,
        schedule: PeriodSchedule | str = PeriodSchedule.FIXED,
        max_refs: int | None = None,
    ) -> RunResult:
        return self.run_task(
            self._sampling_task(app, period=period, schedule=schedule, max_refs=max_refs)
        )

    def with_search(
        self,
        app: str,
        n: int = 10,
        interval_cycles: int | None = None,
        max_refs: int | None = None,
        **search_kwargs,
    ) -> RunResult:
        return self.run_task(
            self._search_task(
                app,
                n=n,
                interval_cycles=interval_cycles,
                max_refs=max_refs,
                **search_kwargs,
            )
        )

    # ------------------------------------------------------------- parallel

    def _cells_for(self, experiment: str, apps: list[str]) -> list[TaskSpec]:
        """The grid cells one experiment driver will request.

        Baselines must already be available — the cells' periods and
        intervals are derived from them, which is exactly why warming is
        two-phase.
        """
        cells: list[TaskSpec] = []
        if experiment == "table1":
            for app in apps:
                cells.append(self._sampling_task(app))
                cells.append(self._search_task(app, n=10))
        elif experiment == "table2":
            for app in apps:
                cells.append(self._search_task(app, n=2))
                cells.append(self._search_task(app, n=10))
        elif experiment in ("fig3", "fig4"):
            for app in apps:
                max_refs = self.baseline(app).stats.app_refs
                cells.append(self._search_task(app, n=10, max_refs=max_refs))
                for period in self.overhead_periods():
                    cells.append(
                        self._sampling_task(app, period=period, max_refs=max_refs)
                    )
        elif experiment == "mrc":
            if self.config.cache.mechanisms:
                # Decorated stacks bypass the MRC model entirely (the
                # driver raises); warming would raise here too.
                return cells
            # Deterministic for a fixed runner config: the sampled MRC
            # pass picks the same highest-curvature cells warm() and the
            # driver will both request.
            from repro.experiments.mrc import verification_cells

            for app in apps:
                cells.extend(
                    spec for _, spec in verification_cells(self, app)
                )
        elif experiment == "fig5":
            base = self.baseline("applu")
            bucket = max(1, base.stats.app_cycles // 48)
            cells.append(
                self.task(
                    "applu",
                    series_bucket_cycles=bucket,
                    label=f"applu/baseline+series({bucket})",
                )
            )
        return cells

    def warm(
        self,
        apps: list[str] | None = None,
        experiments: list[str] | None = None,
        jobs: int | None = None,
    ) -> Manifest:
        """Pre-compute the experiment grid with parallel workers.

        Phase 1 runs every application baseline concurrently; phase 2
        derives the instrumented cells (whose periods/intervals depend on
        the baselines) and fans them out. Drivers executed afterwards
        find every cell in the cache, so ``warm()`` + serial drivers is
        equivalent to — and bit-identical with — fully serial execution.
        """
        apps = apps or self.apps()
        experiments = [
            e for e in (experiments or WARMABLE_EXPERIMENTS)
            if e in WARMABLE_EXPERIMENTS
        ]
        jobs = max(1, jobs or self.jobs)
        pool = ParallelRunner(
            jobs=jobs,
            cache=self.result_cache,
            manifest=self.manifest,
            checkpoints=self.checkpoints,
            stream_cache_dir=self.stream_cache_dir,
        )

        base_specs = [self.task(app, label=f"{app}/baseline") for app in apps]
        fresh = [s for s in base_specs if s.key() not in self._memo]
        for spec, result in zip(fresh, pool.run(fresh)):
            self._memo[spec.key()] = result

        cells: list[TaskSpec] = []
        seen: set[str] = set(self._memo)
        for experiment in experiments:
            for spec in self._cells_for(experiment, apps):
                key = spec.key()
                if key not in seen:
                    seen.add(key)
                    cells.append(spec)
        for spec, result in zip(cells, pool.run(cells)):
            self._memo[spec.key()] = result
        return self.manifest


#: Reduced-size workload parameters for fast test runs.
_QUICK_KWARGS: dict[str, dict] = {
    "tomcatv": {"n_steps": 4, "rows_per_step": 16},
    "swim": {"n_steps": 4, "lines_per_array_per_step": 1600},
    "su2cor": {"total_lines": 160_000, "slices_per_era": 24},
    "mgrid": {"n_vcycles": 4, "fine_lines": 9_000},
    "applu": {"n_iterations": 7, "jacobian_lines": 4_500},
    "compress": {"input_lines": 30_000},
    "ijpeg": {"image_lines": 20_000},
}
