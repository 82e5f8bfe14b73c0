"""Command-line interface: ``python -m repro <experiment>``.

Regenerates any of the paper's artifacts from the terminal::

    python -m repro table1
    python -m repro fig4 --apps tomcatv ijpeg
    python -m repro resonance --quick
    python -m repro all --quick --jobs 4 --cache-dir .repro-cache
    python -m repro cache --cache-dir .repro-cache          # inspect
    python -m repro cache --cache-dir .repro-cache --clear  # wipe
    python -m repro lint src/                               # reprolint

``--quick`` runs reduced-size workloads (the same knobs the test suite
uses); the default sizes match EXPERIMENTS.md. ``--jobs N`` pre-computes
the experiment grid over N worker processes (results are bit-identical
to serial execution), and ``--cache-dir`` persists every cell on disk so
repeated invocations are served from the cache; cells are keyed by
workload, configuration, seed and a source-code version tag, so edits to
the simulation code invalidate stale entries automatically.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cache import KERNEL_BACKENDS
from repro.experiments import (
    MECHANISM_CHOICES,
    ExperimentRunner,
    run_mechanisms,
    run_continuation,
    run_hierarchy,
    run_prefetch_ablation,
    run_geometry_sweep,
    run_mrc,
    run_multicore,
    run_skid_ablation,
    run_alignment_ablation,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_multiplex_ablation,
    run_phase_heuristic_ablation,
    run_policy_ablation,
    run_resonance,
    run_table1,
    run_table2,
)

_EXPERIMENTS = {
    "table1": lambda runner, apps: run_table1(runner, apps),
    "table2": lambda runner, apps: run_table2(runner, apps),
    "fig2": lambda runner, apps: run_fig2(runner),
    "fig3": lambda runner, apps: run_fig3(runner, apps),
    "fig4": lambda runner, apps: run_fig4(runner, apps),
    "fig5": lambda runner, apps: run_fig5(runner),
    "resonance": lambda runner, apps: run_resonance(runner),
    "ablation-alignment": lambda runner, apps: run_alignment_ablation(runner),
    "ablation-phase": lambda runner, apps: run_phase_heuristic_ablation(runner),
    "ablation-multiplex": lambda runner, apps: run_multiplex_ablation(runner),
    "ablation-policy": lambda runner, apps: run_policy_ablation(runner),
    "ext-skid": lambda runner, apps: run_skid_ablation(runner),
    "ext-continuation": lambda runner, apps: run_continuation(runner),
    "ext-hierarchy": lambda runner, apps: run_hierarchy(runner),
    "ext-prefetch": lambda runner, apps: run_prefetch_ablation(runner),
    "mrc": lambda runner, apps: run_mrc(runner, apps),
    # Back-compat alias from when the MRC sweep was an extension driver.
    "ext-mrc": lambda runner, apps: run_mrc(runner, apps),
    "ext-sweep": lambda runner, apps: run_geometry_sweep(runner),
    "mechanisms": lambda runner, apps: run_mechanisms(runner, apps),
    "multicore": lambda runner, apps: run_multicore(runner, apps),
}

#: Experiments excluded from ``repro all`` — aliases and extension grids
#: that run their own fan-out rather than the warmable paper grid.
_NOT_IN_ALL = ("ext-mrc", "mechanisms", "multicore")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures from Buck & Hollingsworth (SC 2000).",
    )
    parser.add_argument(
        "experiment",
        choices=[*_EXPERIMENTS, "all", "profile", "cache"],
        help="which artifact to regenerate, 'profile' to profile one app, "
        "or 'cache' to inspect/clear the result cache; 'repro lint' runs "
        "the reprolint static checks and 'repro trace' imports/inspects "
        "address traces (own options, see 'repro lint/trace --help')",
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        default=None,
        help="restrict to these applications (default: all seven); for "
        "'profile', the single application to profile",
    )
    parser.add_argument(
        "--tool",
        choices=["sampling", "search", "adaptive"],
        default="sampling",
        help="profile subcommand: which measurement technique to use",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced workload sizes (faster)"
    )
    parser.add_argument(
        "--backend",
        choices=list(KERNEL_BACKENDS),
        default=None,
        help="cache kernel backend (default: the config's 'auto'); "
        "backends are bit-identical: 'reference' is the plain loop, "
        "'array' the vectorised path, and 'auto' runs 'array' until a "
        "tool's miss budget or a conflict-heavy RANDOM stream favours "
        "'reference'",
    )
    parser.add_argument(
        "--mechanism",
        choices=list(MECHANISM_CHOICES),
        default=None,
        help="decorate the simulated cache with a mechanism stack "
        "(victim cache, miss cache, stream buffers; 'vc+sb' wraps "
        "both). Applies to any exact-simulation experiment, e.g. "
        "'repro table1 --mechanism vc'; for 'repro mechanisms' it "
        "restricts the sweep to that single stack. The MRC engine "
        "refuses decorated configs",
    )
    parser.add_argument(
        "--compile-streams",
        action="store_true",
        help="lower workloads to precompiled reference streams before "
        "running (bit-identical, much faster for uninstrumented runs; "
        "streams are cached under --cache-dir when given)",
    )
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes used to pre-compute the experiment grid "
        "(results are bit-identical to --jobs 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the persistent result cache (enables caching; "
        "required by the 'cache' subcommand)",
    )
    parser.add_argument(
        "--clear",
        action="store_true",
        help="cache subcommand: remove every cached result",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="checkpoint simulations mid-run and resume interrupted cells "
        "on the next invocation (requires --cache-dir; see EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="profile subcommand: stream live miss-rate / interrupt-rate "
        "metrics while the profiled run executes",
    )
    parser.add_argument(
        "--co-runner",
        nargs="+",
        default=None,
        metavar="APP",
        help="profile subcommand: run these applications on additional "
        "cores beside the profiled app (private L1s, one shared LLC) and "
        "stream per-core miss/contention rates live",
    )
    return parser


def _build_profile_tool(runner: ExperimentRunner, app: str, tool_name: str):
    """A live tool instance for the profile subcommand's technique."""
    from repro.core.adaptive import AdaptiveSamplingProfiler
    from repro.core.sampling import SamplingProfiler
    from repro.core.search import NWaySearch

    if tool_name == "search":
        return NWaySearch(n=10, interval_cycles=runner.search_interval(app))
    if tool_name == "adaptive":
        return AdaptiveSamplingProfiler(
            initial_period=runner.scaled_sampling_period(app),
            target_overhead=0.01,
            seed=runner.config.seed,
        )
    return SamplingProfiler(
        period=runner.scaled_sampling_period(app),
        schedule="prime",
        seed=runner.config.seed,
    )


def _live_profile(runner: ExperimentRunner, app: str, tool_name: str):
    """Drive one profiled run through a session with streaming observers."""
    from repro.sim import InterruptRateObserver, MissRateObserver, ProgressObserver

    bucket = max(1, runner.baseline(app).stats.app_cycles // 24)
    miss_rate = MissRateObserver(bucket_cycles=bucket)
    irq_rate = InterruptRateObserver()

    def report(refs: int, cycle: int) -> None:
        rates = miss_rate.rates()
        latest = rates[-1][1] if rates else 0.0
        print(
            f"  [live] {refs:>12,} refs @ cycle {cycle:>14,}  "
            f"miss-rate {latest:6.2%}  interrupts {irq_rate.total}"
        )

    progress = ProgressObserver(every_refs=1 << 18, on_progress=report)
    session = runner.simulator.start_session(
        runner.make(app),
        tool=_build_profile_tool(runner, app, tool_name),
        observers=[miss_rate, irq_rate, progress],
    )
    while session.step():
        pass
    result = session.finalize()
    rates = miss_rate.rates()
    stride = max(1, len(rates) // 24)
    print(
        "  [live] miss-rate trajectory: "
        + " ".join(f"{rate:.2%}" for _, rate in rates[::stride])
    )
    return result


def _profile_multicore(runner: ExperimentRunner, app: str, co_runners: list[str]):
    """Profile an app beside co-runners on a shared LLC, live per core."""
    from repro.experiments.multicore import L1_FRACTION
    from repro.sim import CoreRateObserver, ProgressObserver
    from repro.sim.session import MultiCoreSession

    workloads = [runner.make(name) for name in [app, *co_runners]]
    llc = runner.config.cache
    l1 = llc.resized(max(llc.line_size * llc.assoc, llc.size // L1_FRACTION))
    rates = CoreRateObserver()

    def report(refs: int, cycle: int) -> None:
        cores = ", ".join(
            f"c{core} {miss:6.2%} miss ({cont:.1%} cont)"
            for core, _, miss, cont in rates.rows()
        )
        print(f"  [live] {refs:>12,} refs @ cycle {cycle:>14,}  {cores}")

    progress = ProgressObserver(every_refs=1 << 18, on_progress=report)
    session = MultiCoreSession.start(
        workloads,
        llc_config=llc,
        l1_config=l1,
        seed=runner.config.seed,
        observers=[rates, progress],
    )
    session.run()
    result = session.finalize()
    print(f"\nshared-LLC profile: {result.workload_name}")
    for core in result.cores or []:
        profile = core.contention
        ledger = profile.ledger
        print(
            f"  core {core.core_id} ({core.workload_name}): "
            f"{core.stats.app_refs:,} refs, "
            f"{ledger.classified_misses:,} LLC misses = "
            f"{ledger.self_misses:,} self + "
            f"{ledger.contention_misses:,} contention "
            f"({profile.contention_share:.1%})"
        )
        for name, count in profile.top_contended(3):
            print(f"      {name}: {count:,} contention misses")
    return result


def _profile_app(
    runner: ExperimentRunner, app: str, tool_name: str, live: bool = False
) -> None:
    """The `profile` subcommand: one app, one technique, full report."""
    from repro.core.report import comparison_table

    base = runner.baseline(app)
    if live:
        run = _live_profile(runner, app, tool_name)
    elif tool_name == "search":
        run = runner.with_search(app, n=10)
    elif tool_name == "adaptive":
        run = runner.simulator.run(
            runner.make(app), tool=_build_profile_tool(runner, app, tool_name)
        )
    else:
        run = runner.with_sampling(app, schedule="prime")
    print(comparison_table(base.actual, [run.measured], title=f"profile: {app}"))
    stats = run.stats
    print(
        f"\noverhead: {stats.slowdown:.3%} "
        f"({len(stats.interrupts)} interrupts, "
        f"{stats.interrupts.mean_cycles():,.0f} cycles each); "
        f"perturbation: {stats.miss_increase_vs(base.stats):+.4%} misses"
    )


def _cache_command(args) -> int:
    """The `cache` subcommand: inspect or clear the result cache."""
    from repro.experiments.cache_store import ResultCache

    if args.cache_dir is None:
        print("cache: --cache-dir is required", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached results from {cache.root}")
        return 0
    print(cache.describe())
    for entry in cache.entries():
        print(f"  {entry.key[:16]}…  {entry.size_bytes:>8} bytes")
    if cache.manifest_path.exists():
        from repro.experiments.cache_store import Manifest

        records = Manifest.load(cache.manifest_path)
        hits = sum(1 for r in records if r["cached"])
        print(
            f"manifest: {len(records)} task records, {hits} hits, "
            f"{len(records) - hits} misses"
        )
    return 0


def _trace_main(argv: list[str]) -> int:
    """The `trace` verb: import/inspect address traces in any format.

    Formats are content-sniffed (see ``workloads.trace``): canonical
    ``.npz`` archives, gzip'd archives, and plain or gzip'd text traces
    (one ``R|W <address>`` per line, ``#`` comments).
    """
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Import or inspect address traces (format auto-detected).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p_import = sub.add_parser(
        "import", help="convert any supported trace to the canonical .npz"
    )
    p_import.add_argument("source", help="trace to convert (any format)")
    p_import.add_argument("dest", help="output path (.npz appended if missing)")
    p_info = sub.add_parser(
        "info", help="sniff the format, summarise blocks, suggest a layout"
    )
    p_info.add_argument("source", help="trace to inspect (any format)")
    args = parser.parse_args(argv)

    from repro.errors import TraceError
    from repro.workloads.trace import (
        derive_layout,
        import_trace,
        load_any_trace,
        sniff_trace_format,
    )

    try:
        if args.verb == "import":
            out = import_trace(args.source, args.dest)
            blocks = load_any_trace(out)
            refs = sum(len(b.addrs) for b in blocks)
            print(
                f"imported {args.source} ({sniff_trace_format(args.source)}) "
                f"-> {out}: {len(blocks)} blocks, {refs:,} references"
            )
            return 0
        blocks = load_any_trace(args.source)
        refs = sum(len(b.addrs) for b in blocks)
        writes = sum(
            int(b.writes.sum()) for b in blocks if b.writes is not None
        )
        lo = min(int(b.addrs.min()) for b in blocks)
        hi = max(int(b.addrs.max()) for b in blocks)
        print(f"format:  {sniff_trace_format(args.source)}")
        print(f"blocks:  {len(blocks)}")
        print(f"refs:    {refs:,} ({writes:,} writes)")
        print(f"range:   {lo:#x} .. {hi:#x}")
        print("layout (derived, largest clusters first by address):")
        for name, (base, size) in derive_layout(blocks).items():
            print(f"  {name}: base={base:#x} size={size:,}")
        return 0
    except TraceError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        # The linter owns its own argument namespace (paths, --select,
        # --format); delegate before the experiment parser sees it.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "trace":
        # Same delegation pattern as lint: the trace importer's arguments
        # (source/dest positionals) don't fit the experiment parser.
        return _trace_main(argv[1:])
    args = build_parser().parse_args(argv)
    from repro.experiments.runner import RunnerConfig

    if args.experiment == "cache":
        return _cache_command(args)

    if args.resume and not args.cache_dir:
        print("--resume requires --cache-dir", file=sys.stderr)
        return 2
    runner = ExperimentRunner(
        RunnerConfig(
            seed=args.seed,
            backend=args.backend,
            compile_streams=args.compile_streams,
            # The mechanisms sweep builds its own per-cell stacks, and the
            # shared-LLC sessions refuse decorated configs; runner-level
            # decoration would only skew their baselines.
            mechanisms=(
                args.mechanism
                if args.experiment not in ("mechanisms", "multicore")
                else None
            ),
        ),
        quick=args.quick,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        resume=args.resume,
    )
    if args.experiment == "profile":
        apps = args.apps or ["tomcatv"]
        for app in apps:
            if args.co_runner:
                _profile_multicore(runner, app, args.co_runner)
            else:
                _profile_app(runner, app, args.tool, live=args.live)
        return 0
    names = (
        [n for n in _EXPERIMENTS if n not in _NOT_IN_ALL]
        if args.experiment == "all"
        else [args.experiment]
    )
    if (args.jobs > 1 or args.cache_dir) and names not in (
        ["mechanisms"],
        ["multicore"],
    ):
        t0 = time.time()
        runner.warm(apps=args.apps, experiments=names, jobs=args.jobs)
        print(
            f"[grid: {runner.manifest.summary()}; "
            f"warmed in {time.time() - t0:.1f}s with {args.jobs} jobs]\n"
        )
    for name in names:
        t0 = time.time()
        if name == "mechanisms" and args.mechanism:
            report = run_mechanisms(
                runner, args.apps, mechanisms=[args.mechanism]
            )
        else:
            report = _EXPERIMENTS[name](runner, args.apps)
        print(report)
        print(f"[{name} in {time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
