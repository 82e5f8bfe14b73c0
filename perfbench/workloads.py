"""The benchmark's workloads, the runner that drives them, and the
checks on their outputs.

Every workload runs one experiment of ``repro`` through
:class:`repro.experiments.ExperimentRunner` exactly as the CLI does with
``--quick``: default backend and feed, serial cells (``jobs=1``), one
fresh result-cache directory, and the seed given on the command line.
The modelled caches start empty in every cell, so the statistics
include cold misses.

This module imports ``repro`` lazily, so the launcher can list the
workloads without the program being importable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from reference import probe

#: The runner's default seed; outputs at this seed are compared against
#: the per-cell digests recorded in DIGESTS_PATH.
DEFAULT_SEED = 1234
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
#: Largest predicted-vs-simulated miss-ratio gap an MRC verification
#: cell may show (the bound BENCH_mrc.json gates), and the apps the
#: repository states it for: E12's default apps (EXPERIMENTS.md). The
#: sweep covers all seven apps; on the other four the gap is reported
#: but not bounded, because su2cor's 2 MiB cell exceeds 0.05 at the
#: default seed (0.053).
MRC_GAP_BOUND = 0.05
MRC_BOUNDED_APPS = ("mgrid", "compress", "ijpeg")
#: Applications of the decorated-stack workload (E13's default trio).
MECHANISM_APPS = ("tomcatv", "mgrid", "compress")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Mechanism stack the runner decorates its cache with, if any.
    mechanisms: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1-tools",
            "Table 1 on all seven apps with sampling and 10-way search: budget "
            "and deadline cuts make the kernel, monitor, handler and "
            "ground-truth layers do most work",
        ),
        Workload(
            "mechanisms-tools",
            "the Table 1 tool pair over a vc+sb stack on tomcatv, mgrid and "
            "compress: decorated stacks run the scalar per-line path and "
            "bypass the kernels",
            mechanisms="vc+sb",
        ),
        Workload(
            "multicore-e14",
            "E14 co-runner matrix over two shared-LLC sizes on 2 cores: no "
            "tools, the kernel consumes every ref; only the shared port, "
            "shadow and interleaver work here",
        ),
        Workload(
            "mrc-sweep",
            "E12 one-pass sampled MRC over all seven apps plus its exact "
            "verification cells: the only workload where the MRC engine works",
        ),
    )
}


def make_runner(name: str, seed: int, cache_dir: Path | None, sizes=None):
    """The runner a workload drives (quick sizes, one serial client).

    ``sizes`` maps an app to constructor kwargs that override its quick
    sizes (the benchmark's own tests shrink the workloads with it).
    """
    return _runner(seed, WORKLOADS[name].mechanisms, cache_dir, sizes)


def _runner(seed: int, mechanisms, cache_dir, sizes):
    from repro.experiments.runner import ExperimentRunner, RunnerConfig

    class BenchRunner(ExperimentRunner):
        """The CLI's runner, remembering every cell it is asked for."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            #: key -> (TaskSpec, RunResult or None when the cell raised)
            self.cells: dict = {}
            #: Whether to run the host-speed probe before each cell, and
            #: the (host seconds, CPU seconds) each probe took.
            self.probing = True
            self.probes: list = []

        def workload_kwargs(self, app: str) -> dict:
            kwargs = super().workload_kwargs(app)
            kwargs.update((sizes or {}).get(app, {}))
            return kwargs

        def run_task(self, spec):
            key = spec.key()
            if self.probing:
                self.probes.append(probe())
            try:
                result = super().run_task(spec)
            except Exception:
                self.cells.setdefault(key, (spec, None))
                raise
            self.cells.setdefault(key, (spec, result))
            return result

    config = RunnerConfig(seed=seed, mechanisms=mechanisms)
    return BenchRunner(config, quick=True, jobs=1, cache_dir=cache_dir)


def run_experiment(name: str, runner):
    """Run the workload's experiment; returns its report."""
    from repro.experiments import run_mrc, run_multicore, run_table1

    if name == "table1-tools":
        return run_table1(runner)
    if name == "mechanisms-tools":
        return run_table1(runner, list(MECHANISM_APPS))
    if name == "multicore-e14":
        return run_multicore(runner)
    if name == "mrc-sweep":
        return run_mrc(runner, runner.apps())
    raise KeyError(name)


# ----------------------------------------------------------------- outputs

def core_results(result) -> list:
    """The per-core results of a cell (the cell itself when single-core)."""
    return result.cores if result.cores else [result]


def _ranked(profile) -> list | None:
    if profile is None:
        return None
    return [[s.name, s.count, repr(s.share)] for s in profile.shares]


def summarize(result) -> dict:
    """The simulated outputs of one cell: run statistics, interrupts,
    ranked objects and, for multi-core cells, the contention split."""
    s = result.stats
    out = {
        "stats": [
            s.app_refs, s.app_misses, s.instr_refs, s.instr_misses,
            s.app_cycles, s.instr_cycles,
        ],
        "interrupts": [
            [r.kind.value, r.cycle, r.handler_cycles, r.delivery_cycles, r.tool]
            for r in s.interrupts.records
        ],
        "actual": _ranked(result.actual),
        "measured": _ranked(result.measured),
    }
    if result.contention is not None:
        c = result.contention
        out["contention"] = [
            c.ledger.self_misses,
            c.ledger.contention_misses,
            c.ledger.rescued_misses,
            sorted(c.self_by_object.items()),
            sorted(c.contention_by_object.items()),
        ]
    if result.cores:
        out["cores"] = [summarize(core) for core in result.cores]
    return out


def cell_digests(name: str, runner, report) -> dict[str, str]:
    """label -> digest of each completed cell's simulated outputs. An MRC
    verification cell also covers its app's predicted curve."""
    digests = {}
    for spec, result in runner.cells.values():
        if result is None:
            continue
        payload = summarize(result)
        if name == "mrc-sweep" and report is not None:
            payload["curve"] = sorted(report.values[spec.workload].items())
        blob = json.dumps(payload, sort_keys=True).encode()
        digests[spec.describe()] = hashlib.sha256(blob).hexdigest()[:20]
    return digests


def combined_digest(digests: dict[str, str]) -> str:
    blob = json.dumps(sorted(digests.items())).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def recorded_digests(name: str) -> dict[str, str]:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text()).get(name, {})


def mrc_refs(name: str, runner) -> int:
    """Refs the MRC passes analysed: each pass reads the same
    ``max_refs`` prefix its app's verification cells simulate."""
    if name != "mrc-sweep":
        return 0
    per_app = {
        spec.workload: result.stats.app_refs
        for spec, result in runner.cells.values()
        if result is not None
    }
    return sum(per_app.values())


def sim_refs(name: str, runner) -> int:
    """Application refs simulated by the cells or analysed by MRC passes."""
    simulated = sum(
        result.stats.app_refs
        for _, result in runner.cells.values()
        if result is not None
    )
    return simulated + mrc_refs(name, runner)


def plain_baseline_misses(seed: int, sizes=None) -> dict[str, int]:
    """Misses of each decorated app's baseline on the undecorated cache."""
    runner = _runner(seed, None, None, sizes)
    runner.probing = False
    return {app: runner.baseline(app).stats.app_misses for app in MECHANISM_APPS}


def check_cells(
    name: str, runner, report, digests, plain_misses=None, expected=None
):
    """Output checks per cell: label -> list of problems (empty = passed).

    Checks that hold for any seed: per-object ground-truth misses sum to
    the run's misses; per core, self + contention equals the core's
    shared-level misses; the MRC verification cells of MRC_BOUNDED_APPS
    stay within MRC_GAP_BOUND; decorated baselines miss at most as often
    as plain ones. ``expected`` (label -> digest) compares ``digests``
    against the recorded ones.
    """
    problems: dict[str, list[str]] = {}
    verify = report.values.get("verify", {}) if report is not None else {}
    for spec, result in runner.cells.values():
        label = spec.describe()
        bad = problems.setdefault(label, [])
        if result is None:
            bad.append("raised")
            continue
        for core in core_results(result):
            actual = core.actual
            if actual is None or not (
                sum(s.count for s in actual.shares)
                == actual.total_misses
                == core.stats.app_misses
            ):
                bad.append("ground-truth objects do not sum to the misses")
            if result.cores:
                ledger = core.contention.ledger
                if ledger.self_misses + ledger.contention_misses != (
                    core.cache_stats.misses
                ):
                    bad.append("self + contention != shared-level misses")
        if name == "mrc-sweep":
            check = verify.get(spec.workload, {}).get(spec.sim.cache.size)
            if check is None:
                bad.append("no predicted miss ratio for this cell")
            elif (
                spec.workload in MRC_BOUNDED_APPS
                and abs(check["predicted"] - check["simulated"]) > MRC_GAP_BOUND
            ):
                bad.append("MRC predicted-vs-simulated gap above bound")
        if plain_misses is not None and spec.tool is None:
            if result.stats.app_misses > plain_misses[spec.workload]:
                bad.append("decorated baseline misses more than plain")
        if expected is not None and expected.get(label) != digests[label]:
            bad.append("digest differs from the recorded one")
    return problems
