"""Shared infrastructure for the benchmark/experiment harness.

Every file in benchmarks/ regenerates one of the paper's tables or
figures (see DESIGN.md section 4). Each experiment runs once under
``benchmark.pedantic`` so ``pytest benchmarks/ --benchmark-only`` both
times the regeneration and prints/saves the paper-style report: rendered
tables are written to ``benchmarks/reports/<experiment>.txt`` and echoed
to stdout (run with ``-s`` to see them inline).

Two environment variables wire the harness into the parallel runner and
persistent result cache (see ``src/repro/experiments/parallel.py``):

* ``REPRO_JOBS=N`` — pre-compute the experiment grid over N worker
  processes before the drivers run (results are bit-identical to
  serial execution);
* ``REPRO_CACHE_DIR=PATH`` — persist per-cell results on disk, so a
  repeated benchmark invocation (or a CI run restoring the directory)
  is served from the cache instead of re-simulating;
* ``REPRO_BACKEND=array`` — run every simulation on the flat-array
  cache kernel (bit-identical to the default "auto" kernel, so its
  results share result-cache entries with every other kernel's).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.cache import kernels
from repro.experiments.runner import ExperimentRunner, RunnerConfig

REPORTS_DIR = Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """Full-size experiment runner; baselines cached across benchmarks."""
    jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    backend = os.environ.get("REPRO_BACKEND") or None
    if backend is not None:
        kernels.DEFAULT_BACKEND = kernels.resolve_backend(backend)
    runner = ExperimentRunner(
        RunnerConfig(seed=1234),
        quick=False,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    if jobs > 1 or cache_dir:
        runner.warm()
    return runner


@pytest.fixture(scope="session")
def reports_dir() -> Path:
    REPORTS_DIR.mkdir(exist_ok=True)
    return REPORTS_DIR


def emit(report, reports_dir: Path) -> None:
    """Print an ExperimentReport and persist it under benchmarks/reports/."""
    text = str(report)
    print()
    print(text)
    (reports_dir / f"{report.experiment}.txt").write_text(text + "\n")


def run_experiment(benchmark, fn, reports_dir: Path):
    """Run one experiment driver exactly once under the benchmark timer."""
    report = benchmark.pedantic(fn, rounds=1, iterations=1)
    emit(report, reports_dir)
    return report
