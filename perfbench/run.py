"""Benchmark of the instrumented experiment paths, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition is a fresh Python
process (``rep.py``) that builds the CLI's experiment runner and runs
the workload's experiment once, with a fresh result-cache
directory. Repetitions continue while the next one is expected to end
within ``--seconds`` (at least one). With ``--trace 0`` the last stdout
line reports the end-to-end metrics. CPU times are scaled to a
reference host speed by a probe that runs in the same process (see
``reference.py`` and :func:`scaled`); ``cpu_s`` is a mean over the
repetitions, ``setup_s`` and ``peak_rss_mb`` are medians. With
``--trace 1`` one further repetition runs under the per-layer tracer
and the line reports the per-layer metrics. Either way every
repetition's outputs are checked and counted in
``attempted``/``failed``.

    python3 perfbench/run.py --record-digests

re-records the per-cell output digests at the default seed
(``digests.json``); only do this when simulated results are meant to
change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S
from workloads import DEFAULT_SEED, DIGESTS_PATH, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Setup-only processes per run, on top of the one setup per repetition.
SETUP_PROBES = 3
#: Planning factor: a traced repetition takes about this many untraced ones.
TRACE_COST = 1.3
#: Every child process is stopped once this long has passed since the
#: run started.
HARD_LIMIT_S = 165

END_TO_END_UNITS = {
    "cpu_s": "s",
    "sim_refs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Child:
    """Starts ``rep.py`` processes, each in a fresh work directory."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.args = ["--workload", workload, "--seed", str(seed)]
        self.work = work
        self.count = 0
        self.hard_deadline = time.monotonic() + HARD_LIMIT_S
        self._stderr_seen: set[str] = set()
        # The benchmark runs the program's defaults: no REPRO_* overrides.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}

    def run(self, mode: str, *extra: str) -> tuple[dict | None, float]:
        """One child process; returns (its JSON result or None, seconds)."""
        self.count += 1
        workdir = self.work / f"rep-{self.count}"
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "rep.py"), *self.args, "--mode", mode,
            "--workdir", str(workdir), *extra,
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                timeout=max(0.0, self.hard_deadline - t0),
            )
        except subprocess.TimeoutExpired:
            print(f"perfbench: {mode} repetition timed out", file=sys.stderr)
            return None, time.monotonic() - t0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        elapsed = time.monotonic() - t0
        for line in proc.stderr.splitlines(keepends=True):
            if line not in self._stderr_seen:  # repetitions repeat themselves
                self._stderr_seen.add(line)
                sys.stderr.write(line)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"perfbench: {mode} repetition failed", file=sys.stderr)
            return None, elapsed
        return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def scaled(cpu_s: float, probes: list) -> float:
    """CPU seconds of a process scaled to the reference host speed: times
    ``REFERENCE_S`` over the median CPU time of the process's probes."""
    return cpu_s * REFERENCE_S / statistics.median(cpu for _, cpu in probes)


def bench(name: str, seed: int, seconds: int, trace: bool, work: Path):
    deadline = time.monotonic() + seconds
    child = Child(name, seed, work)
    child.run("setup")  # warm-up: byte-compiles the sources; not measured
    setups = [
        scaled(out["setup_s"], out["setup_probes"])
        for out, _ in (child.run("setup") for _ in range(SETUP_PROBES))
        if out
    ]

    reps: list[dict] = []
    durations: list[float] = []
    crashed = 0
    while True:
        out, elapsed = child.run("run")
        durations.append(elapsed)
        if out is None:
            crashed += 1
            if not reps and crashed >= 2:
                return None
        else:
            reps.append(out)
            setups.append(scaled(out["setup_s"], out["setup_probes"]))
        # Start another repetition only if it is expected to end by the
        # deadline (a traced run also reserves time for its traced
        # repetition).
        rep_s = statistics.median(durations)
        planned = rep_s * (1 + (TRACE_COST if trace else 0))
        if time.monotonic() + planned > deadline or time.monotonic() >= child.hard_deadline:
            break
    if not reps:
        return None

    traced = None
    if trace:
        trace_out = ROOT / ".perfbench" / "traces" / f"{name}-seed{seed}.npz"
        traced, _ = child.run("trace", "--trace-out", str(trace_out))
        if traced is None:
            return None

    attempted = crashed + sum(rep["cells"] for rep in reps)
    failed = crashed + sum(len(rep["problems"]) for rep in reps)
    problems = [p for rep in reps for p in rep["problems"].items()]
    runs = reps + ([traced] if traced else [])
    # Every repetition of one seed, traced or not, must simulate the same.
    attempted += 1
    if len({rep["digest"] for rep in runs}) != 1:
        failed += 1
        problems.append(("all repetitions", ["simulated outputs differ"]))
    if traced is not None:
        # The traced cells, plus the cross-check of the tracer's counts
        # against the program's ledgers as one more unit of work.
        attempted += traced["cells"] + 1
        failed += len(traced["problems"]) + bool(traced["trace_problems"])
        problems += traced["problems"].items()
        problems += [(k, [v]) for k, v in traced["trace_problems"].items()]
    for label, found in problems:
        print(f"perfbench: {name}: {label}: {'; '.join(found)}", file=sys.stderr)

    if traced is None:
        cpu = statistics.mean(scaled(rep["cpu_s"], rep["probes"]) for rep in reps)
        probe_cpu = statistics.median(p[1] for rep in reps for p in rep["probes"])
        print(
            f"perfbench: {name}: {len(reps)} repetitions; unscaled medians: "
            f"wall {statistics.median(rep['wall_s'] for rep in reps):.3f} s, "
            f"CPU {statistics.median(rep['cpu_s'] for rep in reps):.3f} s, "
            f"probe CPU {probe_cpu:.4f} s",
            file=sys.stderr,
        )
        values = {
            "cpu_s": cpu,
            "sim_refs_per_s": statistics.median(rep["sim_refs"] for rep in reps) / cpu,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        from tracer import LAYER_METRICS

        values = dict(traced["layers"])
        median_wall = statistics.median(rep["wall_s"] for rep in reps)
        values["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / median_wall - 1.0)
        metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_digests(work: Path) -> int:
    """Run every workload once at the default seed and store its digests."""
    recorded = {}
    for name in WORKLOADS:
        out, _ = Child(name, DEFAULT_SEED, work).run("run")
        if out is None:
            return 1
        other = {
            label: [p for p in found if not p.startswith("digest")]
            for label, found in out["problems"].items()
        }
        if any(other.values()):
            print(f"perfbench: {name}: {other}", file=sys.stderr)
            return 1
        recorded[name] = out["digests"]
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    # On SIGTERM unwind normally, so the running child is killed and
    # waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        if args.record_digests:
            return record_digests(work)
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
