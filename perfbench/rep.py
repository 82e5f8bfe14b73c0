"""One repetition of a benchmark workload, in a fresh Python process.

``run.py`` starts this script once per repetition::

    python3 perfbench/rep.py --workload NAME --seed N --mode MODE \
        --workdir DIR [--trace-out FILE]

MODE ``setup`` stops once the runner is built; ``run`` times the
experiment untraced; ``trace`` runs it under the per-layer tracer. Every
mode runs the host-speed probe (``reference.py``) three times once the
runner is built, and ``run`` also runs it before every cell; the probe
times are reported, and left out of the experiment's times. The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from reference import probe  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    cell_digests,
    check_cells,
    combined_digest,
    make_runner,
    mrc_refs,
    plain_baseline_misses,
    recorded_digests,
    run_experiment,
    sim_refs,
)


def measure(name, runner, trace=False, sizes=None, expected=None,
            trace_out=None) -> dict:
    """Run the workload's experiment once on ``runner``; check outputs.

    Returns the host-time measurements, the per-cell problems found by
    the output checks, the combined digest of the simulated outputs and,
    when ``trace`` is set, the per-layer metrics and the problems found
    by cross-checking the tracer against the program's ledgers.
    """
    from tracer import Tracer, cross_check, layer_metrics

    tracer = Tracer() if trace else None
    # The traced repetition times layers, not the host: no probes.
    runner.probing = not trace
    report, error = None, None
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            report = run_experiment(name, runner)
        else:
            with tracer:
                report = tracer.span("experiments", run_experiment, name, runner)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    # The host-speed probes run inside the experiment, between cells.
    wall_s = time.perf_counter() - t0 - sum(p[0] for p in runner.probes)
    cpu_s = time.process_time() - cpu0 - sum(p[1] for p in runner.probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if name == "mrc-sweep" and report is not None:
        print(f"mrc-sweep: {report.notes[-1]}", file=sys.stderr)
    digests = cell_digests(name, runner, report)
    plain = (
        plain_baseline_misses(runner.config.seed, sizes)
        if name == "mechanisms-tools"
        else None
    )
    problems = check_cells(name, runner, report, digests, plain, expected)
    if error is not None and all(r is not None for _, r in runner.cells.values()):
        problems["experiment"] = [error]
    out = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "sim_refs": sim_refs(name, runner),
        "probes": runner.probes,
        "digest": combined_digest(digests),
        "digests": digests,
        "cells": len(problems),
        "problems": {label: p for label, p in problems.items() if p},
    }
    if tracer is not None:
        spans = tracer.arrays()
        out["wall_s"] = float(spans["end"][0] - spans["start"][0])
        metrics = layer_metrics(tracer)
        out["layers"] = metrics
        out["trace_problems"] = cross_check(
            tracer, metrics, list(runner.cells.values()), mrc_refs(name, runner)
        )
        if trace_out is not None:
            tracer.write(trace_out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    runner = make_runner(args.workload, args.seed, args.workdir / "cache")
    # CPU time since the process started: interpreter start, imports and
    # runner construction.
    setup_s = time.process_time()
    setup_probes = [probe() for _ in range(3)]
    if args.mode == "setup":
        out = {}
    else:
        expected = (
            recorded_digests(args.workload) if args.seed == DEFAULT_SEED else None
        )
        out = measure(
            args.workload, runner, trace=args.mode == "trace",
            expected=expected, trace_out=args.trace_out,
        )
    out["setup_s"] = setup_s
    out["setup_probes"] = setup_probes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
