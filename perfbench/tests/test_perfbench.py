"""Fast tests of the benchmark itself, on tiny workload sizes.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import rep
import run
from tracer import LAYER_METRICS, SELF_TIME_METRICS, Tracer
from workloads import WORKLOADS, make_runner

SEED = 7
#: Shrunk constructor kwargs (quick sizes cut to a few hundred ms a cell).
TINY = {
    "tomcatv": {"n_steps": 1},
    "swim": {"n_steps": 1, "lines_per_array_per_step": 800},
    "su2cor": {"total_lines": 40_000},
    "mgrid": {"n_vcycles": 1, "fine_lines": 4_000},
    "applu": {"n_iterations": 2},
    "compress": {"input_lines": 8_000},
    "ijpeg": {"image_lines": 6_000},
}


def _measure(name, tmp_path, trace, expected=None):
    runner = make_runner(name, SEED, tmp_path / f"cache-{trace}", TINY)
    return rep.measure(name, runner, trace=trace, sizes=TINY, expected=expected)


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    return request.param, _measure(request.param, tmp, False), _measure(request.param, tmp, True)


def test_outputs_pass_checks(runs):
    _, plain, traced = runs
    assert plain["cells"] > 0
    assert plain["problems"] == {}
    assert traced["problems"] == {}


def test_tracer_agrees_with_ledgers_and_spans_nest(runs):
    _, _, traced = runs
    assert traced["trace_problems"] == {}


def test_tracing_does_not_change_outputs(runs):
    _, plain, traced = runs
    assert traced["digest"] == plain["digest"]


def test_self_times_partition_the_wall_time(runs):
    _, _, traced = runs
    self_times = [traced["layers"][m] for m in SELF_TIME_METRICS.values()]
    assert min(self_times) >= 0
    assert sum(self_times) == pytest.approx(traced["wall_s"], rel=1e-9)


def test_layers_do_work_where_expected(runs):
    name, _, traced = runs
    layers = traced["layers"]
    assert layers["session.steps"] > 0 and layers["workloads.blocks"] > 0
    assert (layers["mechanisms.refs_consumed"] > 0) == (name == "mechanisms-tools")
    assert (layers["shared_port.shadow_refs"] > 0) == (name == "multicore-e14")
    assert (layers["mrc.refs"] > 0) == (name == "mrc-sweep")
    tools = name in ("table1-tools", "mechanisms-tools")
    assert (layers["core.interrupts_overflow"] > 0) == tools
    if name in ("multicore-e14", "mrc-sweep"):
        assert layers["kernels.consumed_ratio"] == 1.0


def test_untraced_cells_are_probed(runs):
    _, plain, traced = runs
    assert len(plain["probes"]) >= plain["cells"]  # one per run_task call
    assert min(p[0] for p in plain["probes"]) > 0
    assert traced["probes"] == []


def test_scaled_divides_by_the_median_probe_cpu_time():
    probes = [[0.01, 0.02], [0.09, 0.04], [0.03, 0.05]]
    assert run.scaled(6.0, probes) == pytest.approx(6.0 * run.REFERENCE_S / 0.04)


def test_perturbed_digest_is_a_failed_cell(tmp_path):
    first = _measure("table1-tools", tmp_path / "a", False)
    expected = dict(first["digests"])
    assert _measure("table1-tools", tmp_path / "b", False, expected)["problems"] == {}
    label = sorted(expected)[3]
    expected[label] = "0" * 20
    problems = _measure("table1-tools", tmp_path / "c", False, expected)["problems"]
    assert problems == {label: ["digest differs from the recorded one"]}


def test_uninstall_restores_every_entry_point():
    from repro.cache.kernels.reference import ReferenceKernel
    from repro.workloads.base import Workload

    before = (ReferenceKernel.access, Workload.blocks)
    with Tracer() as tracer:
        assert ReferenceKernel.access is not before[0]
        assert len(tracer._patches) > 10
    assert (ReferenceKernel.access, Workload.blocks) == before


def test_benchmark_json_names_match_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _, _) in LAYER_METRICS.items()
    ]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-tools",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
