"""E14 (multicore) experiment: spec hashing, execution, the driver.

The grid contract: the full multi-core spec — co-runner set, their
construction kwargs, schedule ratios, shared-LLC geometry — reaches the
content-addressed cache key, so two cells that simulate differently can
never collide in the result cache.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache import CacheConfig
from repro.errors import SimulationError
from repro.experiments import MultiCoreSpec
from repro.experiments.multicore import multicore_task, run_multicore
from repro.experiments.parallel import execute_task
from repro.experiments.runner import ExperimentRunner, RunnerConfig

pytestmark = pytest.mark.multicore


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(
        RunnerConfig(cache=CacheConfig(size=64 * 1024, assoc=4), seed=42),
        quick=True,
    )


class TestMultiCoreSpec:
    def test_kwargs_padded_and_normalised(self):
        spec = MultiCoreSpec(co_runners=["ijpeg", "mgrid"])
        assert spec.co_runners == ("ijpeg", "mgrid")
        assert spec.co_runner_kwargs == ({}, {})
        assert spec.n_cores == 3

    def test_ratio_length_must_cover_every_core(self):
        with pytest.raises(SimulationError, match="ratios"):
            MultiCoreSpec(co_runners=("ijpeg",), ratios=(1,))

    def test_kwargs_length_must_match_co_runners(self):
        with pytest.raises(SimulationError, match="kwargs"):
            MultiCoreSpec(co_runners=("ijpeg",), co_runner_kwargs=({}, {}))


class TestCacheKeys:
    def test_every_spec_dimension_changes_the_key(self, runner):
        base = multicore_task(runner, ["compress", "ijpeg"])
        variants = [
            base,
            multicore_task(runner, ["compress", "mgrid"]),
            multicore_task(runner, ["compress", "ijpeg"], ratios=(2, 1)),
            multicore_task(runner, ["compress", "ijpeg"], size=32 * 1024),
            runner.task("compress"),  # multicore=None
        ]
        keys = [spec.key() for spec in variants]
        assert len(set(keys)) == len(keys)

    def test_single_core_keys_unchanged_by_the_field(self, runner):
        # The multicore field defaults to None, so pre-existing cached
        # single-core cells keep their keys across this refactor.
        spec = runner.task("compress")
        assert spec.sim.multicore is None
        assert spec.key() == dataclasses.replace(spec).key()


class TestExecuteTask:
    def test_multicore_task_returns_per_core_results(self, runner):
        result = execute_task(multicore_task(runner, ["compress", "ijpeg"]))
        assert result.workload_name == "mc(compress+ijpeg)"
        assert [c.core_id for c in result.cores] == [0, 1]
        assert result.ground_truth is None  # stripped for the cache
        for core in result.cores:
            ledger = core.contention.ledger
            assert ledger.classified_misses == core.cache_stats.misses
        assert sum(c.cache_stats.misses for c in result.cores) == (
            result.cache_stats.misses
        )

    def test_checkpointed_cell_matches_uninterrupted(self, runner, tmp_path):
        from repro.experiments.parallel import CheckpointPolicy

        spec = multicore_task(runner, ["compress", "ijpeg"])
        golden = execute_task(spec)

        class Stop(Exception):
            pass

        class StopAfterFirstSave(CheckpointPolicy):
            def save(self, key, snapshot):
                path = super().save(key, snapshot)
                raise Stop(path)

        # Interrupt mid-run right after the first checkpoint lands...
        with pytest.raises(Stop):
            execute_task(
                spec,
                checkpoint=StopAfterFirstSave(root=tmp_path, every_refs=200_000),
            )
        assert list(tmp_path.glob("*.ckpt"))
        # ...then resume from it and finish: bit-identical to golden.
        resumed = execute_task(
            spec, checkpoint=CheckpointPolicy(root=tmp_path, every_refs=1 << 30)
        )
        assert resumed.stats == golden.stats
        for a, b in zip(resumed.cores, golden.cores):
            assert a.stats == b.stats
            assert a.contention.self_by_object == b.contention.self_by_object

    def test_checkpoint_cadence_outliving_a_co_runner(self, runner, tmp_path):
        """Checkpoints keep landing after the shorter co-runner's stream
        ended; checkpointing all the way must not change the result."""
        from repro.experiments.parallel import CheckpointPolicy

        spec = multicore_task(runner, ["compress", "ijpeg"])
        checkpointed = execute_task(
            spec, checkpoint=CheckpointPolicy(root=tmp_path, every_refs=50_000)
        )
        golden = execute_task(spec)
        assert checkpointed.stats == golden.stats
        for a, b in zip(checkpointed.cores, golden.cores):
            assert a.stats == b.stats
            assert a.contention.self_by_object == b.contention.self_by_object
        assert not list(tmp_path.glob("*.ckpt"))


class TestDriver:
    def test_quick_report_shape(self, runner):
        report = run_multicore(
            runner, apps=["compress", "ijpeg"], sizes=[64 * 1024]
        )
        assert report.experiment == "multicore"
        pairs = report.values["pairs"]
        assert set(pairs) == {
            "compress+compress",
            "compress+ijpeg",
            "ijpeg+ijpeg",
        }
        for per_size in pairs.values():
            for cell in per_size.values():
                for core in cell["cores"]:
                    assert (
                        core["self"] + core["contention"]
                        == core["shared_misses"]
                    )
        # Self-pairings are symmetric by construction (same workload,
        # same schedule weight, disjoint namespaces).
        cores = pairs["ijpeg+ijpeg"][64 * 1024]["cores"]
        assert cores[0]["shared_misses"] == cores[1]["shared_misses"]
        assert "E14" in report.table
