"""Checkpoint/resume tests: CheckpointPolicy, execute_task, ParallelRunner.

The contract under test: a preempted worker's half-finished cell, resumed
from its on-disk snapshot, finishes with results bit-identical to an
uninterrupted run — and anything stale, corrupt, or from another code
version degrades to recomputation, never to a wrong result.
"""

import pickle

import pytest

from repro.errors import SimulationError
from repro.experiments.cache_store import ResultCache
from repro.experiments.parallel import (
    CheckpointPolicy,
    ParallelRunner,
    TaskSpec,
    ToolSpec,
    execute_task,
)
from repro.sim.session import SNAPSHOT_VERSION
from repro.workloads.registry import make_workload


def make_spec(**overrides):
    base = dict(
        workload="compress",
        workload_kwargs={"input_lines": 20000},
        seed=11,
        tool=ToolSpec("sampling", {"period": 701}),
    )
    base.update(overrides)
    return TaskSpec(**base)


def fingerprint(result):
    return (
        result.stats.app_refs,
        result.stats.app_misses,
        result.stats.app_cycles,
        result.stats.instr_cycles,
        [(r.kind, r.cycle, r.handler_cycles) for r in result.stats.interrupts.records],
        None
        if result.measured is None
        else [(s.name, s.count) for s in result.measured.shares],
    )


def leave_partial_checkpoint(policy, spec, max_steps=12):
    """Simulate a preempted worker: run a few steps, checkpoint, 'crash'."""
    workload = make_workload(spec.workload, seed=spec.seed, **spec.workload_kwargs)
    session = spec.sim.build(spec.seed).start_session(
        workload,
        tool=spec.tool.build() if spec.tool is not None else None,
        series_bucket_cycles=spec.series_bucket_cycles,
        max_refs=spec.max_refs,
    )
    finished = session.run(
        max_steps=max_steps,
        checkpoint_every_refs=2000,
        on_checkpoint=lambda snap: policy.save(spec.key(), snap),
    )
    assert not finished, "preemption fixture ran the cell to completion"
    assert policy.path_for(spec.key()).exists()


class TestCheckpointPolicy:
    def test_save_load_roundtrip(self, tmp_path):
        policy = CheckpointPolicy(tmp_path / "ckpt")
        spec = make_spec()
        leave_partial_checkpoint(policy, spec)
        snapshot = policy.load(spec.key())
        assert snapshot is not None
        assert snapshot.version == SNAPSHOT_VERSION
        assert snapshot.workload_name == "compress"

    def test_load_missing_returns_none(self, tmp_path):
        policy = CheckpointPolicy(tmp_path)
        assert policy.load("no-such-key") is None

    def test_corrupt_file_discarded(self, tmp_path):
        policy = CheckpointPolicy(tmp_path)
        path = policy.path_for("k")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        assert policy.load("k") is None
        assert not path.exists()

    def test_key_mismatch_discarded(self, tmp_path):
        """A file copied/renamed to another cell's key must not resume it."""
        policy = CheckpointPolicy(tmp_path)
        spec = make_spec()
        leave_partial_checkpoint(policy, spec)
        policy.path_for(spec.key()).rename(policy.path_for("other"))
        assert policy.load("other") is None
        assert not policy.path_for("other").exists()

    def test_wrong_snapshot_version_discarded(self, tmp_path):
        policy = CheckpointPolicy(tmp_path)
        spec = make_spec()
        leave_partial_checkpoint(policy, spec)
        path = policy.path_for(spec.key())
        payload = pickle.loads(path.read_bytes())
        payload["snapshot_version"] = SNAPSHOT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        assert policy.load(spec.key()) is None
        assert not path.exists()

    def test_wrong_code_version_discarded(self, tmp_path):
        policy = CheckpointPolicy(tmp_path)
        spec = make_spec()
        leave_partial_checkpoint(policy, spec)
        path = policy.path_for(spec.key())
        payload = pickle.loads(path.read_bytes())
        payload["code_version"] = "someone-elses-tree"
        path.write_bytes(pickle.dumps(payload))
        assert policy.load(spec.key()) is None

    def test_discard(self, tmp_path):
        policy = CheckpointPolicy(tmp_path)
        spec = make_spec()
        leave_partial_checkpoint(policy, spec)
        policy.discard(spec.key())
        assert not policy.path_for(spec.key()).exists()
        policy.discard(spec.key())  # idempotent

    def test_bad_cadence(self, tmp_path):
        with pytest.raises(SimulationError):
            CheckpointPolicy(tmp_path, every_refs=0)


class TestExecuteTaskResume:
    def test_resume_bit_identical(self, tmp_path):
        spec = make_spec()
        baseline = execute_task(spec)
        policy = CheckpointPolicy(tmp_path / "ckpt")
        leave_partial_checkpoint(policy, spec)
        resumed = execute_task(spec, policy)
        assert fingerprint(resumed) == fingerprint(baseline)
        # Completed cells clean up their checkpoint.
        assert not policy.path_for(spec.key()).exists()

    def test_checkpointed_fresh_run_identical(self, tmp_path):
        """No pre-existing checkpoint: checkpointing along the way must
        not change the result."""
        spec = make_spec()
        policy = CheckpointPolicy(tmp_path, every_refs=2000)
        assert fingerprint(execute_task(spec, policy)) == fingerprint(
            execute_task(spec)
        )

    def test_unrestorable_checkpoint_recomputes(self, tmp_path):
        """A snapshot that fails restore (here: doctored to claim more
        blocks than the workload has) is discarded and the cell recomputed."""
        spec = make_spec()
        policy = CheckpointPolicy(tmp_path)
        leave_partial_checkpoint(policy, spec)
        path = policy.path_for(spec.key())
        payload = pickle.loads(path.read_bytes())
        payload["snapshot"].cores[0].blocks_fetched = 10**9
        path.write_bytes(pickle.dumps(payload))
        result = execute_task(spec, policy)
        assert fingerprint(result) == fingerprint(execute_task(spec))
        assert not path.exists()


class TestParallelRunnerCheckpoints:
    def test_inline_runner_resumes(self, tmp_path):
        spec = make_spec()
        baseline = execute_task(spec)
        policy = CheckpointPolicy(tmp_path / "ckpt")
        leave_partial_checkpoint(policy, spec)
        runner = ParallelRunner(
            jobs=1, cache=ResultCache(tmp_path / "cache"), checkpoints=policy
        )
        (result,) = runner.run([spec])
        assert fingerprint(result) == fingerprint(baseline)
        assert not policy.path_for(spec.key()).exists()
        # Second invocation is served from the result cache.
        (again,) = runner.run([spec])
        assert fingerprint(again) == fingerprint(baseline)
        assert runner.manifest.records[-1].cached is True
