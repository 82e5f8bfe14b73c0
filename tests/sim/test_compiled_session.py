"""Bit-identity of compiled-stream sessions against the generator path.

Stream compilation (repro.workloads.compile) is a pure speed knob: for
every workload in the registry, a session fed from a compiled stream
must be indistinguishable from one running the generator — identical
``RunStats``, identical mid-run snapshots, and identical completions
when a snapshot from one path is resumed on the other. These tests pin
that contract over every registered workload, both kernel backends and
the RANDOM replacement policy (whose eviction pool observes chunk
boundaries, the subtlest part of the replay).
"""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.policies import ReplacementPolicy
from repro.sim.engine import Simulator
from repro.sim.session import SimulationSession
from repro.workloads.compile import compile_workload
from repro.workloads.registry import make_workload
from tests.conftest import pinned_kernel

SEED = 5

#: Small instances of every registered workload: large enough to evict
#: (the cache below is 32 KiB), small enough to keep the matrix fast.
TINY = {
    "tomcatv": {"n_steps": 2, "rows_per_step": 4},
    "swim": {"n_steps": 2, "lines_per_array_per_step": 200},
    "su2cor": {"total_lines": 8000, "slices_per_era": 4},
    "mgrid": {"n_vcycles": 2, "fine_lines": 1200},
    "applu": {"n_iterations": 2, "jacobian_lines": 600},
    "compress": {"input_lines": 2000},
    "ijpeg": {"image_lines": 1500},
    "synthetic-streams": {
        "spec": {"A": (65536, 0.6), "B": (32768, 0.4)},
        "rounds": 2,
        "lines_per_round": 2000,
    },
}


def _workload(app):
    return make_workload(app, seed=SEED, **TINY[app])


def _simulator(policy=ReplacementPolicy.LRU):
    return Simulator(CacheConfig(size=32 * 1024, assoc=4, policy=policy), seed=11)


def _run(workload, backend="reference", policy=ReplacementPolicy.LRU, **kwargs):
    """A whole run with its cache on ``backend``'s kernel."""
    with pinned_kernel(backend):
        return _simulator(policy).run(workload, **kwargs)


def _start(workload, backend="reference", **kwargs):
    """A session whose cache runs ``backend``'s kernel."""
    with pinned_kernel(backend):
        return _simulator().start_session(workload, **kwargs)


def _stats_tuple(stats):
    return (
        stats.app_refs,
        stats.app_misses,
        stats.app_cycles,
        stats.total_cycles,
        stats.instr_refs,
        stats.instr_misses,
    )


def _session_state(session):
    """Observable mid-run state: cursor, stats, clock and cache contents."""
    cache_stats = session.cache.stats.snapshot()
    return (
        session.stats.app_refs,
        session.stats.app_misses,
        session.clock.now,
        cache_stats.accesses,
        cache_stats.misses,
        cache_stats.writebacks,
        session.cache.contents_line_count(),
        session.cache.dirty_line_count(),
    )


@pytest.mark.parametrize("app", sorted(TINY))
class TestCompiledBitIdentity:
    def test_runstats_identical(self, app):
        workload = _workload(app)
        compiled = compile_workload(workload)
        generator = _run(_workload(app))
        fast = _run(workload, backend="array", compiled=compiled)
        assert _stats_tuple(generator.stats) == _stats_tuple(fast.stats)
        assert generator.actual.table() == fast.actual.table()

    def test_mid_run_snapshots_identical(self, app):
        workload = _workload(app)
        compiled = compile_workload(workload)
        gen_session = _start(_workload(app))
        fast_session = _start(workload, backend="array", compiled=compiled)
        while not gen_session.finished:
            running_gen = gen_session.step()
            running_fast = fast_session.step()
            assert running_gen == running_fast
            assert _session_state(gen_session) == _session_state(fast_session)

    def test_snapshot_resumes_on_the_other_path(self, app):
        workload = _workload(app)
        compiled = compile_workload(workload)
        expected = _run(_workload(app))

        # Generator session, interrupted mid-run ...
        session = _start(_workload(app))
        for _ in range(3):
            assert session.step()
        snap = session.snapshot()

        # ... resumed over the compiled stream (and the array kernel).
        resumed = SimulationSession.restore(snap, workload, compiled=compiled)
        resumed.run()
        result = resumed.finalize()
        assert _stats_tuple(result.stats) == _stats_tuple(expected.stats)

    def test_compiled_snapshot_resumes_on_generator(self, app):
        workload = _workload(app)
        compiled = compile_workload(workload)
        expected = _run(_workload(app))

        session = _start(workload, backend="array", compiled=compiled)
        for _ in range(3):
            assert session.step()
        snap = session.snapshot()

        resumed = SimulationSession.restore(snap, _workload(app))
        resumed.run()
        result = resumed.finalize()
        assert _stats_tuple(result.stats) == _stats_tuple(expected.stats)


class TestRandomPolicyReplay:
    """RANDOM replacement consumes the seeded eviction pool in miss
    order, and pool refills observe chunk lengths — the fused bulk path
    must replay the generator path's chunk boundaries exactly."""

    @pytest.mark.parametrize("app", ["swim", "compress"])
    def test_random_policy_runstats_identical(self, app):
        workload = _workload(app)
        compiled = compile_workload(workload)
        generator = _run(_workload(app), policy=ReplacementPolicy.RANDOM)
        fast = _run(
            workload,
            backend="array",
            policy=ReplacementPolicy.RANDOM,
            compiled=compiled,
        )
        assert _stats_tuple(generator.stats) == _stats_tuple(fast.stats)


class TestSimulatorCompileStreams:
    def test_compile_streams_flag_is_end_to_end(self, tmp_path):
        expected = _run(_workload("tomcatv"))
        sim = Simulator(
            CacheConfig(size=32 * 1024, assoc=4),
            seed=11,
            compile_streams=True,
            stream_cache_dir=str(tmp_path),
        )
        with pinned_kernel("auto"):
            result = sim.run(_workload("tomcatv"))
        assert _stats_tuple(result.stats) == _stats_tuple(expected.stats)
        # The stream cache was populated and is reused on the next run.
        assert any((tmp_path / "streams").iterdir())
        with pinned_kernel("auto"):
            again = sim.run(_workload("tomcatv"))
        assert _stats_tuple(again.stats) == _stats_tuple(expected.stats)

    def test_unsafe_workload_falls_back_to_generator(self, tmp_path):
        from repro.workloads.synthetic import TreeChaser

        sim = Simulator(
            CacheConfig(size=32 * 1024, assoc=4),
            seed=11,
            compile_streams=True,
            stream_cache_dir=str(tmp_path),
        )
        plain = Simulator(CacheConfig(size=32 * 1024, assoc=4), seed=11)
        kwargs = {"n_nodes": 200, "n_steps": 4, "refs_per_step": 500}
        chaser = TreeChaser(seed=SEED, **kwargs)
        expected = plain.run(TreeChaser(seed=SEED, **kwargs))
        result = sim.run(chaser)
        assert _stats_tuple(result.stats) == _stats_tuple(expected.stats)
