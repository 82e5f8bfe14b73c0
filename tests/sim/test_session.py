"""SimulationSession tests: lifecycle, multi-tool arbitration, snapshot/resume.

The bit-identity contract is the heart of this file: a run driven
stepwise through a session, or snapshotted mid-stream and restored in a
fresh process-equivalent context, must produce exactly the RunStats,
profiles and interrupt records of an uninterrupted ``Simulator.run``.
"""

import pickle

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.core.profile import DataProfile
from repro.core.sampling import SamplingProfiler
from repro.core.search import NWaySearch
from repro.errors import CounterError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.instrumentation import HandlerResult, InstrumentationTool
from repro.sim.session import (
    SNAPSHOT_VERSION,
    MultiCoreSession,
    SessionSnapshot,
    SimulationSession,
)
from repro.workloads.synthetic import SyntheticStreams, TreeChaser

CFG = CacheConfig(size=64 * 1024, assoc=2)


def make_sim(**kw):
    return Simulator(CFG, seed=5, **kw)


def make_workload(seed=3):
    return SyntheticStreams(
        {"A": (256 * 1024, 60), "B": (256 * 1024, 40)},
        rounds=4,
        lines_per_round=4000,
        seed=seed,
    )


def make_chaser(seed=7):
    return TreeChaser(seed=seed, n_nodes=300, n_steps=8, refs_per_step=3000)


def fingerprint(result):
    """Everything the bit-identity acceptance criterion compares."""
    return (
        result.stats.app_refs,
        result.stats.app_misses,
        result.stats.instr_refs,
        result.stats.instr_misses,
        result.stats.app_cycles,
        result.stats.instr_cycles,
        [
            (r.kind, r.cycle, r.handler_cycles, r.delivery_cycles, r.tool)
            for r in result.stats.interrupts.records
        ],
        None
        if result.actual is None
        else [(s.name, s.count) for s in result.actual.shares],
        None
        if result.measured is None
        else [(s.name, s.count) for s in result.measured.shares],
    )


class TickTool(InstrumentationTool):
    """Overflow- and/or timer-driven tool with deterministic handlers."""

    def __init__(self, name="tick", period=None, timer=None, stop_after=None):
        super().__init__()
        self.name = name
        self.period = period
        self.timer = timer
        self.stop_after = stop_after
        self.overflows = []
        self.timers = []

    def attach(self, ctx):
        return HandlerResult(rearm_overflow=self.period, next_timer_in=self.timer)

    def on_miss_overflow(self, cycle):
        self.overflows.append(cycle)
        done = self.stop_after is not None and len(self.overflows) >= self.stop_after
        return HandlerResult(
            handler_cycles=100,
            rearm_overflow=None if done else self.period,
            done=done,
        )

    def on_timer(self, cycle):
        self.timers.append(cycle)
        return HandlerResult(handler_cycles=300, next_timer_in=self.timer)

    def profile(self):
        return DataProfile(source=self.name)


# ----------------------------------------------------------------- lifecycle

class TestLifecycle:
    def test_stepwise_equals_run(self):
        via_run = make_sim().run(make_workload(), tool=SamplingProfiler(period=701))
        session = make_sim().start_session(
            make_workload(), tool=SamplingProfiler(period=701)
        )
        steps = 0
        while session.step():
            steps += 1
        via_session = session.finalize()
        assert steps > 1
        assert fingerprint(via_run) == fingerprint(via_session)

    def test_finished_property(self):
        session = make_sim().start_session(make_workload())
        assert not session.finished
        while session.step():
            pass
        assert session.finished

    def test_finalize_twice_rejected(self):
        session = make_sim().start_session(make_workload())
        while session.step():
            pass
        session.finalize()
        with pytest.raises(SimulationError):
            session.finalize()
        with pytest.raises(SimulationError):
            session.step()

    def test_attach_after_start_rejected(self):
        session = make_sim().start_session(make_workload())
        session.step()
        with pytest.raises(SimulationError):
            session.attach(TickTool(period=100))

    def test_run_helper_drives_to_completion(self):
        session = make_sim().start_session(make_workload())
        assert session.run() is True
        assert session.finished

    def test_run_max_steps(self):
        session = make_sim().start_session(make_workload())
        assert session.run(max_steps=1) is False
        assert not session.finished


# ---------------------------------------------------------------- multi-tool

class TestMultiTool:
    def test_two_tools_both_receive_interrupts(self):
        sampler = TickTool(name="s", period=600)
        timer = TickTool(name="t", timer=40_000)
        res = make_sim().run(make_workload(), tool=[sampler, timer])
        assert sampler.overflows and timer.timers
        kinds_by_tool = {r.tool for r in res.stats.interrupts.records}
        assert kinds_by_tool == {"s", "t"}

    def test_per_tool_cycle_accounting(self):
        sampler = TickTool(name="s", period=600)
        timer = TickTool(name="t", timer=40_000)
        res = make_sim().run(make_workload(), tool=[sampler, timer])
        by_tool = res.stats.instr_cycles_by_tool
        delivery = make_sim().cost_model.interrupt_delivery_cycles
        assert by_tool["s"] == len(sampler.overflows) * (delivery + 100)
        assert by_tool["t"] == len(timer.timers) * (delivery + 300)
        assert sum(by_tool.values()) == res.stats.instr_cycles

    def test_overflow_counter_contention_raises(self):
        with pytest.raises(CounterError, match="contention"):
            make_sim().run(
                make_workload(),
                tool=[TickTool(name="a", period=500), TickTool(name="b", period=700)],
            )

    def test_done_tool_releases_overflow_counter(self):
        """After the owner finishes, a timer-driven tool keeps running and
        the finished tool receives nothing further."""
        owner = TickTool(name="owner", period=400, stop_after=2)
        timer = TickTool(name="later", timer=10_000)
        res = make_sim().run(make_workload(), tool=[owner, timer])
        assert len(owner.overflows) == 2
        assert len(timer.timers) > 2
        by_tool = {}
        for r in res.stats.interrupts.records:
            by_tool[r.tool] = by_tool.get(r.tool, 0) + 1
        assert by_tool["owner"] == 2  # nothing delivered after `done`
        assert by_tool["later"] == len(timer.timers)
        last_owner = max(
            r.cycle for r in res.stats.interrupts.records if r.tool == "owner"
        )
        assert any(
            r.cycle > last_owner and r.tool == "later"
            for r in res.stats.interrupts.records
        )

    def test_timer_multiplexing_two_tools(self):
        fast = TickTool(name="fast", timer=20_000)
        slow = TickTool(name="slow", timer=90_000)
        make_sim().run(make_workload(), tool=[fast, slow])
        assert len(fast.timers) > len(slow.timers) > 0

    def test_sampler_and_search_share_run(self):
        """The paper's two techniques coexist: sampling owns the overflow
        counter, the search owns the timer and region bank."""
        sampler = SamplingProfiler(period=701)
        search = NWaySearch(n=4, interval_cycles=10_000)
        res = make_sim().run(make_workload(), tool=[sampler, search])
        assert res.tools is not None and len(res.tools) == 2
        assert res.tool is sampler  # primary = first attached
        assert res.measured is not None
        assert {r.tool for r in res.stats.interrupts.records} == {
            "sampling",
            "nway-search",
        }

    def test_single_tool_results_unchanged_by_list_form(self):
        a = make_sim().run(make_workload(), tool=SamplingProfiler(period=701))
        b = make_sim().run(make_workload(), tool=[SamplingProfiler(period=701)])
        assert fingerprint(a) == fingerprint(b)


# ------------------------------------------------------------------ snapshot

class TestSnapshotRestore:
    @pytest.mark.parametrize("cut", [1, 5, 23])
    def test_restore_bit_identical_sampling(self, cut):
        base = make_sim().run(make_workload(), tool=SamplingProfiler(period=701))
        session = make_sim().start_session(
            make_workload(), tool=SamplingProfiler(period=701)
        )
        for _ in range(cut):
            assert session.step()
        snapshot = pickle.loads(pickle.dumps(session.snapshot()))
        restored = SimulationSession.restore(snapshot, make_workload())
        while restored.step():
            pass
        assert fingerprint(restored.finalize()) == fingerprint(base)

    def test_restore_bit_identical_search(self):
        base = make_sim().run(
            make_workload(), tool=NWaySearch(n=4, interval_cycles=10_000)
        )
        session = make_sim().start_session(
            make_workload(), tool=NWaySearch(n=4, interval_cycles=10_000)
        )
        for _ in range(9):
            assert session.step()
        restored = SimulationSession.restore(session.snapshot(), make_workload())
        while restored.step():
            pass
        assert fingerprint(restored.finalize()) == fingerprint(base)

    def test_restore_with_heap_churn(self):
        """TreeChaser frees/reallocs mid-run: the fast-forward replay must
        rebuild the same heap state and the handler costs must carry the
        snapshotted map's pending probe counts."""
        base = make_sim().run(make_chaser(), tool=SamplingProfiler(period=509))
        session = make_sim().start_session(
            make_chaser(), tool=SamplingProfiler(period=509)
        )
        for _ in range(15):
            assert session.step()
        restored = SimulationSession.restore(
            pickle.loads(pickle.dumps(session.snapshot())), make_chaser()
        )
        while restored.step():
            pass
        assert fingerprint(restored.finalize()) == fingerprint(base)

    def test_restore_uninstrumented_no_ground_truth(self):
        base = make_sim().run(make_workload(), ground_truth=False)
        session = make_sim().start_session(make_workload(), ground_truth=False)
        for _ in range(3):
            assert session.step()
        restored = SimulationSession.restore(session.snapshot(), make_workload())
        while restored.step():
            pass
        assert fingerprint(restored.finalize()) == fingerprint(base)

    def test_snapshot_does_not_disturb_live_session(self):
        base = make_sim().run(make_workload(), tool=SamplingProfiler(period=701))
        session = make_sim().start_session(
            make_workload(), tool=SamplingProfiler(period=701)
        )
        while session.step():
            if not session.finished:
                try:
                    session.snapshot()  # snapshot at every step boundary
                except SimulationError:
                    break
        assert fingerprint(session.finalize()) == fingerprint(base)

    def test_save_load_roundtrip(self, tmp_path):
        session = make_sim().start_session(make_workload())
        session.step()
        path = session.snapshot().save(tmp_path / "x.snap")
        loaded = SessionSnapshot.load(path)
        assert loaded.version == SNAPSHOT_VERSION
        assert loaded.workload_name == make_workload().name

    def test_load_rejects_bad_version(self, tmp_path):
        session = make_sim().start_session(make_workload())
        session.step()
        snap = session.snapshot()
        snap.version = SNAPSHOT_VERSION + 1
        snap.save(tmp_path / "x.snap")
        with pytest.raises(SimulationError, match="version"):
            SessionSnapshot.load(tmp_path / "x.snap")

    def test_restore_rejects_wrong_workload(self):
        session = make_sim().start_session(make_workload())
        session.step()
        with pytest.raises(SimulationError, match="workload"):
            SimulationSession.restore(session.snapshot(), make_chaser())

    def test_snapshot_after_finalize_rejected(self):
        session = make_sim().start_session(make_workload())
        while session.step():
            pass
        with pytest.raises(SimulationError):
            session.snapshot()


class TestSnapshotLoadErrors:
    """Hostile snapshot files fail with a typed error naming the file."""

    def _saved(self, tmp_path):
        session = make_sim().start_session(make_workload())
        session.step()
        return session.snapshot().save(tmp_path / "x.snap")

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(SimulationError, match="x.snap"):
            SessionSnapshot.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.snap"
        path.write_bytes(b"")
        with pytest.raises(SimulationError, match="x.snap"):
            SessionSnapshot.load(path)

    def test_not_a_pickle(self, tmp_path):
        path = tmp_path / "x.snap"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(SimulationError, match="x.snap"):
            SessionSnapshot.load(path)

    def test_v4_file_refused_by_version(self, tmp_path):
        """A v4 file (per-core fields at top level, ``cores`` None)
        still unpickles, and is refused by its version stamp."""
        old = object.__new__(SessionSnapshot)
        old.__dict__.update(
            version=4, workload_name="streams", blocks_fetched=1, cores=None
        )
        path = tmp_path / "v4.snap"
        path.write_bytes(pickle.dumps(old))
        with pytest.raises(SimulationError, match="version 4"):
            SessionSnapshot.load(path)


class TestCheckpointCadence:
    @pytest.mark.parametrize("kind", ["single", "multi"])
    @pytest.mark.parametrize(
        ("every", "callback"),
        [(0, print), (-5, print), (1000, None)],
        ids=["zero", "negative", "no-callback"],
    )
    def test_bad_cadence_raises(self, kind, every, callback):
        if kind == "single":
            session = make_sim().start_session(make_workload())
        else:
            session = MultiCoreSession.start(
                [make_workload()], llc_config=CFG, seed=5
            )
        with pytest.raises(SimulationError, match="checkpoint_every_refs"):
            session.run(checkpoint_every_refs=every, on_checkpoint=callback)
        assert session.step(), "a refused cadence must not run the session"


# ------------------------------------------------------- repeated-run safety

class TestRepeatedRuns:
    """Satellite: Simulator.run on the SAME workload instance is safe."""

    def test_run_twice_same_instance_synthetic(self):
        sim = make_sim()
        wl = make_workload()
        first = sim.run(wl)
        second = sim.run(wl)
        fresh = make_sim().run(make_workload())
        assert fingerprint(first) == fingerprint(second) == fingerprint(fresh)

    def test_run_twice_same_instance_heap_churn(self):
        """TreeChaser mutates its substrate (frees/reallocs nodes) while
        generating; a second run must see a freshly rebuilt heap, not the
        churned leftovers."""
        sim = make_sim()
        wl = make_chaser()
        first = sim.run(wl, tool=SamplingProfiler(period=509))
        second = sim.run(wl, tool=SamplingProfiler(period=509))
        assert fingerprint(first) == fingerprint(second)

    def test_consumed_flag_lifecycle(self):
        wl = make_workload()
        assert not wl.consumed
        make_sim().run(wl)
        assert wl.consumed  # engine opened (and reset) the stream
        wl.reset()
        assert not wl.consumed and not wl._prepared


# --------------------------------------- max_refs / chunk boundary / timer

class TestMaxRefsChunkBoundary:
    """Satellite: max_refs landing exactly on a chunk boundary while a
    timer deadline is pending (refs_left x until_deadline x extra_cycles)."""

    def _workload(self):
        # One 100-ref block with fixed extra cycles, then another.
        from repro.workloads.base import Workload

        class TwoBlock(Workload):
            name = "two-block-timer"
            cycles_per_ref = 2.0

            def _declare(self):
                self._x = self.symbols.declare("X", 64 * 256)

            def _generate(self):
                addrs = np.arange(
                    self._x.base, self._x.base + 64 * 100, 64, dtype=np.uint64
                )
                yield self.block(addrs, label="first", extra_cycles=1000)
                yield self.block(addrs, label="second", extra_cycles=1000)

        return TwoBlock()

    def run_stats(self, chunk_size, max_refs, timer=None):
        sim = Simulator(CFG, seed=3, chunk_size=chunk_size)
        tool = TickTool(name="t", timer=timer) if timer is not None else None
        return sim.run(self._workload(), tool=tool, max_refs=max_refs).stats

    def test_truncation_on_chunk_boundary_with_pending_timer(self):
        """max_refs=50 with chunk_size=50: the cut lands exactly where a
        chunk ends, while a far-future timer deadline is still pending.
        The pending deadline must neither fire nor leak extra cycles."""
        stats = self.run_stats(chunk_size=50, max_refs=50, timer=10_000_000)
        assert stats.app_refs == 50
        assert len(stats.interrupts) == 0  # deadline never reached
        # Mid-block cut: no extra_cycles, exactly 50 refs x 2 cycles.
        assert stats.app_cycles == 100

    def test_truncation_on_chunk_and_block_boundary(self):
        """max_refs=100 = chunk 2 x 50 = exactly one full block: the
        completed block's extra_cycles must still be credited."""
        stats = self.run_stats(chunk_size=50, max_refs=100, timer=10_000_000)
        assert stats.app_refs == 100
        assert stats.app_cycles == 100 * 2 + 1000

    @pytest.mark.parametrize("chunk_size", [32, 50, 100, 1 << 15])
    def test_chunk_size_invariance_with_timer(self, chunk_size):
        """Identical results regardless of chunk geometry, with a live
        timer chopping chunks at deadlines."""
        ref = self.run_stats(chunk_size=1 << 15, max_refs=150, timer=90)
        got = self.run_stats(chunk_size=chunk_size, max_refs=150, timer=90)
        assert got.app_refs == ref.app_refs == 150
        assert got.app_cycles == ref.app_cycles
        assert got.instr_cycles == ref.instr_cycles
        assert [(r.kind, r.cycle) for r in got.interrupts.records] == [
            (r.kind, r.cycle) for r in ref.interrupts.records
        ]

    def test_timer_expiring_exactly_at_truncation(self):
        """Deadline lands on the same reference where max_refs cuts the
        run: the run ends; the deadline must not be delivered afterwards
        (stream processing stops first)."""
        # 50 refs x 2 cycles/ref = 100 cycles; deadline at exactly 100.
        stats = self.run_stats(chunk_size=50, max_refs=50, timer=100)
        assert stats.app_refs == 50
        # The timer fires at the chunk boundary *before* the truncation
        # check only if the engine reaches another iteration; whichever
        # way, refs must not exceed max_refs and cycles stay consistent.
        assert stats.app_cycles == 100
