"""MultiCoreSession: interleaving, bit-identity, contention attribution.

The refactor contract (DESIGN.md section 13): a 1-core
:class:`MultiCoreSession` is *bit-identical* to the single-core
:class:`SimulationSession` over the same workload and seeds, and in the
N-core case every shared-level miss is classified exactly one way (self
vs contention) with per-(core, object) counts that conserve against the
port ledgers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.errors import CacheConfigError, SimulationError
from repro.sim import CoreRateObserver, MultiCoreSession, Simulator
from repro.sim.blocks import ReferenceBlock
from repro.sim.session import SimulationSession
from repro.workloads.registry import SPEC_WORKLOADS, make_workload
from repro.workloads.trace import TraceWorkload

pytestmark = pytest.mark.multicore

LLC = CacheConfig(size=64 * 1024, assoc=4)
L1 = CacheConfig(size=8 * 1024, assoc=4)
SEED = 7


def quick_workload(app: str, runner):
    return make_workload(app, seed=SEED, **runner.workload_kwargs(app))


def run_single(workload) -> object:
    return Simulator(LLC, l1_config=L1, seed=SEED).run(workload)


def run_multi(workloads, **kwargs):
    session = MultiCoreSession.start(
        workloads, llc_config=LLC, l1_config=L1, seed=SEED, **kwargs
    )
    session.run()
    return session.finalize()


class TestOneCoreBitIdentity:
    @pytest.mark.parametrize("app", sorted(SPEC_WORKLOADS))
    def test_every_registry_workload(self, app, quick_runner):
        single = run_single(quick_workload(app, quick_runner))
        multi = run_multi([quick_workload(app, quick_runner)])
        core = multi.cores[0]
        assert core.stats == single.stats
        assert core.actual.table() == single.actual.table()
        # Degenerate shadow: same seed and geometry as the leaf, so every
        # LLC miss classifies as self.
        assert core.contention.ledger.contention_misses == 0
        assert core.contention.ledger.rescued_misses == 0
        assert (
            core.contention.ledger.self_misses
            == core.cache_stats.misses
            == single.cache_stats.misses
        )

    def test_aggregate_equals_the_single_core(self, quick_runner):
        single = run_single(quick_workload("compress", quick_runner))
        multi = run_multi([quick_workload("compress", quick_runner)])
        assert multi.stats.app_refs == single.stats.app_refs
        assert multi.stats.app_misses == single.stats.app_misses
        assert multi.stats.app_cycles == single.stats.app_cycles
        assert multi.cache_stats.misses == single.cache_stats.misses


class TestContentionConservation:
    @pytest.fixture(scope="class")
    def duo(self, quick_runner):
        return run_multi(
            [
                quick_workload("compress", quick_runner),
                quick_workload("ijpeg", quick_runner),
            ]
        )

    def test_per_core_objects_sum_to_ledger(self, duo):
        for core in duo.cores:
            profile = core.contention
            ledger = profile.ledger
            assert (
                sum(profile.self_by_object.values()) + profile.unattributed_self
                == ledger.self_misses
            )
            assert (
                sum(profile.contention_by_object.values())
                + profile.unattributed_contention
                == ledger.contention_misses
            )
            # Every port miss classified exactly one way.
            assert ledger.classified_misses == core.cache_stats.misses

    def test_cores_sum_to_shared_aggregate(self, duo):
        assert sum(c.cache_stats.misses for c in duo.cores) == (
            duo.cache_stats.misses
        )
        assert sum(c.cache_stats.accesses for c in duo.cores) == (
            duo.cache_stats.accesses
        )

    def test_namespaces_keep_objects_distinct(self, duo):
        names = set(duo.cores[0].contention.self_by_object) | set(
            duo.cores[1].contention.self_by_object
        )
        assert all(n.startswith(("c0:", "c1:")) for n in names)

    def test_makespan_and_merged_components(self, duo):
        assert duo.stats.app_cycles == max(
            c.stats.app_cycles for c in duo.cores
        )
        labels = [name for name, _ in duo.component_stats]
        assert labels[0] == "llc"
        assert "c0.l1" in labels and "c1.l1" in labels


class TestDisjointCoRunners:
    def test_disjoint_set_ranges_report_zero_contention(self):
        # Two synthetic traces confined to disjoint set-index halves of
        # the shared LLC. CORE_STRIDE is a power of two, so relocation
        # preserves set indices and the pair cannot evict each other.
        base = 0x1_2000_0000  # data-segment base, set index 0
        n_sets = LLC.n_sets
        line = LLC.line_size

        def trace(sets):
            addrs = np.array(
                [base + s * line for _ in range(40) for s in sets],
                dtype=np.uint64,
            )
            return [ReferenceBlock(addrs=addrs, cycles_per_ref=1.0)]

        low = range(0, n_sets // 2, 2)
        high = range(n_sets // 2, n_sets, 2)
        span = n_sets * line
        make = lambda sets: TraceWorkload(
            trace(sets), layout={"arena": (base, span)}, seed=SEED
        )
        result = run_multi([make(low), make(high)])
        for core in result.cores:
            ledger = core.contention.ledger
            assert ledger.contention_misses == 0
            assert ledger.rescued_misses == 0
            assert ledger.self_misses == core.cache_stats.misses > 0


class TestSnapshotRestore:
    def test_mid_run_snapshot_resume_is_bit_identical(
        self, tmp_path, quick_runner
    ):
        workloads = lambda: [
            quick_workload("compress", quick_runner),
            quick_workload("ijpeg", quick_runner),
        ]
        golden = run_multi(workloads(), ratios=[2, 1])

        session = MultiCoreSession.start(
            workloads(), llc_config=LLC, l1_config=L1, seed=SEED, ratios=[2, 1]
        )
        for _ in range(6):
            assert session.step()
        path = tmp_path / "mc.snap"
        session.snapshot().save(path)
        from repro.sim.session import SessionSnapshot

        restored = MultiCoreSession.restore(SessionSnapshot.load(path), workloads())
        restored.run()
        resumed = restored.finalize()

        assert resumed.stats == golden.stats
        assert resumed.cache_stats == golden.cache_stats
        for a, b in zip(resumed.cores, golden.cores):
            assert a.stats == b.stats
            assert a.contention.ledger.snapshot() == b.contention.ledger.snapshot()
            assert a.contention.self_by_object == b.contention.self_by_object
            assert (
                a.contention.contention_by_object
                == b.contention.contention_by_object
            )

    def test_resume_after_one_core_finished_is_bit_identical(
        self, tmp_path, quick_runner
    ):
        """A checkpoint can land after one co-runner's stream ended and
        before the other's did; the finished core must resume finished."""

        def workloads():
            return [
                quick_workload("compress", quick_runner),
                quick_workload("ijpeg", quick_runner),
            ]

        golden = run_multi(workloads())

        session = MultiCoreSession.start(
            workloads(), llc_config=LLC, l1_config=L1, seed=SEED
        )
        while not any(core.session.finished for core in session.cores):
            assert session.step()
        assert not session.finished
        path = tmp_path / "mc.snap"
        session.snapshot().save(path)
        restored = MultiCoreSession.restore(path, workloads())
        restored.run()
        resumed = restored.finalize()

        assert resumed.stats == golden.stats
        assert resumed.cache_stats == golden.cache_stats
        for a, b in zip(resumed.cores, golden.cores):
            assert a.stats == b.stats
            assert a.actual.table() == b.actual.table()
            assert a.contention.self_by_object == b.contention.self_by_object
            assert (
                a.contention.contention_by_object
                == b.contention.contention_by_object
            )

    def test_single_core_restore_refuses_multicore_snapshots(self, quick_runner):
        session = MultiCoreSession.start(
            [
                quick_workload("compress", quick_runner),
                quick_workload("ijpeg", quick_runner),
            ],
            llc_config=LLC,
            l1_config=L1,
            seed=SEED,
        )
        for _ in range(8):
            session.step()
        snap = session.snapshot()
        assert snap.version == 5
        assert len(snap.cores) == 2
        with pytest.raises(SimulationError, match="multi-core"):
            SimulationSession.restore(snap, quick_workload("compress", quick_runner))

    def test_multicore_restore_refuses_single_core_snapshots(self, quick_runner):
        workload = quick_workload("compress", quick_runner)
        session = Simulator(LLC, l1_config=L1, seed=SEED).start_session(workload)
        for _ in range(4):
            session.step()
        snap = session.snapshot()
        assert len(snap.cores) == 1
        with pytest.raises(SimulationError, match="SimulationSession.restore"):
            MultiCoreSession.restore(
                snap, [quick_workload("compress", quick_runner)]
            )


class TestValidationAndObservers:
    def test_rejects_decorated_configs_naming_the_stack(self, quick_runner):
        decorated = CacheConfig(size=64 * 1024, assoc=4, mechanisms="vc:16")
        with pytest.raises(CacheConfigError, match=r"vc\(16\)"):
            MultiCoreSession.start(
                [quick_workload("compress", quick_runner)],
                llc_config=decorated,
                seed=SEED,
            )

    def test_rejects_ratio_shape_mismatch(self, quick_runner):
        with pytest.raises(SimulationError, match="ratios"):
            MultiCoreSession.start(
                [quick_workload("compress", quick_runner)],
                llc_config=LLC,
                seed=SEED,
                ratios=[1, 2],
            )

    def test_core_rate_observer_sees_every_core(self, quick_runner):
        rates = CoreRateObserver()
        session = MultiCoreSession.start(
            [
                quick_workload("compress", quick_runner),
                quick_workload("ijpeg", quick_runner),
            ],
            llc_config=LLC,
            l1_config=L1,
            seed=SEED,
            observers=[rates],
        )
        session.run()
        result = session.finalize()
        rows = rates.rows()
        assert [core for core, *_ in rows] == [0, 1]
        for (core_id, refs, miss_rate, _), core in zip(rows, result.cores):
            assert core_id == core.core_id
            assert refs == core.stats.app_refs
            assert miss_rate == pytest.approx(
                core.stats.app_misses / core.stats.app_refs
            )
