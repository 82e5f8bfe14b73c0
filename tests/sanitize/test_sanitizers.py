"""Injected-fault tests: every sanitizer check must actually fire.

Each test corrupts one invariant the sanitizer guards — ledger
conservation, decorator chain identities, pipeline level identities,
RNG draw accounting, snapshot pickle fidelity — and asserts the
corresponding check raises :class:`SanitizerError` with a message
naming the broken identity. A sanitizer that cannot detect its own
injected fault is decoration, not defence.
"""

import numpy as np
import pytest

from repro import sanitize
from repro.cache import (
    CacheConfig,
    ReplacementPolicy,
    SetAssociativeCache,
    TwoLevelCache,
    make_cache,
    wrap_mechanisms,
)
from repro.core.sampling import SamplingProfiler
from repro.sanitize import SanitizerError
from repro.sanitize.ledger import check_component, check_stats
from repro.sanitize.rng import verify_cache_rng, verify_kernel_rng
from repro.sanitize.snapshot import snapshot_canary
from repro.sim.engine import Simulator
from repro.sim.session import MultiCoreSession, SimulationSession
from repro.workloads.synthetic import SyntheticStreams

CFG = CacheConfig(size=4096, line_size=64, assoc=2)


def stream(n=600, span=200, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, span, size=n).astype(np.uint64) * np.uint64(64)


@pytest.fixture
def active():
    sanitize.reset_checks()
    sanitize.activate()
    yield sanitize
    sanitize.deactivate()
    sanitize.reset_checks()


class TestToggle:
    def test_activate_deactivate(self):
        sanitize.activate()
        assert sanitize.is_active()
        sanitize.deactivate()
        assert not sanitize.is_active()

    def test_check_counters(self, active):
        sanitize.count_check("demo")
        sanitize.count_check("demo")
        assert sanitize.checks_run()["demo"] == 2
        sanitize.reset_checks()
        assert sanitize.checks_run() == {}


class TestLedgerConservation:
    def test_clean_cache_passes(self):
        cache = SetAssociativeCache(CFG, seed=1)
        cache.access(stream())
        check_component(cache)

    def test_corrupt_total_misses_fires(self):
        cache = SetAssociativeCache(CFG, seed=1)
        cache.access(stream())
        cache.stats.misses += 7  # bypasses CacheStats.record
        with pytest.raises(SanitizerError, match="per-tag sum"):
            check_stats(cache.stats)

    def test_corrupt_tag_decomposition_fires(self):
        cache = SetAssociativeCache(CFG, seed=1)
        cache.access(stream())
        cache.stats.accesses_by_tag["app"] -= 3
        with pytest.raises(SanitizerError, match="accesses total"):
            check_stats(cache.stats)

    def test_negative_writebacks_fire(self):
        cache = SetAssociativeCache(CFG, seed=1)
        cache.access(stream())
        cache.stats.writebacks = -1
        with pytest.raises(SanitizerError, match="negative writebacks"):
            check_stats(cache.stats)


class TestChainIdentity:
    def _decorated(self):
        base = SetAssociativeCache(CFG, seed=1, backend="reference")
        vc = wrap_mechanisms(base, "vc")
        vc.access(stream())
        return vc

    def test_clean_stack_passes(self):
        check_component(self._decorated())

    def test_corrupt_inner_accesses_fires(self):
        vc = self._decorated()
        vc.inner.stats.accesses += 5
        vc.inner.stats.accesses_by_tag["app"] += 5  # keep inner conserved
        with pytest.raises(SanitizerError, match="inner component recorded"):
            check_component(vc)

    def test_corrupt_probe_count_fires(self):
        vc = self._decorated()
        vc.stats.mechanism["vc_probes"] += 1
        with pytest.raises(SanitizerError, match="vc_probes"):
            check_component(vc)


class TestPipelineIdentity:
    def _hierarchy(self):
        two = TwoLevelCache(
            CacheConfig(size=1024, line_size=64, assoc=2), CFG, seed=1
        )
        two.access(stream())
        return two

    def test_clean_hierarchy_passes(self):
        check_component(self._hierarchy())

    def test_level_miss_inflation_fires(self):
        two = self._hierarchy()
        # An L2 recording more misses than L1 feeds it "created"
        # references out of nothing.
        extra = two.levels[0].stats.misses - two.levels[1].stats.misses + 1
        two.levels[1].stats.misses += extra
        two.levels[1].stats.misses_by_tag["app"] += extra
        with pytest.raises(SanitizerError, match="cannot create references"):
            check_component(two)

    def test_detached_shared_ledger_fires(self):
        import copy

        two = self._hierarchy()
        two.stats = copy.deepcopy(two.stats)  # breaks the identity contract
        with pytest.raises(SanitizerError, match="shared-ledger"):
            check_component(two)


class TestRngReplay:
    def _random_cache(self):
        cfg = CacheConfig(
            size=4096, line_size=64, assoc=4, policy=ReplacementPolicy.RANDOM
        )
        cache = make_cache(cfg, seed=9)
        cache.access(stream(n=2000, span=800))
        return cache

    def test_clean_replay_passes(self):
        cache = self._random_cache()
        verify_cache_rng(cache)
        assert cache._kernel._rand_draws > 0  # the check was not vacuous

    def test_corrupt_draw_count_fires(self):
        cache = self._random_cache()
        cache._kernel._rand_draws += 1
        with pytest.raises(SanitizerError, match="replay"):
            verify_cache_rng(cache)

    def test_unaccounted_draw_fires(self):
        cache = self._random_cache()
        cache._kernel._rng.integers(0, 4, size=8)  # draw behind the counter
        with pytest.raises(SanitizerError, match="replay"):
            verify_kernel_rng(cache._kernel)

    def test_unaccounted_kernel_is_skipped(self):
        class Plain:
            pass

        verify_kernel_rng(Plain())  # no _seed/_rand_draws: silently skipped


class _DriftingInt(int):
    """Pickles to a *different* int — a lossy ``__reduce__`` stand-in."""

    def __reduce__(self):
        return (int, (int(self) + 1,))


class TestSnapshotCanary:
    def _session(self):
        workload = SyntheticStreams(
            {"A": (64 * 1024, 100)}, rounds=2, lines_per_round=1500, seed=3
        )
        sim = Simulator(CacheConfig(size=16 * 1024, assoc=2), seed=5)
        session = sim.start_session(workload, tool=SamplingProfiler(period=701))
        session.step()
        return session

    def test_clean_snapshot_passes(self):
        snapshot_canary(self._session().snapshot())

    def test_lossy_scalar_fires(self):
        snap = self._session().snapshot()
        snap.cores[0].blocks_fetched = _DriftingInt(snap.cores[0].blocks_fetched)
        with pytest.raises(SanitizerError, match="blocks_fetched"):
            snapshot_canary(snap)

    def test_lossy_scalar_on_a_later_core_fires(self):
        workloads = [
            SyntheticStreams(
                {"A": (64 * 1024, 100)}, rounds=2, lines_per_round=1500, seed=3
            )
            for _ in range(2)
        ]
        session = MultiCoreSession.start(
            workloads, llc_config=CacheConfig(size=16 * 1024, assoc=2), seed=5
        )
        session.step()
        session.step()  # one turn each: core 0 runs next, core 1 is second
        snap = session.snapshot()
        snapshot_canary(snap)
        assert [core.core_id for core in snap.cores] == [0, 1]
        core1 = snap.cores[1]
        core1.blocks_fetched = _DriftingInt(core1.blocks_fetched)
        with pytest.raises(SanitizerError, match="core 1: blocks_fetched"):
            snapshot_canary(snap)

    def test_unpicklable_snapshot_fires(self):
        snap = self._session().snapshot()
        snap.workload_name = lambda: None  # pickle cannot serialise this
        with pytest.raises(SanitizerError, match="pickle roundtrip"):
            snapshot_canary(snap)


class TestEndToEndHooks:
    """The REPRO_SANITIZE gate actually wires checks into hot paths."""

    def test_access_runs_ledger_checks_when_active(self, active):
        cache = SetAssociativeCache(CFG, seed=1)
        cache.access(stream())
        assert sanitize.checks_run()["ledger.conservation"] > 0

    def test_inactive_mode_runs_no_checks(self):
        sanitize.deactivate()
        sanitize.reset_checks()
        cache = SetAssociativeCache(CFG, seed=1)
        cache.access(stream())
        assert sanitize.checks_run() == {}

    def test_corrupted_ledger_caught_at_next_commit(self, active):
        cache = SetAssociativeCache(CFG, seed=1)
        cache.access(stream())
        cache.stats.misses += 1
        with pytest.raises(SanitizerError):
            cache.access(stream(seed=1))

    def test_snapshot_and_restore_run_canary_and_replay(self, active):
        workload = SyntheticStreams(
            {"A": (64 * 1024, 100)}, rounds=2, lines_per_round=1500, seed=3
        )
        sim = Simulator(CacheConfig(size=16 * 1024, assoc=2), seed=5)
        session = sim.start_session(workload, tool=SamplingProfiler(period=701))
        session.step()
        snap = session.snapshot()
        assert sanitize.checks_run()["snapshot.canary"] == 1
        restored = SimulationSession.restore(
            snap,
            SyntheticStreams(
                {"A": (64 * 1024, 100)}, rounds=2, lines_per_round=1500, seed=3
            ),
        )
        assert sanitize.checks_run()["rng.replay"] >= 1
        while restored.step():
            pass
