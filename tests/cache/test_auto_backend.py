"""The "auto" kernel backend: decision logic and bit-identity.

``backend="auto"`` starts on the array kernel, watches a probe window,
and switches to the reference kernel only for conflict-heavy RANDOM
replacement (the one regime where the array kernel's sequential
fallback loses to the plain loop). Whatever it decides, results must be
bit-identical to both fixed backends — the choice is a speed knob.
"""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.kernels.auto import PROBE_REFS, AutoKernel
from repro.cache.policies import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache

CFG_LRU = dict(size=16 * 1024, line_size=64, assoc=4)


def _uniform(n, n_lines, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_lines, n).astype(np.uint64) * np.uint64(64)


def _run(backend, addrs, policy=ReplacementPolicy.LRU, chunk=1 << 14):
    cfg = CacheConfig(policy=policy, backend=backend, **CFG_LRU)
    cache = SetAssociativeCache(cfg, seed=7)
    for pos in range(0, len(addrs), chunk):
        cache.access(addrs[pos : pos + chunk])
    return cache


class TestDecision:
    def test_config_backend_auto_builds_the_auto_kernel(self):
        cache = SetAssociativeCache(CacheConfig(backend="auto", **CFG_LRU), seed=7)
        assert isinstance(cache._kernel, AutoKernel)

    def test_lru_stays_on_the_array_kernel(self):
        addrs = _uniform(PROBE_REFS + 4096, n_lines=2048)
        cache = _run("auto", addrs)
        assert cache._kernel._decided
        assert cache._kernel._inner.name == "array"

    def test_conflict_heavy_random_switches_to_reference(self):
        # 8x the cache in lines -> miss density far above the threshold.
        addrs = _uniform(PROBE_REFS + 4096, n_lines=2048)
        cache = _run("auto", addrs, policy=ReplacementPolicy.RANDOM)
        assert cache._kernel._decided
        assert cache._kernel._inner.name == "reference"

    def test_cache_resident_random_keeps_the_array_kernel(self):
        # Everything fits: near-zero miss density, no reason to switch.
        addrs = _uniform(PROBE_REFS + 4096, n_lines=128)
        cache = _run("auto", addrs, policy=ReplacementPolicy.RANDOM)
        assert cache._kernel._decided
        assert cache._kernel._inner.name == "array"


class TestBitIdentity:
    @pytest.mark.parametrize(
        "policy",
        [ReplacementPolicy.LRU, ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM],
    )
    def test_auto_matches_fixed_backends_across_the_switch(self, policy):
        # Long enough to cross the probe boundary mid-stream.
        addrs = _uniform(PROBE_REFS + 50_000, n_lines=2048)
        stats = {
            backend: _run(backend, addrs, policy=policy).stats
            for backend in ("reference", "array", "auto")
        }
        baseline = stats["reference"]
        for backend in ("array", "auto"):
            assert stats[backend].misses == baseline.misses, backend
            assert stats[backend].writebacks == baseline.writebacks, backend
            assert stats[backend].accesses == baseline.accesses, backend


class TestSnapshot:
    def test_snapshot_preserves_the_committed_decision(self):
        addrs = _uniform(PROBE_REFS + 40_000, n_lines=2048)
        cache = _run("auto", addrs, policy=ReplacementPolicy.RANDOM)
        assert cache._kernel._inner.name == "reference"
        state = cache._kernel.snapshot()

        fresh = SetAssociativeCache(
            CacheConfig(
                policy=ReplacementPolicy.RANDOM, backend="auto", **CFG_LRU
            ),
            seed=7,
        )
        fresh._kernel.restore(state)
        assert fresh._kernel._decided
        assert fresh._kernel._inner.name == "reference"

        # Both continue identically from the restored state.
        tail = _uniform(30_000, n_lines=2048, seed=9)
        r1 = cache._kernel.access(tail)
        r2 = fresh._kernel.access(tail)
        assert r1.misses == r2.misses
        assert r1.writebacks == r2.writebacks

    def test_snapshot_preserves_a_pending_probe(self):
        addrs = _uniform(1 << 12, n_lines=2048)
        cache = _run("auto", addrs, chunk=1 << 12)
        kernel = cache._kernel
        assert not kernel._decided
        state = kernel.snapshot()
        fresh = SetAssociativeCache(
            CacheConfig(backend="auto", **CFG_LRU), seed=7
        )
        fresh._kernel.restore(state)
        assert not fresh._kernel._decided
        assert fresh._kernel._probe_refs == kernel._probe_refs
        assert fresh._kernel._probe_misses == kernel._probe_misses


class TestBudgetCommit:
    """A miss budget commits the auto kernel to the reference backend."""

    def _cache(self, policy=ReplacementPolicy.LRU):
        cfg = CacheConfig(policy=policy, backend="auto", **CFG_LRU)
        return SetAssociativeCache(cfg, seed=7)

    def test_first_budgeted_access_switches_for_good(self):
        cache = self._cache()
        kernel = cache._kernel
        cache.access(_uniform(5000, n_lines=512))
        assert kernel._inner.name == "array"
        assert not kernel._decided
        cache.access(_uniform(5000, n_lines=512, seed=4), miss_budget=50)
        assert kernel._inner.name == "reference"
        assert kernel._decided
        # Unbudgeted accesses, even past the probe window, stay put.
        cache.access(_uniform(PROBE_REFS + 4096, n_lines=512, seed=5))
        assert kernel._inner.name == "reference"

    @pytest.mark.parametrize(
        "policy",
        [ReplacementPolicy.LRU, ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM],
    )
    def test_snapshots_across_the_switch_resume_identically(self, policy):
        head = _uniform(6000, n_lines=1024)
        cut = _uniform(6000, n_lines=1024, seed=4)
        tail = _uniform(20_000, n_lines=1024, seed=5)
        cache = self._cache(policy)
        cache.access(head)
        before = cache._kernel.snapshot()
        cache.access(cut, miss_budget=100)
        after = cache._kernel.snapshot()
        want = cache._kernel.access(tail)

        for state, inner, steps in (
            (before, "array", [(cut, 100), (tail, None)]),
            (after, "reference", [(tail, None)]),
        ):
            fresh = self._cache(policy)
            fresh._kernel.restore(state)
            assert fresh._kernel._inner.name == inner
            for addrs, budget in steps:
                got = fresh._kernel.access(addrs, miss_budget=budget)
            assert fresh._kernel._inner.name == "reference"
            assert got.miss_mask.tolist() == want.miss_mask.tolist()
            assert got.writebacks == want.writebacks
            assert fresh._kernel.snapshot() == cache._kernel.snapshot()

    def test_rng_replay_holds_after_the_switch(self):
        from repro import sanitize
        from repro.core.sampling import SamplingProfiler
        from repro.sim.engine import Simulator
        from repro.sim.session import SimulationSession
        from repro.workloads.synthetic import SyntheticStreams

        def workload():
            return SyntheticStreams(
                {"A": (64 * 1024, 100)}, rounds=2, lines_per_round=1500, seed=3
            )

        cfg = CacheConfig(
            size=16 * 1024, assoc=4, policy=ReplacementPolicy.RANDOM,
            backend="auto",
        )
        sanitize.reset_checks()
        sanitize.activate()
        try:
            session = Simulator(cfg, seed=5).start_session(
                workload(), tool=SamplingProfiler(period=701)
            )
            session.step()
            kernel = session.cache._kernel
            assert kernel._inner.name == "reference"
            assert kernel._inner._rand_draws > 0
            sanitize.verify_kernel_rng(kernel)
            # Restoring verifies the replay at the restore boundary too.
            resumed = SimulationSession.restore(session.snapshot(), workload())
            assert resumed.cache._kernel._inner.name == "reference"
            resumed.run()
            sanitize.verify_cache_rng(resumed.cache)
            assert sanitize.checks_run()["rng.replay"] >= 3
        finally:
            sanitize.deactivate()
            sanitize.reset_checks()
