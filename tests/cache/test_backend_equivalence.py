"""Differential harness: the "array" backend must be bit-identical to
the "reference" backend.

Randomized workloads are replayed through both backends chunk by chunk;
after every chunk the AccessResults (miss mask + consumed) and the full
CacheStats must match exactly, including mid-chunk ``miss_budget`` stops,
write masks, prefetching and the seeded RANDOM-eviction stream. At the
end the observable set state (per-set residency order, dirty counts) must
match too, so a divergence can never hide between chunks.
"""


import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import TwoLevelCache
from repro.cache.policies import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache
from tests.conftest import pinned_kernel

POLICIES = list(ReplacementPolicy)


def addrs_of_lines(line_numbers, line_size=64):
    return np.asarray(line_numbers, dtype=np.uint64) * np.uint64(line_size)


def make_pair(cfg, seed=11, prefetch=False):
    return (
        SetAssociativeCache(
            cfg, seed=seed, prefetch_next_line=prefetch, backend="reference"
        ),
        SetAssociativeCache(
            cfg, seed=seed, prefetch_next_line=prefetch, backend="array"
        ),
    )


def assert_same_state(ref, arr, cfg):
    for set_idx in range(cfg.n_sets):
        assert ref.lines_in_set(set_idx) == arr.lines_in_set(set_idx), set_idx
    assert ref.contents_line_count() == arr.contents_line_count()
    assert ref.dirty_line_count() == arr.dirty_line_count()


def replay(ref, arr, chunks, budgets=None, writes=None):
    """Feed both backends the same chunks, asserting equality throughout."""
    for k, chunk in enumerate(chunks):
        budget = budgets[k] if budgets is not None else None
        w = writes[k] if writes is not None else None
        pos = 0
        while pos < len(chunk):
            sub = chunk[pos:]
            sub_w = w[pos:] if w is not None else None
            ra = ref.access(sub, miss_budget=budget, writes=sub_w)
            rb = arr.access(sub, miss_budget=budget, writes=sub_w)
            assert ra.consumed == rb.consumed, f"chunk {k}"
            assert np.array_equal(ra.miss_mask, rb.miss_mask), f"chunk {k}"
            assert ref.stats.__dict__ == arr.stats.__dict__, f"chunk {k}"
            pos += ra.consumed


def random_stream(rng, n, n_lines, follower_frac=0.5):
    """Random lines with ``follower_frac`` consecutive same-line repeats,
    the shape the workload generators emit for spatial locality."""
    lines = rng.integers(0, n_lines, n)
    rep = rng.random(n) < follower_frac
    return addrs_of_lines(np.repeat(lines, 1 + rep.astype(int))[:n])


class TestRandomizedReplay:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    def test_policy_assoc_grid(self, policy, assoc):
        cfg = CacheConfig(
            size=64 * assoc * 32, line_size=64, assoc=assoc, policy=policy
        )
        ref, arr = make_pair(cfg, seed=7)
        rng = np.random.default_rng(assoc * 100 + hash(policy.value) % 97)
        chunks, budgets, writes = [], [], []
        for _ in range(25):
            n = int(rng.integers(1, 600))
            chunks.append(random_stream(rng, n, n_lines=3 * cfg.n_lines))
            budgets.append(
                int(rng.integers(1, 30)) if rng.random() < 0.5 else None
            )
            writes.append(
                rng.random(len(chunks[-1])) < 0.3
                if rng.random() < 0.5
                else None
            )
        replay(ref, arr, chunks, budgets, writes)
        assert_same_state(ref, arr, cfg)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_prefetch_equivalence(self, policy):
        cfg = CacheConfig(size=4096, line_size=64, assoc=4, policy=policy)
        ref, arr = make_pair(cfg, seed=3, prefetch=True)
        rng = np.random.default_rng(17)
        chunks = [random_stream(rng, 300, 128) for _ in range(15)]
        budgets = [int(rng.integers(1, 25)) if i % 2 else None for i in range(15)]
        writes = [rng.random(len(c)) < 0.4 for c in chunks]
        replay(ref, arr, chunks, budgets, writes)
        assert_same_state(ref, arr, cfg)
        assert ref.stats.prefetches > 0  # the feature actually fired

    def test_random_policy_pool_stays_in_sync(self):
        """RANDOM evictions must consume the shared pool identically even
        when chunk sizes (which gate the refill rule) differ wildly."""
        cfg = CacheConfig(
            size=16 * 1024, assoc=4, policy=ReplacementPolicy.RANDOM
        )
        ref, arr = make_pair(cfg, seed=123)
        rng = np.random.default_rng(5)
        for n in (1, 4096, 3, 900, 5000, 17, 2500):
            addrs = random_stream(rng, n, 2048)
            ra = ref.access(addrs)
            rb = arr.access(addrs)
            assert np.array_equal(ra.miss_mask, rb.miss_mask)
        assert_same_state(ref, arr, cfg)


class TestBatchPath:
    """Chunks large enough to trigger the array kernel's vectorised
    guaranteed-miss batching, with and without budget stops."""

    def test_streaming_chunks(self):
        cfg = CacheConfig(size=256 * 1024, assoc=4)
        ref, arr = make_pair(cfg)
        base = 0
        for _ in range(5):
            lines = np.repeat(np.arange(base, base + 8000, dtype=np.uint64), 2)
            base += 8000
            replay(ref, arr, [addrs_of_lines(lines)])
        assert_same_state(ref, arr, cfg)

    def test_streaming_with_budget_stops(self):
        cfg = CacheConfig(size=256 * 1024, assoc=4)
        ref, arr = make_pair(cfg)
        lines = np.repeat(np.arange(20000, dtype=np.uint64), 2)
        replay(ref, arr, [addrs_of_lines(lines)], budgets=[997])
        assert_same_state(ref, arr, cfg)

    def test_streaming_over_dirty_state(self):
        """Batched evictions must write back dirty lines left by earlier
        write chunks."""
        cfg = CacheConfig(size=8 * 1024, assoc=4)
        ref, arr = make_pair(cfg)
        warm = addrs_of_lines(np.arange(128, dtype=np.uint64))
        wmask = np.ones(128, dtype=bool)
        ref.access(warm, writes=wmask)
        arr.access(warm, writes=wmask)
        # Clean streaming sweep evicts the dirty lines via the batch path.
        sweep = addrs_of_lines(np.arange(1000, 6000, dtype=np.uint64))
        replay(ref, arr, [sweep])
        assert ref.stats.writebacks > 0
        assert ref.stats.__dict__ == arr.stats.__dict__
        assert_same_state(ref, arr, cfg)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_hit_run_promotes(self, policy):
        """All-hit chunks over a warm cache (the certified-hit run path):
        LRU promote order must match the per-reference loop exactly."""
        cfg = CacheConfig(size=64 * 1024, assoc=4, policy=policy)
        ref, arr = make_pair(cfg, seed=21)
        rng = np.random.default_rng(13)
        warm = addrs_of_lines(np.arange(1024, dtype=np.uint64))
        ref.access(warm)
        arr.access(warm)
        for _ in range(6):  # in-cache reuse: every chunk is pure hits
            replay(ref, arr, [addrs_of_lines(rng.integers(0, 1024, 8000))])
        assert ref.stats.misses == 1024  # only the warmup cold misses
        assert_same_state(ref, arr, cfg)

    def test_alternating_hit_and_miss_runs(self):
        """Chunks that alternate long hit runs with long miss runs drive
        the phase loop through both run kinds against live state."""
        cfg = CacheConfig(size=64 * 1024, assoc=4)
        ref, arr = make_pair(cfg, seed=5)
        rng = np.random.default_rng(41)
        hot = np.arange(512, dtype=np.uint64)
        cold = 10_000
        pieces = []
        for _ in range(6):
            pieces.append(rng.permutation(hot))
            pieces.append(np.arange(cold, cold + 700, dtype=np.uint64))
            cold += 700
        chunk = addrs_of_lines(np.concatenate(pieces))
        ref.access(addrs_of_lines(hot))
        arr.access(addrs_of_lines(hot))
        replay(ref, arr, [chunk])
        replay(ref, arr, [chunk], budgets=[151])  # budget cut mid-phase
        assert_same_state(ref, arr, cfg)

    def test_fifo_streaming(self):
        cfg = CacheConfig(size=64 * 1024, assoc=8, policy=ReplacementPolicy.FIFO)
        ref, arr = make_pair(cfg)
        rng = np.random.default_rng(2)
        for _ in range(4):
            replay(ref, arr, [random_stream(rng, 8192, 4096, 0.5)])
        assert_same_state(ref, arr, cfg)


class TestHierarchyBackends:
    def make_pair(self, seed=9):
        l1 = CacheConfig(size=4 * 1024, assoc=2)
        l2 = CacheConfig(size=64 * 1024, assoc=4)
        with pinned_kernel("reference"):
            ref = TwoLevelCache(l1, l2, seed=seed)
        with pinned_kernel("array"):
            arr = TwoLevelCache(l1, l2, seed=seed)
        return ref, arr

    def test_hierarchy_equivalence_with_budgets(self):
        ref, arr = self.make_pair()
        rng = np.random.default_rng(31)
        for k in range(12):
            stream = addrs_of_lines(rng.integers(0, 4096, 3000))
            budget = int(rng.integers(1, 40)) if k % 2 else None
            pos = 0
            while pos < len(stream):
                ra = ref.access(stream[pos:], miss_budget=budget)
                rb = arr.access(stream[pos:], miss_budget=budget)
                assert ra.consumed == rb.consumed
                assert np.array_equal(ra.miss_mask, rb.miss_mask)
                assert ref.stats.__dict__ == arr.stats.__dict__
                assert ref.l1_stats.__dict__ == arr.l1_stats.__dict__
                pos += ra.consumed
        assert ref.contents_line_count() == arr.contents_line_count()
        assert ref.l1_contents_line_count() == arr.l1_contents_line_count()


class TestEndToEnd:
    """Whole-pipeline equality of simulated runs."""

    def test_simulator_runs_identical(self):
        from repro.core.sampling import SamplingProfiler
        from repro.sim.engine import Simulator
        from repro.workloads.registry import make_workload

        results = {}
        for backend in ("reference", "array"):
            sim = Simulator(CacheConfig(size=256 * 1024, assoc=4), seed=99)
            wl = make_workload("tomcatv", seed=99, n_steps=4, rows_per_step=16)
            tool = SamplingProfiler(period=2048, seed=99)
            with pinned_kernel(backend):
                results[backend] = sim.run(wl, tool=tool)
        a, b = results["reference"], results["array"]
        assert a.stats.app_refs == b.stats.app_refs
        assert a.stats.app_misses == b.stats.app_misses
        assert a.stats.app_cycles == b.stats.app_cycles
        assert a.stats.instr_refs == b.stats.instr_refs
        assert a.stats.instr_misses == b.stats.instr_misses
        assert len(a.stats.interrupts) == len(b.stats.interrupts)
        assert a.actual.as_dict() == b.actual.as_dict()
        assert a.measured.as_dict() == b.measured.as_dict()
