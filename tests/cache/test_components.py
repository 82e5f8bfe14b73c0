"""Component pipeline and mechanism-decorator tests.

Covers the ISSUE-8 protocol contracts: leaf evolution is untouched by
decoration, every ledger's counters reconcile across the stack,
an ``"auto"``/``"array"`` default kernel never mis-dispatches a
decorated config,
and budget-limited chunking is equivalent to unsplit access. Property
tests drive random streams through every stack shape.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    CacheConfig,
    CacheStats,
    MechanismSpec,
    MissCache,
    Pipeline,
    ReplacementPolicy,
    SetAssociativeCache,
    StreamBuffers,
    TwoLevelCache,
    VictimCache,
    make_cache,
    parse_mechanisms,
    wrap_mechanisms,
)
from repro.errors import CacheConfigError, SimulationError
from tests.conftest import pinned_kernel

pytestmark = pytest.mark.mechanisms

#: 4 KiB, 2-way, 64 B lines -> 64 lines in 32 sets.
CFG = CacheConfig(size=4096, line_size=64, assoc=2)

STACKS = ["vc", "mc", "sb", "vc+sb", "mc+sb"]


def addrs_of(lines):
    return np.asarray(lines, dtype=np.uint64) * np.uint64(CFG.line_size)


def conflict_stream(n_rounds=200, ways=3):
    """Cycle ``ways`` lines that all map to set 0 (thrashes 2-way LRU)."""
    n_sets = CFG.n_sets
    return addrs_of([(i % ways) * n_sets for i in range(n_rounds * ways)])


def sequential_stream(n=600):
    return addrs_of(range(n))


def random_stream(seed=0, n=3000, span=400):
    rng = np.random.default_rng(seed)
    return addrs_of(rng.integers(0, span, size=n))


def ledgers_of(cache):
    return dict(cache.component_ledgers())


def decorated(mech, config=CFG, seed=None):
    return make_cache(
        dataclasses.replace(config, mechanisms=mech), seed=seed
    )


# ----------------------------------------------------------- construction


class TestConstruction:
    def test_empty_stack_is_plain_cache(self):
        cache = make_cache(dataclasses.replace(CFG, mechanisms=()))
        assert type(cache) is SetAssociativeCache

    def test_wrap_order_last_listed_outermost(self):
        cache = decorated("vc+sb")
        assert isinstance(cache, StreamBuffers)
        assert isinstance(cache.inner, VictimCache)
        assert isinstance(cache.inner.inner, SetAssociativeCache)

    def test_mechanism_spec_parsing(self):
        specs = parse_mechanisms("vc:4+sb:2:8")
        assert specs == (
            MechanismSpec("vc", 4),
            MechanismSpec("sb", 2, 8),
        )
        assert parse_mechanisms(None) == ()
        assert parse_mechanisms("none") == ()
        with pytest.raises(CacheConfigError):
            parse_mechanisms("tlb")

    def test_prefetch_flag_conflicts_with_mechanisms(self):
        with pytest.raises(CacheConfigError, match=r"vc\(8\).*stream buffers"):
            make_cache(
                dataclasses.replace(CFG, mechanisms="vc"),
                prefetch_next_line=True,
            )

    def test_ledger_labels(self):
        assert [k for k, _ in decorated("vc+sb").component_ledgers()] == [
            "sb", "vc", "cache",
        ]
        two = make_cache(
            dataclasses.replace(
                CFG, size=16 * 1024, mechanisms="mc"
            ),
            l1_config=CFG,
        )
        assert [k for k, _ in two.component_ledgers()] == ["mc", "l1", "l2"]


class TestDispatch:
    """Satellite 1: decorated configs must never leave the reference kernel."""

    @pytest.mark.parametrize("backend", ["auto", "array", None])
    def test_decorated_stack_forces_reference_kernel(self, backend):
        cfg = dataclasses.replace(CFG, mechanisms="vc+sb")
        with pinned_kernel(backend):
            cache = make_cache(cfg)
        leaf = cache.inner.inner
        assert leaf._kernel.name == "reference"
        # And it actually runs (the array kernel would lack _sets).
        cache.access(conflict_stream(5))

    def test_wrapping_a_used_cache_is_refused(self):
        cache = SetAssociativeCache(CFG, backend="array")
        cache.access(conflict_stream(5))
        with pytest.raises(SimulationError, match="before its first access"):
            VictimCache(cache, entries=4)

    @pytest.mark.parametrize("backend", ["auto", "array"])
    def test_undecorated_dispatch_unchanged(self, backend):
        with pinned_kernel(backend):
            cache = make_cache(CFG)
        assert cache._kernel.name == backend


# ------------------------------------------------------------- mechanics


class TestVictimCache:
    def test_rescues_conflict_misses(self):
        stream = conflict_stream()
        plain = make_cache(CFG)
        plain.access(stream)
        vc = decorated("vc")
        vc.access(stream)
        # 3 lines fighting over a 2-way set: the VC holds the loser, so
        # after warmup everything hits the stack.
        assert vc.stats.misses == 3
        assert plain.stats.misses == len(stream)
        assert vc.stats.mechanism["vc_hits"] == plain.stats.misses - 3

    def test_leaf_evolution_unchanged(self):
        stream = random_stream()
        plain = make_cache(CFG)
        plain.access(stream)
        vc = decorated("vc")
        vc.access(stream)
        leaf = ledgers_of(vc)["cache"]
        assert leaf.misses == plain.stats.misses
        assert leaf.accesses == plain.stats.accesses

    def test_exclusive_of_leaf(self):
        vc = decorated("vc")
        vc.access(random_stream())
        leaf = vc.inner
        for line in vc.resident_lines():
            assert not leaf.contains_addr(int(line) << CFG.line_bits)


class TestMissCache:
    def test_rescues_conflict_misses(self):
        mc = decorated("mc")
        mc.access(conflict_stream())
        assert mc.stats.misses == 3
        assert mc.stats.mechanism["mc_hits"] > 0

    def test_duplication_allowed(self):
        """The MC fills on miss without evicting the leaf's copy."""
        mc = decorated("mc")
        mc.access(addrs_of([0, 0]))
        assert 0 in mc.resident_lines()
        assert mc.inner.contains_addr(0)


class TestStreamBuffers:
    def test_rescues_sequential_misses(self):
        sb = decorated("sb")
        stream = sequential_stream()
        sb.access(stream)
        # One cold miss allocates a buffer; the rest stream out of it.
        assert sb.stats.misses == 1
        assert sb.stats.mechanism["sb_hits"] == len(stream) - 1

    def test_hits_bounded_by_prefetches(self):
        sb = decorated("sb")
        sb.access(random_stream(seed=1))
        m = sb.stats.mechanism
        assert m["sb_hits"] <= m["sb_prefetches"]

    def test_prefetches_counted_in_stats(self):
        sb = decorated("sb")
        sb.access(sequential_stream(50))
        assert sb.stats.prefetches == sb.stats.mechanism["sb_prefetches"]


# ------------------------------------------------------- ledger identities


def chain_invariants(cache, stream):
    """The cross-component counter identities every stack must satisfy."""
    ledgers = cache.component_ledgers()
    # Every component saw (and recorded) every reference.
    for _, stats in ledgers:
        assert stats.accesses == len(stream)
    # Decorator ledgers: probes == post-rescue misses of the component
    # just inside; hits + own misses == probes.
    for (kind, outer), (_, inner) in zip(ledgers, ledgers[1:]):
        if kind in ("vc", "mc", "sb"):
            m = outer.mechanism
            assert m[f"{kind}_probes"] == inner.misses
            assert m[f"{kind}_hits"] + outer.misses == m[f"{kind}_probes"]
            if kind == "sb":
                assert m["sb_hits"] <= m["sb_prefetches"]


class TestLedgers:
    @pytest.mark.parametrize("mech", STACKS)
    def test_chain_identities(self, mech):
        stream = random_stream(seed=3)
        cache = decorated(mech)
        cache.access(stream)
        chain_invariants(cache, stream)

    @pytest.mark.parametrize("mech", STACKS)
    def test_leaf_matches_undecorated(self, mech):
        stream = random_stream(seed=4)
        plain = make_cache(CFG)
        plain.access(stream)
        cache = decorated(mech)
        cache.access(stream)
        leaf = cache.component_ledgers()[-1][1]
        assert (leaf.accesses, leaf.misses, leaf.writebacks) == (
            plain.stats.accesses,
            plain.stats.misses,
            plain.stats.writebacks,
        )

    def test_merge_associative_across_ledgers(self):
        cache = decorated("vc+sb")
        cache.access(random_stream(seed=5))
        snaps = [s.snapshot() for _, s in cache.component_ledgers()]
        a, b, c = snaps
        left = a.snapshot().merge(b.snapshot()).merge(c.snapshot())
        right = a.snapshot().merge(b.snapshot().merge(c.snapshot()))
        assert left.__dict__ == right.__dict__

    def test_pipeline_stats_alias_and_sums(self):
        l1 = CacheConfig(size=2048, line_size=64, assoc=2)
        l2 = CacheConfig(size=16 * 1024, line_size=64, assoc=4)
        cache = TwoLevelCache(l1, l2, seed=9)
        stream = random_stream(seed=6, span=600)
        cache.access(stream)
        ledgers = dict(cache.component_ledgers())
        assert cache.stats is ledgers["l2"]
        # Both levels account every reference under the same tag.
        assert ledgers["l1"].accesses == len(stream)
        assert ledgers["l2"].accesses == len(stream)
        assert ledgers["l1"].misses >= ledgers["l2"].misses
        combined = cache.combined_stats()
        assert combined.accesses == 2 * len(stream)


# -------------------------------------------------------- budget chunking


class TestBudget:
    @pytest.mark.parametrize("mech", STACKS)
    def test_budget_resume_equals_unsplit(self, mech):
        stream = random_stream(seed=7)
        whole = decorated(mech)
        res = whole.access(stream)
        split = decorated(mech)
        masks = []
        pos = 0
        while pos < len(stream):
            r = split.access(stream[pos:], miss_budget=17)
            masks.append(r.miss_mask)
            pos += r.consumed
        assert np.array_equal(np.concatenate(masks), res.miss_mask)
        assert split.stats.__dict__ == whole.stats.__dict__
        assert split.resident_lines() == whole.resident_lines()

    def test_budget_stops_exactly_on_posted_miss(self):
        cache = decorated("vc")
        stream = sequential_stream(100)
        r = cache.access(stream, miss_budget=10)
        assert r.miss_mask[r.consumed - 1]
        assert int(r.miss_mask.sum()) == 10


# ------------------------------------------------------------ state round trip


class TestState:
    @pytest.mark.parametrize("mech", STACKS)
    def test_snapshot_restore_round_trip(self, mech):
        stream = random_stream(seed=8)
        cache = decorated(mech)
        cache.access(stream[:1500])
        state = cache.state_snapshot()
        after = decorated(mech)
        after.state_restore(state)
        a = cache.access(stream[1500:])
        b = after.access(stream[1500:])
        assert np.array_equal(a.miss_mask, b.miss_mask)
        assert cache.resident_lines() == after.resident_lines()


# ----------------------------------------------------------- property tests


line_streams = st.lists(
    st.integers(min_value=0, max_value=3 * CFG.n_lines),
    min_size=1,
    max_size=400,
)


@settings(max_examples=60, deadline=None)
@given(lines=line_streams, mech=st.sampled_from(STACKS))
def test_property_chain_invariants(lines, mech):
    stream = addrs_of(lines)
    plain = make_cache(CFG)
    plain.access(stream)
    cache = decorated(mech)
    cache.access(stream)
    chain_invariants(cache, stream)
    leaf = cache.component_ledgers()[-1][1]
    assert leaf.misses == plain.stats.misses
    # The post-mechanism miss stream can only shrink.
    assert cache.stats.misses <= plain.stats.misses


@settings(max_examples=40, deadline=None)
@given(lines=line_streams)
def test_property_vc_exclusive_and_bounded(lines):
    cache = decorated("vc:4")
    cache.access(addrs_of(lines))
    resident = cache.resident_lines()
    assert len(resident) <= 4
    for line in resident:
        assert not cache.inner.contains_addr(int(line) << CFG.line_bits)


@settings(max_examples=40, deadline=None)
@given(lines=line_streams, seed=st.integers(0, 5))
def test_property_random_policy_split_invariance(lines, seed):
    """RANDOM replacement draws depend only on eviction count, so
    budget-split and unsplit runs stay bit-identical under decoration."""
    cfg = dataclasses.replace(CFG, policy=ReplacementPolicy.RANDOM)
    stream = addrs_of(lines)
    whole = make_cache(
        dataclasses.replace(cfg, mechanisms="vc"), seed=seed
    )
    res = whole.access(stream)
    split = make_cache(
        dataclasses.replace(cfg, mechanisms="vc"), seed=seed
    )
    masks, pos = [], 0
    while pos < len(stream):
        r = split.access(stream[pos:], miss_budget=5)
        masks.append(r.miss_mask)
        pos += r.consumed
    assert np.array_equal(np.concatenate(masks), res.miss_mask)


def test_wrap_mechanisms_empty_returns_same_object():
    leaf = SetAssociativeCache(CFG)
    assert wrap_mechanisms(leaf, ()) is leaf


def test_pipeline_rejects_bad_geometry():
    big = CacheConfig(size=16 * 1024, line_size=64, assoc=2)
    with pytest.raises(CacheConfigError, match="smaller"):
        Pipeline(
            [SetAssociativeCache(big), SetAssociativeCache(CFG)]
        )


def test_miss_cache_is_distinct_type():
    cache = decorated("mc:2")
    assert isinstance(cache, MissCache)
    assert cache.entries == 2
