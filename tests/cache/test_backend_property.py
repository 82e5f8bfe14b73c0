"""Property-based backend equivalence (satellite of the kernel refactor).

Hypothesis drives both kernels with arbitrary access streams, random
miss-budget cuts and write masks across every replacement policy and
associativity, shrinking any divergence to a minimal counterexample.
Complements tests/cache/test_backend_equivalence.py, which replays fixed
randomized workloads; this file lets hypothesis search the corner cases
(tiny sets, duplicate bursts, budget landing on a follower, ...).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.policies import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache

LINE = 64


@st.composite
def chunk_plans(draw):
    """A list of (lines, budget, writes) chunks for one cache lifetime."""
    n_chunks = draw(st.integers(1, 6))
    plans = []
    for _ in range(n_chunks):
        lines = draw(
            st.lists(st.integers(0, 255), min_size=0, max_size=200)
        )
        # A budget is None or >= 1: every model rejects 0 and below.
        budget = draw(st.one_of(st.none(), st.integers(1, 20)))
        if draw(st.booleans()):
            writes = draw(
                st.lists(
                    st.booleans(),
                    min_size=len(lines),
                    max_size=len(lines),
                )
            )
        else:
            writes = None
        plans.append((lines, budget, writes))
    return plans


@settings(max_examples=60, deadline=None)
@given(
    policy=st.sampled_from(list(ReplacementPolicy)),
    assoc=st.sampled_from([1, 2, 4, 8]),
    n_sets_pow=st.integers(0, 4),
    seed=st.integers(0, 2**16),
    prefetch=st.booleans(),
    plans=chunk_plans(),
)
def test_array_matches_reference(policy, assoc, n_sets_pow, seed, prefetch, plans):
    n_sets = 1 << n_sets_pow
    cfg = CacheConfig(
        size=LINE * assoc * n_sets, line_size=LINE, assoc=assoc, policy=policy
    )
    ref = SetAssociativeCache(
        cfg, seed=seed, prefetch_next_line=prefetch, backend="reference"
    )
    arr = SetAssociativeCache(
        cfg, seed=seed, prefetch_next_line=prefetch, backend="array"
    )
    for lines, budget, writes in plans:
        addrs = np.asarray(lines, dtype=np.uint64) * np.uint64(LINE)
        wmask = None if writes is None else np.asarray(writes, dtype=bool)
        pos = 0
        while True:
            sub_w = wmask[pos:] if wmask is not None else None
            ra = ref.access(addrs[pos:], miss_budget=budget, writes=sub_w)
            rb = arr.access(addrs[pos:], miss_budget=budget, writes=sub_w)
            assert ra.consumed == rb.consumed
            assert np.array_equal(ra.miss_mask, rb.miss_mask)
            assert ref.stats.__dict__ == arr.stats.__dict__
            pos += ra.consumed
            if pos >= len(addrs) or ra.consumed == 0:
                break
    for set_idx in range(cfg.n_sets):
        assert ref.lines_in_set(set_idx) == arr.lines_in_set(set_idx)
    assert ref.dirty_line_count() == arr.dirty_line_count()
