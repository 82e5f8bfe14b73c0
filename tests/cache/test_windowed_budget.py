"""Windowed budgeted access: bit-identical to one whole-chunk kernel call.

``SetAssociativeCache._chunk_access`` hands a miss-budgeted chunk to its
kernel as growing prefix windows. Hypothesis draws chunks several times
longer than the first window, so the budget can run out in any window,
and checks that every backend agrees on the outcome and on the state it
leaves behind — including the RANDOM eviction pool and draw count, which
must equal those of a single unwindowed kernel call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.policies import ReplacementPolicy
from repro.cache.set_assoc import WINDOW_MARGIN, WINDOW_MIN, SetAssociativeCache

LINE = 64
BACKENDS = ("reference", "array", "auto")
CFG = dict(size=LINE * 4 * 16, line_size=LINE, assoc=4)


def _cache(backend, policy, mode, seed):
    cfg = CacheConfig(policy=policy, backend=backend, **CFG)
    return SetAssociativeCache(
        cfg, seed=seed, prefetch_next_line=mode == "prefetch"
    )


def _drawing_kernel(cache):
    """The kernel that owns the RNG (the auto kernel's inner backend)."""
    return getattr(cache._kernel, "_inner", cache._kernel)


def _state(cache):
    kernel = _drawing_kernel(cache)
    return (
        [cache.lines_in_set(s) for s in range(cache.config.n_sets)],
        cache.dirty_line_count(),
        list(kernel._rand_pool),
        kernel._rand_draws,
    )


def _outcome(res):
    return (res.miss_mask.tolist(), res.consumed, res.misses,
            res.writebacks, res.prefetches)


@st.composite
def budgeted_chunks(draw):
    """(warm-up lines, chunk lines, chunk writes, budget, pool depth)."""
    span = draw(st.integers(8, 400))
    warm = draw(st.lists(st.integers(0, span), max_size=300))
    budget = draw(st.integers(1, 40))
    # The warm-up goes straight to the kernel, so the cache's running
    # refs-per-miss is still the cold 1 and this is the first window.
    first = int(budget * WINDOW_MARGIN) + WINDOW_MIN
    n = draw(st.integers(4 * first, 4 * first + 400))
    lines = draw(st.lists(st.integers(0, span), min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # Eviction-pool entries left when the chunk arrives: below 2n the
    # whole-chunk reservation must refill where a first window alone
    # would not.
    depth = draw(st.integers(0, 2 * n + 8))
    return warm, lines, writes, budget, depth


def _addrs(lines):
    return np.asarray(lines, dtype=np.uint64) * np.uint64(LINE)


@settings(max_examples=80, deadline=None)
@given(
    policy=st.sampled_from(list(ReplacementPolicy)),
    mode=st.sampled_from(["plain", "writes", "prefetch"]),
    seed=st.integers(0, 2**16),
    case=budgeted_chunks(),
)
def test_windowed_budget_agrees_across_backends(policy, mode, seed, case):
    warm, lines, write_list, budget, depth = case
    writes = np.asarray(write_list, dtype=bool) if mode == "writes" else None
    chunk = _addrs(lines)

    def warmed(backend):
        cache = _cache(backend, policy, mode, seed)
        if warm:
            cache._kernel.access(_addrs(warm))
        kernel = _drawing_kernel(cache)
        kernel._rand_pool = kernel._rand_pool[:depth]
        return cache

    results = {}
    for backend in BACKENDS:
        cache = warmed(backend)
        res = cache._chunk_access(chunk, miss_budget=budget, writes=writes)
        results[backend] = (_outcome(res), _state(cache))

    # The oracle: the same chunk in one direct kernel call, no windows.
    oracle = warmed("reference")
    res = oracle._kernel.access(chunk, miss_budget=budget, writes=writes)
    want = (_outcome(res), _state(oracle))
    for backend in BACKENDS:
        assert results[backend] == want, backend

    if policy is not ReplacementPolicy.RANDOM:
        # LRU/FIFO state is a pure function of reference order, so the
        # consumed prefix alone, unbudgeted, must land in the same place.
        consumed = res.consumed
        prefix = warmed("reference")
        res_p = prefix._chunk_access(
            chunk[:consumed],
            writes=writes[:consumed] if writes is not None else None,
        )
        assert _outcome(res_p) == want[0]
        assert _state(prefix)[:2] == want[1][:2]


class _Counting:
    """Wrap a kernel's ``access`` to record the lengths it is handed."""

    def __init__(self, cache):
        self.lens = []
        inner = cache._kernel.access

        def access(addrs, miss_budget=None, writes=None):
            self.lens.append(len(addrs))
            return inner(addrs, miss_budget=miss_budget, writes=writes)

        cache._kernel.access = access


@pytest.mark.parametrize("backend", BACKENDS)
def test_early_cut_submits_only_a_window(backend):
    # Every reference misses, so a 10-miss budget stops after 10 refs:
    # the kernel must see one small window, not the 100k-ref chunk.
    cache = _cache(backend, ReplacementPolicy.LRU, "plain", 1)
    calls = _Counting(cache)
    res = cache._chunk_access(_addrs(range(100_000)), miss_budget=10)
    assert res.consumed == 10
    assert calls.lens == [int(10 * WINDOW_MARGIN) + WINDOW_MIN]


def test_undershoot_doubles_the_window():
    # Warm a working set that fills the cache exactly, so the next 3200
    # refs all hit: each window falls short of the budget and the next
    # one doubles.
    cache = _cache("reference", ReplacementPolicy.LRU, "plain", 1)
    cache._chunk_access(_addrs(list(range(64)) * 4))  # 64 misses / 256 refs
    calls = _Counting(cache)
    stream = _addrs(list(range(64)) * 50 + list(range(1000, 1100)))
    res = cache._chunk_access(stream, miss_budget=5)
    first = int(5 * (257 / 65) * WINDOW_MARGIN) + WINDOW_MIN
    assert calls.lens[:3] == [first, 2 * first, 4 * first]
    assert res.consumed == 64 * 50 + 5
    assert res.misses == 5


@pytest.mark.parametrize("budget", [None, 0])
def test_unbudgeted_and_short_chunks_go_whole(budget):
    cache = _cache("reference", ReplacementPolicy.LRU, "plain", 1)
    calls = _Counting(cache)
    cache._chunk_access(_addrs(range(5000)), miss_budget=budget)
    cache._chunk_access(_addrs(range(WINDOW_MIN)), miss_budget=1)
    assert calls.lens == [5000, WINDOW_MIN]
