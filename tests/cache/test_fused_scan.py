"""Decorated stacks classify a chunk in one leaf loop; the per-line chain
is the oracle.

``MechanismDecorator.access`` hands the chunk's lines to the innermost
non-decorator's ``scan_lines``, which calls the chain's hooks only on
its own misses. The oracle below drives the same stack through
``access_line`` one line at a time, stopping after the budget-th
post-mechanism miss exactly as a budgeted chunk must. Hypothesis draws
the stack, the replacement policy, writes, the budget (resubmitting the
remainder until the chunk is consumed) and the inner component (one
set-associative cache, or a two-level hierarchy), and every observable
piece of state must agree afterwards.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, Pipeline, ReplacementPolicy, make_cache
from repro.cache.components import MechanismDecorator

pytestmark = pytest.mark.mechanisms

#: 1 KiB, 2-way, 64 B lines -> 16 lines in 8 sets.
L2 = CacheConfig(size=1024, line_size=64, assoc=2)
#: 256 B, 2-way -> 4 lines in 2 sets, in front of L2 when drawn.
L1 = CacheConfig(size=256, line_size=64, assoc=2)

STACKS = ["vc", "mc", "sb", "vc+sb", "mc+sb", "vc:1", "sb:2:8"]


def build(stack, policy, two_level, seed):
    config = dataclasses.replace(L2, policy=policy, mechanisms=stack)
    l1 = dataclasses.replace(L1, policy=policy) if two_level else None
    return make_cache(config, seed=seed, l1_config=l1)


def decorators(cache):
    out = []
    while isinstance(cache, MechanismDecorator):
        out.append(cache)
        cache = cache.inner
    return out, cache


def leaves(cache):
    _, inner = decorators(cache)
    return inner.levels if isinstance(inner, Pipeline) else [inner]


def oracle_access(cache, lines, writes, budget):
    """One budgeted chunk through ``access_line``: (mask, consumed)."""
    cache.begin_stage()
    left = len(lines) + 1 if budget is None else budget
    mask = []
    for line, write in zip(lines, writes):
        miss = cache.access_line(line, write).miss
        mask.append(miss)
        if miss:
            left -= 1
            if left == 0:
                break
    cache.commit_stage("app", len(mask))
    return np.array(mask, dtype=bool), len(mask)


def run(cache, lines, writes, chunk, budget, fused):
    """Every chunk, resubmitting its remainder until it is consumed."""
    masks, consumed = [], []
    for lo in range(0, len(lines), chunk):
        part, part_writes = lines[lo : lo + chunk], writes[lo : lo + chunk]
        pos = 0
        while pos < len(part):
            if fused:
                res = cache.access(
                    np.asarray(part[pos:], dtype=np.uint64)
                    * np.uint64(L2.line_size),
                    miss_budget=budget,
                    writes=np.asarray(part_writes[pos:], dtype=bool),
                )
                mask, used = res.miss_mask, res.consumed
            else:
                mask, used = oracle_access(
                    cache, part[pos:], part_writes[pos:], budget
                )
            masks.append(mask)
            consumed.append(used)
            pos += used
    return np.concatenate(masks), consumed


def observed_state(cache):
    decs, _ = decorators(cache)
    return {
        "ledgers": [
            (label, stats.__dict__) for label, stats in cache.component_ledgers()
        ],
        "resident": [dec.resident_lines() for dec in decs],
        "sets": [
            [leaf.lines_in_set(s) for s in range(leaf.config.n_sets)]
            for leaf in leaves(cache)
        ],
        "dirty": [leaf.dirty_line_count() for leaf in leaves(cache)],
        "rand": [
            (list(leaf._kernel._rand_pool), leaf._kernel._rand_draws)
            for leaf in leaves(cache)
        ],
    }


@settings(max_examples=150, deadline=None)
@given(
    stack=st.sampled_from(STACKS),
    policy=st.sampled_from(list(ReplacementPolicy)),
    with_writes=st.booleans(),
    budget=st.none() | st.integers(1, 40),
    two_level=st.booleans(),
    seed=st.integers(0, 3),
    chunk=st.integers(1, 300),
    data=st.data(),
)
def test_fused_scan_matches_per_line_chain(
    stack, policy, with_writes, budget, two_level, seed, chunk, data
):
    n = data.draw(st.integers(1, 600), label="n")
    lines = data.draw(
        st.lists(st.integers(0, 4 * L2.n_lines), min_size=n, max_size=n),
        label="lines",
    )
    writes = (
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="writes")
        if with_writes
        else [False] * n
    )
    fused = build(stack, policy, two_level, seed)
    oracle = build(stack, policy, two_level, seed)
    fused_mask, fused_consumed = run(fused, lines, writes, chunk, budget, True)
    oracle_mask, oracle_consumed = run(oracle, lines, writes, chunk, budget, False)
    assert np.array_equal(fused_mask, oracle_mask)
    assert fused_consumed == oracle_consumed
    assert observed_state(fused) == observed_state(oracle)


def test_two_level_decorated_stack_is_exercised():
    """The drawn two-level stacks really reach the L2 and the mechanism."""
    cache = build("vc+sb", ReplacementPolicy.LRU, True, seed=0)
    lines = list(range(64)) * 3
    mask, _ = run(cache, lines, [False] * len(lines), 50, 7, fused=True)
    ledgers = dict(cache.component_ledgers())
    assert ledgers["l2"].misses > 0
    assert ledgers["vc"].mechanism["vc_probes"] == ledgers["l2"].misses
    assert ledgers["sb"].mechanism["sb_hits"] > 0
    assert int(mask.sum()) == cache.stats.misses
