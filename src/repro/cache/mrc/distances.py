"""Exact LRU stack distances in one vectorised pass.

The *stack distance* (Mattson et al.) of a reference is the number of
distinct cache lines touched since the previous reference to the same
line; a fully-associative LRU cache of C lines misses exactly the
references whose distance is >= C, plus cold first touches. One pass over
a stream therefore yields the miss count of *every* cache size at once —
the foundation of the MRC engine.

Writing ``prev[t]`` for the previous occurrence of reference ``t``'s
line, the distance satisfies::

    dist(t) = #{ j : prev[t] < j < t  and  prev[j] <= prev[t] }
            = #{ j < t : prev[j] <= prev[t] }  -  (prev[t] + 1)

because a window position ``j`` is the *first* occurrence of its line
inside ``(prev[t], t)`` exactly when its own previous occurrence falls at
or before ``prev[t]``, and every ``j <= prev[t]`` trivially has
``prev[j] < j <= prev[t]``. The remaining term — the rank of each element
among the prefix before it — has no per-reference data dependence, so it
vectorises: :func:`self_rank_leq` answers it by bottom-up merge counting
(dyadic blocks of the ``prev`` array are kept sorted and merged pairwise,
each right-block element counting its left sibling's elements ``<=``
itself with one global ``searchsorted``), log N levels of whole-array
NumPy operations.

The test suite checks this pass against two independently derived
oracles (``tests/mrc/oracles.py``): Olken's online Fenwick-tree
algorithm, the classic reference, and a bit-plane (wavelet) prefix-rank
sweep over the same identity. :data:`COLD` (-1) marks first touches.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError

#: Distance value assigned to cold (first-touch) references.
COLD = -1


class MrcError(ReproError):
    """Raised for invalid MRC-engine configuration or inputs."""


def lines_of(addrs: np.ndarray, line_size: int) -> np.ndarray:
    """Cache-line numbers of byte addresses (uint64, ``addr >> line_bits``)."""
    if line_size <= 0 or line_size & (line_size - 1):
        raise MrcError(f"line size must be a positive power of two, got {line_size}")
    shift = np.uint64(line_size.bit_length() - 1)
    return np.asarray(addrs, dtype=np.uint64) >> shift


def previous_occurrence(codes: np.ndarray) -> np.ndarray:
    """Index of each element's previous occurrence (-1 for first), vectorised.

    ``codes`` may be any integer array (raw line numbers are fine); only
    equality matters.
    """
    n = len(codes)
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    same_as_left = np.empty(n, dtype=bool)
    same_as_left[0] = False
    np.equal(ordered[1:], ordered[:-1], out=same_as_left[1:])
    prev[order[same_as_left]] = order[np.flatnonzero(same_as_left) - 1]
    return prev


def self_rank_leq(values: np.ndarray) -> np.ndarray:
    """For each ``t``: ``#{ j < t : values[j] <= values[t] }``, vectorised.

    Bottom-up merge counting. Invariant: after processing level ``w``,
    every aligned block of ``2w`` consecutive *original indices* holds
    its values in ascending order. Ascending to level ``w``, each element
    of a right block counts the elements of its left sibling that are
    ``<=`` itself — all of which have smaller original index — and the
    union of left siblings along an element's merge path is exactly its
    whole index prefix. Blocks carry the offset key ``block * span +
    value``, globally ascending, so one ``searchsorted`` per level
    answers every block-local rank query at once; the same counts place
    the elements for the pairwise merge.
    """
    n = len(values)
    rank = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return rank
    v = np.asarray(values, dtype=np.int64)
    cur = v - int(v.min())
    span = int(cur.max()) + 1
    orig = np.arange(n, dtype=np.int64)
    slots = np.arange(n, dtype=np.int64)
    shift = 0
    while (1 << shift) < n:
        width = 1 << shift
        block = slots >> shift
        keys = block * span
        keys += cur
        right = np.flatnonzero((block & 1) == 1)
        sibling = block[right] - 1
        cnt = np.searchsorted(keys, sibling * span + cur[right], side="right")
        cnt -= sibling << shift
        rank[orig[right]] += cnt
        if (width << 1) >= n:
            break  # final level: rank is complete, the merge is unused
        # Merge each pair into a sorted 2*width block. Left elements keep
        # ties ahead of right ones (side="left"), matching the counting
        # convention above; lone left blocks at the tail stay put.
        has_right = ((block & 1) == 0) & (((block + 1) << shift) < n)
        left = np.flatnonzero(has_right)
        sibling = block[left] + 1
        cntl = np.searchsorted(keys, sibling * span + cur[left], side="left")
        cntl -= sibling << shift
        new_pos = slots.copy()
        new_pos[right] = slots[right] - width + cnt
        new_pos[left] = slots[left] + cntl
        nxt = np.empty_like(cur)
        nxt[new_pos] = cur
        nor = np.empty_like(orig)
        nor[new_pos] = orig
        cur, orig = nxt, nor
        shift += 1
    return rank


def reuse_distances(codes: np.ndarray) -> np.ndarray:
    """Per-reference LRU stack distances over pre-decomposed line codes.

    ``codes`` is any integer array where equal values mean "same cache
    line" (use :func:`lines_of` to lower byte addresses). Returns an
    int64 array: distinct *other* lines touched since the line's previous
    access, or :data:`COLD` (-1) for first touches.
    """
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise MrcError("reuse_distances expects a 1-D code array")
    n = len(codes)
    out = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return out
    prev = previous_occurrence(codes)
    warm = prev >= 0
    rank = self_rank_leq(prev)
    out[warm] = rank[warm] - (prev[warm] + 1)
    return out
