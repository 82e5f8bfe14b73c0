"""Independent oracles for the MRC stack-distance pass.

:func:`repro.cache.mrc.distances.reuse_distances` computes exact LRU
stack distances with one vectorised merge-counting pass. The two passes
here derive the same numbers another way, and the tests in this
directory require all three to agree bit for bit:

* :func:`distances_fenwick` — Olken's online algorithm, the classic
  reference: a Fenwick tree over live last-access timestamps answers
  "distinct lines whose most recent access follows this line's previous
  access" with one prefix sum per reference. O(N log N), sequential.
* :func:`distances_offline` — the previous-occurrence identity of
  :mod:`repro.cache.mrc.distances`, with the prefix ranks answered by a
  wavelet-style bit-plane sweep over the value domain
  (:func:`prefix_rank_leq`) instead of merge counting.
"""

from __future__ import annotations

import numpy as np

from repro.cache.mrc.distances import (
    COLD,
    MrcError,
    previous_occurrence,
    reuse_distances,
)
from tests.mrc.fenwick import FenwickTree


def prefix_rank_leq(
    values: np.ndarray, prefixes: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """For each query ``i``: ``#{ j < prefixes[i] : values[j] <= thresholds[i] }``.

    Offline wavelet-tree rank: elements and queries walk the bit planes of
    the value domain from the most significant bit down, stably
    partitioning elements by the current bit within their node and
    descending each query toward its threshold. All per-level work is
    vectorised; total cost O((N + Q) log V).
    """
    values = np.asarray(values, dtype=np.int64)
    prefixes = np.asarray(prefixes, dtype=np.int64)
    thresholds = np.asarray(thresholds, dtype=np.int64)
    n, q = len(values), len(prefixes)
    out = np.zeros(q, dtype=np.int64)
    if n == 0 or q == 0:
        return out
    if values.min() < 0 or thresholds.min() < 0:
        raise MrcError("prefix_rank_leq requires non-negative values/thresholds")
    nbits = max(int(values.max()), int(thresholds.max())).bit_length() or 1

    cur = values.copy()
    positions = np.arange(n, dtype=np.int64)
    elem_start = np.zeros(n, dtype=np.int64)
    elem_end = np.full(n, n, dtype=np.int64)
    q_start = np.zeros(q, dtype=np.int64)
    q_end = np.full(q, n, dtype=np.int64)
    plen = np.clip(prefixes, 0, n)
    acc = np.zeros(q, dtype=np.int64)

    zeros_cum = np.empty(n + 1, dtype=np.int64)
    for bit in range(nbits - 1, -1, -1):
        is_zero = ((cur >> bit) & 1) == 0
        zeros_cum[0] = 0
        np.cumsum(is_zero, out=zeros_cum[1:])

        # Stable partition of every node: zeros first, ones after, spans
        # unchanged — each element's new slot follows from cumsums alone.
        zeros_before = zeros_cum[positions] - zeros_cum[elem_start]
        node_zeros = zeros_cum[elem_end] - zeros_cum[elem_start]
        ones_before = (positions - elem_start) - zeros_before
        new_pos = np.where(
            is_zero,
            elem_start + zeros_before,
            elem_start + node_zeros + ones_before,
        )
        child_start = np.where(is_zero, elem_start, elem_start + node_zeros)
        child_end = np.where(is_zero, elem_start + node_zeros, elem_end)

        nxt = np.empty_like(cur)
        nxt[new_pos] = cur
        es = np.empty_like(elem_start)
        es[new_pos] = child_start
        ee = np.empty_like(elem_end)
        ee[new_pos] = child_end

        # Queries: zeros among the node's first plen elements, and in the
        # whole node, give the split; a 1-bit in the threshold accepts the
        # entire zero-side and descends right.
        z = zeros_cum[q_start + plen] - zeros_cum[q_start]
        nz = zeros_cum[q_end] - zeros_cum[q_start]
        thr_one = ((thresholds >> bit) & 1) == 1
        acc += np.where(thr_one, z, 0)
        new_q_start = np.where(thr_one, q_start + nz, q_start)
        new_q_end = np.where(thr_one, q_end, q_start + nz)
        plen = np.where(thr_one, plen - z, z)

        cur, elem_start, elem_end = nxt, es, ee
        q_start, q_end = new_q_start, new_q_end

    # Elements still in each query's node equal its threshold exactly.
    acc += plen
    out[:] = acc
    return out


def distances_fenwick(codes: np.ndarray) -> np.ndarray:
    """Olken's algorithm: Fenwick tree over live last-access timestamps."""
    n = len(codes)
    out = np.empty(n, dtype=np.int64)
    prev = previous_occurrence(codes).tolist()
    fen = FenwickTree(n)
    live = 0
    for t in range(n):
        p = prev[t]
        if p < 0:
            out[t] = COLD
            live += 1
        else:
            # Lines whose most recent access follows p; line(t) itself
            # sits exactly at timestamp p, so it is never self-counted.
            out[t] = live - fen.prefix_sum(p)
            fen.add(p, -1)
        fen.add(t, 1)
    return out


def distances_offline(codes: np.ndarray) -> np.ndarray:
    """Offline pass: previous-occurrence identity + batched prefix rank."""
    n = len(codes)
    out = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return out
    prev = previous_occurrence(codes)
    warm = np.flatnonzero(prev >= 0)
    if len(warm) == 0:
        return out
    # Shift the value domain by +1 so cold markers (-1) become 0.
    ranks = prefix_rank_leq(prev + 1, prefixes=warm, thresholds=prev[warm] + 1)
    out[warm] = ranks - (prev[warm] + 1)
    return out


#: The shipped pass and both oracles, by the names the tests use.
PASSES = {
    "sortmerge": reuse_distances,
    "fenwick": distances_fenwick,
    "offline": distances_offline,
}
