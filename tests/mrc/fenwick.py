"""Fenwick (binary-indexed) tree: prefix sums over a mutable array.

The Olken stack-distance oracle (:mod:`tests.mrc.oracles`) is built on
it — the tree counts the still-live last-access timestamps, so "distinct
lines touched since this line's previous access" is one prefix-sum query
per reference.

All operations are integer-exact; indices are 0-based externally and
1-based internally (the classic lowbit layout).
"""

from __future__ import annotations


class FenwickTree:
    """Prefix-summable integer array of fixed size ``n``.

    ``add`` and ``prefix_sum`` are O(log n); construction is O(n).
    """

    __slots__ = ("size", "tree")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"FenwickTree size must be non-negative, got {n}")
        self.size = n
        self.tree = [0] * (n + 1)

    def add(self, idx: int, delta: int) -> None:
        """Add ``delta`` at 0-based index ``idx``."""
        if not 0 <= idx < self.size:
            raise IndexError(f"index {idx} out of range for size {self.size}")
        idx += 1
        tree = self.tree
        size = self.size
        while idx <= size:
            tree[idx] += delta
            idx += idx & (-idx)

    def prefix_sum(self, idx: int) -> int:
        """Sum of entries at 0-based indices ``[0, idx]`` (clamped)."""
        if idx >= self.size:
            idx = self.size - 1
        idx += 1
        tree = self.tree
        total = 0
        while idx > 0:
            total += tree[idx]
            idx -= idx & (-idx)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of entries at 0-based indices ``[lo, hi]``."""
        if hi < lo:
            return 0
        return self.prefix_sum(hi) - (self.prefix_sum(lo - 1) if lo > 0 else 0)

    def total(self) -> int:
        """Sum of the whole array."""
        return self.prefix_sum(self.size - 1) if self.size else 0
