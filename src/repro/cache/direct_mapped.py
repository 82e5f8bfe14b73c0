"""Fully vectorised direct-mapped cache model.

For associativity 1 a chunk of references can be classified without any
per-reference Python work: a reference hits iff the *previous reference to
the same set* (within the chunk, or the resident line carried over from
earlier chunks) touched the same line. Grouping a chunk by set index with
a stable argsort makes "previous reference to the same set" the previous
element of the sorted order, so the whole classification is a handful of
NumPy array operations — the technique recommended by the hpc-parallel
guides for turning a sequential scan into a sort + segmented comparison.

``miss_budget`` is honoured by snapshot/replay: the per-set resident-line
table is saved before the chunk, and when the budget-th miss falls inside
the chunk the state is restored and only the consumed prefix re-applied.
"""

from __future__ import annotations

import numpy as np

from repro import sanitize
from repro.cache.base import AccessResult
from repro.cache.components import CacheComponent, LineOutcome
from repro.cache.config import CacheConfig
from repro.cache.kernels.base import KernelResult
from repro.errors import CacheConfigError

_EMPTY = np.uint64(0xFFFF_FFFF_FFFF_FFFF)  # no real line number is all-ones


class DirectMappedCache(CacheComponent):
    """Exact direct-mapped cache, vectorised over reference chunks."""

    def __init__(self, config: CacheConfig) -> None:
        if config.assoc != 1:
            raise CacheConfigError(
                f"DirectMappedCache requires assoc=1, got {config.assoc}"
            )
        super().__init__(config)
        self._tags = np.full(config.n_sets, _EMPTY, dtype=np.uint64)
        self._staged_misses = 0

    def reset(self) -> None:
        self._tags.fill(_EMPTY)

    def contents_line_count(self) -> int:
        return int((self._tags != _EMPTY).sum())

    def contains_addr(self, addr: int) -> bool:
        line = addr >> self.config.line_bits
        return bool(self._tags[line & self.config.set_mask] == line)

    def _classify(self, lines: np.ndarray) -> np.ndarray:
        """Miss mask for ``lines`` and in-place state update (no budget)."""
        set_idx = (lines & np.uint64(self.config.set_mask)).astype(np.int64)
        order = np.argsort(set_idx, kind="stable")
        s_sets = set_idx[order]
        s_lines = lines[order]

        hit_sorted = np.zeros(len(lines), dtype=bool)
        if len(lines) > 1:
            same_set = s_sets[1:] == s_sets[:-1]
            same_line = s_lines[1:] == s_lines[:-1]
            hit_sorted[1:] = same_set & same_line
        # Group-leading references compare against the resident line.
        first_of_group = np.ones(len(lines), dtype=bool)
        if len(lines) > 1:
            first_of_group[1:] = s_sets[1:] != s_sets[:-1]
        leaders = np.flatnonzero(first_of_group)
        hit_sorted[leaders] = self._tags[s_sets[leaders]] == s_lines[leaders]

        # The last reference of each set group leaves its line resident.
        last_of_group = np.ones(len(lines), dtype=bool)
        if len(lines) > 1:
            last_of_group[:-1] = s_sets[1:] != s_sets[:-1]
        enders = np.flatnonzero(last_of_group)
        self._tags[s_sets[enders]] = s_lines[enders]

        miss_mask = np.empty(len(lines), dtype=bool)
        miss_mask[order] = ~hit_sorted
        return miss_mask

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        tag: str = "app",
        writes: np.ndarray | None = None,
    ) -> AccessResult:
        # This model is write-through/no-write-allocate-free: stores and
        # loads are classified identically and no dirty state is kept, so
        # ``writes`` does not change the miss mask.
        n = len(addrs)
        if n == 0:
            return AccessResult(np.zeros(0, dtype=bool), 0)
        res = self._chunk_access(addrs, miss_budget=miss_budget, writes=writes)
        self.commit_stage(tag, res.consumed)
        return AccessResult(res.miss_mask, res.consumed)

    # --------------------------------------------------- component protocol

    def begin_stage(self) -> None:
        self._staged_misses = 0

    def commit_stage(self, tag: str, accesses: int) -> None:
        self.stats.record(tag, accesses, self._staged_misses)
        self.begin_stage()
        if sanitize.is_active():
            sanitize.check_component(self)

    def _chunk_access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
    ) -> KernelResult:
        n = len(addrs)
        lines = np.asarray(addrs, dtype=np.uint64) >> np.uint64(self.config.line_bits)

        snapshot = self._tags.copy() if miss_budget is not None else None
        miss_mask = self._classify(lines)

        consumed = n
        if miss_budget is not None:
            cumulative = np.cumsum(miss_mask)
            crossing = np.searchsorted(cumulative, miss_budget)
            if crossing < n:
                # Budget exhausted mid-chunk: roll back and re-apply prefix.
                consumed = int(crossing) + 1
                self._tags = snapshot
                miss_mask = self._classify(lines[:consumed])

        misses = int(miss_mask.sum())
        self._staged_misses += misses
        return KernelResult(miss_mask, consumed, misses, 0, 0)

    def access_line(self, line: int, write: bool = False) -> LineOutcome:
        """Scalar per-line path for decorator components."""
        idx = line & self.config.set_mask
        resident = self._tags[idx]
        if resident == line:
            return LineOutcome(False, None)
        evicted = None if resident == _EMPTY else int(resident)
        self._tags[idx] = line
        self._staged_misses += 1
        return LineOutcome(True, evicted)

    def state_snapshot(self) -> object:
        return self._tags.copy()

    def state_restore(self, state: object) -> None:
        self._tags = np.array(state, dtype=np.uint64, copy=True)
