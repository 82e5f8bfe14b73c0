"""Kernel interface shared by all cache backends.

A kernel classifies chunks of byte addresses against its set state and
reports raw event counts; recording those counts into
:class:`~repro.cache.base.CacheStats` (and exposing the public
``AccessResult``) is the wrapping cache model's job. The split keeps the
bit-identity contract between backends small and testable: two kernels
are equivalent iff, fed the same chunks, they produce the same
:class:`KernelResult` sequence and the same observable set state.

The RANDOM replacement policy draws eviction indices from a pre-filled
pool (drawing one random number per eviction inside the hot loop would
dominate runtime). The pool refill rule is part of the equivalence
contract — it is keyed on the *chunk length*, not on how many evictions
the chunk performs — so it lives here, shared by every backend, behind
:meth:`SetKernel.reserve`. A consumed reference pops at most two pool
entries (its own eviction and a prefetch fill's), so once a chunk of
``n`` references is reserved, reserving any prefix window of it again
is a no-op: that is what lets a cache model classify a budgeted chunk
window by window with the exact draws of one whole-chunk call.
"""

from __future__ import annotations

import abc
from typing import NamedTuple

import numpy as np

from repro.cache.policies import ReplacementPolicy
from repro.util.rng import make_rng


class KernelResult(NamedTuple):
    """Raw outcome of one (possibly budget-limited) chunk classification.

    ``miss_mask`` covers only the ``consumed`` leading references;
    references past ``consumed`` were *not* applied to the kernel state.
    """

    miss_mask: np.ndarray
    consumed: int
    misses: int
    writebacks: int
    prefetches: int


class SetKernel(abc.ABC):
    """Abstract set-associative kernel: per-set state + classification."""

    #: Registry name of the backend ("reference", "array", ...).
    name: str = "?"

    def __init__(
        self,
        *,
        n_sets: int,
        assoc: int,
        line_bits: int,
        policy: ReplacementPolicy = ReplacementPolicy.LRU,
        seed: int | None = None,
        prefetch_next_line: bool = False,
    ) -> None:
        self.n_sets = n_sets
        self.assoc = assoc
        self.line_bits = line_bits
        self.set_mask = n_sets - 1
        self.policy = policy
        self.prefetch_next_line = prefetch_next_line
        self._rng = make_rng(seed)
        self._rand_pool: list[int] = []
        #: Seed and cumulative draw count: together they make the RNG
        #: stream *auditable*. PCG64 draws of a fixed (low, high) split
        #: across calls land on the same end state as one combined call,
        #: so ``make_rng(_seed)`` replayed for ``_rand_draws`` integers
        #: must reproduce ``_rng``'s exact state — the runtime sanitizer
        #: (repro.sanitize.rng) checks this after every session restore.
        self._seed = seed
        self._rand_draws = 0

    # -------------------------------------------------------------- random

    def _refill_rand_pool(self, n: int) -> None:
        # The pool is *replaced*, not extended, and always drawn with the
        # same size expression — both facts are load-bearing for the
        # cross-backend RANDOM-eviction equivalence.
        size = max(n, 4096)
        self._rand_pool = self._rng.integers(0, self.assoc, size=size).tolist()
        self._rand_draws += size

    def _ensure_rand_pool(self, n: int) -> None:
        """Refill the eviction pool for a chunk of ``n`` references."""
        if len(self._rand_pool) < 2 * n:
            self._refill_rand_pool(2 * n)

    def reserve(self, n: int) -> None:
        """Make the RANDOM eviction pool cover a chunk of ``n`` references.

        A no-op for LRU/FIFO, and for a pool already holding ``2 * n``
        entries; otherwise the pool is refilled (see the module notes).
        """
        if self.policy is ReplacementPolicy.RANDOM:
            self._ensure_rand_pool(n)

    @staticmethod
    def _miss_mask(miss_flags: bytearray, consumed: int) -> np.ndarray:
        """The boolean miss mask of the first ``consumed`` references.

        ``miss_flags`` holds one 0/1 byte per reference, so it reads
        directly as NumPy bools; the one copy detaches the result from
        the kernel's scratch buffer.
        """
        return np.frombuffer(miss_flags, dtype=bool, count=consumed).copy()

    # ----------------------------------------------------------- interface

    @abc.abstractmethod
    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
    ) -> KernelResult:
        """Classify a chunk of byte addresses, updating set state."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Empty every set (cold start). The RNG/pool are *not* reset."""

    @abc.abstractmethod
    def snapshot(self) -> object:
        """Opaque copy of the full kernel state (sets, dirty, RNG)."""

    @abc.abstractmethod
    def restore(self, state: object) -> None:
        """Restore a state captured by :meth:`snapshot`."""

    @abc.abstractmethod
    def lines_in_set(self, set_idx: int) -> list[int]:
        """Resident line numbers, oldest/least-recent first."""

    @abc.abstractmethod
    def contents_line_count(self) -> int:
        """Number of valid lines currently resident."""

    @abc.abstractmethod
    def dirty_line_count(self) -> int:
        """Number of resident dirty lines (write-back bookkeeping)."""

    def contains_line(self, line: int) -> bool:
        """Whether global line number ``line`` is resident."""
        return line in self.lines_in_set(line & self.set_mask)
