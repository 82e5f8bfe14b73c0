"""Exact set-associative cache with LRU/FIFO/random replacement.

This is the model for all experiments — the paper simulates "a
single-level set associative cache". The hit/miss engine itself lives in
:mod:`repro.cache.kernels`; this class is the one place a kernel is
named (``backend=``), and with no name it runs
:data:`~repro.cache.kernels.DEFAULT_BACKEND`:

* ``"reference"`` — the original list-of-lists kernel, oldest-first per
  set; its sequential loop defines the semantics;
* ``"array"`` — flat-array state with vectorised fast paths for
  streaming chunks, bit-identical to the reference kernel;
* ``"auto"`` (the default) — array, until a miss budget or a
  conflict-heavy RANDOM stream makes the reference kernel the faster one.

Only the differential tests and the kernel benchmark name a kernel; a
mechanism decorator moves the cache it wraps onto ``"reference"``
(:meth:`SetAssociativeCache.prepare_line_access`).

A miss-budgeted chunk is handed to the kernel as growing prefix windows
sized from the cache's running refs-per-miss, so a chunk the budget cuts
early costs only the references it consumes (see :meth:`_chunk_access`).

Beyond the paper's model, two optional realism features are provided for
the ablation benches:

* **write-back / write-allocate** — pass a ``writes`` mask to ``access``
  and dirty lines are tracked; evicting a dirty line counts a writeback
  (``stats.writebacks``). The miss classification is unchanged (fills
  happen on write misses either way), so the paper's results are
  unaffected unless a consumer inspects writeback counts.
* **next-line prefetch** — ``prefetch_next_line=True`` fills line ``L+1``
  whenever line ``L`` misses, modelling a simple hardware prefetcher;
  used to show the profiling techniques' rankings survive prefetching.

Both features are honoured identically by every backend.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import sanitize
from repro.cache.base import AccessResult, check_miss_budget
from repro.cache.components import LINE_HIT, CacheComponent, LineOutcome, MissHook
from repro.cache.config import CacheConfig
from repro.cache.kernels import kernel_for_config, resolve_backend
from repro.cache.kernels.base import KernelResult
from repro.cache.policies import ReplacementPolicy
from repro.errors import SimulationError

#: Budgeted chunks up to this long go to the kernel whole; it is also the
#: floor added to every estimated first window.
WINDOW_MIN = 32

#: Headroom on the estimated refs-to-budget of a first window.
WINDOW_MARGIN = 1.25


class SetAssociativeCache(CacheComponent):
    """Exact A-way set-associative cache over a pluggable kernel."""

    def __init__(
        self,
        config: CacheConfig,
        seed: int | None = None,
        prefetch_next_line: bool = False,
        backend: str | None = None,
    ) -> None:
        super().__init__(config)
        self.prefetch_next_line = prefetch_next_line
        #: Kernel backend in use; None means ``kernels.DEFAULT_BACKEND``.
        self.backend = resolve_backend(backend)
        self._kernel = kernel_for_config(
            self.backend,
            config,
            seed=seed,
            prefetch_next_line=prefetch_next_line,
        )
        self._staged_misses = 0
        self._staged_writebacks = 0
        self._staged_prefetches = 0
        #: Kernel refs and misses so far, for sizing budget windows only
        #: (a speed knob: windowing never changes results).
        self._window_refs = 0
        self._window_misses = 0

    def reset(self) -> None:
        self._kernel.reset()

    def contents_line_count(self) -> int:
        return self._kernel.contents_line_count()

    def dirty_line_count(self) -> int:
        """Number of resident dirty lines (write-back bookkeeping)."""
        return self._kernel.dirty_line_count()

    def lines_in_set(self, set_idx: int) -> list[int]:
        """Line numbers resident in a set, oldest/least-recent first."""
        return self._kernel.lines_in_set(set_idx)

    def contains_addr(self, addr: int) -> bool:
        """Whether the line holding byte ``addr`` is resident."""
        return self._kernel.contains_line(addr >> self.config.line_bits)

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        tag: str = "app",
        writes: np.ndarray | None = None,
    ) -> AccessResult:
        check_miss_budget(miss_budget)
        n = len(addrs)
        if n == 0:
            return AccessResult(np.zeros(0, dtype=bool), 0)
        res = self._chunk_access(addrs, miss_budget=miss_budget, writes=writes)
        self.commit_stage(tag, res.consumed)
        return AccessResult(res.miss_mask, res.consumed)

    # --------------------------------------------------- component protocol

    def begin_stage(self) -> None:
        self._staged_misses = 0
        self._staged_writebacks = 0
        self._staged_prefetches = 0

    def commit_stage(self, tag: str, accesses: int) -> None:
        self.stats.record(
            tag,
            accesses,
            self._staged_misses,
            writebacks=self._staged_writebacks,
            prefetches=self._staged_prefetches,
        )
        self.begin_stage()
        if sanitize.is_active():
            sanitize.check_component(self)

    def _chunk_access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
    ) -> KernelResult:
        """Classify a chunk; a budgeted one in growing prefix windows.

        A sampling tool's miss budget often cuts a chunk after a small
        fraction of it, and the session then resubmits the remainder —
        so a budgeted chunk goes to the kernel as successive prefix
        windows, each with the budget left, until the budget is spent or
        the chunk ends. The first window is the budget times the running
        refs-per-miss, with headroom, plus :data:`WINDOW_MIN`; each
        undershoot doubles it. This is bit-identical to one whole-chunk
        call: LRU/FIFO state is a pure function of reference order, and
        the RANDOM eviction pool is reserved once for the whole chunk
        up front, so no window refills it (see
        :meth:`~repro.cache.kernels.base.SetKernel.reserve`).
        """
        n = len(addrs)
        kernel = self._kernel
        window = n
        if miss_budget is not None and miss_budget > 0 and n > WINDOW_MIN:
            refs_per_miss = (self._window_refs + 1) / (self._window_misses + 1)
            window = int(miss_budget * refs_per_miss * WINDOW_MARGIN) + WINDOW_MIN
        if window >= n:
            res = kernel.access(addrs, miss_budget=miss_budget, writes=writes)
        else:
            kernel.reserve(n)
            masks = []
            pos = misses = writebacks = prefetches = 0
            while pos < n and misses < miss_budget:
                hi = pos + window
                part = kernel.access(
                    addrs[pos:hi],
                    miss_budget=miss_budget - misses,
                    writes=writes[pos:hi] if writes is not None else None,
                )
                masks.append(part.miss_mask)
                pos += part.consumed
                misses += part.misses
                writebacks += part.writebacks
                prefetches += part.prefetches
                window *= 2
            res = KernelResult(
                np.concatenate(masks), pos, misses, writebacks, prefetches
            )
        self._window_refs += res.consumed
        self._window_misses += res.misses
        self._staged_misses += res.misses
        self._staged_writebacks += res.writebacks
        self._staged_prefetches += res.prefetches
        return res

    def scan_lines(
        self,
        lines: Sequence[int],
        writes: Sequence[bool] | None,
        budget: int | None,
        on_miss: MissHook,
    ) -> tuple[bytearray, int]:
        """The per-line path decorated stacks run, one loop per chunk.

        A direct transcription of the reference kernel's per-reference
        loop body, operating on its set state so each miss's victim can
        be handed to ``on_miss``; decorated stacks run on the reference
        kernel only (see :meth:`prepare_line_access`), hence the guard.
        A RANDOM eviction refills the pool with 4096 draws when it runs
        empty, so draws depend only on evictions and a decorated stack's
        results do not depend on where its chunks split. The next-line
        prefetcher is not supported here —
        :class:`~repro.cache.components.StreamBuffers` is the composable
        replacement.
        """
        kernel = self._kernel
        sets = getattr(kernel, "_sets", None)
        if sets is None:
            raise SimulationError(
                "per-line component access requires the reference kernel "
                f"(have {kernel.name!r}); wrapping the cache in a "
                "decorator selects it"
            )
        if self.prefetch_next_line:
            raise SimulationError(
                "prefetch_next_line cannot combine with decorator "
                "components; wrap the cache in StreamBuffers instead"
            )
        set_mask = kernel.set_mask
        assoc = kernel.assoc
        dirty = kernel._dirty
        lru = kernel.policy is ReplacementPolicy.LRU
        random_policy = kernel.policy is ReplacementPolicy.RANDOM
        n = len(lines)
        flags = bytearray(n)
        left = n + 1 if budget is None else budget
        consumed = n
        misses = writebacks = 0
        for i in range(n):
            line = lines[i]
            s = sets[line & set_mask]
            if line in s:
                if lru and s[-1] != line:
                    s.remove(line)
                    s.append(line)
                if writes is not None and writes[i]:
                    dirty.add(line)
                continue
            misses += 1
            victim: int | None = None
            if len(s) >= assoc:
                if random_policy:
                    if not kernel._rand_pool:
                        kernel._refill_rand_pool(4096)
                    victim = s.pop(kernel._rand_pool.pop())
                else:
                    victim = s.pop(0)  # LRU and FIFO both evict the head
                if victim in dirty:
                    dirty.discard(victim)
                    writebacks += 1
            s.append(line)
            if writes is not None and writes[i]:
                dirty.add(line)  # write-allocate: filled dirty
            if on_miss(line, victim):
                flags[i] = 1
                left -= 1
                if left == 0:
                    consumed = i + 1
                    break
        self._staged_misses += misses
        self._staged_writebacks += writebacks
        return flags, consumed

    def access_line(self, line: int, write: bool = False) -> LineOutcome:
        """One reference through :meth:`scan_lines`, reporting the victim."""
        victims: list[int | None] = []

        def keep(_line: int, victim: int | None) -> bool:
            victims.append(victim)
            return True

        self.scan_lines((line,), (write,), None, keep)
        return LineOutcome(True, victims[0]) if victims else LINE_HIT

    def prepare_line_access(self) -> None:
        """Move a fresh cache onto the reference kernel, whose per-set line
        lists :meth:`scan_lines` edits. Same seed, so the RANDOM eviction
        stream is the one the cache would have drawn on any kernel."""
        if self.backend == "reference":
            return
        if self.stats.accesses or self._kernel.contents_line_count():
            raise SimulationError(
                "wrap a cache in a decorator before its first access"
            )
        self.backend = "reference"
        self._kernel = kernel_for_config(
            self.backend,
            self.config,
            seed=self._kernel._seed,
            prefetch_next_line=self.prefetch_next_line,
        )

    def state_snapshot(self) -> object:
        return self._kernel.snapshot()

    def state_restore(self, state: object) -> None:
        self._kernel.restore(state)
