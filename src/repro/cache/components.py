"""Composable cache components: pipelines and miss-reduction decorators.

The paper simulates a fixed set-associative hierarchy; this module makes
the hierarchy *compositional* so mechanism × size sweeps can ask which
objects each classic miss-reduction mechanism rescues (ROADMAP item 4,
mirroring the VC/MC/SB experimental design in SNIPPETS.md #3):

* :class:`CacheComponent` — the component protocol. On top of the
  chunked :class:`~repro.cache.base.CacheModel` interface it adds a
  *scalar* per-line path (``begin_stage`` / ``access_line`` /
  ``commit_stage``) plus stats-free state capture
  (``state_snapshot``/``state_restore``). The scalar path exists because
  decorators need each reference's *eviction victim* from the component
  they wrap — information the chunked kernel interface deliberately does
  not expose;
* :class:`Pipeline` — a generic N-level filtering hierarchy
  (:class:`~repro.cache.hierarchy.TwoLevelCache` is its two-level
  specialisation and stays bit-identical to the pre-refactor model);
* :class:`VictimCache` / :class:`MissCache` / :class:`StreamBuffers` —
  decorators wrapping any component, each with its own
  :class:`~repro.cache.base.CacheStats` ledger whose ``mechanism`` dict
  carries the per-mechanism event counts (``vc_hits``, ``mc_hits``,
  ``sb_hits``, ``sb_prefetches``, ...).

Mechanism semantics (Jouppi 1990, adapted to this code base's model):

* **Victim cache** — a small fully-associative buffer holding lines the
  wrapped component evicts. On an inner miss the VC is probed: a hit
  *swaps* (the VC entry is consumed, the inner component's new victim
  takes its slot) and the reference is **not** a memory miss; a VC miss
  forwards the inner victim into the VC (evicting its LRU entry) and
  counts a memory miss. VC contents are exclusive of the wrapped
  component by construction. Dirty victims are written back when the
  wrapped component evicts them (before entering the VC) — a documented
  simplification that keeps write-back accounting at the leaf.
* **Miss cache** — a small fully-associative cache *probed* on inner
  misses; hits rescue the miss, misses insert the demanded line. Unlike
  the VC it duplicates lines the wrapped component also holds, so no
  inclusion/exclusion invariant holds.
* **Stream buffers** — ``entries`` FIFO buffers of ``depth`` next-line
  prefetches. An inner miss that matches a buffer *head* is rescued; the
  buffer shifts and prefetches one more line. A miss matching no head
  allocates the least-recently-used buffer at ``line+1 .. line+depth``.
  Every rescued line was prefetched earlier (``sb_hits`` can never
  exceed ``sb_prefetches``).

Decorated stacks run on the reference kernel only (a decorator moves the
component it wraps onto it; there is no flat/vectorised path for
decorators yet), and the scalar loop stops *exactly* at the budget-th
post-mechanism miss — the same interrupt-precision contract the chunked
models honour.
"""

from __future__ import annotations

import abc
from typing import NamedTuple

import numpy as np

from repro import sanitize
from repro.cache.base import AccessResult, CacheModel, CacheStats
from repro.cache.config import CacheConfig, MechanismSpec, parse_mechanisms
from repro.cache.kernels.base import KernelResult
from repro.errors import CacheConfigError


class LineOutcome(NamedTuple):
    """Result of pushing one line through a component's scalar path.

    ``evicted`` is the line number that left the component's *total*
    storage because of this access (None when nothing did) — the handle
    decorators use to capture victims. A victim-cache rescue reports
    ``evicted=None``: the inner victim moved into the VC slot the hit
    freed, so nothing left the decorated component as a whole.
    """

    miss: bool
    evicted: int | None


class CacheComponent(CacheModel):
    """A cache model that can participate in pipelines and decorators.

    Besides the chunked :meth:`~repro.cache.base.CacheModel.access`, a
    component exposes:

    * a **staged** scalar path — :meth:`begin_stage` resets per-chunk
      event counters, :meth:`access_line` applies one line reference and
      reports the victim, :meth:`commit_stage` records the staged counts
      into :attr:`stats` under a tag (cascading to wrapped components),
      keeping every counter movement inside ``CacheStats.record``
      (RPL401);
    * ``_chunk_access`` — the chunked classification *without* stats
      recording, so compositions control when and with what access
      totals each ledger is committed;
    * :meth:`state_snapshot`/:meth:`state_restore` — stats-free state
      capture used for exact ``miss_budget`` rollback.
    """

    # ------------------------------------------------------------ scalar

    def prepare_line_access(self) -> None:
        """Make :meth:`access_line` usable; called by a wrapping decorator
        before the first access. Most components need nothing."""

    @abc.abstractmethod
    def begin_stage(self) -> None:
        """Zero the staged per-chunk counters (cascades to inner)."""

    @abc.abstractmethod
    def access_line(self, line: int, write: bool = False) -> LineOutcome:
        """Apply one line reference; report miss status and the victim."""

    @abc.abstractmethod
    def commit_stage(self, tag: str, accesses: int) -> None:
        """Record staged counts into :attr:`stats` (cascades to inner)."""

    # ----------------------------------------------------------- chunked

    @abc.abstractmethod
    def _chunk_access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
    ) -> KernelResult:
        """Classify a chunk, staging (not recording) event counts."""

    # ------------------------------------------------------------- state

    @abc.abstractmethod
    def state_snapshot(self) -> object:
        """Opaque copy of cache state (not statistics)."""

    @abc.abstractmethod
    def state_restore(self, state: object) -> None:
        """Restore a state captured by :meth:`state_snapshot`."""

    # ----------------------------------------------------------- ledgers

    def component_ledgers(self) -> list[tuple[str, CacheStats]]:
        """(label, stats) for every component in this stack, outer first."""
        return [("cache", self.stats)]


class MechanismDecorator(CacheComponent):
    """Base class for miss-reduction decorators wrapping a component.

    The decorator drives the wrapped component through the scalar path
    one line at a time, rescuing (or confirming) each inner miss. Its
    ``access`` therefore reports the *post-mechanism* miss stream — what
    a memory-side hardware counter would see — and honours
    ``miss_budget`` against exactly that stream.
    """

    #: Mechanism kind tag ("vc", "mc", "sb") — prefixes ledger keys.
    kind: str = "?"

    def __init__(self, inner: CacheComponent, entries: int) -> None:
        if entries < 1:
            raise CacheConfigError(
                f"{type(self).__name__} needs entries >= 1, got {entries}"
            )
        super().__init__(inner.config)
        inner.prepare_line_access()
        self.inner = inner
        self.entries = entries
        self._staged_misses = 0
        self._staged_hits = 0
        self._staged_probes = 0
        self._staged_prefetches = 0

    # ------------------------------------------------------------ scalar

    def begin_stage(self) -> None:
        self._staged_misses = 0
        self._staged_hits = 0
        self._staged_probes = 0
        self._staged_prefetches = 0
        self.inner.begin_stage()

    def commit_stage(self, tag: str, accesses: int) -> None:
        self.stats.record(
            tag,
            accesses,
            self._staged_misses,
            prefetches=self._staged_prefetches,
            mechanism=self._staged_mechanism(),
        )
        self._staged_misses = 0
        self._staged_hits = 0
        self._staged_probes = 0
        self._staged_prefetches = 0
        self.inner.commit_stage(tag, accesses)
        # After the cascade both ledgers hold this chunk, so the chain
        # identities (probes == inner misses, ...) must hold on totals.
        if sanitize.is_active():
            sanitize.check_component(self, self.kind)

    def _staged_mechanism(self) -> dict[str, int]:
        counts = {
            f"{self.kind}_hits": self._staged_hits,
            f"{self.kind}_probes": self._staged_probes,
        }
        if self.kind == "sb":
            counts["sb_prefetches"] = self._staged_prefetches
        return counts

    # ----------------------------------------------------------- chunked

    def _chunk_access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
    ) -> KernelResult:
        self.begin_stage()
        n = len(addrs)
        lines = (
            np.asarray(addrs, dtype=np.uint64)
            >> np.uint64(self.config.line_bits)
        ).tolist()
        write_flags = writes.tolist() if writes is not None else None
        access_line = self.access_line
        miss_flags = bytearray(n)
        budget = miss_budget if miss_budget is not None else n + 1
        misses = 0
        consumed = n
        for i in range(n):
            write = bool(write_flags[i]) if write_flags is not None else False
            if access_line(lines[i], write).miss:
                miss_flags[i] = 1
                misses += 1
                budget -= 1
                if budget == 0:
                    consumed = i + 1
                    break
        miss_mask = np.frombuffer(
            bytes(miss_flags[:consumed]), dtype=np.uint8
        ).astype(bool)
        return KernelResult(miss_mask, consumed, misses, 0, 0)

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        tag: str = "app",
        writes: np.ndarray | None = None,
    ) -> AccessResult:
        n = len(addrs)
        if n == 0:
            return AccessResult(np.zeros(0, dtype=bool), 0)
        res = self._chunk_access(addrs, miss_budget=miss_budget, writes=writes)
        self.commit_stage(tag, res.consumed)
        return AccessResult(res.miss_mask, res.consumed)

    # ------------------------------------------------------------- state

    def state_snapshot(self) -> object:
        return (self._own_state(), self.inner.state_snapshot())

    def state_restore(self, state: object) -> None:
        own, inner = state  # type: ignore[misc]
        self._restore_own_state(own)
        self.inner.state_restore(inner)

    @abc.abstractmethod
    def _own_state(self) -> object:
        """Copy of the decorator's own buffer state."""

    @abc.abstractmethod
    def _restore_own_state(self, state: object) -> None:
        """Restore a copy from :meth:`_own_state`."""

    # -------------------------------------------------------- diagnostics

    def reset(self) -> None:
        self._reset_own()
        self.inner.reset()

    @abc.abstractmethod
    def _reset_own(self) -> None:
        """Empty the decorator's own storage."""

    @abc.abstractmethod
    def resident_lines(self) -> set[int]:
        """Lines currently held in the decorator's own storage."""

    def contents_line_count(self) -> int:
        """Valid lines across the whole decorated stack (diagnostics)."""
        return self.inner.contents_line_count() + len(self.resident_lines())

    def contains_addr(self, addr: int) -> bool:
        line = addr >> self.config.line_bits
        inner = getattr(self.inner, "contains_addr", None)
        held = bool(inner(addr)) if inner is not None else False
        return held or line in self.resident_lines()

    def component_ledgers(self) -> list[tuple[str, CacheStats]]:
        return [(self.kind, self.stats), *self.inner.component_ledgers()]

    def describe(self) -> str:
        inner = getattr(self.inner, "describe", None)
        base = inner() if inner is not None else self.config.describe()
        return f"{self.kind}({self.entries}) over {base}"


class VictimCache(MechanismDecorator):
    """Fully-associative spill buffer with swap-on-hit (Jouppi's VC)."""

    kind = "vc"

    def __init__(self, inner: CacheComponent, entries: int = 8) -> None:
        super().__init__(inner, entries)
        #: Insertion-ordered line -> None map; oldest entry first (LRU).
        self._lines: dict[int, None] = {}

    def access_line(self, line: int, write: bool = False) -> LineOutcome:
        out = self.inner.access_line(line, write)
        if not out.miss:
            return LineOutcome(False, None)
        self._staged_probes += 1
        if line in self._lines:
            # Swap: the VC entry is consumed and the inner victim takes
            # its slot, so the VC never overflows here and nothing
            # leaves the decorated stack.
            del self._lines[line]
            if out.evicted is not None:
                self._lines[out.evicted] = None
            self._staged_hits += 1
            return LineOutcome(False, None)
        leaving: int | None = None
        if out.evicted is not None:
            self._lines[out.evicted] = None
            if len(self._lines) > self.entries:
                leaving = next(iter(self._lines))
                del self._lines[leaving]
        self._staged_misses += 1
        return LineOutcome(True, leaving)

    def _own_state(self) -> object:
        return dict(self._lines)

    def _restore_own_state(self, state: object) -> None:
        self._lines = dict(state)  # type: ignore[call-overload]

    def _reset_own(self) -> None:
        self._lines = {}

    def resident_lines(self) -> set[int]:
        return set(self._lines)


class MissCache(MechanismDecorator):
    """Small fully-associative fill cache probed on inner misses."""

    kind = "mc"

    def __init__(self, inner: CacheComponent, entries: int = 8) -> None:
        super().__init__(inner, entries)
        #: Insertion-ordered line -> None map; oldest entry first (LRU).
        self._lines: dict[int, None] = {}

    def access_line(self, line: int, write: bool = False) -> LineOutcome:
        out = self.inner.access_line(line, write)
        if not out.miss:
            return LineOutcome(False, None)
        self._staged_probes += 1
        if line in self._lines:
            # LRU promote; the line stays duplicated in the MC while the
            # inner fill (already applied) also holds it.
            del self._lines[line]
            self._lines[line] = None
            self._staged_hits += 1
            return LineOutcome(False, out.evicted)
        self._lines[line] = None
        leaving = out.evicted
        if len(self._lines) > self.entries:
            dropped = next(iter(self._lines))
            del self._lines[dropped]
            if leaving is None:
                leaving = dropped
        self._staged_misses += 1
        return LineOutcome(True, leaving)

    def _own_state(self) -> object:
        return dict(self._lines)

    def _restore_own_state(self, state: object) -> None:
        self._lines = dict(state)  # type: ignore[call-overload]

    def _reset_own(self) -> None:
        self._lines = {}

    def resident_lines(self) -> set[int]:
        return set(self._lines)


class StreamBuffers(MechanismDecorator):
    """N next-line prefetch buffers with allocate-on-miss."""

    kind = "sb"

    def __init__(
        self, inner: CacheComponent, entries: int = 4, depth: int = 4
    ) -> None:
        super().__init__(inner, entries)
        if depth < 1:
            raise CacheConfigError(f"StreamBuffers needs depth >= 1, got {depth}")
        self.depth = depth
        #: Head line each buffer would serve next; None = unallocated.
        self._heads: list[int | None] = [None] * entries
        #: Buffer indices, least recently used first.
        self._lru: list[int] = list(range(entries))

    def access_line(self, line: int, write: bool = False) -> LineOutcome:
        out = self.inner.access_line(line, write)
        if not out.miss:
            return LineOutcome(False, None)
        self._staged_probes += 1
        for buf in range(self.entries):
            if self._heads[buf] == line:
                # Head hit: the buffer shifts and prefetches one more
                # line to keep its depth, rescuing the miss.
                self._heads[buf] = line + 1
                self._staged_prefetches += 1
                self._staged_hits += 1
                self._lru.remove(buf)
                self._lru.append(buf)
                return LineOutcome(False, out.evicted)
        buf = self._lru.pop(0)
        self._lru.append(buf)
        self._heads[buf] = line + 1
        self._staged_prefetches += self.depth
        self._staged_misses += 1
        return LineOutcome(True, out.evicted)

    def _own_state(self) -> object:
        return (list(self._heads), list(self._lru))

    def _restore_own_state(self, state: object) -> None:
        heads, lru = state  # type: ignore[misc]
        self._heads = list(heads)
        self._lru = list(lru)

    def _reset_own(self) -> None:
        self._heads = [None] * self.entries
        self._lru = list(range(self.entries))

    def resident_lines(self) -> set[int]:
        """Buffered (prefetched) lines: each head's depth-long window."""
        lines: set[int] = set()
        for head in self._heads:
            if head is not None:
                lines.update(range(head, head + self.depth))
        return lines

    def contents_line_count(self) -> int:
        allocated = sum(1 for head in self._heads if head is not None)
        return self.inner.contents_line_count() + allocated * self.depth

    def describe(self) -> str:
        inner = getattr(self.inner, "describe", None)
        base = inner() if inner is not None else self.config.describe()
        return f"sb({self.entries}x{self.depth}) over {base}"


class Pipeline(CacheComponent):
    """Generic N-level filtering hierarchy over cache components.

    Level *i*'s miss stream feeds level *i+1*; ``access`` returns the
    **last level's** miss mask (what a memory-side counter sees) and
    honours ``miss_budget`` against it exactly: upper-level state is
    snapshotted before a budgeted chunk and, when the budget-th miss
    falls mid-chunk, rolled back and re-applied over the consumed prefix
    only. Every level records each consumed reference under the same
    tag, so per tag the levels' access totals agree. ``self.stats`` *is*
    the last level's ledger (one object, not a copy). Write masks are
    ignored (no dirty-line tracking across levels), matching the
    pre-refactor two-level model.
    """

    def __init__(self, levels: "list[CacheComponent]") -> None:
        if not levels:
            raise CacheConfigError("Pipeline needs at least one level")
        for upper, lower in zip(levels, levels[1:]):
            if upper.config.size >= lower.config.size:
                raise CacheConfigError(
                    f"L1 ({upper.config.size}) must be smaller than "
                    f"L2 ({lower.config.size})"
                )
            if upper.config.line_size != lower.config.line_size:
                raise CacheConfigError("L1 and L2 must share a line size")
        super().__init__(levels[-1].config)
        self.levels = list(levels)
        # The pipeline's ledger *is* the monitored (last) level's: one
        # shared object, so model-level consumers and per-component
        # ledgers can never disagree.
        self.stats = self.levels[-1].stats

    # ------------------------------------------------------------ scalar

    def prepare_line_access(self) -> None:
        for level in self.levels:
            level.prepare_line_access()

    def begin_stage(self) -> None:
        for level in self.levels:
            level.begin_stage()

    def access_line(self, line: int, write: bool = False) -> LineOutcome:
        out = LineOutcome(True, None)
        for level in self.levels:
            out = level.access_line(line, False)
            if not out.miss:
                return LineOutcome(False, None)
        return out

    def commit_stage(self, tag: str, accesses: int) -> None:
        for level in self.levels:
            level.commit_stage(tag, accesses)
        if sanitize.is_active():
            sanitize.check_component(self, "pipeline")

    # ----------------------------------------------------------- chunked

    def _chunk_access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
    ) -> KernelResult:
        self.begin_stage()
        n = len(addrs)
        addrs = np.asarray(addrs, dtype=np.uint64)
        uppers = self.levels[:-1]
        last = self.levels[-1]
        snaps = (
            [u.state_snapshot() for u in uppers]
            if miss_budget is not None
            else None
        )

        def filter_down(chunk: np.ndarray):
            """Run ``chunk`` through the upper levels; composed index."""
            index: np.ndarray | None = None
            for upper in uppers:
                r = upper._chunk_access(chunk)
                hit_through = np.flatnonzero(r.miss_mask)
                index = (
                    hit_through if index is None else index[hit_through]
                )
                chunk = chunk[hit_through]
            return chunk, index

        cur, index = filter_down(addrs)
        r_last = last._chunk_access(cur, miss_budget=miss_budget)

        consumed = n
        if miss_budget is not None and r_last.misses >= miss_budget:
            # Budget exhausted: the chunk ends at the reference whose
            # upper-level miss produced the budget-th last-level miss.
            # Trailing references — even upper-level hits — are not
            # consumed, exactly as a per-reference walk would stop.
            if index is not None:
                consumed = int(index[r_last.consumed - 1]) + 1
                index = index[: r_last.consumed]
            else:
                consumed = r_last.consumed
            if consumed < n and snaps is not None:
                for upper, snap in zip(uppers, snaps):
                    upper.state_restore(snap)
                    # Discard the staged counts of the full-chunk pass
                    # too: the ledger must see only the consumed prefix
                    # about to be re-applied, or upper levels would
                    # commit misses for references never consumed
                    # (caught by the runtime sanitizer's ledger check).
                    upper.begin_stage()
                filter_down(addrs[:consumed])

        if index is None:
            return r_last
        miss_mask = np.zeros(consumed, dtype=bool)
        miss_mask[index[r_last.miss_mask]] = True
        return KernelResult(miss_mask, consumed, r_last.misses, 0, 0)

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        tag: str = "app",
        writes: np.ndarray | None = None,
    ) -> AccessResult:
        n = len(addrs)
        if n == 0:
            return AccessResult(np.zeros(0, dtype=bool), 0)
        res = self._chunk_access(addrs, miss_budget=miss_budget)
        self.commit_stage(tag, res.consumed)
        return AccessResult(res.miss_mask, res.consumed)

    # ------------------------------------------------------------- state

    def state_snapshot(self) -> object:
        return [level.state_snapshot() for level in self.levels]

    def state_restore(self, state: object) -> None:
        for level, snap in zip(self.levels, state):  # type: ignore[call-overload]
            level.state_restore(snap)

    # -------------------------------------------------------- diagnostics

    def reset(self) -> None:
        for level in self.levels:
            level.reset()

    def contents_line_count(self) -> int:
        """Valid lines in the monitored (last) level."""
        return self.levels[-1].contents_line_count()

    def contains_addr(self, addr: int) -> bool:
        last = self.levels[-1]
        contains = getattr(last, "contains_addr", None)
        return bool(contains(addr)) if contains is not None else False

    def combined_stats(self) -> CacheStats:
        """All levels' totals merged into one fresh :class:`CacheStats`."""
        merged = self.levels[0].stats.snapshot()
        for level in self.levels[1:]:
            merged.merge(level.stats)
        return merged

    def component_ledgers(self) -> list[tuple[str, CacheStats]]:
        ledgers: list[tuple[str, CacheStats]] = []
        for i, level in enumerate(self.levels):
            prefix = f"l{i + 1}"
            for name, stats in level.component_ledgers():
                label = prefix if name == "cache" else f"{prefix}.{name}"
                ledgers.append((label, stats))
        return ledgers

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return " + ".join(
            f"L{i + 1} {level.config.describe()}"
            for i, level in enumerate(self.levels)
        )


class SharedCacheLevel:
    """A last-level cache referenced by several cores' pipelines.

    Wraps one leaf component (the physical shared LLC — its ledger is
    the *aggregate* view every core's traffic lands in) and hands out
    one :class:`SharedLevelPort` per core. Each core's hierarchy is then
    ``Pipeline([private L1, port])`` (or ``Pipeline([port])``): the port
    presents the shared leaf through a per-core :class:`CacheStats`
    ledger, so the pipeline chain identities keep holding per core while
    the sanitizer additionally proves the aggregate ledger equals the
    sum of the port ledgers at every commit boundary.

    Cores interleave *sequentially* (the multi-core session steps one
    core at a time), so the leaf's staged counters are only ever owned
    by one port between ``begin_stage`` and ``commit_stage``.
    """

    def __init__(self, leaf: CacheComponent) -> None:
        self.leaf = leaf
        self.ports: list[SharedLevelPort] = []

    @property
    def config(self) -> CacheConfig:
        return self.leaf.config

    @property
    def stats(self) -> CacheStats:
        """The aggregate ledger (the leaf's own)."""
        return self.leaf.stats

    def port(self, core_id: int, shadow: CacheComponent) -> "SharedLevelPort":
        """Create the per-core port; ``shadow`` is the core's solo model.

        The shadow must share the leaf's geometry and replacement seed:
        with one core the shadow then evolves bit-identically to the
        leaf and every miss classifies as *self* — the degenerate case
        the 1-core bit-identity contract relies on.
        """
        if shadow.config != self.leaf.config:
            raise CacheConfigError(
                "shared-level shadow model must match the leaf geometry "
                f"({shadow.config.describe()} != {self.leaf.config.describe()})"
            )
        p = SharedLevelPort(self, core_id, shadow)
        self.ports.append(p)
        return p


class SharedLevelPort(CacheComponent):
    """One core's view of a :class:`SharedCacheLevel`.

    Behaves exactly like the wrapped leaf for classification (every
    access is applied to the shared leaf, budget semantics included) but
    keeps its own ledger, so per-core accounting and the aggregate
    ledger are separate objects related by a conservation identity. On
    top of pass-through, each consumed chunk is replayed against the
    core's solo ``shadow`` model to classify shared-level misses as
    *self* vs *contention* (see :mod:`repro.cache.contention`).

    The attribute is named ``shared_level`` (not ``inner``/``levels``)
    deliberately: the runtime sanitizer duck-types components by those
    attribute names, and the port has its own chain identities.
    """

    def __init__(
        self, shared_level: SharedCacheLevel, core_id: int, shadow: CacheComponent
    ) -> None:
        super().__init__(shared_level.leaf.config)
        self.shared_level = shared_level
        self.core_id = core_id
        self.shadow = shadow
        from repro.cache.contention import ContentionLedger

        self.contention = ContentionLedger()
        self._staged_misses = 0
        self._staged_writebacks = 0
        self._staged_prefetches = 0
        self._staged_shadow_consumed = 0
        self._staged_self = 0
        self._staged_contention = 0
        self._staged_rescued = 0
        #: (self_addrs, contention_addrs) per classified chunk, drained
        #: by the multi-core session after each step for per-object
        #: attribution against the core's live object map.
        self._pending_classified: list[tuple[np.ndarray, np.ndarray]] = []

    # ------------------------------------------------------------ scalar

    def begin_stage(self) -> None:
        self._staged_misses = 0
        self._staged_writebacks = 0
        self._staged_prefetches = 0
        self._staged_shadow_consumed = 0
        self._staged_self = 0
        self._staged_contention = 0
        self._staged_rescued = 0
        self.shared_level.leaf.begin_stage()
        self.shadow.begin_stage()

    def access_line(self, line: int, write: bool = False) -> LineOutcome:
        raise CacheConfigError(
            "mechanism decorators cannot wrap a shared level: the scalar "
            "per-line path would interleave staged victim state across "
            "cores; run mechanism sweeps single-core"
        )

    def commit_stage(self, tag: str, accesses: int) -> None:
        self.stats.record(
            tag,
            accesses,
            self._staged_misses,
            writebacks=self._staged_writebacks,
            prefetches=self._staged_prefetches,
        )
        self.contention.record(
            tag, self._staged_self, self._staged_contention, self._staged_rescued
        )
        # The shadow saw only the consumed post-filter prefix, so its
        # ledger is committed with that count — internally consistent,
        # but not part of the port/aggregate conservation identity.
        self.shadow.commit_stage(tag, self._staged_shadow_consumed)
        self.shared_level.leaf.commit_stage(tag, accesses)
        self._staged_misses = 0
        self._staged_writebacks = 0
        self._staged_prefetches = 0
        self._staged_shadow_consumed = 0
        self._staged_self = 0
        self._staged_contention = 0
        self._staged_rescued = 0
        if sanitize.is_active():
            sanitize.check_component(self, "shared_port")

    # ----------------------------------------------------------- chunked

    def _chunk_access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
    ) -> KernelResult:
        res = self.shared_level.leaf._chunk_access(
            addrs, miss_budget=miss_budget, writes=writes
        )
        self._staged_misses += res.misses
        self._staged_writebacks += res.writebacks
        self._staged_prefetches += res.prefetches
        prefix = np.asarray(addrs[: res.consumed], dtype=np.uint64)
        shadow_res = self.shadow._chunk_access(prefix)
        self._staged_shadow_consumed += res.consumed
        shared_miss = res.miss_mask
        shadow_miss = shadow_res.miss_mask
        self_mask = shared_miss & shadow_miss
        contention_mask = shared_miss & ~shadow_miss
        self._staged_self += int(self_mask.sum())
        self._staged_contention += int(contention_mask.sum())
        self._staged_rescued += int((~shared_miss & shadow_miss).sum())
        if self_mask.any() or contention_mask.any():
            self._pending_classified.append(
                (prefix[self_mask], prefix[contention_mask])
            )
        return res

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        tag: str = "app",
        writes: np.ndarray | None = None,
    ) -> AccessResult:
        n = len(addrs)
        if n == 0:
            return AccessResult(np.zeros(0, dtype=bool), 0)
        self.begin_stage()
        res = self._chunk_access(addrs, miss_budget=miss_budget, writes=writes)
        self.commit_stage(tag, res.consumed)
        return AccessResult(res.miss_mask, res.consumed)

    def drain_classified(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Classified (self, contention) address arrays since last drain."""
        pending = self._pending_classified
        self._pending_classified = []
        return pending

    # ------------------------------------------------------------- state

    def state_snapshot(self) -> object:
        return (
            self.shared_level.leaf.state_snapshot(),
            self.shadow.state_snapshot(),
        )

    def state_restore(self, state: object) -> None:
        leaf_state, shadow_state = state  # type: ignore[misc]
        self.shared_level.leaf.state_restore(leaf_state)
        self.shadow.state_restore(shadow_state)

    # -------------------------------------------------------- diagnostics

    def reset(self) -> None:
        self.shared_level.leaf.reset()
        self.shadow.reset()

    def contents_line_count(self) -> int:
        return self.shared_level.leaf.contents_line_count()

    def contains_addr(self, addr: int) -> bool:
        contains = getattr(self.shared_level.leaf, "contains_addr", None)
        return bool(contains(addr)) if contains is not None else False

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return f"port[c{self.core_id}] of shared {self.config.describe()}"


def wrap_mechanisms(
    component: CacheComponent,
    mechanisms: "tuple[MechanismSpec, ...] | str | None",
) -> CacheComponent:
    """Wrap ``component`` with each mechanism in order (outermost last).

    The listed order is wrap order: ``("vc", "sb")`` builds
    ``StreamBuffers(VictimCache(component))`` so the stream buffers probe
    first on the miss path, matching the VC+SB / MC+SB combinations of
    the referenced sweep design.
    """
    for spec in parse_mechanisms(mechanisms):
        if spec.kind == "vc":
            component = VictimCache(component, entries=spec.entries)
        elif spec.kind == "mc":
            component = MissCache(component, entries=spec.entries)
        else:
            component = StreamBuffers(
                component, entries=spec.entries, depth=spec.depth
            )
    return component


def decorated_config(config: CacheConfig) -> bool:
    """Whether ``config`` requests a mechanism decorator stack."""
    return bool(config.mechanisms)
