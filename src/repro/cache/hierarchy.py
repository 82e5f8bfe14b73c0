"""Two-level cache hierarchy (extension beyond the paper's single level).

The paper simulates "a single-level set associative cache"; a downstream
user of the techniques on real hardware would monitor the *last-level*
cache, in front of which a small L1 filters most traffic. This model is
the two-level specialisation of the generic component
:class:`~repro.cache.components.Pipeline` (non-inclusive, fill-on-miss
to both levels) and keeps the pre-refactor contract bit-for-bit:

* ``access`` returns the **L2 (memory) miss mask** — that is what the
  simulated miss counters count, matching what an off-core HPM would see;
* ``miss_budget`` is a budget of L2 misses, honoured exactly: the L1
  state is snapshotted before a budgeted chunk and, when the budget-th
  L2 miss falls mid-chunk, rolled back and re-applied over the consumed
  prefix only (L1 evolution is independent of L2, so this is
  bit-identical to walking both levels per reference);
* ``stats`` tracks L2 activity, and :attr:`l1_stats` the filtered level.
  Both levels record every consumed reference under the same tag, so per
  tag the two levels' access totals must agree — an invariant the tests
  check via :meth:`CacheStats.snapshot`/:meth:`CacheStats.merge`.

Each level runs on the default kernel (see :mod:`repro.cache.kernels`).
Write masks are ignored by this model (no dirty-line tracking across
levels).

The hierarchy bench shows the profiling techniques still rank the same
objects when an L1 filter removes most hits from the monitored stream.
"""

from __future__ import annotations

from repro.cache.base import CacheStats
from repro.cache.components import Pipeline, SharedCacheLevel
from repro.cache.config import CacheConfig
from repro.cache.set_assoc import SetAssociativeCache


def make_private_l1(
    l1: CacheConfig, seed: int | None = None, core_id: int = 0
) -> SetAssociativeCache:
    """Build one core's private L1 exactly as :class:`TwoLevelCache` does.

    Shared between the single-core hierarchy and the multi-core core
    pipelines so the two constructions stay bit-identical: core 0's L1
    draws the same RANDOM-eviction stream as a ``TwoLevelCache`` L1
    (``seed + 1``); later cores shift by their core id.
    """
    return SetAssociativeCache(
        l1, seed=None if seed is None else seed + 1 + core_id
    )


def make_shared_level(llc: CacheConfig, seed: int | None = None) -> SharedCacheLevel:
    """Build the shared LLC leaf with :class:`TwoLevelCache`'s L2 seeding."""
    return SharedCacheLevel(SetAssociativeCache(llc, seed=seed))


def core_pipeline(
    shared: SharedCacheLevel,
    core_id: int,
    l1: CacheConfig | None = None,
    seed: int | None = None,
) -> Pipeline:
    """One core's hierarchy over a shared level: ``[private L1?, port]``.

    The port's solo *shadow* model reuses the leaf's geometry and seed,
    so with one core it evolves bit-identically to the shared leaf and
    every miss classifies as *self*.
    """
    shadow = SetAssociativeCache(shared.config, seed=seed)
    port = shared.port(core_id, shadow)
    levels = [port] if l1 is None else [
        make_private_l1(l1, seed=seed, core_id=core_id),
        port,
    ]
    return Pipeline(levels)


class TwoLevelCache(Pipeline):
    """Non-inclusive L1 + L2 hierarchy over pluggable kernels."""

    def __init__(
        self,
        l1: CacheConfig,
        l2: CacheConfig,
        seed: int | None = None,
    ) -> None:
        # Distinct seeds keep the levels' RANDOM-eviction streams
        # independent while staying deterministic.
        level1 = make_private_l1(l1, seed=seed)
        level2 = SetAssociativeCache(l2, seed=seed)
        super().__init__([level1, level2])
        self.l1_config = l1
        self.l2_config = l2

    @property
    def l1_stats(self) -> CacheStats:
        """The filtered (L1) level's live ledger."""
        return self.levels[0].stats

    @property
    def _l1(self):
        """The L1 kernel (tests and diagnostics)."""
        return self.levels[0]._kernel

    @property
    def _l2(self):
        """The L2 kernel (tests and diagnostics)."""
        return self.levels[1]._kernel

    def l1_contents_line_count(self) -> int:
        return self.levels[0].contents_line_count()

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"L1 {self.l1_config.describe()} + L2 {self.l2_config.describe()}"
        )
