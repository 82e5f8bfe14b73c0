"""Pickle-roundtrip canary on session snapshots.

A checkpoint is only as good as what ``pickle`` preserves: an object
whose ``__reduce__`` silently drops state produces a snapshot that
*loads* fine and then resumes a subtly different run. Before a snapshot
is trusted (returned to the caller / written to disk), the canary
roundtrips it once more and compares what must survive:

* the snapshot's version and run label;
* for every per-core record: the scalar resume cursor (core id, address
  offset, workload name, block cursor, cycle carry, refs budget, chunk
  size, interleaver weight, unattributed counts), the run statistics
  scalars, and the cache — ledger equality (``CacheStats`` compares
  field-wise) and state cardinalities (resident and dirty line counts).

The comparisons are duck-typed — this module must not import
:mod:`repro.sim` (the session calls *us* from its snapshot path).
"""

from __future__ import annotations

import pickle

from repro.sanitize import SanitizerError, count_check

__all__ = ["snapshot_canary"]

#: CoreState fields whose values are plain scalars (== is exact).
_CORE_SCALARS = (
    "core_id",
    "address_offset",
    "workload_name",
    "blocks_fetched",
    "block_pos",
    "cycle_carry",
    "refs_left",
    "chunk_size",
    "ratio",
    "unattributed_self",
    "unattributed_contention",
)

_STATS_SCALARS = (
    "app_refs",
    "app_misses",
    "instr_refs",
    "instr_misses",
    "app_cycles",
    "instr_cycles",
)


def _cache_fingerprint(cache: object) -> tuple[object, ...]:
    return (
        cache.stats,
        cache.contents_line_count(),
        getattr(cache, "dirty_line_count", lambda: None)(),
    )


def _compare(label: str, before: object, after: object) -> None:
    if before != after:
        raise SanitizerError(
            f"snapshot {label} changed across a pickle roundtrip: "
            f"{before!r} -> {after!r}"
        )


def snapshot_canary(snapshot: object) -> None:
    """Roundtrip ``snapshot`` through pickle and verify it survived."""
    count_check("snapshot.canary")
    try:
        clone = pickle.loads(
            pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        )
    except Exception as exc:
        raise SanitizerError(
            f"snapshot does not survive a pickle roundtrip: {exc!r}"
        ) from exc
    for name in ("version", "workload_name"):
        _compare(f"field {name!r}", getattr(snapshot, name), getattr(clone, name))
    _compare("core count", len(snapshot.cores), len(clone.cores))
    for core, core_clone in zip(snapshot.cores, clone.cores):
        label = f"core {core.core_id}:"
        for name in _CORE_SCALARS:
            _compare(
                f"{label} {name}", getattr(core, name), getattr(core_clone, name)
            )
        for name in _STATS_SCALARS:
            _compare(
                f"{label} stats.{name}",
                getattr(core.stats, name, None),
                getattr(core_clone.stats, name, None),
            )
        _compare(
            f"{label} cache state",
            _cache_fingerprint(core.cache),
            _cache_fingerprint(core_clone.cache),
        )
