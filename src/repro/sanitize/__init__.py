"""Runtime sanitizer: the dynamic twin of reprolint's invariants.

reprolint proves invariants *statically* where it can; this package
checks the same invariants *dynamically* where it can't. Set
``REPRO_SANITIZE=1`` and the simulation stack verifies, as it runs:

* **Ledger conservation** (:mod:`repro.sanitize.ledger`) — after every
  ``commit_stage``, each :class:`~repro.cache.base.CacheStats` in the
  component stack satisfies the RPL401 ledger model (totals equal the
  per-tag sums, misses bounded by accesses) and the decorator/pipeline
  *chain identities* hold (a mechanism's probes equal its inner
  component's misses, rescued misses balance, pipeline levels agree on
  access totals).
* **RNG draw accounting** (:mod:`repro.sanitize.rng`) — after a session
  restore, every kernel's RNG must be exactly the state reached by
  replaying ``_rand_draws`` pool draws from its seed; a restore that
  silently rewound or double-applied the eviction stream fails
  immediately instead of diverging bits thousands of chunks later.
* **Snapshot canary** (:mod:`repro.sanitize.snapshot`) — every
  :class:`~repro.sim.session.SessionSnapshot` is pickle-roundtripped
  and field-compared, core by core, before a checkpoint is trusted.

The gate is one module-level flag read from the environment at import
time (this package is deliberately *outside* the RPL703 result scope:
the sanitizer changes failure behaviour, never results). Overhead when
inactive is a single attribute test per commit; when active, checks are
per-chunk — never per-reference — keeping the slowdown within the 2×
budget CI enforces on the quick Table 1 cell.
"""

from __future__ import annotations

import os
from collections import Counter

__all__ = [
    "SanitizerError",
    "is_active",
    "activate",
    "deactivate",
    "checks_run",
    "reset_checks",
    "count_check",
    "check_component",
    "verify_kernel_rng",
    "verify_cache_rng",
    "snapshot_canary",
]


class SanitizerError(AssertionError):
    """An invariant the sanitizer watches was violated at runtime.

    Subclasses :class:`AssertionError`: a sanitizer failure means the
    simulation's internal bookkeeping is inconsistent — results built on
    it are not trustworthy and the run must die loudly.
    """


_ACTIVE = os.environ.get("REPRO_SANITIZE", "") == "1"

#: How many times each named check ran (for tests and overhead reports).
_CHECKS: Counter[str] = Counter()


def is_active() -> bool:
    """Whether sanitizer checks are enabled for this process."""
    return _ACTIVE


def activate() -> None:
    """Enable checks (tests; production uses ``REPRO_SANITIZE=1``)."""
    global _ACTIVE
    _ACTIVE = True


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = False


def count_check(name: str) -> None:
    """Record that the named check ran once."""
    _CHECKS[name] += 1


def checks_run() -> dict[str, int]:
    """Check name -> times run since the last reset."""
    return dict(_CHECKS)


def reset_checks() -> None:
    _CHECKS.clear()


from repro.sanitize.ledger import check_component  # noqa: E402
from repro.sanitize.rng import verify_cache_rng, verify_kernel_rng  # noqa: E402
from repro.sanitize.snapshot import snapshot_canary  # noqa: E402
