"""Processor-cache simulation substrate.

The paper's evaluation runs applications under a software cache simulator:
"The cache simulated is a single-level set associative cache (2MB in size
for these experiments)". This package provides that simulator in two
flavours — an exact set-associative model with pluggable replacement
(:class:`SetAssociativeCache`) and a fully vectorised direct-mapped model
(:class:`DirectMappedCache`) for large sweeps — plus the ground-truth
per-object miss attribution that produces the paper's "Actual" columns.
"""

from repro.cache.config import CacheConfig, MechanismSpec, parse_mechanisms
from repro.cache.base import AccessResult, CacheModel, CacheStats
from repro.cache.policies import ReplacementPolicy
from repro.cache.components import (
    CacheComponent,
    LineOutcome,
    MissCache,
    Pipeline,
    StreamBuffers,
    VictimCache,
    wrap_mechanisms,
)
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import TwoLevelCache
from repro.cache.attribution import GroundTruth, MissSeries
from repro.errors import CacheConfigError

__all__ = [
    "CacheConfig",
    "CacheModel",
    "CacheStats",
    "CacheComponent",
    "AccessResult",
    "LineOutcome",
    "MechanismSpec",
    "ReplacementPolicy",
    "SetAssociativeCache",
    "DirectMappedCache",
    "TwoLevelCache",
    "Pipeline",
    "VictimCache",
    "MissCache",
    "StreamBuffers",
    "GroundTruth",
    "MissSeries",
    "parse_mechanisms",
    "wrap_mechanisms",
]


def make_cache(
    config: CacheConfig,
    seed: int | None = None,
    l1_config: CacheConfig | None = None,
    prefetch_next_line: bool = False,
) -> CacheModel:
    """Build the right cache model for ``config``.

    Direct-mapped geometries get the vectorised model automatically unless
    a prefetcher is requested (prefetch needs the sequential model).
    ``l1_config`` puts a filtering L1 in front, returning a
    :class:`TwoLevelCache` whose miss stream (what the counters see) is
    the L2's. Which bit-identical kernel runs the access loop is not a
    choice here: see :mod:`repro.cache.kernels`.

    ``config.mechanisms`` wraps the built stack (outermost component
    last-listed) in the requested miss-reduction decorators — see
    :mod:`repro.cache.components`. Decorators drive the per-line victim
    protocol, which only the reference kernel's state exposes, so
    wrapping moves the stack onto that kernel before its first access.
    An empty ``mechanisms`` tuple builds exactly the undecorated model.
    """
    if prefetch_next_line and config.mechanisms:
        stack = "+".join(m.describe() for m in config.mechanisms)
        raise CacheConfigError(
            "prefetch_next_line cannot combine with the mechanism "
            f"stack {stack}: both own the miss path. Drop the "
            "prefetcher, or put an sb (stream buffers) entry in the "
            "stack — `repro mechanisms` sweeps those exactly"
        )
    if prefetch_next_line and l1_config is not None:
        raise CacheConfigError(
            "prefetch_next_line is not supported on the two-level model"
        )
    if l1_config is not None:
        base: CacheModel = TwoLevelCache(l1_config, config, seed=seed)
    elif config.assoc == 1 and not prefetch_next_line and not config.mechanisms:
        # Already fully vectorised and exact; its miss classification
        # (and its indifference to write masks) is the same whichever
        # kernel a set-associative model would have run.
        return DirectMappedCache(config)
    else:
        base = SetAssociativeCache(
            config, seed=seed, prefetch_next_line=prefetch_next_line
        )
    if config.mechanisms:
        return wrap_mechanisms(base, config.mechanisms)
    return base
