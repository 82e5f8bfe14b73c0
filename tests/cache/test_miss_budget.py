"""A miss budget is ``None`` or at least 1, in every cache model.

A budget of 0 or below cannot stop a chunk after its budget-th miss, and
each model used to read it its own way (no budget, one reference, the
last L1 miss, or an ``IndexError``). Every model's ``access`` now rejects
it through one shared check whose ``SimulationError`` names the value,
before any reference is applied.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache import (
    CacheConfig,
    DirectMappedCache,
    SetAssociativeCache,
    TwoLevelCache,
    make_cache,
)
from repro.cache.hierarchy import core_pipeline, make_shared_level
from repro.errors import SimulationError

L1 = CacheConfig(size=1024, line_size=64, assoc=2)
L2 = CacheConfig(size=4096, line_size=64, assoc=2)


def two_level_pipeline():
    return core_pipeline(make_shared_level(L2, seed=1), 0, l1=L1, seed=1)


MODELS = {
    "set_assoc": lambda: SetAssociativeCache(L2, seed=1),
    "direct_mapped": lambda: DirectMappedCache(
        dataclasses.replace(L2, assoc=1)
    ),
    "two_level": lambda: TwoLevelCache(L1, L2, seed=1),
    "decorated": lambda: make_cache(
        dataclasses.replace(L2, mechanisms="vc+sb"), seed=1
    ),
    "shared_port": two_level_pipeline,
}

#: Eight lines that fit every model's smallest level, so a second pass
#: hits everywhere (the case that used to raise ``IndexError``).
STREAM = np.arange(8, dtype=np.uint64) * np.uint64(64)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("budget", [0, -1])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_non_positive_budget_is_rejected(model, budget, warm):
    cache = MODELS[model]()
    if warm:
        cache.access(STREAM)
    before = cache.stats.snapshot()
    with pytest.raises(SimulationError, match=rf"miss_budget.*got {budget}\b"):
        cache.access(STREAM, miss_budget=budget)
    assert cache.stats.__dict__ == before.__dict__


@pytest.mark.parametrize("model", sorted(MODELS))
def test_budget_of_one_stops_at_the_first_miss(model):
    res = MODELS[model]().access(STREAM, miss_budget=1)
    assert res.consumed == 1
    assert res.miss_mask.tolist() == [True]
