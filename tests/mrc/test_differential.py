"""Differential accuracy harness: MRC predictions vs the exact simulator.

Every registry workload is scored two ways:

* **bit-for-bit** — the exact Mattson pass must reproduce the
  fully-associative LRU simulator's miss *counts* exactly at six cache
  sizes (the repo's unique asset: the simulator is ground truth, so the
  MRC engine ships pinned to it, not to itself);
* **budgeted** — the SHARDS-sampled pass must stay within a per-workload
  absolute miss-ratio budget of the exact pass across eight sizes.
  Budgets are calibrated at ~2x the worst error observed at stream
  fractions 0.1 and 1.0 (see DESIGN.md section 10); a regression that
  blows one fails this suite.

``REPRO_MRC_SAMPLE_RATE`` scales how much of each stream both the MRC
pass and the simulator consume — the same truncation on both sides, so
the bit-for-bit property holds at any setting. Streams are compiled once
per workload and shared across cases.
"""

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.cache.mrc import build_mrc
from repro.hpm.interrupts import CostModel
from repro.sim.engine import Simulator
from repro.workloads.compile import compiled_stream_for
from repro.workloads.registry import make_workload, workload_names

from tests.conftest import ENV_BACKEND, pinned_kernel

pytestmark = pytest.mark.mrc

SEED = 99

#: Quick-mode workload kwargs (mirrors the runner's quick grid).
QUICK_KWARGS = {
    "tomcatv": {"n_steps": 4, "rows_per_step": 16},
    "swim": {"n_steps": 4, "lines_per_array_per_step": 1600},
    "su2cor": {"total_lines": 160_000, "slices_per_era": 24},
    "mgrid": {"n_vcycles": 4, "fine_lines": 9_000},
    "applu": {"n_iterations": 7, "jacobian_lines": 4_500},
    "compress": {"input_lines": 30_000},
    "ijpeg": {"image_lines": 20_000},
}

#: Fully-associative sizes for the bit-for-bit comparison (>= 6).
EXACT_SIZES = [4096, 8192, 16384, 32768, 65536, 131072]

#: Sizes the SHARDS budget is scored over.
SHARDS_SIZES = EXACT_SIZES + [262144, 1 << 20]

#: Per-workload |miss-ratio| budgets for SHARDS at rate 0.1, seed 99.
SHARDS_BUDGETS = {
    "tomcatv": 0.035,
    "swim": 0.055,
    "su2cor": 0.030,
    "mgrid": 0.005,
    "applu": 0.025,
    "compress": 0.010,
    "ijpeg": 0.030,
}

#: Stream-length cap before the env fraction applies, keeping the
#: heaviest case (fully-assoc simulation at 128 KiB) bounded.
MAX_BASE_REFS = 600_000


def _quick(app):
    return make_workload(app, seed=SEED, **QUICK_KWARGS[app])


@pytest.fixture(scope="module")
def streams():
    """Compiled stream per registry workload (compiled once, shared)."""
    return {app: compiled_stream_for(_quick(app), None) for app in workload_names()}


def _n_refs(compiled, fraction):
    return max(20_000, int(min(compiled.n_refs, MAX_BASE_REFS) * fraction))


def test_registry_is_fully_covered():
    assert set(workload_names()) == set(QUICK_KWARGS) == set(SHARDS_BUDGETS)


@pytest.mark.parametrize("app", sorted(QUICK_KWARGS))
def test_exact_pass_bit_for_bit_vs_simulator(app, streams, mrc_sample_fraction):
    compiled = streams[app]
    n = _n_refs(compiled, mrc_sample_fraction)
    result = build_mrc(_quick(app), compiled=compiled, mode="exact", max_refs=n)
    for size in EXACT_SIZES:
        cfg = CacheConfig(
            size=size,
            line_size=64,
            assoc=size // 64,  # one set: fully associative LRU
        )
        sim = Simulator(cache_config=cfg, cost_model=CostModel(), seed=SEED)
        with pinned_kernel(ENV_BACKEND or "array"):
            run = sim.run(_quick(app), max_refs=n, ground_truth=False)
        assert run.stats.app_refs == result.n_refs
        assert int(round(result.misses(size))) == run.stats.app_misses, (
            f"{app} @ {size}: exact Mattson pass diverged from the "
            "fully-associative LRU simulator"
        )


@pytest.mark.parametrize("app", sorted(QUICK_KWARGS))
def test_shards_within_per_workload_budget(app, streams, mrc_sample_fraction):
    compiled = streams[app]
    n = _n_refs(compiled, mrc_sample_fraction)
    exact = build_mrc(_quick(app), compiled=compiled, mode="exact", max_refs=n)
    shards = build_mrc(
        _quick(app), compiled=compiled, mode="shards",
        sample_rate=0.1, seed=SEED, max_refs=n,
    )
    budget = SHARDS_BUDGETS[app]
    for size in SHARDS_SIZES:
        err = abs(shards.miss_ratio(size) - exact.miss_ratio(size))
        assert err <= budget, (
            f"{app} @ {size}: SHARDS error {err:.4f} exceeds the "
            f"{budget:.3f} budget"
        )


@pytest.mark.parametrize("app", ["mgrid", "ijpeg"])
def test_per_object_shares_track_ground_truth(app, streams, mrc_sample_fraction):
    """Exact per-object miss decomposition vs GroundTruth attribution."""
    compiled = streams[app]
    n = _n_refs(compiled, mrc_sample_fraction)
    size = 65536
    result = build_mrc(_quick(app), compiled=compiled, mode="exact", max_refs=n)
    cfg = CacheConfig(size=size, line_size=64, assoc=size // 64)
    sim = Simulator(cache_config=cfg, cost_model=CostModel(), seed=SEED)
    with pinned_kernel("array"):
        run = sim.run(_quick(app), max_refs=n, ground_truth=True)
    truth = {o.name: c for o, c in run.ground_truth.ranked()}
    predicted = {
        name: int(round(result.misses(size, name=name)))
        for name in result.object_names()
    }
    # Totals are bit-for-bit; per-object counts match exactly too (same
    # static object map, same miss set), modulo refs neither attributes.
    assert int(round(result.misses(size))) == run.stats.app_misses
    for name, count in truth.items():
        assert predicted.get(name, 0) == count, (
            f"{app}: object {name!r} predicted {predicted.get(name, 0)} "
            f"misses, ground truth saw {count}"
        )
