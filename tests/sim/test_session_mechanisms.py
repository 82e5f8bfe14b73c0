"""Session-layer contracts for mechanism-decorated cache stacks.

Snapshot/resume must round-trip a *mid-run* decorated stack
bit-identically (since v2 the payload pickles the component stack
whole; v3 added kernel RNG draw counts), and ``finalize`` must surface
the frozen per-component ledgers on the RunResult.
"""

import pickle

import pytest

from repro.cache import CacheConfig
from repro.core.sampling import SamplingProfiler
from repro.sim.engine import Simulator
from repro.sim.session import SNAPSHOT_VERSION, SimulationSession
from repro.workloads.synthetic import SyntheticStreams

pytestmark = pytest.mark.mechanisms

CFG = CacheConfig(size=64 * 1024, assoc=2, mechanisms="vc+sb")


def make_workload(seed=3):
    return SyntheticStreams(
        {"A": (256 * 1024, 60), "B": (256 * 1024, 40)},
        rounds=4,
        lines_per_round=4000,
        seed=seed,
    )


def fingerprint(result):
    stats = result.cache_stats
    return (
        result.stats.app_refs,
        result.stats.app_misses,
        result.stats.app_cycles,
        result.stats.instr_refs,
        (stats.accesses, stats.misses, tuple(sorted(stats.mechanism.items()))),
        [
            (name, s.accesses, s.misses, tuple(sorted(s.mechanism.items())))
            for name, s in result.component_stats
        ],
        None
        if result.measured is None
        else [(s.name, s.count) for s in result.measured.shares],
    )


def test_snapshot_version_bumped_for_draw_accounting():
    # v3 added RNG draw accounting; v4 added the multi-core `cores` entry;
    # v5 made every snapshot a list of per-core records.
    assert SNAPSHOT_VERSION == 5


def test_decorated_restore_bit_identical():
    sim = Simulator(CFG, seed=5)
    base = sim.run(make_workload(), tool=SamplingProfiler(period=701))

    session = sim.start_session(
        make_workload(), tool=SamplingProfiler(period=701)
    )
    for _ in range(3):
        session.step()
    snapshot = pickle.loads(pickle.dumps(session.snapshot()))
    restored = SimulationSession.restore(snapshot, make_workload())
    while restored.step():
        pass
    assert fingerprint(restored.finalize()) == fingerprint(base)


def test_component_stats_on_result():
    result = Simulator(CFG, seed=5).run(make_workload())
    labels = [name for name, _ in result.component_stats]
    assert labels == ["sb", "vc", "cache"]
    outer = result.component_stats[0][1]
    assert result.cache_stats.misses == outer.misses
    assert "sb_prefetches" in result.cache_stats.mechanism
    # Frozen at stream end: later cache activity must not alias in.
    assert result.cache_stats.accesses == result.stats.app_refs + (
        result.stats.instr_refs
    )


def test_undecorated_component_stats_single_ledger():
    result = Simulator(CacheConfig(size=64 * 1024, assoc=2), seed=5).run(
        make_workload()
    )
    assert [name for name, _ in result.component_stats] == ["cache"]
    assert result.cache_stats.mechanism == {}
