"""Tests for reuse-distance analysis and miss-ratio curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reuse import (
    COLD,
    ReuseProfile,
    miss_ratio_curve,
    reuse_distances,
)
from tests.mrc.fenwick import FenwickTree


def addrs_of_lines(line_numbers, line_size=64):
    return np.asarray(line_numbers, dtype=np.uint64) * np.uint64(line_size)


def naive_distances(lines):
    """Brute-force reference implementation."""
    out = []
    history: list[int] = []
    for line in lines:
        if line in history:
            pos = len(history) - 1 - history[::-1].index(line)
            out.append(len(set(history[pos + 1 :])))
            history.append(line)
        else:
            out.append(COLD)
            history.append(line)
    return out


class TestFenwick:
    """The tree the Olken stack-distance oracle builds on (tests/mrc)."""

    def test_prefix_sums(self):
        f = FenwickTree(10)
        f.add(3, 5)
        f.add(7, 2)
        assert f.prefix_sum(2) == 0
        assert f.prefix_sum(3) == 5
        assert f.prefix_sum(9) == 7
        assert f.range_sum(4, 9) == 2
        assert f.range_sum(5, 4) == 0
        assert f.total() == 7

    def test_negative_updates(self):
        f = FenwickTree(5)
        f.add(2, 3)
        f.add(2, -3)
        assert f.prefix_sum(4) == 0

    def test_bounds(self):
        with pytest.raises(IndexError):
            FenwickTree(4).add(4, 1)
        with pytest.raises(ValueError):
            FenwickTree(-1)


class TestReuseDistances:
    def test_cold_misses(self):
        d = reuse_distances(addrs_of_lines([0, 1, 2]))
        assert d.tolist() == [COLD, COLD, COLD]

    def test_immediate_reuse(self):
        d = reuse_distances(addrs_of_lines([5, 5, 5]))
        assert d.tolist() == [COLD, 0, 0]

    def test_classic_sequence(self):
        # a b c b a: b reused over {c}=1 distinct, a over {b,c}=2.
        d = reuse_distances(addrs_of_lines([10, 11, 12, 11, 10]))
        assert d.tolist() == [COLD, COLD, COLD, 1, 2]

    def test_same_line_different_offsets(self):
        d = reuse_distances(np.array([0, 8, 63], dtype=np.uint64))
        assert d.tolist() == [COLD, 0, 0]

    def test_duplicate_intervening_counts_once(self):
        # a b b a: only one distinct line between the a's.
        d = reuse_distances(addrs_of_lines([1, 2, 2, 1]))
        assert d[3] == 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=120))
    def test_matches_naive(self, lines):
        fast = reuse_distances(addrs_of_lines(lines)).tolist()
        assert fast == naive_distances(lines)


class TestReuseProfile:
    def test_histogram_and_cold(self):
        prof = ReuseProfile(reuse_distances(addrs_of_lines([0, 1, 0, 1, 0])))
        assert prof.cold_misses == 2
        assert prof.histogram[1] == 3  # three reuses at distance 1

    def test_miss_ratio_at(self):
        # Cyclic sweep of 4 lines: distance 3 for every reuse.
        stream = addrs_of_lines([0, 1, 2, 3] * 10)
        prof = ReuseProfile(reuse_distances(stream))
        # Cache of 4+ lines: only the 4 cold misses miss.
        assert prof.miss_ratio_at(4) == pytest.approx(4 / 40)
        # Cache of 3 lines: everything misses (LRU cyclic thrash).
        assert prof.miss_ratio_at(3) == 1.0

    def test_mean_distance(self):
        prof = ReuseProfile(reuse_distances(addrs_of_lines([0, 1, 0])))
        assert prof.mean_distance() == 1.0

    def test_empty(self):
        prof = ReuseProfile(reuse_distances(np.array([], dtype=np.uint64)))
        assert prof.miss_ratio_at(10) == 0.0
        assert prof.mean_distance() == 0.0


class TestMissRatioCurve:
    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(0)
        stream = addrs_of_lines(rng.integers(0, 600, 4000))
        sizes = [4 * 1024, 16 * 1024, 64 * 1024]
        curve = miss_ratio_curve(stream, sizes)
        ratios = [curve[s] for s in sizes]
        assert ratios == sorted(ratios, reverse=True)

    def test_predicts_fully_assoc_lru(self):
        """The curve must equal a simulated fully-associative LRU cache."""
        from repro.cache.config import CacheConfig
        from repro.cache.set_assoc import SetAssociativeCache

        rng = np.random.default_rng(1)
        stream = addrs_of_lines(rng.integers(0, 96, 3000))
        size = 4 * 1024  # 64 lines, fully associative below
        cfg = CacheConfig(size=size, line_size=64, assoc=64)
        cache = SetAssociativeCache(cfg)
        simulated = cache.access(stream).n_misses / len(stream)
        predicted = miss_ratio_curve(stream, [size])[size]
        assert predicted == pytest.approx(simulated, abs=1e-9)

    def test_huge_cache_leaves_cold_only(self):
        stream = addrs_of_lines([0, 1, 2, 0, 1, 2])
        curve = miss_ratio_curve(stream, [1 << 20])
        assert curve[1 << 20] == pytest.approx(0.5)
