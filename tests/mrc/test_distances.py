"""Stack-distance pass: the shipped pass and both test oracles against a
brute-force LRU stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.mrc import (
    COLD,
    MrcError,
    lines_of,
    previous_occurrence,
    reuse_distances,
    self_rank_leq,
)
from tests.mrc.oracles import PASSES, prefix_rank_leq

streams = st.lists(st.integers(0, 14), min_size=0, max_size=150)


def naive_distances(lines):
    """LRU stack simulation, the semantic definition of stack distance."""
    out, stack = [], []
    for line in lines:
        if line in stack:
            depth = stack.index(line)
            out.append(depth)
            stack.pop(depth)
        else:
            out.append(COLD)
        stack.insert(0, line)
    return out


class TestReuseDistances:
    def test_known_sequence(self):
        # a b c b a: b reused over {c}, a over {b, c}.
        d = reuse_distances(np.array([10, 11, 12, 11, 10]))
        assert d.tolist() == [COLD, COLD, COLD, 1, 2]

    def test_empty(self):
        for backend in PASSES:
            assert len(PASSES[backend](np.array([], dtype=np.int64))) == 0

    @pytest.mark.parametrize("backend", PASSES)
    @settings(max_examples=60, deadline=None)
    @given(streams)
    def test_every_backend_matches_stack_oracle(self, backend, lines):
        got = PASSES[backend](np.asarray(lines, dtype=np.int64))
        assert got.tolist() == naive_distances(lines)

    @settings(max_examples=60, deadline=None)
    @given(streams)
    def test_backends_bit_identical(self, lines):
        codes = np.asarray(lines, dtype=np.int64)
        results = [PASSES[backend](codes).tolist() for backend in PASSES]
        assert all(r == results[0] for r in results[1:])

    def test_backends_bit_identical_large_random(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 5000, 60_000)
        baseline = reuse_distances(codes)
        for backend in ("fenwick", "offline"):
            assert np.array_equal(baseline, PASSES[backend](codes))

    def test_rejects_2d(self):
        with pytest.raises(MrcError, match="1-D"):
            reuse_distances(np.zeros((2, 2), dtype=np.int64))


class TestLinesOf:
    def test_lowers_to_line_numbers(self):
        addrs = np.array([0, 63, 64, 129], dtype=np.uint64)
        assert lines_of(addrs, 64).tolist() == [0, 0, 1, 2]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(MrcError, match="power of two"):
            lines_of(np.array([0], dtype=np.uint64), 48)


class TestPreviousOccurrence:
    @settings(max_examples=50, deadline=None)
    @given(streams)
    def test_matches_naive(self, lines):
        expected = []
        last: dict[int, int] = {}
        for t, line in enumerate(lines):
            expected.append(last.get(line, -1))
            last[line] = t
        got = previous_occurrence(np.asarray(lines, dtype=np.int64))
        assert got.tolist() == expected


class TestSelfRankLeq:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-1, 25), min_size=0, max_size=120))
    def test_matches_brute_force(self, values):
        got = self_rank_leq(np.asarray(values, dtype=np.int64))
        brute = [
            sum(1 for u in values[:t] if u <= v)
            for t, v in enumerate(values)
        ]
        assert got.tolist() == brute

    def test_large_random_spot_checks(self):
        rng = np.random.default_rng(9)
        v = rng.integers(-1, 3000, 50_000)
        got = self_rank_leq(v)
        for t in rng.integers(0, len(v), 200):
            assert got[t] == int(np.sum(v[:t] <= v[t]))


class TestPrefixRankLeq:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=80),
        st.data(),
    )
    def test_matches_brute_force(self, values, data):
        n = len(values)
        n_queries = data.draw(st.integers(1, 20))
        prefixes = data.draw(
            st.lists(st.integers(0, n), min_size=n_queries, max_size=n_queries)
        )
        thresholds = data.draw(
            st.lists(st.integers(0, 35), min_size=n_queries, max_size=n_queries)
        )
        got = prefix_rank_leq(
            np.asarray(values), np.asarray(prefixes), np.asarray(thresholds)
        )
        brute = [
            sum(1 for v in values[:p] if v <= t)
            for p, t in zip(prefixes, thresholds)
        ]
        assert got.tolist() == brute

    def test_rejects_negative_values(self):
        with pytest.raises(MrcError, match="non-negative"):
            prefix_rank_leq(np.array([-1]), np.array([1]), np.array([0]))
