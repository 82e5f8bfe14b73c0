"""Tests for the persistent result cache and run manifest."""

import json
import pickle

import pytest

from repro.cache import CacheConfig
from repro.experiments.cache_store import (
    Manifest,
    ResultCache,
    canonical,
    code_version_tag,
    stable_hash,
)
from repro.experiments.parallel import ParallelRunner, SimSpec, TaskSpec, ToolSpec
from tests.conftest import pinned_kernel


class TestStableHash:
    def test_deterministic(self):
        payload = {"workload": "compress", "kwargs": {"n": 3}, "seed": 7}
        assert stable_hash(payload) == stable_hash(payload)

    def test_dict_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_value_changes_key(self):
        assert stable_hash({"seed": 1}) != stable_hash({"seed": 2})

    def test_dataclasses_and_enums_canonicalise(self):
        c = canonical(CacheConfig(size=64 * 1024, assoc=4))
        assert c["size"] == 64 * 1024
        assert c["policy"] == "lru"

    def test_int_float_distinct_from_string(self):
        assert stable_hash({"x": 1}) == stable_hash({"x": 1.0})
        assert stable_hash({"x": 1}) != stable_hash({"x": "1"})


class TestTaskKeys:
    def test_key_stable_across_calls(self):
        spec = TaskSpec(workload="synthetic-streams", seed=5)
        assert spec.key() == spec.key()

    def test_key_ignores_label(self):
        a = TaskSpec(workload="compress", seed=5, label="x")
        b = TaskSpec(workload="compress", seed=5, label="y")
        assert a.key() == b.key()

    def test_key_varies_with_config(self):
        base = TaskSpec(workload="compress", seed=5)
        assert base.key() != TaskSpec(workload="compress", seed=6).key()
        assert base.key() != TaskSpec(workload="mgrid", seed=5).key()
        assert (
            base.key()
            != TaskSpec(
                workload="compress",
                seed=5,
                tool=ToolSpec("sampling", {"period": 64}),
            ).key()
        )
        assert (
            base.key()
            != TaskSpec(
                workload="compress",
                seed=5,
                sim=SimSpec(cache=CacheConfig(size=128 * 1024)),
            ).key()
        )

    def test_code_version_tag_shape(self):
        # The key embeds this source hash, so editing the simulator or
        # the cache models invalidates every stored entry automatically.
        tag = code_version_tag()
        assert len(tag) == 16
        assert all(c in "0123456789abcdef" for c in tag)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("deadbeef" * 8) is None
        cache.put("deadbeef" * 8, {"value": 42})
        assert cache.get("deadbeef" * 8) == {"value": 42}
        assert ("deadbeef" * 8) in cache
        assert len(cache) == 1

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" * 32
        cache.put(key, [1, 2, 3])
        path = next(iter((tmp_path / "cache" / "entries").rglob("*.pkl")))
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert key not in cache  # corrupt file was evicted

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("cd" * 32, "x")
        cache.manifest_path.write_text("{}\n")
        cache.clear()
        assert len(cache) == 0
        assert not cache.manifest_path.exists()

    def test_round_trips_pickles(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        value = {"mask": (1, 2, 3), "cfg": CacheConfig(size=64 * 1024)}
        cache.put("ef" * 32, value)
        restored = cache.get("ef" * 32)
        assert restored["cfg"] == value["cfg"]
        assert pickle.dumps(restored) == pickle.dumps(value)


class TestManifest:
    def test_counts_and_summary(self):
        m = Manifest()
        m.record(
            task="t1", workload="compress", seed=1, key="k1",
            cached=False, wall_s=0.5,
        )
        m.record(
            task="t2", workload="compress", seed=2, key="k2",
            cached=True, wall_s=0.0,
        )
        assert m.counts() == {"hit": 1, "miss": 1}
        assert m.total_wall_s() == 0.5
        assert "1 cache hit" in m.summary()
        assert "1 simulated" in m.summary()

    def test_jsonl_mirror(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        m = Manifest(path=path)
        m.record(
            task="t1", workload="mgrid", seed=9, key="k9",
            cached=False, wall_s=1.25,
        )
        loaded = Manifest.load(path)
        assert len(loaded) == 1
        rec = loaded[0]
        assert rec["workload"] == "mgrid"
        assert rec["seed"] == 9
        assert rec["cached"] is False

    @staticmethod
    def _torn(path):
        """A manifest whose writer was killed mid-append: two records,
        then half of a third with no newline."""
        m = Manifest(path=path)
        for i in (1, 2):
            m.record(
                task=f"t{i}", workload="swim", seed=i, key=f"k{i}",
                cached=i == 2, wall_s=0.1,
            )
        line = path.read_text().splitlines()[0]
        with path.open("a") as fh:
            fh.write(line[: len(line) // 2])
        return path

    def test_torn_final_line_skipped(self, tmp_path):
        path = self._torn(tmp_path / "manifest.jsonl")
        records, torn = Manifest.read(path)
        assert [r["key"] for r in records] == ["k1", "k2"]
        assert torn == 1
        assert len(Manifest.load(path)) == 2

    def test_earlier_bad_line_raises(self, tmp_path):
        path = self._torn(tmp_path / "manifest.jsonl")
        with path.open("a") as fh:
            fh.write("\n" + path.read_text().splitlines()[0] + "\n")
        with pytest.raises(json.JSONDecodeError):
            Manifest.read(path)

    def test_record_after_a_torn_line_starts_clean(self, tmp_path):
        path = self._torn(tmp_path / "manifest.jsonl")
        Manifest(path=path).record(
            task="t3", workload="swim", seed=3, key="k3",
            cached=False, wall_s=0.1,
        )
        records, torn = Manifest.read(path)
        assert [r["key"] for r in records] == ["k1", "k2", "k3"]
        assert torn == 0

    def test_cache_command_reports_the_torn_line(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path / "cache")
        self._torn(cache.manifest_path)
        assert main(["cache", "--cache-dir", str(cache.root)]) == 0
        out = capsys.readouterr().out
        assert "manifest: 2 task records, 1 hits, 1 misses" in out
        assert "1 torn last line skipped" in out


class TestCodeVersionTag:
    def test_kernel_sources_participate_in_version_tag(self):
        """Editing a cache kernel must invalidate cached results: every
        kernels/*.py module has to appear in the hashed source set."""
        from repro.experiments.cache_store import source_files

        names = {p.as_posix() for p in source_files()}
        for module in ("__init__", "base", "reference", "flat"):
            assert any(
                n.endswith(f"cache/kernels/{module}.py") for n in names
            ), module

    def test_kernels_share_cache_entries(self, tmp_path):
        """The kernel is not part of a cell's key: a cell computed on one
        kernel is a hit for every other, and holds what they compute."""
        spec = TaskSpec(
            workload="synthetic-streams",
            workload_kwargs={
                "spec": {"a": (64 * 1024, 60), "b": (32 * 1024, 40)},
                "rounds": 3,
                "lines_per_round": 1500,
            },
            seed=7,
            tool=ToolSpec("sampling", {"period": 97, "seed": 3}),
            sim=SimSpec(cache=CacheConfig(size=32 * 1024, assoc=2)),
        )
        cache = ResultCache(tmp_path / "cache")
        first = ParallelRunner(jobs=1, cache=cache)
        with pinned_kernel("array"):
            (warm,) = first.run([spec])
        assert first.manifest.counts() == {"hit": 0, "miss": 1}

        second = ParallelRunner(jobs=1, cache=cache)
        (served,) = second.run([spec])
        assert second.manifest.counts() == {"hit": 1, "miss": 0}
        assert served.stats == warm.stats

        with pinned_kernel("reference"):
            (fresh,) = ParallelRunner(jobs=1).run([spec])
        assert fresh.stats == warm.stats
