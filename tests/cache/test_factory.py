"""Tests for the cache factory and model-selection logic."""

import pytest

from repro.cache import (
    CacheConfig,
    DirectMappedCache,
    SetAssociativeCache,
    TwoLevelCache,
    make_cache,
)
from repro.errors import CacheConfigError
from tests.conftest import SHIPPED_BACKEND, pinned_kernel


class TestMakeCache:
    def test_assoc1_gets_vectorised_model(self):
        cache = make_cache(CacheConfig(size=64 * 1024, assoc=1))
        assert isinstance(cache, DirectMappedCache)

    def test_assoc4_gets_sequential_model(self):
        cache = make_cache(CacheConfig(size=64 * 1024, assoc=4))
        assert isinstance(cache, SetAssociativeCache)

    def test_prefetch_forces_sequential_model(self):
        cache = make_cache(
            CacheConfig(size=64 * 1024, assoc=1), prefetch_next_line=True
        )
        assert isinstance(cache, SetAssociativeCache)
        assert cache.prefetch_next_line

    def test_l1_config_builds_hierarchy(self):
        cache = make_cache(
            CacheConfig(size=64 * 1024, assoc=4),
            l1_config=CacheConfig(size=8 * 1024, assoc=2),
        )
        assert isinstance(cache, TwoLevelCache)

    def test_hierarchy_plus_prefetch_rejected(self):
        with pytest.raises(CacheConfigError):
            make_cache(
                CacheConfig(size=64 * 1024, assoc=4),
                l1_config=CacheConfig(size=8 * 1024, assoc=2),
                prefetch_next_line=True,
            )


class TestSimulatorValidation:
    def test_bad_chunk_size(self):
        from repro.errors import SimulationError
        from repro.sim.engine import Simulator

        with pytest.raises(SimulationError):
            Simulator(chunk_size=0)

    def test_default_config(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        assert sim.cache_config.size == 256 * 1024


class TestBackendSelection:
    """No product knob picks the kernel: every cache runs
    ``kernels.DEFAULT_BACKEND`` (rebound here by :func:`pinned_kernel`)
    unless ``SetAssociativeCache`` is handed a name."""

    def test_registry_contents(self):
        from repro.cache import kernels
        from repro.cache.kernels import KERNEL_BACKENDS, resolve_backend

        assert KERNEL_BACKENDS == ("reference", "array", "auto")
        assert SHIPPED_BACKEND == "auto"
        assert resolve_backend(None) == kernels.DEFAULT_BACKEND
        assert resolve_backend("array") == "array"

    def test_unknown_backend_rejected(self):
        from repro.cache.kernels import resolve_backend

        with pytest.raises(CacheConfigError):
            resolve_backend("turbo")
        with pytest.raises(CacheConfigError):
            SetAssociativeCache(CacheConfig(size=64 * 1024), backend="turbo")
        with pytest.raises(TypeError):
            CacheConfig(size=64 * 1024, backend="array")

    def test_config_backend_reaches_kernel(self):
        cfg = CacheConfig(size=64 * 1024, assoc=4)
        with pinned_kernel("array"):
            cache = make_cache(cfg)
        assert isinstance(cache, SetAssociativeCache)
        assert cache.backend == "array"
        assert cache._kernel.name == "array"

    def test_override_beats_config(self):
        cfg = CacheConfig(size=64 * 1024, assoc=4)
        with pinned_kernel("reference"):
            cache = SetAssociativeCache(cfg, backend="array")
        assert cache.backend == "array"
        assert cache._kernel.name == "array"

    def test_direct_mapped_serves_both_backends(self):
        for backend in ("reference", "array"):
            with pinned_kernel(backend):
                cache = make_cache(CacheConfig(size=64 * 1024, assoc=1))
            assert isinstance(cache, DirectMappedCache)

    def test_hierarchy_backend_propagates_to_both_levels(self):
        with pinned_kernel("array"):
            cache = make_cache(
                CacheConfig(size=64 * 1024, assoc=4),
                l1_config=CacheConfig(size=8 * 1024, assoc=2),
            )
        assert isinstance(cache, TwoLevelCache)
        assert cache._l1.name == "array"
        assert cache._l2.name == "array"

    def test_simulator_threads_backend(self):
        from repro.sim.engine import Simulator
        from repro.workloads.registry import make_workload

        sim = Simulator(CacheConfig(size=64 * 1024, assoc=4))
        workload = make_workload("tomcatv", seed=1, n_steps=1, rows_per_step=8)
        with pinned_kernel("array"):
            session = sim.start_session(workload)
        assert session.cache._kernel.name == "array"

    def test_cli_rejects_backend_flag(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--backend", "array"])
