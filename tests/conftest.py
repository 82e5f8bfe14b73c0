"""Shared fixtures for the repro test suite.

``REPRO_BACKEND=array`` (or ``reference``, ``auto``) rebinds
``repro.cache.kernels.DEFAULT_BACKEND`` once for the session, so every
cache the suite builds runs that kernel — the CI matrix uses this to
prove the whole pipeline, golden outputs included, is kernel-agnostic.
There is no product knob for it. Tests that need one kernel name it on
``SetAssociativeCache(..., backend=)``, or build their stack inside
:func:`pinned_kernel`.

``REPRO_MRC_SAMPLE_RATE`` (a fraction in (0, 1], default 0.25) scales
the stream lengths the MRC accuracy harness (``tests/mrc/``, marker
``mrc``) feeds both the MRC engine and the verifying simulator — the
same truncation on both sides, so bit-for-bit comparisons stay exact
at any rate. The quick tier-1 run keeps the default; CI sets 1.0 to
score the full streams.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

from repro.cache import CacheConfig, SetAssociativeCache, kernels
from repro.memory import AddressSpace, HeapAllocator, ObjectMap, SymbolTable
from repro.sim.engine import Simulator

#: The kernel the package ships as its default, before any session pin.
SHIPPED_BACKEND = kernels.DEFAULT_BACKEND

#: Kernel the whole session runs on; None = the shipped default.
ENV_BACKEND = os.environ.get("REPRO_BACKEND") or None

#: Fraction of each workload's stream the MRC accuracy harness consumes.
MRC_SAMPLE_RATE = min(
    1.0, max(0.01, float(os.environ.get("REPRO_MRC_SAMPLE_RATE", "0.25")))
)


@contextlib.contextmanager
def pinned_kernel(backend: "str | None"):
    """Caches constructed inside the block run ``backend``'s kernel
    (None keeps the session's)."""
    saved = kernels.DEFAULT_BACKEND
    kernels.DEFAULT_BACKEND = kernels.resolve_backend(backend or saved)
    try:
        yield
    finally:
        kernels.DEFAULT_BACKEND = saved


def pytest_configure(config):
    if ENV_BACKEND is not None:
        kernels.DEFAULT_BACKEND = kernels.resolve_backend(ENV_BACKEND)
    config.addinivalue_line(
        "markers",
        "mrc: MRC-vs-exact-simulator accuracy harness (stream length "
        "scaled by REPRO_MRC_SAMPLE_RATE)",
    )
    config.addinivalue_line(
        "markers",
        "mechanisms: cache-mechanism component stacks (victim/miss "
        "cache, stream buffers) — the CI leg `-m mechanisms` runs just "
        "these",
    )
    config.addinivalue_line(
        "markers",
        "multicore: shared-LLC multi-core sessions and contention "
        "attribution — the CI leg `-m multicore` runs just these",
    )


@pytest.fixture
def aspace() -> AddressSpace:
    return AddressSpace()


@pytest.fixture
def small_cfg() -> CacheConfig:
    """A small cache so tests can exercise capacity effects cheaply."""
    return CacheConfig(size=16 * 1024, line_size=64, assoc=4)


@pytest.fixture
def small_cache(small_cfg) -> SetAssociativeCache:
    return SetAssociativeCache(small_cfg)


@pytest.fixture
def sim() -> Simulator:
    return Simulator(CacheConfig(size=64 * 1024, assoc=4), seed=7)


@pytest.fixture
def populated_map(aspace):
    """An object map with three globals and two heap blocks."""
    symbols = SymbolTable(aspace.data)
    a = symbols.declare("A", 4096)
    b = symbols.declare("B", 8192)
    c = symbols.declare("C", 4096, pad_after=65536)
    omap = ObjectMap()
    omap.add_globals([a, b, c])
    omap.freeze_globals()
    heap = HeapAllocator(aspace.heap)
    heap.add_observer(omap.observe_alloc)
    h1 = heap.malloc(16384)
    h2 = heap.malloc(4096)
    return omap, {"A": a, "B": b, "C": c, "h1": h1, "h2": h2}, heap


def lines(obj, n, line=64, start=0):
    """Line-stride addresses over an object (test helper)."""
    base = obj.base + start * line
    return np.arange(base, base + n * line, line, dtype=np.uint64)


@pytest.fixture(scope="session")
def mrc_sample_fraction() -> float:
    """Stream-length fraction for the MRC harness (env-tunable)."""
    return MRC_SAMPLE_RATE


@pytest.fixture(scope="session")
def quick_runner():
    """A shared quick-mode experiment runner (baselines cached)."""
    from repro.experiments.runner import ExperimentRunner, RunnerConfig

    return ExperimentRunner(RunnerConfig(seed=99), quick=True)
