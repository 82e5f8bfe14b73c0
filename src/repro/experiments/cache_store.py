"""Content-addressed on-disk cache for simulation results.

The experiment grid is a matrix of *pure* simulations: every
:class:`~repro.sim.engine.RunResult` is a deterministic function of the
workload (name + construction kwargs), the simulator configuration, the
instrumentation tool configuration and the seed. This module exploits
that purity: results are stored on disk under a stable content hash of
exactly those inputs, plus a *code version tag* derived from the source
of the simulation-relevant packages — so editing the engine, a cache
model or a workload silently invalidates every stale entry, while
re-running an unchanged grid is served from disk instead of being
re-simulated.

Alongside the cache lives the :class:`Manifest`: an append-only JSONL
log with one record per task (label, workload, seed, key, hit/miss,
wall-clock seconds) that makes parallel runs observable and lets tests
assert on hit rates.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any
from pathlib import Path

__all__ = [
    "ResultCache",
    "Manifest",
    "TaskRecord",
    "CacheEntry",
    "canonical",
    "stable_hash",
    "code_version_tag",
    "source_files",
]


# --------------------------------------------------------------- hashing

def canonical(value: object) -> object:
    """Reduce ``value`` to a JSON-serialisable canonical form.

    Dataclasses become field dicts, enums their values, tuples lists and
    dict keys are sorted, so two configurations that compare equal hash
    identically regardless of construction order or container type.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return {
            str(k): canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, float)):
        return int(value) if float(value).is_integer() else float(value)
    # numpy scalars and anything else with an exact int/float identity.
    try:
        return canonical(value.item())
    except AttributeError:
        return repr(value)


def stable_hash(payload: object) -> str:
    """Hex digest of the canonical JSON encoding of ``payload``."""
    encoded = json.dumps(
        canonical(payload), sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(encoded).hexdigest()


#: Packages whose source defines simulation semantics; editing any file
#: in them changes the version tag and invalidates every cache entry.
#: Subpackages (e.g. ``cache/kernels``) are covered by the recursive glob.
_CODE_PACKAGES = ("cache", "core", "hpm", "memory", "sim", "util", "workloads")


def source_files() -> list[Path]:
    """Every source file participating in :func:`code_version_tag`.

    Exposed separately so tests can assert that semantics-bearing modules
    (the cache kernels in particular) actually invalidate the cache.
    """
    root = Path(__file__).resolve().parent.parent
    files: list[Path] = []
    for package in _CODE_PACKAGES:
        files.extend(sorted((root / package).rglob("*.py")))
    return files


def _compute_code_version_tag() -> str:
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


#: Computed eagerly at import time (RPL701): an lru_cache memo here would
#: be fork-copied into pool workers warm, so source edited between import
#: and fork could serve a stale tag in some processes but not others.
#: Import-time evaluation pins one value for the whole process tree.
_CODE_VERSION_TAG = _compute_code_version_tag()


def code_version_tag() -> str:
    """Digest of the simulation-relevant source, the cache's version key.

    Result keys embed this tag, so a cache directory never serves results
    computed by different simulation code — the invalidation rule is
    "any edit under src/repro/{cache,core,hpm,memory,sim,util,workloads}".
    """
    return _CODE_VERSION_TAG


# ---------------------------------------------------------------- storage

@dataclass(frozen=True)
class CacheEntry:
    """One stored result, as reported by :meth:`ResultCache.entries`."""

    key: str
    path: Path
    size_bytes: int
    mtime: float


class ResultCache:
    """Pickle store addressed by result key, with atomic writes.

    Layout: ``<root>/entries/<key[:2]>/<key>.pkl`` plus
    ``<root>/manifest.jsonl`` (written by the runners, not by the cache
    itself). Corrupt or unreadable entries are treated as misses and
    removed, so a killed writer can never poison later runs.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        (self.root / "entries").mkdir(parents=True, exist_ok=True)

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.jsonl"

    def path_for(self, key: str) -> Path:
        return self.root / "entries" / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """The stored value for ``key``, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            path.unlink(missing_ok=True)
            return None

    def put(self, key: str, value: object) -> Path:
        """Store ``value`` under ``key`` (atomic rename, last writer wins)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def entries(self) -> list[CacheEntry]:
        found: list[CacheEntry] = []
        for path in sorted((self.root / "entries").rglob("*.pkl")):
            stat = path.stat()
            found.append(
                CacheEntry(
                    key=path.stem,
                    path=path,
                    size_bytes=stat.st_size,
                    mtime=stat.st_mtime,
                )
            )
        return found

    def __len__(self) -> int:
        return len(self.entries())

    def total_bytes(self) -> int:
        return sum(e.size_bytes for e in self.entries())

    def clear(self) -> int:
        """Remove every entry (and the manifest); returns entries removed."""
        removed = 0
        for entry in self.entries():
            entry.path.unlink(missing_ok=True)
            removed += 1
        self.manifest_path.unlink(missing_ok=True)
        return removed

    def describe(self) -> str:
        entries = self.entries()
        size = sum(e.size_bytes for e in entries)
        return (
            f"result cache at {self.root}: {len(entries)} entries, "
            f"{size / 1024:.1f} KiB, code version {code_version_tag()}"
        )


# --------------------------------------------------------------- manifest

@dataclass(frozen=True)
class TaskRecord:
    """One executed (or cache-served) grid task."""

    task: str           #: display label, e.g. ``"tomcatv/sample(1/83)"``
    workload: str
    seed: int | None
    key: str            #: result-cache key (full hash)
    cached: bool        #: True = served from the result cache
    wall_s: float       #: wall-clock seconds spent (0 for hits)
    #: Manifest telemetry (when the task ran), never read by any result
    #: path — the one sanctioned wall-clock read in experiments/.
    when: float = field(default_factory=time.time)  # reprolint: disable=RPL103 -- manifest telemetry only, never read by a result path

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class Manifest:
    """In-memory task log, optionally mirrored to an append-only JSONL."""

    path: Path | None = None
    records: list[TaskRecord] = field(default_factory=list)

    def record(
        self,
        *,
        task: str,
        workload: str,
        seed: int | None,
        key: str,
        cached: bool,
        wall_s: float,
    ) -> TaskRecord:
        rec = TaskRecord(
            task=task,
            workload=workload,
            seed=seed,
            key=key,
            cached=cached,
            wall_s=wall_s,
        )
        self.records.append(rec)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            _drop_torn_tail(self.path)
            with self.path.open("a") as fh:
                fh.write(json.dumps(rec.as_dict(), sort_keys=True) + "\n")
        return rec

    @property
    def hits(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def misses(self) -> int:
        return sum(1 for r in self.records if not r.cached)

    def counts(self) -> dict[str, int]:
        return {"hit": self.hits, "miss": self.misses}

    def total_wall_s(self) -> float:
        return sum(r.wall_s for r in self.records)

    def summary(self) -> str:
        return (
            f"{len(self.records)} tasks: {self.hits} cache hits, "
            f"{self.misses} simulated, {self.total_wall_s():.1f}s simulating"
        )

    @staticmethod
    def load(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
        """Parse a manifest JSONL back into dicts (for tooling/tests)."""
        return Manifest.read(path)[0]

    @staticmethod
    def read(path: str | os.PathLike[str]) -> tuple[list[dict[str, Any]], int]:
        """Parse a manifest JSONL: its records, and how many torn lines
        were skipped.

        A writer killed mid-append can leave a partial last line; that
        line is skipped and counted. An unparseable line anywhere else
        is corruption and raises ``json.JSONDecodeError``.
        """
        lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
        out: list[dict[str, Any]] = []
        for i, line in enumerate(lines):
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                if i < len(lines) - 1:
                    raise
                return out, 1
        return out, 0


def _drop_torn_tail(path: Path) -> None:
    """Cut a partial last line (no newline) left in a manifest by a writer
    killed mid-append, so the next record starts on a line of its own."""
    try:
        with path.open("rb+") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end == 0:
                return
            fh.seek(end - 1)
            if fh.read(1) == b"\n":
                return
            fh.seek(0)
            fh.truncate(fh.read().rfind(b"\n") + 1)
    except FileNotFoundError:
        return
