"""A fixed probe of how fast the host runs Python code right now.

On a shared host the same process runs up to twice as slow for tens of
seconds at a time, in user CPU time as much as in wall time, so CPU
time alone does not tell a slow host from a slow program. The probe does a fixed amount of work shaped like the
simulator's: interpreted code over objects with slots and dict lookups
in many small sets with a victim search, JSON and regex over a
report-like document, and NumPy calls on small chunks of addresses. It
imports nothing from ``repro`` and so never changes with the program.
The benchmark runs it before every cell, in the cell's process, and
scales CPU times by ``REFERENCE_S`` over the probe's CPU time.
"""

from __future__ import annotations

import gc
import json
import random
import re
import time

import numpy as np

#: Probe CPU time, in seconds, of the host the scaled times refer to: a
#: round figure near the median probe on a 2-vCPU KVM guest of a Xeon
#: Sapphire Rapids class host, Python 3.11, NumPy 2.4.
REFERENCE_S = 0.02

_ADDRS = [random.Random(3).randrange(1 << 26) for _ in range(20_000)]
_DOC = json.dumps(
    [
        {"name": f"obj{i}", "count": i * 7, "share": i / 3.0, "tags": list(range(i % 9))}
        for i in range(400)
    ]
)
_NAME = re.compile(r"obj(\d+)")
_CHUNKS = np.random.default_rng(3).integers(0, 1 << 30, size=(16, 2048))


class _Line:
    __slots__ = ("tag", "age")

    def __init__(self, tag: int, age: int) -> None:
        self.tag = tag
        self.age = age


def _cache_work() -> int:
    sets: list[dict] = [{} for _ in range(4096)]
    misses = 0
    for clock, addr in enumerate(_ADDRS):
        lines = sets[(addr >> 6) & 4095]
        tag = addr >> 12
        line = lines.get(tag)
        if line is None:
            misses += 1
            if len(lines) >= 8:
                victim = min(lines.values(), key=lambda old: old.age)
                del lines[victim.tag]
            lines[tag] = _Line(tag, clock)
        else:
            line.age = clock
    return misses


def _report_work() -> int:
    found = 0
    for _ in range(3):
        doc = json.loads(_DOC)
        found += len(json.dumps(doc, sort_keys=True)) + len(_NAME.findall(_DOC))
    return found


def _chunk_work() -> int:
    found = 0
    for chunk in _CHUNKS:
        sets = (chunk >> 6) & 4095
        order = np.argsort(sets, kind="stable")
        distinct = np.unique(sets[order])
        found += int(np.searchsorted(distinct, sets)[-1])
    return found


def probe() -> tuple[float, float]:
    """(host seconds, CPU seconds) the fixed work takes now.

    The garbage collector is off while it runs, so the probe's time does
    not depend on how many objects the program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0, cpu0 = time.perf_counter(), time.process_time()
        _cache_work()
        _report_work()
        _chunk_work()
        return time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        if enabled:
            gc.enable()
