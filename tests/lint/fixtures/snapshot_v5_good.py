"""Good: the v5 shape — the snapshot holds only per-core records, and
one builder writes every ``CoreState`` field."""

from dataclasses import dataclass


@dataclass
class CoreState:
    core_id: int
    cycle_carry: float


@dataclass
class SessionSnapshot:
    version: int
    workload_name: str
    cores: list[CoreState]


class SimulationSession:
    def _core_state(self):
        payload = {
            "core_id": 0,
            "cycle_carry": 0.0,
        }
        return CoreState(**payload)

    def snapshot(self):
        payload = {
            "version": 5,
            "workload_name": "x",
            "cores": [self._core_state()],
        }
        return SessionSnapshot(**payload)
