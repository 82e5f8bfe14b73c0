"""Bad: the v5 drift this fixture pins — a ``CoreState`` field added to
the dataclass but never written by the per-core builder, so every core
of a restored session would come back with its default.

Expected RPL501 violation: field ``ratio`` missing from the payload.
"""

from dataclasses import dataclass


@dataclass
class CoreState:
    core_id: int
    cycle_carry: float
    ratio: int = 1


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
