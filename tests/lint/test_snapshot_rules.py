"""RPL501 snapshot-payload completeness, including the drift regression.

The drift regression is the acceptance check: textually removing a field
from the *real* ``SimulationSession.snapshot()`` payload must make
RPL501 fire on the modified source — that is what protects the
checkpoint/resume bit-identity contract against future field additions.
"""

from collections import Counter
from pathlib import Path

import repro.sim.session as session_mod
from repro.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def counts(*paths):
    return Counter(v.code for v in run_lint(list(paths)))


class TestFixtures:
    def test_good_fixture_clean(self):
        assert counts(FIXTURES / "snapshot_good.py") == {}

    def test_bad_fixture_flags_all_three(self):
        assert counts(FIXTURES / "snapshot_bad.py") == {"RPL501": 3}

    def test_bad_fixture_names_the_problems(self):
        messages = " ".join(
            v.message for v in run_lint([FIXTURES / "snapshot_bad.py"])
        )
        assert "'version'" in messages  # missing format stamp
        assert "'cycle_carry'" in messages  # field never written
        assert "'cycle_cary'" in messages  # dead payload key

    def test_snapshot_without_builder(self):
        assert counts(FIXTURES / "snapshot_no_builder.py") == {"RPL501": 1}

    def test_v4_multicore_shape_clean(self):
        assert counts(FIXTURES / "snapshot_v4_good.py") == {}

    def test_v4_cores_field_missing_from_payload_flagged(self):
        violations = run_lint([FIXTURES / "snapshot_v4_bad.py"])
        assert Counter(v.code for v in violations) == {"RPL501": 1}
        assert any("'cores'" in v.message for v in violations)

    def test_v5_core_state_shape_clean(self):
        assert counts(FIXTURES / "snapshot_v5_good.py") == {}

    def test_v5_core_state_field_missing_from_payload_flagged(self):
        violations = run_lint([FIXTURES / "snapshot_v5_bad.py"])
        assert Counter(v.code for v in violations) == {"RPL501": 1}
        assert any(
            "CoreState" in v.message and "'ratio'" in v.message
            for v in violations
        )


class TestDriftRegression:
    def test_removing_a_field_from_the_real_payload_fails_lint(self, tmp_path):
        source = Path(session_mod.__file__).read_text()
        dropped = "\n".join(
            line
            for line in source.splitlines()
            if '"cycle_carry": self._cycle_carry' not in line
        )
        assert dropped != source, "payload line not found in session.py"
        mutated = tmp_path / "session.py"
        mutated.write_text(dropped)
        violations = [v for v in run_lint([mutated]) if v.code == "RPL501"]
        assert violations, "RPL501 must fire when a field leaves the payload"
        assert any("cycle_carry" in v.message for v in violations)

    def test_adding_a_field_without_hashing_it_fails_lint(self, tmp_path):
        """The reverse drift: a new dataclass field nobody snapshots."""
        source = Path(session_mod.__file__).read_text()
        marker = "    dispatcher: ToolDispatcher | None"
        assert marker in source
        mutated = tmp_path / "session.py"
        mutated.write_text(
            source.replace(marker, marker + "\n    new_state: int = 0", 1)
        )
        violations = [v for v in run_lint([mutated]) if v.code == "RPL501"]
        assert any("new_state" in v.message for v in violations)

    def test_real_session_module_is_clean(self):
        assert counts(Path(session_mod.__file__)) == {}
