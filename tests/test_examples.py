"""Examples execute end-to-end (subprocess smoke tests).

Each example is a user-facing artifact; these tests pin that they run
to completion and print their headline result. They are the slowest
tests in the suite (~1 min total) but guard the deliverable a new user
touches first.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 420.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Default operating point" in out
        assert "TIDS sweep" in out
        assert "Maximise MTTSF subject to" in out
        assert "<== optimal" in out

    def test_quickstart_engine_flags_and_warm_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = run_example("quickstart.py", "--cache-dir", cache)
        warm = run_example(
            "quickstart.py", "--jobs", "vector:2", "--cache-dir", cache
        )
        assert "hit rate 0.0%" in cold
        assert "hit rate 100.0%" in warm

        def series_lines(text):
            return [
                line for line in text.splitlines() if "ResultCache[" not in line
            ]

        # The cached (and thread-pooled) run reproduces the cold run.
        assert series_lines(cold) == series_lines(warm)

    def test_battlefield_adaptive_ids(self):
        out = run_example("battlefield_adaptive_ids.py")
        assert "identified attacker function : polynomial" in out
        assert "Adaptation multiplied the model-predicted MTTSF by" in out

    def test_rescue_mission_planning(self):
        out = run_example("rescue_mission_planning.py")
        assert "=== selected plan ===" in out
        assert "dominant residual risk" in out

    def test_validation_sim_vs_model(self):
        out = run_example("validation_sim_vs_model.py")
        assert "inside the CI" in out
        assert "Figure 1 SPN written to" in out
        assert (EXAMPLES / "figure1_spn.dot").exists()

    def test_perimeter_surveillance(self):
        out = run_example("perimeter_surveillance.py")
        assert "host IDS derived from audit features" in out
        assert "P(survive the 48 h mission)" in out
        assert "mean packet delay at this load" in out
