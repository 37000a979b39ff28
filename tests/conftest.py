import os
import pathlib
import subprocess
import sys

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "fast", max_examples=25, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.register_profile(
    "thorough", max_examples=200, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))

_ACCEPTANCE_LINES = []
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fresh_python():
    """Run a new interpreter, which imports qbmlab from src/, on the
    given arguments; assert it exits 0 and return its standard output.
    A script runs as users run it, and a fresh interpreter shows which
    modules a path imports, where this one has loaded them all.
    """
    def run(*args):
        path = [str(_SRC), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run([sys.executable, *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        return done.stdout
    return run


@pytest.fixture(scope="session")
def acceptance_report():
    """Record one PASS/FAIL line per acceptance criterion.

    The lines are printed immediately (visible with -s or on failure)
    and repeated in the terminal summary so they always reach the
    operator, whatever the capture mode.
    """
    def record(criterion, passed, detail=""):
        status = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE {criterion}: {status}"
        if detail:
            line += f" -- {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        return passed
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
