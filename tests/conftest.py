import json
import os
import pathlib
import subprocess
import sys
import types

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
_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
_RUN_ALL = _ROOT / "scripts" / "run_all_scenarios.py"


@pytest.fixture(scope="session")
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
def checked_runs(tmp_path_factory, fresh_python):
    """One run of scripts/run_all_scenarios.py for the whole session, in a
    fresh interpreter: every run the script lists and both twin checks
    must pass (`main` returns 0), and the Fock oracle's coherent and
    squeezed states must be normalized.  Returns `out`, the directory the runs wrote,
    `fock`, whether the runs loaded qbmlab.fock, and `scipy`, the scipy
    modules the process loaded by its end.
    """
    out = tmp_path_factory.mktemp("runs")
    source = (
        "import json, runpy, sys\n"
        f"script = runpy.run_path({str(_RUN_ALL)!r})\n"
        f"assert script['main'](['--out', {str(out)!r}]) == 0\n"
        "fock = 'qbmlab.fock' in sys.modules\n"
        "from qbmlab.fock import coherent_state, squeezed_state\n"
        "psi = coherent_state(40, 0.5 - 0.2j)\n"
        "assert abs(psi @ psi.conj() - 1.0) < 1e-15\n"
        "psi = squeezed_state(40, 0.5, 0.3 + 0.2j)\n"
        "assert abs(psi @ psi.conj() - 1.0) < 1e-14\n"
        "print(json.dumps({'fock': fock, 'scipy': sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n")
    report = json.loads(fresh_python("-c", source).splitlines()[-1])
    return types.SimpleNamespace(out=out, **report)


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
