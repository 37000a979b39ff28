"""Self-test of the benchmark.

Runs every workload at reduced size, feeds each oracle check one
corrupted output and expects that task to count as failed, and checks
the command's output contract.  Run from the checkout root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qbmlab import cli, io  # noqa: E402
from qbmlab.scenario import parse_scenario  # noqa: E402


def small_pass(tmp_path, workload, tamper=None, tracer=None):
    """One reduced-size pass; returns {task name: error or None}."""
    inputs_dir = tmp_path / "inputs"
    out = tmp_path / "out"
    inputs_dir.mkdir()
    out.mkdir()
    manifest = inputs.generate(str(ROOT), workload, 7, str(inputs_dir),
                               small=True)
    scenarios = [parse_scenario(inputs_dir / name, strict=True)
                 for name in manifest["scenarios"]]
    tasks = workloads.build(manifest, scenarios, str(inputs_dir), str(out))
    made = {name: make(out) for name, make in (tamper or {}).items()}
    records = worker.run_pass(tasks, 0, tracer=tracer, tamper=made)
    return {r["task"]: r["error"] for r in records}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_workload_passes_at_reduced_size(tmp_path, workload):
    errors = small_pass(tmp_path, workload)
    assert errors and not any(errors.values()), errors


# ------------------------------------------------------ corrupted outputs

def edit_csv(path, column, change):
    table = io.read_csv(path)
    data = dict(table.data)
    data[column] = change(data[column].copy())
    io.write_csv(path, io.CsvTable(table.columns, data))


def edit_json(path, change):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    change(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def at(index, value):
    def change(column):
        column[index] = value
        return column
    return change


def shifted(delta, index=-1):
    def change(column):
        column[index] += delta
        return column
    return change


def on_file(suffix, edit, *args):
    """Tamper that edits one artifact of the task's scenario on disk."""
    def make(task):
        return lambda out: lambda rc: edit(out / f"{task}_{suffix}", *args)
    return make


def zero_peak(column):
    column[np.argmax(np.abs(column))] = 0.0
    return column


def drop_warning(text):
    def change(manifest):
        manifest["warnings"] = [w for w in manifest["warnings"]
                                if text not in w]
    return change


def in_memory(change):
    """Tamper that changes the task's returned object in place."""
    def make(task):
        def tamper(output):
            change(output)
        return lambda out: tamper
    return make


def exit_code(task):
    return lambda out: lambda rc: 3


def _set(obj, attr, value):
    setattr(obj, attr, value)


CORRUPTIONS = {
    # hpz_kernel: exit code, D_im vs closed form, verdict, finite moments,
    # kept warnings
    "hpz exit code": ("hpz_kernel", "hpz_sharp", exit_code),
    "hpz kernel node zeroed": (
        "hpz_kernel", "hpz_exponential",
        on_file("kernel.csv", edit_csv, "D_im", zero_peak)),
    "hpz verdict": (
        "hpz_kernel", "hpz_sharp",
        on_file("audit.json", edit_json,
                lambda a: a.update(verdict="CP-semigroup-form"))),
    "hpz moments": (
        "hpz_kernel", "hpz_drude",
        on_file("moments.csv", edit_csv, "s_pp", at(3, np.nan))),
    "hpz NotCP warning": (
        "hpz_kernel", "hpz_sharp",
        on_file("manifest.json", edit_json,
                drop_warning("CP audit verdict"))),
    "hpz drude warning": (
        "hpz_kernel", "hpz_drude",
        on_file("manifest.json", edit_json, drop_warning("D_re(0)"))),
    # markov_moments: exit code, CL/CCL means, QP/JZ means, verdicts
    "markov exit code": ("markov_moments", "jz_decoherence_r0", exit_code),
    "ccl mean shifted": (
        "markov_moments", "cl_vs_ccl_r1",
        on_file("moments.csv", edit_csv, "mean_q", shifted(1e-3))),
    "qp mean shifted": (
        "markov_moments", "qp_coupling_r1",
        on_file("moments.csv", edit_csv, "mean_p", shifted(1e-9))),
    "jz verdict": (
        "markov_moments", "jz_decoherence_r1",
        on_file("audit.json", edit_json,
                lambda a: a.update(verdict="NotCP"))),
    "cl verdict": (
        "markov_moments", "cl_regime_r0",
        on_file("audit.json", edit_json,
                lambda a: a.update(verdict="CP-semigroup-form"))),
    "ccl rank-1 flag": (
        "markov_moments", "cl_vs_ccl_r0",
        on_file("audit.json", edit_json, lambda a: a.update(flags=[]))),
    # dressed_reuse: read-back, bilinear order-2 term, verdict, moments
    "kernel read back": (
        "dressed_reuse", "read_kernel",
        in_memory(lambda k: at(5, 0.0)(k.re_values))),
    "order-2 correction": (
        "dressed_reuse", "dress_order2_quarter",
        in_memory(lambda d: shifted(1e-6 * np.abs(d.table).max())(
            d.table[-1]))),
    "dressed verdict": (
        "dressed_reuse", "audit",
        in_memory(lambda r: _set(r, "verdict", "CP-semigroup-form"))),
    "dressed moments": (
        "dressed_reuse", "hpz_moments",
        in_memory(lambda t: at((2, 1), np.nan)(t.data))),
    # oracle_crosscheck: exit code, trajectories, z, Fock deviation, leak
    "sse exit code": ("oracle_crosscheck", "ccl_unraveling", exit_code),
    "trajectory lost": (
        "oracle_crosscheck", "ccl_unraveling",
        on_file("ensemble.csv", edit_csv, "alive", shifted(-1.0))),
    "ensemble mean shifted": (
        "oracle_crosscheck", "ccl_unraveling",
        on_file("ensemble_vs_ode.csv", lambda path: edit_csv(
            path, "mean_q_mc", lambda mc: io.read_csv(path)["mean_q_ode"]
            + 10.0 * io.read_csv(path)["mean_q_se"]))),
    "fock moment shifted": (
        "oracle_crosscheck", "fock_oracle",
        in_memory(lambda t: shifted(1e-3)(t.data[-1]))),
    "fock leakage": (
        "oracle_crosscheck", "fock_oracle",
        in_memory(lambda t: at(-1, 1e-5)(t.top_population))),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_each_check_fails_its_corrupted_output(tmp_path, case):
    workload, task, make = CORRUPTIONS[case]
    errors = small_pass(tmp_path, workload, tamper={task: make(task)})
    assert errors[task], f"{case}: the corrupted output passed its check"


# ----------------------------------------------------------------- tracing

def test_traced_pass_attributes_layers_and_restores_wrappers(tmp_path):
    original = cli.run_scenario
    tracer = spans.Tracer()
    tracer.install()
    try:
        errors = small_pass(tmp_path, "hpz_kernel", tracer=tracer)
    finally:
        tracer.uninstall()
    assert cli.run_scenario is original
    # the drude check needs the D_re(0) warning, which passes the wrapper
    assert not any(errors.values()), errors
    layers = tracer.layer_metrics(1, {})
    assert layers["bath.quad_calls"] > layers["bath.nodes"] > 0
    assert layers["bath.self_s"] > layers["dynamics.self_s"] > 0
    assert layers["fock.steps"] == layers["stochastic.traj_steps"] == 0
    assert 0.0 <= layers["trace.unattributed_frac"] < 0.05


def test_sampler_samples_a_task_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 0.45
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 2 and sampler.paused_s > 0
    assert speed.factor("python", [speed.REFERENCE_S["python"]] * 3) == 1.0


def test_records_carry_normalized_times(tmp_path):
    inputs_dir = tmp_path / "inputs"
    inputs_dir.mkdir()
    manifest = inputs.generate(str(ROOT), "oracle_crosscheck", 7,
                               str(inputs_dir), small=True)
    scenarios = [parse_scenario(inputs_dir / name, strict=True)
                 for name in manifest["scenarios"]]
    tasks = workloads.build(manifest, scenarios, str(inputs_dir),
                            str(tmp_path))
    by_task = {r["task"]: r for r in worker.run_pass(tasks, 0)}
    unprobed = by_task["ccl_unraveling"]  # no probe: wall time
    assert unprobed["norm_seconds"] == unprobed["seconds"]
    probed = by_task["fock_oracle"]
    assert probed["norm_seconds"] == probed["seconds"] * probed["factor"]
    assert 0.1 < probed["factor"] < 10.0


def test_tail_percentile():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    samples = list(range(21))
    value, pct, beyond = run.tail_percentile(samples)
    assert (value, beyond) == (10, 10)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * 11 / 21)


def test_same_seed_same_inputs(tmp_path):
    first = inputs.generate(str(ROOT), "hpz_kernel", 5, str(tmp_path))
    text = (tmp_path / first["scenarios"][0]).read_text()
    again = tmp_path / "again"
    again.mkdir()
    inputs.generate(str(ROOT), "hpz_kernel", 5, str(again))
    assert (again / first["scenarios"][0]).read_text() == text


# ---------------------------------------------------------------- contract

def bench_command(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    """One full-size pass: --seconds 1 rounds up to one pass."""
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "4",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_declared_metrics(trace):
    done = bench_command("dressed_reuse", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name in result["metrics"]:
        assert f"{name} = " in done.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = bench_command("hpz_kernel", 0, cwd=tmp_path,
                         script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
