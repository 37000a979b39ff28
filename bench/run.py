"""Benchmark of the qbmlab pipeline: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above `bench/`, and the
program is imported from its `src/`.  The seed makes the workload's
inputs (see inputs.py); the program receives only those files.

`--seconds` sets the work: a run makes `inputs.passes(workload,
seconds)` passes over the workload's tasks, which takes about `--seconds`
at the baseline commit on the reference machine, and the same work on
every commit.  With `--trace 0` the run times three fresh set-up
interpreters, then one worker process makes the passes and the run
reports the end-to-end metrics: every time normalized by the speed
probes of speed.py, and the wall-clock times on lines of their own.
With `--trace 1` an untraced and a traced worker make half the passes
each (at least one), and the run reports the per-layer metrics from the
traced one.  Every task's output is checked against an oracle;
`attempted` and `failed` count tasks.

The metric names and units come from BENCHMARK.json at the checkout
root.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 whenever that line is printed, and nonzero when the
checkout is incomplete or a worker process crashes or overruns.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
SETUP_PROBES = 3
# Probe length around each set-up: a set-up lasts about as long as the
# machine stays in one speed state, so a tenth of it samples too little.
SETUP_PROBE_S = 0.3
DEADLINE_S = 170.0  # a whole run, so it exits well within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or
    fewer no such percentile exists, and the maximum is returned with
    zero samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _src_record():
    """Line count and content digest of the program under src/."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()[:16]


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    top, commit = out.stdout.splitlines()
    return commit if Path(top).resolve() == ROOT else None


class Runner:
    """Child processes of one run, all bounded by one deadline."""

    def __init__(self, inputs_dir, out_dir):
        self.inputs_dir = inputs_dir
        self.out_dir = out_dir
        self.deadline = time.monotonic() + DEADLINE_S
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (
            os.pathsep + pythonpath if pythonpath else ""))

    def _call(self, args):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--inputs", str(self.inputs_dir)] + args
        try:
            done = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker overran the run deadline") from exc
        if done.returncode != 0:
            raise BenchError(f"worker exited {done.returncode}:\n"
                             + done.stderr[-2000:])

    def setups(self, count):
        """Wall and normalized seconds of `count` fresh set-ups.

        A set-up is a fresh interpreter to ready: import qbmlab, parse
        every file.  The `python` probe runs in this process right before
        and right after each one (speed.py).
        """
        walls, norms = [], []
        after = speed.probe("python", SETUP_PROBE_S)
        for _ in range(count):
            before = after
            t0 = time.perf_counter()
            self._call(["--setup-only"])
            wall = time.perf_counter() - t0
            after = speed.probe("python", SETUP_PROBE_S)
            walls.append(wall)
            norms.append(wall * speed.factor("python", [before, after]))
        return walls, norms

    def work(self, passes, trace):
        result_path = self.out_dir / f"result-{int(trace)}.json"
        self._call(["--out", str(self.out_dir), "--passes", str(passes),
                    "--result", str(result_path)]
                   + (["--trace"] if trace else []))
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        loaded = Path(result["qbmlab_file"]).resolve()
        if ROOT / "src" not in loaded.parents:
            raise BenchError(f"worker imported qbmlab from {loaded}")
        return result


def timings(records, key):
    """Per-pass and per-task figures of the records' `key` seconds.

    Returns {suffix: (value, note)} for the pass median, the task median
    and the tail percentile.
    """
    passes = {}
    for r in records:
        passes[r["pass"]] = passes.get(r["pass"], 0.0) + r[key]
    seconds = [r[key] for r in records]
    tail, pct, beyond = tail_percentile(seconds)
    return {"wall": (statistics.median(passes.values()),
                     f"median of {len(passes)} passes"),
            "p50": (statistics.median(seconds),
                    f"median of {len(seconds)} tasks"),
            "tail": (tail, f"p{pct:.1f} of {len(seconds)} tasks, "
                           f"{beyond} beyond")}


def measure(args, inputs_dir, out_dir, environment):
    """Run the workers; return (task records, metrics, notes, extra lines).

    The extra lines are figures printed but not declared: the wall-clock
    counterparts of the normalized times.
    """
    e2e_units, layer_units = _declared_metrics()
    runner = Runner(inputs_dir, out_dir)
    notes = {}
    extra = []
    passes = inputs.passes(args.workload, args.seconds)
    if args.trace:
        half = max(1, round(passes / 2))
        plain = runner.work(half, trace=False)
        traced = runner.work(half, trace=True)
        values = dict(traced["layers"])
        values["trace.overhead_s"] = (
            timings(traced["tasks"], "norm_seconds")["wall"][0]
            - timings(plain["tasks"], "norm_seconds")["wall"][0])
        records = plain["tasks"] + traced["tasks"]
        units = layer_units
        environment.update(traced["environment"])
    else:
        setup_walls, setups = runner.setups(SETUP_PROBES)
        plain = runner.work(passes, trace=False)
        records = plain["tasks"]
        norm = timings(records, "norm_seconds")
        wall = timings(records, "seconds")
        values = {"wall_norm_s": norm["wall"][0],
                  "task_norm_s_p50": norm["p50"][0],
                  "task_norm_s_tail": norm["tail"][0],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": plain["peak_rss_mb"]}
        notes = {"wall_norm_s": norm["wall"][1],
                 "task_norm_s_p50": norm["p50"][1],
                 "task_norm_s_tail": norm["tail"][1],
                 "setup_s": f"median of {SETUP_PROBES} fresh interpreters"}
        for name, suffix in (("wall_s", "wall"), ("task_s_p50", "p50"),
                             ("task_s_tail", "tail")):
            value, note = wall[suffix]
            extra.append(f"{name} = {value:.6g} s  (wall clock, {note})")
        extra.append(f"setup_wall_s = {statistics.median(setup_walls):.6g} s"
                     f"  (wall clock, median of {SETUP_PROBES} fresh "
                     "interpreters)")
        factors = [r["factor"] for r in records if r["factor"] != 1.0]
        if factors:
            extra.append(f"speed_factor_p50 = "
                         f"{statistics.median(factors):.6g} ratio  "
                         f"(normalized / wall time, {len(factors)} "
                         "probed tasks)")
        units = e2e_units
        environment.update(plain["environment"])
    if set(values) != set(units):
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}
    return records, metrics, notes, extra


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one workload of the qbmlab benchmark.")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    environment = {
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
    for needed in ("src/qbmlab/__init__.py", "scenarios", "BENCHMARK.json"):
        if not (ROOT / needed).exists():
            print(f"error: {ROOT / needed} is missing; run the benchmark "
                  "from a full checkout", file=sys.stderr)
            return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs_dir = work / "inputs"
        out_dir = work / "out"
        inputs_dir.mkdir()
        out_dir.mkdir()
        manifest = inputs.generate(str(ROOT), args.workload, args.seed,
                                   str(inputs_dir))
        records, metrics, notes, extra = measure(args, inputs_dir,
                                                 out_dir, environment)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines, digest = _src_record()
    environment.update({"threads": manifest.get("threads"),
                        "git_commit": _git_commit(), "src_sha256": digest,
                        "src_lines": lines})
    failed = [r for r in records if r["error"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} tasks, {len(failed)} failed")
    print("environment " + json.dumps(environment, sort_keys=True))
    for r in failed:
        print(f"FAILED {r['task']} (pass {r['pass']}): {r['error']}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    for line in extra:
        print(line)
    print(f"failed_frac = {len(failed) / len(records):.6g} ratio  "
          f"({len(failed)} of {len(records)} tasks)")
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
