"""One run of one workload, in a fresh interpreter.

    python3 bench/worker.py --inputs DIR --out DIR --passes N
                            --result FILE [--trace]
    python3 bench/worker.py --inputs DIR --setup-only

The run imports qbmlab, parses every generated scenario file strictly,
then makes N passes over the workload's tasks, back to back (closed
loop).  Within a pass every task is timed on its own, between the speed
probes of speed.py; the oracle checks run after the pass's last timer
stops.  `--setup-only` stops once the scenario files are parsed; the
parent times such runs as the set-up.

`src/` must be on PYTHONPATH.  The result file holds per-task records
(wall and normalized seconds), peak memory, and with `--trace` the
per-layer metrics.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

import speed


def run_pass(tasks, index, tracer=None, health=None, tamper=None,
             expected=None):
    """Run every task once, then check each; return one record per task.

    Each task is timed on its own.  A task that names a probe kind has
    that probe run right before and right after it, untimed, and a
    `python` task is also sampled while it runs, the samples' time taken
    out of its own; its record carries the normalized time as well
    (speed.py).  A probe lasts a share of the longer of the tasks on
    either side of it.  `expected` maps a task name to its seconds in an
    earlier pass and is updated here; a task not yet timed counts as
    long as the one before it, or as the longest if it is the first.

    `tamper` maps a task name to a function applied to that task's
    output before its check (the self-test's corrupted outputs); it may
    return a replacement output.
    """
    health = {} if health is None else health
    tamper = tamper or {}
    expected = {} if expected is None else expected
    outputs = []
    after = {}  # probe kind -> its time right after the previous task
    previous_s = speed.MAX_S / speed.SHARE
    for i, task in enumerate(tasks):
        kind = task.probe
        before = None
        if kind:
            before = after.get(kind) or speed.probe(
                kind, speed.probe_seconds(expected.get(task.name,
                                                       previous_s)))
        error = None
        output = None
        sampler = speed.Sampler()
        t0 = time.perf_counter()
        try:
            with sampler if kind == "python" else contextlib.nullcontext():
                if tracer is None:
                    output = task.run()
                else:
                    with tracer.task_span(f"{index}:{task.name}"):
                        output = task.run()
        except Exception:  # a failing task is counted, not fatal
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        seconds = time.perf_counter() - t0 - sampler.paused_s
        expected[task.name] = seconds
        factor = 1.0
        after = {}
        if kind:
            following = tasks[i + 1].name if i + 1 < len(tasks) else None
            longer = max(seconds, expected.get(following, seconds))
            after[kind] = speed.probe(kind, speed.probe_seconds(longer))
            factor = speed.factor(kind, [before, after[kind]]
                                  + sampler.samples)
        outputs.append((task, output, error, seconds, factor))
        previous_s = seconds

    records = []
    for task, output, error, seconds, factor in outputs:
        if error is None:
            try:
                if task.name in tamper:
                    replaced = tamper[task.name](output)
                    output = output if replaced is None else replaced
                error = task.check(output, health)
            except Exception:
                error = "check raised " + traceback.format_exc(
                    limit=3).strip().splitlines()[-1]
        records.append({"task": task.name, "pass": index,
                        "seconds": seconds, "norm_seconds": seconds * factor,
                        "factor": factor, "error": error})
    return records


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(args.inputs, "inputs.json"), encoding="utf-8") \
            as fh:
        manifest = json.load(fh)

    import qbmlab.cli  # the set-up being measured: import, then parse
    from qbmlab.scenario import parse_scenario
    scenarios = [parse_scenario(os.path.join(args.inputs, name), strict=True)
                 for name in manifest["scenarios"]]
    if args.setup_only:
        return 0

    import workloads
    tasks = workloads.build(manifest, scenarios, args.inputs, args.out)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    health = {}
    expected = {}
    records = []
    for index in range(args.passes):
        records += run_pass(tasks, index, tracer, health,
                            expected=expected)

    result = {"tasks": records,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              "qbmlab_file": qbmlab.cli.__file__,
              "environment": _environment(), "layers": None}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(args.passes, health)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
