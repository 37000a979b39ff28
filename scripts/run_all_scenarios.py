"""Run every shipped scenario and summarize the manifests.

Usage: python3 scripts/run_all_scenarios.py [--out DIR] [--against DIR]

With --against, each CSV written is compared with the file of the same
name in that directory (say, the artifacts of another commit): the
script prints "identical" when the bytes agree, else the max |new - old|
of each changed column over that column's max |old|, and the columns
that only one of the two files has.  The script exits 1 if a scenario
fails or a pair of twins (CL and CCL, JZ and QP) disagree on the means.
"""

import argparse
import json
import pathlib
import sys

import numpy as np

from qbmlab import io
from qbmlab.cli import main as qbmlab_main

SCENARIOS = ("jz_decoherence", "cl_regime", "cl_vs_ccl", "ccl_unraveling",
             "hpz_audit", "qp_coupling")


def describe_change(new, old):
    """'identical', or 'changed:' and each differing column's max
    |new - old| over its max |old| (absolute where that max is 0), then
    each column gained or lost.
    """
    if new.read_bytes() == old.read_bytes():
        return "identical"
    try:
        report = io.compare_runs(old, new)
    except ValueError as exc:  # grids or row counts differ
        return f"not comparable: {exc}"
    table = io.read_csv(old)
    changed = []
    for c in report.columns:
        if not c.max_abs == 0.0:  # NaN counts as changed
            scale = float(np.max(np.abs(table[c.column]))) or 1.0
            changed.append(f"{c.column} {c.max_abs / scale:.2e}")
    new_columns = io.read_csv(new).columns
    changed += [f"new column {c}" for c in new_columns
                if c not in table.columns]
    changed += [f"no column {c}" for c in table.columns
                if c not in new_columns]
    return "changed: " + ", ".join(changed) if changed \
        else "same values, different header"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="artifacts")
    parser.add_argument("--against", metavar="DIR",
                        help="compare each CSV with the one in DIR")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    failures = 0
    for name in SCENARIOS:
        scenario = root / "scenarios" / f"{name}.json"
        print(f"=== {name}")
        code = qbmlab_main(["--scenario", str(scenario), "--out", args.out])
        if code != 0:
            print(f"{name}: exit code {code}", file=sys.stderr)
            failures += 1
            continue
        manifest = json.loads(
            (pathlib.Path(args.out) / f"{name}_manifest.json").read_text())
        print(f"    {len(manifest['outputs'])} artifacts, "
              f"{manifest['wall_clock_seconds']:.1f} s, "
              f"{len(manifest['warnings'])} warning(s)")
        for new in map(pathlib.Path, manifest["outputs"]):
            if args.against and new.suffix == ".csv":
                old = pathlib.Path(args.against) / new.name
                print(f"    {new.name}: " + (describe_change(new, old)
                                               if old.exists()
                                               else f"no {old}"))

    # the shipped twins must agree on the mean trajectories: CL and CCL
    # to 1e-6, and QP, whose rotation leaves the means alone, with JZ
    for a, b, atol in (("cl_regime", "cl_vs_ccl", "1e-6"),
                       ("jz_decoherence", "qp_coupling", "1e-10")):
        code = qbmlab_main(["--compare", f"{args.out}/{a}_moments.csv",
                            f"{args.out}/{b}_moments.csv",
                            "--columns", "mean_q,mean_p", "--atol", atol])
        if code != 0:
            print(f"{a} vs {b} mean comparison failed", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
