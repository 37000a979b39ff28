"""Make every run a change is checked against: each scenarios/*.json, the
hpz_audit variants of VARIANTS and the twin checks.  Exits 1 if a run
fails or a pair of twins (CL and CCL, JZ and QP) disagree on the means.

--against DIR compares each CSV and audit JSON written with DIR's file
of that name (say, another commit's artifacts), and names each CSV or
audit JSON of these runs that only DIR holds ("only in DIR: <file>").
"""

import argparse
import functools
import json
import pathlib
import sys
import tempfile

import numpy as np

from qbmlab import io
from qbmlab.cli import main as qbmlab_main

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
# the exponential and Drude kernels take the thermal rule, and order 3 runs
# the order-2/3 dressing and its windowing: name -> {"block.key": value}
VARIANTS = {
    "hpz_audit_exponential": {"bath.cutoff": "exponential"},
    "hpz_audit_drude": {"bath.cutoff": "drude"},
    "hpz_audit_order3": {"equation.order": 3,
                         "equation.coefficient_grid.n": 201},
}


def write_variant(directory, name, changes):
    """Write hpz_audit.json, renamed and changed, to directory/name.json."""
    scenario = json.loads((SCENARIOS / "hpz_audit.json").read_text())
    scenario["name"] = name
    for key, value in changes.items():
        *blocks, last = key.split(".")
        functools.reduce(dict.get, blocks, scenario)[last] = value
    path = pathlib.Path(directory, f"{name}.json")
    path.write_text(json.dumps(scenario))
    return path


def describe_change(new, old):
    """'identical', or 'changed:' and the keys of a JSON whose values
    differ, or each differing CSV column's max |new - old| over its max
    |old| (absolute where that max is 0) and each column gained or lost."""
    if not old.exists():
        return f"no {old}"
    if new.read_bytes() == old.read_bytes():
        return "identical"
    if new.suffix == ".json":
        a, b = json.loads(new.read_text()), json.loads(old.read_text())
        changed = [k for k in sorted(a.keys() | b.keys())
                   if a.get(k, ...) != b.get(k, ...)]  # ... when absent
    else:
        try:
            report = io.compare_runs(old, new)
        except ValueError as exc:  # grids or row counts differ
            return f"not comparable: {exc}"
        table, new_columns = io.read_csv(old), io.read_csv(new).columns
        changed = []
        for c in report.columns:
            if not c.max_abs == 0.0:  # NaN counts as changed
                scale = float(np.max(np.abs(table[c.column]))) or 1.0
                changed.append(f"{c.column} {c.max_abs / scale:.2e}")
        changed += [f"new column {c}" for c in new_columns
                    if c not in table.columns]
        changed += [f"no column {c}" for c in table.columns
                    if c not in new_columns]
    return "changed: " + ", ".join(changed) if changed \
        else "same values, different bytes"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="artifacts")
    parser.add_argument("--against", metavar="DIR",
                        help="compare each CSV and audit JSON with DIR's")
    args = parser.parse_args()

    out, failures, written = pathlib.Path(args.out), 0, set()
    with tempfile.TemporaryDirectory() as tmp:
        runs = sorted(SCENARIOS.glob("*.json")) + [
            write_variant(tmp, *item) for item in VARIANTS.items()]
        for name, scenario in ((path.stem, str(path)) for path in runs):
            print(f"=== {name}")
            code = qbmlab_main(["--scenario", scenario, "--out", args.out])
            if code != 0:
                print(f"{name}: exit code {code}", file=sys.stderr)
                failures += 1
                continue
            manifest = json.loads((out / f"{name}_manifest.json").read_text())
            for new in map(pathlib.Path, manifest["outputs"]):
                written.add(new.name)
                if args.against:
                    old = pathlib.Path(args.against, new.name)
                    print(f"    {new.name}: {describe_change(new, old)}")
    if args.against:  # what one of these runs wrote there and no longer does
        stems = tuple(f"{path.stem}_" for path in runs)
        for old in sorted(pathlib.Path(args.against).glob("*")):
            if old.name.startswith(stems) and old.name not in written \
                    and old.name.endswith((".csv", "_audit.json")):
                print(f"only in {args.against}: {old.name}")

    # the shipped twins must agree on the mean trajectories: CL and CCL
    # to 1e-6, and QP, whose rotation leaves the means alone, with JZ
    for a, b, atol in (("cl_regime", "cl_vs_ccl", "1e-6"),
                       ("jz_decoherence", "qp_coupling", "1e-10")):
        if qbmlab_main(["--compare", f"{out}/{a}_moments.csv",
                        f"{out}/{b}_moments.csv",
                        "--columns", "mean_q,mean_p", "--atol", atol]) != 0:
            print(f"{a} vs {b} mean comparison failed", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
