"""Run every shipped scenario and summarize the manifests.

Usage: python3 scripts/run_all_scenarios.py [--out DIR]
"""

import argparse
import json
import pathlib
import sys

from qbmlab.cli import main as qbmlab_main

SCENARIOS = ("jz_decoherence", "cl_regime", "cl_vs_ccl", "ccl_unraveling",
             "hpz_audit", "qp_coupling")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="artifacts")
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

    # the shipped CL and CCL twins must agree on the mean trajectories
    code = qbmlab_main(["--compare",
                        f"{args.out}/cl_regime_moments.csv",
                        f"{args.out}/cl_vs_ccl_moments.csv",
                        "--columns", "mean_q,mean_p", "--atol", "1e-6"])
    if code != 0:
        print("cl_regime vs cl_vs_ccl mean comparison failed",
              file=sys.stderr)
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
