"""Monte-Carlo check of the stochastic unraveling against the moment ODEs.

Runs the corrected-CL unraveling at the requested size, integrates the
matching moment equations, and prints the worst z-score per moment, for
both S = 0 and S = D/2 noise relations.

Usage: python3 scripts/unraveling_check.py [--n-traj N] [--dt DT]
           [--t-max T] [--seed S] [--store-every K]
"""

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from qbmlab.dynamics import (
    MOMENTS,
    MasterEquationSpec,
    SystemSpec,
    ground_state_moments,
    integrate_moments,
)
from qbmlab.stochastic import SSEConfig, ensemble_run

GAMMA, T_BATH, MEAN_Q = 0.02, 2.0, 0.5


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-traj", type=int, default=10_000)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--t-max", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--store-every", type=int, default=1000)
    args = parser.parse_args()

    system = SystemSpec(m=1.0, omega_S=1.0)
    state0 = ground_state_moments(system, mean_q=MEAN_Q)
    spec = MasterEquationSpec("ccl", system, gamma=GAMMA, T=T_BATH)
    ode = integrate_moments(spec, state0, (0.0, args.t_max), args.dt,
                            store_every=args.store_every)

    base = SSEConfig(spec, dt=args.dt, n_traj=args.n_traj, seed=args.seed,
                     t_span=(0.0, args.t_max), store_every=args.store_every)
    worst_overall = 0.0
    for label, s_frac in (("S = 0", 0.0), ("S = D/2", 0.5)):
        config = replace(base, S_scalar=s_frac * base.D_scalar)
        t0 = time.perf_counter()
        result = ensemble_run(config, state0)
        walltime = time.perf_counter() - t0
        table = result.moment_table()
        print(f"--- {label}: {args.n_traj} trajectories in {walltime:.1f} s,"
              f" {len(result.failed_trajectories)} failed")
        for name, ref in zip(MOMENTS, ode.data.T):
            z = np.abs(table[name][1:] - ref[1:]) \
                / np.maximum(table["se_" + name][1:], 1e-12)
            worst = float(np.max(z))
            worst_overall = max(worst_overall, worst)
            print(f"    {name:7s} max |z| = {worst:.2f}")

    print(f"worst z over both runs: {worst_overall:.2f}")
    return 0 if worst_overall < 3.0 else 1


if __name__ == "__main__":
    sys.exit(main())
