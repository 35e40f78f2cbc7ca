"""Exact convergence of the noise-free constant-stepsize dynamics.

With the noise switched off (delta = 0) and a constant stepsize alpha with
alpha * beta = 1, the tracking-based update drives both the residual and the
consensus error to floating-point zero, and plain gradient descent on the
mixed states (DGD) stalls at a bias floor set by the stepsize. This script
prints all three trajectories side by side on one Erdos-Renyi instance.
"""

import argparse

from dpdopt.engine import run
from dpdopt.objective import random_problem
from dpdopt.schedule import ScheduleParams
from dpdopt.topology import connected_erdos_renyi, metropolis_weights


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=8000)
    parser.add_argument("--alpha", type=float, default=1.0 / 256.0)
    args = parser.parse_args()

    wm = metropolis_weights(connected_erdos_renyi(10, 0.5, 3))
    pr = random_problem(10, 5, 3, (0.5, 1.5), 42)
    sp = ScheduleParams(args.alpha, 1.0 / args.alpha, 0.97, 0.99, 1.0, 0.0)

    algorithms = ("alg1-noiseless-constant", "gt-noiseless", "dgd-noiseless-constant")
    # run returns a one-row Trace; keep the row
    traces = {alg: run(pr, wm, sp, alg, args.iterations, seed=0) for alg in algorithms}
    residual = {alg: tr.residual[0] for alg, tr in traces.items()}

    checkpoints = [0]
    k = 1
    while k < args.iterations:
        checkpoints.append(k)
        k *= 4
    checkpoints.append(args.iterations)

    print(f"{'k':>6} " + " ".join(f"{alg:>26}" for alg in algorithms))
    for k in checkpoints:
        row = " ".join(f"{residual[alg][k]:>26.6e}" for alg in algorithms)
        print(f"{k:>6} {row}")

    print()
    for alg in algorithms:
        print(f"{alg}: final residual {residual[alg][-1]:.3e}, "
              f"final consensus error {traces[alg].consensus_err[0, -1]:.3e}")
    floor_ratio = residual["dgd-noiseless-constant"][-1] / max(
        residual["alg1-noiseless-constant"][-1], 1e-300
    )
    print(f"DGD floor is {floor_ratio:.2e} times the tracking variant's residual")


if __name__ == "__main__":
    main()
