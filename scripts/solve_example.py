#!/usr/bin/env python3
"""Solve one random scenario with every method and print a comparison.

Usage: python3 scripts/solve_example.py [--ues 30] [--uavs 3] [--seed 1]
"""

import argparse
import sys
import warnings

from uavmec.optimizer import OptimizerConfig, solve
from uavmec.scenario import FleetConfig, generate


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ues", type=int, default=30)
    ap.add_argument("--uavs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--restarts", type=int, default=3)
    args = ap.parse_args()

    try:
        sc = generate(args.seed, args.ues, FleetConfig(num_uavs=args.uavs))
        cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    except ValueError as exc:          # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"scenario: {args.ues} UEs, {args.uavs} UAVs, seed {args.seed}\n")
    print(f"{'method':<10} {'mu (s)':>10} {'iters':>6} {'wall (s)':>9}")
    for method in ("proposed", "hpo", "vpo", "clbo"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = solve(sc, method, cfg)
        mu = rep.extras.get("mu_eval", rep.mu) if method == "clbo" else rep.mu
        print(f"{method:<10} {mu:>10.4f} {rep.iterations:>6} {rep.wall_s:>9.2f}")
        if method == "clbo":
            print(f"{'':>10} (LoS-model objective {rep.extras['mu_los']:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
