#!/usr/bin/env python3
"""Mean completion time vs number of UEs (at a fixed fleet size) or vs
fleet size (at a fixed number of UEs).

    python scripts/sweep.py --var num_ues  [--values 10 20 40 80] [--uavs 5]
    python scripts/sweep.py --var num_uavs [--values 5 6 7 8 9 10] [--ues 80]

Writes results.csv / aggregate.csv / timings.csv / chart.svg to --out.
"""

import argparse
import sys

from uavmec.cli import run_sweep

# per swept variable: default values, the fixed count's option, its spec
# key and default, and the default output directory
VARIANTS = {
    "num_ues": ([10, 20, 40, 80], "uavs", "num_uavs", 5, "sweep_ues"),
    "num_uavs": ([5, 6, 7, 8, 9, 10], "ues", "num_ues", 80, "sweep_uavs"),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--var", required=True, choices=VARIANTS)
    ap.add_argument("--values", type=int, nargs="+")
    ap.add_argument("--uavs", type=int,
                    help="fleet size of a num_ues sweep (default 5)")
    ap.add_argument("--ues", type=int,
                    help="number of UEs of a num_uavs sweep (default 80)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--restarts", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    values, option, fixed_key, fixed_default, out = VARIANTS[args.var]
    other = "ues" if option == "uavs" else "uavs"
    if getattr(args, other) is not None:
        ap.error(f"--{other} is the swept variable of --var {args.var}")
    fixed = getattr(args, option)
    out = args.out or out
    spec = {
        "sweep_var": args.var,
        "values": args.values or values,
        "methods": ["proposed", "hpo", "vpo", "clbo"],
        "seeds": list(range(args.seeds)),
        fixed_key: fixed_default if fixed is None else fixed,
        "restarts": args.restarts,
    }
    try:
        run_sweep(spec, out, jobs=args.jobs)
    except (ValueError, OSError) as exc:   # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"done; see {out}/aggregate.csv and {out}/chart.svg")
    return 0


if __name__ == "__main__":
    sys.exit(main())
