"""Command-line harness: gen / solve / sweep / verify.

Exit codes: 0 success (and convergence for `solve`), 2 iteration limit,
1 any error, usage errors included. All output files embed the seed, the
git-describe string of the working tree (when available), and the full
configuration, so runs can be reproduced bit-identically; wall-clock
timings go to a separate timings file to keep the result CSVs
deterministic.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import (channel, oracle, optimizer, placement,
               scenario as scenario_mod, svg)
from .channel import ChannelParams
from .scenario import FleetConfig, Box, ScenarioError, check_integer

RESULTS_CSV_SCHEMA = "uavmec-sweep-v1"
METHODS = ("proposed", "hpo", "vpo", "clbo")


@functools.cache
def _git_describe():
    """git-describe string of the package's tree, once per process."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=Path(__file__).parent)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def cmd_gen(args):
    box = Box()
    fleet = FleetConfig(num_uavs=args.uavs, box=box)
    sc = scenario_mod.generate(args.seed, args.ues, fleet, ChannelParams())
    scenario_mod.save(sc, args.out)
    print(f"wrote {args.out} ({args.ues} UEs, {args.uavs} UAVs, "
          f"seed {args.seed})")
    return 0


def _csv_header(sc):
    return (f"# schema={RESULTS_CSV_SCHEMA} seed={sc.seed} "
            f"git={_git_describe()}\n")


def _write_csv(path, header, columns, rows):
    """The provenance header line, the column names, then one line per
    row of already formatted values."""
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _write_report(report, scenario_path, sc, config, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = report.method
    dep = report.deployment
    doc = {
        "method": report.method,
        "mu_s": report.mu,
        "mu_trace_s": list(report.mu_trace),
        "per_uav_times_s": report.per_uav_times.tolist(),
        "iterations": report.iterations,
        "converged": report.converged,
        "extras": report.extras,
        "scenario_file": str(scenario_path),
        "scenario_hash": _file_hash(scenario_path),
        "scenario_seed": sc.seed,
        "git_describe": _git_describe(),
        "config": dataclasses.asdict(config),
    }
    with open(out_dir / f"report_{tag}.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    _write_csv(out_dir / f"deployment_{tag}.csv", _csv_header(sc),
               ("uav_id", "x_m", "y_m", "h_m"),
               [(j, repr(float(x)), repr(float(y)), repr(float(h)))
                for j, ((x, y), h) in enumerate(zip(dep.q, dep.h))])
    _write_csv(out_dir / f"association_{tag}.csv", _csv_header(sc),
               ("ue_id", "uav_id"),
               enumerate(np.argmax(report.association, axis=1).tolist()))


def cmd_solve(args):
    try:
        sc = scenario_mod.load(args.scenario)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    methods = METHODS if args.method == "all" else (args.method,)
    worst = 0
    walls = []
    config = optimizer.OptimizerConfig(
        max_outer_iters=args.max_iters, rel_tol=args.tol,
        restarts=args.restarts, seed=args.seed)
    for method in methods:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = optimizer.solve(sc, method, config)
        _write_report(report, args.scenario, sc, config, args.out)
        walls.append((method, report.wall_s))
        # clbo's mu is its LoS-model objective; mu_eval is the outage-model
        # value of its deployment, the one to compare with the other methods
        mu_eval = (f", mu_eval={report.extras['mu_eval']:.6f} s"
                   if "mu_eval" in report.extras else "")
        print(f"{method}: mu={report.mu:.6f} s{mu_eval}, "
              f"iterations={report.iterations}, converged={report.converged}")
        if not report.converged:
            worst = max(worst, 2)
    _write_csv(Path(args.out) / "timings.csv", _csv_header(sc),
               ("method", "wall_ms"),
               [(method, f"{wall * 1e3:.1f}") for method, wall in walls])
    return worst


def _sweep_point(payload):
    sweep_var, value, method, n_ues, n_uavs, config = payload
    if sweep_var == "num_ues":
        n_ues = value
    else:
        n_uavs = value
    seed = config.seed
    sc = scenario_mod.generate(seed, n_ues, FleetConfig(num_uavs=n_uavs))
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = optimizer.solve(sc, method, config)
        mu = report.extras.get("mu_eval", report.mu) if method == "clbo" \
            else report.mu
        return (value, method, seed, mu, report.iterations, "ok",
                time.perf_counter() - t0)
    except Exception as exc:  # keep the sweep going; record the failure
        return (value, method, seed, float("nan"), 0,
                f"failed:{type(exc).__name__}", time.perf_counter() - t0)


def _spec_list(spec, key):
    values = spec[key]
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"sweep spec '{key}' must be a non-empty list")
    return list(values)


def run_sweep(spec: dict, out_dir, jobs=1):
    check_integer(jobs, "jobs", 1)
    if not isinstance(spec, dict):
        raise ValueError("sweep spec must be a JSON object")
    missing = [k for k in ("sweep_var", "values", "methods") if k not in spec]
    if missing:
        raise ValueError(f"sweep spec lacks {', '.join(missing)}")
    sweep_var = spec["sweep_var"]
    if sweep_var not in ("num_ues", "num_uavs"):
        raise ValueError("sweep_var must be num_ues or num_uavs")
    values = [check_integer(v, "values", 1)
              for v in _spec_list(spec, "values")]
    if values != sorted(set(values)):
        raise ValueError("sweep values must be strictly increasing")
    methods = _spec_list(spec, "methods")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown sweep methods {unknown}")
    if "seeds" in spec:
        seeds = _spec_list(spec, "seeds")
    else:
        base = check_integer(spec.get("base_seed", 0), "base_seed", 0)
        count = check_integer(spec.get("seeds_per_point", 1),
                              "seeds_per_point", 1)
        seeds = [base + k for k in range(count)]
    n_ues = check_integer(spec.get("num_ues", 30), "num_ues", 1)
    n_uavs = check_integer(spec.get("num_uavs", 5), "num_uavs", 1)
    config = optimizer.OptimizerConfig(
        max_outer_iters=spec.get("max_iters", 50),
        rel_tol=spec.get("rel_tol", 1e-4), restarts=spec.get("restarts", 1))
    configs = [dataclasses.replace(config, seed=s) for s in seeds]

    points = [(sweep_var, v, m, n_ues, n_uavs, c)
              for v in values for m in methods for c in configs]
    # the pool starts all its workers at once, so start no idle ones
    workers = min(jobs, len(points))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers) as ex:
            rows = list(ex.map(_sweep_point, points))
    else:
        rows = [_sweep_point(p) for p in points]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = (f"# schema={RESULTS_CSV_SCHEMA} git={_git_describe()} "
              f"spec={json.dumps(spec, sort_keys=True)}\n")
    key = ("sweep_var", "value", "method")
    _write_csv(out_dir / "results.csv", header,
               key + ("seed", "mu_s", "iters", "status"),
               [(sweep_var, value, method, seed, repr(mu), iters, status)
                for (value, method, seed, mu, iters, status, _wall) in rows])
    _write_csv(out_dir / "timings.csv", header, key + ("seed", "wall_ms"),
               [(sweep_var, value, method, seed, f"{wall * 1e3:.1f}")
                for (value, method, seed, _mu, _iters, _status, wall) in rows])

    # aggregate per (value, method)
    agg = {}
    for (value, method, seed, mu, _iters, status, _wall) in rows:
        if status == "ok":
            agg.setdefault((value, method), []).append(mu)
    _write_csv(out_dir / "aggregate.csv", header,
               key + ("mean_mu_s", "std_mu_s", "n"),
               [(sweep_var, value, method, repr(float(np.mean(mus))),
                 repr(float(np.std(mus))), len(mus))
                for (value, method), mus in sorted(agg.items())])

    series = []
    for method in methods:
        xs = [v for v in values if (v, method) in agg]
        ys = [float(np.mean(agg[(v, method)])) for v in xs]
        if xs:
            series.append((method, xs, ys))
    if series:
        chart = svg.line_chart(series, xlabel=sweep_var,
                               ylabel="mean completion time (s)",
                               title=f"completion time vs {sweep_var}")
        (out_dir / "chart.svg").write_text(chart)
    return rows


def cmd_sweep(args):
    try:
        spec = json.loads(Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run_sweep(spec, args.out, jobs=args.jobs)
    print(f"sweep complete; results in {args.out}")
    return 0


def _verify_checks(level):
    """Yield (name, passed, detail) for each verification suite."""
    n_samples = 10 ** 4 if level == "full" else 2000
    n_scen = 10 if level == "full" else 3
    # bound domination
    worst = -np.inf
    for k in range(n_scen):
        sc = scenario_mod.generate(100 + k, 10, FleetConfig(num_uavs=3))
        worst = max(worst, oracle.bound_domination_sample(sc, n_samples,
                                                          seed=k))
    yield ("bound-domination", worst <= 1e-9, f"max violation {worst:.3e}")

    # the bound coefficients against finite differences of the outage rate
    # in (v, squared horizontal distance) at a fixed altitude
    params = ChannelParams()
    gamma = params.gamma(0.1)
    rng = np.random.default_rng(0)
    max_err = 0.0
    n_pts = 1000 if level == "full" else 200
    for _ in range(n_pts):
        v_hat = rng.uniform(0.05, 0.999)
        sq_hat = rng.uniform(1.0, 1e4)
        h_hat = rng.uniform(40.0, 80.0)
        d_sq = sq_hat + h_hat ** 2
        ce, cq = placement.taylor_coefficients(v_hat, d_sq, gamma, params)
        e_hat = np.exp(-(params.k3 + params.k4 * v_hat))
        slopes = np.array([ce * params.k4 * e_hat, -cq])
        err = oracle.finite_diff_check(
            lambda p: float(channel.outage_rate(p[1], h_hat, p[0], 0.1,
                                                params)),
            lambda p: slopes, np.array([v_hat, sq_hat]),
            step=1e-6, scales=(1.0, d_sq))
        max_err = max(max_err, err)
    yield ("coefficient-finite-difference", max_err <= 1e-6,
           f"max rel error {max_err:.3e}")

    # small-instance grid comparison
    sc = scenario_mod.generate(5, 3, FleetConfig(num_uavs=2))
    grid = oracle.GridSpec(2.0, 1.0) if level == "fast" \
        else oracle.GridSpec(1.0, 0.5)
    ref = oracle.grid_search(sc, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = optimizer.solve_proposed(
            sc, optimizer.OptimizerConfig(restarts=5, seed=0))
    ratio = rep.mu / ref.mu
    yield ("small-instance-grid-gap", ratio <= 1.10,
           f"proposed/grid ratio {ratio:.4f}")


def cmd_verify(args):
    failed = 0
    for name, ok, detail in _verify_checks(args.level):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed += 1
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="uavmec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random scenario file")
    p.add_argument("--ues", type=int, required=True)
    p.add_argument("--uavs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("solve", help="solve one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--method", default="proposed",
                   choices=METHODS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default="sweep_out")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--level", default="fast", choices=("fast", "full"))
    p.set_defaults(fn=cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:          # --help exits 0, a usage error 2
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
