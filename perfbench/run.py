#!/usr/bin/env python3
"""uavmec benchmark: timed solves, output checks and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload large-assoc --seed 1 \
        --seconds 60 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``large-assoc``      -- ``proposed`` at 200 UEs / 10 UAVs, 1 restart;
* ``methods-sweep``    -- ``cli.run_sweep`` over 10/20/40 UEs, 3 UAVs, all
  four methods;
* ``midsize-proposed`` -- ``proposed`` at 50 UEs / 5 UAVs, 3 restarts. It
  runs by hand only: BENCHMARK.json leaves it out so that the two workloads
  it lists can measure longer.

The seed derives every scenario and restart seed; the program sees only the
generated scenarios. Load comes from this one process: sweeps run with
``jobs=1`` and BLAS is pinned to one thread before numpy is imported.

``--trace 0`` solves the workload's instances in turn, round and round,
for up to ``--seconds`` (at least one whole pass), and reports the
end-to-end metrics.
``--trace 1`` solves a fixed prefix of the instances twice, untraced and
traced, and reports the per-layer metrics from the traced solves plus the
tracing overhead. Every run checks each solve's output, records the
objective of each instance under ``perfbench/out/`` and fails if any
objective differs bit for bit from an earlier record of the same source
tree, from a repeat within the run, or between its traced and untraced
solve. The last line of standard output is one JSON object.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_report, geomean, median, objective
from tracing import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 5


@dataclass(frozen=True)
class Workload:
    """Instances of one workload; ``sweep`` units are run_sweep calls."""

    n_ues: int                # unused by the sweep, which sets it per point
    n_uavs: int
    restarts: int
    max_iters: int            # outer-iteration cap per restart
    units: int                # instances (or sweeps) per pass
    traced_units: int         # prefix solved by a --trace 1 run
    sweep: bool = False


# One pass over the units takes roughly 25-35 s on a 2-core x86-64 box. Every
# workload caps the outer iterations so that each restart does nearly the
# same work: the number of iterations a restart needs to converge varies
# from 2 to 8 between instances, which otherwise makes seed-to-seed spread
# larger than any bound worth having.
WORKLOADS = {
    "midsize-proposed": Workload(n_ues=50, n_uavs=5, restarts=3, max_iters=3,
                                 units=9, traced_units=4),
    "large-assoc": Workload(n_ues=200, n_uavs=10, restarts=1, max_iters=2,
                            units=5, traced_units=2),
    "methods-sweep": Workload(n_ues=0, n_uavs=3, restarts=1, max_iters=3,
                              units=6, traced_units=2, sweep=True),
}
SWEEP_VALUES = [10, 20, 40]
SWEEP_METHODS = ["proposed", "hpo", "vpo", "clbo"]


@dataclass
class Solved:
    key: str
    wall_s: float
    mu: float | None          # objective, None when the solve failed
    problems: list


def load_program():
    """Import uavmec from this checkout's ``src`` and time the import."""
    src = ROOT / "src"
    if not (src / "uavmec" / "__init__.py").is_file():
        raise SystemExit(f"error: no uavmec sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import uavmec
    import uavmec.cli
    import_s = time.perf_counter() - t0
    if Path(uavmec.__file__).resolve().parent != (src / "uavmec").resolve():
        raise SystemExit(f"error: imported uavmec from {uavmec.__file__}")
    return uavmec, import_s


def source_hash():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uavmec").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def instance_seeds(name, seed, count):
    tag = list(WORKLOADS).index(name)
    return [int(s) for s in np.random.default_rng([tag, seed]).integers(
        0, 2 ** 31, count)]


def build_units(uavmec, name, seed):
    """The run's inputs: scenarios (or sweep specs) derived from the seed."""
    wl = WORKLOADS[name]
    seeds = instance_seeds(name, seed, wl.units)
    if wl.sweep:
        return [{"sweep_var": "num_ues", "values": SWEEP_VALUES,
                 "methods": SWEEP_METHODS, "seeds": [s],
                 "num_uavs": wl.n_uavs, "restarts": wl.restarts,
                 "max_iters": wl.max_iters} for s in seeds]
    fleet = uavmec.FleetConfig(num_uavs=wl.n_uavs)
    return [uavmec.generate(s, wl.n_ues, fleet) for s in seeds]


def instance_key(scenario, method, restarts, max_iters):
    return (f"{method}/n{scenario.n_ues}/m{scenario.fleet.num_uavs}"
            f"/seed{scenario.seed}/r{restarts}/it{max_iters}")


def _checked(uavmec, scenario, method, restarts, max_iters, report, wall_s,
             error=None):
    key = instance_key(scenario, method, restarts, max_iters)
    if error is not None:
        return Solved(key, wall_s, None, [error])
    problems = check_report(uavmec, scenario, report)
    mu = None if problems else objective(report)
    return Solved(key, wall_s, mu, problems)


@contextlib.contextmanager
def capture_solves(uavmec):
    """Record every ``optimizer.solve`` call made while active (the sweep
    keeps only a row per point; the checks need the full report)."""
    calls = []
    original = vars(uavmec.optimizer)["solve"]

    def capturing(scenario, method, config=None):
        t0 = time.perf_counter()
        try:
            report = original(scenario, method, config)
        except Exception as exc:
            calls.append((scenario, method, config, None,
                          time.perf_counter() - t0,
                          f"raised {type(exc).__name__}: {exc}"))
            raise
        calls.append((scenario, method, config, report,
                      time.perf_counter() - t0, None))
        return report

    uavmec.optimizer.solve = capturing
    try:
        yield calls
    finally:
        uavmec.optimizer.solve = original


def run_unit(uavmec, name, unit, tracer=None, solve_id=0):
    """Solve one unit; returns (wall seconds, [Solved])."""
    wl = WORKLOADS[name]
    traced = (tracer.solve(uavmec, solve_id) if tracer is not None
              else contextlib.nullcontext())
    if wl.sweep:
        out_dir = OUT / "sweep" / name
        with capture_solves(uavmec) as calls, traced:
            t0 = time.perf_counter()
            rows = uavmec.cli.run_sweep(unit, out_dir, jobs=1)
            wall = time.perf_counter() - t0
        solved = []
        for row, call in zip(rows, calls):
            value, method, seed, row_mu, _iters, status, _wall = row
            scenario, c_method, config, report, c_wall, error = call
            s = _checked(uavmec, scenario, c_method, config.restarts,
                         config.max_outer_iters, report, c_wall, error)
            if (value, method, seed) != (scenario.n_ues, c_method,
                                         scenario.seed):
                s.problems.append("sweep row does not match its solve")
            elif status != "ok":
                s.problems.append(f"sweep row status {status}")
            elif s.mu is not None and row_mu != s.mu:
                s.problems.append(f"sweep row mu {row_mu!r} != {s.mu!r}")
            solved.append(s)
        if len(rows) != len(calls):
            solved.append(Solved(f"sweep/{unit['seeds']}", 0.0, None,
                                 ["sweep rows and solves differ"]))
        return wall, solved

    config = uavmec.OptimizerConfig(restarts=wl.restarts,
                                    max_outer_iters=wl.max_iters,
                                    seed=unit.seed)
    report, error = None, None
    with warnings.catch_warnings(), traced:
        warnings.simplefilter("ignore")
        t0 = time.perf_counter()
        try:
            report = uavmec.optimizer.solve(unit, "proposed", config)
        except Exception as exc:   # a failed solve is counted, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    return wall, [_checked(uavmec, unit, "proposed", wl.restarts,
                           wl.max_iters, report, wall, error)]


def warm_up(uavmec, name):
    """Two outer iterations of each method the workload uses, on a fixed
    scenario so that set-up time does not depend on the seed."""
    methods = SWEEP_METHODS if WORKLOADS[name].sweep else ["proposed"]
    sc = uavmec.generate(0, 6, uavmec.FleetConfig(num_uavs=2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in methods:
            uavmec.optimizer.solve(sc, method, uavmec.OptimizerConfig(
                restarts=1, max_outer_iters=2, seed=0))


def set_up(uavmec, name, seed):
    """Build the inputs and warm up, SETUP_REPS times; (units, [s])."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        units = build_units(uavmec, name, seed)
        warm_up(uavmec, name)
        times.append(time.perf_counter() - t0)
    return units, times


def mu_disagreements(solved):
    """Keys whose objective differs between solves in this run."""
    seen, bad = {}, set()
    for s in solved:
        if s.mu is None:
            continue
        if s.key in seen and seen[s.key] != s.mu:
            bad.add(s.key)
        seen.setdefault(s.key, s.mu)
    return seen, sorted(bad)


def update_mu_record(name, mus):
    """Merge this run's objectives into the record for this source tree;
    returns the keys that disagree with an earlier run."""
    path = OUT / "mu" / source_hash() / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = json.loads(path.read_text()) if path.exists() else {}
    bad = sorted(k for k, mu in mus.items()
                 if k in record and record[k] != mu.hex())
    record.update({k: mu.hex() for k, mu in mus.items() if k not in record})
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return bad


def timed_run(uavmec, name, units, seconds):
    """The units in turn, round and round, until the slowest unit seen so
    far would no longer end within ``seconds``; at least one whole pass."""
    solved, walls = [], []
    t_start = time.perf_counter()
    while True:
        wall, out = run_unit(uavmec, name, units[len(walls) % len(units)])
        walls.append(wall)
        solved.extend(out)
        elapsed = time.perf_counter() - t_start
        if len(walls) >= len(units) and elapsed + max(walls) > seconds:
            break
    ok = [s for s in solved if not s.problems]
    mus, _ = mu_disagreements(ok)
    metrics = {
        "solves_per_s": (len(ok) / elapsed, "1/s"),
        "solve_p50_s": (median(s.wall_s for s in solved), "s"),
        # over distinct instances, so that it does not depend on how many
        # repeats fit; 0 only when every solve failed, which also makes the
        # run incorrect
        "mu_geomean_s": (geomean(mus.values()) if mus else 0.0, "s"),
        "solved_frac": (len(ok) / len(solved), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    detail = {"elapsed_s": elapsed, "unit_walls_s": walls,
              "solve_walls_s": [s.wall_s for s in solved]}
    return solved, metrics, detail


def traced_run(uavmec, name, units):
    """Each unit of the traced prefix solved untraced, then traced."""
    tracer = Tracer()
    solved, plain_s, traced_s = [], 0.0, 0.0
    for i, unit in enumerate(units[:WORKLOADS[name].traced_units]):
        wall, out = run_unit(uavmec, name, unit)
        plain_s += wall
        solved.extend(out)
        wall, out = run_unit(uavmec, name, unit, tracer=tracer, solve_id=i)
        traced_s += wall
        solved.extend(out)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (1.0 - plain_s / traced_s, "fraction")
    detail = {"untraced_s": plain_s, "traced_s": traced_s,
              "counters": dict(tracer.counters),
              "spans": [[s.name, s.start, s.end, s.parent, s.solve]
                        for s in tracer.spans]}
    return solved, metrics, detail


LAYERS = ("scenario", "channel", "association", "lp", "placement",
          "barrier", "optimizer", "cli")


def layer_metrics(tracer):
    spans = tracer.spans
    selfs = self_times(spans)
    count, self_s, total_s = {}, {}, {}
    for span, own in zip(spans, selfs):
        count[span.name] = count.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        total_s[span.name] = total_s.get(span.name, 0.0) + (span.end
                                                             - span.start)
    c = tracer.counters
    solve_s = sum(s.end - s.start for s in spans if s.parent < 0)

    def n(name):
        return count.get(name, 0)

    def own(*names):
        return sum(self_s.get(k, 0.0) for k in names)

    def ratio(a, b):
        return a / b if b else 0.0

    def nonoptimal(layer):
        return sum(v for k, v in c.items()
                   if k.startswith(layer + ".status.")
                   and k != layer + ".status.optimal")

    ratios = [float(np.sum(rounded * times, axis=0).max()) / lp_obj
              for times, lp_obj, rounded in tracer.rounding]
    attempted = c["placement.accepted"] + c["placement.rejected"]
    m = {
        "barrier.calls": (n("barrier"), "count"),
        "barrier.newton_steps": (c["barrier.newton_steps"], "count"),
        "barrier.self_s": (own("barrier"), "s"),
        "barrier.s_per_newton": (ratio(own("barrier"),
                                       c["barrier.newton_steps"]), "s"),
        "barrier.nonoptimal": (nonoptimal("barrier"), "count"),
        "placement.horizontal_calls": (n("placement.horizontal"), "count"),
        "placement.horizontal_self_s": (own("placement.horizontal"), "s"),
        "placement.vertical_calls": (n("placement.vertical"), "count"),
        "placement.vertical_self_s": (own("placement.vertical"), "s"),
        "placement.expansion_calls": (n("placement.expansion"), "count"),
        "placement.true_time_calls": (n("placement.true_time"), "count"),
        "placement.rejected": (c["placement.rejected"], "count"),
        "placement.accept_ratio": (ratio(c["placement.accepted"], attempted),
                                   "fraction"),
        "lp.calls": (n("lp"), "count"),
        "lp.pivots": (c["lp.pivots"], "count"),
        "lp.self_s": (own("lp"), "s"),
        "lp.s_per_pivot": (ratio(own("lp"), c["lp.pivots"]), "s"),
        "lp.nonoptimal": (nonoptimal("lp"), "count"),
        # computed from the LP shape: 8 bytes per entry of the largest
        # dense tableau, not a measurement of memory
        "lp.tableau_bytes": (max((8 * r * k for r, k in tracer.lp_shapes),
                                 default=0), "B-computed"),
        "association.service_time_calls": (n("association.service_time"),
                                           "count"),
        "association.service_time_self_s": (own("association.service_time"),
                                            "s"),
        "association.relaxed_self_s": (own("association.relaxed"), "s"),
        "association.round_self_s": (own("association.round"), "s"),
        "association.int_over_lp": (median(ratios) if ratios else 0.0,
                                    "ratio"),
        "association.int_over_lp_n": (len(ratios), "count"),
        "association.rounding_regressions": (
            c["association.rounding_regressions"], "count"),
        "optimizer.outer_iters": (c["optimizer.outer_iters"], "count"),
        "optimizer.restarts": (n("optimizer.bcd"), "count"),
        "optimizer.outer_iter_s": (ratio(total_s.get("optimizer.bcd", 0.0),
                                         c["optimizer.outer_iters"]), "s"),
        "optimizer.completion_time_calls": (n("optimizer.completion_time"),
                                            "count"),
        "optimizer.kmeans_calls": (n("optimizer.kmeans"), "count"),
        "optimizer.self_s": (own("optimizer.solve", "optimizer.bcd"), "s"),
        "channel.rate_calls": (n("channel.rate"), "count"),
        "channel.rate_elems": (c["channel.rate_elems"], "count"),
        "channel.rate_self_s": (own("channel.rate"), "s"),
        "scenario.array_calls": (n("scenario.array"), "count"),
        "scenario.array_self_s": (own("scenario.array"), "s"),
    }
    for layer in LAYERS:
        layer_s = sum(v for k, v in self_s.items()
                      if k.split(".")[0] == layer)
        m[f"{layer}.share"] = (100.0 * ratio(layer_s, solve_s), "%")
    m["optimizer.kmeans_share"] = (100.0 * ratio(own("optimizer.kmeans"),
                                                 solve_s), "%")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    uavmec, import_s = load_program()
    units, setup_times = set_up(uavmec, args.workload, args.seed)
    if args.trace:
        solved, metrics, detail = traced_run(uavmec, args.workload, units)
    else:
        solved, metrics, detail = timed_run(uavmec, args.workload, units,
                                            args.seconds)
        metrics["setup_s"] = (import_s + median(setup_times), "s")
        detail.update(import_s=import_s, setup_reps_s=setup_times)

    mus, repeat_bad = mu_disagreements(solved)
    record_bad = update_mu_record(args.workload, mus)
    failed = [s for s in solved if s.problems]
    correct = not failed and not repeat_bad and not record_bad

    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": correct, "failed": [[s.key, s.problems] for s in failed],
        "mu_differs_within_run": repeat_bad,
        "mu_differs_from_record": record_bad,
        "mu": {k: v.hex() for k, v in sorted(mus.items())},
        "metrics": as_json, **detail,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report) + "\n")

    for key, problems in report["failed"]:
        print(f"FAILED {key}: {'; '.join(problems)}")
    for key in repeat_bad + record_bad:
        print(f"MU DIFFERS {key}")
    if not args.trace:
        print(f"failed_frac {len(failed) / len(solved):.6g} fraction")
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u}")
    print(json.dumps({"correct": correct, "attempted": len(solved),
                      "failed": len(failed), "metrics": as_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
