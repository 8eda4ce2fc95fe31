"""Output checks and summary statistics for the benchmark.

A solve counts as failed when it raised, when its sweep row is not ``ok``,
or when ``check_report`` finds anything wrong with what it returned.
"""

from __future__ import annotations

import math

import numpy as np

MU_REL_TOL = 1e-12


def geomean(values):
    values = [float(v) for v in values]
    if not values or any(not v > 0 for v in values):
        raise ValueError("geomean needs a non-empty list of positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values):
    values = sorted(float(v) for v in values)
    if not values:
        raise ValueError("median of an empty list")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


def _rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def objective(report):
    """The per-instance objective the benchmark records: the outage-model
    completion time, which for ``clbo`` is its re-evaluated ``mu_eval``."""
    if report.method == "clbo":
        return float(report.extras["mu_eval"])
    return float(report.mu)


def check_report(uavmec, scenario, report):
    """List of reasons the report is wrong; empty when it passes."""
    n, m = scenario.n_ues, scenario.fleet.num_uavs
    box = scenario.fleet.box
    problems = []
    a = np.asarray(report.association)
    if (a.shape != (n, m) or not np.isin(a, (0, 1)).all()
            or not (a.sum(axis=1) == 1).all()):
        problems.append("association is not one-hot N x M")
    q = np.asarray(report.deployment.q, dtype=float)
    h = np.asarray(report.deployment.h, dtype=float)
    if (q.shape != (m, 2) or h.shape != (m,)
            or not np.isfinite(q).all() or not np.isfinite(h).all()
            or (q[:, 0] < box.x_min).any() or (q[:, 0] > box.x_max).any()
            or (q[:, 1] < box.y_min).any() or (q[:, 1] > box.y_max).any()
            or (h < box.h_min).any() or (h > box.h_max).any()):
        problems.append("deployment outside the box")
    if problems:
        return problems            # recomputation needs a valid shape
    model = "los" if report.method == "clbo" else "rician"
    claims = [("mu", report.mu, model)]
    if report.method == "clbo":
        if "mu_eval" not in report.extras:
            return problems + ["clbo report has no mu_eval"]
        claims.append(("mu_eval", report.extras["mu_eval"], "rician"))
    for name, value, model in claims:
        value = float(value)
        if not (math.isfinite(value) and value > 0):
            problems.append(f"{name} is not finite and > 0")
            continue
        recomputed, _ = uavmec.optimizer.completion_time(
            scenario, report.deployment, report.association, model=model)
        if _rel_diff(value, recomputed) > MU_REL_TOL:
            problems.append(f"{name} {value!r} differs from the recomputed "
                            f"{recomputed!r}")
    return problems
