"""Tests of the benchmark's own logic: self-time arithmetic, the summary
statistics, the output checks and the tracer's transparency.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from checks import check_report, geomean, median  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

uavmec, _ = run.load_program()


def test_self_times_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),       # overlaps a: union is [1, 6]
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),   # clipped to the parent's end
        Span("other", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_self_times_of_leaf_is_duration():
    assert self_times([Span("x", 1.5, 2.0, -1, 0)]) == [0.5]


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([3.0, 3.0, 3.0]) == pytest.approx(3.0)
    assert geomean([1e-3, 1e3]) == pytest.approx(1.0)
    for bad in ([], [1.0, 0.0], [2.0, -1.0]):
        with pytest.raises(ValueError):
            geomean(bad)


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([7.0]) == 7.0
    with pytest.raises(ValueError):
        median([])


def _solve(method="proposed"):
    sc = uavmec.generate(3, 6, uavmec.FleetConfig(num_uavs=2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = uavmec.optimizer.solve(
            sc, method, uavmec.OptimizerConfig(restarts=1, seed=3))
    return sc, report


@pytest.mark.parametrize("method", ["proposed", "hpo", "vpo", "clbo"])
def test_valid_reports_pass(method):
    sc, report = _solve(method)
    assert check_report(uavmec, sc, report) == []


def _corruptions(sc, report):
    box = sc.fleet.box
    two_ones = report.association.copy()
    two_ones[0, :] = 1
    yield "association", dataclasses.replace(report, association=two_ones)
    yield "association", dataclasses.replace(
        report, association=report.association[:-1])
    far = report.deployment.copy()
    far.q[0, 0] = box.x_max + 1.0
    yield "box", dataclasses.replace(report, deployment=far)
    low = report.deployment.copy()
    low.h[-1] = box.h_min - 1e-6
    yield "box", dataclasses.replace(report, deployment=low)
    yield "mu", dataclasses.replace(report, mu=report.mu * (1 + 1e-9))
    yield "mu", dataclasses.replace(report, mu=float("nan"))
    yield "mu", dataclasses.replace(report, mu=-report.mu)


def test_corrupted_reports_count_as_failures():
    sc, report = _solve()
    for what, bad in _corruptions(sc, report):
        solved = run._checked(uavmec, sc, "proposed", 1, 50, bad, 0.1)
        assert solved.problems, what
        assert solved.mu is None, what


def test_clbo_without_mu_eval_fails():
    sc, report = _solve("clbo")
    bad = dataclasses.replace(report, extras={"mu_los": report.mu})
    assert check_report(uavmec, sc, bad) == ["clbo report has no mu_eval"]
    off = dataclasses.replace(report, extras={
        "mu_los": report.mu, "mu_eval": report.extras["mu_eval"] * 1.001})
    assert check_report(uavmec, sc, off)


def test_raised_solve_counts_as_failure():
    sc, _ = _solve()
    solved = run._checked(uavmec, sc, "proposed", 1, 50, None, 0.1,
                          error="raised RuntimeError: boom")
    assert solved.problems == ["raised RuntimeError: boom"]


def test_tracer_is_transparent_and_restores_attributes():
    sc = uavmec.generate(5, 8, uavmec.FleetConfig(num_uavs=2))
    config = uavmec.OptimizerConfig(restarts=2, seed=5)
    before = {name: vars(mod)[name] for mod, name in [
        (uavmec.placement, "solve_convex"), (uavmec.association, "solve_lp"),
        (uavmec.optimizer, "warnings"), (uavmec.optimizer, "_bcd")]}
    at = vars(uavmec.placement.ExpansionPoint)["at"]
    positions = vars(uavmec.scenario.Scenario)["positions"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plain = uavmec.optimizer.solve(sc, "proposed", config)
    tracer = Tracer()
    with tracer.solve(uavmec, 0):
        traced = uavmec.optimizer.solve(sc, "proposed", config)
    assert traced.mu.hex() == plain.mu.hex()
    assert np.array_equal(traced.association, plain.association)
    for (mod, name) in [(uavmec.placement, "solve_convex"),
                        (uavmec.association, "solve_lp"),
                        (uavmec.optimizer, "warnings"),
                        (uavmec.optimizer, "_bcd")]:
        assert vars(mod)[name] is before[name]
    assert vars(uavmec.placement.ExpansionPoint)["at"] is at
    assert vars(uavmec.scenario.Scenario)["positions"] is positions

    metrics = run.layer_metrics(tracer)
    assert metrics["optimizer.restarts"][0] == 2
    assert metrics["optimizer.outer_iters"][0] >= 2
    assert metrics["barrier.calls"][0] == (
        metrics["placement.horizontal_calls"][0]
        + metrics["placement.vertical_calls"][0])
    assert metrics["lp.calls"][0] == metrics["association.int_over_lp_n"][0]
    assert metrics["lp.tableau_bytes"][0] == 8 * (8 + 2) * (8 * 2 + 1 + 10)
    shares = sum(metrics[f"{layer}.share"][0] for layer in run.LAYERS)
    assert shares == pytest.approx(100.0)
    assert all(math.isfinite(v) for v, _ in metrics.values())
