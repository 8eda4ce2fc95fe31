"""Outer block-coordinate loop and baseline methods.

The proposed method alternates, per outer iteration: (1) association by
relaxed LP + rounding, (2) the horizontal SCA step of every UAV, (3) the
vertical SCA step of every UAV, until the min-max completion time stops
improving. Each SCA step is one call for all UAVs, whose subproblems are
independent.

Baselines:
* hpo  — horizontal-only, altitudes pinned at HPO_ALTITUDE (60 m);
* vpo  — k-means horizontal placement + nearest-centroid association,
  altitude-only optimization;
* clbo — the full loop under the idealized pure-LoS rate; its report
  carries both the LoS-model objective and the deployment re-evaluated
  under the outage-rate model.
"""

from __future__ import annotations

import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import association as assoc_mod
from . import placement
from .scenario import Scenario, check_integer

HPO_ALTITUDE = 60.0      # meters; hpo pins every UAV here (clipped to the box)
_KMEANS_ITERS = 100      # Lloyd iterations at most


@dataclass
class Deployment:
    q: np.ndarray        # (M, 2)
    h: np.ndarray        # (M,)

    def copy(self):
        return Deployment(q=self.q.copy(), h=self.h.copy())

    def clipped(self, box):
        return Deployment(
            q=np.column_stack([np.clip(self.q[:, 0], box.x_min, box.x_max),
                               np.clip(self.q[:, 1], box.y_min, box.y_max)]),
            h=np.clip(self.h, box.h_min, box.h_max))


@dataclass
class OptimizerConfig:
    max_outer_iters: int = 50
    rel_tol: float = 1e-4
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        for name, least in (("max_outer_iters", 1), ("restarts", 1),
                            ("seed", 0)):
            check_integer(getattr(self, name), name, least)
        if (isinstance(self.rel_tol, bool)
                or not isinstance(self.rel_tol, numbers.Real)
                or not 0 < self.rel_tol < np.inf):
            raise ValueError(f"rel_tol must be a finite number > 0, "
                             f"got {self.rel_tol!r}")


@dataclass
class SolveReport:
    method: str
    mu: float
    mu_trace: list
    deployment: Deployment
    association: np.ndarray
    per_uav_times: np.ndarray
    iterations: int
    wall_s: float
    converged: bool
    # per-UAV (v, z) variables of the last vertical subproblem, for
    # constraint-tightness diagnostics; None for methods without them
    tightness: list | None = None
    extras: dict = field(default_factory=dict)


def _loads(association, times):
    """(mu, per-UAV seconds) of an association under a service-time matrix."""
    per_uav = np.sum(np.asarray(association) * times, axis=0)
    return float(per_uav.max()), per_uav


def completion_time(scenario: Scenario, deployment: Deployment,
                    association, model="rician"):
    """(mu, per-UAV seconds) for a binary association; empty UAVs take 0."""
    return _loads(association, assoc_mod.service_time_matrix(
        scenario, deployment, model=model))


def kmeans(points, k, seed=0):
    """Lloyd's algorithm with k-means++ seeding; returns (centroids, labels).

    A cluster left empty takes the point farthest from its own centroid
    (lowest index on ties) among clusters with more than one point, so no
    cluster stays empty while another holds two points. With k > n the
    k - n extra clusters stay empty at duplicate seed points.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, 2))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c] = points[rng.integers(n)]
        else:
            centroids[c] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[c]) ** 2, axis=1))
    labels = np.zeros(n, dtype=int)
    for _ in range(_KMEANS_ITERS):
        dist = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2,
                      axis=-1)
        new_labels = np.argmin(dist, axis=1)
        _fill_empty_clusters(new_labels, dist, k)
        for c in range(k):
            mask = new_labels == c
            if mask.any():
                centroids[c] = points[mask].mean(axis=0)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return centroids, labels


def _fill_empty_clusters(labels, dist, k):
    """Move into each empty cluster, in index order, the point farthest
    from its centroid among clusters of two or more points (in place)."""
    sizes = np.bincount(labels, minlength=k)
    for c in np.flatnonzero(sizes == 0):
        movable = sizes[labels] > 1
        if not movable.any():
            return
        own = np.where(movable, dist[np.arange(len(labels)), labels], -1.0)
        i = int(np.argmax(own))
        sizes[labels[i]] -= 1
        sizes[c] += 1
        labels[i] = c


def _random_deployment(scenario, rng) -> Deployment:
    box = scenario.fleet.box
    m = scenario.fleet.num_uavs
    q = np.column_stack([rng.uniform(box.x_min, box.x_max, m),
                         rng.uniform(box.y_min, box.y_max, m)])
    h = rng.uniform(box.h_min, box.h_max, m)
    return Deployment(q=q, h=h)


def _bcd(scenario, config, init: Deployment, model="rician",
         do_horizontal=True, do_vertical=True, fixed_association=None):
    """Core alternating loop; returns a SolveReport without the method tag.

    Each deployment's service-time matrix is computed once: the matrix at
    the end of an iteration gives its mu and the next association. Each
    placement step is one block call for all UAVs, on one expansion point
    with a row per UE; the vertical step hands on each UE's (v, z) for the
    report's tightness diagnostics.
    """
    box = scenario.fleet.box
    dep = init.clipped(box)
    m = scenario.fleet.num_uavs
    data = (scenario.data_bits, scenario.cycles, scenario.fleet.cpu_hz)
    association = fixed_association
    if fixed_association is None:
        times = assoc_mod.service_time_matrix(scenario, dep, model=model)
    mu_prev = np.inf
    trace = []
    vertical = None
    converged = False
    for _ in range(config.max_outer_iters):
        if fixed_association is None:
            frac = assoc_mod.solve_relaxed(times)[0]
            new_assoc = assoc_mod.round_association(frac)
            # rounding can regress; keep the incumbent if it is better
            if (association is not None and _loads(new_assoc, times)[0]
                    > _loads(association, times)[0] + 1e-12):
                warnings.warn("association rounding regressed; keeping "
                              "incumbent assignment", stacklevel=2)
                new_assoc = association
            association = new_assoc
        # one expansion row per UE, at its UAV's position
        owner = np.argmax(association, axis=1)
        ep = placement.ExpansionPoint.at(
            dep.q[owner], dep.h[owner], scenario.positions,
            scenario.tx_powers, scenario.channel, model)
        if do_horizontal:
            sol = placement.horizontal_block(ep, owner, dep.q, dep.h, data,
                                             box)
            dep.q, ep = sol.q, sol.point
        if do_vertical:
            vertical = placement.vertical_block(ep, owner, dep.q, dep.h, data,
                                                box)
            dep.h = vertical.h
        times = assoc_mod.service_time_matrix(scenario, dep, model=model)
        mu, per_uav = _loads(association, times)
        trace.append(mu)
        if mu_prev < np.inf and abs(mu_prev - mu) <= config.rel_tol * max(
                mu_prev, 1e-12):
            converged = True
            break
        mu_prev = mu
    tightness = [None] * m
    if vertical is not None:
        for j in range(m):
            served = np.flatnonzero(owner == j)
            if served.size:
                tightness[j] = (served, vertical.v[served],
                                vertical.z[served], bool(vertical.accepted[j]))
    return SolveReport(method="", mu=mu, mu_trace=trace, deployment=dep,
                       association=association, per_uav_times=per_uav,
                       iterations=len(trace), wall_s=0.0, converged=converged,
                       tightness=tightness)


def _best_of_restarts(scenario, config, runner):
    rng = np.random.default_rng(config.seed)
    best = None
    t0 = time.perf_counter()
    for _ in range(config.restarts):
        init = _random_deployment(scenario, rng)
        report = runner(init)
        if best is None or report.mu < best.mu:
            best = report
    best.wall_s = time.perf_counter() - t0
    return best


def solve_proposed(scenario: Scenario, config: OptimizerConfig | None = None):
    config = config or OptimizerConfig()
    report = _best_of_restarts(
        scenario, config, lambda init: _bcd(scenario, config, init))
    report.method = "proposed"
    return report


def solve_hpo(scenario: Scenario, config: OptimizerConfig | None = None):
    config = config or OptimizerConfig()
    box = scenario.fleet.box
    h_fix = float(np.clip(HPO_ALTITUDE, box.h_min, box.h_max))

    def runner(init):
        init.h[:] = h_fix
        return _bcd(scenario, config, init, do_vertical=False)

    report = _best_of_restarts(scenario, config, runner)
    report.method = "hpo"
    return report


def solve_vpo(scenario: Scenario, config: OptimizerConfig | None = None):
    config = config or OptimizerConfig()
    t0 = time.perf_counter()
    m = scenario.fleet.num_uavs
    centroids, labels = kmeans(scenario.positions, m, seed=config.seed)
    association = np.zeros((scenario.n_ues, m), dtype=int)
    association[np.arange(scenario.n_ues), labels] = 1
    box = scenario.fleet.box
    init = Deployment(q=centroids.copy(),
                      h=np.full(m, 0.5 * (box.h_min + box.h_max)))
    report = _bcd(scenario, config, init, do_horizontal=False,
                  fixed_association=association)
    report.method = "vpo"
    report.wall_s = time.perf_counter() - t0
    return report


def solve_clbo(scenario: Scenario, config: OptimizerConfig | None = None):
    config = config or OptimizerConfig()
    report = _best_of_restarts(
        scenario, config, lambda init: _bcd(scenario, config, init,
                                            model="los"))
    report.method = "clbo"
    mu_eval, per_uav_eval = completion_time(scenario, report.deployment,
                                            report.association)
    report.extras = {"mu_los": report.mu, "mu_eval": mu_eval}
    return report


_METHODS = {
    "proposed": solve_proposed,
    "hpo": solve_hpo,
    "vpo": solve_vpo,
    "clbo": solve_clbo,
}


def solve(scenario: Scenario, method: str,
          config: OptimizerConfig | None = None) -> SolveReport:
    try:
        fn = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method '{method}'") from None
    return fn(scenario, config)
