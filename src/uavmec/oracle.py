"""Independent brute-force references and numerical checks.

Nothing here shares code paths with the solvers being checked: the grid
search evaluates the exact completion time at every grid node, the
association enumerator tries every binary assignment, and the derivative
and bound checks use central finite differences and random sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import channel, placement
from .optimizer import Deployment
from .scenario import Scenario


@dataclass(frozen=True)
class GridSpec:
    horizontal_step: float = 1.0
    vertical_step: float = 0.5

    def __post_init__(self):
        if not (self.horizontal_step > 0 and self.vertical_step > 0):
            raise ValueError("grid steps must be > 0")


@dataclass
class OracleResult:
    mu: float
    deployment: Deployment
    association: np.ndarray
    nodes_evaluated: int


class OracleTooLarge(ValueError):
    """Instance exceeds the brute-force guards."""


def _grid_axes(box, grid: GridSpec):
    xs = np.arange(box.x_min, box.x_max + 1e-9, grid.horizontal_step)
    ys = np.arange(box.y_min, box.y_max + 1e-9, grid.horizontal_step)
    hs = np.arange(box.h_min, box.h_max + 1e-9, grid.vertical_step)
    return xs, ys, hs


def grid_search(scenario: Scenario, grid: GridSpec | None = None,
                max_assoc=10 ** 5, max_nodes=10 ** 7) -> OracleResult:
    """Exhaustive minimum over binary associations x per-UAV grid positions.

    Positions decouple across UAVs once the association is fixed, so the
    cost is (#associations) * M * (#grid nodes), not nodes^M.
    """
    grid = grid or GridSpec()
    n, m = scenario.n_ues, scenario.fleet.num_uavs
    if m ** n > max_assoc:
        raise OracleTooLarge(f"{m}^{n} associations exceed the guard")
    box = scenario.fleet.box
    xs, ys, hs = _grid_axes(box, grid)
    n_nodes = xs.size * ys.size * hs.size
    if n_nodes > max_nodes:
        raise OracleTooLarge(f"{n_nodes} grid nodes exceed the guard")

    gx, gy, gh = np.meshgrid(xs, ys, hs, indexing="ij")
    gx, gy, gh = gx.ravel(), gy.ravel(), gh.ravel()
    # per-UE upload+compute time at every node
    per_ue = np.empty((n, n_nodes))
    for i, ue in enumerate(scenario.ues):
        horiz_sq = (gx - ue.x) ** 2 + (gy - ue.y) ** 2
        r = channel.rate(horiz_sq, gh, ue.tx_power_w, scenario.channel,
                         "rician")
        per_ue[i] = ue.data_bits / r + ue.cycles / scenario.fleet.cpu_hz

    best_mu = np.inf
    best = None
    for labels in itertools.product(range(m), repeat=n):
        labels = np.asarray(labels)
        per_uav_mu = np.zeros(m)
        nodes = np.zeros(m, dtype=int)
        for j in range(m):
            mask = labels == j
            if not mask.any():
                continue
            totals = per_ue[mask].sum(axis=0)
            k = int(np.argmin(totals))
            per_uav_mu[j] = totals[k]
            nodes[j] = k
        mu = float(per_uav_mu.max())
        if mu < best_mu - 1e-15:
            best_mu = mu
            best = (labels.copy(), nodes.copy())

    labels, nodes = best
    dep = Deployment(q=np.column_stack([gx[nodes], gy[nodes]]), h=gh[nodes])
    assoc = np.zeros((n, m), dtype=int)
    assoc[np.arange(n), labels] = 1
    return OracleResult(mu=best_mu, deployment=dep, association=assoc,
                        nodes_evaluated=int(m ** n) * m * n_nodes)


def enumerate_associations(times, max_assoc=10 ** 6):
    """Exact integer optimum of the fixed-deployment assignment problem."""
    times = np.asarray(times, dtype=float)
    n, m = times.shape
    if m ** n > max_assoc:
        raise OracleTooLarge(f"{m}^{n} associations exceed the guard")
    best_mu = np.inf
    best = None
    for labels in itertools.product(range(m), repeat=n):
        per_uav = np.zeros(m)
        for i, j in enumerate(labels):
            per_uav[j] += times[i, j]
        mu = per_uav.max()
        if mu < best_mu - 1e-15:
            best_mu = mu
            best = labels
    assoc = np.zeros((n, m), dtype=int)
    assoc[np.arange(n), np.asarray(best)] = 1
    return float(best_mu), assoc


def finite_diff_check(function, gradient, point, step=1e-5, scales=None):
    """Max relative error of an analytic gradient vs central differences.

    The step is relative to each coordinate's scale: its magnitude by
    default, or the entries of ``scales`` (useful when the point is the
    origin of a shifted parametrization).
    """
    point = np.asarray(point, dtype=float)
    analytic = np.asarray(gradient(point), dtype=float)
    numeric = np.empty_like(analytic)
    for k in range(point.size):
        scale = (max(1.0, abs(point[k])) if scales is None
                 else float(scales[k]))
        hk = step * scale
        ek = np.zeros_like(point)
        ek[k] = hk
        numeric[k] = (function(point + ek) - function(point - ek)) / (2 * hk)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    scale[scale == 0] = 1.0
    return float(np.max(np.abs(analytic - numeric) / scale))


def bound_domination_sample(scenario: Scenario, n_samples=10 ** 4, seed=0):
    """Max over random feasible samples of (lower bound - true value), for
    the horizontal rate bound, the sine bound, and the vertical rate bound.

    Each sample draws a UE, an expansion point (q_hat, h), a horizontal
    position q with a sine v, and an altitude with a sine; the bounds are
    then evaluated over all samples at once, one expansion point per row.
    """
    rng = np.random.default_rng(seed)
    box = scenario.fleet.box
    params = scenario.channel
    draws = np.array([
        (rng.integers(scenario.n_ues),
         rng.uniform(box.x_min, box.x_max), rng.uniform(box.y_min, box.y_max),
         rng.uniform(box.h_min, box.h_max),
         rng.uniform(box.x_min, box.x_max), rng.uniform(box.y_min, box.y_max),
         rng.uniform(1e-3, 1.0),
         rng.uniform(box.h_min, box.h_max), rng.uniform(1e-3, 1.0))
        for _ in range(n_samples)])
    ue = draws[:, 0].astype(int)
    h, v, h_new, v2 = draws[:, 3], draws[:, 6], draws[:, 7], draws[:, 8]
    w = scenario.positions[ue]
    tx = scenario.tx_powers[ue]
    ep = placement.ExpansionPoint.at(draws[:, 1:3], h, w, tx, params)
    coeffs = placement.psi_coefficients(ep, params)
    sq = np.sum((draws[:, 4:6] - w) ** 2, axis=-1)
    lb = placement.r_lb_horizontal(sq, v, ep, coeffs, params)
    vb = placement.v_lb(sq, ep)
    lbv = placement.r_lb_vertical(h_new, v2, ep, coeffs, params)
    # true rates at the horizontal samples (row 0) and vertical ones (row 1)
    true = channel.outage_rate(np.stack([sq, ep.horiz_sq_hat]),
                               np.stack([h, h_new]), np.stack([v, v2]), tx,
                               params)
    return float(max(np.max(lb - true[0]),
                     np.max(vb - h / np.sqrt(sq + h ** 2)),
                     np.max(lbv - true[1])))
