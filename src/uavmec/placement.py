"""Convex subproblems for the alternating placement steps, all UAVs at once.

Each step linearizes the rate model once around the current iterate (the
expansion point) and minimizes every UAV's completion time under the
resulting global lower bounds:

* horizontal step: the elevation sine is replaced by its tangent in
  s_i = ||q - w_i||^2 (a lower bound, since H / sqrt(s + H^2) is convex in
  s) and the rate by its concave lower bound in (exp(-(k3 + k4 v)), s);
* vertical step: the sine is kept exact, v_i = H / sqrt(s_i + H^2), and
  the rate is lower-bounded affinely in H^2.

In the epigraph form of either step the sine and rate bounds are tight at
the optimum, so both are eliminated in closed form: what remains is, per
UAV, a smooth convex function of q in R^2 (or of H in R) over the box.
The UAVs' problems are independent, so one call solves them all
(``horizontal_block``, ``vertical_block``): one Newton oracle for both
steps (``_Step.__call__``) evaluates the per-UE terms of every UAV at
once and sums them per UAV, and one projected Newton
(``projected_newton``) runs on all UAVs, row j for UAV j, each with its
own free set, line search and stopping rule. Each step supplies only its
geometry. The domain is the two floors alone, v >= V_FLOOR and
z >= Z_FLOOR. There each time a_i / z_i is at most data_bits_i / Z_FLOOR,
so every value is finite without a time cap, and scaling all data_bits
and cycles by one factor scales the objectives but not the optimum.
Rates are scaled by the expansion rates internally, so every scaled rate
bound equals 1 at the expansion point; all public values are in bits/s.

The expansion point carries the model, powers and parameters of its
rates, one row per UE. A descent safeguard rejects, UAV by UAV, any step
that would increase that UAV's true completion time, evaluated as the
expansion point at the returned positions; the solution hands that point
on (``BlockSolution.point``; a rejected UAV keeps its rows), so the next
step reuses its rates. ``solve_horizontal``, ``solve_vertical`` and
``solve_convex`` are the one-UAV (one-problem) forms of the same code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import channel
from .lp import SolveStatus, Status

# domain of the reduced steps: points below a floor count as +inf
V_FLOOR = 1e-6          # least elevation sine
Z_FLOOR = 1.0           # bits/s; keeps 1/z away from the pole


@dataclass(frozen=True)
class ExpansionPoint:
    """Distances, sines and rates of UEs at an iterate: one UAV's served
    UEs at its position, or one row per UE at that UE's UAV's position."""

    q_hat: np.ndarray          # (2,), or (S, 2) with one row per UE
    h_hat: float               # or (S,)
    ue_pos: np.ndarray         # (S, 2)
    horiz_sq_hat: np.ndarray   # (S,)
    d_sq_hat: np.ndarray       # (S,)
    v_hat: np.ndarray          # (S,)
    r_hat: np.ndarray          # (S,) bits/s
    gamma: np.ndarray          # (S,)
    tx_powers: np.ndarray      # (S,) watts
    params: channel.ChannelParams
    model: str                 # channel model the rates were evaluated under

    @classmethod
    def at(cls, q, h, ue_pos, tx_powers, params, model="rician"):
        """The point (q, h) for UEs at ue_pos. A (K, 2) q with (K,) h and
        K UEs gives K single-UE points at once, one per row."""
        q = np.asarray(q, dtype=float)
        ue_pos = np.atleast_2d(np.asarray(ue_pos, dtype=float))
        tx_powers = np.asarray(tx_powers, dtype=float)
        horiz_sq = np.sum((q - ue_pos) ** 2, axis=-1)
        d_sq = horiz_sq + h ** 2
        v = h / np.sqrt(d_sq)
        r = channel.rate(horiz_sq, h, tx_powers, params, model)
        return cls(q_hat=q, h_hat=np.float64(h), ue_pos=ue_pos,
                   horiz_sq_hat=horiz_sq, d_sq_hat=d_sq, v_hat=v, r_hat=r,
                   gamma=params.gamma(tx_powers) * np.ones_like(v),
                   tx_powers=tx_powers, params=params, model=model)


@dataclass(frozen=True)
class SubproblemSolution:
    position: np.ndarray       # new q (2,) or new H ()
    v: np.ndarray              # (S,) elevation-sine variables at the optimum
    z: np.ndarray              # (S,) rate variables, bits/s
    mu: float
    status: Status
    accepted: bool             # False if the descent safeguard kept the old point
    point: ExpansionPoint      # expansion point at the returned position


@dataclass(frozen=True)
class BlockSolution:
    """One placement step of all K UAVs; per-UE arrays are in UE order."""

    q: np.ndarray              # (K, 2) horizontal positions after the step
    h: np.ndarray              # (K,) altitudes after the step
    v: np.ndarray              # (N,) elevation-sine variables at the optimum
    z: np.ndarray              # (N,) rate variables, bits/s
    mu: np.ndarray             # (K,) step objectives (old times if rejected)
    status: np.ndarray         # (K,) Status of each UAV's Newton run
    accepted: np.ndarray       # (K,) False where the safeguard kept the
                               # old point
    point: ExpansionPoint      # per-UE expansion point at the new positions


def _exp_term(v, params):
    return np.exp(-(params.k3 + params.k4 * np.asarray(v, dtype=float)))


def taylor_coefficients(v_hat, d_sq_hat, gamma, params):
    """Magnitudes of the rate partials in the (exp-term, squared-distance)
    parametrization at the expansion point.

    Returns (coef_exp, coef_quad), both > 0: the rate lower bound is
    r_hat - coef_exp * (E(v) - E(v_hat)) - coef_quad * (s - s_hat) where
    E(v) = exp(-(k3 + k4 v)) and s is the linearized squared distance
    (horizontal in the horizontal step, H^2 in the vertical step).
    """
    e_hat = _exp_term(v_hat, params)
    x_cap = 1.0 + e_hat
    y_cap = np.asarray(d_sq_hat, dtype=float)
    a0 = params.pathloss_exp
    b = params.bandwidth_hz
    den = gamma * (params.k1 * x_cap + params.k2) + x_cap * y_cap ** (a0 / 2.0)
    ln2 = np.log(2.0)
    coef_exp = gamma * params.k2 * b / (ln2 * x_cap * den)
    coef_quad = (gamma * a0 * b * (params.k1 * x_cap + params.k2)
                 / (2.0 * ln2 * y_cap * den))
    return coef_exp, coef_quad


def los_coefficient(d_sq_hat, gamma, params):
    """Squared-distance coefficient of the pure-LoS rate bound."""
    y_cap = np.asarray(d_sq_hat, dtype=float)
    a0 = params.pathloss_exp
    den = gamma + y_cap ** (a0 / 2.0)
    return gamma * a0 * params.bandwidth_hz / (2.0 * np.log(2.0) * y_cap * den)


def psi_coefficients(exp_point: ExpansionPoint, params):
    """Rate-bound coefficients (per served UE) of both placement steps."""
    return taylor_coefficients(exp_point.v_hat, exp_point.d_sq_hat,
                               exp_point.gamma, params)


def r_lb_horizontal(horiz_sq, v, exp_point: ExpansionPoint, coeffs, params):
    """Rate lower bound at horizontal squared distance(s) and sine(s) v."""
    coef_exp, coef_quad = coeffs
    return (exp_point.r_hat
            - coef_exp * (_exp_term(v, params) - _exp_term(exp_point.v_hat, params))
            - coef_quad * (np.asarray(horiz_sq, dtype=float)
                           - exp_point.horiz_sq_hat))


def v_lb(horiz_sq, exp_point: ExpansionPoint):
    """Elevation-sine lower bound, affine in the horizontal squared distance."""
    slope = exp_point.h_hat / (2.0 * exp_point.d_sq_hat ** 1.5)
    return exp_point.v_hat - slope * (np.asarray(horiz_sq, dtype=float)
                                      - exp_point.horiz_sq_hat)


def r_lb_vertical(h, v, exp_point: ExpansionPoint, coeffs, params):
    """Rate lower bound at altitude h and sine(s) v (q fixed)."""
    coef_exp, coef_quad = coeffs
    h = np.asarray(h, dtype=float)
    return (exp_point.r_hat
            - coef_exp * (_exp_term(v, params) - _exp_term(exp_point.v_hat, params))
            - coef_quad * (h ** 2 - exp_point.h_hat ** 2))


def true_uav_time(q, h, ue_pos, data_bits, cycles, tx_powers, cpu_hz, params,
                  model="rician"):
    """Exact completion time of one UAV serving the given UEs at (q, h)."""
    ue_pos = np.atleast_2d(ue_pos)
    horiz_sq = np.sum((np.asarray(q, dtype=float)[None, :] - ue_pos) ** 2,
                      axis=-1)
    r = channel.rate(horiz_sq, h, tx_powers, params, model)
    return float(np.sum(data_bits / r + cycles / cpu_hz))


# ---------------------------------------------------------------------------
# reduced subproblems
# ---------------------------------------------------------------------------

NEWTON_TOL = 1e-8      # Newton decrement relative to the step's value
_MAX_NEWTON = 4000
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class NewtonRows:
    """Per-row result of ``projected_newton``."""

    x: np.ndarray              # (K, n) last iterates (clipped starts if
                               # infeasible there)
    objective: np.ndarray      # (K,) values at x (+inf if infeasible)
    status: np.ndarray         # (K,) Status
    iterations: np.ndarray     # (K,) Newton steps taken


def projected_newton(fun, x0, lo, hi) -> NewtonRows:
    """Minimize K independent smooth convex functions, one per row of x0
    (K, n), over the box [lo, hi].

    fun(x) returns per row (values (K,), gradients (K, n), Hessians
    (K, n, n)), the value +inf where the row is outside its function's
    domain. Projected Newton (Bertsekas, SIAM J. Control Optim. 20(2),
    1982), row by row: a coordinate on a bound whose gradient points out
    of the box stays there and the others take the Newton step of their
    own block (the system with the fixed rows and columns replaced by the
    identity). Should that step leave the box through a coordinate already
    on a bound, the gradient scaled by the Hessian diagonal is taken
    instead, so the projected path always descends. Armijo backtracking
    along the projected path; a row stops after the step whose Newton
    decrement -g.d / 2 was at most NEWTON_TOL times its value, or at a
    stationary point, and is frozen from then on. A row whose gradient is
    exactly zero stops as OPTIMAL before its Newton system is formed, so
    a constant row (zero Hessian too) never makes the solve singular.
    """
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lo), hi)
    f, g, hess = fun(x)
    k, n = x.shape
    status = np.full(k, Status.ITER_LIMIT, dtype=object)
    iterations = np.full(k, _MAX_NEWTON)
    live = np.isfinite(f)
    status[~live] = Status.INFEASIBLE
    iterations[~live] = 0

    def stop(rows, st, its):
        if rows.any():
            status[rows], iterations[rows] = st, its
            live[rows] = False

    for step in range(_MAX_NEWTON):
        if not live.any():
            break
        at_lo, at_hi = x <= lo, x >= hi
        # a constant row (g = 0, H = 0: a UAV with no UE) has no Newton step
        stop(live & ~g.any(axis=1), Status.OPTIMAL, step)
        free = live[:, None] & ~((at_lo & (g > 0)) | (at_hi & (g < 0))
                                 | (at_lo & at_hi))
        g_free = np.where(free, g, 0.0)
        d = -np.linalg.solve(
            np.where(free[:, :, None] & free[:, None, :], hess, np.eye(n)),
            g_free[..., None])[..., 0]
        out = free & ((at_lo & (d < 0)) | (at_hi & (d > 0))).any(
            axis=1, keepdims=True)
        if out.any():
            d[out] = -g[out] / np.diagonal(hess, axis1=1, axis2=2)[out]
        gap = -0.5 * np.sum(g_free * d, axis=1)
        stop(live & ~np.isfinite(gap), Status.NUMERICAL_FAILURE, step)
        stop(live & (gap <= 0.0), Status.OPTIMAL, step)
        search, alpha = live.copy(), 1.0
        for _ in range(_MAX_HALVINGS):
            if not search.any():
                break
            x_try = np.where(search[:, None],
                             np.minimum(np.maximum(x + alpha * d, lo), hi), x)
            f_try, g_try, h_try = fun(x_try)
            ok = search & (f_try <= f + _ARMIJO
                           * np.sum(g * (x_try - x), axis=1))
            if np.array_equal(ok, search):
                # the other rows were evaluated where they stand
                x, f, g, hess = x_try, f_try, g_try, h_try
                search[:] = False
                break
            x[ok], f[ok], g[ok], hess[ok] = (x_try[ok], f_try[ok], g_try[ok],
                                             h_try[ok])
            search &= ~ok
            alpha *= 0.5
        # rows still searching found no decrease in floating point
        small = gap <= NEWTON_TOL * np.abs(f)
        stop(search & small, Status.OPTIMAL, step + 1)
        stop(search & ~small, Status.NUMERICAL_FAILURE, step + 1)
        stop(live & small, Status.OPTIMAL, step + 1)
    return NewtonRows(x=x, objective=f, status=status, iterations=iterations)


def solve_convex(fun, x0, lo, hi) -> SolveStatus:
    """``projected_newton`` on one problem: fun(x) returns (value,
    gradient, Hessian) at x (n,), or a value of +inf outside its domain."""
    n = np.size(x0)

    def rows(x):
        f, g, hess = fun(x[0])
        if not np.isfinite(f):
            return np.array([np.inf]), np.zeros((1, n)), np.zeros((1, n, n))
        return (np.array([f], dtype=float), np.array(g, dtype=float)[None],
                np.array(hess, dtype=float)[None])

    res = projected_newton(rows, np.reshape(x0, (1, n)), lo, hi)
    if res.status[0] is Status.INFEASIBLE:
        return SolveStatus(Status.INFEASIBLE)
    return SolveStatus(res.status[0], objective=float(res.objective[0]),
                       x=res.x[0], iterations=int(res.iterations[0]))


class _Step:
    """One SCA step of every UAV at once, reduced to its placement
    coordinates: row j of x holds the coordinates of UAV j, which
    minimizes f_j(x_j) = sum_i a_i / z_i + c_fix over its UEs i, with the
    scaled rate bound
    z_i = 1 + ce_i (E(v_hat_i) - E(v_i)) - cq_i ds_i, E(v) = exp(-(k3 + k4 v)),
    and f_j = +inf where some v_i < V_FLOOR or z_i is below the scaled
    Z_FLOOR. A UAV that serves no UE has f_j = 0 with zero derivatives.

    ``exp_point`` holds one row per UE, expanded at its UAV's position;
    ``owner`` maps each UE to its UAV, which is also its row of x, and
    (q, h) are the positions of all UAVs. Per-UE terms are summed per UAV
    with ``np.bincount``, which adds each UAV's UEs in UE order, so a
    UAV's result does not depend on the others. Subclasses supply the
    geometry, ``geometry(x)`` -> (ds, v, grad ds, grad v, d2s, d2v) per
    UE, with (S, n) gradients and the Hessians of ds_i and v_i as per-UE
    multiples d2s, d2v of the identity, and set ``x_hat``, ``lo``/``hi``
    and ``place(x)`` -> (q, h).
    """

    def __init__(self, exp_point, owner, q, h, ue_data, box):
        data_bits, cycles, cpu_hz = ue_data
        ep = exp_point
        self.q = np.asarray(q, dtype=float)
        self.h = np.asarray(h, dtype=float)
        self.owner = np.asarray(owner)
        cols = 2 + self.n + self.n * self.n
        self._bins = (self.owner[:, None] * cols + np.arange(cols)).ravel()
        # the one place the model is decided; under LoS the rate bound
        # ignores the sine, so the horizontal step keeps it fixed
        if ep.model == "rician":
            coef_exp, coef_quad = psi_coefficients(ep, ep.params)
            self.sigma = ep.h_hat / (2.0 * ep.d_sq_hat ** 1.5)
        elif ep.model == "los":
            coef_exp = np.zeros_like(ep.r_hat)
            coef_quad = los_coefficient(ep.d_sq_hat, ep.gamma, ep.params)
            self.sigma = np.zeros_like(ep.r_hat)
        else:
            raise ValueError(f"unknown channel model '{ep.model}'")
        self.ep = ep
        self.k4 = ep.params.k4
        self.data_bits = data_bits
        self.c_ue = cycles / cpu_hz
        self.a = data_bits / ep.r_hat
        self.c_fix = self._sum(self.c_ue)
        self.ce = coef_exp / ep.r_hat
        self.ce_k4 = self.ce * self.k4
        self.cq = coef_quad / ep.r_hat
        self.e_hat = _exp_term(ep.v_hat, ep.params)
        self.z_min = Z_FLOOR / ep.r_hat

    def _sum(self, per_ue):
        """Per-UAV sums (one per row of x) of per-UE values."""
        return np.bincount(self.owner, weights=per_ue, minlength=self.h.size)

    def _rate_bound(self, ds, v):
        e = _exp_term(v, self.ep.params)
        return e, 1.0 + self.ce * (self.e_hat - e) - self.cq * ds

    def __call__(self, x):
        """Per row of x: (f, grad f, Hess f), f = +inf outside the domain.
        By the chain rule, grad z = ce k4 E grad v - cq grad ds and
        Hess z = ce k4 E (Hess v - k4 grad v grad v^T) - cq Hess ds."""
        k, n = x.shape
        s = self.a.size
        ds, v, g_ds, g_v, d2s, d2v = self.geometry(x)
        # UEs outside the domain get harmless stand-in values; their
        # UAV's value is +inf
        e, z = self._rate_bound(ds, np.maximum(v, V_FLOOR))
        outside = (v < V_FLOOR) | (z < self.z_min)
        z = np.where(outside, 1.0, z)
        w = self.a / z ** 2
        p = self.ce_k4 * e
        g_z = p[:, None] * g_v - self.cq[:, None] * g_ds
        hess = ((2.0 * w / z)[:, None, None]
                * g_z[:, :, None] * g_z[:, None, :]
                + (self.k4 * w * p)[:, None, None]
                * g_v[:, :, None] * g_v[:, None, :]
                + (w * (self.cq * d2s - p * d2v))[:, None, None] * np.eye(n))
        terms = np.empty((s, 2 + n + n * n))
        terms[:, 0] = self.a / z
        terms[:, 1] = outside
        terms[:, 2:2 + n] = -w[:, None] * g_z
        terms[:, 2 + n:] = hess.reshape(s, n * n)
        sums = np.bincount(self._bins, weights=terms.ravel(),
                           minlength=k * terms.shape[1]).reshape(k, -1)
        f = sums[:, 0] + self.c_fix
        f[(sums[:, 1] > 0) | ~(f < np.inf)] = np.inf
        return f, sums[:, 2:2 + n], sums[:, 2 + n:].reshape(k, n, n)

    def _point(self, x):
        q, h = self.place(x)
        ep = self.ep
        return ExpansionPoint.at(q[self.owner], h[self.owner], ep.ue_pos,
                                 ep.tx_powers, ep.params, ep.model)

    def _time(self, point):
        """Exact per-UAV completion times at an expansion point."""
        return self._sum(self.data_bits / point.r_hat + self.c_ue)

    def solve(self):
        """Minimize every UAV's step from the expansion point, then apply
        the descent safeguard UAV by UAV."""
        ep = self.ep
        res = projected_newton(self, self.x_hat, self.lo, self.hi)
        t_old = self._time(ep)
        ok = ((res.status != Status.INFEASIBLE)
              & (res.status != Status.NUMERICAL_FAILURE))
        x = np.where(ok[:, None], res.x, self.x_hat)
        point = self._point(x)
        accepted = ok & (self._time(point) <= t_old + 1e-9)
        if (ok & ~accepted).any():
            # a rejected UAV keeps its position, so its rows are unchanged
            x = np.where(accepted[:, None], x, self.x_hat)
            point = self._point(x)
        ds, v = self.geometry(x)[:2]
        kept = ~accepted[self.owner]
        z = np.where(kept, ep.r_hat, self._rate_bound(ds, v)[1] * ep.r_hat)
        q, h = self.place(x)
        return BlockSolution(q=q, h=h, v=np.where(kept, ep.v_hat, v), z=z,
                             mu=np.where(accepted, res.objective, t_old),
                             status=res.status, accepted=accepted, point=point)


class _Horizontal(_Step):
    """q alone, v_i = v_lb_i(q): with u_i = q - w_i, ds_i = |u_i|^2 - s_hat_i
    has gradient 2 u_i and Hessian 2 I, v_i = v_hat_i - sigma_i ds_i."""

    n = 2

    def __init__(self, exp_point, owner, q, h, ue_data, box):
        super().__init__(exp_point, owner, q, h, ue_data, box)
        self.d2v = -2.0 * self.sigma
        self.x_hat = self.q
        self.lo = np.array([box.x_min, box.y_min])
        self.hi = np.array([box.x_max, box.y_max])

    def geometry(self, x):
        ep = self.ep
        u = x[self.owner] - ep.ue_pos
        ds = np.einsum("ij,ij->i", u, u) - ep.horiz_sq_hat
        return (ds, ep.v_hat - self.sigma * ds, 2.0 * u,
                self.d2v[:, None] * u, 2.0, self.d2v)

    def place(self, x):
        return x, self.h


class _Vertical(_Step):
    """H alone, with the exact sine v_i = H / d_i, d_i^2 = s_i + H^2:
    ds_i = H^2 - H_hat^2, v_i' = s_i / d_i^3 and v_i'' = -3 s_i H / d_i^5."""

    n = 1

    def __init__(self, exp_point, owner, q, h, ue_data, box):
        super().__init__(exp_point, owner, q, h, ue_data, box)
        self.x_hat = self.h[:, None]
        self.lo = np.array([box.h_min])
        self.hi = np.array([box.h_max])

    def geometry(self, x):
        h = x[self.owner, 0]
        s = self.ep.horiz_sq_hat
        d_sq = s + h * h
        return (h * h - self.ep.h_hat ** 2, h / np.sqrt(d_sq),
                (2.0 * h)[:, None], (s / d_sq ** 1.5)[:, None], 2.0,
                -3.0 * s * h / d_sq ** 2.5)

    def place(self, x):
        return self.q, x[:, 0]


def horizontal_block(exp_point, owner, q, h, ue_data, box) -> BlockSolution:
    """One SCA step on the horizontal positions of all UAVs at fixed
    altitudes.

    exp_point has one row per UE, expanded at (q[owner], h[owner]); owner
    maps each UE to its UAV and ue_data is (data_bits, cycles, cpu_hz) per
    UE. A UAV that serves no UE is left where it is (status OPTIMAL,
    accepted, mu 0).
    """
    return _Horizontal(exp_point, owner, q, h, ue_data, box).solve()


def vertical_block(exp_point, owner, q, h, ue_data, box) -> BlockSolution:
    """One SCA step on the altitudes of all UAVs at fixed horizontal
    positions (arguments as for ``horizontal_block``)."""
    return _Vertical(exp_point, owner, q, h, ue_data, box).solve()


def _one_uav(block, exp_point, ue_data, box):
    ep = exp_point
    sol = block(ep, np.zeros(ep.r_hat.size, dtype=int), ep.q_hat[None],
                np.array([ep.h_hat]), ue_data, box)
    q, h = sol.q[0], np.float64(sol.h[0])
    point = (dataclasses.replace(sol.point, q_hat=q, h_hat=h)
             if sol.accepted[0] else ep)
    return SubproblemSolution(
        position=q if block is horizontal_block else h, v=sol.v, z=sol.z,
        mu=float(sol.mu[0]), status=sol.status[0],
        accepted=bool(sol.accepted[0]), point=point)


def solve_horizontal(exp_point: ExpansionPoint, ue_data, box):
    """``horizontal_block`` for the one UAV whose UEs exp_point holds.

    ue_data is (data_bits, cycles, cpu_hz) for the UEs of exp_point.
    """
    return _one_uav(horizontal_block, exp_point, ue_data, box)


def solve_vertical(exp_point: ExpansionPoint, ue_data, box):
    """``vertical_block`` for the one UAV whose UEs exp_point holds."""
    return _one_uav(vertical_block, exp_point, ue_data, box)
