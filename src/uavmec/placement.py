"""Per-UAV convex subproblems for the alternating placement steps.

Each call linearizes the rate model once around the current iterate (the
expansion point) and minimizes the UAV's completion time under the
resulting global lower bounds:

* horizontal step: the elevation sine is replaced by its tangent in
  s_i = ||q - w_i||^2 (a lower bound, since H / sqrt(s + H^2) is convex in
  s) and the rate by its concave lower bound in (exp(-(k3 + k4 v)), s);
* vertical step: the sine is kept exact, v_i = H / sqrt(s_i + H^2), and
  the rate is lower-bounded affinely in H^2.

In the epigraph form of either step the sine and rate bounds are tight at
the optimum, so both are eliminated in closed form: what remains is a
smooth convex function of q in R^2 (or of H in R) over the box, minimized
by projected Newton (``solve_convex``) with one Newton oracle for both
steps (``_Step.__call__``); each step supplies only its geometry. Rates
are scaled by the expansion rates internally, so every scaled rate bound
equals 1 at the expansion point; all public values are in bits/s.

The expansion point carries the model, powers and parameters of its
rates. A descent safeguard rejects any step that would increase the true
completion time, evaluated as the expansion point at the returned
position; the solution hands that point on (``SubproblemSolution.point``,
the input point after a rejection), so the next step reuses its rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel
from .lp import SolveStatus, Status

# domain of the reduced steps: points where a bound leaves it count as +inf
V_FLOOR = 1e-6          # least elevation sine
Z_FLOOR = 1.0           # bits/s; keeps 1/z away from the pole
MU_CAP = 1e9            # seconds


@dataclass(frozen=True)
class ExpansionPoint:
    """Distances, sines and rates of one UAV's served UEs at an iterate."""

    q_hat: np.ndarray          # (2,)
    h_hat: float
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
_OUTSIDE = (np.inf, None, None)


def solve_convex(fun, x0, lo, hi) -> SolveStatus:
    """Minimize a smooth convex function over the box [lo, hi] from x0.

    fun(x) returns (value, gradient, Hessian), or a value of +inf outside
    the function's domain. Projected Newton (Bertsekas, SIAM J. Control
    Optim. 20(2), 1982): a coordinate on a bound whose gradient points out
    of the box stays there and the others take the Newton step of their
    own block. Should that step leave the box through a coordinate already
    on a bound, the gradient scaled by the Hessian diagonal is taken
    instead, so the projected path always descends. Armijo backtracking
    along the projected path; the run stops after the step whose Newton
    decrement -g.d / 2 was at most NEWTON_TOL times the value, or at a
    stationary point.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g, hess = fun(x)
    if not np.isfinite(f):
        return SolveStatus(Status.INFEASIBLE)
    for step in range(_MAX_NEWTON):
        at_lo, at_hi = x <= lo, x >= hi
        free = ~((at_lo & (g > 0)) | (at_hi & (g < 0)) | (at_lo & at_hi))
        d = np.zeros_like(x)
        if free.any():
            d[free] = -np.linalg.solve(hess[np.ix_(free, free)], g[free])
            if np.any((at_lo & (d < 0)) | (at_hi & (d > 0))):
                d[free] = -g[free] / np.diag(hess)[free]
        gap = -0.5 * float(g @ d)
        if not np.isfinite(gap):
            return SolveStatus(Status.NUMERICAL_FAILURE, objective=f, x=x,
                               iterations=step)
        if gap <= 0.0:
            return SolveStatus(Status.OPTIMAL, objective=f, x=x,
                               kkt_residual=0.0, iterations=step)
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            x_new = np.clip(x + alpha * d, lo, hi)
            f_new, g_new, h_new = fun(x_new)
            if f_new <= f + _ARMIJO * float(g @ (x_new - x)):
                break
            alpha *= 0.5
        else:
            # no decrease left to find in floating point
            status = (Status.OPTIMAL if gap <= NEWTON_TOL * abs(f)
                      else Status.NUMERICAL_FAILURE)
            return SolveStatus(status, objective=f, x=x, kkt_residual=gap,
                               iterations=step + 1)
        x, f, g, hess = x_new, f_new, g_new, h_new
        if gap <= NEWTON_TOL * abs(f):
            return SolveStatus(Status.OPTIMAL, objective=f, x=x,
                               kkt_residual=gap, iterations=step + 1)
    return SolveStatus(Status.ITER_LIMIT, objective=f, x=x,
                       iterations=_MAX_NEWTON)


class _Step:
    """One SCA step reduced to its placement coordinates x: minimize
    f(x) = sum_i a_i / z_i + c_fix, with the scaled rate bound
    z_i = 1 + ce_i (E(v_hat_i) - E(v_i)) - cq_i ds_i, E(v) = exp(-(k3 + k4 v)).

    Subclasses supply the geometry, ``geometry(x)`` -> (ds, v, grad ds,
    grad v, d2s, d2v) with (S, n) gradients and the Hessians of ds_i and v_i
    as per-UE multiples d2s, d2v of the identity, and set ``x_hat``,
    ``lo``/``hi``, ``place(x)`` -> (q, h) and ``position(x)``.
    """

    def __init__(self, exp_point, ue_data):
        data_bits, cycles, cpu_hz = ue_data
        ep = exp_point
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
        self.c_fix = float(np.sum(self.c_ue))
        self.ce = coef_exp / ep.r_hat
        self.cq = coef_quad / ep.r_hat
        self.e_hat = _exp_term(ep.v_hat, ep.params)
        self.z_min = Z_FLOOR / ep.r_hat

    def _rate_bound(self, ds, v):
        e = _exp_term(v, self.ep.params)
        return e, 1.0 + self.ce * (self.e_hat - e) - self.cq * ds

    def __call__(self, x):
        """(f, grad f, Hess f) at x, or +inf outside the domain. By the
        chain rule, grad z = ce k4 E grad v - cq grad ds and
        Hess z = ce k4 E (Hess v - k4 grad v grad v^T) - cq Hess ds."""
        ds, v, g_ds, g_v, d2s, d2v = self.geometry(x)
        if np.any(v < V_FLOOR):
            return _OUTSIDE
        e, z = self._rate_bound(ds, v)
        if np.any(z < self.z_min):
            return _OUTSIDE
        f = float(np.sum(self.a / z)) + self.c_fix
        if not f <= MU_CAP:
            return _OUTSIDE
        w = self.a / z ** 2
        p = self.ce * self.k4 * e
        g_z = p[:, None] * g_v - self.cq[:, None] * g_ds
        hess = ((g_z.T * (2.0 * w / z)) @ g_z
                + (g_v.T * (self.k4 * w * p)) @ g_v
                + float(np.sum(w * (self.cq * d2s - p * d2v)))
                * np.eye(x.size))
        return f, -(w @ g_z), hess

    def time(self, point):
        """Exact completion time at an expansion point of these UEs."""
        return float(np.sum(self.data_bits / point.r_hat + self.c_ue))

    def solve(self):
        """Minimize from the expansion point, then apply the descent
        safeguard."""
        ep = self.ep
        t_old = self.time(ep)
        res = solve_convex(self, self.x_hat, self.lo, self.hi)
        if res.x is not None and res.status not in (Status.INFEASIBLE,
                                                    Status.NUMERICAL_FAILURE):
            q, h = self.place(res.x)
            point = ExpansionPoint.at(q, h, ep.ue_pos, ep.tx_powers,
                                      ep.params, ep.model)
            if self.time(point) <= t_old + 1e-9:
                ds, v = self.geometry(res.x)[:2]
                z = self._rate_bound(ds, v)[1]
                return SubproblemSolution(
                    position=self.position(res.x), v=v, z=z * ep.r_hat,
                    mu=res.objective, status=res.status, accepted=True,
                    point=point)
        return SubproblemSolution(position=self.position(self.x_hat),
                                  v=ep.v_hat.copy(), z=ep.r_hat.copy(),
                                  mu=t_old, status=res.status, accepted=False,
                                  point=ep)


class _Horizontal(_Step):
    """q alone, v_i = v_lb_i(q): with u_i = q - w_i, ds_i = |u_i|^2 - s_hat_i
    has gradient 2 u_i and Hessian 2 I, v_i = v_hat_i - sigma_i ds_i."""

    def __init__(self, exp_point, ue_data, box):
        super().__init__(exp_point, ue_data)
        self.x_hat = exp_point.q_hat
        self.lo = np.array([box.x_min, box.y_min])
        self.hi = np.array([box.x_max, box.y_max])

    def geometry(self, q):
        ep = self.ep
        u = q - ep.ue_pos
        ds = np.einsum("ij,ij->i", u, u) - ep.horiz_sq_hat
        return (ds, ep.v_hat - self.sigma * ds, 2.0 * u,
                (-2.0 * self.sigma)[:, None] * u, 2.0, -2.0 * self.sigma)

    def place(self, q):
        return q, self.ep.h_hat

    def position(self, q):
        return q.copy()


class _Vertical(_Step):
    """H alone, with the exact sine v_i = H / d_i, d_i^2 = s_i + H^2:
    ds_i = H^2 - H_hat^2, v_i' = s_i / d_i^3 and v_i'' = -3 s_i H / d_i^5."""

    def __init__(self, exp_point, ue_data, box):
        super().__init__(exp_point, ue_data)
        self.x_hat = np.array([exp_point.h_hat])
        self.lo = np.array([box.h_min])
        self.hi = np.array([box.h_max])

    def geometry(self, x):
        h = x[0]
        s = self.ep.horiz_sq_hat
        d_sq = s + h * h
        ds = np.full_like(s, h * h - self.ep.h_hat ** 2)
        return (ds, h / np.sqrt(d_sq), np.full((s.size, 1), 2.0 * h),
                (s / d_sq ** 1.5)[:, None], 2.0, -3.0 * s * h / d_sq ** 2.5)

    def place(self, x):
        return self.ep.q_hat, x[0]

    def position(self, x):
        return np.float64(x[0])


def solve_horizontal(exp_point: ExpansionPoint, ue_data, box):
    """One SCA step on a UAV's horizontal position at fixed altitude.

    ue_data is (data_bits, cycles, cpu_hz) for the UEs of exp_point.
    """
    return _Horizontal(exp_point, ue_data, box).solve()


def solve_vertical(exp_point: ExpansionPoint, ue_data, box):
    """One SCA step on a UAV's altitude at fixed horizontal position."""
    return _Vertical(exp_point, ue_data, box).solve()
