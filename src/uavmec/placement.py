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
smooth convex function of q in R^2 (or of H in R) over the box, with an
analytic Hessian, minimized by projected Newton (``solve_convex``). Rates
are scaled by the expansion rates internally, so every scaled rate bound
equals 1 at the expansion point; all public values are in bits/s.

A descent safeguard re-evaluates the true completion time at the
returned position and rejects any step that would increase it.
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

    @classmethod
    def at(cls, q, h, ue_pos, tx_powers, params, model="rician"):
        q = np.asarray(q, dtype=float)
        ue_pos = np.atleast_2d(np.asarray(ue_pos, dtype=float))
        horiz_sq = np.sum((q[None, :] - ue_pos) ** 2, axis=-1)
        d_sq = horiz_sq + h ** 2
        v = h / np.sqrt(d_sq)
        r = channel.rate(horiz_sq, h, tx_powers, params, model)
        return cls(q_hat=q, h_hat=float(h), ue_pos=ue_pos,
                   horiz_sq_hat=horiz_sq, d_sq_hat=d_sq, v_hat=v, r_hat=r,
                   gamma=np.asarray(params.gamma(tx_powers), dtype=float)
                   * np.ones_like(v))


@dataclass(frozen=True)
class SubproblemSolution:
    position: np.ndarray       # new q (2,) or new H ()
    v: np.ndarray              # (S,) elevation-sine variables at the optimum
    z: np.ndarray              # (S,) rate variables, bits/s
    mu: float
    status: Status
    accepted: bool             # False if the descent safeguard kept the old point


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

_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_OUTSIDE = (np.inf, None, None)


def solve_convex(fun, x0, lo, hi, tol=1e-8, max_newton=4000) -> SolveStatus:
    """Minimize a smooth convex function over the box [lo, hi] from x0.

    fun(x) returns (value, gradient, Hessian), or a value of +inf outside
    the function's domain. Projected Newton (Bertsekas, SIAM J. Control
    Optim. 20(2), 1982): a coordinate on a bound whose gradient points out
    of the box stays there and the others take the Newton step of their
    own block. Should that step leave the box through a coordinate already
    on a bound, the gradient scaled by the Hessian diagonal is taken
    instead, so the projected path always descends. Armijo backtracking
    along the projected path; the run stops after the step whose Newton
    decrement -g.d / 2 was at most tol times the value, or at a
    stationary point.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g, hess = fun(x)
    if not np.isfinite(f):
        return SolveStatus(Status.INFEASIBLE)
    for step in range(max_newton):
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
            status = (Status.OPTIMAL if gap <= tol * abs(f)
                      else Status.NUMERICAL_FAILURE)
            return SolveStatus(status, objective=f, x=x, kkt_residual=gap,
                               iterations=step + 1)
        x, f, g, hess = x_new, f_new, g_new, h_new
        if gap <= tol * abs(f):
            return SolveStatus(Status.OPTIMAL, objective=f, x=x,
                               kkt_residual=gap, iterations=step + 1)
    return SolveStatus(Status.ITER_LIMIT, objective=f, x=x,
                       iterations=max_newton)


class _Step:
    """One SCA step reduced to its placement coordinates x.

    Subclasses set the expansion coordinates ``x_hat`` and the box
    ``lo``/``hi``, and define ``at(x)`` -> (v, z, ...) giving the sine and
    scaled rate bounds (or None where a sine bound leaves the domain),
    ``__call__`` for ``solve_convex``, ``place(x)`` -> (q, h) and
    ``position(x)``, the public position at x.
    """

    def __init__(self, exp_point, ue_data, params, model):
        data_bits, cycles, _, cpu_hz = ue_data
        r_hat = exp_point.r_hat
        if model == "rician":
            coef_exp, coef_quad = taylor_coefficients(
                exp_point.v_hat, exp_point.d_sq_hat, exp_point.gamma, params)
        else:
            coef_exp = np.zeros_like(r_hat)
            coef_quad = los_coefficient(exp_point.d_sq_hat, exp_point.gamma,
                                        params)
        self.ep = exp_point
        self.ue_data = ue_data
        self.params = params
        self.model = model
        self.a = data_bits / r_hat
        self.c_fix = float(np.sum(cycles / cpu_hz))
        self.ce = coef_exp / r_hat
        self.cq = coef_quad / r_hat
        self.e_hat = _exp_term(exp_point.v_hat, params)
        self.z_min = Z_FLOOR / r_hat

    def _value(self, terms):
        """Objective sum a/z + c_fix and the weights a/z^2, or None outside
        the domain."""
        if terms is None:
            return None
        z = terms[1]
        if np.any(z < self.z_min):
            return None
        f = float(np.sum(self.a / z)) + self.c_fix
        if not f <= MU_CAP:
            return None
        return f, self.a / z ** 2

    def true_time(self, x):
        data_bits, cycles, tx_powers, cpu_hz = self.ue_data
        q, h = self.place(x)
        return true_uav_time(q, h, self.ep.ue_pos, data_bits, cycles,
                             tx_powers, cpu_hz, self.params, self.model)

    def solve(self, tol, max_newton):
        """Minimize from the expansion point, then apply the descent
        safeguard."""
        t_old = self.true_time(self.x_hat)
        res = solve_convex(self, self.x_hat, self.lo, self.hi, tol=tol,
                           max_newton=max_newton)
        if (res.x is None
                or res.status in (Status.INFEASIBLE, Status.NUMERICAL_FAILURE)
                or self.true_time(res.x) > t_old + 1e-9):
            return SubproblemSolution(position=self.position(self.x_hat),
                                      v=self.ep.v_hat.copy(),
                                      z=self.ep.r_hat.copy(), mu=t_old,
                                      status=res.status, accepted=False)
        v, z = self.at(res.x)[:2]
        return SubproblemSolution(position=self.position(res.x), v=v,
                                  z=z * self.ep.r_hat, mu=res.objective,
                                  status=res.status, accepted=True)


class _Horizontal(_Step):
    """q alone: v_i = v_lb_i(q), z_i = r_lb_i(q, v_i) / r_hat_i.

    With u_i = q - w_i, z_i has gradient -2 p_i u_i and Hessian
    -4 rho_i u_i u_i^T - 2 p_i I, where p = ce k4 sigma E + cq and
    rho = ce k4^2 sigma^2 E, so the objective's Hessian
    sum (2a/z^3) grad z grad z^T - (a/z^2) Hess z is positive definite.
    Under the LoS model ce = 0 and the sine plays no part (sigma = 0).
    """

    def __init__(self, exp_point, ue_data, box, params, model):
        super().__init__(exp_point, ue_data, params, model)
        self.sigma = (exp_point.h_hat / (2.0 * exp_point.d_sq_hat ** 1.5)
                      if model == "rician" else 0.0)
        self.x_hat = exp_point.q_hat
        self.lo = np.array([box.x_min, box.y_min])
        self.hi = np.array([box.x_max, box.y_max])

    def at(self, q):
        ep = self.ep
        u = q - ep.ue_pos
        ds = np.einsum("ij,ij->i", u, u) - ep.horiz_sq_hat
        v = ep.v_hat - self.sigma * ds
        if np.any(v < V_FLOOR):
            return None
        e = _exp_term(v, self.params)
        return v, 1.0 + self.ce * (self.e_hat - e) - self.cq * ds, u, e

    def __call__(self, q):
        terms = self.at(q)
        value = self._value(terms)
        if value is None:
            return _OUTSIDE
        f, w = value
        _, z, u, e = terms
        k4s = self.params.k4 * self.sigma
        p = self.ce * k4s * e + self.cq
        rho = self.ce * k4s ** 2 * e
        grad = 2.0 * (w * p) @ u
        hess = ((u.T * (8.0 * w * p ** 2 / z + 4.0 * w * rho)) @ u
                + 2.0 * float(np.sum(w * p)) * np.eye(2))
        return f, grad, hess

    def place(self, q):
        return q, self.ep.h_hat

    def position(self, q):
        return q.copy()


class _Vertical(_Step):
    """H alone: v_i = H / sqrt(s_i + H^2) exactly, z_i = r_lb_i(H, v_i) /
    r_hat_i, concave in H, so the objective's second derivative is > 0."""

    def __init__(self, exp_point, ue_data, box, params, model):
        super().__init__(exp_point, ue_data, params, model)
        self.x_hat = np.array([exp_point.h_hat])
        self.lo = np.array([box.h_min])
        self.hi = np.array([box.h_max])

    def at(self, x):
        ep = self.ep
        h = x[0]
        d_sq = ep.horiz_sq_hat + h * h
        v = h / np.sqrt(d_sq)
        if np.any(v < V_FLOOR):
            return None
        e = _exp_term(v, self.params)
        z = (1.0 + self.ce * (self.e_hat - e)
             - self.cq * (h * h - ep.h_hat ** 2))
        return v, z, d_sq, e

    def __call__(self, x):
        terms = self.at(x)
        value = self._value(terms)
        if value is None:
            return _OUTSIDE
        f, w = value
        _, z, d_sq, e = terms
        h = x[0]
        s = self.ep.horiz_sq_hat
        k4 = self.params.k4
        dv = s / d_sq ** 1.5
        d2v = -3.0 * s * h / d_sq ** 2.5
        dz = self.ce * k4 * e * dv - 2.0 * self.cq * h
        d2z = self.ce * k4 * e * (d2v - k4 * dv ** 2) - 2.0 * self.cq
        grad = -float(np.sum(w * dz))
        curv = float(np.sum(w * (2.0 * dz ** 2 / z - d2z)))
        return f, np.array([grad]), np.array([[curv]])

    def place(self, x):
        return self.ep.q_hat, x[0]

    def position(self, x):
        return np.float64(x[0])


def solve_horizontal(exp_point: ExpansionPoint, ue_data, box, params,
                     tol=1e-8, max_newton=4000, model="rician"):
    """One SCA step on a UAV's horizontal position at fixed altitude.

    ue_data is (data_bits, cycles, tx_powers, cpu_hz) for the served UEs.
    """
    return _Horizontal(exp_point, ue_data, box, params,
                       model).solve(tol, max_newton)


def solve_vertical(exp_point: ExpansionPoint, ue_data, box, params,
                   tol=1e-8, max_newton=4000, model="rician"):
    """One SCA step on a UAV's altitude at fixed horizontal position."""
    return _Vertical(exp_point, ue_data, box, params,
                     model).solve(tol, max_newton)
