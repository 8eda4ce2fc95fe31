"""The placement steps as epigraph programs for the log-barrier reference.

This is the formulation the reduced steps in ``uavmec.placement`` were
derived from: variables (q or H, v_i, z_i, mu), minimize mu subject to
sum a_i / z_i + c <= mu, the rate bounds on z_i and the sine bounds on v_i,
with v_i in [V_FLOOR, 1] and z_i >= Z_FLOOR (scaled by the expansion rates).
The tests solve it with ``barrier.solve_convex`` and compare.
"""

import numpy as np

from barrier import ConstraintBlock, ConvexProgram, solve_convex
from uavmec import placement
from uavmec.placement import V_FLOOR, Z_FLOOR

MU_MAX = 1e9            # seconds; upper bound of the epigraph variable mu


class _TimeBlock(ConstraintBlock):
    """sum_i a_i / zeta_i + c_fix - mu <= 0 (single constraint)."""

    def __init__(self, a, c_fix, n, z_sl, mu_ix):
        self.a = a
        self.c_fix = c_fix
        self.n = n
        self.z_sl = z_sl
        self.mu_ix = mu_ix

    def value(self, x):
        return np.array([np.sum(self.a / x[self.z_sl]) + self.c_fix - x[self.mu_ix]])

    def jacobian(self, x):
        jac = np.zeros((1, self.n))
        jac[0, self.z_sl] = -self.a / x[self.z_sl] ** 2
        jac[0, self.mu_ix] = -1.0
        return jac

    def hessian(self, x, w):
        h = np.zeros((self.n, self.n))
        zi = np.arange(*self.z_sl.indices(self.n))
        h[zi, zi] = w[0] * 2.0 * self.a / x[self.z_sl] ** 3
        return h


class _QuadExpBlock(ConstraintBlock):
    """zeta_i + ce_i * E(v_i) + cq_i * ||q - w_i||^2 <= rhs_i (per UE).

    With ce = 0 and no v variables this degenerates to the LoS bound.
    """

    def __init__(self, ce, cq, rhs, w_pos, params, n, q_sl, v_sl, z_sl):
        self.ce = ce
        self.cq = cq
        self.rhs = rhs
        self.w_pos = w_pos
        self.params = params
        self.n = n
        self.q_sl = q_sl
        self.v_sl = v_sl      # None for the LoS variant
        self.z_sl = z_sl

    def value(self, x):
        q = x[self.q_sl]
        sq = np.sum((q[None, :] - self.w_pos) ** 2, axis=-1)
        out = x[self.z_sl] + self.cq * sq - self.rhs
        if self.v_sl is not None:
            out = out + self.ce * placement._exp_term(x[self.v_sl], self.params)
        return out

    def jacobian(self, x):
        q = x[self.q_sl]
        s = q[None, :] - self.w_pos
        m = len(self.cq)
        jac = np.zeros((m, self.n))
        jac[:, self.q_sl] = 2.0 * self.cq[:, None] * s
        zi = np.arange(*self.z_sl.indices(self.n))
        jac[np.arange(m), zi] = 1.0
        if self.v_sl is not None:
            vi = np.arange(*self.v_sl.indices(self.n))
            jac[np.arange(m), vi] = (-self.params.k4 * self.ce
                                     * placement._exp_term(x[self.v_sl], self.params))
        return jac

    def hessian(self, x, w):
        h = np.zeros((self.n, self.n))
        qi = np.arange(*self.q_sl.indices(self.n))
        h[qi, qi] += 2.0 * np.sum(w * self.cq)
        if self.v_sl is not None:
            vi = np.arange(*self.v_sl.indices(self.n))
            h[vi, vi] += (w * self.params.k4 ** 2 * self.ce
                          * placement._exp_term(x[self.v_sl], self.params))
        return h


class _VBoundBlock(ConstraintBlock):
    """v_i + c_i * ||q - w_i||^2 <= rhs_i (horizontal sine bound)."""

    def __init__(self, coef, rhs, w_pos, n, q_sl, v_sl):
        self.coef = coef
        self.rhs = rhs
        self.w_pos = w_pos
        self.n = n
        self.q_sl = q_sl
        self.v_sl = v_sl

    def value(self, x):
        q = x[self.q_sl]
        sq = np.sum((q[None, :] - self.w_pos) ** 2, axis=-1)
        return x[self.v_sl] + self.coef * sq - self.rhs

    def jacobian(self, x):
        q = x[self.q_sl]
        s = q[None, :] - self.w_pos
        m = len(self.coef)
        jac = np.zeros((m, self.n))
        jac[:, self.q_sl] = 2.0 * self.coef[:, None] * s
        vi = np.arange(*self.v_sl.indices(self.n))
        jac[np.arange(m), vi] = 1.0
        return jac

    def hessian(self, x, w):
        h = np.zeros((self.n, self.n))
        qi = np.arange(*self.q_sl.indices(self.n))
        h[qi, qi] += 2.0 * np.sum(w * self.coef)
        return h


class _SineBlock(ConstraintBlock):
    """v_i - H / sqrt(a3_i + H^2) <= 0 (exact, convex for H > 0)."""

    def __init__(self, a3, n, h_ix, v_sl):
        self.a3 = a3
        self.n = n
        self.h_ix = h_ix
        self.v_sl = v_sl

    def value(self, x):
        h = x[self.h_ix]
        return x[self.v_sl] - h / np.sqrt(self.a3 + h ** 2)

    def jacobian(self, x):
        h = x[self.h_ix]
        m = len(self.a3)
        jac = np.zeros((m, self.n))
        jac[:, self.h_ix] = -self.a3 / (self.a3 + h ** 2) ** 1.5
        vi = np.arange(*self.v_sl.indices(self.n))
        jac[np.arange(m), vi] = 1.0
        return jac

    def hessian(self, x, w):
        h = x[self.h_ix]
        out = np.zeros((self.n, self.n))
        out[self.h_ix, self.h_ix] = np.sum(
            w * 3.0 * self.a3 * h / (self.a3 + h ** 2) ** 2.5)
        return out


class _VertRateBlock(ConstraintBlock):
    """zeta_i + ce_i * E(v_i) + cq_i * H^2 <= rhs_i (vertical rate bound)."""

    def __init__(self, ce, cq, rhs, params, n, h_ix, v_sl, z_sl):
        self.ce = ce
        self.cq = cq
        self.rhs = rhs
        self.params = params
        self.n = n
        self.h_ix = h_ix
        self.v_sl = v_sl      # None for the LoS variant
        self.z_sl = z_sl

    def value(self, x):
        h = x[self.h_ix]
        out = x[self.z_sl] + self.cq * h ** 2 - self.rhs
        if self.v_sl is not None:
            out = out + self.ce * placement._exp_term(x[self.v_sl], self.params)
        return out

    def jacobian(self, x):
        h = x[self.h_ix]
        m = len(self.cq)
        jac = np.zeros((m, self.n))
        jac[:, self.h_ix] = 2.0 * self.cq * h
        zi = np.arange(*self.z_sl.indices(self.n))
        jac[np.arange(m), zi] = 1.0
        if self.v_sl is not None:
            vi = np.arange(*self.v_sl.indices(self.n))
            jac[np.arange(m), vi] = (-self.params.k4 * self.ce
                                     * placement._exp_term(x[self.v_sl], self.params))
        return jac

    def hessian(self, x, w):
        h = x[self.h_ix]
        out = np.zeros((self.n, self.n))
        out[self.h_ix, self.h_ix] = 2.0 * np.sum(w * self.cq)
        if self.v_sl is not None:
            vi = np.arange(*self.v_sl.indices(self.n))
            out[vi, vi] += (w * self.params.k4 ** 2 * self.ce
                            * placement._exp_term(x[self.v_sl], self.params))
        return out


def _scaled(exp_point, ue_data, params, use_v):
    data_bits, cycles, cpu_hz = ue_data
    s = len(exp_point.r_hat)
    if use_v:
        coef_exp, coef_quad = placement.taylor_coefficients(
            exp_point.v_hat, exp_point.d_sq_hat, exp_point.gamma, params)
    else:
        coef_exp = np.zeros(s)
        coef_quad = placement.los_coefficient(exp_point.d_sq_hat,
                                              exp_point.gamma, params)
    a = data_bits / exp_point.r_hat
    c_fix = float(np.sum(cycles / cpu_hz))
    return (s, a, c_fix, coef_exp / exp_point.r_hat,
            coef_quad / exp_point.r_hat,
            placement._exp_term(exp_point.v_hat, params))


def _solve(n, blocks, lo, hi, x0, mu_ix, a, c_fix, z_sl, r_hat, tol):
    lo[z_sl] = Z_FLOOR / r_hat
    lo[mu_ix] = 0.0
    hi[mu_ix] = MU_MAX
    x0[mu_ix] = min(float(np.sum(a / x0[z_sl])) + c_fix + 1e-6,
                    MU_MAX) * (1 + 1e-6)
    prog = ConvexProgram(n=n, c=np.eye(n)[mu_ix], blocks=blocks, lo=lo, hi=hi)
    return solve_convex(prog, x0, tol=tol, max_newton=4000)


def horizontal(exp_point, ue_data, box, params, tol=1e-12, model="rician"):
    """Barrier solve of the horizontal step; returns (SolveStatus, q)."""
    use_v = model == "rician"
    s, a, c_fix, ce, cq, e_hat = _scaled(exp_point, ue_data, params, use_v)
    q_sl = slice(0, 2)
    v_sl = slice(2, 2 + s) if use_v else None
    z_sl = slice(2 + s, 2 + 2 * s) if use_v else slice(2, 2 + s)
    n = z_sl.stop + 1
    rhs = 1.0 + cq * exp_point.horiz_sq_hat + (ce * e_hat if use_v else 0.0)
    blocks = [_TimeBlock(a, c_fix, n, z_sl, n - 1),
              _QuadExpBlock(ce, cq, rhs, exp_point.ue_pos, params, n,
                            q_sl, v_sl, z_sl)]
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    lo[q_sl] = [box.x_min, box.y_min]
    hi[q_sl] = [box.x_max, box.y_max]
    x0 = np.zeros(n)
    mx = 1e-7 * (box.x_max - box.x_min)
    my = 1e-7 * (box.y_max - box.y_min)
    x0[q_sl] = [np.clip(exp_point.q_hat[0], box.x_min + mx, box.x_max - mx),
                np.clip(exp_point.q_hat[1], box.y_min + my, box.y_max - my)]
    sq0 = np.sum((x0[q_sl][None, :] - exp_point.ue_pos) ** 2, axis=-1)
    slack = rhs - cq * sq0
    if use_v:
        slope = exp_point.h_hat / (2.0 * exp_point.d_sq_hat ** 1.5)
        v_rhs = exp_point.v_hat + slope * exp_point.horiz_sq_hat
        blocks.append(_VBoundBlock(slope, v_rhs, exp_point.ue_pos, n,
                                   q_sl, v_sl))
        lo[v_sl] = V_FLOOR
        hi[v_sl] = 1.0
        x0[v_sl] = np.clip(np.minimum(exp_point.v_hat, v_rhs - slope * sq0)
                           * (1 - 1e-6), 2 * V_FLOOR, 1.0 - 1e-9)
        slack = slack - ce * placement._exp_term(x0[v_sl], params)
    x0[z_sl] = np.maximum(slack * (1 - 1e-6), 2 * Z_FLOOR / exp_point.r_hat)
    res = _solve(n, blocks, lo, hi, x0, n - 1, a, c_fix, z_sl,
                 exp_point.r_hat, tol)
    return res, None if res.x is None else res.x[q_sl]


def vertical(exp_point, ue_data, box, params, tol=1e-12, model="rician"):
    """Barrier solve of the vertical step; returns (SolveStatus, H)."""
    use_v = model == "rician"
    s, a, c_fix, ce, cq, e_hat = _scaled(exp_point, ue_data, params, use_v)
    v_sl = slice(1, 1 + s) if use_v else None
    z_sl = slice(1 + s, 1 + 2 * s) if use_v else slice(1, 1 + s)
    n = z_sl.stop + 1
    rhs = 1.0 + cq * exp_point.h_hat ** 2 + (ce * e_hat if use_v else 0.0)
    blocks = [_TimeBlock(a, c_fix, n, z_sl, n - 1),
              _VertRateBlock(ce, cq, rhs, params, n, 0, v_sl, z_sl)]
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    lo[0], hi[0] = box.h_min, box.h_max
    x0 = np.zeros(n)
    margin = max(1e-7 * (box.h_max - box.h_min), 1e-9)
    h0 = float(np.clip(exp_point.h_hat, box.h_min + margin,
                       box.h_max - margin))
    x0[0] = h0
    slack = rhs - cq * h0 ** 2
    if use_v:
        blocks.append(_SineBlock(exp_point.horiz_sq_hat, n, 0, v_sl))
        lo[v_sl] = V_FLOOR
        hi[v_sl] = 1.0
        v_true0 = h0 / np.sqrt(exp_point.horiz_sq_hat + h0 ** 2)
        x0[v_sl] = np.clip(v_true0 * (1 - 1e-6), 2 * V_FLOOR, 1.0 - 1e-12)
        slack = slack - ce * placement._exp_term(x0[v_sl], params)
    x0[z_sl] = np.maximum(slack * (1 - 1e-6), 2 * Z_FLOOR / exp_point.r_hat)
    res = _solve(n, blocks, lo, hi, x0, n - 1, a, c_fix, z_sl,
                 exp_point.r_hat, tol)
    return res, None if res.x is None else float(res.x[0])
