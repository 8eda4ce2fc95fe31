"""UE-to-UAV association: relaxed LP and binary rounding.

For a fixed deployment, the service time of UE i on UAV j is
D_i / r_ij + F_i / f_max. The relaxed assignment problem is the LP

    min mu  s.t.  sum_i a_ij * t_ij <= mu  (each UAV),
                  sum_j a_ij = 1           (each UE),
                  a_ij >= 0,

whose upper bounds a_ij <= 1 are implied by the row-sum equalities.
Its dual is M-dimensional: max over prices lambda in the simplex of
sum_i min_j lambda_j t_ij. Dantzig-Wolfe column generation finds the
optimal prices on an (M+1)-row master LP whatever N is; by complementary
slackness they name a starting basis (mu plus every UE-UAV pair whose
priced time ties its row minimum), and one simplex call on the full LP
starts from it. At a nondegenerate optimum that basis is already optimal,
so the call costs no pivot and only certifies it; in degenerate cases
(such as co-located UEs) it pivots on or solves from scratch.

Rounding sets the first entry >= 0.5 per row, falling back to the row
argmax so that every row ends with exactly one 1 even for degenerate
fractional solutions.
"""

from __future__ import annotations

import numpy as np

from . import channel
from .lp import LinearProgram, Status, basis_tableau, solve_lp

_DW_GAP = 1e-13          # relative master-minus-bound gap that ends pricing
_MAX_COLUMNS = 10000     # pricing rounds at most; the simplex certifies anyway
_TIE_RTOL = 1e-9         # priced times this close to their row minimum tie


class AssociationError(RuntimeError):
    """Raised when the relaxed LP cannot be solved."""


def service_time_matrix(scenario, deployment, model="rician"):
    """(N, M) matrix of upload + compute seconds at the given deployment.

    model='los' evaluates the idealized pure line-of-sight rate instead.
    """
    pos = scenario.positions                      # (N, 2)
    q = deployment.q                              # (M, 2)
    h = deployment.h                              # (M,)
    horiz_sq = np.sum((pos[:, None, :] - q[None, :, :]) ** 2, axis=-1)
    rates = channel.rate(horiz_sq, h[None, :], scenario.tx_powers[:, None],
                         scenario.channel, model)
    upload = scenario.data_bits[:, None] / rates
    compute = scenario.cycles[:, None] / scenario.fleet.cpu_hz
    return upload + compute


def relaxed_lp(times):
    """The relaxed association LP over [a_ij row-major, mu] for an (N, M)
    service-time matrix."""
    n, m = times.shape
    nv = n * m + 1
    idx = np.arange(n * m)
    c = np.zeros(nv)
    c[-1] = 1.0
    a_ub = np.zeros((m, nv))
    a_ub[idx % m, idx] = times.ravel()
    a_ub[:, -1] = -1.0
    a_eq = np.zeros((n, nv))
    a_eq[idx // m, idx] = 1.0
    return LinearProgram(c=c, a_ub=a_ub, b_ub=np.zeros(m),
                         a_eq=a_eq, b_eq=np.ones(n))


def _argmin_loads(times, prices):
    """Per-UAV loads when each UE goes to its argmin_j prices_j t_ij."""
    best = np.argmin(times * prices, axis=1)
    return np.bincount(best, weights=times[np.arange(len(times)), best],
                       minlength=times.shape[1])


def dual_prices(times):
    """Optimal prices lambda of the LP's load rows, a point of the simplex.

    Dantzig-Wolfe column generation on the (M+1)-row master

        min mu  s.t.  sum_k w_k L_k <= mu 1,  sum_k w_k = 1,  w >= 0,

    whose columns L_k are the loads of argmin assignments. The master
    value bounds the LP from above; the priced column's Lagrangian value
    lambda . L (= sum_i min_j lambda_j t_ij) bounds it from below. The
    master stays warm: each new column enters its tableau as B^-1 a.
    """
    n, m = times.shape
    # scaled so that the LP value lies in [1/M, 1]: the simplex's
    # tolerances are absolute
    times = times / times.min(axis=1).sum()
    prices = np.full(m, 1.0 / m)
    loads = _argmin_loads(times, prices)
    # columns: mu, the M load-row slacks, then one w_k per load vector;
    # rows: the M load rows, then sum_k w_k = 1
    a = np.zeros((m + 1, m + 2))
    a[:m, 0] = -1.0
    a[:m, 1:m + 1] = np.eye(m)
    a[:, -1] = np.append(loads, 1.0)
    b = np.zeros(m + 1)
    b[m] = 1.0
    top = int(np.argmax(loads))
    # start at w_0 = 1: mu takes the row of the top load, slacks the rest
    tab = basis_tableau(a, b, [0] + [1 + j for j in range(m) if j != top]
                        + [m + 1])
    c = np.zeros(m + 2)
    c[0] = 1.0
    bound = 0.0
    for _ in range(_MAX_COLUMNS):
        before = tab.iterations
        if tab.run(c, 200 * sum(tab.a.shape)) is not Status.OPTIMAL:
            break
        cb = c[tab.basis]
        value = cb @ tab.b
        # the slack block of the tableau is B^-1 of the load rows
        prices = -(cb @ tab.a[:, 1:m + 1])
        loads = _argmin_loads(times, prices)
        bound = max(bound, prices @ loads)
        # stop at the optimum, or when the last column did not enter
        if value - bound <= _DW_GAP * value or (c.size > m + 2
                                                 and tab.iterations == before):
            break
        # B^-1 (loads, 1): the conv-row column of B^-1 is B^-1 b = x_B
        tab.a = np.column_stack([tab.a, tab.a[:, 1:m + 1] @ loads + tab.b])
        c = np.append(c, 0.0)
    return prices


def solve_relaxed(times):
    """Optimal fractional association for the given service-time matrix.

    Returns (frac, mu): an (N, M) row-stochastic matrix in [0, 1] and the
    LP objective value. The simplex starts from the basis that the dual
    prices give by complementary slackness: mu, every pair (i, j) whose
    priced time lambda_j t_ij ties its row minimum, and the slack of each
    unpriced load row. At a nondegenerate optimum that basis is optimal
    and the call only certifies it; otherwise the simplex pivots on, or
    starts from scratch when the basis is unusable.
    """
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)) or np.any(times <= 0):
        raise ValueError("service times must be finite and positive")
    n, m = times.shape
    prices = dual_prices(times)
    priced = times * prices
    tie = priced <= priced.min(axis=1, keepdims=True) * (1.0 + _TIE_RTOL)
    basis = np.concatenate([[n * m], np.flatnonzero(tie),
                            n * m + 1 + np.flatnonzero(prices == 0.0)])
    res = solve_lp(relaxed_lp(times), basis=basis)
    if res.status is not Status.OPTIMAL:
        raise AssociationError(f"association LP failed: {res.status.value}")
    frac = res.x[:n * m].reshape(n, m)
    frac = np.clip(frac, 0.0, 1.0)
    return frac, float(res.objective)


def round_association(frac):
    """Binary row-stochastic matrix from a fractional one.

    Per row: the first entry >= 0.5 wins; if none, the row argmax
    (lowest index on ties).
    """
    frac = np.asarray(frac, dtype=float)
    big = frac >= 0.5
    pick = np.where(big.any(axis=1), big.argmax(axis=1), frac.argmax(axis=1))
    out = np.zeros(frac.shape, dtype=int)
    out[np.arange(frac.shape[0]), pick] = 1
    return out
