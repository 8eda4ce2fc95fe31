"""UE-to-UAV association: relaxed LP and binary rounding.

For a fixed deployment, the service time of UE i on UAV j is
D_i / r_ij + F_i / f_max. The relaxed assignment problem is the LP

    min mu  s.t.  sum_i a_ij * t_ij <= mu  (each UAV),
                  sum_j a_ij = 1           (each UE),
                  a_ij >= 0,

whose upper bounds a_ij <= 1 are implied by the row-sum equalities.
Rounding sets the first entry >= 0.5 per row, falling back to the row
argmax so that every row ends with exactly one 1 even for degenerate
fractional solutions.
"""

from __future__ import annotations

import numpy as np

from . import channel
from .lp import LinearProgram, Status, solve_lp


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


def solve_relaxed(times):
    """Optimal fractional association for the given service-time matrix.

    Returns (frac, mu): an (N, M) row-stochastic matrix in [0, 1] and the
    LP objective value.
    """
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)) or np.any(times <= 0):
        raise ValueError("service times must be finite and positive")
    n, m = times.shape
    nv = n * m + 1                                 # a_ij row-major, then mu
    c = np.zeros(nv)
    c[-1] = 1.0
    a_ub = np.zeros((m, nv))
    for j in range(m):
        a_ub[j, j:n * m:m] = times[:, j]
        a_ub[j, -1] = -1.0
    b_ub = np.zeros(m)
    a_eq = np.zeros((n, nv))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    b_eq = np.ones(n)
    res = solve_lp(LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub,
                                 a_eq=a_eq, b_eq=b_eq))
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
    n, m = frac.shape
    out = np.zeros((n, m), dtype=int)
    for i in range(n):
        big = np.flatnonzero(frac[i] >= 0.5)
        j = big[0] if big.size else int(np.argmax(frac[i]))
        out[i, j] = 1
    return out
