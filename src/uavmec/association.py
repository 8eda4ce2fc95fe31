"""UE-to-UAV association: relaxed LP and binary rounding.

For a fixed deployment, the service time of UE i on UAV j is
D_i / r_ij + F_i / f_max. The relaxed assignment problem is the LP

    min mu  s.t.  sum_i a_ij * t_ij <= mu  (each UAV),
                  sum_j a_ij = 1           (each UE),
                  a_ij >= 0,

whose upper bounds a_ij <= 1 are implied by the row-sum equalities.
Its dual is M-dimensional: max over prices lambda in the simplex of
sum_i min_j lambda_j t_ij. Dantzig-Wolfe column generation finds the
optimal prices on a master LP with the M load rows and one convexity
row per group of UEs that share a fastest UAV, so at most 2M rows
whatever N is; each pricing gives one load column per group. Grouped
columns combine independently, which converges in far fewer rounds
than one convexity row over whole assignments. The master is small and
dense, so it pivots on ``lp.Tableau`` under the pivot rule that the
certifying simplex uses. Each round prices once, at the master's own
prices. Pricing stops when no column enters the master, or when the
last round's columns took no pivot, and returns the master's last
prices, which are dual optimal when no column enters. By complementary
slackness they name a starting basis (mu, each UE's cheapest UAV at
those prices, the slacks of unpriced load rows, and the other pairs
closest to a tie that fill it to N + M columns), and one ``solve_lp``
call on the full LP runs phase 2 from it, reading the LP's blocks where
``relaxed_lp`` built them. At a nondegenerate optimum that basis is
already optimal, so the call costs no pivot and only certifies it. Where
degeneracy (such as co-located UEs) leaves it singular or infeasible,
phase 2 starts from the fastest-UAV vertex, which is always feasible
and well conditioned. Both run on the times scaled to an LP value in
[1, M], where the simplex's absolute tolerances act as relative ones.

Rounding sets the first entry >= 0.5 per row, falling back to the row
argmax so that every row ends with exactly one 1 even for degenerate
fractional solutions.
"""

from __future__ import annotations

import numpy as np

from . import channel
from .lp import LinearProgram, Status, Tableau, solve_lp

_DW_GAP = 1e-13          # relative reduced cost below which a column enters
_MAX_ROUNDS = 10000      # pricing rounds at most; the simplex certifies anyway


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


def _group_loads(times, prices, group, size):
    """(M, size) loads per UAV and group when each UE, of group
    ``group[i]``, goes to its argmin_j prices_j t_ij."""
    best = np.argmin(times * prices, axis=1)
    m = times.shape[1]
    return np.bincount(best * size + group,
                       weights=times[np.arange(len(times)), best],
                       minlength=m * size).reshape(m, size)


def dual_prices(times):
    """Optimal prices lambda of the LP's load rows, a point of the simplex.

    Dantzig-Wolfe column generation on a master with one convexity row
    per group of UEs that share a fastest UAV (argmin_j t_ij, G <= M
    groups):

        min mu  s.t.  sum_(g,k) w_gk L_gk <= mu 1,
                      sum_k w_gk = 1  (each group g),  w >= 0,

    whose columns L_gk are the loads of group g's UEs under argmin
    assignments: M + G <= 2M rows whatever N is. One pricing at prices p
    is one ``bincount`` that gives a load column for every group; its
    Lagrangian value p . sum_g L_g (= sum_i min_j p_j t_ij) bounds the LP
    from below, the master value from above. A master with one convexity
    row combines whole assignments and converges much more slowly than
    one that combines the groups' parts independently (Jones, Lustig,
    Farvolden & Powell, Math. Programming 62, 1993). Grouping by fastest
    UAV needs no prices and puts together UEs that tend to change UAV
    together: at the optimum most UEs sit on their fastest UAV. The
    master's prices rmp are the negated simplex multipliers of its load
    rows, sigma_g those of its convexity rows; a group column enters
    where its reduced cost rmp . L_g - sigma_g is below -1e-13 of the
    master value.

    Each round runs the master to its optimum and prices once, at rmp;
    every group column with a negative reduced cost enters. Pricing stops
    when no column enters, or when the last round's columns did not move
    the master (their reduced costs were below the simplex's tolerance).
    It returns the last rmp: where no column enters, the Lagrangian value
    of rmp is within G 1e-13 of the master value, so rmp is dual optimal.

    The master pivots on an ``lp.Tableau`` under the pivot rule of the
    certifying simplex (``lp.PivotRule``). The simplex's tolerances are
    absolute, so ``times`` should be scaled as ``solve_relaxed`` scales
    them, to an LP value in [1, M].
    """
    m = times.shape[1]
    fastest = np.argmin(times, axis=1)
    present = np.bincount(fastest, minlength=m) > 0
    # groups numbered by fastest UAV, skipping the UAVs that are no UE's
    group = (np.cumsum(present) - 1)[fastest]
    size = int(np.count_nonzero(present))
    rmp = np.full(m, 1.0 / m)
    loads = _group_loads(times, rmp, group, size)
    # columns: mu, the M load-row slacks, then the groups' load columns;
    # rows: the M load rows, then one convexity row per group
    unit = np.eye(size)
    a = np.zeros((m + size, 1 + m + size))
    a[:m, 0] = -1.0
    a[:m, 1:] = np.concatenate((np.eye(m), loads), axis=1)
    a[m:, 1 + m:] = unit
    b = np.r_[np.zeros(m), np.ones(size)]
    c = np.zeros(a.shape[1])
    c[0] = 1.0
    top = int(np.argmax(loads.sum(axis=1)))
    # start at the first columns: mu takes the row of the top load,
    # slacks the rest
    master = Tableau(a, b, c, [0] + [1 + j for j in range(m) if j != top]
                     + list(range(m + 1, m + 1 + size)))
    for rounds in range(_MAX_ROUNDS):
        before = master.iterations
        if master.run(200 * sum(master.t.shape)) is not Status.OPTIMAL:
            break
        rmp, sigma = -master.duals[:m], master.duals[m:]
        # stop when the last round's columns did not enter
        if rounds > 0 and master.iterations == before:
            break
        loads = _group_loads(times, rmp, group, size)
        enter = rmp @ loads < sigma - _DW_GAP * master.value
        if not enter.any():
            break
        master.add_columns(np.concatenate((loads, unit))[:, enter])
    return rmp


def solve_relaxed(times):
    """Optimal fractional association for the given service-time matrix.

    Returns (frac, mu): an (N, M) row-stochastic matrix in [0, 1] and the
    LP objective value. The LP is solved on the times scaled to a value
    in [1, M]. Phase 2 starts from the basis that the dual prices give by
    complementary slackness: mu, each row's pair (i, j) of least priced
    time lambda_j t_ij, the slack of each unpriced load row, and as many
    other pairs as a basis has room for (M - 1 less the unpriced rows),
    those of least gap to their row minimum relative to it. A count
    rather than a tolerance decides the ties, so prices that are slightly
    off still name the basis. Where that basis is unusable (singular or
    infeasible, as on co-located UEs), phase 2 starts instead from the
    vertex with each UE on its fastest UAV, mu at the top load and the
    other load rows' slacks basic. Its loads sum to M, so its condition
    number is at most (M + 2)(2M + 2) and ``basis_start`` accepts it.
    """
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)) or np.any(times <= 0):
        raise ValueError("service times must be finite and positive")
    n, m = times.shape
    scale = m / times.min(axis=1).sum()
    times = times * scale
    prices = dual_prices(times)
    priced = times * prices
    rows = np.arange(n)
    best = np.argmin(priced, axis=1)
    low = priced[rows, best]
    # relative gap of every other pair to its row minimum
    gap = (priced - low[:, None]) / np.where(low > 0.0, low, 1.0)[:, None]
    gap[rows, best] = np.inf
    # a basis has N + M columns: mu, one pair per row, the slacks of the
    # unpriced load rows and, to fill it, the pairs closest to a tie
    unpriced = np.flatnonzero(prices == 0.0)
    split = np.argsort(gap, axis=None, kind="stable")[:m - 1 - unpriced.size]
    basis = np.concatenate([[n * m],
                            np.sort(np.concatenate([rows * m + best, split])),
                            n * m + 1 + unpriced])
    fastest = np.argmin(times, axis=1)
    top = np.argmax(np.bincount(fastest, weights=times.min(axis=1),
                                minlength=m))
    vertex = np.concatenate([[n * m], rows * m + fastest,
                             n * m + 1 + np.delete(np.arange(m), top)])
    res = solve_lp(relaxed_lp(times), bases=(basis, vertex))
    if res.status is not Status.OPTIMAL:
        raise AssociationError(f"association LP failed: {res.status.value}")
    frac = res.x[:n * m].reshape(n, m)
    frac = np.clip(frac, 0.0, 1.0)
    return frac, float(res.objective) / scale


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
