"""Reference implementations of the association step, kept for tests to
compare the product path against: the dense equality form, which
``lp.EqualityView`` reads in place; the two-phase simplex, which needs no
starting basis; the relaxed LP solved cold by it on the full program; and
rounding by a per-row loop."""

import numpy as np

from uavmec import association
from uavmec.lp import Simplex, SolveStatus, Status


def equality_form(lp):
    """(a, b) of ``lp`` as  a y = b, y >= 0, over the columns
    [x | slacks of the a_ub rows], a_ub rows first, as dense arrays."""
    n, m_ub = lp.c.size, lp.b_ub.size
    a = np.zeros((m_ub + lp.b_eq.size, n + m_ub))
    a[:m_ub, :n] = lp.a_ub
    a[:m_ub, n:] = np.eye(m_ub)
    a[m_ub:, :n] = lp.a_eq
    return a, np.concatenate([lp.b_ub, lp.b_eq])


def two_phase(lp):
    """Minimize ``lp`` over x >= 0 with the two-phase simplex from scratch.

    Phase 1 minimizes the sum of artificial columns on the rows whose
    slack cannot start the basis; phase 2 then runs from the basis it
    ends at, with leftover artificials frozen at zero. Both phases run on
    ``lp.Simplex``, with the pivot limit and gap check of ``lp.solve_lp``.
    """
    c = lp.c
    n, m_ub = c.size, lp.b_ub.size
    a, b = equality_form(lp)
    m, n_cols = a.shape
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # initial basis: slack columns where usable, artificials elsewhere;
    # either way a unit matrix, so B^-1 = I and x_B = b
    art_rows = np.flatnonzero(neg | (np.arange(m) >= m_ub))
    start = n + np.arange(m)
    start[art_rows] = n_cols + np.arange(art_rows.size)
    a = np.hstack([a, np.eye(m)[:, art_rows]])
    sim = Simplex(a, np.eye(m), b.copy(), start)
    max_iter = 200 * (m + a.shape[1])

    if art_rows.size:
        c1 = np.zeros(a.shape[1])
        c1[n_cols:] = 1.0
        st = sim.run(c1, max_iter)
        if st is Status.ITER_LIMIT:
            return SolveStatus(Status.ITER_LIMIT, iterations=sim.iterations)
        if float(c1[sim.basis] @ sim.xb) > 1e-7:
            return SolveStatus(Status.INFEASIBLE, iterations=sim.iterations)
        # drive remaining artificials out of the basis where possible
        for i in range(m):
            if sim.basis[i] >= n_cols:
                row = sim.binv[i] @ a[:, :n_cols]
                j = int(np.argmax(np.abs(row)))
                if abs(row[j]) > 1e-9:
                    sim.pivot(i, j, sim.binv @ a[:, j])
        # freeze artificials at zero; a keeps them for the gap check
        sim.a = a.copy()
        sim.a[:, n_cols:] = 0.0

    c2 = np.zeros(a.shape[1])
    c2[:n] = c
    st = sim.run(c2, max_iter)
    if st is not Status.OPTIMAL:
        return SolveStatus(st, iterations=sim.iterations)
    y = np.zeros(a.shape[1])
    y[sim.basis] = sim.xb
    x = y[:n]
    primal = float(c @ x)
    try:
        pi = np.linalg.solve(a[:, sim.basis].T, c2[sim.basis])
        dual = float(pi @ b)
    except np.linalg.LinAlgError:
        return SolveStatus(Status.NUMERICAL_FAILURE, objective=primal, x=x,
                           iterations=sim.iterations)
    kkt = abs(primal - dual) / max(1.0, abs(primal))
    return SolveStatus(Status.OPTIMAL if kkt <= 1e-7
                       else Status.NUMERICAL_FAILURE, objective=primal, x=x,
                       kkt_residual=kkt, iterations=sim.iterations)


def cold_relaxed(times):
    """``association.solve_relaxed`` by the two-phase simplex on the
    unscaled LP, without a starting basis."""
    times = np.asarray(times, dtype=float)
    n, m = times.shape
    res = two_phase(association.relaxed_lp(times))
    if res.status is not Status.OPTIMAL:
        raise association.AssociationError(res.status.value)
    return np.clip(res.x[:n * m].reshape(n, m), 0.0, 1.0), float(res.objective)


def round_rows(frac):
    """Per row: the first entry >= 0.5, else the row argmax."""
    frac = np.asarray(frac, dtype=float)
    out = np.zeros(frac.shape, dtype=int)
    for i, row in enumerate(frac):
        big = np.flatnonzero(row >= 0.5)
        out[i, big[0] if big.size else int(np.argmax(row))] = 1
    return out
