"""Reference implementations of the association step, kept for tests to
compare the product path against: the relaxed LP solved cold by the
two-phase simplex on the full program, and rounding by a per-row loop."""

import numpy as np

from uavmec import association
from uavmec.lp import Status, solve_lp


def cold_relaxed(times):
    """``association.solve_relaxed`` without a starting basis."""
    times = np.asarray(times, dtype=float)
    n, m = times.shape
    res = solve_lp(association.relaxed_lp(times))
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
