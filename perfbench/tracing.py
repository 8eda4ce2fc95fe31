"""Span recording around uavmec's layer boundaries, installed from outside.

The benchmark never edits the program. A traced solve replaces, for its
duration only, the module and class attributes that callers look up at
call time (``uavmec.association.solve_lp``, ``uavmec.placement.solve_convex``
and so on) with wrappers that record a span per call: name, start, end,
parent span and solve id. Spans stay in memory; per-layer metrics are
derived from them after the run. The wrappers pass arguments and results
through untouched, so a traced solve computes bit-for-bit the same result
as an untraced one (the benchmark checks this).
"""

from __future__ import annotations

import collections
import contextlib
import time
import types
from dataclasses import dataclass

REGRESSION_WARNING = "association rounding regressed"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    solve: int


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals, clipped to the span's own interval."""
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span.end - span.start) - covered)
    return out


class Tracer:
    """Collects spans and counters for every solve run under ``solve``."""

    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self.lp_shapes = []            # (rows, cols) of each association LP
        self.rounding = []             # (times, lp objective, rounded)
        self._stack = []
        self._solve_id = -1
        self._last_relaxed = None

    def _wrap(self, fn, name, measure=None):
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        tracer._stack[-1] if tracer._stack else -1,
                        tracer._solve_id)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if measure is not None:
                measure(args, result)
            return result

        return traced

    def _boundaries(self, uavmec):
        """(owner, attribute, span name, measure) for every wrapped call."""
        c = self.counters

        def barrier(args, res):
            c["barrier.newton_steps"] += res.iterations
            c["barrier.status." + res.status.value] += 1

        def lp(args, res):
            prog = args[0]
            rows = prog.b_ub.size + prog.b_eq.size
            # one dense tableau: structural + slack + artificial columns
            self.lp_shapes.append((rows, prog.c.size + rows))
            c["lp.pivots"] += res.iterations
            c["lp.status." + res.status.value] += 1

        def subproblem(args, res):
            c["placement.accepted" if res.accepted
              else "placement.rejected"] += 1

        def relaxed(args, res):
            self._last_relaxed = (args[0], res[1])

        def rounded(args, res):
            times, lp_obj = self._last_relaxed
            self.rounding.append((times, lp_obj, res))

        def rate(args, res):
            c["channel.rate_elems"] += res.size

        def bcd(args, res):
            c["optimizer.outer_iters"] += res.iterations

        opt, pl, asc = uavmec.optimizer, uavmec.placement, uavmec.association
        yield opt, "solve", "optimizer.solve", None
        yield opt, "_bcd", "optimizer.bcd", bcd
        yield opt, "completion_time", "optimizer.completion_time", None
        yield opt, "kmeans", "optimizer.kmeans", None
        yield asc, "service_time_matrix", "association.service_time", None
        yield asc, "solve_relaxed", "association.relaxed", relaxed
        yield asc, "round_association", "association.round", rounded
        yield asc, "solve_lp", "lp", lp
        yield pl, "solve_horizontal", "placement.horizontal", subproblem
        yield pl, "solve_vertical", "placement.vertical", subproblem
        yield pl, "true_uav_time", "placement.true_time", None
        yield pl, "solve_convex", "barrier", barrier
        yield uavmec.channel, "outage_rate", "channel.rate", rate
        yield uavmec.channel, "los_rate", "channel.rate", rate
        yield uavmec.cli, "run_sweep", "cli.sweep", None
        yield uavmec.cli, "_sweep_point", "cli.point", None

    @contextlib.contextmanager
    def solve(self, uavmec, solve_id):
        """Install the wrappers, run the body as solve ``solve_id``, and
        restore every original attribute on exit."""
        undo = []

        def replace(owner, attr, value):
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

        for owner, attr, name, measure in self._boundaries(uavmec):
            replace(owner, attr, self._wrap(getattr(owner, attr), name,
                                            measure))
        at = vars(uavmec.placement.ExpansionPoint)["at"]
        replace(uavmec.placement.ExpansionPoint, "at",
                classmethod(self._wrap(at.__func__, "placement.expansion")))
        for attr in ("positions", "data_bits", "cycles", "tx_powers"):
            prop = vars(uavmec.scenario.Scenario)[attr]
            replace(uavmec.scenario.Scenario, attr,
                    property(self._wrap(prop.fget, "scenario.array")))

        # the optimizer reports rounding regressions through warnings.warn,
        # which the sweep silences; count them instead
        def warn(message, *args, **kwargs):
            key = ("association.rounding_regressions"
                   if REGRESSION_WARNING in str(message) else "warnings.other")
            self.counters[key] += 1

        replace(uavmec.optimizer, "warnings", types.SimpleNamespace(warn=warn))
        self._solve_id = solve_id
        try:
            yield self
        finally:
            self._solve_id = -1
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
