"""Spans and counts around the calls into each clfetc layer.

The tracer patches module attributes from the benchmark's side: a public
name is wrapped in the namespace that calls it, so nothing under ``src/``
changes.  Spans ``(name, start, end, parent, op, thread)`` stay in memory
until the run ends.  Model callbacks are counted without spans, by wrapping
``rhs``/``value``/``gradient``/``feedback`` on every ``Model`` that
``clfetc.cli.build_model`` returns.

Counts live in one ``Counter`` per thread, so the sweep pool's worker
threads never race on a shared counter; they are merged when the run ends.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import os
import threading
import time

NAME, START, END, PARENT, OP, THREAD = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # id of the op in progress; set by the main thread
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counters = []
        self._patches = []

    # -- per-thread state ---------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], collections.Counter())
            with self._lock:
                self._counters.append(state[1])
        return state

    def add(self, name, amount=1):
        self._state()[1][(self.op, name)] += amount

    def local_count(self, name):
        return self._state()[1][(self.op, name)]

    def counts(self) -> collections.Counter:
        """Every count, keyed by ``(op, name)``, merged over threads."""
        total = collections.Counter()
        for counter in self._counters:
            total.update(counter)
        return total

    # -- wrappers -----------------------------------------------------------
    def spanned(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, result, args)`` may add
        counts when it returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._state()[0]
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None, self.op,
                      threading.get_ident()]
            with self._lock:
                self.spans.append(record)
                index = len(self.spans) - 1
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, result, args)
                return result
            finally:
                record[END] = time.perf_counter()
                stack.pop()

        return wrapper

    def counted(self, name, fn, timed=False, after=None):
        """Wrap ``fn`` to count its calls (and their time when ``timed``)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name + ".calls")
            if not timed:
                result = fn(*args, **kwargs)
            else:
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.add(name + ".s", time.perf_counter() - start)
            if after is not None:
                after(self, result, args)
            return result

        return wrapper

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------
    def self_times(self) -> list:
        """Per span: its duration minus the time its child spans cover.
        Children run on their parent's thread, nested and in sequence."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        return [span[END] - span[START] - child_time[i]
                for i, span in enumerate(self.spans)]


# ---------------------------------------------------------------------------
# what is traced


def _after_run_closed_loop(tracer, traj, _args):
    tracer.add("engine.sim_s", float(traj.t[-1] - traj.t[0]))


def _after_sample_in_region(tracer, points, _args):
    tracer.add("certificates.sample_in_region.points", len(points))


def _after_predicate(tracer, keep, _args):
    if not keep:
        tracer.add("triggers.predicate_p.fires")


def _after_select(tracer, estimate, _args):
    tracer.add(("dwell.select.value", estimate.value))


def _after_write_csv(tracer, _result, args):
    tracer.add("engine.write_trajectory_csv.bytes", os.path.getsize(args[1]))


def _sample_in_region(tracer, fn):
    """Span ``sample_in_region`` and count the ``value`` calls made inside
    it, for the accept ratio."""
    spanned = tracer.spanned("certificates.sample_in_region", fn,
                             after=_after_sample_in_region)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = tracer.local_count("models.value.calls")
        try:
            return spanned(*args, **kwargs)
        finally:
            tracer.add("certificates.sample_in_region.value_calls",
                       tracer.local_count("models.value.calls") - before)

    return wrapper


def _locate_event(tracer, fn):
    """Span ``locate_event`` and count its guard evaluations."""
    spanned = tracer.spanned("engine.locate_event", fn)

    @functools.wraps(fn)
    def wrapper(guard, *args, **kwargs):
        def counted_guard(t):
            tracer.add("engine.locate_event.guard_evals")
            return guard(t)
        return spanned(counted_guard, *args, **kwargs)

    return wrapper


def _build_model(tracer, fn):
    """Count the callbacks of every model the CLI builds."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        model = fn(*args, **kwargs)
        system = dataclasses.replace(
            model.system, rhs=tracer.counted("models.rhs", model.system.rhs))
        cert = model.certificate
        cert = dataclasses.replace(
            cert,
            value=tracer.counted("models.value", cert.value),
            gradient=tracer.counted("models.gradient", cert.gradient),
            feedback=tracer.counted("models.feedback", cert.feedback))
        return dataclasses.replace(model, system=system, certificate=cert)

    return wrapper


def install(tracer: Tracer, cli) -> None:
    """Patch every traced name; ``tracer.restore()`` undoes it."""
    from clfetc import certificates, core, dwell, engine, svgplot

    def span(owners, attr, name, after=None):
        wrapper = tracer.spanned(name, getattr(owners[0], attr), after=after)
        for owner in owners:
            tracer.patch(owner, attr, wrapper)

    tracer.patch(cli, "build_model", _build_model(tracer, cli.build_model))
    span([cli], "run_closed_loop", "engine.run_closed_loop",
         _after_run_closed_loop)
    span([cli], "resolve_policy", "cli.resolve_policy")
    span([cli, dwell], "bound_sublevel_box", "certificates.bound_sublevel_box")
    sampler = _sample_in_region(tracer, certificates.sample_in_region)
    for owner in (cli, certificates, dwell):
        tracer.patch(owner, "sample_in_region", sampler)
    span([cli, certificates], "estimate_kappa", "certificates.estimate_kappa")
    span([cli, certificates], "estimate_nu", "certificates.estimate_nu")
    span([cli, certificates], "estimate_big_m", "certificates.estimate_big_m")
    span([cli, certificates, dwell], "estimate_rho",
         "certificates.estimate_rho")
    span([cli, dwell], "estimate_constants", "certificates.estimate_constants")
    span([cli], "tau_min_over_sublevel", "dwell.tau_min_over_sublevel")
    for attr in ("tau_select", "tau0_select"):
        tracer.patch(dwell, attr, tracer.counted(
            "dwell.select", getattr(dwell, attr), after=_after_select))
    span([cli], "verify_clf_pointwise", "core.verify_clf_pointwise")
    tracer.patch(engine, "locate_event",
                 _locate_event(tracer, engine.locate_event))
    span([engine], "integrate_frozen", "engine.integrate_frozen")
    span([engine], "predicate_p", "triggers.predicate_p", _after_predicate)
    span([cli], "check_rate_certificate", "engine.check_rate_certificate")
    tracer.patch(core.EnergyTimeMap, "bound_after", tracer.counted(
        "core.bound_after", core.EnergyTimeMap.bound_after, timed=True))
    span([cli], "write_trajectory_csv", "engine.write_trajectory_csv",
         _after_write_csv)
    span([svgplot], "line_plot", "svgplot.line_plot")


# ---------------------------------------------------------------------------
# per-layer metrics
#
# What each should move, written down before any optimisation:
# - import.*: setup_s on every workload.
# - engine.run_closed_loop, locate_event, integrate_frozen and models.*:
#   ops_per_s and op_s.p50 on event-sim; no change on certify.
# - triggers.predicate_p.*: ops_per_s, op_s.p90 and error_rate on
#   sampled-sim; zero on event-sim.
# - cli.resolve_policy, certificates.*, dwell.*, core.verify_clf_pointwise:
#   op_s.p50 on certify and on the derived ops of sampled-sim; zero on
#   event-sim.
# - engine.check_rate_certificate, core.bound_after, write_trajectory_csv and
#   svgplot.line_plot: op_s.p50 on event-sim; zero on certify.

SPAN_TOTALS = [
    "engine.locate_event", "engine.integrate_frozen", "triggers.predicate_p",
    "certificates.bound_sublevel_box", "certificates.sample_in_region",
    "certificates.estimate_kappa", "certificates.estimate_nu",
    "certificates.estimate_big_m", "certificates.estimate_rho",
    "dwell.tau_min_over_sublevel", "core.verify_clf_pointwise",
    "engine.check_rate_certificate", "engine.write_trajectory_csv",
    "svgplot.line_plot",
]
SPAN_SELF = ["engine.run_closed_loop", "cli.resolve_policy"]
SPAN_CALLS = ["engine.run_closed_loop", "engine.locate_event",
              "engine.integrate_frozen", "triggers.predicate_p",
              "certificates.estimate_constants", "dwell.tau_min_over_sublevel"]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the traced pass: ``name -> (value, unit)``."""
    total = collections.defaultdict(float)
    own = collections.defaultdict(float)
    calls = collections.Counter()
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        total[span[NAME]] += span[END] - span[START]
        own[span[NAME]] += self_s
        calls[span[NAME]] += 1

    counts = collections.Counter()
    distinct_selects = set()
    for (op, name), n in tracer.counts().items():
        if isinstance(name, tuple):
            distinct_selects.add((op, name[1]))
        else:
            counts[name] += n

    out = {}
    for name in SPAN_TOTALS:
        out[f"{name}.s"] = (total[name], "s")
    for name in SPAN_SELF:
        out[f"{name}.self_s"] = (own[name], "s")
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = (calls[name], "count")
    for callback in ("rhs", "gradient", "value", "feedback"):
        out[f"models.{callback}.calls"] = (counts[f"models.{callback}.calls"],
                                           "count")
    out["models.rhs.calls_per_sim_s"] = (
        _ratio(counts["models.rhs.calls"], counts["engine.sim_s"]), "1/s")
    out["engine.locate_event.guard_evals_per_call"] = (
        _ratio(counts["engine.locate_event.guard_evals"],
               calls["engine.locate_event"]), "evals/call")
    # a check that never fires still cost its checks: divide by at least 1
    out["triggers.predicate_p.checks_per_fire"] = (
        _ratio(calls["triggers.predicate_p"],
               max(1, counts["triggers.predicate_p.fires"])), "checks/fire")
    out["certificates.sample_in_region.accept_ratio"] = (
        _ratio(counts["certificates.sample_in_region.points"],
               counts["certificates.sample_in_region.value_calls"]), "ratio")
    out["dwell.select.calls"] = (counts["dwell.select.calls"], "count")
    out["dwell.select.distinct_ratio"] = (
        _ratio(len(distinct_selects), counts["dwell.select.calls"]), "ratio")
    out["core.bound_after.calls"] = (counts["core.bound_after.calls"], "count")
    out["core.bound_after.s"] = (counts["core.bound_after.s"], "s")
    out["engine.write_trajectory_csv.bytes"] = (
        counts["engine.write_trajectory_csv.bytes"], "bytes")
    return out
