"""Closed-loop hybrid simulation: adaptive embedded Runge-Kutta integration
of the frozen-input flow with cubic dense output, safeguarded Illinois event
localization, trajectory recording and Zeno / blow-up safeguards.

One scan of the frozen flow runs between updates, whatever the policy.  The
event and periodic event policies share one step rule, which reads a scalar
along each accepted step and accepts the step, retries it at half size, or
cuts it at an instant.  Under the event policy the scalar is the frozen
guard, read at each step's start, probes and end, and the cut is its first
zero.  Under the periodic policy it is the predicate's continuous margin,
read at the grid points ``j*h`` that a step holds (at its probes when it
holds many), and the cut is the first grid point where the predicate can
fail, so a run costs its steps, not its ``horizon/h`` checks.  The self-
and time-triggered policies scan to their clock instants.

The scan hands the rule a *window* of consecutive accepted steps, drawn
ahead before any of them is judged; the stepper makes each step from the
previous one alone, so no verdict can change the steps before it.  What a
step reads depends on the step alone, so the rule reads the whole window in
one batch, then judges its steps in order, as one at a time would.  It
reads one field, :meth:`~clfetc.core.ControlSystem.frozen`, on one state or
a batch; the field checks the shape of each batch's result.  Steps drawn
after the first cut or restart are speculative and are discarded.  A
restart starts the stepper again at the first step not accepted, at half
its size (a retry) or at its own (a replay).  A window whose drawing or
reading raises is replayed, and the scan goes on one step at a time, so
that an error surfaces where a window of 1 meets it.  The rule sizes its
next window from the trend of what it reads, from 1 to ``_WINDOW_CAP``
steps.  The window size changes how fast a run goes, never what it
computes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .core import ClfCertificate, ControlSystem, _as_points, _as_vector
from .errors import BlowupError, DomainError, IntegrationError
from .triggers import (EventTriggered, PeriodicEventTriggered, TriggerPolicy,
                       equilibrium_threshold, frozen_guard, predicate_margin,
                       predicate_p)

__all__ = [
    "IntegratorConfig",
    "DenseSegment",
    "EventRecord",
    "Trajectory",
    "RunStats",
    "integrate_frozen",
    "locate_event",
    "run_closed_loop",
    "run_stats",
    "stats_from_event_times",
    "check_rate_certificate",
    "write_trajectory_csv",
    "read_event_times_csv",
]

BLOWUP_NORM = 1e12
ZENO_CONSECUTIVE = 10
GUARD_PROBES = 8  # interior guard evaluations per accepted step
_THETAS = tuple((j + 1) / (GUARD_PROBES + 1) for j in range(GUARD_PROBES))
_PROBE_ROW = np.array((0.0, *_THETAS, 1.0))  # a step's start, probes and end
_WINDOW_CAP = 16  # most steps a step rule reads in one batch
_EPS = float(np.finfo(float).eps)
ILLINOIS_MAX_ITER = 200  # far more than floating-point resolution needs
RATE_SLACK = 1e-6  # check_rate_certificate's slack, relative to 1 + V0

# Dormand-Prince 5(4) tableau; the 7th stage is evaluated at the 5th-order
# solution (FSAL), so each step costs six fresh evaluations.
_A = [
    None,
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and safeguards for one closed-loop run.

    ``max_step`` defaults to ``horizon/1000`` when left unset.
    ``output_points`` sets the dense recording grid; event instants are
    always recorded exactly, in addition.
    """

    horizon: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_step: Optional[float] = None
    max_events: int = 1_000_000
    zeno_floor: float = 1e-9
    output_points: int = 1001

    def __post_init__(self):
        if self.horizon <= 0:
            raise DomainError("horizon must be positive")
        for name in ("rel_tol", "abs_tol", "zeno_floor"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.max_step is not None and self.max_step <= 0:
            raise DomainError("max_step must be positive")
        if self.max_events < 1:
            raise DomainError("max_events must be at least 1")
        if self.output_points < 2:
            raise DomainError("output_points must be at least 2")
        if self.max_step is None:
            object.__setattr__(self, "max_step", self.horizon / 1000.0)


# ---------------------------------------------------------------------------
# low-level stepping


def _rk_step(f, y, f0, h):
    """One Dormand-Prince attempt; returns (y1, f_at_y1, error_vector)."""
    K = np.empty((7, y.size))
    K[0] = f0
    yi = y
    for i in range(1, 7):
        yi = y + h * (_A[i] @ K[:i])
        K[i] = f(yi)
    return yi, K[6], h * (_E @ K)


def _rms(q):
    """The root mean square of a vector, with the bits of
    ``np.sqrt(np.mean(q ** 2))``: the same pairwise sum, without the calls
    around it."""
    return math.sqrt(float(np.add.reduce(q * q)) / q.size)


def _error_norm(err, y0, y1, rtol, atol):
    return _rms(err / (atol + rtol * np.maximum(np.abs(y0), np.abs(y1))))


def _initial_step(f, y0, f0, rtol, atol, max_step, span):
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, max_step)
    if h0 <= 0:
        return min(span, max_step)
    y1 = y0 + h0 * f0
    f1 = f(y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span, max_step)


def _cubic(s, y0, f0, y1, f1, h):
    """The cubic Hermite formula at step fractions ``s``, elementwise, so an
    array of steps and fractions gives each entry the bits of its own step
    alone."""
    s2 = s * s
    s3 = s2 * s
    h00 = 2 * s3 - 3 * s2 + 1
    h10 = s3 - 2 * s2 + s
    h01 = -2 * s3 + 3 * s2
    h11 = s3 - s2
    return h00 * y0 + h01 * y1 + h * (h10 * f0 + h11 * f1)


class _Hermite:
    """Cubic Hermite interpolant over one accepted step, at one time or at a
    ``(k, 1)`` column of times, elementwise alike.  ``step`` is the size the
    stepper gave the step, from which ``t1 - t0`` may differ by rounding."""

    __slots__ = ("t0", "y0", "f0", "t1", "y1", "f1", "h", "step")

    def __init__(self, t0, y0, f0, t1, y1, f1, step=None):
        self.t0, self.y0, self.f0 = t0, y0, f0
        self.t1, self.y1, self.f1 = t1, y1, f1
        self.h = t1 - t0
        self.step = step

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        if self.h == 0.0:
            return self.y0
        return _cubic((t - self.t0) / self.h, self.y0, self.f0, self.y1,
                      self.f1, self.h)


def _steps(f, t, y, f0, t_end, cfg, h=None):
    """Yield the accepted :class:`_Hermite` pieces that carry (t, y) to t_end.

    The first attempt has size ``h``, or the automatic initial step when
    ``h`` is None.  Raises :class:`BlowupError` once the state norm passes
    the blow-up cap.
    """
    if t_end <= t:
        return
    if h is None:
        h = _initial_step(f, y, f0, cfg.rel_tol, cfg.abs_tol, cfg.max_step, t_end - t)
    while t < t_end:
        h = min(h, cfg.max_step, t_end - t)
        if h <= 4.0 * _EPS * max(1.0, abs(t)):
            # the remaining span is below time resolution; snap to the target
            yield _Hermite(t, y, f0, t_end, y, f0, h)
            return
        attempts = 0
        while True:
            y1, f1, err = _rk_step(f, y, f0, h)
            enorm = _error_norm(err, y, y1, cfg.rel_tol, cfg.abs_tol)
            if math.isfinite(enorm) and enorm <= 1.0:
                break
            # at most 0.9: the error norm here is above 1
            h *= 0.25 if not math.isfinite(enorm) else max(0.2, 0.9 * enorm ** -0.2)
            attempts += 1
            if attempts > 200 or h < 1e-15 * max(1.0, abs(t)):
                raise IntegrationError(
                    f"step size underflow at t={t} (error norm {enorm})")
        yield _Hermite(t, y, f0, t + h, y1, f1, h)
        t, y, f0 = t + h, y1, f1
        if math.sqrt(float(y.dot(y))) > BLOWUP_NORM:  # np.linalg.norm's bits
            raise BlowupError(t, y)
        if enorm == 0.0:
            h *= 5.0
        else:
            h *= min(5.0, max(0.2, 0.9 * enorm ** -0.2))


@dataclass
class DenseSegment:
    """A frozen-input solution piece with interpolation between mesh points."""

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray

    def eval(self, t: float) -> np.ndarray:
        if not self.ts[0] <= t <= self.ts[-1]:
            raise DomainError(f"t={t} outside segment [{self.ts[0]}, {self.ts[-1]}]")
        i = int(np.searchsorted(self.ts, t, side="right")) - 1
        i = min(max(i, 0), len(self.ts) - 2)
        piece = _Hermite(self.ts[i], self.ys[i], self.fs[i],
                         self.ts[i + 1], self.ys[i + 1], self.fs[i + 1])
        return piece(t)


def integrate_frozen(sys: ControlSystem, x0, u, t_span,
                     config: IntegratorConfig) -> DenseSegment:
    """Solve ``xdot = F(x, u)`` with the control held fixed over ``t_span``.

    Returns a densely interpolable segment; raises :class:`BlowupError` if
    the state norm passes the blow-up cap before the span ends.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise DomainError("t_span must be increasing")
    x0 = np.asarray(x0, dtype=float)
    u = np.asarray(u, dtype=float)
    ts, ys, fs = [t0], [x0], [sys.f(x0, u)]  # dimensions validated once
    f = sys.frozen(u)
    for piece in _steps(f, t0, x0, fs[0], t1, config):
        ts.append(piece.t1)
        ys.append(piece.y1)
        fs.append(piece.f1)
    return DenseSegment(np.array(ts), np.array(ys), np.array(fs))


def locate_event(guard: Callable[[float], float], a: float, b: float,
                 ga: Optional[float] = None, gb: Optional[float] = None) -> float:
    """Earliest zero of a scalar guard on [a, b] by the Illinois method
    (Dowell & Jarratt, BIT 1971): regula falsi that halves the stored guard
    value of an end kept twice in a row.

    Requires ``guard(a) < 0 <= guard(b)`` and returns the guard-nonnegative
    end of a bracket at most ``8*eps*|t|`` wide.  Each trial point sits at
    least ``2*eps*|t|`` inside the bracket, and the step is a bisection
    whenever the bracket has fallen behind one halving per two guard reads,
    so no guard, however rough, costs much more than twice what bisection
    costs.
    """
    ga = guard(a) if ga is None else ga
    gb = guard(b) if gb is None else gb
    if not (ga < 0.0 <= gb):
        raise DomainError(f"bracket does not straddle the event surface: "
                          f"g({a})={ga}, g({b})={gb}")
    w0, kept = b - a, 0  # kept: 1 after a step that kept a, -1 after one kept b
    for n in range(ILLINOIS_MAX_ITER):
        w, ulp = b - a, math.ulp(1.0) * max(abs(a), abs(b))
        if w <= 8.0 * ulp:
            break
        if w > w0 * 0.5 ** (0.5 * n - 1.0):  # behind the pace: bisect
            c = 0.5 * (a + b)
        else:  # a float even where the guard returns numpy scalars
            c = float(min(max(b - gb * w / (gb - ga), a + 2.0 * ulp),
                          b - 2.0 * ulp))
        if not a < c < b:
            break
        gc = guard(c)
        if gc >= 0.0:
            if kept == 1:
                ga *= 0.5
            b, gb, kept = c, gc, 1
        else:
            if kept == -1:
                gb *= 0.5
            a, ga, kept = c, gc, -1
    return b


# ---------------------------------------------------------------------------
# trajectory recording


@dataclass(frozen=True)
class EventRecord:
    index: int
    time: float
    state: np.ndarray
    control: np.ndarray
    guard_value: float
    dwell: Optional[float]
    reason: str


@dataclass
class Trajectory:
    """Dense output plus the event log of one closed-loop run: row 0 holds x0,
    and ``bound`` the envelope ``Ginv(G(V0) - sigma t)`` at each row."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    bound: np.ndarray
    event_flag: np.ndarray
    events: list
    termination: str
    sigma: float


class _Recorder:
    def __init__(self, cert, sys, grid):
        self.cert = cert
        self.sys = sys
        self.grid = grid
        self.next_grid = 0
        self.rows_t = []
        self.rows_x = []
        self.rows_u = []
        self.rows_flag = []

    def add_row(self, t, x, u, flag):
        if self.rows_t and t == self.rows_t[-1]:
            if flag:
                self.rows_x[-1] = np.array(x, dtype=float)
                self.rows_u[-1] = np.array(u, dtype=float)
                self.rows_flag[-1] = 1
            return
        self.rows_t.append(float(t))
        self.rows_x.append(np.array(x, dtype=float))
        self.rows_u.append(np.array(u, dtype=float))
        self.rows_flag.append(int(flag))

    def fill_grid(self, t_hi, state_at, u, inclusive):
        while self.next_grid < len(self.grid):
            tg = self.grid[self.next_grid]
            if tg < t_hi or (inclusive and tg == t_hi):
                self.add_row(tg, state_at(tg), u, 0)
                self.next_grid += 1
            else:
                break

    def finalize(self, events, termination, sigma) -> Trajectory:
        t = np.array(self.rows_t)
        # checked once here, then read in one call each, on every row
        x = _as_points(self.rows_x, self.sys.state_dim, "state")
        u = _as_points(self.rows_u, self.sys.input_dim, "control")
        v = self.cert.levels(x)
        w = np.vecdot(self.cert.grad(x), self.sys.f(x, u))
        v0 = float(v[0])
        bound = np.array([self.cert.energy_map.bound_after(v0, float(ti), sigma)
                          for ti in t])
        return Trajectory(t=t, x=x, u=u, v=v, w=w, bound=bound,
                          event_flag=np.array(self.rows_flag, dtype=int),
                          events=list(events), termination=termination,
                          sigma=sigma)


# ---------------------------------------------------------------------------
# the closed-loop driver


def _probe_times(piece):
    """The step's two ends and its ``GUARD_PROBES`` interior probe times."""
    return ([piece.t0] + [piece.t0 + th * piece.h for th in _THETAS]
            + [piece.t1])


def _window_states(pieces, times):
    """The states that a window of steps reads, in order, from one
    elementwise interpolant pass.

    ``times[i]`` lists the instants read on step ``i``, at most
    ``GUARD_PROBES + 1``, or is None for the step's probes: its start
    ``y0``, its ``GUARD_PROBES`` interior probes at the times of
    :func:`_probe_times` and its end ``y1``.  Each interpolated row has the
    bits of ``piece(t)`` at its time alone, so a single step of listed
    instants is read through its own interpolant, without stacking the
    window.
    """
    if len(pieces) == 1 and times[0] is not None:
        return pieces[0](np.array(times[0])[:, None])
    t0, h, y0, f0, y1, f1 = (np.array(a)[:, None] for a in zip(
        *((p.t0, p.h, p.y0, p.f0, p.y1, p.f1) for p in pieces)))
    t = t0 + _PROBE_ROW * h  # listed instants take the probes' places
    if times.count(None) == len(times):  # no mask to gather through
        ys = _cubic(((t[:, 1:-1] - t0) / h)[:, :, None], y0, f0, y1, f1,
                    h[:, :, None])
        return np.concatenate((y0, ys, y1), axis=1).reshape(-1, ys.shape[-1])
    read = np.ones(t.shape, dtype=bool)
    for i, ts in enumerate(times):
        if ts is not None:
            t[i, :len(ts)] = ts
            read[i, len(ts):] = False
    ys = _cubic(((t - t0) / h)[:, :, None], y0, f0, y1, f1, h[:, :, None])
    probes = [i for i, ts in enumerate(times) if ts is None]
    ys[probes, 0] = y0[probes, 0]
    ys[probes, -1] = y1[probes, 0]
    return ys[read]


_HALVE = "halve"  # a step rule's verdict: retry the step at half its size
_REPLAY = "replay"  # replay the step, and read one step at a time from it


def _width(value, rise):
    """The size of a step rule's next window: half the steps in which a
    value below zero that rises by ``rise`` a step reaches zero, at least 1
    and at most ``_WINDOW_CAP``; the cap when it does not rise."""
    ahead = -value / rise / 2 if rise > 0.0 else _WINDOW_CAP  # NaN: the cap
    return max(1, int(min(_WINDOW_CAP, max(ahead, 0.0))))


def _grid_index(t, h):
    """The largest ``j >= 0`` with ``j*h <= t`` (``t >= 0``, ``h > 0``),
    found without stepping through the grid: ``t // h``, the exact floor of
    ``t/h``, already has ``j*h <= t``, but ``(j + 1)*h`` may round to ``t``;
    ``m`` on a grid point ``m*h``."""
    j = int(t // h)
    while (j + 1) * h <= t:
        j += 1
    return j


def _step_rule(scalar, grid=None):
    """The step rule of one scan under the event policy (``grid`` None) or
    the periodic policy (``grid = (h, t_end, t_last)``).

    ``scalar(y, fy)`` reads a state or a batch with its field values: the
    frozen guard, or the predicate margin, which is non-negative wherever
    the predicate can fail.  An event step reads its start, probes and end.
    A periodic step reads the check times ``min(j*h, t_end)``, with
    ``j*h <= t_last``, past its start's grid index: those times when there
    are at most ``GUARD_PROBES + 1``, else its start, probes and end.  The
    reads depend on the step alone, so the rule reads a window in
    one batch, then judges its steps in order.  The first non-negative read
    decides.  A check time is the cut, a start read cuts at the next grid
    point, and otherwise the root between the probe before and the read
    (:func:`locate_event`) is the cut, or on the grid the first grid point
    at or after it inside the step; with none, the step is accepted.  An
    event step whose reads change sign more than once is retried at half
    size instead, so that the earliest root cannot be skipped.  The next
    window holds half the steps that the trend of the last two reads
    predicts to zero, at least 1, on the grid at least the steps that reach
    the next grid point, since none before it can be cut, and at most
    ``_WINDOW_CAP``.  A read that raises on a window of several steps asks
    for a replay, since a speculative step may hold states that the model
    rejects; on one step the error is raised.
    """
    if grid is not None:
        h, t_end, t_last = grid
        j_max = _grid_index(t_last, h)
    halved = 0
    last = None  # (time, value) of the last read
    slope = None  # the value's change per unit time over its last two reads

    def check_time(j):
        return min(j * h, t_end)

    def width(piece, j=None):
        ahead = 1 if j is None else int((check_time(j + 1) - piece.t1) / piece.h) + 1
        trend = 1 if slope is None else _width(last[1], slope * piece.h)
        return min(_WINDOW_CAP, max(ahead, trend))

    def cut(piece, f, ts, row, r, j0, j1):
        """The cut instant that read ``r`` of a step makes, or None."""
        if ts is not None:
            return ts[r]
        if r == 0:
            return check_time(j0 + 1)
        probe_t = _probe_times(piece)

        def scalar_at(tt):
            y = piece(tt)
            return scalar(y, f(y))

        root = locate_event(scalar_at, probe_t[r - 1], probe_t[r],
                            row[r - 1], row[r])
        if grid is None:
            return root
        j = max(j0 + 1, _grid_index(root, h))
        if check_time(j) < root:
            j += 1
        return check_time(j) if j <= j1 else None

    def rule(pieces, f):
        nonlocal halved, last, slope
        # (step, listed times or None for the probes, grid indices of its ends)
        if grid is None:
            reading, j = [(i, None, 0, 0) for i in range(len(pieces))], None
        else:
            reading, j = [], _grid_index(pieces[0].t0, h)
            for i, piece in enumerate(pieces):
                j1 = j_max if piece.t1 >= t_end else _grid_index(piece.t1, h)
                if j1 > j:
                    reading.append((i, None if j1 > j + 1 + GUARD_PROBES else
                                    [check_time(n) for n in range(j + 1, j1 + 1)],
                                    j, j1))
                j = j1
        if reading:
            steps, times, _, _ = zip(*reading)
            ys = _window_states([pieces[i] for i in steps], times)
            try:
                batch = scalar(ys, f(ys))
            except Exception:
                if len(pieces) == 1:
                    raise
                return 0, _REPLAY, 1
            values, below = batch.tolist(), (batch < 0.0).tolist()
        end = 0
        for i, ts, j0, j1 in reading:
            piece, start = pieces[i], end
            end += GUARD_PROBES + 2 if ts is None else len(ts)
            if not all(below[start:end]):
                row = values[start:end]
                r = below.index(False, start) - start
                if grid is None and halved < 60 and \
                        piece.h > 1e-13 * max(1.0, abs(piece.t0)) and \
                        sum(1 for a, b in zip(row, row[1:])
                            if (a < 0.0 <= b) or (b < 0.0 <= a)) > 1:
                    halved += 1
                    return i, _HALVE, width(piece)
                at = cut(piece, f, ts, row, r, j0, j1)
                if at is not None:
                    return i, at, 1
            halved = 0
            ta, tb = (piece.t0, piece.t1) if ts is None else (ts[0], ts[-1])
            if end - start > 1:
                last = (ta, values[start])
            if last is not None and tb > last[0]:
                slope = (values[end - 1] - last[1]) / (tb - last[0])
            last = (tb, values[end - 1])
        return len(pieces), None, width(pieces[-1], j)

    return rule


def _scan(sys, x, fx, u, t, t_end, cfg, rec, cut=None):
    """Integrate the frozen loop from ``x``, with checked field value ``fx``,
    towards ``t_end``, filling grid rows along the way.

    ``cut(pieces, f)``, the policy's step rule (:func:`_step_rule`), reads a
    window of consecutive accepted steps with the frozen field ``f``
    (:meth:`ControlSystem.frozen`) on one state and on a batch, and judges
    them in order.  It returns ``(n, verdict, width)``:
    the first ``n`` steps are accepted; the verdict on the next is ``None``
    when there is none (all were accepted), ``_HALVE`` or ``_REPLAY`` to
    restart the stepper at it with half or all of the size the stepper gave
    it, or a time to cut it there; ``width`` is the size of the next window.
    The steps after a cut or a restart are speculative, drawn ahead of the
    verdict, and are discarded; the stepper makes each step from the last
    alone, so a replay makes the same steps, and the window size never
    changes a result.  The stepper raising after it drew part of a window
    also replays it.  After a replay the scan reads one step at a time, so
    that an error surfaces where a window of 1 meets it; an error on a
    window's first step is raised.  At a cut, rows fill strictly before the
    cut instant, and one tolerance-checked corrector integration from the
    step start replaces the interpolant.
    Returns ``(t_cut, x, fx)`` at a cut, or ``(t_end, x_end, None)``.  Clock
    scans, with no rule, accept every step.
    """
    f = sys.frozen(u)
    steps = _steps(f, t, x, fx, t_end, cfg)
    width = 1 if cut is not None else _WINDOW_CAP
    cap = _WINDOW_CAP
    while True:
        pieces = []
        try:
            for piece in itertools.islice(steps, width):
                pieces.append(piece)
        except Exception:
            if not pieces:
                raise
            n, at, next_width = 0, _REPLAY, 1
        else:
            n, at, next_width = len(pieces), None, width
            if cut is not None and pieces:
                n, at, next_width = cut(pieces, f)
        for piece in pieces[:n]:
            rec.fill_grid(piece.t1, piece, u, inclusive=True)
        if n:
            t, x, fx = pieces[n - 1].t1, pieces[n - 1].y1, pieces[n - 1].f1
        if at is _REPLAY:
            cap = 1
        if at is _HALVE or at is _REPLAY:
            h = pieces[n].h / 2.0 if at is _HALVE else pieces[n].step
            steps = _steps(f, t, x, fx, t_end, cfg, h)
        elif at is not None:
            piece = pieces[n]
            rec.fill_grid(at, piece, u, inclusive=False)
            sub = integrate_frozen(sys, piece.y0, u, (piece.t0, at), cfg)
            return at, sub.ys[-1], sub.fs[-1]
        elif len(pieces) < width:  # the stepper has reached t_end
            return t_end, x, None
        width = min(next_width, cap)


def run_closed_loop(sys: ControlSystem, cert: ClfCertificate, policy: TriggerPolicy,
                    x0, config: IntegratorConfig) -> Trajectory:
    """Alternate frozen-input integration with the policy's update decisions
    until the horizon, the equilibrium, or a safeguard ends the run.

    One scan of the frozen flow (:func:`_scan`) runs between updates; the
    policies differ only in where it stops.  The event-triggered and the
    periodic event-triggered policies make one step rule
    (:func:`_step_rule`) for each scan, with their own scalar.  Under the
    event policy it cuts the scan at the guard's first zero.  Under the
    periodic policy it cuts it at the first grid instant ``j*h`` where the
    predicate can fail; the predicate is checked there, and a new scan
    starts from that point while it holds.  The self- and time-triggered
    policies scan to their clock instants with no rule.  An instant or check time at most
    ``1e-12`` (relative) past the horizon is taken at the horizon.  The
    control is recomputed at every recorded event and is bitwise constant
    between events.  Dense rows land on the configured output grid; every
    event instant is recorded exactly.
    """
    sigma = policy.sigma
    x0 = _as_vector(x0, sys.state_dim, "state")  # before the feedback reads it
    u = cert.u(x0)
    fx = sys.f(x0, u)  # dimension check up front
    horizon = config.horizon
    grid = np.linspace(0.0, horizon, config.output_points)
    rec = _Recorder(cert, sys, grid)

    v0 = cert.v(x0)
    eps_eq = equilibrium_threshold(v0)
    events: list = []
    termination = "horizon"
    zeno_run = 0

    def push_event(t, x, u, gval, reason):
        dwell = None if not events else t - events[-1].time
        events.append(EventRecord(index=len(events), time=t, state=np.array(x),
                                  control=np.array(u), guard_value=gval,
                                  dwell=dwell, reason=reason))
        rec.add_row(t, x, u, 1)

    def freeze(t, x, gval):
        """Record the equilibrium update at ``t``, then hold ``x`` and the
        origin's control to the horizon."""
        u = cert.u(np.zeros(sys.state_dim))
        push_event(t, x, u, gval, "equilibrium_frozen")
        rec.fill_grid(horizon, lambda _t: x, u, inclusive=True)
        return rec.finalize(events, "equilibrium", sigma)

    t = 0.0
    x = x0
    if v0 <= eps_eq:
        return freeze(0.0, x, 0.0)
    push_event(0.0, x, u, frozen_guard(cert, x, fx, sigma), "init")

    t_last = horizon * (1.0 + 1e-12)  # an instant up to here fires at the horizon
    grid = None  # the periodic policy's check grid
    if isinstance(policy, EventTriggered):
        reason, scalar = "guard_zero", partial(frozen_guard, cert, sigma=sigma)
    elif isinstance(policy, PeriodicEventTriggered):
        reason, grid = "predicate_false", (policy.h, horizon, t_last)
        scalar = partial(predicate_margin, cert, policy.big_m,
                         sigma_tilde=policy.sigma_tilde, k_big=policy.k_big)
    else:
        reason = "clock"
    k = 0  # clock instants reached so far

    while t < horizon and len(events) < config.max_events:
        if fx is None:
            fx = sys.f(x, u)  # the segment's state and control, checked once
        try:
            if reason == "clock":
                t_next = policy.next_instant(k, t)
                if t_next is not None and t_next <= t_last:
                    k += 1
                    t, x, _ = _scan(sys, x, fx, u, t, min(t_next, horizon),
                                    config, rec)
                    fx = sys.f(x, u)
                else:
                    t, x, fx = _scan(sys, x, fx, u, t, horizon, config, rec)
            # a guard not below zero here, NaN included, fires at once
            elif grid is not None or frozen_guard(cert, x, fx, sigma) < 0.0:
                t, x, fx = _scan(sys, x, fx, u, t, horizon, config, rec,
                                 _step_rule(scalar, grid))
                if grid is not None and fx is not None and predicate_p(
                        cert, policy.big_m, x, fx, policy.sigma_tilde, policy.k_big):
                    continue  # the check holds: scan on from its grid point
        except BlowupError as exc:
            rec.add_row(exc.t, exc.state, u, 0)
            t, x = exc.t, exc.state
            termination = "blowup"
            break
        if fx is None:
            continue  # the horizon, with no update

        g_fire = frozen_guard(cert, x, fx, sigma)
        dwell = t - events[-1].time
        zeno_run = zeno_run + 1 if dwell < config.zeno_floor else 0
        if cert.v(x) <= eps_eq:
            return freeze(t, x, g_fire)
        u = cert.u(x)
        fx = None
        push_event(t, x, u, g_fire, reason)
        if zeno_run >= ZENO_CONSECUTIVE:
            termination = "zeno_abort"
            break
    if termination == "horizon" and len(events) >= config.max_events:
        termination = "event_cap"

    return rec.finalize(events, termination, sigma)


# ---------------------------------------------------------------------------
# statistics and checks


@dataclass(frozen=True)
class RunStats:
    """Event-timing summary of a run.

    ``min_dwell``/``max_dwell`` cover every inter-event gap including the
    initial one; ``max_dwell_post_first`` covers only gaps between events
    fired after t=0 (None with fewer than three events).  The frequency is
    ``(n_events - 1) / (t_last - t_first)`` with ``t_first`` the first
    *fired* event (the initial sample at t=0 opens the window but does not
    set its start), i.e. fired events per second over the firing window.
    """

    n_events: int
    first_event_time: Optional[float]
    min_dwell: Optional[float]
    max_dwell: Optional[float]
    max_dwell_post_first: Optional[float]
    mean_event_frequency: Optional[float]
    termination: Optional[str] = None


def stats_from_event_times(times, termination=None) -> RunStats:
    times = [float(t) for t in times]
    if not times:
        raise DomainError("stats need at least one event")
    n = len(times)
    dwells = [b - a for a, b in zip(times, times[1:])]
    first_pos = next((t for t in times if t > 0.0), None)
    freq = None
    if n >= 2 and first_pos is not None and times[-1] > first_pos:
        freq = (n - 1) / (times[-1] - first_pos)
    return RunStats(
        n_events=n,
        first_event_time=first_pos,
        min_dwell=min(dwells) if dwells else None,
        max_dwell=max(dwells) if dwells else None,
        max_dwell_post_first=max(dwells[1:]) if len(dwells) >= 2 else None,
        mean_event_frequency=freq,
        termination=termination,
    )


def run_stats(traj: Trajectory) -> RunStats:
    return stats_from_event_times([e.time for e in traj.events], traj.termination)


def check_rate_certificate(traj: Trajectory):
    """Verify ``V(x(t)) <= bound + slack`` at every recorded point, against
    the run's envelope ``traj.bound``; returns ``(ok, max_excess)``.  A row
    whose excess is NaN is skipped, and with no other row the excess is
    -inf."""
    slack = RATE_SLACK * (1.0 + float(traj.v[0]))
    excess = traj.v - traj.bound
    worst = float(np.max(excess, initial=-math.inf, where=~np.isnan(excess)))
    return worst <= slack, worst


# ---------------------------------------------------------------------------
# artifacts


def write_trajectory_csv(traj: Trajectory, path):
    """Columns ``t,x1..xd,u1..um,V,W,event_flag``; shortest round-trip float
    formatting so identical runs serialize byte-identically."""
    d = traj.x.shape[1]
    m = traj.u.shape[1]
    header = (["t"] + [f"x{i+1}" for i in range(d)] + [f"u{j+1}" for j in range(m)]
              + ["V", "W", "event_flag"])
    columns = ([traj.t.tolist()] + traj.x.T.tolist() + traj.u.T.tolist()
               + [traj.v.tolist(), traj.w.tolist(), traj.event_flag.tolist()])
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in zip(*columns)]
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_event_times_csv(path):
    """Event instants from a trajectory CSV.  Bytes that are not UTF-8, a
    missing ``t`` or ``event_flag`` column, a row too short for them, or an
    event time that is not a number raise :class:`DomainError` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().strip().split(",")
            for column in ("t", "event_flag"):
                if column not in header:
                    raise DomainError(f"{path}: no {column!r} column in the header")
            t_idx = header.index("t")
            flag_idx = header.index("event_flag")
            events = []
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                cells = line.strip().split(",")
                if len(cells) <= max(t_idx, flag_idx):
                    raise DomainError(f"{path}, line {lineno}: {len(cells)} cells, "
                                      f"the header has {len(header)}")
                if cells[flag_idx] == "1":
                    try:
                        events.append(float(cells[t_idx]))
                    except ValueError:
                        raise DomainError(f"{path}, line {lineno}: t {cells[t_idx]!r} "
                                          "is not a number") from None
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: {exc}") from None
    return np.array(events)
