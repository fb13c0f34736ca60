"""Closed-loop hybrid simulation: adaptive embedded Runge-Kutta integration
of the frozen-input flow with cubic dense output, safeguarded Illinois event
localization, trajectory recording and Zeno / blow-up safeguards.

One scan of the frozen flow runs between updates, whatever the policy.  The
event and periodic event policies share one step rule, which reads a scalar
along each accepted step and accepts the step or cuts it at an instant.
Under the event policy the scalar is the frozen guard, read at each step's
start, probes and end, and more densely on the step's own interpolant where
those reads change sign more than once; the cut is its first zero.  Under
the periodic policy it is the predicate's continuous margin, read at the
grid points ``j*h`` that a step holds (at its probes when it holds many),
and the cut is the first grid point where the predicate can fail, so a run
costs its steps, not its ``horizon/h`` checks.  The self- and
time-triggered policies scan to their clock instants.

The scan hands the rule a *window* of consecutive accepted steps, drawn
ahead before any of them is judged; the stepper makes each step from the
previous one alone, so no verdict can change the steps before it, and a
scan starts its stepper once.  What a step reads depends on the step alone,
so the rule reads the whole window in one batch, then judges its steps in
order, as one at a time would.  It reads one field,
:meth:`~clfetc.core.ControlSystem.frozen`, on one state or a batch; the
field checks the shape of each batch's result.  Steps drawn after the first
cut are speculative and are discarded.  A window fails in one place, the
scan: whether the stepper or a read raises, the steps drawn are judged
again one at a time, the first cut among them wins, and with none the error
is raised.
A scan's first window holds the smaller step count of the last two scans
that ended in a cut, and the rule sizes each later one from the trend of
what it reads, from 1 to ``_WINDOW_CAP`` steps: under the event policy all
the steps that the trend predicts to the guard's zero, under the periodic
policy half of them.  The window size changes how fast a run goes, never
what it computes.  At a cut, the state at the cut
instant comes from a corrector, one tolerance-checked integration from the
cut step's start; its first step is the cut step's own size, which covers
the span to the cut, so it takes one attempt unless the error control
rejects it.

Batches of states come from two readers, each row with the bits of its
step's interpolant at its instant alone: :func:`_probe_states` for windows
whose steps all read their start, probes and end, as every event window
does, and :func:`_states_at` for listed instants: the recorder's grid rows,
check times, refinement midpoints and a window of both kinds.  Event
localization reads one instant at a time, in floats (:meth:`_Hermite.at`,
:func:`_read`), with the same bits.  The scan hands the recorder a window's
accepted steps, with the cut step and its cut instant, in one call; it
writes their rows' instants into arrays that double when full, notes each
row's step, and resumes its grid at the first instant after its last row.
The noted rows' states come from one :func:`_states_at` pass once
``_GRID_CHUNK`` of them wait, and when the run ends, so the steps held for
them never pass that count, whatever ``output_points``.  The recorder keeps
each row's instant and state alone: the event log holds every update's
instant and control, so each row takes the control of the last update at or
before its instant, and the rows at an update's instant are flagged, once
the run ends.

Each Dormand-Prince attempt (:func:`_rk_step`) forms its stages, its error
estimate and its error norm in Python floats, coordinate by coordinate and
left to right, and calls the frozen field's float form, ``frozen(u).point``,
on lists of floats: a shipped model's ``rhs`` carries one written with it,
and any other system goes through an adapter that calls its ``rhs`` on an
array, with the same bits.  On the shipped models' one to three states an
attempt costs about half of what it does with the field called on arrays,
and no stage sum goes through BLAS.  Each step's interpolant carries its
accepted states and field values as these lists; batch reads build their
tables from them, and a state becomes an array where it leaves the scan.
The step rule's batches and the recorder read the field on arrays, event
localization its float form; the guard and the margin always run on
arrays.
"""

from __future__ import annotations

import bisect
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
_WINDOW_CAP = 16  # most steps a step rule reads in one batch
_GRID_CHUNK = 256  # most grid rows a recorder notes before it reads them
_REFINE_DOUBLINGS = 6  # most times an event step's reads are doubled
_EPS = float(np.finfo(float).eps)
# the most grid rows a run records: its recorder's arrays and grid then take
# about 0.37 GB at d = 3 and m = 1 (80 bytes a row)
MAX_OUTPUT_POINTS = 2**22
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
# the same coefficients as floats, for the stage sums of _rk_step
((_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65),
 (_A71, _A72, _A73, _A74, _A75, _A76)) = (a.tolist() for a in _A[1:])
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _E.tolist()


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and safeguards for one closed-loop run.

    ``horizon``, the two tolerances, ``max_step`` and ``zeno_floor`` must be
    positive and finite.  ``max_step`` defaults to ``horizon/1000`` when left
    unset.
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
        for name in ("horizon", "rel_tol", "abs_tol", "max_step", "zeno_floor"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:  # NaN too
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if self.max_events < 1:
            raise DomainError("max_events must be at least 1")
        if self.output_points < 2:
            raise DomainError("output_points must be at least 2")
        if self.max_step is None:
            object.__setattr__(self, "max_step", self.horizon / 1000.0)


# ---------------------------------------------------------------------------
# low-level stepping


def _rk_step(f, Y, K1, h):
    """One Dormand-Prince attempt from the state ``Y``, with field value
    ``K1``, over ``h``; returns ``(y1, f(y1), err)``: the 5th-order state,
    its field value and the error estimate.  States, field values and the
    estimate are sequences of floats, and ``f`` is the frozen field's float
    form (:meth:`~clfetc.core.ControlSystem.frozen`).

    The stage sums run over Python floats, coordinate by coordinate, each
    ``y + h*(a1*k1 + ... + ai*ki)`` summed left to right.  On the shipped
    models (d <= 3), whose fields have a float form, an attempt and its
    error norm take 7-12 us, six field calls included, against 11-24 us
    with the field called on arrays (2 vCPU Xeon, Python 3.11).  A system
    with no float form goes through the adapter, which calls its ``rhs`` on
    an array; the cost then grows with d: on a linear field these float
    sums and a numpy call per stage sum cross near d = 9, and at d = 20 it
    is about 50 us against 32 us.  The zero weights stay in the sums, so
    that a non-finite value in any stage makes the error estimate
    non-finite.
    """
    K2 = f([y + h * (_A21 * k1) for y, k1 in zip(Y, K1)])
    K3 = f([y + h * (_A31 * k1 + _A32 * k2) for y, k1, k2 in zip(Y, K1, K2)])
    K4 = f([y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3)
            for y, k1, k2, k3 in zip(Y, K1, K2, K3)])
    K5 = f([y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
            for y, k1, k2, k3, k4 in zip(Y, K1, K2, K3, K4)])
    K6 = f([y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
            for y, k1, k2, k3, k4, k5 in zip(Y, K1, K2, K3, K4, K5)])
    y1 = [y + h * (_A71 * k1 + _A72 * k2 + _A73 * k3 + _A74 * k4 + _A75 * k5
                   + _A76 * k6)
          for y, k1, k2, k3, k4, k5, k6 in zip(Y, K1, K2, K3, K4, K5, K6)]
    f1 = f(y1)
    err = [h * (_E1 * k1 + _E2 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6
                + _E7 * k7)
           for k1, k2, k3, k4, k5, k6, k7 in zip(K1, K2, K3, K4, K5, K6, f1)]
    return y1, f1, err


def _sum_squares(q):
    """The sum of the squares of a sequence of floats, left to right."""
    s = 0.0
    for x in q:
        s += x * x
    return s


def _rms(q):
    """The root mean square of a list of floats, summed left to right, as
    numpy's pairwise sum does below eight terms."""
    return math.sqrt(_sum_squares(q) / len(q))


def _error_norm(err, y0, y1, rtol, atol):
    """The RMS of ``err`` over ``atol + rtol*max(|y0|, |y1|)``, coordinate
    by coordinate, all sequences of floats.  ``y1`` goes first in ``max``,
    which keeps its first argument against a NaN, so a NaN in ``y1`` makes
    the norm NaN, as ``np.maximum`` would; ``y0``, an accepted state, is
    finite."""
    return _rms([e / (atol + rtol * max(abs(b), abs(a)))
                 for e, a, b in zip(err, y0, y1)])


def _initial_step(f, Y, F0, rtol, atol, max_step, span):
    """The Gladwell-Shampine-Brankin first step from the state ``Y`` with
    field value ``F0``, sequences of floats, for the float field ``f``."""
    scale = [atol + rtol * abs(y) for y in Y]
    d0 = _rms([y / s for y, s in zip(Y, scale)])
    d1 = _rms([k / s for k, s in zip(F0, scale)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, max_step)
    if h0 <= 0:
        return min(span, max_step)
    f1 = f([y + h0 * k for y, k in zip(Y, F0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(F0, f1, scale)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span, max_step)


def _weights(s):
    """The four cubic Hermite weights ``(h00, h10, h01, h11)`` at a step
    fraction ``s``: a float, or an array of them, elementwise."""
    s2 = s * s
    s3 = s2 * s
    return 2 * s3 - 3 * s2 + 1, s3 - 2 * s2 + s, -2 * s3 + 3 * s2, s3 - s2


def _cubic(w, y0, f0, y1, f1, h):
    """The cubic Hermite formula with weights ``w`` (:func:`_weights`),
    elementwise, so an array of steps and weights gives each entry the bits
    of its own step and fraction alone."""
    h00, h10, h01, h11 = w
    return h00 * y0 + h01 * y1 + h * (h10 * f0 + h11 * f1)


class _Hermite:
    """Cubic Hermite interpolant over one accepted step, whose ends' states
    and field values are the stepper's float lists.  :meth:`at` reads it at
    one time in floats, and ``piece(t)`` makes that read an array; the
    readers :func:`_probe_states` and :func:`_states_at` give each row of a
    batch these bits."""

    __slots__ = ("t0", "y0", "f0", "t1", "y1", "f1", "h")

    def __init__(self, t0, y0, f0, t1, y1, f1):
        self.t0, self.y0, self.f0 = t0, y0, f0
        self.t1, self.y1, self.f1 = t1, y1, f1
        self.h = t1 - t0

    def at(self, t: float) -> list:
        """The state at ``t``, coordinate by coordinate, with the float
        operations of :func:`_weights` and :func:`_cubic`."""
        h = self.h
        if h == 0.0:
            return list(self.y0)
        h00, h10, h01, h11 = _weights((t - self.t0) / h)
        return [h00 * a + h01 * b + h * (h10 * fa + h11 * fb)
                for a, fa, b, fb in zip(self.y0, self.f0, self.y1, self.f1)]

    def __call__(self, t: float) -> np.ndarray:
        return np.array(self.at(t))


def _steps(f, t, y, f0, t_end, cfg, h=None):
    """Yield the accepted :class:`_Hermite` pieces that carry (t, y) to t_end,
    each made from the one before alone, with the frozen field's float form
    ``f``; ``y`` and ``f0`` are arrays.  The attempts run on lists of
    floats, and each piece carries the lists of its ends.  The first step
    tried is ``h``, or :func:`_initial_step`'s when None; like every step,
    it is clamped by ``max_step`` and the span left.  When the span left is
    below time resolution, a last piece holds the last state and field
    value to ``t_end``.  Raises :class:`BlowupError` once the state norm
    (squares summed left to right) passes the blow-up cap.
    """
    if t_end <= t:
        return
    Y, F0 = y.tolist(), f0.tolist()
    if h is None:
        h = _initial_step(f, Y, F0, cfg.rel_tol, cfg.abs_tol, cfg.max_step, t_end - t)
    while t < t_end:
        h = min(h, cfg.max_step, t_end - t)
        if h <= 4.0 * _EPS * max(1.0, abs(t)):
            # the remaining span is below time resolution; snap to the target
            yield _Hermite(t, Y, F0, t_end, Y, F0)
            return
        attempts = 0
        while True:
            Y1, F1, err = _rk_step(f, Y, F0, h)
            enorm = _error_norm(err, Y, Y1, cfg.rel_tol, cfg.abs_tol)
            if math.isfinite(enorm) and enorm <= 1.0:
                break
            # at most 0.9: the error norm here is above 1
            h *= 0.25 if not math.isfinite(enorm) else max(0.2, 0.9 * enorm ** -0.2)
            attempts += 1
            if attempts > 200 or h < 1e-15 * max(1.0, abs(t)):
                raise IntegrationError(
                    f"step size underflow at t={t} (error norm {enorm})")
        yield _Hermite(t, Y, F0, t + h, Y1, F1)
        t, Y, F0 = t + h, Y1, F1
        if math.sqrt(_sum_squares(Y)) > BLOWUP_NORM:
            raise BlowupError(t, np.array(Y))
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


def integrate_frozen(sys: ControlSystem, x0, u, t_span, config: IntegratorConfig,
                     first_step: Optional[float] = None) -> DenseSegment:
    """Solve ``xdot = F(x, u)`` with the control held fixed over ``t_span``.

    Both ends of ``t_span`` must be finite, the first not past the second.
    The first step tried is ``first_step``, positive and finite, or the
    Gladwell-Shampine-Brankin estimate when None; a closed-loop corrector
    starts from its cut step's size, which covers the span to the cut.
    Returns a densely interpolable segment; raises :class:`BlowupError` if
    the state norm passes the blow-up cap before the span ends.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 <= t1):
        raise DomainError(f"t_span must be finite and nondecreasing, got ({t0}, {t1})")
    if first_step is not None and not 0.0 < first_step < math.inf:  # NaN too
        raise DomainError(f"first_step must be positive and finite, got {first_step}")
    x0 = np.asarray(x0, dtype=float)
    u = np.asarray(u, dtype=float)
    ts, ys, fs = [t0], [x0], [sys.f(x0, u)]  # dimensions validated once
    f = sys.frozen(u)
    for piece in _steps(f.point, t0, x0, fs[0], t1, config, first_step):
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
    """A run's rows, in ``t`` and ``x`` arrays that double when full: the
    grid instants ``grid`` up to where the run has reached, with the states
    its steps read there, and the update and blow-up rows.  The rows are in
    time order, so each fill resumes the grid at its first instant after
    the last row.  A grid row's state is read later: a fill notes each
    row's step, and :meth:`flush` reads the noted rows in one pass of
    :func:`_states_at` once ``_GRID_CHUNK`` of them wait, and when the run
    ends.  A row at the last row's instant replaces its state if it is an
    update's, after that pass, and is skipped otherwise.  A row's control
    and update flag come from the event log, in :meth:`finalize`."""

    def __init__(self, cert, sys, grid):
        self.cert = cert
        self.sys = sys
        self.grid = grid.tolist()
        self.n = 0
        size = len(self.grid)
        self.t = np.empty(size)
        self.x = np.empty((size, sys.state_dim))
        # the noted grid rows, their steps, and each step's row instants
        self.rows, self.pieces, self.times = [], [], []

    def _room(self, k):
        """Room for ``k`` more rows, at most a grid's: the arrays double."""
        if self.n + k > len(self.t):
            self.t, self.x = (np.concatenate((a, np.empty_like(a)))
                              for a in (self.t, self.x))

    def add_row(self, t, x, event):
        n = self.n
        if n and t == self.t[n - 1]:
            if event:
                self.flush()
                self.x[n - 1] = x
            return
        self._room(1)
        self.t[n], self.x[n] = t, x
        self.n = n + 1

    def _first(self):
        """The next grid row to record: the first after the last row (a
        run records its update at t = 0 before any grid row)."""
        return bisect.bisect_right(self.grid, self.t[self.n - 1])

    def _put(self, lo, hi):
        """Record the instants of grid rows ``lo`` to ``hi - 1``; returns
        the first's row."""
        n, k = self.n, hi - lo
        self._room(k)
        self.t[n:n + k] = self.grid[lo:hi]
        self.n = n + k
        return n

    def fill_grid(self, pieces, at=None):
        """Note the grid rows that consecutive accepted steps reach: those
        at or before each step's end, or, when the last step is cut at
        ``at``, those of the last step strictly before it."""
        grid, lo = self.grid, self._first()
        ends = [bisect.bisect_right(grid, piece.t1, lo) for piece in pieces]
        if at is not None:
            ends[-1] = bisect.bisect_left(grid, at, lo)
        if not ends or ends[-1] <= lo:
            return
        row = self._put(lo, ends[-1]) - lo  # grid row j goes to row + j
        for piece, a, b in zip(pieces, [lo, *ends], ends):
            while a < b:
                k = min(b - a, _GRID_CHUNK - len(self.rows))
                self.rows += range(row + a, row + a + k)
                self.pieces.append(piece)
                self.times.append(grid[a:a + k])
                a += k
                if len(self.rows) == _GRID_CHUNK:
                    self.flush()

    def flush(self):
        """Read the states of the noted grid rows, in one pass."""
        if self.rows:
            self.x[self.rows] = _states_at(self.pieces, self.times)
            self.rows, self.pieces, self.times = [], [], []

    def hold(self, x):
        """Record every grid row left with the state ``x``."""
        row = self._put(self._first(), len(self.grid))
        self.x[row:self.n] = x

    def finalize(self, events, termination, sigma) -> Trajectory:
        self.flush()
        n = self.n
        t = self.t[:n]
        # checked once here, then read in one call each, on every row
        x = _as_points(self.x[:n], self.sys.state_dim, "state")
        controls = _as_points([e.control for e in events], self.sys.input_dim,
                              "control")
        # update times never decrease: a row takes the control of the last
        # update at or before its instant, and the row at an update's
        # instant is that update's
        times = np.array([e.time for e in events])
        last = np.searchsorted(times, t, side="right") - 1
        u = controls[last]
        v = self.cert.levels(x)
        w = np.vecdot(self.cert.grad(x), self.sys.f(x, u))
        v0 = float(v[0])
        bound = np.array([self.cert.energy_map.bound_after(v0, ti, sigma)
                          for ti in t.tolist()])
        return Trajectory(t=t, x=x, u=u, v=v, w=w, bound=bound,
                          event_flag=(times[last] == t).astype(int), events=list(events),
                          termination=termination, sigma=sigma)


# ---------------------------------------------------------------------------
# the closed-loop driver


def _probe_times(piece):
    """The step's two ends and its ``GUARD_PROBES`` interior probe times."""
    return ([piece.t0] + [piece.t0 + th * piece.h for th in _THETAS]
            + [piece.t1])


def _table(pieces, counts=None):
    """The steps' ``t0`` and ``h``, as columns, and ``y0``, ``f0``, ``y1``
    and ``f1``, as rows, from one table of their floats; with ``counts``,
    each step's row is repeated that many times."""
    table = np.array([(p.t0, p.h, *p.y0, *p.f0, *p.y1, *p.f1) for p in pieces])
    if counts is not None:
        table = table.repeat(counts, axis=0)
    d = (table.shape[1] - 2) // 4
    return (table[:, :1], table[:, 1:2],
            *(table[:, 2 + i * d:2 + (i + 1) * d] for i in range(4)))


def _probe_states(pieces):
    """Each step's own ``y0``, its states at the interior probe times of
    :func:`_probe_times`, each with the bits of ``piece(t)`` alone, and its
    own ``y1``, in order, from one elementwise table over all the steps."""
    t0, h, *ends = _table(pieces)
    y0, f0, y1, f1 = (a[:, None] for a in ends)
    s = (t0 + np.array(_THETAS) * h - t0) / h
    ys = _cubic(_weights(s[:, :, None]), y0, f0, y1, f1, h[:, :, None])
    return np.concatenate((y0, ys, y1), axis=1).reshape(-1, ys.shape[-1])


def _states_at(pieces, times):
    """The states of ``pieces[i]`` at the instants ``times[i]``, in order,
    or, where that is None, at its start, probes and end, from one table
    and one :func:`_cubic`: each row has the bits of its step's ``piece(t)``,
    its weights from the same float operations, and a probe step's start
    and end rows are its own ``y0`` and ``y1``."""
    flat, counts, ends = [], [], []
    for piece, ts in zip(pieces, times):
        if ts is None:
            ts = _probe_times(piece)
            ends += [(len(flat), piece.y0), (len(flat) + len(ts) - 1, piece.y1)]
        flat += ts
        counts.append(len(ts))
    t0, h, y0, f0, y1, f1 = _table(pieces, counts)
    ys = _cubic(_weights((np.array(flat)[:, None] - t0) / h), y0, f0, y1, f1, h)
    for row, y in ends:
        ys[row] = y
    return ys


def _read(scalar, point, piece, t):
    """``scalar`` at one time of a step, with the bits of the batch reads:
    the state read in floats (:meth:`_Hermite.at`) and its field value from
    the frozen field's float form ``point``, both made arrays for
    ``scalar``."""
    y = piece.at(t)
    return scalar(np.array(y), np.asarray(point(y), dtype=float))


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
    reads depend on the step alone, so the rule reads a window in one batch,
    through :func:`_probe_states` when every step reads its probes and
    :func:`_states_at` otherwise, then judges its steps in order.  The first
    non-negative read decides.  A check time is the cut, a start read cuts
    at the next grid point, and otherwise the root between the read before
    and the read (:func:`locate_event`) is the cut, or on the grid the first
    grid point at or after it inside the step; with none, the step is
    accepted.  An event step whose reads change sign more than once is first
    read again at the midpoints of its reads before the first non-negative
    one, on its own cubic (:func:`_states_at`), one batch a doubling, until
    they change sign at most once or after ``_REFINE_DOUBLINGS``, so that a
    root between its probes shows whatever the step size.  Localization
    reads the step's cubic one instant at a time in floats (:func:`_read`).
    The scan sizes its first window; one closure, ``width``, sizes each next
    one: the steps that the trend of the last two reads predicts to zero,
    half of them on the grid, the cap where the reads do not rise, at least
    1, on the grid at least the steps that reach the next grid point, since
    none before it can be cut, and at most ``_WINDOW_CAP``.  A read that
    raises propagates: the scan alone decides what a failed window means.
    """
    if grid is not None:
        h, t_end, t_last = grid
        j_max = _grid_index(t_last, h)
    last = None  # (time, value) of the last read
    slope = None  # the value's change per unit time over its last two reads
    # the share of the predicted steps a window holds: the periodic margin
    # speeds up towards a failing check, so its windows hold half of them
    share = 1.0 if grid is None else 0.5

    def check_time(j):
        return min(j * h, t_end)

    def width(piece, j=None):
        ahead = 1 if j is None else int((check_time(j + 1) - piece.t1) / piece.h) + 1
        trend = 1.0  # before two reads
        if slope is not None:
            rise = slope * piece.h
            trend = -last[1] / rise * share if rise > 0.0 else _WINDOW_CAP  # NaN: the cap
        return min(_WINDOW_CAP, max(1, ahead, int(min(_WINDOW_CAP, max(trend, 0.0)))))

    def cut(piece, f, ts, row, j0, j1):
        """The cut instant that a step's first non-negative read makes, or
        None, once an event step's reads that change sign more than once
        are refined."""
        times = _probe_times(piece) if ts is None else ts
        r = next(r for r, value in enumerate(row) if not value < 0.0)
        for _ in range(_REFINE_DOUBLINGS if grid is None else 0):
            if sum((a < 0.0 <= b) or (b < 0.0 <= a) for a, b in zip(row, row[1:])) <= 1:
                break
            # no read past the first non-negative one can move it
            mids = [0.5 * (a + b) for a, b in zip(times[:r], times[1:r + 1])]
            ys = _states_at([piece], [mids])
            reads = scalar(ys, f(ys)).tolist()
            times = [*itertools.chain(*zip(times, mids)), *times[r:]]
            row = [*itertools.chain(*zip(row, reads)), *row[r:]]
            r = next(r for r, value in enumerate(row) if not value < 0.0)
        if ts is not None:
            return ts[r]
        if r == 0:
            return check_time(j0 + 1)

        root = locate_event(partial(_read, scalar, f.point, piece),
                            times[r - 1], times[r], row[r - 1], row[r])
        if grid is None:
            return root
        j = max(j0 + 1, _grid_index(root, h))
        if check_time(j) < root:
            j += 1
        return check_time(j) if j <= j1 else None

    def rule(pieces, f):
        nonlocal last, slope
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
            window = [pieces[i] for i in steps]
            ys = (_probe_states(window) if times.count(None) == len(times)
                  else _states_at(window, times))
            batch = scalar(ys, f(ys))
            values, below = batch.tolist(), (batch < 0.0).tolist()
        end = 0
        for i, ts, j0, j1 in reading:
            piece, start = pieces[i], end
            end += GUARD_PROBES + 2 if ts is None else len(ts)
            if not all(below[start:end]):
                at = cut(piece, f, ts, values[start:end], j0, j1)
                if at is not None:
                    return i, at, 1
            ta, tb = (piece.t0, piece.t1) if ts is None else (ts[0], ts[-1])
            if end - start > 1:
                last = (ta, values[start])
            if last is not None and tb > last[0]:
                slope = (values[end - 1] - last[1]) / (tb - last[0])
            last = (tb, values[end - 1])
        return len(pieces), None, width(pieces[-1], j)

    return rule


def _scan(sys, x, fx, u, t, t_end, cfg, rec, cut=None, first=1):
    """Integrate the frozen loop from ``x``, with checked field value ``fx``,
    towards ``t_end``, noting the grid rows of each window's accepted steps
    in one call (:meth:`_Recorder.fill_grid`).

    ``cut(pieces, f)``, the policy's step rule (:func:`_step_rule`), reads a
    window of consecutive accepted steps with the frozen field ``f``
    (:meth:`ControlSystem.frozen`) on one state and on a batch, and judges
    them in order.  It returns ``(n, at, width)``: the first ``n`` steps
    are accepted; ``at`` is None when all were, or else the instant at
    which the next is cut; ``width`` is the size of the next window.  The
    first window holds ``first`` steps, at most ``_WINDOW_CAP``.  The
    steps after a cut are speculative, drawn ahead of the verdict, and are
    discarded.  The stepper makes each step from the last alone and a scan
    starts it once, so the window size never changes a result.  A window
    fails in one place: when drawing or judging it raises after at least
    one step was drawn, the steps drawn are judged again one at a time, as
    a window of 1 would judge them.  The first cut among them wins; with
    none, they are noted and the error is raised.  At a cut, the cut
    step's rows fill strictly before the cut instant, in the same call as
    the steps before it, and one tolerance-checked corrector integration
    from the step start replaces the interpolant.  The corrector's first
    step is the cut step's size, never shorter than the span to the cut, so
    it covers that span in one attempt unless the error control rejects it.
    Returns ``(t_cut, x, fx, steps)`` at a cut, with ``steps`` the accepted
    steps and the cut step, or ``(t_end, x_end, None, steps)``.  Clock
    scans, with no rule, accept every step, in windows of ``_WINDOW_CAP``.
    """
    f = sys.frozen(u)
    steps = _steps(f.point, t, x, fx, t_end, cfg)
    width = min(first, _WINDOW_CAP) if cut is not None else _WINDOW_CAP
    accepted = 0
    while True:
        pieces, error = [], None
        try:
            for piece in itertools.islice(steps, width):
                pieces.append(piece)  # the steps drawn survive an error
            n, at, next_width = len(pieces), None, width
            if cut is not None and pieces:
                n, at, next_width = cut(pieces, f)
        except Exception as exc:
            if not pieces:
                raise
            error, n, at = exc, 0, None
            while n < len(pieces) and at is None:  # as windows of 1
                k, at, _ = cut([pieces[n]], f) if cut is not None else (1, None, 1)
                n += k
        rec.fill_grid(pieces[:n + (at is not None)], at)
        if at is not None:
            piece = pieces[n]
            sub = integrate_frozen(sys, piece.y0, u, (piece.t0, at), cfg,
                                   first_step=piece.h)
            return at, sub.ys[-1], sub.fs[-1], accepted + n + 1
        if error is not None:
            raise error
        if pieces:
            x = pieces[-1].y1
        accepted += n
        if len(pieces) < width:  # the stepper has reached t_end
            return t_end, np.asarray(x), None, accepted
        width = next_width


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
    policies scan to their clock instants with no rule.  An instant or
    check time at most ``1e-12`` (relative) past the horizon is taken at
    the horizon.  An event guard at or above zero at an update fires at
    once, and a NaN one raises :class:`DomainError`.  The control is
    recomputed at every recorded event and is bitwise constant between
    events.  Dense rows land on the configured output grid; every event
    instant is recorded exactly.
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
        rec.add_row(t, x, True)

    def freeze(t, x, gval):
        """Record the equilibrium update at ``t``, then hold ``x`` and the
        origin's control to the horizon."""
        u = cert.u(np.zeros(sys.state_dim))
        push_event(t, x, u, gval, "equilibrium_frozen")
        rec.hold(x)
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
    cuts = (1, 1)  # the step counts of the last two scans that ended in a cut

    while t < horizon and len(events) < config.max_events:
        if fx is None:
            fx = sys.f(x, u)  # the segment's state and control, checked once
        try:
            if reason == "clock":
                t_next = policy.next_instant(k, t)
                fires = t_next is not None and t_next <= t_last
                k += fires
                t, x, _, _ = _scan(sys, x, fx, u, t,
                                   min(t_next, horizon) if fires else horizon,
                                   config, rec)
                fx = sys.f(x, u) if fires else None
            else:
                g = -1.0 if grid is not None else frozen_guard(cert, x, fx, sigma)
                if math.isnan(g):
                    raise DomainError(f"the event guard is NaN at t={t}, x={x.tolist()}")
                if g < 0.0:  # a guard at zero or above fires at once
                    t, x, fx, steps = _scan(sys, x, fx, u, t, horizon, config, rec,
                                            _step_rule(scalar, grid), min(cuts))
                    if fx is not None:
                        cuts = (cuts[1], steps)
                if grid is not None and fx is not None and predicate_p(
                        cert, policy.big_m, x, fx, policy.sigma_tilde, policy.k_big):
                    continue  # the check holds: scan on from its grid point
        except BlowupError as exc:
            rec.add_row(exc.t, exc.state, False)
            t, x = exc.t, exc.state
            termination = "blowup"
            break
        if fx is None:
            continue  # the horizon, with no update

        g_fire = frozen_guard(cert, x, fx, sigma)
        if cert.v(x) <= eps_eq:
            return freeze(t, x, g_fire)
        u = cert.u(x)
        fx = None
        push_event(t, x, u, g_fire, reason)
        zeno_run = zeno_run + 1 if events[-1].dwell < config.zeno_floor else 0
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
