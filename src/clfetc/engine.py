"""Closed-loop hybrid simulation: adaptive embedded Runge-Kutta integration
of the frozen-input flow with cubic dense output, guard probing on every
accepted step, bisection event localization, trajectory recording and Zeno /
blow-up safeguards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import ClfCertificate, ControlSystem
from .errors import BlowupError, DomainError, IntegrationError
from .triggers import (EventTriggered, PeriodicEventTriggered, TriggerPolicy,
                       equilibrium_threshold, frozen_guard, policy_sigma,
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
BISECT_MAX_ITER = 200  # far more than floating-point resolution needs

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

    def resolved(self) -> "IntegratorConfig":
        if self.max_step is None:
            return replace(self, max_step=self.horizon / 1000.0)
        return self


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


def _error_norm(err, y0, y1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(f, y0, f0, rtol, atol, max_step, span):
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, max_step)
    if h0 <= 0:
        return min(span, max_step)
    y1 = y0 + h0 * f0
    f1 = f(y1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span, max_step)


class _Hermite:
    """Cubic Hermite interpolant over one accepted step."""

    __slots__ = ("t0", "y0", "f0", "t1", "y1", "f1", "h")

    def __init__(self, t0, y0, f0, t1, y1, f1):
        self.t0, self.y0, self.f0 = t0, y0, f0
        self.t1, self.y1, self.f1 = t1, y1, f1
        self.h = t1 - t0

    def __call__(self, t: float) -> np.ndarray:
        if self.h == 0.0:
            return self.y0
        s = (t - self.t0) / self.h
        s2 = s * s
        s3 = s2 * s
        h00 = 2 * s3 - 3 * s2 + 1
        h10 = s3 - 2 * s2 + s
        h01 = -2 * s3 + 3 * s2
        h11 = s3 - s2
        return (h00 * self.y0 + h01 * self.y1
                + self.h * (h10 * self.f0 + h11 * self.f1))


def _frozen(sys: ControlSystem, u: np.ndarray):
    """The field ``y -> F(y, u)`` with the control held; unchecked."""
    return lambda y: np.asarray(sys.rhs(y, u), dtype=float)


def _advance(f, t, y, f0, t_end, cfg, on_step, first_h=None):
    """Drive the stepper from (t, y) to t_end.

    ``on_step`` receives each accepted :class:`_Hermite` piece; returning
    ``None`` continues, anything else stops the drive and is returned.  A
    drive that reaches ``t_end`` returns the state there, an array, which
    ``on_step`` must therefore never return.
    """
    if t_end <= t:
        return y
    if first_h is not None:
        h = first_h
    else:
        h = _initial_step(f, y, f0, cfg.rel_tol, cfg.abs_tol, cfg.max_step, t_end - t)
    while t < t_end:
        h = min(h, cfg.max_step, t_end - t)
        if h <= 4.0 * np.finfo(float).eps * max(1.0, abs(t)):
            # the remaining span is below time resolution; snap to the target
            piece = _Hermite(t, y, f0, t_end, y, f0)
            res = on_step(piece)
            return y if res is None else res
        attempts = 0
        while True:
            y1, f1, err = _rk_step(f, y, f0, h)
            enorm = _error_norm(err, y, y1, cfg.rel_tol, cfg.abs_tol)
            if math.isfinite(enorm) and enorm <= 1.0:
                break
            factor = 0.25 if not math.isfinite(enorm) else \
                max(0.2, 0.9 * enorm ** -0.2)
            h *= min(factor, 0.9)
            attempts += 1
            if attempts > 200 or h < 1e-15 * max(1.0, abs(t)):
                raise IntegrationError(
                    f"step size underflow at t={t} (error norm {enorm})")
        piece = _Hermite(t, y, f0, t + h, y1, f1)
        res = on_step(piece)
        if res is not None:
            return res
        t, y, f0 = t + h, y1, f1
        if float(np.linalg.norm(y)) > BLOWUP_NORM:
            raise BlowupError(t, y)
        if enorm == 0.0:
            h *= 5.0
        else:
            h *= min(5.0, max(0.2, 0.9 * enorm ** -0.2))
    return y


@dataclass
class DenseSegment:
    """A frozen-input solution piece with interpolation between mesh points."""

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

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
    cfg = config.resolved()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise DomainError("t_span must be increasing")
    x0 = np.asarray(x0, dtype=float)
    u = np.asarray(u, dtype=float)
    f = _frozen(sys, u)
    ts, ys, fs = [t0], [x0], [sys.f(x0, u)]  # dimensions validated once
    if t1 == t0:
        return DenseSegment(np.array(ts), np.array(ys), np.array(fs))

    def collect(piece: _Hermite):
        ts.append(piece.t1)
        ys.append(piece.y1)
        fs.append(piece.f1)
        return None

    _advance(f, t0, x0, fs[0], t1, cfg, collect)
    return DenseSegment(np.array(ts), np.array(ys), np.array(fs))


def locate_event(guard: Callable[[float], float], a: float, b: float,
                 ga: Optional[float] = None, gb: Optional[float] = None) -> float:
    """Earliest zero of a scalar guard on [a, b] by bisection.

    Requires ``guard(a) < 0 <= guard(b)``; converges to floating-point time
    resolution and returns the guard-nonnegative endpoint.
    """
    ga = guard(a) if ga is None else ga
    gb = guard(b) if gb is None else gb
    if not (ga < 0.0 <= gb):
        raise DomainError(f"bracket does not straddle the event surface: "
                          f"g({a})={ga}, g({b})={gb}")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if guard(mid) >= 0.0:
            b = mid
        else:
            a = mid
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
    """Dense output plus the event log of one closed-loop run."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    event_flag: np.ndarray
    events: list
    termination: str
    sigma: float
    meta: dict = field(default_factory=dict)


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

    def fill_grid_const(self, t_hi, x, u):
        self.fill_grid(t_hi, lambda _t: x, u, inclusive=True)

    def finalize(self, events, termination, sigma, meta) -> Trajectory:
        t = np.array(self.rows_t)
        x = np.array(self.rows_x)
        u = np.array(self.rows_u)
        v = np.array([self.cert.v(xi) for xi in x])
        w = np.array([float(self.cert.grad(xi) @ self.sys.f(xi, ui))
                      for xi, ui in zip(x, u)])
        return Trajectory(t=t, x=x, u=u, v=v, w=w,
                          event_flag=np.array(self.rows_flag, dtype=int),
                          events=list(events), termination=termination,
                          sigma=sigma, meta=dict(meta))


# ---------------------------------------------------------------------------
# the closed-loop driver


def _guarded_until(sys, cert, x, fx, u, t, t_end, sigma, cfg, rec):
    """Integrate the frozen loop from ``x``, with checked field value ``fx``,
    while the guard stays negative.

    Fills grid rows along the way (strictly before the event time when a
    crossing is found).  Returns ``(t_root, x_event, g_at_fire)`` at an
    event, or the state at ``t_end`` when there is none.
    """
    f = _frozen(sys, u)
    g_start = frozen_guard(cert, x, fx, sigma)
    if g_start >= 0.0:
        return t, x, g_start

    def guard_at(y):
        return frozen_guard(cert, y, f(y), sigma)

    thetas = [(j + 1) / (GUARD_PROBES + 1) for j in range(GUARD_PROBES)]
    state = {"g": g_start, "halved": 0}

    def monitor(piece: _Hermite):
        gs = [state["g"]]
        for th in thetas:
            gs.append(guard_at(piece(piece.t0 + th * piece.h)))
        gs.append(frozen_guard(cert, piece.y1, piece.f1, sigma))
        crossings = sum(1 for a, b in zip(gs, gs[1:])
                        if (a < 0.0 <= b) or (b < 0.0 <= a))
        if crossings == 0:
            rec.fill_grid(piece.t1, piece, u, inclusive=True)
            state["g"] = gs[-1]
            state["halved"] = 0
            return None
        if crossings > 1 and state["halved"] < 60 and \
                piece.h > 1e-13 * max(1.0, abs(piece.t0)):
            # more than one crossing inside one step: the piece is retried
            # at half the size so the earliest root cannot be skipped
            state["halved"] += 1
            return piece
        j = next(i for i, (a, b) in enumerate(zip(gs, gs[1:])) if a < 0.0 <= b)
        grid_t = [piece.t0] + [piece.t0 + th * piece.h for th in thetas] + [piece.t1]
        t_root = locate_event(lambda tt: guard_at(piece(tt)),
                              grid_t[j], grid_t[j + 1], gs[j], gs[j + 1])
        return piece, t_root

    t_cur, y_cur, f_cur = t, x, fx
    first_h = None
    while True:
        out = _advance(f, t_cur, y_cur, f_cur, t_end, cfg, monitor, first_h)
        if not isinstance(out, _Hermite):
            break
        t_cur, y_cur, f_cur, first_h = out.t0, out.y0, out.f0, out.h / 2.0
    if isinstance(out, np.ndarray):
        return out
    piece, t_root = out
    rec.fill_grid(t_root, piece, u, inclusive=False)
    # re-anchor exactly at the root: one tolerance-checked corrector
    # integration from the previous mesh point replaces the interpolant
    sub = integrate_frozen(sys, piece.y0, u, (piece.t0, t_root), cfg)
    x_event = sub.ys[-1]
    return t_root, x_event, frozen_guard(cert, x_event, sub.fs[-1], sigma)


def _plain_until(sys, x, fx, u, t, t_end, cfg, rec):
    """Integrate the frozen loop from ``x``, with checked field value ``fx``,
    to an exact target time, recording rows; returns the state there."""
    def on_step(piece: _Hermite):
        rec.fill_grid(piece.t1, piece, u, inclusive=True)
        return None

    return _advance(_frozen(sys, u), t, x, fx, t_end, cfg, on_step)


def run_closed_loop(sys: ControlSystem, cert: ClfCertificate, policy: TriggerPolicy,
                    x0, config: IntegratorConfig,
                    meta: Optional[dict] = None) -> Trajectory:
    """Alternate frozen-input integration with the policy's update decisions
    until the horizon, the equilibrium, or a safeguard ends the run.

    The event-triggered policy refreshes the control at the guard's zeros.
    The others refresh it at their clock instants, except that the periodic
    policy keeps it wherever its predicate still holds.  The control is
    recomputed at every recorded event and is bitwise constant between
    events.  Dense rows land on the configured output grid; every event
    instant is recorded exactly.
    """
    cfg = config.resolved()
    sigma = policy_sigma(policy, cert)
    x0 = np.asarray(x0, dtype=float)
    u = cert.u(x0)
    fx = sys.f(x0, u)  # dimension check up front
    horizon = cfg.horizon
    grid = np.linspace(0.0, horizon, cfg.output_points)
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

    t = 0.0
    x = x0
    if v0 <= eps_eq:
        u = cert.u(np.zeros(sys.state_dim))
        push_event(0.0, x, u, 0.0, "equilibrium_frozen")
        rec.fill_grid_const(horizon, x, u)
        return rec.finalize(events, "equilibrium", sigma, meta or {})
    push_event(0.0, x, u, frozen_guard(cert, x, fx, sigma), "init")

    guarded = isinstance(policy, EventTriggered)
    periodic = isinstance(policy, PeriodicEventTriggered)
    reason = ("guard_zero" if guarded
              else "predicate_false" if periodic else "clock")
    k = 0  # clock instants reached so far

    while t < horizon:
        if len(events) >= cfg.max_events:
            termination = "event_cap"
            break
        if fx is None:
            fx = sys.f(x, u)  # the segment's state and control, checked once
        try:
            if guarded:
                res = _guarded_until(sys, cert, x, fx, u, t, horizon, sigma,
                                     cfg, rec)
                if isinstance(res, np.ndarray):
                    t, x = horizon, res
                    continue
                t, x, g_fire = res
            else:
                t_next = policy.next_instant(k, t, x)
                if t_next is None or t_next > horizon * (1.0 + 1e-12):
                    x = _plain_until(sys, x, fx, u, t, horizon, cfg, rec)
                    t = horizon
                    continue
                k += 1
                t_next = min(t_next, horizon)
                x = _plain_until(sys, x, fx, u, t, t_next, cfg, rec)
                t = t_next
                fx = sys.f(x, u)  # one evaluation serves the check and what follows
                if periodic and predicate_p(cert, policy.big_m, x, fx,
                                            policy.sigma_tilde, policy.k_big):
                    continue  # the predicate holds: the control stays frozen
                g_fire = frozen_guard(cert, x, fx, sigma)
        except BlowupError as exc:
            rec.add_row(exc.t, exc.state, u, 0)
            t, x = exc.t, exc.state
            termination = "blowup"
            break

        dwell = t - events[-1].time
        zeno_run = zeno_run + 1 if dwell < cfg.zeno_floor else 0
        if cert.v(x) <= eps_eq:
            u = cert.u(np.zeros(sys.state_dim))
            push_event(t, x, u, g_fire, "equilibrium_frozen")
            rec.fill_grid_const(horizon, x, u)
            termination = "equilibrium"
            break
        u = cert.u(x)
        fx = None
        push_event(t, x, u, g_fire, reason)
        if zeno_run >= ZENO_CONSECUTIVE:
            termination = "zeno_abort"
            break
        if len(events) >= cfg.max_events:
            termination = "event_cap"
            break

    return rec.finalize(events, termination, sigma, meta or {})


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


def check_rate_certificate(traj: Trajectory, cert: ClfCertificate,
                           sigma: Optional[float] = None,
                           slack_scale: float = 1e-6):
    """Verify ``V(x(t)) <= Ginv(G(V0) - sigma t) + slack`` at every recorded
    point; returns ``(ok, max_excess)``."""
    s = traj.sigma if sigma is None else sigma
    v0 = float(traj.v[0])
    slack = slack_scale * (1.0 + v0)
    worst = -math.inf
    for ti, vi in zip(traj.t, traj.v):
        bound = cert.energy_map.bound_after(v0, float(ti), s)
        worst = max(worst, float(vi) - bound)
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
    lines = [",".join(header)]
    for i in range(traj.t.size):
        cells = [repr(float(traj.t[i]))]
        cells += [repr(float(v)) for v in traj.x[i]]
        cells += [repr(float(v)) for v in traj.u[i]]
        cells.append(repr(float(traj.v[i])))
        cells.append(repr(float(traj.w[i])))
        cells.append(str(int(traj.event_flag[i])))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_event_times_csv(path):
    """Event instants and the full time column from a trajectory CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        t_idx = header.index("t")
        flag_idx = header.index("event_flag")
        times, events = [], []
        for line in fh:
            if not line.strip():
                continue
            cells = line.strip().split(",")
            tv = float(cells[t_idx])
            times.append(tv)
            if cells[flag_idx] == "1":
                events.append(tv)
    return np.array(times), np.array(events)
