"""Systems, decrease-rate functions, energy-time maps and CLF certificates.

The central objects are :class:`ControlSystem` (a vector field ``F(x, u)``),
:class:`RateFunction` (the decrease rate ``gamma``), :class:`EnergyTimeMap`
(the antiderivative of ``1/gamma`` and its inverse, which converts between
Lyapunov levels and time) and :class:`ClfCertificate` (a Lyapunov function
``V`` with gradient, rate and feedback map).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError

__all__ = [
    "ControlSystem",
    "RateFunction",
    "EnergyTimeMap",
    "ClfCertificate",
    "ClfCheckReport",
    "rowwise",
    "velocity_ratio",
    "verify_clf_pointwise",
    "finite_difference_jacobian",
]

_QUAD_REL_TOL = 1e-10
_BISECT_REL_TOL = 1e-10
# verify_clf_pointwise: a margin counts as a violation above this fraction
# of 1 + |W|
CLF_CHECK_REL_TOL = 1e-9
# levels at or below this count as the equilibrium, where the decrease
# condition is vacuous: the exact test V = 0 is unattainable in floating point
EQ_ABS_FLOOR = 1e-24
# relative step of finite_difference_jacobian
FD_SCALE = 1e-6


def _as_vector(x, dim: int, what: str, lead: tuple = ()) -> np.ndarray:
    """``x`` as an array of shape ``lead + (dim,)`` with finite entries: one
    vector, or one per row of a batch with leading shape ``lead``."""
    v = np.asarray(x, dtype=float)
    if v.shape != lead + (dim,):
        want = f"length {dim}" if not lead else f"shape {lead + (dim,)}"
        raise DimensionMismatchError(f"{what} must have {want}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{what} contains non-finite entries")
    return v


def _check_rows(what: str, out: np.ndarray, want: tuple) -> np.ndarray:
    """``out``, the result of a model callable, once its shape is ``want``."""
    if out.shape != want:
        raise DimensionMismatchError(
            f"{what} returned shape {out.shape}, expected {want}: model callables "
            "act on the last axis, one result row per state of a batch; lift a "
            "function of one state with clfetc.core.rowwise")
    return out


def rowwise(fn: Callable) -> Callable:
    """Lift a model callable written for one state to the last-axis form.

    On one state ``(d,)`` the result is ``fn`` itself.  On an ``(n, d)``
    batch, with ``rhs``'s ``(n, m)`` controls, ``fn`` runs on each row and
    the rows are stacked, so every row has the bits of the state alone.
    """

    @functools.wraps(fn)
    def lifted(x, *rest):
        if np.ndim(x) == 1:
            return fn(x, *rest)
        return np.array([fn(*row) for row in zip(x, *rest)], dtype=float)

    return lifted


def _as_points(xs, dim: int, what: str) -> np.ndarray:
    """``xs`` as an ``(n, dim)`` array of finite points, checked in one pass."""
    try:
        pts = np.asarray(xs, dtype=float)
    except ValueError:  # rows of unequal length: name the first bad one
        return np.array([_as_vector(x, dim, what) for x in xs])
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimensionMismatchError(
            f"each {what} must have length {dim}, got an array of shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DomainError(f"a {what} contains non-finite entries")
    return pts


@dataclass(frozen=True)
class ControlSystem:
    """A controlled vector field ``xdot = F(x, u)`` with fixed dimensions.

    ``rhs`` acts on the last axis: it takes a state ``(d,)`` with a control
    ``(m,)`` and returns ``(d,)``, and it takes an ``(n, d)`` batch of
    states with an ``(n, m)`` batch of controls and returns ``(n, d)``, row
    by row with the same bits.  Both the simulator (a step's guard probes,
    the recorded ``W``) and the audits (``verify``, ``dwell``, derived
    policies) call it on batches; :func:`rowwise` lifts a function of one
    state.  ``rhs`` must be deterministic, bit for bit.  :meth:`f` checks
    the states, the controls and the result; :meth:`frozen` checks the
    result's shape on a batch and nothing on one state.  A pass checks each
    point, or each held control, once where it enters, and its loops then
    evaluate the frozen field.

    ``rhs`` may carry a float form, ``rhs.point(Y, U)``: ``F`` on a list of
    ``d`` floats and one of ``m``, returning ``d`` floats with the bits of
    ``rhs`` on that state.  The stepper calls it through
    ``frozen(u).point``; the shipped models make both forms from one
    definition.  It travels on the callable, so :func:`rowwise` and any
    ``functools.wraps`` wrapper keep it, and a replaced ``rhs`` drops it.
    Without one, ``frozen(u).point`` calls ``rhs`` on an array.
    """

    state_dim: int
    input_dim: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.state_dim < 1 or self.input_dim < 1:
            raise DomainError("state_dim and input_dim must be positive")

    def f(self, x, u) -> np.ndarray:
        """``F(x, u)`` for one state or a batch, with the states, the
        controls and the result's shape checked."""
        x = np.asarray(x, dtype=float)
        lead = x.shape[:-1]
        x = _as_vector(x, self.state_dim, "state", lead)
        u = _as_vector(u, self.input_dim, "control", lead)
        return _check_rows("rhs", np.asarray(self.rhs(x, u), dtype=float), x.shape)

    def frozen(self, u) -> Callable[[np.ndarray], np.ndarray]:
        """The field ``y -> F(y, u)`` with the control ``u`` held.  On one
        state ``(d,)`` it checks nothing.  On an ``(n, d)`` batch it repeats
        ``u`` on every row and checks the result's shape.

        The field carries its float form, ``field.point``: ``Y -> F(Y, u)``
        on a list of ``d`` floats, returning ``d`` floats, unchecked; it is
        the stepper's hot path.  It is ``rhs.point(Y, U)`` with the control
        held, when ``rhs`` has one, or else an adapter that calls ``rhs``
        on ``np.array(Y)``; both give the bits of ``field`` on that state.
        """
        rhs, u = self.rhs, np.asarray(u, dtype=float)
        row = u[None, :]

        def field(y):
            if y.ndim == 1:
                return np.asarray(rhs(y, u), dtype=float)
            return _check_rows("rhs", np.asarray(rhs(y, row.repeat(len(y), 0)),
                                                 dtype=float), y.shape)

        point, U = getattr(rhs, "point", None), u.tolist()
        if point is None:
            field.point = lambda Y: np.asarray(rhs(np.array(Y), u), dtype=float).tolist()
        else:
            field.point = lambda Y: point(Y, U)
        return field


@dataclass(frozen=True)
class RateFunction:
    """Decrease rate ``gamma`` with ``gamma(v) > 0`` for ``v > 0``.

    ``form`` tags the analytic family when one is known: ``("power", ae, a)``
    for ``gamma(v) = ae*v**a``, of which the linear rate ``ae*v`` is the
    case ``a = 1``; ``None`` means a custom rate evaluated only pointwise.
    ``gamma_prime`` is optional and only needed for rates that are not
    non-decreasing.
    """

    gamma: Callable[[float], float]
    gamma_prime: Optional[Callable[[float], float]] = None
    monotone_nondecreasing: bool = False
    form: Optional[tuple] = None

    @staticmethod
    def linear(ae: float) -> "RateFunction":
        """``gamma(v) = ae*v``: the power rate with exponent 1."""
        return RateFunction.power(ae, 1.0)

    @staticmethod
    def power(ae: float, a: float) -> "RateFunction":
        if ae <= 0 or a <= 0:
            raise DomainError("power rate requires ae > 0 and a > 0")
        return RateFunction(
            gamma=lambda v, _c=ae, _a=a: _c * v ** _a,
            gamma_prime=lambda v, _c=ae, _a=a: _c * _a * v ** (_a - 1.0) if v > 0 else (
                _c if _a == 1.0 else (0.0 if _a > 1.0 else math.inf)),
            monotone_nondecreasing=True,
            form=("power", float(ae), float(a)),
        )

    @staticmethod
    def custom(gamma, gamma_prime=None, monotone_nondecreasing=False) -> "RateFunction":
        return RateFunction(gamma=gamma, gamma_prime=gamma_prime,
                            monotone_nondecreasing=monotone_nondecreasing, form=None)

    def __call__(self, v: float) -> float:
        if v < 0:
            raise DomainError("rate evaluated at negative level")
        g = float(self.gamma(v))
        if v > 0 and g <= 0:
            raise DomainError(f"gamma({v}) = {g} must be positive for v > 0")
        return g

    def at_levels(self, vs) -> np.ndarray:
        """``gamma`` at each level of an array, with the checks of a call
        and its bits: a power rate in one array pass (``float_power`` is the
        C ``pow`` that ``**`` calls), a custom rate, a function of one
        level, level by level."""
        vs = np.asarray(vs, dtype=float)
        # each check scans for its fault in full only when a minimum, one
        # reduction, shows that there may be one (or is NaN)
        if not _least(vs) >= 0.0 and np.any(vs < 0):
            raise DomainError("rate evaluated at negative level")
        if self.form is not None:
            _, ae, a = self.form
            g = ae * np.float_power(vs, a)
        else:
            g = np.array([float(self.gamma(v)) for v in vs.ravel().tolist()],
                         dtype=float).reshape(vs.shape)
        if not _least(g) > 0.0:
            bad = np.flatnonzero((vs > 0) & (g <= 0))
            if len(bad):
                raise DomainError(f"gamma({vs.flat[bad[0]]}) = {g.flat[bad[0]]} "
                                  "must be positive for v > 0")
        return g


def _least(a: np.ndarray) -> float:
    """The smallest entry of an array of any shape, NaN if one is NaN, and
    infinite for an empty one."""
    return np.minimum.reduce(a, axis=None, initial=math.inf)


def _quad_chunked(f, s: float) -> float:
    """Adaptive quadrature of ``f`` from 1 to ``s``, split into moderate
    chunks so oscillatory integrands keep enough subdivisions per span.
    scipy is imported here: only custom rates reach this path."""
    from scipy.integrate import quad

    sign = 1.0
    lo, hi = 1.0, s
    if s < 1.0:
        sign, lo, hi = -1.0, s, 1.0
    total = 0.0
    x = lo
    for _ in range(100_000):
        if x >= hi:
            break
        nxt = min(hi, x + max(50.0, 0.5 * x))
        val, _err = quad(f, x, nxt, epsabs=0.0, epsrel=_QUAD_REL_TOL, limit=200)
        total += val
        x = nxt
    else:
        raise DomainError("quadrature range too wide to chunk")
    return sign * total


@dataclass(frozen=True)
class EnergyTimeMap:
    """The increasing map ``G(s) = integral_1^s dv/gamma(v)`` and its inverse.

    ``G(v0) - G(v1)`` is the time the closed loop needs to descend from
    Lyapunov level ``v0`` to level ``v1`` when ``Vdot = -gamma(V)`` holds with
    equality.  ``lower_limit``/``upper_limit`` are the limits of ``G`` at
    ``0+`` and ``+inf``, derived from the rate's power form (both infinite
    for a custom rate); a finite ``lower_limit`` means finite-time
    convergence, and the inverse is clamped to 0 at and below it.
    """

    rate: RateFunction
    lower_limit: float = field(init=False)
    upper_limit: float = field(init=False)

    def __post_init__(self):
        lo, hi = -math.inf, math.inf
        if self.rate.form is not None:
            _, ae, a = self.rate.form
            if a > 1.0:
                hi = 1.0 / (ae * (a - 1.0))
            elif a < 1.0:
                lo = 1.0 / (ae * (a - 1.0))
        object.__setattr__(self, "lower_limit", lo)
        object.__setattr__(self, "upper_limit", hi)

    def gamma_big(self, s: float) -> float:
        """Evaluate ``G(s)`` for ``s > 0`` (closed form when available)."""
        if s <= 0:
            raise DomainError(f"energy-time map needs s > 0, got {s}")
        form = self.rate.form
        if form is not None:
            _, ae, a = form
            if a == 1.0:
                return math.log(s) / ae
            return (1.0 - s ** (1.0 - a)) / (ae * (a - 1.0))
        if s == 1.0:
            return 0.0
        return _quad_chunked(lambda v: 1.0 / self.rate(v), s)

    def gamma_big_inverse(self, r: float) -> float:
        """Evaluate ``G^-1(r)``; returns 0 for ``r <= lower_limit``."""
        if r >= self.upper_limit:
            raise DomainError(f"argument {r} is at or above the map's upper limit")
        if r <= self.lower_limit:
            return 0.0
        form = self.rate.form
        if form is not None:
            _, ae, a = form
            if a == 1.0:
                return math.exp(ae * r)
            base = 1.0 - ae * (a - 1.0) * r
            return base ** (1.0 / (1.0 - a))
        return self._inverse_by_bisection(r)

    def _inverse_by_bisection(self, r: float) -> float:
        lo = hi = 1.0
        glo = ghi = 0.0
        for _ in range(1100):
            if ghi >= r:
                break
            hi *= 2.0
            if hi > 1e300:
                raise DomainError("argument is above the numerically reachable range")
            ghi = self.gamma_big(hi)
        for _ in range(1100):
            if glo <= r:
                break
            lo *= 0.5
            if lo < 1e-300:
                raise DomainError("argument is below the numerically reachable range")
            glo = self.gamma_big(lo)
        # log-space bisection keeps relative accuracy across many decades
        for _ in range(200):
            if hi - lo <= _BISECT_REL_TOL * max(1.0, hi):
                break
            mid = math.sqrt(lo * hi)
            if mid <= lo or mid >= hi:
                break
            if self.gamma_big(mid) < r:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def bound_after(self, v0: float, t: float, sigma: float) -> float:
        """Upper bound ``G^-1(G(v0) - sigma*t)`` on the level after time t."""
        if v0 < 0:
            raise DomainError("initial level must be non-negative")
        if t < 0:
            raise DomainError("elapsed time must be non-negative")
        if not 0.0 < sigma <= 1.0:
            raise DomainError("sigma must lie in (0, 1]")
        if v0 == 0.0:
            return 0.0
        arg = self.gamma_big(v0) - sigma * t
        if arg <= self.lower_limit:
            return 0.0
        return self.gamma_big_inverse(arg)


@dataclass(frozen=True)
class ClfCertificate:
    """A Lyapunov function with quantified decrease under a feedback map.

    ``value`` is ``V`` (positive definite), ``gradient`` its row gradient,
    ``rate`` the decrease rate ``gamma``, and ``feedback`` the map ``U(x)``
    that achieves ``V'(x) F(x, U(x)) <= -gamma(V(x))``.  The feedback may be
    discontinuous; it is never differentiated.

    ``value``, ``gradient`` and ``feedback`` act on the last axis, like
    :attr:`ControlSystem.rhs`: on a state ``(d,)`` they return a scalar,
    ``(d,)`` and ``(m,)``, and on an ``(n, d)`` batch ``(n,)``, ``(n, d)``
    and ``(n, m)``, row by row with the same bits.  The simulator reads
    ``value`` and ``gradient`` on batches (a step's guard probes, the
    recorded ``V`` and ``W``) and ``feedback`` on one state at each update;
    the audits (``verify``, ``dwell``, derived policies) call all three on
    batches.  :func:`rowwise` lifts a function of one state.  ``rate``
    takes one level; :meth:`RateFunction.at_levels` maps it over an array.
    :meth:`levels` and :meth:`grad` check the shape of what they return.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    rate: RateFunction
    feedback: Callable[[np.ndarray], np.ndarray]
    energy_map: EnergyTimeMap = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "energy_map", EnergyTimeMap(self.rate))

    def v(self, x) -> float:
        return float(self.value(np.asarray(x, dtype=float)))

    def levels(self, xs) -> np.ndarray:
        """``V`` at one state, shape ``()``, or at each row of an ``(n, d)``
        batch, shape ``(n,)``."""
        xs = np.asarray(xs, dtype=float)
        return _check_rows("value", np.asarray(self.value(xs), dtype=float),
                           xs.shape[:-1])

    def grad(self, x) -> np.ndarray:
        """``V'`` at one state ``(d,)``, or at each row of an ``(n, d)``
        batch, with the same shape as ``x``."""
        x = np.asarray(x, dtype=float)
        return _check_rows("gradient", np.asarray(self.gradient(x), dtype=float),
                           x.shape)

    def u(self, x) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.feedback(np.asarray(x, dtype=float)), dtype=float))


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm on the last axis, with the bits of ``np.linalg.norm``
    of each vector alone (``np.linalg.norm(x, axis=-1)`` rounds
    differently)."""
    return np.sqrt(np.vecdot(x, x))


def velocity_ratio(g: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """The velocity-to-decrease ratio ``(|g||F| + |F|^2) / |W|`` of a
    gradient ``g`` and a field value ``fx``, with ``W = g F``, on the last
    axis: one ratio for two vectors, one per row for two batches.  ``W = 0``
    gives infinity, or 0 where the field vanishes too.  ``float_power`` is
    the C ``pow`` that Python's ``**`` calls, so a batch row gets the bits
    of the same vectors alone."""
    w = np.abs(np.vecdot(g, fx))
    fn = _norms(fx)
    num = _norms(g) * fn + np.float_power(fn, 2)
    zero = w == 0.0
    ratio = num / np.where(zero, 1.0, w)
    return np.where(zero, np.where(num > 0.0, math.inf, 0.0), ratio)


@dataclass(frozen=True)
class ClfCheckReport:
    """Outcome of a pointwise decrease check over a sample set.

    ``margins[i] = gamma(V(x_i)) + W(x_i, U(x_i))`` must be <= 0 (up to a
    relative floating-point tolerance).  Violations are data, not errors.
    """

    n_samples: int
    n_skipped: int
    violations: tuple  # (sample index, state tuple, margin)
    worst_margin: float

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_clf_pointwise(cert: ClfCertificate, sys: ControlSystem,
                         samples: Sequence) -> ClfCheckReport:
    """Check ``W(x, U(x)) <= -gamma(V(x))`` at each sample.

    The samples are checked once, on entry.  One pass evaluates ``V`` on the
    whole batch, then the gradient, the feedback, the checked field and
    ``gamma`` (:meth:`RateFunction.at_levels`) on the samples with
    ``V(x) > EQ_ABS_FLOOR`` (the decrease condition is vacuous at the
    equilibrium, so the others are skipped).  The report lists violations
    in sample order, so it is deterministic.
    """
    if len(samples) == 0:
        raise DomainError("verify_clf_pointwise needs a non-empty sample list")
    samples = _as_points(samples, sys.state_dim, "sample")
    v = cert.levels(samples)
    live = np.flatnonzero(~(v <= EQ_ABS_FLOOR))
    xs = samples[live]
    w = np.vecdot(cert.grad(xs), sys.f(xs, cert.u(xs)))
    margin = cert.rate.at_levels(v[live]) + w
    bad = margin > CLF_CHECK_REL_TOL * (1.0 + np.abs(w))
    return ClfCheckReport(
        n_samples=len(samples),
        n_skipped=len(samples) - len(live),
        violations=tuple((int(i), tuple(samples[i].tolist()), float(m))
                         for i, m in zip(live[bad], margin[bad])),
        # a NaN margin is never the worst, as in a running max()
        worst_margin=float(np.max(margin, initial=-math.inf,
                                  where=~np.isnan(margin))),
    )


def finite_difference_jacobian(f: Callable[[np.ndarray], np.ndarray],
                               x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians at each point of ``x`` (shape
    ``(..., d)``), with per-coordinate step ``FD_SCALE*(1+|x_j|)``; shape
    ``(..., k, d)`` for an ``f`` with ``k`` outputs.

    ``f`` acts on the last axis; it is called twice, on the ``(·, d)``
    batches of forward and of backward points."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    h = FD_SCALE * (1.0 + np.abs(x))
    diag = np.arange(d)
    # row j of a point's (d, d) block moves only its coordinate j
    xp = np.repeat(x[..., None, :], d, axis=-2)
    xm = xp.copy()
    xp[..., diag, diag] += h
    xm[..., diag, diag] -= h
    fp = np.asarray(f(xp.reshape(-1, d)), dtype=float)
    fm = np.asarray(f(xm.reshape(-1, d)), dtype=float)
    cols = (fp - fm).reshape(x.shape + (-1,)) / (2.0 * h)[..., None]
    return np.swapaxes(cols, -1, -2)
