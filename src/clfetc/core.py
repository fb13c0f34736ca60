"""Systems, decrease-rate functions, energy-time maps and CLF certificates.

The central objects are :class:`ControlSystem` (a vector field ``F(x, u)``),
:class:`RateFunction` (the decrease rate ``gamma``), :class:`EnergyTimeMap`
(the antiderivative of ``1/gamma`` and its inverse, which converts between
Lyapunov levels and time) and :class:`ClfCertificate` (a Lyapunov function
``V`` with gradient, rate and feedback map).
"""

from __future__ import annotations

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


def _as_vector(x, dim: int, what: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise DimensionMismatchError(f"{what} must have length {dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{what} contains non-finite entries")
    return v


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

    ``rhs`` must be deterministic: identical inputs produce bitwise-identical
    outputs.  :meth:`f` is the checked entry; :meth:`frozen` checks nothing.
    A pass checks each point, or each held control, once where it enters,
    and its loops then evaluate the unchecked field.
    """

    state_dim: int
    input_dim: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.state_dim < 1 or self.input_dim < 1:
            raise DomainError("state_dim and input_dim must be positive")

    def f(self, x, u) -> np.ndarray:
        x = _as_vector(x, self.state_dim, "state")
        u = _as_vector(u, self.input_dim, "control")
        out = np.asarray(self.rhs(x, u), dtype=float)
        if out.shape != (self.state_dim,):
            raise DimensionMismatchError(
                f"rhs returned shape {out.shape}, expected ({self.state_dim},)")
        return out

    def frozen(self, u) -> Callable[[np.ndarray], np.ndarray]:
        """The field ``y -> F(y, u)`` with the control held; unchecked."""
        return lambda y: np.asarray(self.rhs(y, u), dtype=float)


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

    def validate_samples(self, v_max: float, n: int = 200, fd_rel_tol: float = 1e-5):
        """Sampled consistency audit: positivity on (0, v_max], monotonicity
        when flagged, and gamma_prime against central differences when given.
        Raises on the first failure."""
        vs = np.linspace(v_max / n, v_max, n)
        vals = [self(v) for v in vs]  # positivity enforced per call
        if self.monotone_nondecreasing:
            for (va, a), (vb, b) in zip(zip(vs, vals), zip(vs[1:], vals[1:])):
                if b < a * (1.0 - 1e-12):
                    raise DomainError(
                        f"rate flagged non-decreasing but gamma({vb}) < gamma({va})")
        if self.gamma_prime is not None:
            for v in vs[::10]:
                h = 1e-6 * (1.0 + v)
                if v - h <= 0:
                    continue
                fd = (self.gamma(v + h) - self.gamma(v - h)) / (2.0 * h)
                gp = float(self.gamma_prime(v))
                if abs(gp - fd) > fd_rel_tol * (1.0 + abs(gp)):
                    raise DomainError(
                        f"gamma_prime({v}) = {gp} disagrees with finite "
                        f"differences ({fd})")


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

    def grad(self, x) -> np.ndarray:
        return np.asarray(self.gradient(np.asarray(x, dtype=float)), dtype=float)

    def u(self, x) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.feedback(np.asarray(x, dtype=float)), dtype=float))


def velocity_ratio(g: np.ndarray, fx: np.ndarray) -> float:
    """The velocity-to-decrease ratio ``(|g||F| + |F|^2) / |W|`` of a
    gradient ``g`` and a field value ``fx``, with ``W = g F``.  ``W = 0``
    gives infinity, or 0 where the field vanishes too."""
    w = float(g @ fx)
    fn = float(np.linalg.norm(fx))
    num = float(np.linalg.norm(g)) * fn + fn ** 2
    if w == 0.0:
        return math.inf if num > 0.0 else 0.0
    return num / abs(w)


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

    The samples are checked once, on entry, and each feedback control where
    ``W`` uses it.  Samples with ``V(x) <= EQ_ABS_FLOOR`` are skipped (the
    decrease condition is vacuous at the equilibrium).  Results are
    accumulated in sample order, so the report is deterministic.
    """
    if len(samples) == 0:
        raise DomainError("verify_clf_pointwise needs a non-empty sample list")
    samples = _as_points(samples, sys.state_dim, "sample")
    violations = []
    worst = -math.inf
    n_skipped = 0
    for i, x in enumerate(samples):
        v = cert.v(x)
        if v <= EQ_ABS_FLOOR:
            n_skipped += 1
            continue
        g = cert.grad(x)
        if g.shape != x.shape:
            raise DimensionMismatchError(f"gradient returned shape {g.shape}, expected {x.shape}")
        w = float(g @ sys.f(x, cert.u(x)))
        margin = cert.rate(v) + w
        worst = max(worst, margin)
        if margin > CLF_CHECK_REL_TOL * (1.0 + abs(w)):
            violations.append((i, tuple(float(c) for c in x), float(margin)))
    return ClfCheckReport(
        n_samples=len(samples),
        n_skipped=n_skipped,
        violations=tuple(violations),
        worst_margin=float(worst),
    )


def finite_difference_jacobian(f: Callable[[np.ndarray], np.ndarray],
                               x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian with per-coordinate step
    ``FD_SCALE*(1+|x_j|)``."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = FD_SCALE * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=1)
