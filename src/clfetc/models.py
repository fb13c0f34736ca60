"""Built-in example systems, each packaged as a (system, certificate) pair
with its default initial condition and known assumption status.

Four models ship:

* ``acc`` — cruise-control distance keeping via backstepping; linear rate.
* ``homog2d`` — cubic planar system with a quadratic-rate (polynomial
  convergence) certificate.
* ``zeno-polar`` — a planar system whose rotating feedback is exponentially
  stabilizing in continuous time yet defeats every finite sampling rate near
  the origin; the non-degeneracy check must reject it.
* ``relay1d`` — scalar relay with a finite-time square-root rate; also
  rejected by the non-degeneracy check (finite-time designs always are).

Note on ``relay1d``: the source material prints the relay feedback as
``sgn(x)``, which makes V increase; the implementation uses ``-sgn(x)``,
which actually delivers the stated decrease and the stated event schedule.

Every ``rhs``, ``value``, ``gradient`` and ``feedback`` acts on the last
axis (see :class:`~clfetc.core.ControlSystem`): ``x.T[i]`` is coordinate
``i`` of one state as a scalar, or of a batch as a column, and
``np.array([...]).T`` stacks the results back.  (Indexing ``x.T`` is
cheaper than unpacking an array.)  A batch row gets the bits of the same
state alone: powers go through the C library's ``pow`` (:func:`_power`),
and zeno-polar's radius through ``math.hypot`` (:func:`_radius`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ClfCertificate, ControlSystem, RateFunction
from .errors import ConfigurationError, DomainError

__all__ = [
    "Model",
    "acc_backstepping",
    "homogeneous_planar",
    "zeno_polar",
    "relay_1d",
    "build_model",
    "MODEL_NAMES",
    "acc_state_from_physical",
    "acc_physical_from_state",
    "zeno_first_event_bound",
]


@dataclass(frozen=True)
class Model:
    """A named system/certificate pair ready for simulation and audits."""

    name: str
    system: ControlSystem
    certificate: ClfCertificate
    params: dict
    default_x0: np.ndarray
    expected_assumption_status: str  # 'satisfies_all' | 'violates_nondegeneracy'


def _power(x):
    """The power function for the coordinates of ``x``, with the bits of
    Python's ``**`` on one state: the builtin ``pow`` on the scalars of a
    state ``(d,)``, ``np.float_power`` on the columns of a batch.  numpy's
    array power rounds differently on some inputs (it squares, or uses SIMD
    routines)."""
    return pow if x.ndim == 1 else np.float_power


def _quadratic_certificate(rate: RateFunction, feedback) -> ClfCertificate:
    """The certificate ``V = |x|^2/2``, ``grad V = x`` with the given rate
    and feedback."""
    return ClfCertificate(
        value=lambda x: 0.5 * np.vecdot(x, x),
        gradient=lambda x: np.asarray(x, dtype=float),
        rate=rate,
        feedback=feedback,
    )


# ---------------------------------------------------------------------------
# cruise control via backstepping


def acc_state_from_physical(d, v, a, k, v0, d0) -> np.ndarray:
    """Map gap, speed and acceleration to backstepping coordinates."""
    x1 = d - d0
    x2 = (v0 - v) + k * x1
    x3 = -a + 2.0 * k * (v0 - v) + k * k * x1
    return np.array([x1, x2, x3])


def acc_physical_from_state(x, k, v0, d0):
    """Inverse of :func:`acc_state_from_physical`; returns ``(d, v, a)``."""
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    d = x1 + d0
    v = v0 - (x2 - k * x1)
    a = 2.0 * k * x2 - k * k * x1 - x3
    return d, v, a


def acc_backstepping(k: float = 1.01, tau_lag: float = 0.3) -> Model:
    """Third-order longitudinal vehicle model in backstepping coordinates.

    The commanded acceleration tracks the actual one through a first-order
    lag with the constant time constant ``tau_lag``, so the frozen-input
    loop is affine.  The quadratic CLF ``V = |x|^2/2`` with the printed
    feedback gives the linear decrease rate ``2(k-1) V``, so ``k > 1`` is
    required.
    """
    if k <= 1.0:
        raise DomainError(f"backstepping gain k must exceed 1, got {k}")
    if tau_lag <= 0:
        raise DomainError("tau_lag must be positive")

    kk = float(k)
    tl = float(tau_lag)
    ae = 2.0 * (kk - 1.0)

    def rhs(x, u):
        xt = x.T
        x1, x2, x3 = xt[0], xt[1], xt[2]
        z = 2.0 * kk * x2 - kk * kk * x1 - x3  # the (negated) acceleration
        e1 = x2 - kk * x1
        return np.array([
            e1,
            x3 - kk * x2,
            kk * kk * e1 + (1.0 / tl - 2.0 * kk) * z - u.T[0] / tl,
        ]).T

    def feedback(x):
        xt = x.T
        x1, x2, x3 = xt[0], xt[1], xt[2]
        z = 2.0 * kk * x2 - kk * kk * x1 - x3
        return np.array([tl * kk * kk * (x2 - kk * x1)
                         + (1.0 - 2.0 * kk * tl) * z - tl * (x1 - kk * x3)]).T

    system = ControlSystem(state_dim=3, input_dim=1, rhs=rhs)
    cert = _quadratic_certificate(RateFunction.linear(ae), feedback)
    params = {"k": kk, "tau_lag": tau_lag}
    x0 = np.array([10.0, 10.0 * kk, 10.0 * kk * kk])  # close a 10 m gap
    return Model(name="acc", system=system, certificate=cert, params=params,
                 default_x0=x0, expected_assumption_status="satisfies_all")


# ---------------------------------------------------------------------------
# homogeneous planar system


def homogeneous_planar(rate_scale: float = 1.0) -> Model:
    """Cubic planar system with quadratic CLF and rate ``rate_scale * v^2``.

    The decrease identity is ``V'(x) F(x, U(x)) = -(x1^4 + x2^4)``, which
    supports the rate ``v^2`` (and a fortiori ``v^2/2``); ``rate_scale``
    selects between the two readings.
    """
    if rate_scale not in (1.0, 0.5):
        raise DomainError("rate_scale must be 1.0 or 0.5")

    def rhs(x, u):
        pw = _power(x)
        xt = x.T
        x1, x2 = xt[0], xt[1]
        q = x1 * pw(x2, 2)
        return np.array([-pw(x1, 3) + q, q + u.T[0] - pw(x1, 2) * x2]).T

    def feedback(x):
        pw = _power(x)
        xt = x.T
        x1, x2 = xt[0], xt[1]
        return np.array([-pw(x2, 3) - x1 * pw(x2, 2)]).T

    system = ControlSystem(state_dim=2, input_dim=1, rhs=rhs)
    cert = _quadratic_certificate(RateFunction.power(rate_scale, 2.0), feedback)
    return Model(name="homog2d", system=system, certificate=cert,
                 params={"rate_scale": rate_scale},
                 default_x0=np.array([0.1, 0.4]),
                 expected_assumption_status="satisfies_all")


# ---------------------------------------------------------------------------
# the rotating-feedback counterexample


def zeno_first_event_bound(r_star: float) -> float:
    """Analytic upper bound on the first inter-update time as a function of
    the initial radius; it vanishes as the radius does."""
    if not 0.0 < r_star < 1.0:
        raise DomainError(f"r_star must lie in (0, 1), got {r_star}")
    s = math.sqrt(1.0 + r_star ** 2)
    return r_star * s * math.atan(r_star) / (r_star * s + 1.0 - r_star ** 2)


def _hypot_or_inf(a, b):
    return math.hypot(a, b) or math.inf


_HYPOT_OR_INF = np.frompyfunc(_hypot_or_inf, 2, 1)


def _radius(a, b):
    """``math.hypot(a, b)`` of two scalars or, pair by pair, of two
    columns, and infinite at the origin.  ``np.hypot`` rounds differently
    on some inputs."""
    if isinstance(a, np.ndarray):
        return _HYPOT_OR_INF(a, b).astype(float)
    return _hypot_or_inf(a, b)


def zeno_polar(r_star: float = 0.01, phi_star: float = 0.0) -> Model:
    """Harmonic rotation with a feedback that cancels it only in continuous
    time.  The feedback speed does not vanish near the origin, so the
    velocity-to-decrease ratio diverges and inter-update times collapse.
    """
    if not 0.0 < r_star < 1.0:
        raise DomainError(f"r_star must lie in (0, 1), got {r_star}")

    def rhs(x, u):
        xt, ut = x.T, u.T
        return np.array([xt[1] + ut[0], -xt[0] + ut[1]]).T

    def feedback(x):
        xt = x.T
        x1, x2 = xt[0], xt[1]
        r = _radius(x1, x2)
        # the control is 0 at the origin: there r is infinite, both terms
        # are signed zeros, and + 0.0 turns their sum into +0.0.  Elsewhere
        # neither sum is -0.0, so + 0.0 changes no bit.
        return np.array([-x1 + x2 / r + 0.0, -x2 - x1 / r + 0.0]).T

    system = ControlSystem(state_dim=2, input_dim=2, rhs=rhs)
    cert = _quadratic_certificate(RateFunction.linear(2.0), feedback)
    x0 = r_star * np.array([math.cos(phi_star), math.sin(phi_star)])
    return Model(name="zeno-polar", system=system, certificate=cert,
                 params={"r_star": r_star, "phi_star": phi_star},
                 default_x0=x0,
                 expected_assumption_status="violates_nondegeneracy")


# ---------------------------------------------------------------------------
# scalar relay


def relay_1d() -> Model:
    """Integrator with relay feedback ``-sgn(x)`` and square-root rate.

    Finite-time convergence: the event schedule under the guard policy is
    exactly {0, |x0|}, after which the control freezes at 0.  Being a
    finite-time design, it fails non-degeneracy near the origin.
    """

    def rhs(x, u):
        return np.array(u, dtype=float)

    def value(x):
        x1 = x.T[0]
        return x1 * x1

    system = ControlSystem(state_dim=1, input_dim=1, rhs=rhs)
    cert = ClfCertificate(
        value=value,
        gradient=lambda x: x + x,  # 2x, exactly
        rate=RateFunction.power(2.0, 0.5),
        feedback=lambda x: np.array([-np.sign(x.T[0]) + 0.0]).T,  # avoids -0.0
    )
    return Model(name="relay1d", system=system, certificate=cert,
                 params={}, default_x0=np.array([1.0]),
                 expected_assumption_status="violates_nondegeneracy")


# ---------------------------------------------------------------------------
# registry

_BUILDERS = {
    "acc": acc_backstepping,
    "homog2d": homogeneous_planar,
    "zeno-polar": zeno_polar,
    "relay1d": relay_1d,
}

MODEL_NAMES = tuple(sorted(_BUILDERS))


def build_model(name: str, params: Optional[dict] = None) -> Model:
    """Instantiate a built-in model by name with constructor keyword args."""
    if name not in _BUILDERS:
        raise ConfigurationError(
            f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}")
    try:
        return _BUILDERS[name](**(params or {}))
    except (TypeError, OverflowError) as exc:
        raise ConfigurationError(f"bad parameters for model {name!r}: {exc}") from exc
