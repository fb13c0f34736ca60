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


def _quadratic_certificate(rate: RateFunction, feedback) -> ClfCertificate:
    """The certificate ``V = |x|^2/2``, ``grad V = x`` with the given rate
    and feedback."""
    return ClfCertificate(
        value=lambda x: 0.5 * float(x @ x),
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
        x1, x2, x3 = x
        z = 2.0 * kk * x2 - kk * kk * x1 - x3  # the (negated) acceleration
        return np.array([
            x2 - kk * x1,
            x3 - kk * x2,
            kk * kk * (x2 - kk * x1) + (1.0 / tl - 2.0 * kk) * z - u[0] / tl,
        ])

    def feedback(x):
        x1, x2, x3 = x
        z = 2.0 * kk * x2 - kk * kk * x1 - x3
        return np.array([tl * kk * kk * (x2 - kk * x1)
                         + (1.0 - 2.0 * kk * tl) * z - tl * (x1 - kk * x3)])

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
        x1, x2 = x
        return np.array([
            -x1 ** 3 + x1 * x2 ** 2,
            x1 * x2 ** 2 + u[0] - x1 ** 2 * x2,
        ])

    system = ControlSystem(state_dim=2, input_dim=1, rhs=rhs)
    cert = _quadratic_certificate(
        RateFunction.power(rate_scale, 2.0),
        lambda x: np.array([-x[1] ** 3 - x[0] * x[1] ** 2]))
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


def zeno_polar(r_star: float = 0.01, phi_star: float = 0.0) -> Model:
    """Harmonic rotation with a feedback that cancels it only in continuous
    time.  The feedback speed does not vanish near the origin, so the
    velocity-to-decrease ratio diverges and inter-update times collapse.
    """
    if not 0.0 < r_star < 1.0:
        raise DomainError(f"r_star must lie in (0, 1), got {r_star}")

    def rhs(x, u):
        return np.array([x[1] + u[0], -x[0] + u[1]])

    def feedback(x):
        r = math.hypot(float(x[0]), float(x[1]))
        if r == 0.0:
            return np.zeros(2)
        return np.array([-x[0] + x[1] / r, -x[1] - x[0] / r])

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
        return np.array([u[0]])

    system = ControlSystem(state_dim=1, input_dim=1, rhs=rhs)
    cert = ClfCertificate(
        value=lambda x: float(x[0] * x[0]),
        gradient=lambda x: np.array([2.0 * x[0]]),
        rate=RateFunction.power(2.0, 0.5),
        feedback=lambda x: np.array([-np.sign(x[0]) + 0.0]),  # avoids -0.0
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
