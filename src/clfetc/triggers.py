"""The four sampling policies, the event guard and the periodic predicate.

A policy never integrates anything.  The event-triggered policy is watched
through the guard; the other three name their next clock instant, and the
simulation engine integrates to it and refreshes the control there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import ClfCertificate, ControlSystem
from .errors import ConfigurationError, DomainError

__all__ = [
    "EventTriggered",
    "SelfTriggered",
    "TimeTriggered",
    "PeriodicEventTriggered",
    "TriggerPolicy",
    "equilibrium_threshold",
    "frozen_guard",
    "event_guard",
    "predicate_p",
]

# the exact equilibrium test V = 0 is unattainable in floating point
EQ_ABS_FLOOR = 1e-24
EQ_REL_FLOOR = 1e-12


def equilibrium_threshold(v0: float) -> float:
    return max(EQ_ABS_FLOOR, EQ_REL_FLOOR * v0)


@dataclass(frozen=True)
class EventTriggered:
    """Recompute the control at the first zero of the event guard."""

    sigma: float

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise DomainError(f"sigma must lie in (0, 1), got {self.sigma}")


@dataclass(frozen=True)
class SelfTriggered:
    """Recompute at ``t_n + tau_fn(x(t_n))``; nothing is monitored between."""

    sigma: float
    tau_fn: Callable[[np.ndarray], float]

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise DomainError(f"sigma must lie in (0, 1), got {self.sigma}")

    def next_instant(self, k: int, t: float, x) -> float:
        """The last update time ``t`` plus the dwell chosen at its state."""
        dwell = float(self.tau_fn(x))
        if dwell <= 0.0:
            raise ConfigurationError(
                f"self-triggered dwell function returned {dwell}")
        return t + dwell


@dataclass(frozen=True)
class TimeTriggered:
    """Recompute on a trajectory-independent schedule.

    Either a fixed period or an explicit strictly increasing list of
    instants.  Whether the period is small enough for the rate guarantee is
    the caller's concern (a sufficient bound comes from the dwell module).
    """

    period: Optional[float] = None
    instants: Optional[tuple] = None

    def __post_init__(self):
        if (self.period is None) == (self.instants is None):
            raise ConfigurationError("give exactly one of period or instants")
        if self.period is not None and self.period <= 0:
            raise DomainError("period must be positive")
        if self.instants is not None:
            inst = tuple(float(t) for t in self.instants)
            if any(b <= a for a, b in zip(inst, inst[1:])) or (inst and inst[0] <= 0):
                raise DomainError("instants must be strictly increasing and positive")
            object.__setattr__(self, "instants", inst)

    def next_instant(self, k: int, t: float, x) -> Optional[float]:
        """The schedule's instant after the ``k`` already reached, or None
        when the explicit list is exhausted."""
        if self.period is not None:
            return (k + 1) * self.period
        if k < len(self.instants):
            return self.instants[k]
        return None


@dataclass(frozen=True)
class PeriodicEventTriggered:
    """Check a predicate every ``h`` seconds; recompute only when it fails.

    ``big_m`` is the velocity-to-decrease ratio bound of the operating
    region, entering the predicate's second conjunct.
    """

    sigma: float
    sigma_tilde: float
    k_big: float
    h: float
    big_m: float

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise DomainError(f"sigma must lie in (0, 1), got {self.sigma}")
        if not self.sigma < self.sigma_tilde < 1.0:
            raise DomainError("sigma_tilde must lie in (sigma, 1)")
        if self.k_big <= 1.0:
            raise DomainError("k_big must exceed 1")
        if self.h <= 0.0:
            raise DomainError("h must be positive")
        if self.big_m <= 0.0:
            raise DomainError("big_m must be positive")

    def next_instant(self, k: int, t: float, x) -> float:
        """The check after the ``k``-th, always an integer multiple of ``h``
        so that rounding does not accumulate over many checks."""
        return (k + 1) * self.h


TriggerPolicy = Union[EventTriggered, SelfTriggered, TimeTriggered, PeriodicEventTriggered]


def frozen_guard(cert: ClfCertificate, x: np.ndarray, fx: np.ndarray,
                 sigma: float) -> float:
    """Signed margin ``g = W(x, u) + sigma*gamma(V(x))``, given the field
    value ``fx = F(x, u)`` under the frozen control.

    Negative means the retained-decrease condition holds strictly; the event
    surface is ``g = 0``.  Nothing is validated here: the engine checks the
    state once per segment and calls this at every guard probe, passing
    the field values its stepper already has where it can.
    """
    return float(cert.grad(x) @ fx) + sigma * cert.rate(cert.v(x))


def event_guard(cert: ClfCertificate, sys: ControlSystem, x, u_frozen,
                sigma: Optional[float] = None) -> float:
    """:func:`frozen_guard` with the state and control dimensions checked."""
    s = cert.sigma if sigma is None else sigma
    x = np.asarray(x, dtype=float)
    return frozen_guard(cert, x, sys.f(x, u_frozen), s)


def predicate_p(cert: ClfCertificate, big_m: float, x, fx,
                sigma_tilde: float, k_big: float) -> bool:
    """Periodic-check predicate at state ``x`` with field value
    ``fx = F(x, u)`` under the current control: keep the control iff the
    decrease still has margin ``sigma_tilde`` and the speed-to-decrease
    ratio stays within ``k_big`` times the regional bound.

    ``W = 0`` away from the origin makes the ratio infinite: the predicate
    is false, not an error.
    """
    g = cert.grad(x)
    w = float(g @ fx)
    if not w < -sigma_tilde * cert.rate(cert.v(x)):
        return False
    if w == 0.0:
        return False
    fn = float(np.linalg.norm(fx))
    ratio = (float(np.linalg.norm(g)) * fn + fn * fn) / (big_m * abs(w))
    return ratio <= k_big


def policy_sigma(policy: TriggerPolicy, cert: ClfCertificate) -> float:
    """The retention fraction governing a run (time-triggered schedules
    inherit the certificate's)."""
    return getattr(policy, "sigma", cert.sigma)

