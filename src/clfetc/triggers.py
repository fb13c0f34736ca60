"""The four sampling policies, the event guard and the periodic predicate.

Every policy carries the retention fraction ``sigma`` of its run, checked
by :func:`check_sigma`.  A policy never integrates anything.  The
event-triggered policy is watched through the guard; the other three are
set up with numbers (a dwell, a period or instants, a check interval), name
their next clock instant from them, and the simulation engine integrates to
it and refreshes the control there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import EQ_ABS_FLOOR, ClfCertificate, velocity_ratio
from .errors import ConfigurationError, DomainError

__all__ = [
    "EventTriggered",
    "SelfTriggered",
    "TimeTriggered",
    "PeriodicEventTriggered",
    "TriggerPolicy",
    "check_sigma",
    "equilibrium_threshold",
    "frozen_guard",
    "predicate_p",
]

EQ_REL_FLOOR = 1e-12


def equilibrium_threshold(v0: float) -> float:
    return max(EQ_ABS_FLOOR, EQ_REL_FLOOR * v0)


def check_sigma(sigma: float) -> float:
    """The retention fraction ``sigma``, which must lie in (0, 1): the share
    of the certified decrease a policy keeps between updates."""
    if not 0.0 < sigma < 1.0:
        raise DomainError(f"sigma must lie in (0, 1), got {sigma}")
    return sigma


@dataclass(frozen=True)
class EventTriggered:
    """Recompute the control at the first zero of the event guard."""

    sigma: float

    def __post_init__(self):
        check_sigma(self.sigma)


@dataclass(frozen=True)
class SelfTriggered:
    """Recompute at ``t_n + tau`` for a fixed positive dwell ``tau``;
    nothing is monitored between updates."""

    sigma: float
    tau: float

    def __post_init__(self):
        check_sigma(self.sigma)
        if not self.tau > 0.0:
            raise DomainError("tau must be positive")

    def next_instant(self, k: int, t: float, x) -> float:
        """The last update time ``t`` plus the dwell."""
        return t + self.tau


@dataclass(frozen=True)
class TimeTriggered:
    """Recompute on a trajectory-independent schedule.

    Either a fixed period or an explicit strictly increasing list of
    instants.  ``sigma`` is the retention the schedule is meant to keep;
    whether the period is small enough for it is the caller's concern (a
    sufficient bound comes from the dwell module).
    """

    sigma: float
    period: Optional[float] = None
    instants: Optional[tuple] = None

    def __post_init__(self):
        check_sigma(self.sigma)
        if (self.period is None) == (self.instants is None):
            raise ConfigurationError("give exactly one of period or instants")
        if self.period is not None and not 0.0 < self.period < math.inf:
            raise DomainError("period must be positive and finite")
        if self.instants is not None:
            inst = tuple(float(t) for t in self.instants)
            # pairs (0, t1), (t1, t2), ...: NaN fails every comparison
            if not all(a < b < math.inf for a, b in zip((0.0,) + inst, inst)):
                raise DomainError("instants must be strictly increasing, positive and finite")
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
        check_sigma(self.sigma)
        if not self.sigma < self.sigma_tilde < 1.0:
            raise DomainError("sigma_tilde must lie in (sigma, 1)")
        if not 1.0 < self.k_big < math.inf:
            raise DomainError("k_big must exceed 1 and be finite")
        if not 0.0 < self.h < math.inf:
            raise DomainError("h must be positive and finite")
        if not 0.0 < self.big_m < math.inf:
            raise DomainError("big_m must be positive and finite")

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
    if not float(g @ fx) < -sigma_tilde * cert.rate(cert.v(x)):
        return False
    return velocity_ratio(g, fx) <= k_big * big_m
