"""The four sampling policies, the event guard and the periodic predicate.

Every policy carries the retention fraction ``sigma`` of its run, checked
by :func:`check_sigma`.  A policy never integrates anything: the simulation
engine runs one scan of the frozen flow between updates, and the policies
differ only in where it stops.  The event-triggered policy stops it where
:func:`frozen_guard` reaches zero.  The periodic policy stops it at the grid
instants ``j*h`` where :func:`predicate_margin` allows a failure, and checks
:func:`predicate_p` there.  The self- and time-triggered policies name
their next clock instant from numbers (a dwell, or a period or instants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import EQ_ABS_FLOOR, ClfCertificate, _norms, velocity_ratio
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
    "predicate_margin",
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

    def next_instant(self, k: int, t: float) -> float:
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

    def next_instant(self, k: int, t: float) -> Optional[float]:
        """The schedule's instant after the ``k`` already reached, or None
        when the explicit list is exhausted."""
        if self.period is not None:
            return (k + 1) * self.period
        if k < len(self.instants):
            return self.instants[k]
        return None


@dataclass(frozen=True)
class PeriodicEventTriggered:
    """Check a predicate at the grid instants ``j*h``; recompute only when
    it fails.  The checks land on integer multiples of ``h``, so rounding
    does not accumulate over many checks.

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


TriggerPolicy = Union[EventTriggered, SelfTriggered, TimeTriggered, PeriodicEventTriggered]


def _scalar_or_rows(out):
    """A Python float for one state, the array for a batch."""
    return float(out) if np.ndim(out) == 0 else out


def frozen_guard(cert: ClfCertificate, x: np.ndarray, fx: np.ndarray,
                 sigma: float) -> float | np.ndarray:
    """Signed margin ``g = W(x, u) + sigma*gamma(V(x))``, given the field
    value ``fx = F(x, u)`` under the frozen control: a float at one state
    ``(d,)``, or one margin per row of a ``(k, d)`` batch with its ``(k, d)``
    field values, each with the bits of the state alone.

    Negative means the retained-decrease condition holds strictly; the event
    surface is ``g = 0``.  Only the shapes of the gradient and ``V`` are
    checked, by :meth:`~clfetc.core.ClfCertificate.grad` and
    :meth:`~clfetc.core.ClfCertificate.levels`: the engine checks the state
    once per segment, and its frozen field the shape of each batch of field
    values.  The engine calls this on a step's guard probes, passing the
    field values its stepper already has where it can.
    """
    return _scalar_or_rows(np.vecdot(cert.grad(x), fx)
                           + sigma * cert.rate.at_levels(cert.levels(x)))


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
    return bool(velocity_ratio(g, fx) <= k_big * big_m)


def predicate_margin(cert: ClfCertificate, big_m: float, x, fx,
                     sigma_tilde: float, k_big: float) -> float | np.ndarray:
    """Continuous margin of :func:`predicate_p` at ``x`` with field value
    ``fx``: ``max(W + sigma_tilde*gamma(V), |grad V||F| + |F|^2 - k_big*big_m*|W|)``,
    a float at one state, or one margin per row of a batch, like
    :func:`frozen_guard`.

    The second term is the ratio test with the division cleared, so the
    predicate can fail only where the margin is non-negative (up to
    rounding in that term); ``W = 0`` makes the first term non-negative.
    The engine scans the frozen flow with it and calls the predicate only
    where the margin allows a failure.  The maximum is Python's ``max``:
    the first term unless the second is greater.
    """
    g = cert.grad(x)
    w = np.vecdot(g, fx)
    fn = _norms(fx)
    decrease = w + sigma_tilde * cert.rate.at_levels(cert.levels(x))
    ratio = _norms(g) * fn + np.float_power(fn, 2) - k_big * big_m * np.abs(w)
    return _scalar_or_rows(np.where(ratio > decrease, ratio, decrease))
