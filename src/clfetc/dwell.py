"""Dwell-time calculus: the closed-form lower bound on the time between
control updates, its infimum over a sublevel set, and the admissible
checking period for periodic event-triggered control.

The bound is built from the constants of :mod:`clfetc.certificates` and a
retention fraction ``sigma``.  It has two readings: the same-anchor bound
(``tau_select``) used by event-, self- and time-triggered schemes, and the
perturbed-anchor bound (``tau0_select``) used by the periodic scheme, which
additionally depends on a stricter margin ``sigma_tilde`` and a ratio cap
``k_big``.  The first is the second with ``sigma_tilde = 1`` and
``k_big = 1``, so one function computes both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .certificates import CertificateConstants, SublevelRegion
# kept for the tracer: the benchmark patches these names on this module
from .certificates import (bound_sublevel_box, estimate_constants,  # noqa: F401
                           estimate_rho, sample_in_region)
from .core import ClfCertificate
from .errors import ConfigurationError, DomainError
from .triggers import check_sigma

__all__ = [
    "DwellInputs",
    "DwellEstimate",
    "TauMinReport",
    "c_bound",
    "tau_select",
    "tau0_select",
    "tau_min_over_sublevel",
    "admissible_period",
]

GAMMA_MODES = ("nondecreasing", "c1")
TAU_SAFETY = 1.1  # divides the dwell infimum
PERIOD_MARGIN = 0.95  # the admissible checking period's fraction of inf tau0


@dataclass(frozen=True)
class DwellInputs:
    """Constants plus scheduler parameters feeding the dwell formulas."""

    constants: CertificateConstants
    sigma: float
    sigma_tilde: Optional[float] = None
    k_big: Optional[float] = None
    gamma_mode: str = "nondecreasing"

    def __post_init__(self):
        check_sigma(self.sigma)
        if self.gamma_mode not in GAMMA_MODES:
            raise DomainError(f"gamma_mode must be one of {GAMMA_MODES}")
        if self.sigma_tilde is not None and not self.sigma < self.sigma_tilde < 1.0:
            raise DomainError(
                f"sigma_tilde must lie in (sigma, 1), got {self.sigma_tilde}")
        if self.k_big is not None and self.k_big <= 1.0:
            raise DomainError(f"k_big must exceed 1, got {self.k_big}")


@dataclass(frozen=True)
class DwellEstimate:
    """A strictly positive dwell bound with the active min-branch recorded.

    Every formula includes the cap ``1/(1+2 kappa)``, so values above it
    indicate a construction bug and are rejected.
    """

    value: float
    formula_branch: str
    inputs_echo: DwellInputs

    def __post_init__(self):
        if not self.value > 0.0:
            raise DomainError(f"dwell estimate must be positive, got {self.value}")
        cap = 1.0 / (1.0 + 2.0 * self.inputs_echo.constants.kappa)
        if self.value > cap * (1.0 + 1e-12):
            raise DomainError(f"dwell estimate {self.value} exceeds the cap {cap}")


def c_bound(kappa: float, t: float) -> float:
    """Growth envelope ``c(t) = sqrt((exp((2k+1)t) - 1) / (2k+1))``.

    Bounds how far a frozen-input solution can drift from its start state,
    in units of the initial speed.  For ``(2k+1)t`` below 1e-8 the
    first-order form ``sqrt(t)`` avoids cancellation.
    """
    if kappa < 0:
        raise DomainError("kappa must be non-negative")
    if t < 0:
        raise DomainError("t must be non-negative")
    z = (2.0 * kappa + 1.0) * t
    if z < 1e-8:
        return math.sqrt(t)
    return math.sqrt(math.expm1(z) / (2.0 * kappa + 1.0))


def _dwell(inp: DwellInputs, sigma_tilde: float, k_big: float) -> DwellEstimate:
    """The one dwell formula
    ``min((st-s)^2/(K^2 mu^2 M^2 st^2), 1/(1+2 kappa))``.

    With ``st = 1`` and ``K = 1`` it is the same-anchor bound (tau-tilde);
    with the scheduler's ``sigma_tilde`` and ``k_big`` it is the
    perturbed-anchor bound (tau-bar).  For a ``c1`` rate, ``s`` moves to the
    midpoint ``s1 = (st+s)/2`` and the value is capped by the
    rate-derivative term ``(s1-s)/(s (2 st - s1) rho)``, which gives tau-hat
    and tau-breve respectively.
    """
    c = inp.constants
    c1 = inp.gamma_mode == "c1"
    s = 0.5 * (sigma_tilde + inp.sigma) if c1 else inp.sigma
    cap = 1.0 / (1.0 + 2.0 * c.kappa)
    mm = k_big * c.mu * c.big_m * sigma_tilde
    rate_term = math.inf if mm == 0.0 else (sigma_tilde - s) ** 2 / (mm * mm)
    value, branch = (rate_term, "rate") if rate_term <= cap else (cap, "cap")
    if c1 and c.rho > 0.0:
        rho_term = (s - inp.sigma) / (inp.sigma * (2.0 * sigma_tilde - s) * c.rho)
        if rho_term < value:
            value, branch = rho_term, "rho"
    return DwellEstimate(value=value, formula_branch=branch, inputs_echo=inp)


def tau_select(inp: DwellInputs) -> DwellEstimate:
    """Same-anchor bound: tau-tilde for a non-decreasing rate, tau-hat for a
    differentiable non-monotone one."""
    return _dwell(inp, 1.0, 1.0)


def tau0_select(inp: DwellInputs) -> DwellEstimate:
    """Perturbed-anchor bound: tau-bar for a non-decreasing rate, tau-breve
    for a differentiable non-monotone one.  Needs ``sigma_tilde`` and
    ``k_big``."""
    if inp.sigma_tilde is None or inp.k_big is None:
        raise ConfigurationError(
            "periodic dwell bounds need sigma_tilde in (sigma, 1) and k_big > 1")
    return _dwell(inp, inp.sigma_tilde, inp.k_big)


def gamma_mode(cert: ClfCertificate) -> str:
    """The dwell formulas' reading of the certificate's rate."""
    return "nondecreasing" if cert.rate.monotone_nondecreasing else "c1"


@dataclass(frozen=True)
class TauMinReport:
    """Estimated infimum of a dwell bound over a sublevel set."""

    value: float
    which: str  # 'tau' or 'tau0'
    tau_safety: float
    argmin_anchor: tuple
    constants: CertificateConstants


def tau_min_over_sublevel(cert: ClfCertificate, region: SublevelRegion,
                          constants: CertificateConstants, sigma: float, *,
                          sigma_tilde: Optional[float] = None,
                          k_big: Optional[float] = None) -> TauMinReport:
    """Estimate of ``inf`` of the dwell bound over the sublevel set, divided
    by ``TAU_SAFETY``: the perturbed-anchor bound tau0 when ``sigma_tilde``
    or ``k_big`` is given (it needs both), the same-anchor bound tau
    otherwise.

    The constants are suprema over the whole region, so they serve every
    anchor in it.  The one anchor-dependent input, ``rho``, is a supremum of
    ``-gamma'`` over ``[0, V(anchor)]`` and can only grow with the level, and
    the bound only shrinks as ``rho`` grows.  The infimum is therefore the
    bound at the region's own level: the bound at ``constants``, which must
    be estimated on ``region``.
    """
    which = "tau" if sigma_tilde is None and k_big is None else "tau0"
    inp = DwellInputs(constants=constants, sigma=sigma, sigma_tilde=sigma_tilde,
                      k_big=k_big, gamma_mode=gamma_mode(cert))
    est = tau_select(inp) if which == "tau" else tau0_select(inp)
    return TauMinReport(value=est.value / TAU_SAFETY, which=which,
                        tau_safety=TAU_SAFETY,
                        argmin_anchor=tuple(float(c) for c in region.anchor),
                        constants=constants)


def admissible_period(tau0_min_value: float) -> float:
    """A checking period strictly inside ``(0, inf tau0)``."""
    if tau0_min_value <= 0:
        raise DomainError("tau0 infimum must be positive")
    return PERIOD_MARGIN * tau0_min_value
