"""Sampled estimation of the sublevel-set constants behind every dwell-time
formula: the Lipschitz constants of the frozen-input field and of the CLF
gradient, the velocity-to-decrease ratio bound, the rate-derivative penalty,
and the combined constant derived from the first two.

All estimators are sample-certified, not proof-certified: suprema over a
compact sublevel set are approximated by the maximum over a low-discrepancy
sample, inflated by a configurable safety factor (default 1.25).  Identical
seeds give bitwise-identical estimates, and adding samples can only grow an
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.stats import qmc

from .core import (ClfCertificate, ControlSystem, finite_difference_jacobian)
from .errors import (ConfigurationError, DomainError, NonDegeneracyError,
                     PropernessError)

__all__ = [
    "SublevelRegion",
    "EstimateReport",
    "CertificateConstants",
    "bound_sublevel_box",
    "sample_in_region",
    "estimate_kappa",
    "estimate_nu",
    "estimate_big_m",
    "estimate_rho",
    "compute_mu",
    "estimate_constants",
]

SQRT_E = math.sqrt(math.e)
DEFAULT_SAFETY = 1.25
# points with V below this fraction of the level are skipped in ratio
# estimates; the ratio is 0/0 at the equilibrium even for healthy systems
EQUILIBRIUM_LEVEL_FRACTION = 1e-12
RHO_GRID = 10_000
BOX_MAX_DOUBLINGS = 200  # per axis ray, starting from radius 1
BOX_CHECK_POINTS = 512   # sampled points per widening and boundary check
BOX_INFLATE = 0.05       # relative widening of the final box
SAMPLE_MAX_BATCHES = 64
DIVERGENCE_GROWTH = 100.0  # ratio growth toward the origin that counts as divergence


@dataclass(frozen=True)
class SublevelRegion:
    """An anchor state, its level ``V(anchor)`` and an axis-aligned box
    certified (at sample resolution) to contain ``{x : V(x) <= level}``."""

    anchor: np.ndarray
    level: float
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if self.level < 0:
            raise DomainError("sublevel region needs level >= 0")
        if np.any(self.hi < self.lo):
            raise DomainError("degenerate bounding box: hi < lo")

    @property
    def dim(self) -> int:
        return self.anchor.size

    @property
    def degenerate(self) -> bool:
        return self.level == 0.0

    @property
    def box_scale(self) -> float:
        return float(np.max(self.hi - self.lo))


@dataclass(frozen=True)
class EstimateReport:
    """A single sampled constant with its provenance, JSON-serializable."""

    constant: str
    value: float
    n_samples: int
    safety_factor: float
    argmax_point: Optional[tuple]
    seed: int
    diverging: bool = False


@dataclass(frozen=True)
class CertificateConstants:
    """The constants entering the dwell-time formulas, all on one region.

    ``mu`` is always recomputed from ``kappa`` and ``nu``; constructing an
    inconsistent triple raises.
    """

    kappa: float
    nu: float
    big_m: float
    rho: float
    mu: float
    provenance: str = "sampled"

    def __post_init__(self):
        for name in ("kappa", "nu", "big_m", "rho", "mu"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0:
                raise DomainError(f"{name} must be finite and non-negative, got {val}")
        if self.big_m <= 0:
            raise DomainError("big_m must be positive")
        if self.mu != compute_mu(self.kappa, self.nu):
            raise DomainError("mu is not the value recomputed from kappa and nu")

    @staticmethod
    def from_estimates(kappa: float, nu: float, big_m: float, rho: float,
                       provenance: str = "sampled") -> "CertificateConstants":
        return CertificateConstants(kappa=kappa, nu=nu, big_m=big_m, rho=rho,
                                    mu=compute_mu(kappa, nu), provenance=provenance)


def compute_mu(kappa: float, nu: float) -> float:
    """``mu = sqrt(e) * max(kappa, nu*(1 + kappa*sqrt(e)))``."""
    if kappa < 0 or nu < 0:
        raise DomainError("kappa and nu must be non-negative")
    return SQRT_E * max(kappa, nu * (1.0 + kappa * SQRT_E))


# ---------------------------------------------------------------------------
# region construction and sampling


def bound_sublevel_box(cert: ClfCertificate, anchor, *, seed: int = 0) -> SublevelRegion:
    """Build an axis-aligned box containing ``{x : V(x) <= V(anchor)}``.

    Per-axis rays from the origin are doubled until V exceeds the level and
    then bisected; the box is widened to cover any sampled sublevel point it
    misses and finally inflated by ``BOX_INFLATE``.
    """
    anchor = np.asarray(anchor, dtype=float)
    level = cert.v(anchor)
    if level < 0:
        raise DomainError("anchor has negative level")
    d = anchor.size
    if level == 0.0:
        return SublevelRegion(anchor=anchor, level=0.0, lo=anchor.copy(), hi=anchor.copy())

    lo = np.zeros(d)
    hi = np.zeros(d)
    for i in range(d):
        for sign, store in ((1.0, hi), (-1.0, lo)):
            e = np.zeros(d)
            e[i] = sign
            r = 1.0
            # make sure the inner end of the bracket is inside the set
            for _ in range(200):
                if cert.v(r * e) <= level:
                    break
                r /= 2.0
                if r < 1e-14:
                    break
            r_in = r
            r_out = None
            for _ in range(BOX_MAX_DOUBLINGS):
                r *= 2.0
                if cert.v(r * e) > level:
                    r_out = r
                    break
                r_in = r
            if r_out is None:
                raise PropernessError(
                    f"V did not exceed level {level} along axis {i} "
                    f"(direction {sign:+.0f}) within {BOX_MAX_DOUBLINGS} doublings")
            for _ in range(80):
                mid = 0.5 * (r_in + r_out)
                if cert.v(mid * e) <= level:
                    r_in = mid
                else:
                    r_out = mid
            store[i] = sign * r_out

    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    # widen to cover sampled sublevel points the rays may have missed
    sob = qmc.Sobol(d=d, scramble=True, seed=seed)
    for _ in range(3):
        span_lo = 1.5 * lo
        span_hi = 1.5 * hi
        pts = span_lo + sob.random(BOX_CHECK_POINTS) * (span_hi - span_lo)
        grew = False
        for p in pts:
            if cert.v(p) <= level:
                below = p < lo
                above = p > hi
                if below.any() or above.any():
                    lo = np.minimum(lo, p)
                    hi = np.maximum(hi, p)
                    grew = True
        if not grew:
            break
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * (1.0 + BOX_INFLATE)
    region = SublevelRegion(anchor=anchor, level=level, lo=center - half, hi=center + half)
    _check_boundary(cert, region, BOX_CHECK_POINTS, seed)
    return region


def _check_boundary(cert: ClfCertificate, region: SublevelRegion, n: int, seed: int):
    """Sampled faces of the box must lie outside the sublevel set."""
    d = region.dim
    rng = np.random.default_rng(seed)
    pts = region.lo + rng.random((n, d)) * (region.hi - region.lo)
    for k in range(n):
        i = k % d
        pts[k, i] = region.lo[i] if (k // d) % 2 == 0 else region.hi[i]
    bad = [p for p in pts if cert.v(p) <= region.level]
    if bad:
        raise PropernessError(
            f"{len(bad)} sampled boundary points of the bounding box lie inside "
            "the sublevel set; the box does not cover it")


def sample_in_region(cert: ClfCertificate, region: SublevelRegion, n: int,
                     seed: int = 0) -> np.ndarray:
    """First ``n`` points of a scrambled Sobol stream over the box that fall
    inside the sublevel set.  Prefix-stable: a larger ``n`` with the same
    seed extends the smaller sample."""
    if region.degenerate:
        return np.tile(region.anchor, (n, 1))
    d = region.dim
    sob = qmc.Sobol(d=d, scramble=True, seed=seed)
    accepted = []
    span = region.hi - region.lo
    batch = 1 << max(6, (max(n, 2) - 1).bit_length())  # power of 2 keeps Sobol balanced
    for _ in range(SAMPLE_MAX_BATCHES):
        pts = region.lo + sob.random(batch) * span
        for p in pts:
            if cert.v(p) <= region.level:
                accepted.append(p)
                if len(accepted) == n:
                    return np.array(accepted)
    raise DomainError(
        f"could not draw {n} sublevel samples in {SAMPLE_MAX_BATCHES} batches; "
        "the sublevel set occupies too little of its bounding box")


# ---------------------------------------------------------------------------
# Lipschitz-type estimators


def _lipschitz_estimate(map_fn, cert: ClfCertificate, region: SublevelRegion,
                        n: int, seed: int, safety: float, constant: str) -> EstimateReport:
    if n < 2:
        raise DomainError("Lipschitz estimation needs n >= 2")
    if region.degenerate:
        return EstimateReport(constant=constant, value=0.0, n_samples=0,
                              safety_factor=safety, argmax_point=None, seed=seed)
    pts = sample_in_region(cert, region, n, seed=seed)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, region.dim))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0] = 1.0
    dirs /= norms[:, None]

    best = 0.0
    best_point = pts[0]
    vals = [np.asarray(map_fn(p), dtype=float) for p in pts]

    def consider(quotient, point):
        nonlocal best, best_point
        if quotient > best:
            best = quotient
            best_point = point

    # independent pairs from the sample stream
    for i in range(0, n - 1, 2):
        dx = np.linalg.norm(pts[i + 1] - pts[i])
        if dx > 0:
            consider(np.linalg.norm(vals[i + 1] - vals[i]) / dx, pts[i])
    # perturbation pairs: the supremum is often attained at small separation
    for eps in (1e-4, 1e-2):
        step = eps * region.box_scale
        for i in range(n):
            q = pts[i] + step * dirs[i]
            if cert.v(q) > region.level:
                continue
            fv = np.asarray(map_fn(q), dtype=float)
            consider(np.linalg.norm(fv - vals[i]) / step, pts[i])
    # finite-difference Jacobian spectral norms at the sample points
    for i in range(n):
        jac = finite_difference_jacobian(map_fn, pts[i])
        consider(float(np.linalg.norm(jac, 2)), pts[i])

    return EstimateReport(constant=constant, value=safety * best, n_samples=n,
                          safety_factor=safety,
                          argmax_point=tuple(float(c) for c in best_point), seed=seed)


def estimate_kappa(sys: ControlSystem, cert: ClfCertificate, region: SublevelRegion,
                   n: int, seed: int = 0, safety: float = DEFAULT_SAFETY) -> EstimateReport:
    """Lipschitz constant of ``x -> F(x, U(anchor))`` over the region.

    The control is frozen at the anchor's feedback value throughout.  A
    degenerate region (anchor at the equilibrium) returns 0 by convention.
    """
    u_star = cert.u(region.anchor)
    return _lipschitz_estimate(lambda x: sys.f(x, u_star), cert, region, n, seed,
                               safety, "kappa")


def estimate_nu(cert: ClfCertificate, region: SublevelRegion, n: int,
                seed: int = 0, safety: float = DEFAULT_SAFETY) -> EstimateReport:
    """Lipschitz constant of the CLF gradient over the region."""
    return _lipschitz_estimate(cert.grad, cert, region, n, seed, safety, "nu")


def estimate_big_m(sys: ControlSystem, cert: ClfCertificate, region: SublevelRegion,
                   n: int, seed: int = 0, safety: float = DEFAULT_SAFETY) -> EstimateReport:
    """Bound on ``(|V'||Fbar| + |Fbar|^2) / |V' Fbar|`` over the region, with
    ``Fbar(x) = F(x, U(x))`` the closed-loop field.

    Beyond the sampled maximum, the ratio is probed along rays shrinking
    toward the origin; monotone growth by more than ``DIVERGENCE_GROWTH``
    (or any non-finite sample) marks the pair as non-degenerate-violating,
    reported via ``diverging`` rather than raised.
    """

    def ratio_at(x) -> float:
        g = cert.grad(x)
        fbar = sys.f(x, cert.u(x))
        w = float(g @ fbar)
        num = float(np.linalg.norm(g) * np.linalg.norm(fbar) + np.linalg.norm(fbar) ** 2)
        if w == 0.0:
            return math.inf if num > 0.0 else 0.0
        return num / abs(w)

    if region.degenerate:
        raise DomainError("ratio bound is undefined on a degenerate region")
    pts = sample_in_region(cert, region, n, seed=seed)
    skip = EQUILIBRIUM_LEVEL_FRACTION * region.level
    best = 0.0
    best_point = None
    diverging = False
    for p in pts:
        if cert.v(p) < skip:
            continue
        r = ratio_at(p)
        if not math.isfinite(r):
            diverging = True
            best_point = p
            continue
        if r > best:
            best = r
            best_point = p

    # ray probe toward the origin: the ratio must stay bounded as |x| -> 0
    rng = np.random.default_rng(seed + 1)
    dirs = rng.standard_normal((8, region.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    scales = [region.box_scale * 10.0 ** (-j) for j in range(2, 7)]
    per_scale = []
    for s in scales:
        worst = 0.0
        for dvec in dirs:
            x = s * dvec
            if cert.v(x) > region.level or cert.v(x) < 1e-300:
                continue
            worst = max(worst, ratio_at(x))
        per_scale.append(worst)
    finite = [r for r in per_scale if math.isfinite(r) and r > 0]
    if any(not math.isfinite(r) for r in per_scale):
        diverging = True
    elif len(finite) == len(per_scale) and len(finite) >= 2:
        increasing = all(b >= a for a, b in zip(finite, finite[1:]))
        if increasing and finite[-1] > DIVERGENCE_GROWTH * finite[0]:
            diverging = True
    if finite:
        best = max(best, max(finite))

    return EstimateReport(
        constant="big_m", value=safety * best, n_samples=n, safety_factor=safety,
        argmax_point=tuple(float(c) for c in best_point) if best_point is not None else None,
        seed=seed, diverging=diverging)


def estimate_rho(cert: ClfCertificate, level: float) -> float:
    """Max over ``[0, level]`` of ``max(0, -gamma'(v))``: the penalty a
    decreasing stretch of the rate inflicts on the dwell time.

    Non-decreasing rates return 0 exactly.  Rates that are neither flagged
    non-decreasing nor differentiable are rejected: the dwell-time formulas
    need one of the two.
    """
    if level < 0:
        raise DomainError("level must be non-negative")
    rate = cert.rate
    if rate.monotone_nondecreasing:
        return 0.0
    if rate.gamma_prime is None:
        raise ConfigurationError(
            "rate is not flagged non-decreasing and has no derivative; "
            "supply gamma_prime or set monotone_nondecreasing")
    if level == 0.0:
        return max(0.0, -float(rate.gamma_prime(0.0)))

    def neg_slope(v: float) -> float:
        return max(0.0, -float(rate.gamma_prime(v)))

    vs = np.linspace(0.0, level, RHO_GRID)
    vals = np.array([neg_slope(v) for v in vs])
    k = int(np.argmax(vals))
    best = float(vals[k])
    # golden-section refinement around the grid arg max; the running max can
    # only grow, so a non-unimodal bracket cannot corrupt the estimate
    a = vs[max(0, k - 1)]
    b = vs[min(RHO_GRID - 1, k + 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = neg_slope(c), neg_slope(d)
    for _ in range(60):
        best = max(best, fc, fd)
        if abs(b - a) < 1e-14 * max(1.0, level):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = neg_slope(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = neg_slope(d)
    return best


def estimate_constants(sys: ControlSystem, cert: ClfCertificate, region: SublevelRegion,
                       n: int = 256, seed: int = 0, safety: float = DEFAULT_SAFETY,
                       allow_degenerate: bool = False):
    """Estimate every constant on one region.

    Returns ``(CertificateConstants, {name: EstimateReport})``.  Raises
    :class:`NonDegeneracyError` when the ratio bound diverges, unless
    ``allow_degenerate`` is set (then the caller inspects the reports).
    """
    rep_k = estimate_kappa(sys, cert, region, n, seed=seed, safety=safety)
    rep_n = estimate_nu(cert, region, n, seed=seed, safety=safety)
    rep_m = estimate_big_m(sys, cert, region, n, seed=seed, safety=safety)
    reports = {"kappa": rep_k, "nu": rep_n, "big_m": rep_m}
    if rep_m.diverging and not allow_degenerate:
        raise NonDegeneracyError(
            "velocity-to-decrease ratio diverges near the origin; "
            "no finite dwell-time constants exist on this region", report=rep_m)
    rho = estimate_rho(cert, region.level)
    constants = CertificateConstants.from_estimates(
        kappa=rep_k.value, nu=rep_n.value,
        big_m=max(rep_m.value, 1e-300), rho=rho,
        provenance=f"sampled(n={n}, safety={safety})")
    return constants, reports
