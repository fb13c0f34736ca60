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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ClfCertificate, ControlSystem, finite_difference_jacobian, velocity_ratio
from .errors import (ConfigurationError, DimensionMismatchError, DomainError,
                     NonDegeneracyError, PropernessError)

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

# Joe-Kuo primitive polynomials and initial direction numbers of Sobol
# dimensions 2-10 (Joe & Kuo, SIAM J. Sci. Comput. 2008); dimension 1 has
# every direction number 1.  These are the rows scipy.stats.qmc.Sobol uses.
SOBOL_POLY = (3, 7, 11, 13, 19, 25, 37, 41, 47)
SOBOL_VINIT = ((1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
               (1, 1, 5, 5, 17), (1, 1, 5, 5, 5), (1, 1, 7, 11, 19))
SOBOL_MAX_DIM = len(SOBOL_POLY) + 1
SOBOL_BITS = 30


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

    ``mu`` is computed from ``kappa`` and ``nu`` by :func:`compute_mu`.
    """

    kappa: float
    nu: float
    big_m: float
    rho: float
    mu: float = field(init=False)
    provenance: str = "sampled"

    def __post_init__(self):
        for name in ("kappa", "nu", "big_m", "rho"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0:
                raise DomainError(f"{name} must be finite and non-negative, got {val}")
        if self.big_m <= 0:
            raise DomainError("big_m must be positive")
        mu = compute_mu(self.kappa, self.nu)
        if not math.isfinite(mu):
            raise DomainError(f"mu must be finite, got {mu}")
        object.__setattr__(self, "mu", mu)


def compute_mu(kappa: float, nu: float) -> float:
    """``mu = sqrt(e) * max(kappa, nu*(1 + kappa*sqrt(e)))``."""
    if kappa < 0 or nu < 0:
        raise DomainError("kappa and nu must be non-negative")
    return SQRT_E * max(kappa, nu * (1.0 + kappa * SQRT_E))


# ---------------------------------------------------------------------------
# scrambled Sobol stream


def _sobol_direction_numbers() -> np.ndarray:
    """Direction numbers, shape ``(SOBOL_MAX_DIM, SOBOL_BITS)``; entry
    ``[i, b]`` carries its bits from bit ``SOBOL_BITS - 1 - b`` down."""
    v = np.ones((SOBOL_MAX_DIM, SOBOL_BITS), dtype=np.int64)
    for i, (poly, vinit) in enumerate(zip(SOBOL_POLY, SOBOL_VINIT), start=1):
        s = len(vinit)
        v[i, :s] = vinit
        # m_j = 2 a_1 m_{j-1} ^ ... ^ 2^(s-1) a_{s-1} m_{j-s+1} ^ 2^s m_{j-s}
        # ^ m_{j-s}, with a_1 .. a_{s-1} the inner bits of the polynomial
        for j in range(s, SOBOL_BITS):
            new = v[i, j - s] ^ (v[i, j - s] << s)
            for k in range(1, s):
                if (poly >> (s - k)) & 1:
                    new ^= v[i, j - k] << k
            v[i, j] = new
    return (v << (SOBOL_BITS - 1 - np.arange(SOBOL_BITS))).astype(np.uint32)


_SOBOL_V = _sobol_direction_numbers()
# 2**(SOBOL_BITS - 1 - c) for c = 0 .. SOBOL_BITS - 1
_SOBOL_WEIGHTS = np.uint32(1) << np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)


class _SobolStream:
    """Scrambled Sobol points in ``[0, 1)^d``, bit for bit those of
    ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed)``: Matousek's linear
    matrix scramble plus a digital shift, points in Gray-code order.  Each
    :meth:`random` call continues the stream where the last one stopped."""

    def __init__(self, d: int, seed: int):
        if not 1 <= d <= SOBOL_MAX_DIM:
            raise ConfigurationError(
                f"Sobol sampling supports dimensions 1 to {SOBOL_MAX_DIM}, got {d}")
        rng = np.random.default_rng(seed)
        shift = rng.integers(0, 2, (d, SOBOL_BITS), dtype=np.uint32) @ _SOBOL_WEIGHTS[::-1]
        lower = (np.tril(rng.integers(0, 2, (d, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32), -1)
                 | np.eye(SOBOL_BITS, dtype=np.uint32))
        # bit SOBOL_BITS - 1 - c of a scrambled direction number is the
        # parity of (row c of the matrix, read as an integer) AND (the plain
        # direction number); the shifts fold that parity into bit 0
        x = (lower @ _SOBOL_WEIGHTS)[:, :, None] & _SOBOL_V[:d, None, :]
        for width in (16, 8, 4, 2, 1):
            x ^= x >> width
        scrambled = (_SOBOL_WEIGHTS @ (x & 1)).T  # (bit, dimension)
        # Gray-code order: point k is point k - 1 XOR the scrambled direction
        # number of the lowest set bit of k.  The appended zero row is the
        # step into point 0, which is the shift itself.
        self._steps = np.vstack([scrambled, np.zeros((1, d), dtype=np.uint32)])
        self._last = shift
        self._count = 0

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` points, shape ``(n, d)``."""
        k = np.arange(self._count, self._count + n, dtype=np.uint32)
        # the lowest set bit of k is 2**(exponent - 1); exponent is 0 at k = 0
        _, exponent = np.frexp(k & ~(k - 1))
        pts = np.bitwise_xor.accumulate(self._steps[exponent - 1], axis=0) ^ self._last
        self._last = pts[-1]
        self._count += n
        return pts * 2.0 ** -SOBOL_BITS


# ---------------------------------------------------------------------------
# region construction and sampling


def bound_sublevel_box(cert: ClfCertificate, anchor, *, seed: int = 0) -> SublevelRegion:
    """Build an axis-aligned box containing ``{x : V(x) <= V(anchor)}``.

    Per-axis rays from the origin are doubled until V exceeds the level and
    then bisected; the box is widened to cover any sublevel point it misses
    among up to three batches of ``BOX_CHECK_POINTS`` from one scrambled
    Sobol stream (seeded by ``seed``) over 1.5 times the box, and finally
    inflated by ``BOX_INFLATE``.  Sampling needs ``d <= SOBOL_MAX_DIM``.
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

    # widen to cover sampled sublevel points the rays may have missed
    sob = _SobolStream(d, seed)
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
    seed extends the smaller sample.

    The stream is :class:`_SobolStream`, drawn in power-of-two batches,
    whose points equal scipy's scrambled Sobol points for the same ``d``
    and ``seed``; sampling needs ``d <= SOBOL_MAX_DIM``."""
    if region.degenerate:
        return np.tile(region.anchor, (n, 1))
    d = region.dim
    sob = _SobolStream(d, seed)
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
                        n: int, seed: int, safety: float, constant: str,
                        checked_map=None) -> EstimateReport:
    """Sampled Lipschitz bound of ``map_fn``, whose values must have shape
    ``(region.dim,)``; the first value's shape is checked.  ``checked_map``,
    when given, takes the first sample and so validates what ``map_fn``
    takes on trust."""
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
    vals = [np.asarray((checked_map or map_fn)(pts[0]), dtype=float)]
    if vals[0].shape != (region.dim,):
        raise DimensionMismatchError(
            f"the map behind {constant} returned shape {vals[0].shape}, "
            f"expected ({region.dim},)")
    vals += [np.asarray(map_fn(p), dtype=float) for p in pts[1:]]

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

    The control is frozen at the anchor's feedback value throughout; the
    first field evaluation checks it.  A degenerate region (anchor at the
    equilibrium) returns 0 by convention.
    """
    u_star = cert.u(region.anchor)
    return _lipschitz_estimate(sys.frozen(u_star), cert, region, n, seed,
                               safety, "kappa",
                               checked_map=lambda x: sys.f(x, u_star))


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
    reported via ``diverging`` rather than raised.  Each point's field
    evaluation is checked, since each brings a new feedback control.
    """

    def ratio_at(x) -> float:
        return velocity_ratio(cert.grad(x), sys.f(x, cert.u(x)))

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
                       n: int, seed: int, safety: float = DEFAULT_SAFETY,
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
    constants = CertificateConstants(
        kappa=rep_k.value, nu=rep_n.value,
        big_m=max(rep_m.value, 1e-300), rho=rho,
        provenance=f"sampled(n={n}, safety={safety})")
    return constants, reports
