"""Sampled estimation of the sublevel-set constants behind every dwell-time
formula: the Lipschitz constants of the frozen-input field and of the CLF
gradient, the velocity-to-decrease ratio bound, the rate-derivative penalty,
and the combined constant derived from the first two.

All estimators are sample-certified, not proof-certified: suprema over a
compact sublevel set are approximated by the maximum over a low-discrepancy
sample, inflated by a configurable safety factor (default 1.25).  The two
Lipschitz constants are the largest finite-difference Jacobian norm at the
sample points.  Identical seeds give bitwise-identical estimates, and adding
samples can only grow an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (ClfCertificate, ControlSystem, _as_points, _as_vector,
                   finite_difference_jacobian, velocity_ratio)
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

# Joe-Kuo primitive polynomials and initial direction numbers of Sobol
# dimensions 2-10 (Joe & Kuo, SIAM J. Sci. Comput. 2008); dimension 1 has
# every direction number 1.  These are the rows scipy.stats.qmc.Sobol uses.
SOBOL_POLY = (3, 7, 11, 13, 19, 25, 37, 41, 47)
SOBOL_VINIT = ((1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
               (1, 1, 5, 5, 17), (1, 1, 5, 5, 5), (1, 1, 7, 11, 19))
SOBOL_MAX_DIM = len(SOBOL_POLY) + 1
SOBOL_BITS = 30
# the largest sample size whose SAMPLE_MAX_BATCHES batches fit in one stream
MAX_SAMPLES = 2**SOBOL_BITS // SAMPLE_MAX_BATCHES


@dataclass(frozen=True)
class SublevelRegion:
    """An anchor state, its level ``V(anchor) > 0`` and an axis-aligned box
    certified (at sample resolution) to contain ``{x : V(x) <= level}``.

    The level is positive: at the equilibrium the set is a single point, on
    which the ratio bound is 0/0 and no dwell bound exists."""

    anchor: np.ndarray
    level: float
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if not self.level > 0.0:
            raise DomainError(f"sublevel region needs level > 0, got {self.level}")
        if np.any(self.hi < self.lo):
            raise DomainError("degenerate bounding box: hi < lo")

    @property
    def dim(self) -> int:
        return self.anchor.size

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
    :meth:`random` call continues the stream where the last one stopped; the
    stream ends after ``2**SOBOL_BITS`` points, as scipy's does."""

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
        if self._count + n > 2**SOBOL_BITS:
            raise DomainError(f"a Sobol stream holds {2**SOBOL_BITS} points; "
                              f"{self._count} drawn, {n} more requested")
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

    The ``2d`` axis rays from the origin step in lockstep from radius 1, one
    batch of ``V`` per round, each as its own search would and stopping
    where it stops: a ray whose point at radius 1 lies in the set doubles
    until ``V`` exceeds the level, at most ``BOX_MAX_DOUBLINGS`` times, and
    any other ray halves until its point lies in the set or its radius
    falls below 1e-14.  Its last two radii bracket the boundary, and the
    bracket is then bisected until no end moves, in at most 80 rounds.
    The box is widened to cover any sublevel point it misses among up to
    three batches of ``BOX_CHECK_POINTS`` from one scrambled Sobol stream
    (seeded by ``seed``) over 1.5 times the box, and finally inflated by
    ``BOX_INFLATE``.  Sampling needs ``d <= SOBOL_MAX_DIM``.  The anchor's
    level must be positive, so an anchor at the equilibrium is rejected.
    """
    anchor = np.asarray(anchor, dtype=float)
    level = cert.v(anchor)
    if not level > 0.0:
        raise DomainError(f"the sublevel region needs an anchor with level > 0, got {level}")
    d = anchor.size
    axis = np.arange(d)
    rays = np.zeros((2 * d, d))  # +e_0, -e_0, +e_1, ...
    rays[2 * axis, axis] = 1.0
    rays[2 * axis + 1, axis] = -1.0

    def level_at(r):
        return cert.levels(r[:, None] * rays)

    r = np.ones(2 * d)
    grow = level_at(r) <= level  # these double while in; the others halve while out
    active = np.ones(2 * d, dtype=bool)
    for _ in range(BOX_MAX_DOUBLINGS):
        r = np.where(active, np.where(grow, 2.0 * r, r / 2.0), r)
        v = level_at(r)
        active &= np.where(grow, ~(v > level), ~(v <= level) & (r >= 1e-14))
        if not active.any():
            break
    if active.any():
        k = int(np.argmax(active))
        raise PropernessError(
            f"V did not exceed level {level} along axis {k // 2} "
            f"(direction {1 - 2 * (k % 2):+d}) within {BOX_MAX_DOUBLINGS} doublings")
    # a ray's last two radii bracket its boundary
    r_in = np.where(grow, r / 2.0, r)
    r_out = np.where(grow, r, 2.0 * r)
    for _ in range(80):
        mid = 0.5 * (r_in + r_out)
        inside = level_at(mid) <= level
        if (np.where(inside, r_in, r_out) == mid).all():
            break  # no end moves: every later round would repeat this one
        r_in = np.where(inside, mid, r_in)
        r_out = np.where(inside, r_out, mid)
    lo, hi = -r_out[1::2], r_out[0::2]

    # widen to cover sampled sublevel points the rays may have missed
    sob = _SobolStream(d, seed)
    for _ in range(3):
        span_lo = 1.5 * lo
        span_hi = 1.5 * hi
        pts = span_lo + sob.random(BOX_CHECK_POINTS) * (span_hi - span_lo)
        pts = pts[cert.levels(pts) <= level]
        if not (np.any(pts < lo) or np.any(pts > hi)):
            break
        lo = np.minimum(lo, pts.min(axis=0))
        hi = np.maximum(hi, pts.max(axis=0))
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * (1.0 + BOX_INFLATE)
    region = SublevelRegion(anchor=anchor, level=level, lo=center - half, hi=center + half)
    _check_boundary(cert, region, seed)
    return region


def _check_boundary(cert: ClfCertificate, region: SublevelRegion, seed: int):
    """``BOX_CHECK_POINTS`` sampled on the faces of the box must lie outside
    the sublevel set."""
    d = region.dim
    rng = np.random.default_rng(seed)
    pts = region.lo + rng.random((BOX_CHECK_POINTS, d)) * (region.hi - region.lo)
    k = np.arange(BOX_CHECK_POINTS)
    face = k % d
    pts[k, face] = np.where((k // d) % 2 == 0, region.lo[face], region.hi[face])
    n_bad = int(np.count_nonzero(cert.levels(pts) <= region.level))
    if n_bad:
        raise PropernessError(
            f"{n_bad} sampled boundary points of the bounding box lie inside "
            "the sublevel set; the box does not cover it")


def sample_in_region(cert: ClfCertificate, region: SublevelRegion, n: int,
                     seed: int = 0) -> np.ndarray:
    """First ``n`` points of a scrambled Sobol stream over the box that fall
    inside the sublevel set, in stream order.  Prefix-stable: a larger ``n``
    with the same seed extends the smaller sample.

    The stream is :class:`_SobolStream`, drawn in power-of-two batches,
    whose points equal scipy's scrambled Sobol points for the same ``d``
    and ``seed``; ``V`` is evaluated once per batch.  Sampling needs
    ``d <= SOBOL_MAX_DIM`` and ``n >= 1``."""
    if n < 1:
        raise DomainError(f"sampling needs n >= 1, got {n}")
    d = region.dim
    sob = _SobolStream(d, seed)
    accepted = []
    n_accepted = 0
    span = region.hi - region.lo
    batch = 1 << max(6, (max(n, 2) - 1).bit_length())  # power of 2 keeps Sobol balanced
    for _ in range(SAMPLE_MAX_BATCHES):
        pts = region.lo + sob.random(batch) * span
        pts = pts[cert.levels(pts) <= region.level]
        accepted.append(pts)
        n_accepted += len(pts)
        if n_accepted >= n:
            return np.concatenate(accepted)[:n]
    raise DomainError(
        f"could not draw {n} sublevel samples in {SAMPLE_MAX_BATCHES} batches; "
        "the sublevel set occupies too little of its bounding box")


# ---------------------------------------------------------------------------
# Lipschitz-type estimators


def _lipschitz_estimate(map_fn, pts, d: int, seed: int, safety: float,
                        constant: str) -> EstimateReport:
    """Sampled Lipschitz bound of ``map_fn``: the largest spectral norm of
    the finite-difference Jacobians at the points of ``pts``, a sample of
    ``d``-vectors checked once, on entry; its first point is the
    ``argmax_point``.  ``map_fn`` is the frozen field or the gradient: it
    acts on the last axis, maps a ``(k, d)`` batch to ``(k, d)``, and
    checks its result's shape itself.

    A difference quotient over a chord is at most the largest Jacobian norm
    along it, for a locally Lipschitz map, so no pair quotient is taken.
    Nothing random is drawn: ``seed`` names the sample's seed in the report."""
    pts = _as_points(pts, d, "sample")
    n = len(pts)
    if n < 2:
        raise DomainError("Lipschitz estimation needs n >= 2")
    norms = np.linalg.norm(finite_difference_jacobian(map_fn, pts), 2, axis=(1, 2))
    k = int(np.argmax(np.where(np.isnan(norms), -np.inf, norms)))
    best, best_point = (float(norms[k]), pts[k]) if norms[k] > 0.0 else (0.0, pts[0])
    return EstimateReport(constant=constant, value=safety * best, n_samples=n,
                          safety_factor=safety,
                          argmax_point=tuple(best_point.tolist()), seed=seed)


def estimate_kappa(sys: ControlSystem, cert: ClfCertificate, region: SublevelRegion,
                   pts, seed: int = 0, safety: float = DEFAULT_SAFETY) -> EstimateReport:
    """Lipschitz constant of ``x -> F(x, U(anchor))`` over the region, on
    the sample ``pts`` (see :func:`_lipschitz_estimate`); ``seed`` is the
    sample's seed, recorded in the report.

    The control is frozen at the anchor's feedback value throughout, checked
    once, before the first field evaluation; :meth:`ControlSystem.frozen`
    repeats it on every row of each batch of states.
    """
    u_star = _as_vector(cert.u(region.anchor), sys.input_dim, "control")
    return _lipschitz_estimate(sys.frozen(u_star), pts, region.dim, seed, safety,
                               "kappa")


def estimate_nu(cert: ClfCertificate, region: SublevelRegion, pts,
                seed: int = 0, safety: float = DEFAULT_SAFETY) -> EstimateReport:
    """Lipschitz constant of the CLF gradient over the region, on the sample
    ``pts`` (see :func:`_lipschitz_estimate`); ``seed`` is the sample's
    seed, recorded in the report."""
    return _lipschitz_estimate(cert.grad, pts, region.dim, seed, safety, "nu")


def _closed_loop_ratios(sys: ControlSystem, cert: ClfCertificate, xs) -> np.ndarray:
    """The velocity-to-decrease ratio of ``Fbar(x) = F(x, U(x))`` at each
    row of ``xs``, through the checked field: each row brings a new
    feedback control."""
    return velocity_ratio(cert.grad(xs), sys.f(xs, cert.u(xs)))


def estimate_big_m(sys: ControlSystem, cert: ClfCertificate, region: SublevelRegion,
                   pts, seed: int = 0, safety: float = DEFAULT_SAFETY) -> EstimateReport:
    """Bound on ``(|V'||Fbar| + |Fbar|^2) / |V' Fbar|`` over the region, with
    ``Fbar(x) = F(x, U(x))`` the closed-loop field, on the sample ``pts``.

    Beyond the sampled maximum, the ratio is probed along 8 rays (drawn from
    ``seed``) shrinking toward the origin, at 5 scales in one batch;
    monotone growth by more than ``DIVERGENCE_GROWTH`` (or any non-finite
    sample) marks the pair as non-degenerate-violating, reported via
    ``diverging`` rather than raised.  The ``argmax_point`` is the sample
    that last raised the running maximum or last gave a non-finite ratio,
    in sample order."""
    pts = _as_points(pts, region.dim, "sample")
    n = len(pts)
    if n < 1:
        raise DomainError("ratio estimation needs n >= 1")
    skip = EQUILIBRIUM_LEVEL_FRACTION * region.level
    pts = pts[~(cert.levels(pts) < skip)]
    r = _closed_loop_ratios(sys, cert, pts)
    bounded = np.isfinite(r)
    diverging = not bounded.all()
    r = np.where(bounded, r, -np.inf)
    running = np.maximum.accumulate(np.concatenate(([0.0], r)))
    best = float(running[-1])
    marks = np.flatnonzero(~bounded | (r > running[:-1]))
    best_point = pts[marks[-1]] if len(marks) else None

    # ray probe toward the origin: the ratio must stay bounded as |x| -> 0
    rng = np.random.default_rng(seed + 1)
    dirs = rng.standard_normal((8, region.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    scales = np.array([region.box_scale * 10.0 ** (-j) for j in range(2, 7)])
    probes = (scales[:, None, None] * dirs).reshape(-1, region.dim)
    v = cert.levels(probes)
    keep = ~((v > region.level) | (v < 1e-300))
    probe_r = np.zeros(len(probes))
    probe_r[keep] = _closed_loop_ratios(sys, cert, probes[keep])
    # a NaN ratio never raises a scale's running max()
    probe_r = np.where(np.isnan(probe_r), 0.0, probe_r)
    per_scale = probe_r.reshape(len(scales), len(dirs)).max(axis=1).tolist()
    finite = [r for r in per_scale if math.isfinite(r) and r > 0]
    if any(not math.isfinite(r) for r in per_scale):
        diverging = True
    elif len(finite) == len(per_scale):
        increasing = all(b >= a for a, b in zip(finite, finite[1:]))
        if increasing and finite[-1] > DIVERGENCE_GROWTH * finite[0]:
            diverging = True
    if finite:
        best = max(best, max(finite))

    return EstimateReport(
        constant="big_m", value=safety * best, n_samples=n, safety_factor=safety,
        argmax_point=tuple(best_point.tolist()) if best_point is not None else None,
        seed=seed, diverging=diverging)


def estimate_rho(cert: ClfCertificate, level: float) -> float:
    """Max over ``[0, level]`` of ``max(0, -gamma'(v))``: the penalty a
    decreasing stretch of the rate inflicts on the dwell time.

    Non-decreasing rates return 0 exactly.  Rates that are neither flagged
    non-decreasing nor differentiable are rejected: the dwell-time formulas
    need one of the two.  At level 0 the grid collapses to ``v = 0``.
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
    """Estimate every constant on one region, κ, ν and M on one sample.

    Returns ``(CertificateConstants, {name: EstimateReport})``.  Raises
    :class:`NonDegeneracyError` when the ratio bound diverges, unless
    ``allow_degenerate`` is set (then the caller inspects the reports).
    """
    pts = sample_in_region(cert, region, n, seed=seed)
    rep_k = estimate_kappa(sys, cert, region, pts, seed=seed, safety=safety)
    rep_n = estimate_nu(cert, region, pts, seed=seed, safety=safety)
    rep_m = estimate_big_m(sys, cert, region, pts, seed=seed, safety=safety)
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
