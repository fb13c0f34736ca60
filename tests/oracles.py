"""Independent numerical oracles used by the tests.

Everything here is deliberately written without touching the package's
integration or estimation code paths, so that comparisons are genuine
two-route checks: Taylor matrix exponential for affine flows, dense-grid
maximization for Lipschitz constants and velocity-to-decrease ratios, and
closed forms of the sampled constants on homog2d and acc.  Two exceptions:
:func:`periodic_checks_reference`, the periodic loop check by check on the
package's own integrator, which the engine's scan of the frozen flow must
match instant for instant; and the per-point audit loops (the ``*_reference``
functions below :func:`grid_ratio_max`), which call the models one state at
a time on the package's Sobol stream, and which the batched audits must
match bit for bit.  :func:`locate_event_reference` keeps the engine's former
bisection, against which the Illinois localization is compared, and
:func:`frozen_guard_reference` and :func:`predicate_margin_reference` keep
the one-state reads of the guard and the margin, which the batched reads
must match bit for bit, and :func:`rate_excess_reference` the row loop of
the rate certificate's check.  :func:`ivp_event_times` is the second route
to the event times of every model: scipy's ``solve_ivp``, which shares only
the model and certificate code with the engine.
"""

import math

import numpy as np

from clfetc import integrate_frozen, predicate_p
from clfetc.certificates import (BOX_CHECK_POINTS, BOX_INFLATE, BOX_MAX_DOUBLINGS,
                                 DIVERGENCE_GROWTH, EQUILIBRIUM_LEVEL_FRACTION,
                                 SAMPLE_MAX_BATCHES, EstimateReport,
                                 SublevelRegion, _SobolStream)
from clfetc.core import (CLF_CHECK_REL_TOL, EQ_ABS_FLOOR, FD_SCALE, ClfCheckReport,
                         _as_points, _as_vector)
from clfetc.engine import ZENO_CONSECUTIVE
from clfetc.errors import DimensionMismatchError, DomainError, PropernessError
from clfetc.triggers import equilibrium_threshold


def expm_taylor(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor series."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    b = a / (2.0 ** s)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 40):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def affine_flow(a: np.ndarray, c: np.ndarray, x0: np.ndarray, t: float) -> np.ndarray:
    """Exact solution of ``xdot = A x + c`` via the augmented exponential."""
    n = x0.size
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = a
    aug[:n, n] = c
    phi = expm_taylor(aug * t)
    return phi[:n, :n] @ x0 + phi[:n, n]


def acc_frozen_matrices(k: float, tau: float, u: float):
    """State matrix and offset of the cruise-control model with the input
    frozen at ``u`` (constant lag)."""
    a = np.array([
        [-k, 1.0, 0.0],
        [0.0, -k, 1.0],
        [k ** 3 - k ** 2 / tau, -3.0 * k ** 2 + 2.0 * k / tau, 2.0 * k - 1.0 / tau],
    ])
    c = np.array([0.0, 0.0, -u / tau])
    return a, c


def acc_periodic_checks(model, policy, x0, horizon):
    """Periodic event-triggered acc run on the exact recurrence
    ``x_{k+1} = Phi(h) x_k + psi(h) u``, with ``predicate_p`` at every grid
    point ``(k+1)*h`` and the engine's equilibrium rule.

    Returns ``(fired, termination)``: the grid indices of the fired updates,
    and ``"equilibrium"`` or ``"horizon"``.
    """
    cert = model.certificate
    k_gain, tau = model.params["k"], model.params["tau_lag"]
    a, c_unit = acc_frozen_matrices(k_gain, tau, 1.0)
    aug = np.zeros((4, 4))
    aug[:3, :3] = a
    aug[:3, 3] = c_unit
    step = expm_taylor(aug * policy.h)
    phi, psi = step[:3, :3], step[:3, 3]
    x = np.asarray(x0, dtype=float)
    eps_eq = equilibrium_threshold(cert.v(x))
    u = float(cert.u(x)[0])
    fired, k = [], 0
    while (k + 1) * policy.h <= horizon * (1.0 + 1e-12):
        k += 1
        x = phi @ x + psi * u
        fx = a @ x + c_unit * u
        if predicate_p(cert, policy.big_m, x, fx, policy.sigma_tilde,
                       policy.k_big):
            continue
        fired.append(k)
        if cert.v(x) <= eps_eq:
            return fired, "equilibrium"
        u = float(cert.u(x)[0])
    return fired, "horizon"


def acc_event_times(model, x0, horizon, sigma, max_events=1_000_000,
                    scan_step=0.01):
    """Event-triggered acc run on the exact affine flow, with the engine's
    equilibrium rule and event cap (no Zeno or blow-up rule).

    With the input frozen at ``u`` the loop is ``xdot = f = A x + c u`` and
    the guard ``W + sigma*gamma(V)`` is ``g = x.f + s|x|^2`` with
    ``s = sigma*(k - 1)``.  Each update scans a grid of ``scan_step`` from
    its time, stepping the state with the one-step propagator of the
    augmented matrix exponential.  Since ``fdot = A f``, over a span of
    length ``h`` from ``(x, f)`` we have ``|f| <= F = exp(|A| h)|f|`` and
    ``|x| <= X = |x| + h F``, so ``|gdot| = |f.f + x.A f + 2s x.f|`` is at
    most ``L = F (F + (|A| + 2s) X)``.  On a span with ``g < 0`` at both
    ends, ``g <= (g_a + g_b + L h)/2`` throughout, so a span where that is
    negative holds no root.  Any other span is halved, left half first, down
    to time resolution: the update lands on the earliest resolvable time
    with ``g >= 0``, the guard-nonnegative end that ``locate_event`` returns.
    A guard that grazes zero cannot be resolved this way and raises
    :class:`DomainError` after ``100_000`` guard reads in one segment.

    Returns ``(times, states, termination)`` of every update, the initial
    sample included; ``termination`` is ``"equilibrium"``, ``"event_cap"``
    or ``"horizon"``.
    """
    cert = model.certificate
    k_gain, tau = model.params["k"], model.params["tau_lag"]
    a, c_unit = acc_frozen_matrices(k_gain, tau, 1.0)
    s = sigma * (k_gain - 1.0)
    norm_a = float(np.linalg.norm(a, 2))
    aug = np.zeros((4, 4))
    aug[:3, :3] = a
    aug[:3, 3] = c_unit
    propagators = {}
    reads = 0

    def advance(x, u, h):
        if h not in propagators:
            step = expm_taylor(aug * h)
            propagators[h] = (step[:3, :3], step[:3, 3])
        phi, psi = propagators[h]
        x1 = phi @ x + psi * u
        f1 = a @ x1 + c_unit * u
        return x1, float(x1 @ f1) + s * float(x1 @ x1), f1

    def earliest(t, x, g, f, h, u):
        """``(hit, t_b, x_b, g_b, f_b)``: the earliest time in ``(t, t + h]``
        with ``g >= 0`` and its state when ``hit``, else the span's end."""
        nonlocal reads
        reads += 1
        if reads > 100_000:
            raise DomainError(f"the guard grazes zero near t={t}")
        x1, g1, f1 = advance(x, u, h)
        if g1 < 0.0:
            big_f = math.exp(norm_a * h) * float(np.linalg.norm(f))
            big_x = float(np.linalg.norm(x)) + h * big_f
            if g + g1 + h * big_f * (big_f + (norm_a + 2.0 * s) * big_x) < 0.0:
                return False, t + h, x1, g1, f1
        if not t < t + 0.5 * h < t + h:  # the span is at time resolution
            return g1 >= 0.0, t + h, x1, g1, f1
        left = earliest(t, x, g, f, 0.5 * h, u)
        return left if left[0] else earliest(*left[1:], 0.5 * h, u)

    x = np.asarray(x0, dtype=float)
    eps_eq = equilibrium_threshold(cert.v(x))
    u = float(cert.u(x)[0])
    times, states = [0.0], [x]
    t = 0.0
    while t < horizon and len(times) < max_events:
        f = a @ x + c_unit * u
        g = float(x @ f) + s * float(x @ x)
        hit = g >= 0.0  # a guard non-negative at the update fires at once
        reads = 0
        while not hit and t < horizon:
            hit, t, x, g, f = earliest(t, x, g, f, min(scan_step, horizon - t), u)
        if not hit:
            break
        times.append(t)
        states.append(x)
        if cert.v(x) <= eps_eq:
            return times, states, "equilibrium"
        u = float(cert.u(x)[0])
    return times, states, "event_cap" if len(times) >= max_events else "horizon"


def ivp_event_times(model, x0, horizon, sigma, max_events=1_000_000,
                    zeno_floor=None, rtol=1e-13, atol=1e-16):
    """Event-triggered run on a second route: scipy's
    ``solve_ivp(method="DOP853")`` with the guard ``W + sigma*gamma(V)``
    under the frozen control as a terminal, rising event, restarted at each
    event with the control there, and the engine's rules for what happens
    at an update: a guard at or above zero fires at once, the equilibrium
    rule, the event cap and, with ``zeno_floor``, the Zeno rule
    (``ZENO_CONSECUTIVE`` dwells in a row below the floor abort the run).

    It shares the model and certificate code with the engine, and none of
    its stepper, interpolant, probes, localization or corrector.  It is a
    second route, not a proof: ``solve_ivp`` also sees a sign change only
    between the ends of its own steps, so a crossing and its return inside
    one of them are missed.  Where the two routes disagree, a third check
    decides: this route at tighter tolerances, or the exact flow on acc
    (:func:`acc_event_times`).

    Returns ``(times, states, termination)`` of every update, the initial
    sample included; ``termination`` is ``"equilibrium"``, ``"event_cap"``,
    ``"zeno_abort"`` or ``"horizon"``.
    """
    from scipy.integrate import solve_ivp

    system, cert = model.system, model.certificate

    def guard(x, u):
        return float(cert.grad(x) @ system.f(x, u)
                     + sigma * cert.rate.at_levels(cert.levels(x)))

    x = np.asarray(x0, dtype=float)
    eps_eq = equilibrium_threshold(cert.v(x))
    u = cert.u(x)
    times, states, zeno_run = [0.0], [x], 0
    t = 0.0
    while t < horizon and len(times) < max_events:
        if guard(x, u) < 0.0:  # a guard at or above zero fires at once
            def event(_, y):
                return guard(y, u)

            event.terminal, event.direction = True, 1.0
            sol = solve_ivp(lambda _, y: system.f(y, u), (t, horizon), x,
                            method="DOP853", rtol=rtol, atol=atol, events=event)
            if not sol.t_events[0].size:
                break
            t_event = float(sol.t_events[0][0])
            dwell, t, x = t_event - t, t_event, sol.y_events[0][0]
        else:
            dwell = 0.0
        times.append(t)
        states.append(x)
        if cert.v(x) <= eps_eq:
            return times, states, "equilibrium"
        u = cert.u(x)
        zeno_run = zeno_run + 1 if zeno_floor and dwell < zeno_floor else 0
        if zeno_run >= ZENO_CONSECUTIVE:
            return times, states, "zeno_abort"
    return times, states, "event_cap" if len(times) >= max_events else "horizon"


def locate_event_reference(guard, a, b, ga=None, gb=None):
    """Earliest zero of a scalar guard on [a, b] by bisection.

    Requires ``guard(a) < 0 <= guard(b)``; converges to floating-point time
    resolution and returns the guard-nonnegative endpoint.
    """
    ga = guard(a) if ga is None else ga
    gb = guard(b) if gb is None else gb
    if not (ga < 0.0 <= gb):
        raise DomainError(f"bracket does not straddle the event surface: "
                          f"g({a})={ga}, g({b})={gb}")
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if guard(mid) >= 0.0:
            b = mid
        else:
            a = mid
    return b


def frozen_guard_reference(cert, x, fx, sigma):
    """The event guard at one state, as the engine read it before its
    probes were batched: Python floats and the scalar rate."""
    return float(cert.grad(x) @ fx) + sigma * cert.rate(cert.v(x))


def predicate_margin_reference(cert, big_m, x, fx, sigma_tilde, k_big):
    """The periodic predicate's margin at one state, in the same way."""
    g = cert.grad(x)
    w = float(g @ fx)
    fn = float(np.linalg.norm(fx))
    return max(w + sigma_tilde * cert.rate(cert.v(x)),
               float(np.linalg.norm(g)) * fn + fn ** 2 - k_big * big_m * abs(w))


def rate_excess_reference(v, bound):
    """The largest ``V - bound`` over the recorded rows, as the engine found
    it row by row before the check became one array pass: a running
    ``max()`` from -inf, which a NaN row leaves as it is."""
    worst = -math.inf
    for vi, bi in zip(v, bound):
        worst = max(worst, float(vi) - float(bi))
    return worst


def periodic_checks_reference(sys, cert, policy, x0, config):
    """The periodic event-triggered loop check by check: ``integrate_frozen``
    from each check to ``(k+1)*h``, then ``predicate_p`` there, with the
    engine's equilibrium rule and event cap (no Zeno or blow-up rule).

    Returns ``(times, states, termination)`` of every update, the initial
    sample included.
    """
    horizon = config.horizon
    x = np.asarray(x0, dtype=float)
    eps_eq = equilibrium_threshold(cert.v(x))
    u = cert.u(x)
    times, states = [0.0], [x]
    t, k = 0.0, 0
    while t < horizon:
        t_next = (k + 1) * policy.h
        if t_next > horizon * (1.0 + 1e-12):
            break
        k += 1
        t_next = min(t_next, horizon)
        x = integrate_frozen(sys, x, u, (t, t_next), config).ys[-1]
        t = t_next
        if predicate_p(cert, policy.big_m, x, sys.f(x, u), policy.sigma_tilde,
                       policy.k_big):
            continue
        times.append(t)
        states.append(x)
        if cert.v(x) <= eps_eq:
            return times, states, "equilibrium"
        if len(times) >= config.max_events:
            return times, states, "event_cap"
        u = cert.u(x)
    return times, states, "horizon"


def grid_pairwise_lipschitz(map_fn, lo, hi, n_side: int, keep=None) -> float:
    """Brute-force max of ``|f(x1)-f(x2)|/|x1-x2|`` over a dense grid,
    optionally filtered to ``keep(x)`` (e.g. membership in a sublevel set)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    axes = [np.linspace(lo[i], hi[i], n_side) for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    if keep is not None:
        pts = np.array([p for p in pts if keep(p)])
    vals = np.array([np.atleast_1d(map_fn(p)) for p in pts])
    best = 0.0
    for i in range(len(pts)):
        dx = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
        dv = np.linalg.norm(vals[i + 1:] - vals[i], axis=1)
        mask = dx > 0
        if mask.any():
            best = max(best, float(np.max(dv[mask] / dx[mask])))
    return best


def grid_ratio_max(sys, cert, pts) -> float:
    """Dense-sample max of ``(|V'||Fbar| + |Fbar|^2)/|V' Fbar|``."""
    best = 0.0
    for p in pts:
        g = cert.grad(p)
        fbar = sys.f(p, cert.u(p))
        w = float(g @ fbar)
        if w == 0.0:
            continue
        num = np.linalg.norm(g) * np.linalg.norm(fbar) + np.linalg.norm(fbar) ** 2
        best = max(best, float(num / abs(w)))
    return best


# ---------------------------------------------------------------------------
# lower ends of the sampled constants on homog2d and acc: each is a value
# the true supremum over the sublevel set reaches or exceeds


def homog2d_kappa_lower(level: float, n_angles: int = 20_000) -> float:
    """Largest spectral norm of the frozen homog2d field's Jacobian on a
    grid of the boundary circle of ``{|x|^2/2 <= level}``.  The Jacobian
    ``[[-3 x1^2 + x2^2, 2 x1 x2], [x2^2 - 2 x1 x2, 2 x1 x2 - x1^2]]`` does not
    depend on the held control and is homogeneous of degree 2, so its
    largest norm over the disk lies on the circle."""
    radius = math.sqrt(2.0 * level)
    theta = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    x1, x2 = radius * np.cos(theta), radius * np.sin(theta)
    jac = np.empty((n_angles, 2, 2))
    jac[:, 0, 0] = -3.0 * x1 * x1 + x2 * x2
    jac[:, 0, 1] = 2.0 * x1 * x2
    jac[:, 1, 0] = x2 * x2 - 2.0 * x1 * x2
    jac[:, 1, 1] = 2.0 * x1 * x2 - x1 * x1
    return float(np.max(np.linalg.norm(jac, 2, axis=(1, 2))))


def _ratio(x, fbar):
    """``(|x||Fbar| + |Fbar|^2) / |x . Fbar|`` row by row (``grad V = x``)."""
    nx = np.linalg.norm(x, axis=1)
    nf = np.linalg.norm(fbar, axis=1)
    return (nx * nf + nf * nf) / np.abs(np.sum(x * fbar, axis=1))


def homog2d_big_m_lower(level: float, n_angles: int = 20_000) -> float:
    """The ratio behind M on a grid of the boundary circle.  With
    ``U(x) = -x2^3 - x1 x2^2`` the closed loop is
    ``Fbar = (-x1^3 + x1 x2^2, -x2^3 - x1^2 x2)``, cubic, and
    ``W = -(x1^4 + x2^4)``; so the ratio is ``a(theta) + r^2 b(theta)`` with
    ``b >= 0``, largest on the circle."""
    radius = math.sqrt(2.0 * level)
    theta = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    x = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    x1, x2 = x[:, 0], x[:, 1]
    fbar = np.stack([-x1 ** 3 + x1 * x2 ** 2, -x2 ** 3 - x1 ** 2 * x2], axis=1)
    return float(np.max(_ratio(x, fbar)))


def acc_closed_loop_matrix(k: float, tau: float) -> np.ndarray:
    """The acc closed loop ``Fbar(x) = A x + c U(x)``, with the linear
    feedback ``U(x) = K x`` of the model's printed law, as one matrix."""
    a, c_unit = acc_frozen_matrices(k, tau, 1.0)
    gain = np.array([
        -tau * k ** 3 - (1.0 - 2.0 * k * tau) * k ** 2 - tau,
        tau * k ** 2 + 2.0 * k * (1.0 - 2.0 * k * tau),
        -(1.0 - 2.0 * k * tau) + tau * k,
    ])
    return a + np.outer(c_unit, gain)


def acc_big_m_lower(k: float, tau: float, n_points: int = 200_000) -> float:
    """The ratio behind M on a Fibonacci grid of the unit sphere.  The
    closed loop is linear and ``V = |x|^2/2``, so the ratio is homogeneous
    of degree 0: its supremum over the sublevel set is its supremum over
    the sphere."""
    i = np.arange(n_points) + 0.5
    z = 1.0 - 2.0 * i / n_points
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    rho = np.sqrt(1.0 - z * z)
    x = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    return float(np.max(_ratio(x, x @ acc_closed_loop_matrix(k, tau).T)))


# ---------------------------------------------------------------------------
# the audits point by point: the loops the batched audits replaced, kept as
# their reference.  They evaluate the models one state at a time.


def bound_sublevel_box_reference(cert, anchor, seed=0):
    anchor = np.asarray(anchor, dtype=float)
    level = cert.v(anchor)
    if not level > 0.0:
        raise DomainError(f"the sublevel region needs an anchor with level > 0, got {level}")
    d = anchor.size
    lo = np.zeros(d)
    hi = np.zeros(d)
    for i in range(d):
        for sign, store in ((1.0, hi), (-1.0, lo)):
            e = np.zeros(d)
            e[i] = sign
            r = 1.0
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
    sob = _SobolStream(d, seed)
    for _ in range(3):
        span_lo = 1.5 * lo
        span_hi = 1.5 * hi
        pts = span_lo + sob.random(BOX_CHECK_POINTS) * (span_hi - span_lo)
        grew = False
        for p in pts:
            if cert.v(p) <= level:
                if (p < lo).any() or (p > hi).any():
                    lo = np.minimum(lo, p)
                    hi = np.maximum(hi, p)
                    grew = True
        if not grew:
            break
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * (1.0 + BOX_INFLATE)
    region = SublevelRegion(anchor=anchor, level=level, lo=center - half, hi=center + half)
    rng = np.random.default_rng(seed)
    pts = region.lo + rng.random((BOX_CHECK_POINTS, d)) * (region.hi - region.lo)
    for k in range(BOX_CHECK_POINTS):
        i = k % d
        pts[k, i] = region.lo[i] if (k // d) % 2 == 0 else region.hi[i]
    bad = [p for p in pts if cert.v(p) <= region.level]
    if bad:
        raise PropernessError(
            f"{len(bad)} sampled boundary points of the bounding box lie inside "
            "the sublevel set; the box does not cover it")
    return region


def sample_in_region_reference(cert, region, n, seed=0):
    sob = _SobolStream(region.dim, seed)
    accepted = []
    span = region.hi - region.lo
    batch = 1 << max(6, (max(n, 2) - 1).bit_length())
    for _ in range(SAMPLE_MAX_BATCHES):
        pts = region.lo + sob.random(batch) * span
        for p in pts:
            if cert.v(p) <= region.level:
                accepted.append(p)
                if len(accepted) == n:
                    return np.array(accepted)
    raise DomainError(f"could not draw {n} sublevel samples")


def finite_difference_jacobian_reference(f, x):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = FD_SCALE * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=1)


def lipschitz_reference(map_fn, cert, region, n, seed, safety, constant):
    """The per-point loop that ``_lipschitz_estimate`` replaced, with its
    three candidate families: quotients over pairs of the sample, over
    perturbations of each point, and Jacobian norms.  It keeps the first
    two, which the estimator no longer takes, so that the batched estimator
    is still compared bit for bit with the one that took all three."""
    pts = sample_in_region_reference(cert, region, n, seed=seed)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, region.dim))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0] = 1.0
    dirs /= norms[:, None]
    best = 0.0
    best_point = pts[0]
    vals = [np.asarray(map_fn(p), dtype=float) for p in pts]
    if vals[0].shape != (region.dim,):
        raise DimensionMismatchError(f"the map behind {constant} returned shape {vals[0].shape}")

    def consider(quotient, point):
        nonlocal best, best_point
        if quotient > best:
            best = quotient
            best_point = point

    for i in range(0, n - 1, 2):
        dx = np.linalg.norm(pts[i + 1] - pts[i])
        if dx > 0:
            consider(np.linalg.norm(vals[i + 1] - vals[i]) / dx, pts[i])
    for eps in (1e-4, 1e-2):
        step = eps * region.box_scale
        for i in range(n):
            q = pts[i] + step * dirs[i]
            if cert.v(q) > region.level:
                continue
            fv = np.asarray(map_fn(q), dtype=float)
            consider(np.linalg.norm(fv - vals[i]) / step, pts[i])
    for i in range(n):
        jac = finite_difference_jacobian_reference(map_fn, pts[i])
        consider(float(np.linalg.norm(jac, 2)), pts[i])
    return EstimateReport(constant=constant, value=safety * best, n_samples=n,
                          safety_factor=safety,
                          argmax_point=tuple(float(c) for c in best_point), seed=seed)


def dropped_lipschitz_candidates(map_fn, cert, region, pts, seed):
    """The largest candidate of the two families that ``_lipschitz_estimate``
    no longer takes, before the safety factor, computed as it computed them:
    quotients over independent pairs of the sample ``pts``, and over the
    perturbations of each point by 1e-4 and 1e-2 of the box along unit
    directions drawn from ``standard_normal`` with ``seed``, where the
    perturbed point stays in the sublevel set."""
    n, d = pts.shape
    dirs = np.random.default_rng(seed).standard_normal((n, d))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0] = 1.0
    dirs /= norms[:, None]
    vals = np.asarray(map_fn(pts), dtype=float)
    dx = np.linalg.norm(pts[1::2] - pts[:n - 1:2], axis=1)
    df = np.linalg.norm(vals[1::2] - vals[:n - 1:2], axis=1)
    quotients = [df[dx > 0] / dx[dx > 0]]
    for eps in (1e-4, 1e-2):
        step = eps * region.box_scale
        q = pts + step * dirs
        keep = ~(cert.levels(q) > region.level)
        fq = np.asarray(map_fn(q[keep]), dtype=float)
        quotients.append(np.linalg.norm(fq - vals[keep], axis=1) / step)
    return float(np.max(np.concatenate(quotients)))


def kappa_reference(sys, cert, region, n, seed=0, safety=1.25):
    u_star = _as_vector(cert.u(region.anchor), sys.input_dim, "control")
    return lipschitz_reference(sys.frozen(u_star), cert, region, n, seed, safety, "kappa")


def nu_reference(cert, region, n, seed=0, safety=1.25):
    return lipschitz_reference(cert.grad, cert, region, n, seed, safety, "nu")


def _velocity_ratio_reference(g, fx):
    w = float(g @ fx)
    fn = float(np.linalg.norm(fx))
    num = float(np.linalg.norm(g)) * fn + fn ** 2
    if w == 0.0:
        return math.inf if num > 0.0 else 0.0
    return num / abs(w)


def big_m_reference(sys, cert, region, n, seed=0, safety=1.25):
    def ratio_at(x):
        return _velocity_ratio_reference(cert.grad(x), sys.f(x, cert.u(x)))

    pts = sample_in_region_reference(cert, region, n, seed=seed)
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
    rng = np.random.default_rng(seed + 1)
    dirs = rng.standard_normal((8, region.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    per_scale = []
    for s in [region.box_scale * 10.0 ** (-j) for j in range(2, 7)]:
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


def verify_clf_reference(cert, sys, samples):
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
    return ClfCheckReport(n_samples=len(samples), n_skipped=n_skipped,
                          violations=tuple(violations), worst_margin=float(worst))
