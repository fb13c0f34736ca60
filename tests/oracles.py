"""Independent numerical oracles used by the tests.

Everything here is deliberately written without touching the package's
integration or estimation code paths, so that comparisons are genuine
two-route checks: Taylor matrix exponential for affine flows, dense-grid
maximization for Lipschitz constants and velocity-to-decrease ratios.  The
one exception is :func:`periodic_checks_reference`, the periodic loop
check by check on the package's own integrator, which the engine's scan of
the frozen flow must match instant for instant.
"""

import numpy as np

from clfetc import integrate_frozen, predicate_p
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
