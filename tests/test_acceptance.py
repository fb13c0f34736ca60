"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing a PASS line when it holds (run ``pytest tests/test_acceptance.py -v -s``
to see the lines as they go).

Criteria 3 and 4 share one batch of closed-loop runs across both
assumption-satisfying models and all four policies, with periods and
check intervals taken from the dwell-bound estimates.  Horizons of the
clock-driven policies are capped at a fixed number of control updates:
the theoretical bounds are several orders more conservative than observed
inter-event times, so uncapped horizons would mean millions of segments
without changing what is being verified (every recorded point must satisfy
the rate certificate regardless of the horizon).
"""

import math
import time as _time

import numpy as np
import pytest

from clfetc import (DwellInputs, EventTriggered, IntegratorConfig,
                    PeriodicEventTriggered, SelfTriggered, TimeTriggered,
                    acc_backstepping, admissible_period, bound_sublevel_box,
                    c_bound, check_rate_certificate, estimate_constants,
                    frozen_guard, homogeneous_planar, integrate_frozen,
                    predicate_p, relay_1d, run_closed_loop, run_stats,
                    tau_min_over_sublevel, tau_select, tau0_select,
                    zeno_first_event_bound, zeno_polar)
from clfetc.cli import main as cli_main
from clfetc.core import EnergyTimeMap, RateFunction
from oracles import acc_frozen_matrices, affine_flow

SIGMA = 0.9
SIGMA_TILDE = 0.95
K_BIG = 2.0
SEGMENT_BUDGET = 600  # control updates per clock-driven property run


def _passline(tag, detail=""):
    print(f"{tag}: PASS {detail}".rstrip())


# ---------------------------------------------------------------------------
# criterion 1: homogeneous planar reproduction


def test_accept_01_homogeneous_planar_reproduction():
    start = _time.perf_counter()
    matched = None
    results = {}
    for scale, label in ((1.0, "v^2"), (0.5, "v^2/2")):
        model = homogeneous_planar(rate_scale=scale)
        cfg = IntegratorConfig(horizon=200.0)
        traj = run_closed_loop(model.system, model.certificate,
                               EventTriggered(sigma=SIGMA), [0.1, 0.4], cfg)
        t1 = traj.events[1].time if len(traj.events) > 1 else None
        u1 = abs(float(traj.events[1].control[0])) if len(traj.events) > 1 else None
        results[label] = (len(traj.events), t1, u1)
        if (len(traj.events) == 2 and t1 is not None
                and abs(t1 - 5.26) <= 0.30 and 1e-7 <= u1 <= 3e-6):
            matched = label
            break
    elapsed = _time.perf_counter() - start
    assert matched is not None, f"neither rate variant reproduced the run: {results}"
    n_events, t1, u1 = results[matched]
    assert n_events == 2
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _passline("ACCEPT-01", f"(rate variant {matched}: t1={t1:.4f}, "
                           f"|u|={u1:.3g}, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 2: cruise-control reproduction, both cases


@pytest.mark.parametrize("case,x0,first,first_tol,maxd,maxd_tol,mind,mind_tol,freq,freq_tol", [
    ("case1", [10.0, 10.1, 10.201], 14.1, 1.5, 6.38, 0.7, 0.05, 0.03, 3.2, 0.6),
    ("case2", [0.0, -2.0, -4.04], 1.5, 0.3, 8.6, 0.9, 0.04, 0.03, 3.6, 0.6),
])
def test_accept_02_acc_reproduction(case, x0, first, first_tol, maxd, maxd_tol,
                                    mind, mind_tol, freq, freq_tol):
    start = _time.perf_counter()
    model = acc_backstepping(k=1.01, tau_lag=0.3)
    cfg = IntegratorConfig(horizon=60.0)
    traj = run_closed_loop(model.system, model.certificate,
                           EventTriggered(sigma=SIGMA), x0, cfg)
    elapsed = _time.perf_counter() - start
    st = run_stats(traj)
    assert st.first_event_time == pytest.approx(first, abs=first_tol)
    assert st.max_dwell_post_first == pytest.approx(maxd, abs=maxd_tol)
    assert st.min_dwell == pytest.approx(mind, abs=mind_tol)
    assert st.mean_event_frequency == pytest.approx(freq, abs=freq_tol)
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    _passline("ACCEPT-02", f"({case}: first={st.first_event_time:.2f}s, "
              f"max={st.max_dwell_post_first:.2f}s, min={st.min_dwell:.3f}s, "
              f"freq={st.mean_event_frequency:.2f}Hz, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criteria 3 & 4: shared property-run batch


@pytest.fixture(scope="module")
def property_runs():
    runs = []
    specs = [
        ("acc", acc_backstepping(), 12.0, lambda r: r.uniform(-8, 8, 3)),
        ("homog2d", homogeneous_planar(), 40.0, lambda r: r.uniform(-0.6, 0.6, 2)),
    ]
    for name, model, event_horizon, draw in specs:
        cert, sysm = model.certificate, model.system
        for seed in range(7):
            rng = np.random.default_rng(1000 + seed)
            x0 = draw(rng)
            if np.linalg.norm(x0) < 0.05:
                x0 = x0 + 0.1
            region = bound_sublevel_box(cert, x0, seed=seed)
            constants, _ = estimate_constants(sysm, cert, region, n=128, seed=seed)
            tau_min = tau_min_over_sublevel(cert, region, constants,
                                            SIGMA).value
            tau0_min = tau_min_over_sublevel(
                cert, region, constants, SIGMA,
                sigma_tilde=SIGMA_TILDE, k_big=K_BIG).value
            tau_anchor = tau_select(DwellInputs(
                constants=constants, sigma=SIGMA,
                gamma_mode="nondecreasing")).value
            h = admissible_period(tau0_min)
            policies = {
                "event": (EventTriggered(sigma=SIGMA), event_horizon),
                "self": (SelfTriggered(sigma=SIGMA, tau=tau_anchor),
                         SEGMENT_BUDGET * tau_anchor),
                "time": (TimeTriggered(sigma=SIGMA, period=tau_min),
                         SEGMENT_BUDGET * tau_min),
                "periodic-event": (PeriodicEventTriggered(
                    sigma=SIGMA, sigma_tilde=SIGMA_TILDE, k_big=K_BIG, h=h,
                    big_m=constants.big_m), SEGMENT_BUDGET * h),
            }
            for pol_name, (pol, horizon) in policies.items():
                cfg = IntegratorConfig(horizon=horizon, output_points=301)
                traj = run_closed_loop(sysm, cert, pol, x0, cfg)
                runs.append({
                    "model": name, "policy": pol_name, "seed": seed,
                    "traj": traj, "tau_min": tau_min,
                })
    assert len(runs) >= 50
    return runs


def test_accept_03_rate_certificate(property_runs):
    failures = []
    for run in property_runs:
        ok, excess = check_rate_certificate(run["traj"])
        if not ok:
            failures.append((run["model"], run["policy"], run["seed"], excess))
    assert not failures, f"rate certificate violated on: {failures}"
    _passline("ACCEPT-03", f"({len(property_runs)} runs, all points within "
                           f"the level envelope)")


def test_accept_04_dwell_soundness(property_runs):
    checked = 0
    failures = []
    for run in property_runs:
        dwells = [e.dwell for e in run["traj"].events[1:]]
        if not dwells:
            continue
        checked += 1
        if min(dwells) < run["tau_min"] * (1 - 1e-12):
            failures.append((run["model"], run["policy"], run["seed"],
                             min(dwells), run["tau_min"]))
    assert not failures, f"dwell bound violated on: {failures}"
    assert checked >= 20
    _passline("ACCEPT-04", f"({checked} runs with events, zero dwell-bound "
                           f"violations)")


# ---------------------------------------------------------------------------
# criterion 5: flow checks behind the dwell lemmas


def _anchor_batch(model, n, seed, spread):
    rng = np.random.default_rng(seed)
    d = model.system.state_dim
    anchors = rng.uniform(-spread, spread, size=(n, d))
    anchors = anchors[np.linalg.norm(anchors, axis=1) > 0.02 * spread]
    return anchors[:n]


@pytest.mark.parametrize("factory,spread", [
    (acc_backstepping, 6.0), (homogeneous_planar, 0.6)])
def test_accept_05_guard_holds_below_dwell_bounds(factory, spread):
    model = factory()
    cert, sysm = model.certificate, model.system
    anchors = _anchor_batch(model, 100, seed=7, spread=spread)
    # one conservative constants set over the largest sampled region keeps
    # every per-anchor bound valid (suprema over subsets are smaller)
    top = anchors[int(np.argmax([cert.v(a) for a in anchors]))]
    region = bound_sublevel_box(cert, top, seed=7)
    constants, _ = estimate_constants(sysm, cert, region, n=128, seed=7)
    inp = DwellInputs(constants=constants, sigma=SIGMA,
                      sigma_tilde=SIGMA_TILDE, k_big=K_BIG,
                      gamma_mode="nondecreasing")
    tau = tau_select(inp).value
    tau0 = tau0_select(inp).value
    cfg = IntegratorConfig(horizon=max(tau, tau0) * 2)

    same_anchor_viol = 0
    perturbed_viol = 0
    perturbed_checked = 0
    rng = np.random.default_rng(11)
    for x_star in anchors:
        u_star = cert.u(x_star)
        seg = integrate_frozen(sysm, x_star, u_star, (0.0, tau), cfg)
        for j in range(64):
            t = tau * j / 64.0
            xi = seg.eval(t)
            if not frozen_guard(cert, xi, sysm.f(xi, u_star), SIGMA) < 0.0:
                same_anchor_viol += 1
        # perturbed start inside the anchor's sublevel set with the
        # periodic predicate true
        for _ in range(8):
            x_bar = x_star * (1.0 - 0.05 * rng.random()) + \
                0.01 * np.linalg.norm(x_star) * rng.standard_normal(x_star.size)
            if cert.v(x_bar) <= cert.v(x_star) and predicate_p(
                    cert, constants.big_m, x_bar, sysm.f(x_bar, u_star),
                    SIGMA_TILDE, K_BIG):
                break
        else:
            continue
        perturbed_checked += 1
        seg = integrate_frozen(sysm, x_bar, u_star, (0.0, tau0), cfg)
        for j in range(64):
            t = tau0 * j / 64.0
            xi = seg.eval(t)
            if not frozen_guard(cert, xi, sysm.f(xi, u_star), SIGMA) < 0.0:
                perturbed_viol += 1

    assert same_anchor_viol == 0
    assert perturbed_viol == 0
    assert perturbed_checked >= 80
    _passline("ACCEPT-05", f"({model.name}: 100 anchors x 64 probes clean; "
                           f"{perturbed_checked} perturbed starts clean)")


# ---------------------------------------------------------------------------
# criterion 6: frozen-flow envelopes


@pytest.mark.parametrize("factory,spread", [
    (acc_backstepping, 6.0), (homogeneous_planar, 0.6)])
def test_accept_06_flow_envelopes(factory, spread):
    model = factory()
    cert, sysm = model.certificate, model.system
    anchors = _anchor_batch(model, 100, seed=13, spread=spread)
    top = anchors[int(np.argmax([cert.v(a) for a in anchors]))]
    region = bound_sublevel_box(cert, top, seed=13)
    constants, _ = estimate_constants(sysm, cert, region, n=128, seed=13)
    kappa, mu = constants.kappa, constants.mu
    cap = 1.0 / (1.0 + 2.0 * kappa)
    cfg = IntegratorConfig(horizon=cap)

    violations = 0
    for x_star in anchors:
        u_star = cert.u(x_star)
        seg = integrate_frozen(sysm, x_star, u_star, (0.0, cap), cfg)
        # stay inside the guard-negative window the envelopes assume
        t_end = cap
        scan = np.linspace(0.0, cap, 257)
        for t in scan[1:]:
            xi = seg.eval(float(t))
            if frozen_guard(cert, xi, sysm.f(xi, u_star), SIGMA) >= 0.0:
                t_end = float(t) * (1.0 - 1e-9)
                break
        f0 = sysm.f(x_star, u_star)
        nf0 = float(np.linalg.norm(f0))
        g0 = cert.grad(x_star)
        w0 = float(g0 @ f0)
        dw_scale = float(np.linalg.norm(g0)) * nf0 + nf0 * nf0
        for j in range(64):
            t = t_end * j / 64.0
            xi = seg.eval(t)
            c_t = c_bound(kappa, t)
            if np.linalg.norm(xi - x_star) > c_t * nf0 * (1 + 1e-9) + 1e-12:
                violations += 1
            ft = sysm.f(xi, u_star)
            if np.linalg.norm(ft) > (1 + kappa * c_t) * nf0 * (1 + 1e-9) + 1e-12:
                violations += 1
            wt = float(cert.grad(xi) @ ft)
            if abs(wt - w0) > math.sqrt(t) * mu * dw_scale * (1 + 1e-9) + 1e-12:
                violations += 1
    assert violations == 0
    _passline("ACCEPT-06", f"({model.name}: drift, speed and derivative "
                           f"envelopes hold at 64 probes on 100 flows)")


# ---------------------------------------------------------------------------
# criterion 7: the Zeno counterexample


def test_accept_07_zeno_counterexample():
    start = _time.perf_counter()
    first_dwells = []
    last_termination = None
    for r_star in (0.5, 0.1, 0.02, 0.004):
        model = zeno_polar(r_star=r_star)
        cfg = IntegratorConfig(horizon=1.0, zeno_floor=1e-3, max_events=400)
        traj = run_closed_loop(model.system, model.certificate,
                               EventTriggered(sigma=SIGMA),
                               model.default_x0, cfg)
        dwell = traj.events[1].dwell
        assert dwell <= zeno_first_event_bound(r_star), \
            f"r*={r_star}: first dwell {dwell} above the analytic bound"
        first_dwells.append(dwell)
        last_termination = traj.termination
    assert all(b < a for a, b in zip(first_dwells, first_dwells[1:])), \
        f"first dwells not decreasing: {first_dwells}"
    assert last_termination == "zeno_abort" or first_dwells[-1] < 5e-3
    elapsed = _time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    _passline("ACCEPT-07", f"(first dwells {['%.3g' % d for d in first_dwells]}, "
              f"r*=0.004 -> {last_termination}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 8: exact relay schedule


def test_accept_08_relay_exact_schedule():
    model = relay_1d()
    for x0 in (1.0, 0.25, -3.0):
        cfg = IntegratorConfig(horizon=abs(x0) + 1.0)
        traj = run_closed_loop(model.system, model.certificate,
                               EventTriggered(sigma=SIGMA), [x0], cfg)
        times = [e.time for e in traj.events]
        assert len(times) == 2, f"x0={x0}: events {times}"
        assert times[0] == 0.0
        assert abs(times[1] - abs(x0)) <= 1e-9
        np.testing.assert_array_equal(traj.events[1].control, [0.0])
        # frozen afterwards: the recorded control never changes again
        after = traj.u[traj.t >= times[1]]
        assert np.all(after == 0.0)
    _passline("ACCEPT-08", "(events exactly {0, |x0|} for x0 in {1, 0.25, -3})")


# ---------------------------------------------------------------------------
# criterion 9: oracle equivalence


def test_accept_09_oracle_equivalence():
    # frozen cruise-control flows against the independent matrix exponential
    model = acc_backstepping(k=1.01, tau_lag=0.3)
    rng = np.random.default_rng(5)
    worst = 0.0
    cfg = IntegratorConfig(horizon=1.0)
    for _ in range(5):
        x0 = rng.uniform(-5, 5, 3)
        u_star = float(rng.uniform(-3, 3))
        a, c = acc_frozen_matrices(1.01, 0.3, u_star)
        seg = integrate_frozen(model.system, x0, [u_star], (0.0, 1.0), cfg)
        for t in np.linspace(0.0, 1.0, 53):
            exact = affine_flow(a, c, x0, float(t))
            worst = max(worst, float(np.max(np.abs(seg.eval(float(t)) - exact))))
    assert worst <= 1e-8, f"max flow error {worst}"

    # quadrature route against the closed forms of the level-time map
    worst_rel = 0.0
    for rate, gamma in [
        (RateFunction.linear(0.5), lambda v: 0.5 * v),
        (RateFunction.linear(2.0), lambda v: 2.0 * v),
        (RateFunction.power(1.0, 2.0), lambda v: v ** 2),
        (RateFunction.power(2.0, 0.5), lambda v: 2.0 * math.sqrt(v)),
        (RateFunction.power(0.7, 3.0), lambda v: 0.7 * v ** 3),
    ]:
        closed = EnergyTimeMap(rate)
        quad = EnergyTimeMap(RateFunction.custom(gamma))
        for s in np.logspace(-2, 2, 21):
            a_val = closed.gamma_big(s)
            b_val = quad.gamma_big(s)
            worst_rel = max(worst_rel,
                            abs(a_val - b_val) / max(1.0, abs(a_val)))
    assert worst_rel <= 1e-8, f"max quadrature mismatch {worst_rel}"
    _passline("ACCEPT-09", f"(flow error {worst:.2e}, quadrature mismatch "
                           f"{worst_rel:.2e})")


# ---------------------------------------------------------------------------
# criterion 10: byte-exact determinism


@pytest.mark.parametrize("preset", ["relay1d", "zeno_polar", "homog2d"])
def test_accept_10_determinism(preset, tmp_path):
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        cli_main(["simulate", "--config", preset, "--out", str(out)])
        outs.append(out)
    for suffix in ("trajectory.csv", "stats.json"):
        name = None
        for f in outs[0].iterdir():
            if f.name.endswith(suffix):
                name = f.name
        assert name is not None
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{preset}/{name} differs between identical runs"
    _passline("ACCEPT-10", f"({preset}: CSV and JSON byte-identical)")
