import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfetc import (BlowupError, ClfCertificate, ControlSystem,
                    DimensionMismatchError, DomainError,
                    EventTriggered, IntegratorConfig, PeriodicEventTriggered,
                    RateFunction, TimeTriggered,
                    bound_sublevel_box, build_model, check_rate_certificate,
                    estimate_constants, integrate_frozen, locate_event,
                    run_closed_loop, run_stats, write_trajectory_csv)
from clfetc import engine
from clfetc.cli import _model_and_x0, load_config, resolve_policy
from clfetc.core import rowwise
from clfetc.engine import (_Hermite, _probe_times, _window_states,
                           read_event_times_csv, stats_from_event_times)
from clfetc.triggers import predicate_margin
from oracles import (acc_event_times, acc_frozen_matrices, acc_periodic_checks,
                     affine_flow, locate_event_reference,
                     periodic_checks_reference, rate_excess_reference)


class TestIntegrateFrozen:
    def test_relay_linear_flow(self, relay):
        cfg = IntegratorConfig(horizon=1.0)
        seg = integrate_frozen(relay.system, [1.0], [-1.0], (0.0, 0.5), cfg)
        assert seg.eval(0.5)[0] == pytest.approx(0.5, abs=1e-12)
        assert seg.eval(0.25)[0] == pytest.approx(0.75, abs=1e-12)

    def test_acc_against_matrix_exponential(self, acc):
        # frozen input makes the loop affine; compare with the exact affine
        # flow built from an independently coded matrix exponential
        u_star = 2.0
        a, c = acc_frozen_matrices(1.01, 0.3, u_star)
        x0 = np.array([1.0, -2.0, 0.5])
        cfg = IntegratorConfig(horizon=1.0)
        seg = integrate_frozen(acc.system, x0, [u_star], (0.0, 1.0), cfg)
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 53):
            exact = affine_flow(a, c, x0, float(t))
            worst = max(worst, float(np.max(np.abs(seg.eval(float(t)) - exact))))
        assert worst <= 1e-8

    def test_rotation_preserves_radius(self, zeno):
        # with zero input the flow is a pure rotation
        cfg = IntegratorConfig(horizon=10.0)
        x0 = np.array([0.3, 0.4])
        seg = integrate_frozen(zeno.system, x0, np.zeros(2), (0.0, 2 * math.pi), cfg)
        for t in np.linspace(0.0, 2 * math.pi, 17):
            r = np.linalg.norm(seg.eval(float(t)))
            assert r == pytest.approx(0.5, abs=1e-9)

    def test_blowup_raises(self):
        sysm = ControlSystem(1, 1, rhs=lambda x, u: np.array([x[0] ** 2]))
        cfg = IntegratorConfig(horizon=1.0)
        with pytest.raises(BlowupError):
            integrate_frozen(sysm, [5.0], [0.0], (0.0, 0.5), cfg)


def _located(locate, guard, a, b):
    """``locate``'s root of ``guard`` on [a, b], given both end values, and
    the number of guard reads it made."""
    reads = []

    def counted(t):
        reads.append(t)
        return guard(t)

    return locate(counted, a, b, guard(a), guard(b)), len(reads)


@st.composite
def _brackets(draw):
    """A root ``r`` and a bracket ``a < r < b`` whose ends lie within a factor
    of 2 of ``r``, so that ``t - r`` is exact on it (Sterbenz)."""
    r = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    a = r - abs(r) * 10.0 ** draw(st.floats(-10.0, -0.5))
    b = r + abs(r) * 10.0 ** draw(st.floats(-10.0, -0.5))
    return r, a, b


@st.composite
def _smooth_guards(draw, curvature):
    """A monotone guard with a simple root inside its bracket: a shifted
    cubic ``c(t - r) + d(t - r)^3`` or an exponential ``c*expm1(k(t - r))``,
    whose slope changes by a factor of at most ``1 + 3*curvature`` or
    ``exp(min(curvature, 300))`` over the bracket.  ``t - r`` is exact, so
    the guard's sign is exact and both methods see the same sign change."""
    r, a, b = draw(_brackets())
    c = 10.0 ** draw(st.floats(-3.0, 3.0))
    q = draw(st.floats(1e-3, curvature))
    if draw(st.booleans()):
        d = c * q / max(r - a, b - r) ** 2
        return (lambda t: c * (t - r) + d * (t - r) ** 3), a, b
    k = min(q, 300.0) / (b - a)
    return (lambda t: c * math.expm1(k * (t - r))), a, b


@st.composite
def _multiple_roots(draw):
    """``(t - r)^p`` for p = 3 or 5: a root where the slope vanishes."""
    r, a, b = draw(_brackets())
    p = draw(st.sampled_from([3, 5]))
    return (lambda t: (t - r) ** p), a, b


class TestHermite:
    @pytest.mark.parametrize("seed", range(5))
    def test_probe_column_equals_the_per_time_calls(self, seed):
        # the step rule reads a step's probe states from one evaluation on a
        # (k, 1) column of probe times; each row must keep its bits
        rng = np.random.default_rng(seed)
        for dim in (1, 2, 3, 5):
            t0 = float(rng.uniform(-100.0, 100.0))
            t1 = t0 + float(10.0 ** rng.uniform(-9.0, 1.0))
            y0, f0, y1, f1 = rng.normal(size=(4, dim)) * 10.0 ** rng.uniform(-3, 3)
            piece = _Hermite(t0, y0, f0, t1, y1, f1)
            ts = _probe_times(piece)[1:-1]
            column = piece(np.array(ts)[:, None])
            rows = np.array([piece(t) for t in ts])
            assert column.shape == rows.shape == (len(ts), dim)
            assert column.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("probes_only", [False, True],
                             ids=["mixed", "probes"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_window_pass_equals_the_listed_states(self, dim, probes_only):
        # a step rule reads, per step, its check times or its start, probes
        # and end, in one interpolant pass over a window of consecutive
        # steps; each row must keep the bits of the step's own interpolant at
        # its time, and each start or end row the step's own.  Under the
        # event policy every step of a window reads its probes
        rng = np.random.default_rng(dim if probes_only else 10 + dim)
        for width in range(1, engine._WINDOW_CAP + 1):
            pieces, times, rows, t = [], [], [], float(rng.uniform(0.0, 100.0))
            for _ in range(width):
                h = float(10.0 ** rng.uniform(-9.0, 1.0))
                y0, f0, y1, f1 = rng.normal(size=(4, dim)) * 10.0 ** rng.uniform(-3, 3)
                p = _Hermite(t, y0, f0, t + h, y1, f1)
                m = -1 if probes_only else int(rng.integers(-1, engine.GUARD_PROBES + 2))
                if m < 0:
                    ts = None
                    rows += [p.y0] + [p(tp) for tp in _probe_times(p)[1:-1]] + [p.y1]
                else:  # sorted instants in the step, its end among them
                    ts = sorted([p.t1] + list(rng.uniform(p.t0, p.t1, m)))[-m:]
                    rows += [p(tp) for tp in ts]
                pieces.append(p)
                times.append(ts if ts is None else [float(tp) for tp in ts])
                t += h
            window = _window_states(pieces, times)
            if probes_only:
                assert len(rows) == width * (engine.GUARD_PROBES + 2)
            assert window.shape == (len(rows), dim)
            assert window.tobytes() == np.array(rows).reshape(-1, dim).tobytes()


class TestLocateEvent:
    def test_closed_form_root(self):
        root = locate_event(lambda t: -0.2 * (1.0 - t), 0.0, 1.5)
        assert root == pytest.approx(1.0, abs=1e-12)

    def test_no_sign_change_rejected(self):
        with pytest.raises(DomainError):
            locate_event(lambda t: -1.0, 0.0, 1.0)

    def test_boundary_zero_fires_at_endpoint(self):
        root = locate_event(lambda t: min(t - 1.0, 0.0), 0.0, 1.0)
        assert root == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(_smooth_guards(curvature=1.0))
    def test_smooth_guard_lands_next_to_the_bisection_root(self, drawn):
        # an event guard over one probe interval is close to linear; over
        # 100,000 draws like these the most reads were 9, and 7 ulps the
        # largest distance, against bisection's 20 to 52 reads
        guard, a, b = drawn
        root, reads = _located(locate_event, guard, a, b)
        ref, _ = _located(locate_event_reference, guard, a, b)
        assert guard(root) >= 0.0
        assert abs(root - ref) <= 16 * math.ulp(ref)
        assert reads <= 12

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_smooth_guards(curvature=1e6), _multiple_roots()))
    def test_curved_guard_costs_at_most_twice_bisection(self, drawn):
        # strong curvature and multiple roots slow the secant steps, and the
        # bisection steps hold the cost to two reads per halving
        guard, a, b = drawn
        root, reads = _located(locate_event, guard, a, b)
        ref, ref_reads = _located(locate_event_reference, guard, a, b)
        assert guard(root) >= 0.0
        assert abs(root - ref) <= 16 * math.ulp(ref)
        assert reads <= 2 * ref_reads + 2

    @settings(max_examples=300, deadline=None)
    @given(_brackets(), st.floats(0.01, 10.0), st.floats(0.01, 10.0),
           st.sampled_from(["step", "zero_at_b"]))
    def test_rough_guard_costs_at_most_twice_bisection(self, rab, lo, hi, kind):
        r, a, b = rab
        if kind == "step":
            def guard(t):
                return hi if t >= r else -lo
        else:
            def guard(t):
                return min(lo * (t - b), 0.0)
        root, reads = _located(locate_event, guard, a, b)
        ref, ref_reads = _located(locate_event_reference, guard, a, b)
        assert guard(root) >= 0.0
        assert reads <= 2 * ref_reads + 2
        if kind == "step":
            # the first float at or past the step, within the final bracket
            assert ref <= root <= ref + 16 * math.ulp(ref)
        else:
            assert root == ref == b

    @pytest.mark.parametrize("a", [2.0, 2.5, 7.0])
    def test_bump_guard_costs_at_most_twice_bisection(self, a):
        # the half-step bracket of test_halving_finds_a_root_between_probes:
        # probes at a + j/18, with the bump's left edge between j = 8 and 9
        bump = (a + 0.45, a + 0.53)

        def guard(t):
            return 0.75 if bump[0] <= t <= bump[1] else -0.25

        root, reads = _located(locate_event, guard, a + 8 / 18, a + 0.5)
        ref, ref_reads = _located(locate_event_reference, guard,
                                  a + 8 / 18, a + 0.5)
        assert root == pytest.approx(bump[0], abs=1e-12)
        assert reads <= 2 * ref_reads + 2


def _oscillating_loop():
    """A loop whose guard oscillates fast: the second state is a clock
    driving an oscillation of the first.  Returns ``(system, certificate,
    x0, policy, config)``."""
    def rhs(x, u):
        return np.array([u[0] * (1.0 + 0.9 * math.sin(40.0 * x[1])), 1.0])

    sysm = ControlSystem(2, 1, rhs=rowwise(rhs))
    cert = ClfCertificate(
        value=rowwise(lambda x: 0.5 * float(x @ x)),
        gradient=rowwise(lambda x: np.asarray(x, dtype=float)),
        rate=RateFunction.linear(1.0),
        feedback=rowwise(lambda x: np.array([-x[0] - x[1]])),
    )
    return (sysm, cert, np.array([2.0, 0.0]), EventTriggered(sigma=0.5),
            IntegratorConfig(horizon=3.0, max_step=0.5))


def _halving_loop(later=True):
    """A unit-speed clock, so the exact steps grow to ``max_step`` and the
    frozen flow is known in closed form, under a guard that is positive on a
    bump that a full step's probes miss and, when ``later``, on a window
    around a later probe.  Returns ``(system, certificate, x0, policy,
    config, bump)``."""
    sysm = ControlSystem(2, 1, rhs=rowwise(lambda x, u: np.array([0.0, 1.0])))
    x0 = np.array([1.0, 0.0])
    cfg = IntegratorConfig(horizon=10.0, max_step=1.0, max_events=2)
    # with no crossing the guarded run takes exactly these steps
    mesh = integrate_frozen(sysm, x0, [0.0], (0.0, 10.0), cfg).ts
    i = next(i for i in range(len(mesh) - 1)
             if mesh[i] > 2.0 and mesh[i + 1] - mesh[i] == 1.0)
    a = mesh[i]
    # full-step probes sit at a + j/9: the bump lies between j = 4 and 5,
    # the window holds j = 7 only, and a + 1/2 ends the half step
    bump = (a + 0.45, a + 0.53)
    window = (a + 0.73, a + 0.82) if later else bump

    def gradient(x):
        inside = bump[0] <= x[1] <= bump[1] or window[0] <= x[1] <= window[1]
        return np.array([x[0], 0.5 if inside else -0.5])

    # guard = gradient . F + sigma*V = -0.25 outside both, 0.75 inside
    cert = ClfCertificate(value=rowwise(lambda x: 0.5 * x[0] ** 2),
                          gradient=rowwise(gradient),
                          rate=RateFunction.linear(1.0),
                          feedback=rowwise(lambda x: np.zeros(1)))
    return sysm, cert, x0, EventTriggered(sigma=0.5), cfg, bump


def _crossing_before_blowup_loop():
    """A state that grows like ``exp(30 t)`` beside a unit-speed clock, with
    the guard -0.5 until the clock passes ``t_cross`` and 1.5 after it.  The
    steps are all ``max_step`` long, and ``t_cross`` lies inside the step
    before the one at whose end the state passes the blow-up cap.  Returns
    ``(system, certificate, x0, policy, config, t_cross)``."""
    sysm = ControlSystem(2, 1, rhs=rowwise(lambda x, u: np.array([30.0 * x[0], 1.0])))
    x0 = np.array([1.0, 0.0])
    cfg = IntegratorConfig(horizon=2.0, max_step=0.002, max_events=2)
    with pytest.raises(BlowupError) as blowup:
        integrate_frozen(sysm, x0, [0.0], (0.0, 2.0), cfg)
    t_cross = blowup.value.t - 1.5 * cfg.max_step
    cert = ClfCertificate(
        value=rowwise(lambda x: 1.0),
        gradient=rowwise(lambda x: np.array([0.0, -1.0 if x[1] < t_cross else 1.0])),
        rate=RateFunction.linear(1.0),
        feedback=rowwise(lambda x: np.zeros(1)))
    return sysm, cert, x0, EventTriggered(sigma=0.5), cfg, t_cross


def _guard_undefined_past_a_crossing_loop(wobble=0.0, max_step=0.1):
    """A clock of speed ``1 + sin(wobble*c)/2`` at its reading c, under a
    guard that is -0.25 before c = 2, 0.75 after it, and whose gradient
    raises :class:`DomainError` past c = 2.15.  The defaults give a
    unit-speed clock with steps of 0.1.  Returns ``(system, certificate,
    x0, policy, config, gradient_errors)``; the last list gets one entry per
    error raised."""
    sysm = ControlSystem(2, 1, rhs=rowwise(
        lambda x, u: np.array([0.0, 1.0 + 0.5 * math.sin(wobble * x[1])])))
    errors = []

    def gradient(x):
        if x[1] > 2.15:
            errors.append(x[1])
            raise DomainError("gradient undefined past t = 2.15")
        return np.array([x[0], -0.5 if x[1] < 2.0 else 0.5])

    cert = ClfCertificate(value=rowwise(lambda x: 0.5 * x[0] ** 2),
                          gradient=rowwise(gradient),
                          rate=RateFunction.linear(1.0),
                          feedback=rowwise(lambda x: np.zeros(1)))
    cfg = IntegratorConfig(horizon=10.0, max_step=max_step, max_events=2)
    return sysm, cert, np.array([1.0, 0.0]), EventTriggered(sigma=0.5), cfg, errors


def _run_record(traj):
    """Every array of a trajectory as bytes, its termination and its events,
    for comparing runs bit for bit."""
    return ([arr.tobytes() for arr in (traj.t, traj.x, traj.u, traj.v, traj.w,
                                       traj.bound, traj.event_flag)],
            traj.termination,
            [(e.index, e.time, e.dwell, e.guard_value, e.reason,
              e.state.tobytes(), e.control.tobytes()) for e in traj.events])


class TestRunClosedLoop:
    def test_homog_two_events(self, homog):
        cfg = IntegratorConfig(horizon=200.0)
        traj = run_closed_loop(homog.system, homog.certificate,
                               EventTriggered(sigma=0.9), homog.default_x0, cfg)
        assert len(traj.events) == 2
        assert traj.events[1].time == pytest.approx(5.2615, abs=0.01)
        assert traj.termination == "horizon"

    @pytest.mark.parametrize("name,x0", [
        ("acc", None), ("homog", None), ("homog", [0.0, 0.0]), ("relay", None),
        ("zeno", None)], ids=["acc", "homog2d", "homog2d-origin", "relay1d",
                              "zeno-polar"])
    def test_bound_is_the_envelope_at_every_row(self, request, name, x0):
        model = request.getfixturevalue(name)
        x0 = model.default_x0 if x0 is None else np.array(x0)
        cfg = IntegratorConfig(horizon=0.5, output_points=51)
        traj = run_closed_loop(model.system, model.certificate,
                               EventTriggered(sigma=0.8), x0, cfg)
        np.testing.assert_array_equal(traj.x[0], x0)
        v0 = float(traj.v[0])
        assert traj.bound.tolist() == [
            model.certificate.energy_map.bound_after(v0, float(t), 0.8)
            for t in traj.t]
        # V and W come from one call each on all rows, bit for bit the loop
        # over rows with each row's control
        cert, sysm = model.certificate, model.system
        assert [v.hex() for v in traj.v.tolist()] == [
            cert.v(x).hex() for x in traj.x]
        assert [w.hex() for w in traj.w.tolist()] == [
            float(cert.grad(x) @ sysm.frozen(u)(x)).hex()
            for x, u in zip(traj.x, traj.u)]

    def test_equilibrium_start(self, relay):
        cfg = IntegratorConfig(horizon=2.0)
        traj = run_closed_loop(relay.system, relay.certificate,
                               EventTriggered(sigma=0.9), [0.0], cfg)
        assert len(traj.events) == 1
        assert traj.events[0].reason == "equilibrium_frozen"
        assert traj.termination == "equilibrium"
        assert traj.t[-1] == pytest.approx(2.0)
        np.testing.assert_array_equal(traj.x[-1], traj.x[0])

    @pytest.mark.parametrize("preset", ["acc_case1", "acc_case2"])
    def test_acc_events_match_the_exact_flow(self, preset):
        # the first 20 fired events at the default tolerances; the largest
        # differences measured were 5.4e-7 s in time and 2.8e-8 in the state
        cfg = load_config(preset)
        model = build_model(cfg.model_name, cfg.model_params)
        traj = run_closed_loop(model.system, model.certificate,
                               EventTriggered(sigma=cfg.sigma), cfg.x0,
                               IntegratorConfig(horizon=cfg.horizon, max_events=21))
        times, states, termination = acc_event_times(
            model, cfg.x0, cfg.horizon, cfg.sigma, max_events=21)
        assert termination == traj.termination == "event_cap"
        np.testing.assert_allclose([e.time for e in traj.events], times,
                                   rtol=0.0, atol=1e-6)
        np.testing.assert_allclose([e.state for e in traj.events], states,
                                   rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("preset, n_events",
                             [("acc_case1", 114), ("acc_case2", 129)])
    def test_acc_all_events_match_the_exact_flow_at_tight_tolerances(
            self, preset, n_events):
        # every event, no cap; the largest differences measured were
        # 1.07e-6 s (case 1) and 6.13e-6 s (case 2), with bisection and with
        # the Illinois localization alike
        cfg = load_config(preset)
        model = build_model(cfg.model_name, cfg.model_params)
        traj = run_closed_loop(model.system, model.certificate,
                               EventTriggered(sigma=cfg.sigma), cfg.x0,
                               IntegratorConfig(horizon=cfg.horizon,
                                                rel_tol=1e-11, abs_tol=1e-14))
        times, _, termination = acc_event_times(model, cfg.x0, cfg.horizon,
                                                cfg.sigma)
        assert len(traj.events) == len(times) == n_events
        assert termination == traj.termination == "equilibrium"
        np.testing.assert_allclose([e.time for e in traj.events], times,
                                   rtol=0.0, atol=1e-5)

    def test_localization_reads_a_third_of_bisection(self, monkeypatch):
        # bisection read the guard about 41 times per event on acc_case1
        calls, reads = [], []
        located = engine.locate_event

        def counted(guard, *args):
            calls.append(1)

            def counted_guard(t):
                reads.append(t)
                return guard(t)
            return located(counted_guard, *args)

        monkeypatch.setattr(engine, "locate_event", counted)
        cfg = load_config("acc_case1")
        model = build_model(cfg.model_name, cfg.model_params)
        traj = run_closed_loop(model.system, model.certificate,
                               EventTriggered(sigma=cfg.sigma), cfg.x0,
                               IntegratorConfig(horizon=cfg.horizon))
        assert len(calls) == len(traj.events) - 1 == 113
        assert len(reads) <= 41 / 3 * len(calls)

    def test_piecewise_constant_control(self, homog):
        cfg = IntegratorConfig(horizon=30.0)
        traj = run_closed_loop(homog.system, homog.certificate,
                               EventTriggered(sigma=0.9), homog.default_x0, cfg)
        ev_times = [e.time for e in traj.events]
        seg_of_row = np.searchsorted(ev_times, traj.t, side="right") - 1
        for i in range(traj.t.size):
            np.testing.assert_array_equal(traj.u[i],
                                          traj.events[seg_of_row[i]].control)

    def test_lyapunov_monotone_within_slack(self, acc):
        cfg = IntegratorConfig(horizon=20.0)
        traj = run_closed_loop(acc.system, acc.certificate,
                               EventTriggered(sigma=0.9), [5.0, 5.05, 5.1], cfg)
        assert float(np.max(np.diff(traj.v))) <= 1e-9 * float(traj.v[0])

    def test_event_surface_accuracy(self, homog):
        cfg = IntegratorConfig(horizon=30.0)
        traj = run_closed_loop(homog.system, homog.certificate,
                               EventTriggered(sigma=0.9), homog.default_x0, cfg)
        fired = [e for e in traj.events[1:] if e.reason == "guard_zero"]
        assert fired
        for e in fired:
            v = homog.certificate.v(e.state)
            assert abs(e.guard_value) <= 1e-8 * homog.certificate.rate(v)

    def test_event_times_stable_under_tolerance_halving(self, relay, homog):
        # exact linear flow: default tolerance
        t1 = {}
        for rtol in (1e-9, 5e-10):
            cfg = IntegratorConfig(horizon=3.0, rel_tol=rtol)
            traj = run_closed_loop(relay.system, relay.certificate,
                                   EventTriggered(sigma=0.9), [1.0], cfg)
            t1[rtol] = traj.events[1].time
        assert abs(t1[1e-9] - t1[5e-10]) < 10 * (1e-12 * 3.0)
        # smooth nonlinear flow
        t1 = {}
        for rtol in (1e-9, 5e-10):
            cfg = IntegratorConfig(horizon=20.0, rel_tol=rtol)
            traj = run_closed_loop(homog.system, homog.certificate,
                                   EventTriggered(sigma=0.9), homog.default_x0, cfg)
            t1[rtol] = traj.events[1].time
        assert abs(t1[1e-9] - t1[5e-10]) < 10 * 1e-9

    def test_rate_certificate_on_run(self, homog):
        cfg = IntegratorConfig(horizon=100.0)
        traj = run_closed_loop(homog.system, homog.certificate,
                               EventTriggered(sigma=0.9), homog.default_x0, cfg)
        ok, excess = check_rate_certificate(traj)
        assert ok, f"excess {excess}"

    def test_zeno_abort(self):
        from clfetc import zeno_polar
        m = zeno_polar(r_star=0.01)
        cfg = IntegratorConfig(horizon=1.0, zeno_floor=1e-3, max_events=20000)
        traj = run_closed_loop(m.system, m.certificate, EventTriggered(sigma=0.9),
                               m.default_x0, cfg)
        assert traj.termination == "zeno_abort"
        assert traj.events[1].dwell < 1e-3

    def test_event_cap(self):
        from clfetc import zeno_polar
        m = zeno_polar(r_star=0.05)
        cfg = IntegratorConfig(horizon=5.0, max_events=20)
        traj = run_closed_loop(m.system, m.certificate, EventTriggered(sigma=0.9),
                               m.default_x0, cfg)
        assert traj.termination == "event_cap"
        assert len(traj.events) == 20

    def test_blowup_termination(self):
        sysm = ControlSystem(1, 1, rhs=rowwise(lambda x, u: np.array([x[0] ** 2])))
        cert = ClfCertificate(value=rowwise(lambda x: float(x[0] ** 2)),
                              gradient=rowwise(lambda x: np.array([2.0 * x[0]])),
                              rate=RateFunction.linear(1.0),
                              feedback=rowwise(lambda x: np.zeros(1)))
        cfg = IntegratorConfig(horizon=10.0)
        traj = run_closed_loop(sysm, cert, TimeTriggered(sigma=0.5, period=1.0),
                               [5.0], cfg)
        assert traj.termination == "blowup"
        # finite escape time of xdot = x^2 from 5 is 1/5
        assert traj.t[-1] == pytest.approx(0.2, abs=1e-3)

    def test_earliest_root_with_oscillating_guard(self):
        # the earliest crossing must match a fine-scan reference.  The guard
        # probes resolve this oscillation in every step, so the
        # halve-and-retry rule never fires here (see the next test)
        sysm, cert, x0, policy, cfg = _oscillating_loop()
        u0 = cert.u(x0)

        # reference first root from a fine scan plus bisection on a
        # tightly-integrated flow
        ts = np.linspace(0.0, 3.0, 6001)
        cfg_ref = IntegratorConfig(horizon=3.0, rel_tol=1e-11, abs_tol=1e-13)
        seg = integrate_frozen(sysm, x0, u0, (0.0, 3.0), cfg_ref)

        def g_of(t):
            x = seg.eval(float(t))
            return float(cert.grad(x) @ sysm.f(x, u0)) + 0.5 * cert.rate(cert.v(x))

        gs = [g_of(t) for t in ts]
        j = next(i for i in range(len(ts) - 1) if gs[i] < 0.0 <= gs[i + 1])
        t_ref = locate_event(g_of, ts[j], ts[j + 1], gs[j], gs[j + 1])

        traj = run_closed_loop(sysm, cert, policy, x0, cfg)
        assert traj.events[1].time == pytest.approx(t_ref, abs=1e-7)

    def test_halving_finds_a_root_between_probes(self):
        # in one full step the guard has a positive bump between two probes,
        # which the probes miss, and a positive window around a later probe:
        # two detected crossings.  Only a retry at half the step puts a probe
        # inside the bump.
        sysm, cert, x0, policy, cfg, bump = _halving_loop()
        traj = run_closed_loop(sysm, cert, policy, x0, cfg)
        assert traj.termination == "event_cap"
        assert traj.events[1].time == pytest.approx(bump[0], abs=1e-12)

    def test_a_guard_that_reads_nan_is_not_passed_unfired(self):
        # the guard is NaN once the clock passes 2.  A NaN read counts as not
        # below zero, as the periodic margin's does, so the run cannot pass
        # it by; no zero lies between it and the read before, and the root
        # search says so
        sysm = ControlSystem(2, 1, rhs=rowwise(lambda x, u: np.array([0.0, 1.0])))
        cert = ClfCertificate(
            value=rowwise(lambda x: 0.5 * x[0] ** 2),
            gradient=rowwise(lambda x: np.array([x[0], -0.5 if x[1] < 2.0 else math.nan])),
            rate=RateFunction.linear(1.0),
            feedback=rowwise(lambda x: np.zeros(1)))
        cfg = IntegratorConfig(horizon=10.0, max_step=0.1)
        with pytest.raises(DomainError, match="does not straddle.*=nan"):
            run_closed_loop(sysm, cert, EventTriggered(sigma=0.5),
                            np.array([1.0, 0.0]), cfg)

    @pytest.mark.xfail(raises=AssertionError,
                       reason="ROADMAP item 6: probes miss a positive bump "
                              "between them when no other crossing shows")
    def test_a_bump_between_probes_fires(self):
        # the bump alone: the step's probes all read -0.25, no retry puts a
        # probe inside it, and the run reaches the horizon unfired
        sysm, cert, x0, policy, cfg, bump = _halving_loop(later=False)
        traj = run_closed_loop(sysm, cert, policy, x0, cfg)
        assert traj.termination == "event_cap"
        assert traj.events[1].time == pytest.approx(bump[0], abs=1e-12)

    @pytest.mark.parametrize("ignores", ["rhs", "gradient", "value"])
    @pytest.mark.parametrize("policy", [
        EventTriggered(sigma=0.5),
        PeriodicEventTriggered(sigma=0.5, sigma_tilde=0.75, k_big=2.0, h=0.01,
                               big_m=3.0)], ids=["event", "periodic"])
    def test_a_model_that_ignores_the_batch_axis_fails_loudly(self, policy,
                                                              ignores):
        # the engine reads a step's probes in one batch; a callable written
        # for one state, not lifted by rowwise, must not give wrong values
        one_state = {
            "rhs": lambda x, u: np.array([0.0, 1.0]),
            "gradient": lambda x: np.array([1.0, -0.5]),
            "value": lambda x: 0.5 * x[0] ** 2,
        }
        batched = {
            "rhs": lambda x, u: np.zeros_like(x) + [0.0, 1.0],
            "gradient": lambda x: x * [1.0, 0.0] + [0.0, -0.5],
            "value": lambda x: 0.5 * x[..., 0] ** 2,
        }
        fns = dict(batched, **{ignores: one_state[ignores]})
        sysm = ControlSystem(2, 1, rhs=fns["rhs"])
        cert = ClfCertificate(value=fns["value"], gradient=fns["gradient"],
                              rate=RateFunction.linear(1.0),
                              feedback=lambda x: np.zeros(x.shape[:-1] + (1,)))
        cfg = IntegratorConfig(horizon=10.0, max_step=1.0)
        with pytest.raises(DimensionMismatchError,
                           match=rf"^{ignores} returned shape .*last axis.*rowwise"):
            run_closed_loop(sysm, cert, policy, np.array([1.0, 0.0]), cfg)

    @pytest.mark.parametrize("preset, horizon", [
        ("relay1d", 2.0), ("zeno_polar", 1.0), ("homog2d", 10.0), ("acc_case1", 15.0)])
    @pytest.mark.parametrize("periodic", [False, True], ids=["event", "periodic"])
    def test_a_rowwise_model_runs_as_the_same_model_on_the_last_axis(
            self, preset, horizon, periodic):
        # the shipped callables lifted by rowwise, against themselves on the
        # last axis: every array and event bit for bit
        cfg = load_config(preset)
        model, x0 = _model_and_x0(cfg)
        sysm, cert = model.system, model.certificate
        lifted_sys = replace(sysm, rhs=rowwise(sysm.rhs))
        lifted_cert = replace(cert, value=rowwise(cert.value),
                              gradient=rowwise(cert.gradient),
                              feedback=rowwise(cert.feedback))
        if periodic:
            policy = PeriodicEventTriggered(sigma=cfg.sigma,
                                            sigma_tilde=(1.0 + cfg.sigma) / 2.0,
                                            k_big=2.0, h=0.05, big_m=10.0)
        else:
            policy = EventTriggered(sigma=cfg.sigma)
        icfg = IntegratorConfig(horizon=horizon, output_points=201, **cfg.integrator)
        runs = [run_closed_loop(s, c, policy, x0, icfg)
                for s, c in ((sysm, cert), (lifted_sys, lifted_cert))]
        assert _run_record(runs[0]) == _run_record(runs[1])
        assert len(runs[0].events) > 1

    def test_periodic_event_mechanics_with_coarse_checks(self, homog):
        # a deliberately oversized check interval: the predicate eventually
        # fails and the control refreshes exactly on the check grid
        cert, sysm = homog.certificate, homog.system
        region = bound_sublevel_box(cert, homog.default_x0)
        consts, _ = estimate_constants(sysm, cert, region, n=96, seed=0)
        h = 1.0
        pol = PeriodicEventTriggered(sigma=0.9, sigma_tilde=0.95, k_big=2.0,
                                     h=h, big_m=consts.big_m)
        cfg = IntegratorConfig(horizon=30.0)
        traj = run_closed_loop(sysm, cert, pol, homog.default_x0, cfg)
        fired = traj.events[1:]
        assert fired, "expected at least one predicate failure in 30s"
        for e in fired:
            assert e.reason == "predicate_false"
            k = e.time / h
            assert k == pytest.approx(round(k), abs=1e-9)
            assert e.dwell >= h - 1e-9
        # the stricter 0.95 margin erodes shortly before the sigma-guard
        # crossing at ~5.26, so the first failing check is t = 5.0
        assert fired[0].time == pytest.approx(5.0, abs=1e-9)

    def test_time_triggered_guard_never_positive(self, homog):
        cert, sysm = homog.certificate, homog.system
        region = bound_sublevel_box(cert, homog.default_x0)
        consts, _ = estimate_constants(sysm, cert, region, n=96, seed=0)
        from clfetc import DwellInputs, tau_select
        tau = tau_select(DwellInputs(constants=consts, sigma=0.9,
                                     gamma_mode="nondecreasing")).value
        cfg = IntegratorConfig(horizon=400 * tau, output_points=401)
        traj = run_closed_loop(sysm, cert, TimeTriggered(sigma=0.9, period=tau),
                               homog.default_x0, cfg)
        guard = traj.w + 0.9 * np.array([cert.rate(v) for v in traj.v])
        assert float(guard.max()) <= 1e-12

    def test_periodic_guard_never_positive(self, homog):
        cert, sysm = homog.certificate, homog.system
        region = bound_sublevel_box(cert, homog.default_x0)
        consts, _ = estimate_constants(sysm, cert, region, n=96, seed=0)
        from clfetc import DwellInputs, admissible_period, tau0_select
        tau0 = tau0_select(DwellInputs(constants=consts, sigma=0.9,
                                       sigma_tilde=0.95, k_big=2.0,
                                       gamma_mode="nondecreasing")).value
        h = admissible_period(tau0)
        pol = PeriodicEventTriggered(sigma=0.9, sigma_tilde=0.95, k_big=2.0,
                                     h=h, big_m=consts.big_m)
        cfg = IntegratorConfig(horizon=400 * h, output_points=401)
        traj = run_closed_loop(sysm, cert, pol, homog.default_x0, cfg)
        guard = traj.w + 0.9 * np.array([cert.rate(v) for v in traj.v])
        assert float(guard.max()) <= 1e-12
        assert all(e.time / h == pytest.approx(round(e.time / h), abs=1e-9)
                   for e in traj.events[1:])


class TestWindowCap:
    """The step rule reads the steps in windows of up to ``_WINDOW_CAP``
    under both policies; a cap of 1 reads them one at a time, and must give
    the same run."""

    @staticmethod
    def _both(monkeypatch, sysm, cert, policy, x0, cfg):
        runs = [run_closed_loop(sysm, cert, policy, x0, cfg)]
        monkeypatch.setattr(engine, "_WINDOW_CAP", 1)
        runs.append(run_closed_loop(sysm, cert, policy, x0, cfg))
        return runs

    @pytest.mark.parametrize("preset", ["relay1d", "zeno_polar", "homog2d",
                                        "acc_case1", "acc_case2"])
    def test_presets(self, monkeypatch, preset):
        cfg = load_config(preset)
        model, x0 = _model_and_x0(cfg)
        icfg = IntegratorConfig(horizon=cfg.horizon, **cfg.integrator)
        a, b = self._both(monkeypatch, model.system, model.certificate,
                          EventTriggered(sigma=cfg.sigma), x0, icfg)
        assert _run_record(a) == _run_record(b)
        assert len(a.events) > 1

    @pytest.mark.parametrize("loop", [_oscillating_loop, _halving_loop],
                             ids=["oscillating", "halving"])
    def test_guards_that_need_the_probes(self, monkeypatch, loop):
        sysm, cert, x0, policy, cfg = loop()[:5]
        a, b = self._both(monkeypatch, sysm, cert, policy, x0, cfg)
        assert _run_record(a) == _run_record(b)
        assert len(a.events) > 1

    def test_a_crossing_wins_over_a_later_blowup(self, monkeypatch):
        # the stepper raises BlowupError while it fills the window that holds
        # the crossing; the window is replayed one step at a time, and the
        # crossing ends the scan before the error comes back
        sysm, cert, x0, policy, cfg, t_cross = _crossing_before_blowup_loop()
        steps, cap, raised = engine._steps, engine._WINDOW_CAP, []

        def watched(*args):
            try:
                yield from steps(*args)
            except BlowupError:
                raised.append(engine._WINDOW_CAP)
                raise

        monkeypatch.setattr(engine, "_steps", watched)
        a, b = self._both(monkeypatch, sysm, cert, policy, x0, cfg)
        # only the windowed run drew the step past the crossing
        assert raised == [cap]
        assert _run_record(a) == _run_record(b)
        assert a.termination == "event_cap"
        assert a.events[1].time == pytest.approx(t_cross, abs=1e-12)

    def test_a_crossing_wins_over_a_later_guard_error(self, monkeypatch):
        # the windowed run reads the guard on steps past the crossing, where
        # the model raises; the window is replayed one step at a time, and
        # the crossing ends the scan as one step at a time would
        sysm, cert, x0, policy, cfg, errors = _guard_undefined_past_a_crossing_loop()
        a = run_closed_loop(sysm, cert, policy, x0, cfg)
        assert errors
        errors.clear()
        monkeypatch.setattr(engine, "_WINDOW_CAP", 1)
        b = run_closed_loop(sysm, cert, policy, x0, cfg)
        assert not errors
        assert _run_record(a) == _run_record(b)
        assert a.termination == "event_cap"
        assert a.events[1].time == pytest.approx(2.0, abs=1e-12)

    def test_a_replay_remakes_each_step_at_the_size_it_was_given(self, monkeypatch):
        # error control sets the steps of a clock of varying speed; the
        # windowed read past the crossing raises, and the window is replayed
        # from a step whose size ``t1 - t0`` does not give back
        sysm, cert, x0, policy, cfg, errors = _guard_undefined_past_a_crossing_loop(
            wobble=5.0, max_step=1.0)
        steps, restarts = engine._steps, []

        def watched(f, t, y, f0, t_end, config, h=None):
            if h is not None:
                restarts.append((t, h))
            yield from steps(f, t, y, f0, t_end, config, h)

        monkeypatch.setattr(engine, "_steps", watched)
        a, b = self._both(monkeypatch, sysm, cert, policy, x0, cfg)
        assert _run_record(a) == _run_record(b)
        assert len(restarts) == 1 and len(errors) == 1  # the windowed run's
        t, h = restarts[0]
        assert (t + h) - t != h
        assert a.termination == "event_cap"
        assert a.events[1].state[1] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("preset, spec, horizon, fires", [
        ("acc_case1", {"h": 0.005}, None, True),
        ("acc_case2", {"h": 0.005}, None, True),
        ("homog2d", {"h": 0.01}, 5.0, True),
        ("homog2d", {}, 0.02, False),
    ], ids=["acc_case1-long", "acc_case2-long", "homog2d-short",
            "homog2d-derived-short"])
    def test_periodic_presets(self, monkeypatch, preset, spec, horizon, fires):
        # at h 0.005 every acc step holds more than GUARD_PROBES + 1 grid
        # points, and reads its probes; the homog2d steps read grid points.
        # The derived h (about 8e-6) passes every check up to the horizon
        cfg = load_config(preset)
        cfg = replace(cfg, horizon=horizon or cfg.horizon,
                      policy={"policy": "periodic-event", "sigma": cfg.sigma, **spec})
        model, x0 = _model_and_x0(cfg)
        policy, _ = resolve_policy(cfg, model, x0)
        icfg = IntegratorConfig(horizon=cfg.horizon, **cfg.integrator)
        a, b = self._both(monkeypatch, model.system, model.certificate,
                          policy, x0, icfg)
        assert _run_record(a) == _run_record(b)
        assert (len(a.events) > 1) == fires

    def test_a_fired_check_wins_over_a_later_margin_error(self, monkeypatch):
        # the margin is -0.025 before the clock reads 2 and positive from
        # there, so the first check there fails; the windowed run reads the
        # margin on steps past it, where the gradient raises, and replays the
        # window one step at a time, as under the event policy
        sysm, cert, x0, _, cfg, errors = _guard_undefined_past_a_crossing_loop()
        policy = PeriodicEventTriggered(sigma=0.9, sigma_tilde=0.95, k_big=2.0,
                                        h=0.05, big_m=3.0)
        a = run_closed_loop(sysm, cert, policy, x0, cfg)
        assert errors
        errors.clear()
        monkeypatch.setattr(engine, "_WINDOW_CAP", 1)
        b = run_closed_loop(sysm, cert, policy, x0, cfg)
        assert not errors
        assert _run_record(a) == _run_record(b)
        assert a.termination == "event_cap"
        assert a.events[1].reason == "predicate_false"
        # the clock reads just under 2 at t = 2, so the check at 2.05 fails
        assert a.events[1].state[1] >= 2.0
        assert a.events[1].time == pytest.approx(2.05, abs=1e-12)

    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "event"])
    def test_a_window_reads_its_margins_in_one_batch(self, monkeypatch, acc,
                                                     periodic):
        # every step at h 0.005, and every event step, reads the margin or
        # the guard, so one batch a step would make at least as many batches
        # as there are accepted steps
        step_rule = engine._step_rule
        batches, accepted = [], []

        def counted_rule(scalar, grid=None):
            def counted_scalar(y, fy):
                if np.ndim(y) == 2:  # not the root search's one-state reads
                    batches.append(len(y))
                return scalar(y, fy)

            rule = step_rule(counted_scalar, grid)

            def judged(pieces, f):
                verdict = rule(pieces, f)
                accepted.append(verdict[0])
                return verdict
            return judged

        monkeypatch.setattr(engine, "_step_rule", counted_rule)
        if periodic:
            model, x0 = acc, np.array([10.0, 10.1, 10.201])
            policy, cfg = _periodic(acc, x0, 0.005), IntegratorConfig(horizon=60.0)
        else:
            preset = load_config("acc_case1")
            model, x0 = _model_and_x0(preset)
            policy = EventTriggered(sigma=preset.sigma)
            cfg = IntegratorConfig(horizon=preset.horizon, **preset.integrator)
        traj = run_closed_loop(model.system, model.certificate, policy, x0, cfg)
        assert len(traj.events) > 1
        assert len(batches) < sum(accepted)


def _periodic(model, x0, h, k_big=2.0):
    """The periodic policy with the sampled ``big_m`` of the region through
    ``x0``."""
    region = bound_sublevel_box(model.certificate, x0)
    consts, _ = estimate_constants(model.system, model.certificate, region,
                                   n=96, seed=0)
    return PeriodicEventTriggered(sigma=0.9, sigma_tilde=0.95, k_big=k_big,
                                  h=h, big_m=consts.big_m)


def _narrow_excursion_loop(spacing):
    """The unit-speed clock of :func:`_halving_loop`, whose step [a, a + 1]
    holds the grid point ``a + 1/2`` of a period ``h`` close to ``spacing``.
    The predicate margin is positive only within 0.03 of that grid point.
    Returns ``(system, certificate, x0, policy, config, a, grid point)``."""
    sysm = ControlSystem(2, 1, rhs=rowwise(lambda x, u: np.array([0.0, 1.0])))
    x0 = np.array([1.0, 0.0])
    cfg = IntegratorConfig(horizon=10.0, max_step=1.0, max_events=2)
    mesh = integrate_frozen(sysm, x0, [0.0], (0.0, 10.0), cfg).ts
    i = next(i for i in range(len(mesh) - 1)
             if mesh[i] > 2.0 and mesh[i + 1] - mesh[i] == 1.0)
    a = mesh[i]
    j = round((a + 0.5) / spacing)
    h = (a + 0.5) / j
    t_grid = j * h
    window = (t_grid - 0.03, t_grid + 0.03)

    def gradient(x):
        inside = window[0] <= x[1] <= window[1]
        return np.array([x[0], 0.5 if inside else -0.5])

    cert = ClfCertificate(value=rowwise(lambda x: 0.5 * x[0] ** 2),
                          gradient=rowwise(gradient),
                          rate=RateFunction.linear(1.0),
                          feedback=rowwise(lambda x: np.zeros(1)))
    pol = PeriodicEventTriggered(sigma=0.9, sigma_tilde=0.95, k_big=2.0,
                                 h=h, big_m=3.0)
    return sysm, cert, x0, pol, cfg, a, t_grid


class TestPeriodicScan:
    @pytest.mark.parametrize("name, x0, horizon, h, k_big", [
        ("acc", [0.0, -2.0, -4.04], 10.0, 0.3, 2.0),
        ("acc", [0.0, -2.0, -4.04], 10.0, 0.05, 2.0),
        ("acc", [0.0, -2.0, -4.04], 10.0, 0.01, 2.0),
        ("acc", [0.0, -2.0, -4.04], 10.0, 0.002, 2.0),
        ("homog2d", [0.1, 0.4], 30.0, 1.0, 2.0),
        ("homog2d", [0.1, 0.4], 30.0, 0.1, 1.2),
        ("homog2d", [0.1, 0.4], 30.0, 0.01, 1.2),
    ])
    def test_fired_times_equal_the_per_check_loop(self, name, x0, horizon, h,
                                                  k_big, acc, homog):
        model = {"acc": acc, "homog2d": homog}[name]
        x0 = np.array(x0)
        pol = _periodic(model, x0, h, k_big)
        cfg = IntegratorConfig(horizon=horizon)
        traj = run_closed_loop(model.system, model.certificate, pol, x0, cfg)
        times, states, termination = periodic_checks_reference(
            model.system, model.certificate, pol, x0, cfg)
        assert len(times) > 1
        assert [e.time for e in traj.events] == times
        assert traj.termination == termination
        for e, x in zip(traj.events, states):
            assert np.linalg.norm(e.state - x) <= 1e-6 * np.linalg.norm(x)

    @pytest.mark.parametrize("x0", [[10.0, 10.1, 10.201], [0.0, -2.0, -4.04]],
                             ids=["case1", "case2"])
    @pytest.mark.parametrize("h", [0.05, 0.005])
    def test_fired_indices_match_the_exact_recurrence(self, acc, x0, h):
        # at the default tolerances case2 with h = 0.005 fires one update a
        # grid point early at t ~ 33.9 s, where |x| ~ 3e-4 and the ratio
        # margin is within the integration error of zero; these tolerances
        # make the integrated flow exact enough for every decision
        x0 = np.array(x0)
        pol = _periodic(acc, x0, h)
        cfg = IntegratorConfig(horizon=60.0, rel_tol=1e-11, abs_tol=1e-14)
        traj = run_closed_loop(acc.system, acc.certificate, pol, x0, cfg)
        fired, termination = acc_periodic_checks(acc, pol, x0, 60.0)
        assert termination == traj.termination == "equilibrium"
        assert [e.time for e in traj.events[1:]] == [j * h for j in fired]

    def test_narrow_excursion_fires_at_its_grid_point(self):
        # one step spans [a, a + 1] and its probes sit at a + m/9.  The
        # margin is positive only on a window of width 0.06 around the grid
        # point midway between the probes m = 4 and 5, so a scan of the
        # probes alone sees no sign change; with four grid points the step
        # reads them
        sysm, cert, x0, pol, cfg, a, t_grid = _narrow_excursion_loop(0.25)
        probes = [a + m / 9 for m in range(10)]
        assert all(predicate_margin(cert, 3.0, np.array([1.0, tp]),
                                    np.array([0.0, 1.0]), 0.95, 2.0) < 0.0
                   for tp in probes)
        traj = run_closed_loop(sysm, cert, pol, x0, cfg)
        times, _, _ = periodic_checks_reference(sysm, cert, pol, x0, cfg)
        assert traj.termination == "event_cap"
        assert traj.events[1].reason == "predicate_false"
        assert traj.events[1].time == t_grid == times[1]

    @pytest.mark.xfail(raises=AssertionError,
                       reason="ROADMAP item 6: a step of more than "
                              "GUARD_PROBES + 1 grid points reads its probes, "
                              "which miss the narrow excursion")
    def test_narrow_excursion_between_probes_fires(self):
        # the same excursion on a grid of about 20 points a step: the step
        # reads its probes, which all fall outside it
        sysm, cert, x0, pol, cfg, _, t_grid = _narrow_excursion_loop(0.05)
        times, _, _ = periodic_checks_reference(sysm, cert, pol, x0, cfg)
        assert times[1] == t_grid
        traj = run_closed_loop(sysm, cert, pol, x0, cfg)
        assert traj.termination == "event_cap"
        assert traj.events[1].time == t_grid

    @settings(max_examples=300, deadline=None)
    @given(h=st.floats(1e-6, 1e3), t=st.floats(0.0, 1e6),
           m=st.integers(0, 10**6), on_grid=st.booleans())
    def test_grid_index_is_the_last_grid_point_at_or_before_t(self, h, t, m, on_grid):
        if on_grid:
            t = m * h  # a grid point, as the rounded product gives it
        j = engine._grid_index(t, h)
        assert j >= 0 and j * h <= t < (j + 1) * h
        if on_grid:
            assert j == m


class TestHorizonSlack:
    @pytest.mark.parametrize("scale, fires", [(1.0 + 5e-13, True),
                                              (1.0 + 1e-11, False)])
    def test_instants_just_past_the_horizon(self, homog, scale, fires):
        # an instant or check time at most 1e-12 (relative) past the horizon
        # is taken at the horizon; a later one is past the run.  big_m is so
        # small that the periodic predicate fails at every check
        t_past = 5.0 * scale
        cfg = IntegratorConfig(horizon=5.0)
        for pol, reason in (
                (TimeTriggered(sigma=0.9, instants=(t_past,)), "clock"),
                (PeriodicEventTriggered(sigma=0.9, sigma_tilde=0.95, k_big=2.0,
                                        h=t_past, big_m=1e-9), "predicate_false")):
            traj = run_closed_loop(homog.system, homog.certificate, pol,
                                   homog.default_x0, cfg)
            fired = [(e.time, e.reason) for e in traj.events[1:]]
            assert fired == ([(5.0, reason)] if fires else [])
            assert traj.termination == "horizon"
            assert traj.t[-1] == 5.0


class TestRateCertificate:
    @staticmethod
    def _bits(x):
        return float(x).hex()

    @pytest.mark.parametrize("preset", ["relay1d", "zeno_polar", "homog2d",
                                        "acc_case1", "acc_case2"])
    def test_excess_equals_the_row_loop(self, preset):
        cfg = load_config(preset)
        model, x0 = _model_and_x0(cfg)
        traj = run_closed_loop(model.system, model.certificate,
                               EventTriggered(sigma=cfg.sigma), x0,
                               IntegratorConfig(horizon=cfg.horizon, **cfg.integrator))
        _, excess = check_rate_certificate(traj)
        assert self._bits(excess) == self._bits(rate_excess_reference(traj.v, traj.bound))

    def test_nan_rows_are_skipped_as_the_row_loop_skips_them(self, homog):
        traj = run_closed_loop(homog.system, homog.certificate,
                               EventTriggered(sigma=0.9), homog.default_x0,
                               IntegratorConfig(horizon=10.0, output_points=11))
        v, bound = traj.v.copy(), traj.bound.copy()
        v[3], bound[5] = np.nan, np.nan
        v[7] = bound[7] + 1.0  # the worst row that is a number
        ok, excess = check_rate_certificate(replace(traj, v=v, bound=bound))
        assert not ok
        assert self._bits(excess) == self._bits(rate_excess_reference(v, bound))
        nan = np.full_like(v, np.nan)
        _, excess = check_rate_certificate(replace(traj, v=nan))
        assert excess == rate_excess_reference(nan, bound) == -math.inf


class TestRunStats:
    def test_relay_stats(self, relay):
        cfg = IntegratorConfig(horizon=3.0)
        traj = run_closed_loop(relay.system, relay.certificate,
                               EventTriggered(sigma=0.9), [1.0], cfg)
        st = run_stats(traj)
        assert st.n_events == 2
        assert st.first_event_time == pytest.approx(1.0, abs=1e-9)
        assert st.min_dwell == st.max_dwell == pytest.approx(1.0, abs=1e-9)
        assert st.max_dwell_post_first is None

    def test_periodic_schedule_stats(self, relay):
        pol = TimeTriggered(sigma=0.9, period=0.3)
        cfg = IntegratorConfig(horizon=3.0)
        traj = run_closed_loop(relay.system, relay.certificate, pol, [10.0], cfg)
        st = run_stats(traj)
        assert st.n_events == 11
        dwells = [e.dwell for e in traj.events[1:]]
        assert all(d == pytest.approx(0.3, abs=1e-12) for d in dwells)

    def test_single_event_stats_absent(self):
        st = stats_from_event_times([0.0])
        assert st.n_events == 1
        assert st.min_dwell is None and st.max_dwell is None
        assert st.mean_event_frequency is None
        with pytest.raises(DomainError):
            stats_from_event_times([])

    def test_fired_window_frequency(self):
        st = stats_from_event_times([0.0, 2.0, 3.0, 4.0])
        assert st.mean_event_frequency == pytest.approx(3.0 / 2.0)


class TestCsvArtifacts:
    def test_round_trip_and_format(self, relay, tmp_path):
        cfg = IntegratorConfig(horizon=3.0)
        traj = run_closed_loop(relay.system, relay.certificate,
                               EventTriggered(sigma=0.9), [1.0], cfg)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1,u1,V,W,event_flag"
        events = read_event_times_csv(path)
        np.testing.assert_allclose(events, [e.time for e in traj.events])
        st_csv = stats_from_event_times(events)
        st_run = run_stats(traj)
        assert st_csv.n_events == st_run.n_events
        assert st_csv.min_dwell == pytest.approx(st_run.min_dwell)

    def test_byte_identical_reruns(self, homog, tmp_path):
        paths = []
        for tag in ("a", "b"):
            cfg = IntegratorConfig(horizon=50.0)
            traj = run_closed_loop(homog.system, homog.certificate,
                                   EventTriggered(sigma=0.9),
                                   homog.default_x0, cfg)
            p = tmp_path / f"{tag}.csv"
            write_trajectory_csv(traj, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_grid_includes_horizon_and_events(self, homog, tmp_path):
        cfg = IntegratorConfig(horizon=10.0, output_points=101)
        traj = run_closed_loop(homog.system, homog.certificate,
                               EventTriggered(sigma=0.9), homog.default_x0, cfg)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(10.0)
        assert np.all(np.diff(traj.t) > 0)
        assert traj.event_flag[0] == 1
        for e in traj.events:
            assert e.time in traj.t


class TestIntegratorConfig:
    def test_defaults_resolved(self):
        cfg = IntegratorConfig(horizon=50.0)
        assert cfg.max_step == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(DomainError):
            IntegratorConfig(horizon=0.0)
        with pytest.raises(DomainError):
            IntegratorConfig(horizon=1.0, rel_tol=-1e-9)
        with pytest.raises(DomainError):
            IntegratorConfig(horizon=1.0, max_events=0)
