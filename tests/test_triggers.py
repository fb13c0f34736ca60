import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfetc import (ConfigurationError, DomainError, EventTriggered,
                    IntegratorConfig, PeriodicEventTriggered, SelfTriggered,
                    TimeTriggered, bound_sublevel_box, estimate_constants,
                    frozen_guard, integrate_frozen, predicate_p,
                    run_closed_loop)
from clfetc.cli import _model_and_x0, load_config
from clfetc.core import ClfCertificate, ControlSystem, RateFunction
from clfetc.triggers import equilibrium_threshold, predicate_margin
from oracles import frozen_guard_reference, predicate_margin_reference


class TestEventGuard:
    def test_fresh_sample_margin(self, homog):
        cert, sysm = homog.certificate, homog.system
        for x in ([0.1, 0.4], [0.3, -0.2], [-0.5, 0.1]):
            x = np.array(x)
            g = frozen_guard(cert, x, sysm.f(x, cert.u(x)), 0.9)
            assert g <= -(1.0 - 0.9) * cert.rate(cert.v(x)) + 1e-15
            assert g < 0.0

    def test_relay_guard_along_exact_flow(self, relay):
        # flow x(t) = 1 - t under u=-1: the guard is -0.2*(1-t)
        cert, sysm = relay.certificate, relay.system
        u0 = np.array([-1.0])
        for t in (0.0, 0.3, 0.9):
            x = np.array([1.0 - t])
            g = frozen_guard(cert, x, sysm.f(x, u0), 0.9)
            assert g == pytest.approx(-0.2 * (1.0 - t), rel=1e-12)

    def test_sigma_override(self, relay):
        cert, sysm = relay.certificate, relay.system
        x, u = np.array([1.0]), np.array([-1.0])
        g_low = frozen_guard(cert, x, sysm.f(x, u), 0.5)
        g_high = frozen_guard(cert, x, sysm.f(x, u), 0.99)
        assert g_low < g_high < 0.0


class TestPredicateP:
    def test_true_at_fresh_sample(self, acc):
        cert, sysm = acc.certificate, acc.system
        region = bound_sublevel_box(cert, np.array([3.0, 3.0, 3.0]))
        consts, _ = estimate_constants(sysm, cert, region, n=96, seed=0)
        for x in ([1.0, 2.0, -1.0], [3.0, 0.5, 0.1]):
            x = np.array(x)
            assert predicate_p(cert, consts.big_m, x, sysm.f(x, cert.u(x)),
                               sigma_tilde=0.95, k_big=2.0)

    def test_false_when_decrease_lost(self, relay):
        # pushing away from the origin violates the first conjunct
        cert, sysm = relay.certificate, relay.system
        x = np.array([1.0])
        assert not predicate_p(cert, 1.0, x, sysm.f(x, np.array([1.0])),
                               sigma_tilde=0.95, k_big=2.0)

    def test_ratio_boundary_inclusive(self):
        # gradient flow: ratio is exactly 2; with M=1 and K=2 the predicate
        # sits exactly on its boundary and must pass
        sysm = ControlSystem(2, 2, rhs=lambda x, u: np.asarray(u, dtype=float))
        cert = ClfCertificate(value=lambda x: 0.5 * float(x @ x),
                              gradient=lambda x: np.asarray(x, dtype=float),
                              rate=RateFunction.linear(0.1),
                              feedback=lambda x: -np.asarray(x, dtype=float))
        x = np.array([1.0, 0.0])
        fx = sysm.f(x, cert.u(x))
        assert predicate_p(cert, 1.0, x, fx, sigma_tilde=0.95, k_big=2.0)
        assert not predicate_p(cert, 1.0, x, fx, sigma_tilde=0.95, k_big=1.999)

    def test_zero_derivative_is_false(self):
        sysm = ControlSystem(1, 1, rhs=lambda x, u: np.zeros(1))
        cert = ClfCertificate(value=lambda x: float(x[0] ** 2),
                              gradient=lambda x: 2.0 * np.asarray(x),
                              rate=RateFunction.linear(1.0),
                              feedback=lambda x: np.zeros(1))
        x = np.array([1.0])
        assert not predicate_p(cert, 1.0, x, sysm.f(x, np.zeros(1)),
                               sigma_tilde=0.95, k_big=2.0)

    def test_margin_sign_matches_the_predicate(self, acc, rng):
        # held controls from other states, so that both conjuncts fail
        # somewhere; the margin is negative exactly where the predicate holds
        cert, sysm = acc.certificate, acc.system
        outcomes = set()
        for _ in range(400):
            x, x_held = rng.normal(scale=3.0, size=(2, 3))
            fx = sysm.f(x, cert.u(x_held))
            keep = predicate_p(cert, 10.0, x, fx, sigma_tilde=0.95, k_big=2.0)
            margin = predicate_margin(cert, 10.0, x, fx, 0.95, 2.0)
            assert keep == (margin < 0.0)
            outcomes.add(keep)
        assert outcomes == {True, False}
        x = np.array([1.0])  # W = 0: the predicate fails, the margin is >= 0
        still = ClfCertificate(value=lambda x: float(x[0] ** 2),
                               gradient=lambda x: 2.0 * np.asarray(x),
                               rate=RateFunction.linear(1.0),
                               feedback=lambda x: np.zeros(1))
        assert predicate_margin(still, 1.0, x, np.zeros(1), 0.95, 2.0) >= 0.0


class TestPolicyValidation:
    def test_sigma_ranges(self):
        with pytest.raises(DomainError):
            EventTriggered(sigma=0.0)
        with pytest.raises(DomainError):
            SelfTriggered(sigma=1.0, tau=1.0)
        with pytest.raises(DomainError):
            TimeTriggered(sigma=0.0, period=0.1)
        with pytest.raises(DomainError):
            TimeTriggered(sigma=1.0, instants=(0.5,))
        with pytest.raises(DomainError):
            PeriodicEventTriggered(sigma=1.0, sigma_tilde=0.95, k_big=2.0,
                                   h=0.1, big_m=1.0)

    def test_time_triggered_schedule(self):
        with pytest.raises(ConfigurationError):
            TimeTriggered(sigma=0.9)
        with pytest.raises(ConfigurationError):
            TimeTriggered(sigma=0.9, period=0.1, instants=(0.1, 0.2))
        with pytest.raises(DomainError):
            TimeTriggered(sigma=0.9, period=-1.0)
        with pytest.raises(DomainError):
            TimeTriggered(sigma=0.9, instants=(0.3, 0.2))
        pol = TimeTriggered(sigma=0.9, instants=(0.5, 1.5, 4.0))
        assert pol.next_instant(0, 0.0) == 0.5
        assert pol.next_instant(1, 0.5) == 1.5
        assert pol.next_instant(2, 1.5) == 4.0
        assert pol.next_instant(3, 4.0) is None
        per = TimeTriggered(sigma=0.9, period=0.25)
        assert per.next_instant(3, 0.75) == pytest.approx(1.0)
        # the schedule ignores the time it is called with
        assert per.next_instant(3, 0.0) == per.next_instant(3, 0.75)

    def test_periodic_parameters(self):
        with pytest.raises(DomainError):
            PeriodicEventTriggered(sigma=0.9, sigma_tilde=0.8, k_big=2.0,
                                   h=0.1, big_m=1.0)
        with pytest.raises(DomainError):
            PeriodicEventTriggered(sigma=0.9, sigma_tilde=0.95, k_big=1.0,
                                   h=0.1, big_m=1.0)


class TestNextDecision:
    def test_event_policy_fires_on_guard_sign(self, relay, homog):
        # the event policy has no clock: it fires where the guard along the
        # frozen control stops being negative
        cert, sysm = relay.certificate, relay.system
        pol = EventTriggered(sigma=0.9)
        assert not hasattr(pol, "next_instant")
        u_n = cert.u(np.array([1.0]))
        x_in, x_out = np.array([0.5]), np.array([-0.2])
        assert frozen_guard(cert, x_in, sysm.f(x_in, u_n), pol.sigma) < 0.0
        assert frozen_guard(cert, x_out, sysm.f(x_out, u_n), pol.sigma) >= 0.0
        traj = run_closed_loop(homog.system, homog.certificate, pol,
                               homog.default_x0, IntegratorConfig(horizon=10.0))
        assert traj.events[1].reason == "guard_zero"

    def test_self_policy_clock(self):
        pol = SelfTriggered(sigma=0.9, tau=0.3)
        assert pol.next_instant(0, 0.0) == pytest.approx(0.3)
        assert pol.next_instant(4, 0.5) == pytest.approx(0.8)

    def test_equilibrium_frozen(self, relay):
        # x(t) = 1 - t reaches the origin at the second clock instant; the
        # control freezes there and nothing fires afterwards
        cert = relay.certificate
        pol = SelfTriggered(sigma=0.9, tau=0.5)
        traj = run_closed_loop(relay.system, cert, pol, [1.0],
                               IntegratorConfig(horizon=3.0))
        assert [e.time for e in traj.events] == [0.0, 0.5, 1.0]
        assert traj.events[2].reason == "equilibrium_frozen"
        assert traj.termination == "equilibrium"
        np.testing.assert_array_equal(traj.events[2].control, cert.u(np.zeros(1)))

    def test_periodic_checks_only_on_grid(self, acc):
        cert, sysm = acc.certificate, acc.system
        region = bound_sublevel_box(cert, np.array([3.0, 3.0, 3.0]))
        consts, _ = estimate_constants(sysm, cert, region, n=96, seed=0)
        pol = PeriodicEventTriggered(sigma=0.9, sigma_tilde=0.95, k_big=2.0,
                                     h=0.01, big_m=consts.big_m)
        x0 = np.array([1.0, 2.0, -1.0])
        # checks land on integer multiples of h, never at an off-grid time
        cfg = IntegratorConfig(horizon=1.0)
        fired = [e.time for e in run_closed_loop(sysm, cert, pol, x0, cfg).events[1:]]
        assert fired and all(t == round(t / pol.h) * pol.h for t in fired)
        # a fresh sample satisfies the predicate, so the very next check
        # cannot fire: simulate one h-step and evaluate there
        u_n = cert.u(x0)
        segm = integrate_frozen(sysm, x0, u_n, (0.0, 0.01), cfg)
        x1 = segm.ys[-1]
        assert predicate_p(cert, pol.big_m, x1, sysm.f(x1, u_n),
                           pol.sigma_tilde, pol.k_big)


class TestRunLevelInvariants:
    def test_refresh_margin_and_predicate(self, acc):
        # right after every update with nonzero state the guard is strictly
        # negative and the periodic predicate is true
        cert, sysm = acc.certificate, acc.system
        region = bound_sublevel_box(cert, np.array([4.0, 4.0, 4.0]))
        consts, _ = estimate_constants(sysm, cert, region, n=96, seed=0)
        cfg = IntegratorConfig(horizon=10.0)
        traj = run_closed_loop(sysm, cert, EventTriggered(sigma=0.9),
                               [2.0, 2.02, 2.04], cfg)
        eps = equilibrium_threshold(float(traj.v[0]))
        for e in traj.events:
            if cert.v(e.state) <= eps:
                continue
            g = frozen_guard(cert, e.state, sysm.f(e.state, e.control), 0.9)
            assert g < 0.0
            assert predicate_p(cert, consts.big_m, e.state,
                               sysm.f(e.state, e.control),
                               sigma_tilde=0.95, k_big=2.0)

    def test_relay_event_schedule(self, relay):
        cfg = IntegratorConfig(horizon=3.0)
        traj = run_closed_loop(relay.system, relay.certificate,
                               EventTriggered(sigma=0.9), [1.0], cfg)
        times = [e.time for e in traj.events]
        assert times[0] == 0.0
        assert times[1] == pytest.approx(1.0, abs=1e-9)
        assert len(times) == 2
        assert traj.events[1].reason == "equilibrium_frozen"

    def test_self_triggered_arithmetic_clock(self, relay):
        cfg = IntegratorConfig(horizon=1.0)
        pol = SelfTriggered(sigma=0.9, tau=0.3)
        traj = run_closed_loop(relay.system, relay.certificate, pol, [1.0], cfg)
        times = [e.time for e in traj.events]
        np.testing.assert_allclose(times, [0.0, 0.3, 0.6, 0.9], atol=1e-12)
        assert [e.reason for e in traj.events[1:]] == ["clock"] * 3

    def test_self_triggered_zero_dwell_rejected(self):
        for tau in (0.0, -0.3, math.nan):
            with pytest.raises(DomainError):
                SelfTriggered(sigma=0.9, tau=tau)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_clock_parameters_must_be_finite(self, bad):
        with pytest.raises(DomainError):
            TimeTriggered(sigma=0.9, period=bad)
        for instants in ((bad,), (0.5, bad), (bad, 0.5)):
            with pytest.raises(DomainError):
                TimeTriggered(sigma=0.9, instants=instants)
        good = dict(sigma=0.9, sigma_tilde=0.95, k_big=2.0, h=0.1, big_m=1.0)
        PeriodicEventTriggered(**good)
        for name in ("k_big", "h", "big_m"):
            with pytest.raises(DomainError):
                PeriodicEventTriggered(**dict(good, **{name: bad}))

    def test_time_triggered_list_exhausted(self, relay):
        # after the last listed instant the loop runs to the horizon frozen
        pol = TimeTriggered(sigma=0.9, instants=(0.2, 0.5))
        traj = run_closed_loop(relay.system, relay.certificate, pol, [1.0],
                               IntegratorConfig(horizon=1.0))
        assert [e.time for e in traj.events] == [0.0, 0.2, 0.5]
        assert [e.reason for e in traj.events[1:]] == ["clock", "clock"]
        assert traj.termination == "horizon"
        assert traj.t[-1] == 1.0


@functools.lru_cache(maxsize=None)
def _preset(name):
    """A preset's model and its scale, the largest coordinate of its x0."""
    model, x0 = _model_and_x0(load_config(name))
    return model, float(np.max(np.abs(x0)))


@st.composite
def _states(draw, d, scale, k):
    """``k`` states whose coordinates have magnitudes from 1e-6 to ten
    times ``scale``, spread over the decades, and either sign."""
    decade = st.floats(-6.0, math.log10(10.0 * scale))
    return np.array([[draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(decade)
                      for _ in range(d)] for _ in range(k)])


class TestBatchedReads:
    @pytest.mark.parametrize("preset", ["relay1d", "zeno_polar", "homog2d", "acc_case1"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_batches_equal_the_one_state_reads(self, preset, data):
        # the engine reads a step's probes in one batch; each row must have
        # the bits of the one-state read it replaced.  Held controls come
        # from other states, so that both signs of each read occur
        model, scale = _preset(preset)
        sysm, cert = model.system, model.certificate
        k = data.draw(st.integers(1, 10))
        xs = data.draw(_states(sysm.state_dim, scale, k))
        us = cert.u(data.draw(_states(sysm.state_dim, scale, k)))
        fxs = sysm.f(xs, us)
        sigma = data.draw(st.floats(0.05, 0.95))
        big_m = data.draw(st.floats(0.1, 100.0))
        guards = frozen_guard(cert, xs, fxs, sigma)
        margins = predicate_margin(cert, big_m, xs, fxs, 0.95, 2.0)
        assert guards.shape == margins.shape == (k,)
        for x, u, fx_row, g, m in zip(xs, us, fxs, guards.tolist(), margins.tolist()):
            fx = sysm.f(x, u)
            assert fx.tobytes() == fx_row.tobytes()
            one_g = frozen_guard(cert, x, fx, sigma)
            one_m = predicate_margin(cert, big_m, x, fx, 0.95, 2.0)
            assert type(one_g) is type(one_m) is float
            ref_g = frozen_guard_reference(cert, x, fx, sigma)
            ref_m = predicate_margin_reference(cert, big_m, x, fx, 0.95, 2.0)
            assert g.hex() == one_g.hex() == ref_g.hex()
            assert m.hex() == one_m.hex() == ref_m.hex()
