import math

import numpy as np
import pytest

from clfetc import (ConfigurationError, DomainError, EventTriggered,
                    IntegratorConfig, MODEL_NAMES, acc_backstepping,
                    bound_sublevel_box, build_model, estimate_big_m,
                    homogeneous_planar, run_closed_loop,
                    sample_in_region, verify_clf_pointwise,
                    zeno_first_event_bound, zeno_polar)
from clfetc.cli import _model_and_x0, load_config, parse_config
from clfetc.models import acc_physical_from_state, acc_state_from_physical


class TestAccBacksteppingModel:
    def test_closed_loop_field_identity(self, acc, rng):
        k = acc.params["k"]
        for _ in range(100):
            x = rng.uniform(-10, 10, size=3)
            fbar = acc.system.f(x, acc.certificate.u(x))
            expected = np.array([x[1] - k * x[0], x[2] - k * x[1], x[0] - k * x[2]])
            np.testing.assert_allclose(fbar, expected, atol=1e-10)

    def test_rate_identity(self, acc, rng):
        # V' Fbar + 2(k-1) V = -(squared pairwise differences)/2
        k = acc.params["k"]
        cert = acc.certificate
        for _ in range(100):
            x = rng.uniform(-10, 10, size=3)
            w = float(cert.grad(x) @ acc.system.f(x, cert.u(x)))
            q = 0.5 * ((x[0] - x[1]) ** 2 + (x[0] - x[2]) ** 2 + (x[1] - x[2]) ** 2)
            assert w + 2 * (k - 1) * cert.v(x) == pytest.approx(-q, rel=1e-9, abs=1e-9)

    def test_case_initial_conditions(self, acc):
        from clfetc.cli import load_config
        case1, case2 = load_config("acc_case1"), load_config("acc_case2")
        k = case1.model_params["k"]
        assert case2.model_params["k"] == k == acc.params["k"]
        np.testing.assert_allclose(case1.x0, [10.0, 10.0 * k, 10.0 * k * k])
        np.testing.assert_allclose(acc.default_x0, [10.0, 10.0 * k, 10.0 * k * k])
        np.testing.assert_allclose(case2.x0, [0.0, -2.0, -4.0 * k])

    def test_coordinate_round_trip(self, rng):
        k, v0, d0 = 1.01, 20.0, 10.0
        for _ in range(50):
            d, v, a = rng.uniform(-30, 30, size=3)
            x = acc_state_from_physical(d, v, a, k, v0, d0)
            back = acc_physical_from_state(x, k, v0, d0)
            np.testing.assert_allclose(back, (d, v, a), atol=1e-12)

    def test_gain_validation(self):
        with pytest.raises(DomainError):
            acc_backstepping(k=1.0)
        with pytest.raises(DomainError):
            acc_backstepping(tau_lag=0.0)

    def test_speed_dependent_lag(self):
        # the closed loop does not depend on the lag
        x = np.array([1.0, 2.0, 3.0])
        for tau_lag in (0.05, 0.3, 2.0):
            m = acc_backstepping(tau_lag=tau_lag)
            fbar = m.system.f(x, m.certificate.u(x))
            k = m.params["k"]
            expected = np.array([x[1] - k * x[0], x[2] - k * x[1], x[0] - k * x[2]])
            np.testing.assert_allclose(fbar, expected, atol=1e-10)


class TestHomogeneousPlanarModel:
    def test_decrease_identity(self, homog, rng):
        cert = homog.certificate
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            w = float(cert.grad(x) @ homog.system.f(x, cert.u(x)))
            assert w == pytest.approx(-(x[0] ** 4 + x[1] ** 4), rel=1e-10, abs=1e-12)

    def test_cubic_homogeneity(self, homog, rng):
        for _ in range(30):
            x = rng.uniform(-1, 1, size=2)
            lam = rng.uniform(0.2, 3.0)
            f1 = homog.system.f(lam * x, homog.certificate.u(lam * x))
            f2 = lam ** 3 * homog.system.f(x, homog.certificate.u(x))
            np.testing.assert_allclose(f1, f2, rtol=1e-9, atol=1e-12)

    def test_preset_initial_condition(self, homog):
        np.testing.assert_allclose(homog.default_x0, [0.1, 0.4])
        assert load_config("homog2d").policy["sigma"] == 0.9

    def test_rate_variants(self):
        m1 = homogeneous_planar(rate_scale=1.0)
        m2 = homogeneous_planar(rate_scale=0.5)
        assert m1.certificate.rate(2.0) == pytest.approx(4.0)
        assert m2.certificate.rate(2.0) == pytest.approx(2.0)
        with pytest.raises(DomainError):
            homogeneous_planar(rate_scale=0.3)


class TestZenoPolarModel:
    def test_decrease_identity(self, zeno, rng):
        cert = zeno.certificate
        for _ in range(100):
            x = rng.uniform(-1, 1, size=2)
            if np.linalg.norm(x) < 1e-6:
                continue
            w = float(cert.grad(x) @ zeno.system.f(x, cert.u(x)))
            r2 = float(x @ x)
            assert w == pytest.approx(-r2, rel=1e-12)
            assert cert.rate(cert.v(x)) == pytest.approx(r2, rel=1e-12)

    def test_speed_identity(self, zeno, rng):
        for _ in range(100):
            x = rng.uniform(-1, 1, size=2)
            r = np.linalg.norm(x)
            if r < 1e-6:
                continue
            fbar = zeno.system.f(x, zeno.certificate.u(x))
            assert float(fbar @ fbar) == pytest.approx(2 * r * r + 2 * r + 1, rel=1e-12)

    def test_first_event_bound_value(self):
        s = math.sqrt(1.25)
        expected = 0.5 * s * math.atan(0.5) / (0.5 * s + 0.75)
        assert zeno_first_event_bound(0.5) == pytest.approx(expected, rel=1e-12)

    def test_radius_validation(self):
        with pytest.raises(DomainError):
            zeno_polar(r_star=0.0)
        with pytest.raises(DomainError):
            zeno_polar(r_star=1.0)
        with pytest.raises(DomainError):
            zeno_first_event_bound(2.0)

    def test_initial_condition_on_circle(self):
        m = zeno_polar(r_star=0.25, phi_star=1.2)
        assert np.linalg.norm(m.default_x0) == pytest.approx(0.25)

    def test_feedback_zero_at_origin(self, zeno):
        np.testing.assert_array_equal(zeno.certificate.u(np.zeros(2)), np.zeros(2))


class TestRelayModel:
    def test_decrease_identity(self, relay, rng):
        cert = relay.certificate
        for _ in range(50):
            x = rng.uniform(-3, 3, size=1)
            if abs(x[0]) < 1e-9:
                continue
            w = float(cert.grad(x) @ relay.system.f(x, cert.u(x)))
            assert w == pytest.approx(-2.0 * abs(x[0]), rel=1e-12)
            assert cert.rate(cert.v(x)) == pytest.approx(2.0 * abs(x[0]), rel=1e-12)

    def test_finite_time_level_map(self, relay):
        # the energy-time map hits its lower limit after time sqrt(V0),
        # the exact convergence time of the sign-corrected relay flow
        emap = relay.certificate.energy_map
        for x0 in (1.0, 0.25, 3.0):
            v0 = x0 * x0
            t_star = emap.gamma_big(v0) - emap.lower_limit
            assert t_star == pytest.approx(abs(x0), rel=1e-12)
            assert emap.bound_after(v0, t_star, sigma=1.0) == 0.0

    def test_event_schedule_sign_corrected(self, relay):
        for x0 in (0.5, -2.0):
            cfg = IntegratorConfig(horizon=abs(x0) + 1.0)
            traj = run_closed_loop(relay.system, relay.certificate,
                                   EventTriggered(sigma=0.5), [x0], cfg)
            times = [e.time for e in traj.events]
            assert times[1] == pytest.approx(abs(x0), abs=1e-9)
            np.testing.assert_array_equal(traj.events[1].control, [0.0])


class TestAssumptionStatus:
    @pytest.mark.parametrize("name", ["acc", "homog", "relay", "zeno"])
    def test_clf_inequality_holds_everywhere(self, name, request):
        model = request.getfixturevalue(name)
        cert, sysm = model.certificate, model.system
        region = bound_sublevel_box(cert, model.default_x0)
        samples = sample_in_region(cert, region, 10_000, seed=0)
        report = verify_clf_pointwise(cert, sysm, samples)
        assert report.ok, f"{model.name}: {len(report.violations)} violations"

    @pytest.mark.parametrize("name,expected", [
        ("acc", False), ("homog", False), ("relay", True), ("zeno", True)])
    def test_nondegeneracy_matches_declared_status(self, name, expected, request):
        model = request.getfixturevalue(name)
        region = bound_sublevel_box(model.certificate, model.default_x0)
        pts = sample_in_region(model.certificate, region, 128, seed=0)
        rep = estimate_big_m(model.system, model.certificate, region, pts, seed=0)
        assert rep.diverging == expected
        declared = model.expected_assumption_status == "violates_nondegeneracy"
        assert rep.diverging == declared


class TestRegistry:
    def test_names(self):
        assert set(MODEL_NAMES) == {"acc", "homog2d", "zeno-polar", "relay1d"}

    def test_build_with_params(self):
        m = build_model("acc", {"k": 1.5})
        assert m.params["k"] == 1.5
        # sigma is no model parameter, and the CLI passes model.params to
        # the builder as given: sigma is set only under policy
        with pytest.raises(ConfigurationError):
            build_model("acc", {"k": 1.5, "sigma": 0.8})
        cfg = parse_config({"model": {"name": "acc",
                                      "params": {"k": 1.5, "sigma": 0.8}}})
        with pytest.raises(ConfigurationError, match="unexpected keyword argument 'sigma'"):
            _model_and_x0(cfg)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            build_model("pendulum")

    def test_unknown_parameter(self):
        with pytest.raises(ConfigurationError):
            build_model("relay1d", {"gain": 2.0})
