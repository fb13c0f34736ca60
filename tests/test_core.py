import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfetc import (ClfCertificate, ControlSystem, DomainError, EnergyTimeMap,
                    RateFunction, convergence_bound, lyapunov_derivative,
                    verify_clf_pointwise)
from clfetc.core import finite_difference_gradient
from clfetc.errors import DimensionMismatchError


def emap(rate):
    return EnergyTimeMap.from_rate(rate)


class TestEnergyTimeMap:
    def test_linear_closed_form(self):
        m = emap(RateFunction.linear(1.0))
        assert m.gamma_big(math.e ** 2) == pytest.approx(2.0, rel=1e-12)
        # the linear rate is the power rate with exponent 1, bit for bit
        for ae in (0.7, 1.0, 2.02):
            rate = RateFunction.linear(ae)
            m = emap(rate)
            assert (m.lower_limit, m.upper_limit) == (-math.inf, math.inf)
            for v in (1e-3, 0.4, 1.0, 7.5):
                assert rate(v) == ae * v
                assert rate.gamma_prime(v) == ae
                assert m.gamma_big(v) == math.log(v) / ae

    def test_empty_integral(self):
        for rate in (RateFunction.linear(0.7), RateFunction.power(2.0, 0.5),
                     RateFunction.custom(lambda v: 1.0 + v * v)):
            assert emap(rate).gamma_big(1.0) == 0.0

    def test_power_closed_form(self):
        m = emap(RateFunction.power(1.0, 2.0))
        assert m.gamma_big(2.0) == pytest.approx(0.5, rel=1e-12)

    def test_linear_inverse(self):
        m = emap(RateFunction.linear(1.0))
        assert m.gamma_big_inverse(2.0) == pytest.approx(math.e ** 2, rel=1e-12)
        for ae in (0.7, 1.0, 2.02):
            m = emap(RateFunction.linear(ae))
            for r in (-3.0, -0.2, 0.0, 1.3):
                assert m.gamma_big_inverse(r) == math.exp(ae * r)

    def test_inverse_round_trip(self):
        m = emap(RateFunction.linear(2.0))
        assert m.gamma_big_inverse(m.gamma_big(5.0)) == pytest.approx(5.0, rel=1e-10)

    def test_clamp_below_lower_limit(self):
        # sqrt-rate: the map has a finite lower limit, below which the
        # inverse is defined to vanish
        m = emap(RateFunction.power(2.0, 0.5))
        assert m.lower_limit == pytest.approx(-1.0)
        assert m.gamma_big_inverse(m.lower_limit - 1.0) == 0.0

    def test_domain_errors(self):
        m = emap(RateFunction.power(1.0, 2.0))
        with pytest.raises(DomainError):
            m.gamma_big(0.0)
        with pytest.raises(DomainError):
            m.gamma_big(-1.0)
        assert m.upper_limit == pytest.approx(1.0)
        with pytest.raises(DomainError):
            m.gamma_big_inverse(1.0)

    def test_strict_monotonicity(self):
        for rate in (RateFunction.linear(0.5), RateFunction.power(2.0, 3.0),
                     RateFunction.power(1.0, 0.5),
                     RateFunction.custom(lambda v: 2.0 + math.sin(v))):
            m = emap(rate)
            grid = np.logspace(-3, 3, 25)
            vals = [m.gamma_big(s) for s in grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-6, max_value=6))
    def test_round_trip_property(self, log_s):
        s = 10.0 ** log_s
        m = emap(RateFunction.power(1.5, 2.0))
        assert abs(m.gamma_big_inverse(m.gamma_big(s)) - s) <= 1e-8 * max(1.0, s)

    def test_quadrature_matches_closed_forms(self):
        # identical gamma evaluated through the custom (quadrature) path
        cases = [
            (RateFunction.linear(0.5), lambda v: 0.5 * v),
            (RateFunction.linear(2.0), lambda v: 2.0 * v),
            (RateFunction.power(1.0, 2.0), lambda v: v ** 2),
            (RateFunction.power(2.0, 0.5), lambda v: 2.0 * math.sqrt(v)),
            (RateFunction.power(1.5, 3.0), lambda v: 1.5 * v ** 3),
        ]
        for rate, g in cases:
            closed = emap(rate)
            quad = emap(RateFunction.custom(g))
            for s in np.logspace(-2, 2, 17):
                a = closed.gamma_big(s)
                b = quad.gamma_big(s)
                assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    def test_custom_inverse_bisection(self):
        rate = RateFunction.custom(lambda v: 2.0 + math.sin(v))
        m = emap(rate)
        for s in (0.02, 0.7, 1.0, 3.0, 40.0):
            r = m.gamma_big(s)
            assert m.gamma_big_inverse(r) == pytest.approx(s, rel=1e-8)

    def test_custom_declared_lower_limit_clamps(self):
        m = EnergyTimeMap.from_rate(
            RateFunction.custom(lambda v: 2.0 * math.sqrt(v)), lower_limit=-1.0)
        assert m.gamma_big_inverse(-2.0) == 0.0
        assert m.gamma_big_inverse(1.0) == pytest.approx(4.0, rel=1e-8)


class TestConvergenceBound:
    def test_exponential_decay(self):
        # sigma=1 is the continuous-time envelope
        m = emap(RateFunction.linear(1.0))
        assert m.bound_after(4.0, 1.0, sigma=1.0) == pytest.approx(
            4.0 * math.exp(-1.0), rel=1e-12)

    def test_zero_time(self):
        cert = _quadratic_cert(RateFunction.power(1.0, 2.0), sigma=0.9)
        assert convergence_bound(cert, 0.085, 0.0) == pytest.approx(0.085)

    def test_quadratic_rate_against_ode_solution(self):
        # independent oracle: Vdot = -sigma V^2 integrates to
        # V(t) = 1 / (1/V0 + sigma t)
        cert = _quadratic_cert(RateFunction.power(1.0, 2.0), sigma=0.9)
        v0, t = 0.085, 10.0
        expected = 1.0 / (1.0 / v0 + 0.9 * t)
        assert convergence_bound(cert, v0, t) == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(0.04816, abs=1e-5)

    def test_monotone_nonincreasing_in_time(self):
        cert = _quadratic_cert(RateFunction.power(2.0, 0.5), sigma=0.5)
        ts = np.linspace(0.0, 5.0, 40)
        vals = [convergence_bound(cert, 3.0, t) for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(3.0)

    def test_equilibrium_short_circuit(self):
        cert = _quadratic_cert(RateFunction.linear(1.0), sigma=0.5)
        assert convergence_bound(cert, 0.0, 3.0) == 0.0
        with pytest.raises(DomainError):
            convergence_bound(cert, -1.0, 3.0)


def _quadratic_cert(rate, sigma=0.9):
    return ClfCertificate(
        value=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: np.asarray(x, dtype=float),
        rate=rate,
        feedback=lambda x: -np.asarray(x, dtype=float),
        sigma=sigma,
    )


class TestLyapunovDerivative:
    def test_relay_value(self, relay):
        w = lyapunov_derivative(relay.certificate, relay.system,
                                np.array([0.5]), np.array([-1.0]))
        assert w == pytest.approx(-1.0, rel=1e-12)

    def test_zero_field(self):
        sys = ControlSystem(1, 1, rhs=lambda x, u: np.zeros(1))
        cert = ClfCertificate(value=lambda x: float(x[0] ** 2),
                              gradient=lambda x: 2.0 * np.asarray(x),
                              rate=RateFunction.linear(1.0),
                              feedback=lambda x: np.zeros(1))
        assert lyapunov_derivative(cert, sys, np.array([3.0]), np.zeros(1)) == 0.0

    def test_homogeneous_identity_point(self, homog):
        x = np.array([0.1, 0.4])
        u = homog.certificate.u(x)
        w = lyapunov_derivative(homog.certificate, homog.system, x, u)
        assert w == pytest.approx(-(0.1 ** 4 + 0.4 ** 4), rel=1e-12)
        assert w == pytest.approx(-0.0257, abs=1e-6)

    def test_dimension_mismatch(self, relay):
        with pytest.raises(DimensionMismatchError):
            lyapunov_derivative(relay.certificate, relay.system,
                                np.array([1.0, 2.0]), np.array([0.0]))


class TestVerifyClfPointwise:
    def test_acc_random_samples_clean(self, acc, rng):
        samples = rng.uniform(-20.0, 20.0, size=(1000, 3))
        report = verify_clf_pointwise(acc.certificate, acc.system, samples)
        assert report.ok
        assert report.n_samples == 1000

    def test_equilibrium_skipped(self, relay):
        report = verify_clf_pointwise(relay.certificate, relay.system,
                                      [np.zeros(1), np.array([1.0])])
        assert report.n_skipped == 1
        assert report.ok

    def test_wrong_feedback_reported(self, relay):
        broken = ClfCertificate(
            value=relay.certificate.value,
            gradient=relay.certificate.gradient,
            rate=relay.certificate.rate,
            feedback=lambda x: np.zeros(1),
            sigma=0.9,
        )
        report = verify_clf_pointwise(broken, relay.system, [np.array([1.0])])
        assert not report.ok
        assert report.violations[0][2] == pytest.approx(2.0)

    def test_empty_samples_rejected(self, relay):
        with pytest.raises(DomainError):
            verify_clf_pointwise(relay.certificate, relay.system, [])


class TestGradientConsistency:
    @pytest.mark.parametrize("name", ["acc", "homog", "relay", "zeno"])
    def test_matches_finite_differences(self, name, request, rng):
        model = request.getfixturevalue(name)
        cert = model.certificate
        d = model.system.state_dim
        for _ in range(25):
            x = rng.uniform(-3.0, 3.0, size=d)
            g = cert.grad(x)
            fd = finite_difference_gradient(cert.v, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))


class TestRateFunction:
    def test_positivity_enforced(self):
        bad = RateFunction.custom(lambda v: v - 1.0)
        with pytest.raises(DomainError):
            bad(0.5)

    def test_prime_matches_finite_differences(self):
        for rate in (RateFunction.linear(1.7), RateFunction.power(2.0, 3.0)):
            for v in (0.3, 1.0, 4.2):
                h = 1e-6 * (1.0 + v)
                fd = (rate.gamma(v + h) - rate.gamma(v - h)) / (2 * h)
                assert rate.gamma_prime(v) == pytest.approx(fd, rel=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            RateFunction.linear(0.0)
        with pytest.raises(DomainError):
            RateFunction.power(1.0, -1.0)

    def test_certificate_sigma_validation(self):
        with pytest.raises(DomainError):
            _quadratic_cert(RateFunction.linear(1.0), sigma=1.0)

    def test_sampled_validation(self):
        RateFunction.linear(2.0).validate_samples(10.0)
        RateFunction.power(1.0, 2.0).validate_samples(5.0)
        lying_monotone = RateFunction.custom(lambda v: 2.0 + math.sin(3 * v),
                                             monotone_nondecreasing=True)
        with pytest.raises(DomainError):
            lying_monotone.validate_samples(5.0)
        wrong_prime = RateFunction.custom(lambda v: v * v,
                                          gamma_prime=lambda v: 3.0 * v)
        with pytest.raises(DomainError):
            wrong_prime.validate_samples(5.0)
