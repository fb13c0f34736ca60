import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfetc import (ClfCertificate, ControlSystem, DomainError, EnergyTimeMap,
                    RateFunction, verify_clf_pointwise)
from clfetc.core import finite_difference_jacobian, rowwise, velocity_ratio
from clfetc.errors import DimensionMismatchError
from clfetc.models import MODEL_NAMES, build_model


def emap(rate):
    return EnergyTimeMap(rate)


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


class TestConvergenceBound:
    def test_exponential_decay(self):
        # sigma=1 is the continuous-time envelope
        m = emap(RateFunction.linear(1.0))
        assert m.bound_after(4.0, 1.0, sigma=1.0) == pytest.approx(
            4.0 * math.exp(-1.0), rel=1e-12)

    def test_zero_time(self):
        cert = _quadratic_cert(RateFunction.power(1.0, 2.0))
        assert cert.energy_map.bound_after(0.085, 0.0, 0.9) == \
            pytest.approx(0.085)

    def test_quadratic_rate_against_ode_solution(self):
        # independent oracle: Vdot = -sigma V^2 integrates to
        # V(t) = 1 / (1/V0 + sigma t)
        cert = _quadratic_cert(RateFunction.power(1.0, 2.0))
        v0, t = 0.085, 10.0
        expected = 1.0 / (1.0 / v0 + 0.9 * t)
        assert cert.energy_map.bound_after(v0, t, 0.9) == pytest.approx(
            expected, rel=1e-10)
        assert expected == pytest.approx(0.04816, abs=1e-5)

    def test_monotone_nonincreasing_in_time(self):
        cert = _quadratic_cert(RateFunction.power(2.0, 0.5))
        ts = np.linspace(0.0, 5.0, 40)
        vals = [cert.energy_map.bound_after(3.0, t, 0.5) for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(3.0)

    def test_equilibrium_short_circuit(self):
        cert = _quadratic_cert(RateFunction.linear(1.0))
        assert cert.energy_map.bound_after(0.0, 3.0, 0.5) == 0.0
        with pytest.raises(DomainError):
            cert.energy_map.bound_after(-1.0, 3.0, 0.5)


def _quadratic_cert(rate):
    return ClfCertificate(
        value=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: np.asarray(x, dtype=float),
        rate=rate,
        feedback=lambda x: -np.asarray(x, dtype=float),
    )


def _w(cert, sys, x, u) -> float:
    """``W(x, u) = V'(x) F(x, u)`` through the checked field."""
    return float(cert.grad(x) @ sys.f(x, u))


class TestLyapunovDerivative:
    def test_relay_value(self, relay):
        w = _w(relay.certificate, relay.system, np.array([0.5]), np.array([-1.0]))
        assert w == pytest.approx(-1.0, rel=1e-12)

    def test_zero_field(self):
        sys = ControlSystem(1, 1, rhs=lambda x, u: np.zeros_like(x))
        cert = ClfCertificate(value=lambda x: x[..., 0] ** 2,
                              gradient=lambda x: 2.0 * np.asarray(x),
                              rate=RateFunction.linear(1.0),
                              feedback=lambda x: np.zeros_like(x))
        assert _w(cert, sys, np.array([3.0]), np.zeros(1)) == 0.0
        # the pointwise check sees the same W: its margin is gamma(V) + 0
        report = verify_clf_pointwise(cert, sys, [np.array([3.0])])
        assert report.worst_margin == 9.0

    def test_homogeneous_identity_point(self, homog):
        x = np.array([0.1, 0.4])
        u = homog.certificate.u(x)
        w = _w(homog.certificate, homog.system, x, u)
        assert w == pytest.approx(-(0.1 ** 4 + 0.4 ** 4), rel=1e-12)
        assert w == pytest.approx(-0.0257, abs=1e-6)

    def test_dimension_mismatch(self, relay):
        with pytest.raises(DimensionMismatchError):
            _w(relay.certificate, relay.system, np.array([1.0, 2.0]), np.array([0.0]))


class TestFrozenField:
    @pytest.mark.parametrize("lifted", [False, True], ids=["last_axis", "rowwise"])
    @pytest.mark.parametrize("name", ["acc", "homog", "relay", "zeno"])
    def test_a_batch_gives_the_bits_of_each_state(self, name, lifted, request, rng):
        model = request.getfixturevalue(name)
        sysm = model.system
        if lifted:
            sysm = replace(sysm, rhs=rowwise(sysm.rhs))
        ys = rng.uniform(-3.0, 3.0, size=(17, sysm.state_dim))
        u = model.certificate.u(rng.uniform(-3.0, 3.0, size=sysm.state_dim))
        f = sysm.frozen(u)
        assert [[c.hex() for c in row] for row in f(ys).tolist()] == [
            [c.hex() for c in f(y).tolist()] for y in ys]

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(MODEL_NAMES), data=st.data())
    def test_the_float_form_has_the_bits_of_rhs(self, name, data):
        # on one state and on each row of a batch, over the whole float
        # range with signed zeros and infinities: where Python's pow
        # overflows, the float form takes the state through rhs
        sysm = build_model(name).system
        coords = st.floats(allow_nan=False)
        ys = np.array(data.draw(st.lists(
            st.lists(coords, min_size=sysm.state_dim, max_size=sysm.state_dim),
            min_size=1, max_size=4)))
        u = np.array(data.draw(st.lists(coords, min_size=sysm.input_dim,
                                        max_size=sysm.input_dim)))
        f = sysm.frozen(u)
        with np.errstate(all="ignore"):
            batch = sysm.rhs(ys, np.tile(u, (len(ys), 1))).tolist()
            for y, row in zip(ys, batch):
                want = [c.hex() for c in sysm.rhs(y, u).tolist()]
                assert [c.hex() for c in row] == want
                assert [c.hex() for c in sysm.rhs.point(y.tolist(), u.tolist())] == want
                assert [c.hex() for c in f.point(y.tolist())] == want

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_every_model_has_a_float_form(self, name):
        # a model without one would run through the adapter, unnoticed
        assert callable(build_model(name).system.rhs.point)

    def test_a_batch_result_of_the_wrong_shape_raises(self):
        # written for one state: on a batch it returns one row, which numpy
        # would broadcast over every state
        sysm = ControlSystem(2, 1, rhs=lambda x, u: np.array([0.0, 1.0]))
        f = sysm.frozen(np.zeros(1))
        assert f(np.ones(2)).tolist() == [0.0, 1.0]  # one state: unchecked
        with pytest.raises(DimensionMismatchError,
                           match=r"^rhs returned shape \(2,\), expected \(3, 2\)"):
            f(np.ones((3, 2)))


class TestVelocityRatio:
    def test_values(self):
        g = np.array([3.0, 4.0])
        # parallel and opposed: (5*10 + 100) / 50
        assert velocity_ratio(g, -2.0 * g) == 3.0
        # W = 0 with a moving state is unbounded; a resting one gives 0
        assert velocity_ratio(g, np.array([-4.0, 3.0])) == math.inf
        assert velocity_ratio(g, np.zeros(2)) == 0.0


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
            feedback=lambda x: np.zeros_like(x),
        )
        report = verify_clf_pointwise(broken, relay.system, [np.array([1.0])])
        assert not report.ok
        assert report.violations[0][2] == pytest.approx(2.0)

    def test_empty_samples_rejected(self, relay):
        with pytest.raises(DomainError):
            verify_clf_pointwise(relay.certificate, relay.system, [])

    def test_non_finite_control_rejected(self, homog):
        # the feedback's control is checked at each sample where W uses it
        bad = np.array([0.3, -0.2])
        cert = replace(homog.certificate, feedback=lambda x: np.where(
            np.all(x == bad, axis=-1)[..., None], np.nan, homog.certificate.feedback(x)))
        samples = [np.array([0.1, 0.4]), bad, np.array([-0.5, 0.1])]
        with pytest.raises(DomainError, match="control"):
            verify_clf_pointwise(cert, homog.system, samples)
        assert verify_clf_pointwise(cert, homog.system, samples[::2]).ok

    @pytest.mark.parametrize("samples", [
        [np.array([1.0]), np.zeros(2)],           # one row too long, at the origin
        [np.zeros(2)],                            # every row, at the origin
        [np.array([1.0]), np.array([0.5, 0.5])],  # one row too long
        np.array([1.0, 2.0]),                     # a flat array of scalars
    ])
    def test_wrong_sample_length_rejected(self, relay, samples):
        # samples at the origin are skipped, but their length is still checked
        with pytest.raises(DimensionMismatchError):
            verify_clf_pointwise(relay.certificate, relay.system, samples)

    def test_non_finite_sample_rejected(self, relay):
        with pytest.raises(DomainError):
            verify_clf_pointwise(relay.certificate, relay.system,
                                 [np.array([1.0]), np.array([np.inf])])

    def test_wrong_gradient_shape_rejected(self, homog):
        cert = replace(homog.certificate, gradient=lambda x: np.zeros(3))
        with pytest.raises(DimensionMismatchError, match="gradient"):
            verify_clf_pointwise(cert, homog.system, [np.array([0.1, 0.4])])


class TestGradientConsistency:
    @pytest.mark.parametrize("name", ["acc", "homog", "relay", "zeno"])
    def test_matches_finite_differences(self, name, request, rng):
        model = request.getfixturevalue(name)
        cert = model.certificate
        d = model.system.state_dim
        for _ in range(25):
            x = rng.uniform(-3.0, 3.0, size=d)
            g = cert.grad(x)
            fd = finite_difference_jacobian(lambda y: cert.levels(y)[:, None], x)[0]
            assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))


class TestRateFunction:
    @pytest.mark.parametrize("rate", [
        RateFunction.linear(1.7), RateFunction.power(1.0, 2.0),
        RateFunction.power(2.0, 0.5), RateFunction.power(0.3, 3.0),
        RateFunction.custom(lambda v: 2.0 + math.sin(v))])
    def test_at_levels_has_the_bits_of_each_call(self, rate, rng):
        levels = np.concatenate([[0.0], rng.random(2000) * 10.0,
                                 rng.random(2000) * 1e-9])
        calls = np.array([rate(v) for v in levels.tolist()])
        np.testing.assert_array_equal(rate.at_levels(levels).view(np.uint64),
                                      calls.view(np.uint64))

    def test_at_levels_checks_like_a_call(self):
        with pytest.raises(DomainError, match="negative level"):
            RateFunction.linear(1.0).at_levels(np.array([1.0, -1e-300]))
        bad = RateFunction.custom(lambda v: v - 1.0)
        with pytest.raises(DomainError, match=r"gamma\(0.5\) = -0.5 must be positive"):
            bad.at_levels(np.array([0.0, 2.0, 0.5, 0.25]))
        # a power that underflows to 0 above level 0
        with pytest.raises(DomainError, match=r"gamma\(5e-324\) = 0.0 must be positive"):
            RateFunction.power(1.0, 2.0)(5e-324)
        with pytest.raises(DomainError, match=r"gamma\(5e-324\) = 0.0 must be positive"):
            RateFunction.power(1.0, 2.0).at_levels(np.array([1.0, 5e-324]))

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
