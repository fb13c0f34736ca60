import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfetc import (CertificateConstants, ClfCertificate, ControlSystem,
                    DomainError, NonDegeneracyError, PropernessError,
                    RateFunction, bound_sublevel_box, compute_mu,
                    estimate_big_m, estimate_constants, estimate_kappa,
                    estimate_nu, estimate_rho, sample_in_region)
from clfetc.certificates import SOBOL_MAX_DIM, _SobolStream
from clfetc.cli import _jsonable
from clfetc.errors import DimensionMismatchError
from oracles import acc_frozen_matrices, grid_pairwise_lipschitz, grid_ratio_max

SQRT_E = math.sqrt(math.e)


def quad_cert(rate=None):
    return ClfCertificate(
        value=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: np.asarray(x, dtype=float),
        rate=rate or RateFunction.linear(1.0),
        feedback=lambda x: -np.asarray(x, dtype=float),
    )


class TestSobolStream:
    # batch sizes drawn in turn from one stream
    DRAW_PATTERNS = ([4096], [64] * 8, [512] * 3, [1024, 1024, 2048], [1] * 5 + [8])

    @pytest.mark.filterwarnings("ignore:The balance properties")
    @pytest.mark.parametrize("d", range(1, SOBOL_MAX_DIM + 1))
    def test_bit_identical_to_scipy(self, d):
        from scipy.stats import qmc
        for seed in range(10):
            for pattern in self.DRAW_PATTERNS:
                ref = qmc.Sobol(d=d, scramble=True, seed=seed)
                ours = _SobolStream(d, seed)
                for n in pattern:
                    assert np.array_equal(ours.random(n), ref.random(n)), (
                        d, seed, pattern, n)

    def test_dimension_limit(self):
        from clfetc import ConfigurationError
        with pytest.raises(ConfigurationError, match="dimensions 1 to 10"):
            _SobolStream(SOBOL_MAX_DIM + 1, 0)


class TestBoundSublevelBox:
    def test_quadratic_ball(self):
        cert = quad_cert()
        anchor = np.array([2.0, 0.0, 0.0])  # V = 2
        region = bound_sublevel_box(cert, anchor)
        assert region.level == pytest.approx(2.0)
        np.testing.assert_allclose(region.hi, 2.0 * 1.05, rtol=1e-6)
        np.testing.assert_allclose(region.lo, -2.0 * 1.05, rtol=1e-6)

    def test_origin_degenerate(self):
        cert = quad_cert()
        region = bound_sublevel_box(cert, np.zeros(2))
        assert region.degenerate
        np.testing.assert_array_equal(region.lo, region.hi)

    def test_acc_level_fifty(self, acc):
        cert = acc.certificate
        anchor = np.array([10.0, 0.0, 0.0])  # V = 50
        region = bound_sublevel_box(cert, anchor)
        np.testing.assert_allclose(region.hi, 10.0 * 1.05, rtol=1e-6)

    def test_properness_violation(self):
        # V ignores the second coordinate: the ray search can never exit
        cert = ClfCertificate(
            value=lambda x: float(x[0] ** 2),
            gradient=lambda x: np.array([2.0 * x[0], 0.0]),
            rate=RateFunction.linear(1.0),
            feedback=lambda x: np.zeros(1),
        )
        with pytest.raises(PropernessError):
            bound_sublevel_box(cert, np.array([1.0, 0.0]))

    def test_samples_stay_in_level_set(self):
        cert = quad_cert()
        region = bound_sublevel_box(cert, np.array([1.5, -0.5]))
        pts = sample_in_region(cert, region, 200, seed=1)
        assert all(cert.v(p) <= region.level for p in pts)

    def test_sampling_prefix_stable(self):
        cert = quad_cert()
        region = bound_sublevel_box(cert, np.array([1.0, 1.0]))
        a = sample_in_region(cert, region, 50, seed=7)
        b = sample_in_region(cert, region, 120, seed=7)
        np.testing.assert_array_equal(a, b[:50])


class TestEstimateKappa:
    def test_acc_matches_jacobian_norm(self, acc):
        # frozen input makes the field affine, so the Lipschitz constant is
        # the spectral norm of the constant state matrix
        region = bound_sublevel_box(acc.certificate, np.array([3.0, 1.0, -2.0]))
        u_star = float(acc.certificate.u(region.anchor)[0])
        a, _c = acc_frozen_matrices(1.01, 0.3, u_star)
        true_norm = float(np.linalg.norm(a, 2))
        rep = estimate_kappa(acc.system, acc.certificate, region, 256, seed=0)
        assert rep.value == pytest.approx(1.25 * true_norm, rel=1e-4)

    def test_origin_convention(self, acc):
        region = bound_sublevel_box(acc.certificate, np.zeros(3))
        rep = estimate_kappa(acc.system, acc.certificate, region, 64, seed=0)
        assert rep.value == 0.0

    def test_relay_constant_field(self, relay):
        region = bound_sublevel_box(relay.certificate, np.array([1.0]))
        rep = estimate_kappa(relay.system, relay.certificate, region, 64, seed=0)
        assert rep.value == pytest.approx(0.0, abs=1e-9)

    def test_needs_two_samples(self, acc):
        region = bound_sublevel_box(acc.certificate, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DomainError):
            estimate_kappa(acc.system, acc.certificate, region, 1, seed=0)

    def test_wrong_field_shape_rejected(self, acc):
        # the first field evaluation is checked, and it vouches for the rest
        bad = ControlSystem(3, 1, rhs=lambda x, u: np.zeros(2))
        region = bound_sublevel_box(acc.certificate, np.array([3.0, 1.0, -2.0]))
        with pytest.raises(DimensionMismatchError):
            estimate_kappa(bad, acc.certificate, region, 64, seed=0)

    def test_non_finite_anchor_control_rejected(self):
        sys = ControlSystem(2, 2, rhs=lambda x, u: np.asarray(u, dtype=float))
        cert = replace(quad_cert(), feedback=lambda x: np.full(2, np.inf))
        region = bound_sublevel_box(cert, np.array([1.0, 0.0]))
        with pytest.raises(DomainError, match="control"):
            estimate_kappa(sys, cert, region, 64, seed=0)

    def test_monotone_in_samples_and_deterministic(self, homog):
        region = bound_sublevel_box(homog.certificate, homog.default_x0)
        small = estimate_kappa(homog.system, homog.certificate, region, 64, seed=5)
        large = estimate_kappa(homog.system, homog.certificate, region, 192, seed=5)
        again = estimate_kappa(homog.system, homog.certificate, region, 192, seed=5)
        assert small.value <= large.value
        assert large.value == again.value


class TestEstimateNu:
    def test_quadratic_identity_gradient(self):
        cert = quad_cert()
        region = bound_sublevel_box(cert, np.array([1.0, 1.0]))
        rep = estimate_nu(cert, region, 128, seed=0)
        # every difference quotient of the identity map is exactly 1
        assert rep.value == pytest.approx(1.25, rel=1e-9)

    def test_acc_gradient(self, acc):
        region = bound_sublevel_box(acc.certificate, np.array([2.0, -1.0, 0.5]))
        rep = estimate_nu(acc.certificate, region, 128, seed=0)
        assert rep.value == pytest.approx(1.25, rel=1e-9)

    def test_wrong_gradient_shape_rejected(self):
        # a 2-d certificate whose gradient has 3 entries
        cert = replace(quad_cert(), gradient=lambda x: np.array([x[0], x[1], 0.0]))
        region = bound_sublevel_box(cert, np.array([1.0, 1.0]))
        with pytest.raises(DimensionMismatchError, match="nu"):
            estimate_nu(cert, region, 64, seed=0)

    def test_quartic_against_grid_oracle(self):
        cert = ClfCertificate(
            value=lambda x: 0.25 * float(x @ x) ** 2,
            gradient=lambda x: float(x @ x) * np.asarray(x, dtype=float),
            rate=RateFunction.linear(1.0),
            feedback=lambda x: -np.asarray(x, dtype=float),
        )
        region = bound_sublevel_box(cert, np.array([math.sqrt(2.0), 0.0]))  # level 1
        oracle = grid_pairwise_lipschitz(cert.grad, region.lo, region.hi, 25,
                                         keep=lambda p: cert.v(p) <= region.level)
        rep = estimate_nu(cert, region, 256, seed=0)
        est = rep.value / rep.safety_factor
        # true sup is 6*sqrt(level); grid and sampled estimates both approach it
        assert est == pytest.approx(6.0, rel=0.05)
        assert est >= 0.95 * oracle


class TestEstimateBigM:
    def test_gradient_flow_ratio_two(self):
        # closed loop equals the negative gradient: parallel vectors give
        # ratio (|V'||F| + |F|^2)/|W| = 2 everywhere
        sys = ControlSystem(2, 2, rhs=lambda x, u: np.asarray(u, dtype=float))
        cert = quad_cert()
        region = bound_sublevel_box(cert, np.array([1.0, 0.0]))
        rep = estimate_big_m(sys, cert, region, 128, seed=0)
        assert not rep.diverging
        assert rep.value == pytest.approx(1.25 * 2.0, rel=1e-9)

    def test_homogeneous_against_grid_oracle(self, homog):
        region = bound_sublevel_box(homog.certificate, homog.default_x0)
        rng = np.random.default_rng(0)
        pts = rng.uniform(region.lo, region.hi, size=(4000, 2))
        pts = [p for p in pts
               if homog.certificate.v(p) <= region.level
               and np.linalg.norm(p) >= 0.05]
        oracle = grid_ratio_max(homog.system, homog.certificate, pts)
        rep = estimate_big_m(homog.system, homog.certificate, region, 256, seed=0)
        assert not rep.diverging
        assert rep.value / rep.safety_factor == pytest.approx(oracle, rel=0.15)

    def test_zeno_divergence_detected(self, zeno):
        region = bound_sublevel_box(zeno.certificate, zeno.default_x0)
        rep = estimate_big_m(zeno.system, zeno.certificate, region, 128, seed=0)
        assert rep.diverging

    def test_relay_divergence_detected(self, relay):
        region = bound_sublevel_box(relay.certificate, np.array([1.0]))
        rep = estimate_big_m(relay.system, relay.certificate, region, 64, seed=0)
        assert rep.diverging

    def test_acc_bounded(self, acc):
        region = bound_sublevel_box(acc.certificate, np.array([5.0, 5.0, 5.0]))
        rep = estimate_big_m(acc.system, acc.certificate, region, 128, seed=0)
        assert not rep.diverging
        assert rep.value > 1.0

    def test_lemma_equivalence_on_samples(self, homog):
        # the ratio bound M implies |Fbar| <= M*|V'| and cos(theta) <= -1/M
        region = bound_sublevel_box(homog.certificate, homog.default_x0)
        rep = estimate_big_m(homog.system, homog.certificate, region, 128, seed=0)
        m_val = rep.value
        cert, sysm = homog.certificate, homog.system
        for p in sample_in_region(cert, region, 200, seed=3):
            if cert.v(p) < 1e-12 * region.level:
                continue
            g = cert.grad(p)
            fbar = sysm.f(p, cert.u(p))
            nf, ng = np.linalg.norm(fbar), np.linalg.norm(g)
            if nf == 0 or ng == 0:
                continue
            assert nf <= m_val * ng * (1 + 1e-9)
            cos_theta = float(g @ fbar) / (nf * ng)
            assert cos_theta <= -1.0 / m_val + 1e-9


class TestEstimateRho:
    def test_nondecreasing_rate_is_zero(self):
        cert = quad_cert(rate=RateFunction.linear(3.0))
        assert estimate_rho(cert, 10.0) == 0.0

    def test_concave_rate_still_zero_on_interval(self):
        # gamma = 2v - v^2 increases on [0, 1]: no penalty below level 1
        rate = RateFunction.custom(lambda v: 2.0 * v - v * v,
                                   gamma_prime=lambda v: 2.0 - 2.0 * v)
        cert = quad_cert(rate=rate)
        assert estimate_rho(cert, 1.0) == 0.0

    def test_oscillatory_rate_analytic_max(self):
        rate = RateFunction.custom(lambda v: math.sin(v) + 2.0,
                                   gamma_prime=math.cos)
        cert = quad_cert(rate=rate)
        assert estimate_rho(cert, 2.0 * math.pi) == pytest.approx(1.0, rel=1e-6)

    def test_requires_derivative_or_monotone_flag(self):
        from clfetc import ConfigurationError
        rate = RateFunction.custom(lambda v: 2.0 + math.sin(v))
        cert = quad_cert(rate=rate)
        with pytest.raises(ConfigurationError):
            estimate_rho(cert, 1.0)


class TestComputeMu:
    def test_examples(self):
        assert compute_mu(0.0, 0.0) == 0.0
        assert compute_mu(1.0, 0.0) == pytest.approx(SQRT_E)
        assert compute_mu(0.0, 1.0) == pytest.approx(SQRT_E)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    def test_dominates_both_inputs(self, kappa, nu):
        mu = compute_mu(kappa, nu)
        assert mu >= SQRT_E * kappa - 1e-12
        assert mu >= SQRT_E * nu - 1e-12

    def test_constants_consistency_required(self):
        with pytest.raises(TypeError):
            CertificateConstants(kappa=1.0, nu=1.0, big_m=2.0, rho=0.0, mu=1.0)
        ok = CertificateConstants(kappa=1.0, nu=1.0, big_m=2.0, rho=0.0)
        assert ok.mu == compute_mu(ok.kappa, ok.nu) == compute_mu(1.0, 1.0)


class TestEstimateConstants:
    def test_bundle_on_acc(self, acc):
        region = bound_sublevel_box(acc.certificate, np.array([3.0, 3.0, 3.0]))
        consts, reports = estimate_constants(acc.system, acc.certificate, region,
                                             n=128, seed=0)
        assert consts.rho == 0.0
        assert consts.mu == compute_mu(consts.kappa, consts.nu)
        assert set(reports) == {"kappa", "nu", "big_m"}

    def test_nondegeneracy_raises(self, zeno):
        region = bound_sublevel_box(zeno.certificate, zeno.default_x0)
        with pytest.raises(NonDegeneracyError):
            estimate_constants(zeno.system, zeno.certificate, region, n=64, seed=0)
        consts, reports = estimate_constants(zeno.system, zeno.certificate, region,
                                             n=64, seed=0, allow_degenerate=True)
        assert reports["big_m"].diverging

    def test_report_json_shape(self, homog):
        region = bound_sublevel_box(homog.certificate, homog.default_x0)
        rep = estimate_kappa(homog.system, homog.certificate, region, 64, seed=2)
        blob = _jsonable(rep)
        assert blob["constant"] == "kappa"
        assert blob["seed"] == 2
        assert blob["n_samples"] == 64
        assert len(blob["argmax_point"]) == 2
