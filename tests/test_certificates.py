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
                    estimate_nu, estimate_rho, sample_in_region,
                    verify_clf_pointwise)
from clfetc.core import velocity_ratio
from clfetc import certificates
from clfetc.certificates import (BOX_INFLATE, SOBOL_BITS, SOBOL_MAX_DIM,
                                 _SobolStream)
from clfetc.cli import _jsonable
from clfetc.errors import DimensionMismatchError
from oracles import (acc_frozen_matrices, bound_sublevel_box_reference,
                     grid_pairwise_lipschitz, grid_ratio_max)

SQRT_E = math.sqrt(math.e)


def quad_cert(rate=None):
    return ClfCertificate(
        value=lambda x: 0.5 * np.vecdot(x, x),
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

    def test_stream_ends_after_two_to_the_bits_points(self):
        # point 2**SOBOL_BITS would repeat one before it; scipy refuses it
        # too.  The check comes before the draw allocates anything.
        stream = _SobolStream(2, 0)
        stream._count = 2**SOBOL_BITS - 2
        with pytest.raises(DomainError, match=f"holds {2**SOBOL_BITS} points"):
            stream.random(4)
        assert stream.random(2).shape == (2, 2)
        with pytest.raises(DomainError):
            stream.random(1)


class TestBoundSublevelBox:
    def test_quadratic_ball(self):
        cert = quad_cert()
        anchor = np.array([2.0, 0.0, 0.0])  # V = 2
        region = bound_sublevel_box(cert, anchor)
        assert region.level == pytest.approx(2.0)
        np.testing.assert_allclose(region.hi, 2.0 * 1.05, rtol=1e-6)
        np.testing.assert_allclose(region.lo, -2.0 * 1.05, rtol=1e-6)

    def test_origin_degenerate(self):
        # the sublevel set of the equilibrium is a single point: no region
        cert = quad_cert()
        with pytest.raises(DomainError, match="level > 0, got 0.0"):
            bound_sublevel_box(cert, np.zeros(2))

    def test_acc_level_fifty(self, acc):
        cert = acc.certificate
        anchor = np.array([10.0, 0.0, 0.0])  # V = 50
        region = bound_sublevel_box(cert, anchor)
        np.testing.assert_allclose(region.hi, 10.0 * 1.05, rtol=1e-6)

    @pytest.mark.parametrize("r", [2.0, 4.0] + [
        pytest.param(r, marks=pytest.mark.xfail(
            raises=PropernessError,
            reason="ROADMAP item 15 (a FOUND in CHANGES.md): the widening's "
                   "three rounds of Sobol points miss the tips of a thin "
                   "tilted ellipse"))
        for r in (10.0, 30.0)])
    def test_widening_covers_a_tilted_ellipse(self, r):
        # V = x'Px/2 with P = R diag(1, r) R', R a quarter-pi rotation: the
        # axis rays meet the ellipse inside its extent along each axis, and
        # the sampled widening must reach the half-widths sqrt(2 level Pinv_ii)
        rot = np.array([[1.0, -1.0], [1.0, 1.0]]) * math.sqrt(0.5)
        p = rot @ np.diag([1.0, r]) @ rot.T
        cert = ClfCertificate(
            value=lambda x: 0.5 * (p[0, 0] * x[..., 0] ** 2
                                   + 2.0 * p[0, 1] * x[..., 0] * x[..., 1]
                                   + p[1, 1] * x[..., 1] ** 2),
            gradient=lambda x: np.asarray(x, dtype=float) @ p,
            rate=RateFunction.linear(1.0),
            feedback=lambda x: -np.asarray(x, dtype=float),
        )
        anchor = np.array([1.0, 0.0])
        region = bound_sublevel_box(cert, anchor)
        half = np.sqrt(2.0 * region.level * np.diag(np.linalg.inv(p)))
        rays = np.sqrt(2.0 * region.level / np.diag(p)) * (1.0 + BOX_INFLATE)
        assert np.all(rays < half)  # the rays' box alone would miss the ends
        assert np.all(region.lo <= -half) and np.all(region.hi >= half)
        ref = bound_sublevel_box_reference(cert, anchor)
        assert region.lo.tobytes() == ref.lo.tobytes()
        assert region.hi.tobytes() == ref.hi.tobytes()

    def test_properness_violation(self):
        # V ignores the second coordinate: the ray search can never exit
        cert = ClfCertificate(
            value=lambda x: x[..., 0] ** 2,
            gradient=lambda x: x * [2.0, 0.0],
            rate=RateFunction.linear(1.0),
            feedback=lambda x: np.zeros(x.shape[:-1] + (1,)),
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

    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_size_below_one_rejected(self, homog, n):
        region = bound_sublevel_box(homog.certificate, homog.default_x0)
        with pytest.raises(DomainError, match=f"n >= 1, got {n}"):
            sample_in_region(homog.certificate, region, n)


class TestEstimateKappa:
    def test_acc_matches_jacobian_norm(self, acc):
        # frozen input makes the field affine, so the Lipschitz constant is
        # the spectral norm of the constant state matrix
        region = bound_sublevel_box(acc.certificate, np.array([3.0, 1.0, -2.0]))
        u_star = float(acc.certificate.u(region.anchor)[0])
        a, _c = acc_frozen_matrices(1.01, 0.3, u_star)
        true_norm = float(np.linalg.norm(a, 2))
        pts = sample_in_region(acc.certificate, region, 256, seed=0)
        rep = estimate_kappa(acc.system, acc.certificate, region, pts, seed=0)
        assert rep.value == pytest.approx(1.25 * true_norm, rel=1e-4)

    def test_relay_constant_field(self, relay):
        region = bound_sublevel_box(relay.certificate, np.array([1.0]))
        pts = sample_in_region(relay.certificate, region, 64, seed=0)
        rep = estimate_kappa(relay.system, relay.certificate, region, pts, seed=0)
        assert rep.value == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kinked_field_reaches_its_steeper_piece(self, seed):
        # a continuous, piecewise-linear field with a kink on x1 = 0: the
        # Jacobian norms at the sample points find the steeper piece, on
        # which a sample point lies, so the quotients over pairs and
        # perturbations, which cross the kink, cannot exceed it
        steep = np.array([[2.0, -1.0], [1.0, -1.0]])
        flat = np.array([[1.0, -1.0], [1.0, -1.0]])
        norm = float(np.linalg.norm(steep, 2))
        assert norm > float(np.linalg.norm(flat, 2))
        sys = ControlSystem(2, 1, rhs=lambda x, u: np.stack(
            [np.where(x[..., 0] > 0, 2.0 * x[..., 0], x[..., 0]) - x[..., 1] + u[..., 0],
             x[..., 0] - x[..., 1]], axis=-1))
        cert = replace(quad_cert(), feedback=lambda x: -np.asarray(x, dtype=float)[..., :1])
        region = bound_sublevel_box(cert, np.array([1.0, 0.5]), seed=seed)
        for n in (64, 192, 1024):
            pts = sample_in_region(cert, region, n, seed=seed)
            rep = estimate_kappa(sys, cert, region, pts, seed=seed)
            assert rep.value == pytest.approx(1.25 * norm, rel=1e-9), (seed, n)
            assert rep.argmax_point[0] > 0.0, (seed, n)

    def test_needs_two_samples(self, acc):
        region = bound_sublevel_box(acc.certificate, np.array([1.0, 0.0, 0.0]))
        pts = sample_in_region(acc.certificate, region, 1, seed=0)
        with pytest.raises(DomainError):
            estimate_kappa(acc.system, acc.certificate, region, pts, seed=0)

    def test_wrong_field_shape_rejected(self, acc):
        # the first field evaluation is checked, and it vouches for the rest
        bad = ControlSystem(3, 1, rhs=lambda x, u: np.zeros(2))
        region = bound_sublevel_box(acc.certificate, np.array([3.0, 1.0, -2.0]))
        pts = sample_in_region(acc.certificate, region, 64, seed=0)
        with pytest.raises(DimensionMismatchError):
            estimate_kappa(bad, acc.certificate, region, pts, seed=0)

    def test_non_finite_anchor_control_rejected(self):
        sys = ControlSystem(2, 2, rhs=lambda x, u: np.asarray(u, dtype=float))
        cert = replace(quad_cert(), feedback=lambda x: np.full(2, np.inf))
        region = bound_sublevel_box(cert, np.array([1.0, 0.0]))
        pts = sample_in_region(cert, region, 64, seed=0)
        with pytest.raises(DomainError, match="control"):
            estimate_kappa(sys, cert, region, pts, seed=0)

    def test_monotone_in_samples_and_deterministic(self, homog):
        region = bound_sublevel_box(homog.certificate, homog.default_x0)
        pts = sample_in_region(homog.certificate, region, 64, seed=5)
        small = estimate_kappa(homog.system, homog.certificate, region, pts, seed=5)
        pts = sample_in_region(homog.certificate, region, 192, seed=5)
        large = estimate_kappa(homog.system, homog.certificate, region, pts, seed=5)
        pts = sample_in_region(homog.certificate, region, 192, seed=5)
        again = estimate_kappa(homog.system, homog.certificate, region, pts, seed=5)
        assert small.value <= large.value
        assert large.value == again.value


class TestEstimateNu:
    def test_quadratic_identity_gradient(self):
        cert = quad_cert()
        region = bound_sublevel_box(cert, np.array([1.0, 1.0]))
        pts = sample_in_region(cert, region, 128, seed=0)
        rep = estimate_nu(cert, region, pts, seed=0)
        # every difference quotient of the identity map is exactly 1
        assert rep.value == pytest.approx(1.25, rel=1e-9)

    def test_acc_gradient(self, acc):
        region = bound_sublevel_box(acc.certificate, np.array([2.0, -1.0, 0.5]))
        pts = sample_in_region(acc.certificate, region, 128, seed=0)
        rep = estimate_nu(acc.certificate, region, pts, seed=0)
        assert rep.value == pytest.approx(1.25, rel=1e-9)

    def test_wrong_gradient_shape_rejected(self):
        # a 2-d certificate whose gradient has 3 entries
        cert = replace(quad_cert(), gradient=lambda x: np.concatenate(
            [x, np.zeros(x.shape[:-1] + (1,))], axis=-1))
        region = bound_sublevel_box(cert, np.array([1.0, 1.0]))
        pts = sample_in_region(cert, region, 64, seed=0)
        with pytest.raises(DimensionMismatchError, match="^gradient returned shape"):
            estimate_nu(cert, region, pts, seed=0)

    def test_quartic_against_grid_oracle(self):
        cert = ClfCertificate(
            value=lambda x: 0.25 * np.vecdot(x, x) ** 2,
            gradient=lambda x: np.vecdot(x, x)[..., None] * np.asarray(x, dtype=float),
            rate=RateFunction.linear(1.0),
            feedback=lambda x: -np.asarray(x, dtype=float),
        )
        region = bound_sublevel_box(cert, np.array([math.sqrt(2.0), 0.0]))  # level 1
        oracle = grid_pairwise_lipschitz(cert.grad, region.lo, region.hi, 25,
                                         keep=lambda p: cert.v(p) <= region.level)
        pts = sample_in_region(cert, region, 256, seed=0)
        rep = estimate_nu(cert, region, pts, seed=0)
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
        pts = sample_in_region(cert, region, 128, seed=0)
        rep = estimate_big_m(sys, cert, region, pts, seed=0)
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
        sample = sample_in_region(homog.certificate, region, 256, seed=0)
        rep = estimate_big_m(homog.system, homog.certificate, region, sample, seed=0)
        assert not rep.diverging
        assert rep.value / rep.safety_factor == pytest.approx(oracle, rel=0.15)

    def test_zeno_divergence_detected(self, zeno):
        region = bound_sublevel_box(zeno.certificate, zeno.default_x0)
        pts = sample_in_region(zeno.certificate, region, 128, seed=0)
        rep = estimate_big_m(zeno.system, zeno.certificate, region, pts, seed=0)
        assert rep.diverging
        for seed in range(5):
            region = bound_sublevel_box(zeno.certificate, zeno.default_x0, seed=seed)
            for n in (192, 1024):
                pts = sample_in_region(zeno.certificate, region, n, seed=seed)
                rep = estimate_big_m(zeno.system, zeno.certificate, region, pts, seed=seed)
                assert rep.diverging, (seed, n)

    def test_relay_divergence_detected(self, relay):
        region = bound_sublevel_box(relay.certificate, np.array([1.0]))
        pts = sample_in_region(relay.certificate, region, 64, seed=0)
        rep = estimate_big_m(relay.system, relay.certificate, region, pts, seed=0)
        assert rep.diverging
        for seed in range(5):
            region = bound_sublevel_box(relay.certificate, np.array([1.0]), seed=seed)
            for n in (192, 1024):
                pts = sample_in_region(relay.certificate, region, n, seed=seed)
                rep = estimate_big_m(relay.system, relay.certificate, region, pts, seed=seed)
                assert rep.diverging, (seed, n)

    def test_a_ratio_that_is_infinite_only_at_the_probes_diverges(self):
        # the feedback -x turns to -1e200*x inside |x| = 0.03, where |F|^2
        # overflows: no sampled point lies there, every probe point does
        sys = ControlSystem(2, 2, rhs=lambda x, u: np.asarray(u, dtype=float))
        cert = replace(quad_cert(), feedback=lambda x: np.where(
            np.linalg.norm(x, axis=-1, keepdims=True) > 0.03, -x, -1e200 * x))
        region = bound_sublevel_box(cert, np.array([1.0, 0.0]))
        pts = sample_in_region(cert, region, 192, seed=0)
        with np.errstate(over="ignore"):
            ratios = velocity_ratio(cert.grad(pts), sys.f(pts, cert.u(pts)))
            rep = estimate_big_m(sys, cert, region, pts, seed=0)
        assert np.isfinite(ratios).all()
        assert rep.diverging

    def test_acc_bounded(self, acc):
        region = bound_sublevel_box(acc.certificate, np.array([5.0, 5.0, 5.0]))
        pts = sample_in_region(acc.certificate, region, 128, seed=0)
        rep = estimate_big_m(acc.system, acc.certificate, region, pts, seed=0)
        assert not rep.diverging
        assert rep.value > 1.0

    def test_lemma_equivalence_on_samples(self, homog):
        # the ratio bound M implies |Fbar| <= M*|V'| and cos(theta) <= -1/M
        region = bound_sublevel_box(homog.certificate, homog.default_x0)
        pts = sample_in_region(homog.certificate, region, 128, seed=0)
        rep = estimate_big_m(homog.system, homog.certificate, region, pts, seed=0)
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

    @pytest.mark.parametrize("name", ["acc", "homog", "relay", "zeno"])
    def test_draws_the_sample_once(self, name, request, monkeypatch):
        # κ, ν and M are estimated on one sample, drawn once per bundle
        model = request.getfixturevalue(name)
        region = bound_sublevel_box(model.certificate, model.default_x0)
        calls = []

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return sample_in_region(*args, **kwargs)

        monkeypatch.setattr(certificates, "sample_in_region", counted)
        _, reports = estimate_constants(model.system, model.certificate, region,
                                        n=96, seed=1, allow_degenerate=True)
        assert len(calls) == 1
        assert {rep.n_samples for rep in reports.values()} == {96}

    def test_report_json_shape(self, homog):
        region = bound_sublevel_box(homog.certificate, homog.default_x0)
        pts = sample_in_region(homog.certificate, region, 64, seed=2)
        rep = estimate_kappa(homog.system, homog.certificate, region, pts, seed=2)
        blob = _jsonable(rep)
        assert blob["constant"] == "kappa"
        assert blob["seed"] == 2
        assert blob["n_samples"] == 64
        assert len(blob["argmax_point"]) == 2


class TestBatchAxisContract:
    # callables written for one state, not lifted by rowwise: on a batch each
    # returns one result, which numpy would broadcast over every state
    ONE_STATE = {
        "rhs": lambda x, u: np.array([0.0, 1.0]),
        "gradient": lambda x: np.array([1.0, -0.5]),
        "value": lambda x: 0.5 * x[0] ** 2,
    }
    AUDITS = {
        "kappa": lambda sysm, cert, region, pts: estimate_kappa(sysm, cert, region, pts),
        "nu": lambda sysm, cert, region, pts: estimate_nu(cert, region, pts),
        "big_m": lambda sysm, cert, region, pts: estimate_big_m(sysm, cert, region, pts),
        "verify": lambda sysm, cert, region, pts: verify_clf_pointwise(cert, sysm, pts),
        "sample": lambda sysm, cert, region, pts: sample_in_region(cert, region, 64),
    }

    @pytest.mark.parametrize("audit, ignores", [
        ("kappa", "rhs"), ("nu", "gradient"), ("big_m", "gradient"),
        ("verify", "gradient"), ("sample", "value")])
    def test_every_audit_refuses_a_callable_that_ignores_the_batch_axis(
            self, homog, audit, ignores):
        region = bound_sublevel_box(homog.certificate, homog.default_x0, seed=0)
        pts = sample_in_region(homog.certificate, region, 64, seed=0)
        sysm, cert = homog.system, homog.certificate
        if ignores == "rhs":
            sysm = replace(sysm, rhs=self.ONE_STATE["rhs"])
        else:
            cert = replace(cert, **{ignores: self.ONE_STATE[ignores]})
        with pytest.raises(DimensionMismatchError,
                           match=rf"^{ignores} returned shape .*last axis.*rowwise"):
            self.AUDITS[audit](sysm, cert, region, pts)
