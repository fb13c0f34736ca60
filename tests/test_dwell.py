import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfetc import (CertificateConstants, ConfigurationError, DomainError,
                    DwellInputs, NonDegeneracyError, admissible_period,
                    bound_sublevel_box, c_bound, estimate_constants,
                    sample_in_region, tau_min_over_sublevel, tau_select,
                    tau0_select)
from clfetc.certificates import estimate_rho
from clfetc.core import RateFunction
from clfetc.dwell import DwellEstimate, _dwell


def consts(kappa=0.0, nu=0.0, big_m=1.0, rho=0.0):
    return CertificateConstants(kappa=kappa, nu=nu, big_m=big_m, rho=rho)


def inputs(sigma=0.9, *, kappa=0.0, mu=None, big_m=1.0, rho=0.0,
           sigma_tilde=None, k_big=None, gamma_mode="nondecreasing"):
    """Build inputs with a prescribed mu by inverting the nu relation.

    Only feasible when ``mu >= sqrt(e)*kappa`` (the kappa term of mu is a
    hard floor); the exactness assert is skipped otherwise.
    """
    if mu is None:
        nu = 0.0
    else:
        nu = mu / (math.sqrt(math.e) * (1.0 + kappa * math.sqrt(math.e)))
    cc = consts(kappa=kappa, nu=nu, big_m=big_m, rho=rho)
    if mu is not None and mu >= math.sqrt(math.e) * kappa:
        assert cc.mu == pytest.approx(mu, rel=1e-12)
    return DwellInputs(constants=cc, sigma=sigma, sigma_tilde=sigma_tilde,
                       k_big=k_big, gamma_mode=gamma_mode)


class TestCBound:
    def test_zero_time(self):
        assert c_bound(2.0, 0.0) == 0.0

    def test_unit_values(self):
        assert c_bound(0.0, 1.0) == pytest.approx(math.sqrt(math.e - 1.0), rel=1e-12)

    def test_spec_cap_value(self):
        # at the cap t = 1/(1+2*kappa) the envelope stays below sqrt(t*e)
        val = c_bound(0.5, 0.5)
        assert val <= math.sqrt(0.5 * math.e)
        assert math.sqrt(0.5 * math.e) == pytest.approx(1.1658, abs=1e-4)

    def test_small_time_expansion(self):
        t = 1e-12
        assert c_bound(1.0, t) == pytest.approx(math.sqrt(t), rel=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0, max_value=20), st.floats(min_value=1e-12, max_value=1))
    def test_sqrt_te_envelope(self, kappa, frac):
        # the bound c <= sqrt(t e) holds for every t up to 1/(1+2 kappa)
        t = frac / (1.0 + 2.0 * kappa)
        assert c_bound(kappa, t) <= math.sqrt(t * math.e) * (1 + 1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            c_bound(-1.0, 1.0)
        with pytest.raises(DomainError):
            c_bound(1.0, -1.0)


class TestTauTilde:
    def test_formula_value(self):
        est = tau_select(inputs(sigma=0.9, mu=1.0, big_m=1.0, kappa=0.0))
        assert est.value == pytest.approx(0.01, rel=1e-12)
        assert est.formula_branch == "rate"

    def test_vanishes_as_sigma_tends_to_one(self):
        vals = [tau_select(inputs(sigma=s, mu=1.0, big_m=1.0)).value
                for s in (0.9, 0.99, 0.999)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] == pytest.approx(1e-6, rel=1e-9)

    def test_mu_zero_returns_cap(self):
        est = tau_select(inputs(sigma=0.9, mu=None, big_m=1.0, kappa=0.0))
        assert est.value == 1.0
        assert est.formula_branch == "cap"

    def test_sigma_validation(self):
        with pytest.raises(DomainError):
            DwellInputs(constants=consts(), sigma=1.0)
        with pytest.raises(DomainError):
            DwellInputs(constants=consts(), sigma=0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.01, max_value=50),
           st.floats(min_value=0.01, max_value=50),
           st.floats(min_value=0, max_value=10))
    def test_positive_and_capped(self, sigma, mu, big_m, kappa):
        mu = max(mu, math.sqrt(math.e) * kappa)  # feasibility floor
        est = tau_select(inputs(sigma=sigma, mu=mu, big_m=big_m, kappa=kappa))
        assert est.value > 0
        assert est.value <= 1.0 / (1.0 + 2.0 * kappa) + 1e-15

    def test_monotone_in_each_argument(self):
        # formula-level check: CertificateConstants couples mu to kappa/nu,
        # so growing kappa alone is only expressible on a stand-in record
        def bound(sigma, mu, big_m, kappa):
            cc = SimpleNamespace(kappa=kappa, mu=mu, big_m=big_m, rho=0.0)
            return _dwell(DwellInputs(constants=cc, sigma=sigma), 1.0, 1.0).value
        ref = bound(0.5, 2.0, 2.0, 1.0)
        for sigma, mu, big_m, kappa in ((0.8, 2.0, 2.0, 1.0), (0.5, 4.0, 2.0, 1.0),
                                        (0.5, 2.0, 3.0, 1.0), (0.5, 2.0, 2.0, 2.0)):
            assert bound(sigma, mu, big_m, kappa) <= ref + 1e-15


class TestTauHat:
    def test_rho_zero_reduces_to_sigma0_variant(self):
        est = tau_select(inputs(sigma=0.9, mu=1.0, big_m=1.0, rho=0.0, gamma_mode="c1"))
        sigma0 = 0.95
        assert est.value == pytest.approx((1 - sigma0) ** 2, rel=1e-12)

    def test_first_worked_example(self):
        # sigma=0.5 -> sigma0=0.75; rate term 0.0625 beats the rho term 0.4
        est = tau_select(inputs(sigma=0.5, mu=1.0, big_m=1.0, rho=1.0, gamma_mode="c1"))
        assert est.value == pytest.approx(0.0625, rel=1e-12)
        rho_term = (0.75 - 0.5) / (0.5 * (2 - 0.75) * 1.0)
        assert rho_term == pytest.approx(0.4)

    def test_second_worked_example(self):
        est = tau_select(inputs(sigma=0.9, mu=1.0, big_m=1.0, rho=10.0, gamma_mode="c1"))
        rho_term = (0.95 - 0.9) / (0.9 * (2 - 0.95) * 10.0)
        assert rho_term == pytest.approx(0.005291, abs=1e-6)
        assert est.value == pytest.approx(0.0025, rel=1e-12)

    def test_rho_branch_taken(self):
        est = tau_select(inputs(sigma=0.5, mu=0.1, big_m=0.1, rho=100.0, gamma_mode="c1"))
        assert est.formula_branch == "rho"


class TestTauSelect:
    def test_dispatch(self):
        # a monotone rate takes the rate term at sigma, a C1 rate at
        # sigma0 = (1+sigma)/2, here 0.75 (its rho term 0.8 does not bind)
        mono = inputs(sigma=0.5, mu=1.0, big_m=1.0, gamma_mode="nondecreasing")
        assert tau_select(mono).value == pytest.approx(0.25, rel=1e-12)
        smooth = inputs(sigma=0.5, mu=1.0, big_m=1.0, rho=0.5, gamma_mode="c1")
        assert tau_select(smooth).value == pytest.approx(0.0625, rel=1e-12)
        assert tau_select(smooth).formula_branch == "rate"

    def test_monotone_branch_never_smaller(self):
        # with rho >= 0 the C1 branch can only shrink the bound
        for sigma in (0.3, 0.5, 0.9):
            for mu in (0.5, 2.0):
                for rho in (0.0, 0.5, 5.0):
                    a = tau_select(inputs(sigma=sigma, mu=mu, big_m=1.0)).value
                    b = tau_select(inputs(sigma=sigma, mu=mu, big_m=1.0, rho=rho,
                                          gamma_mode="c1")).value
                    assert a >= b - 1e-15


class TestTauBarBreve:
    def test_bar_worked_example(self):
        est = tau0_select(inputs(sigma=0.8, mu=1.0, big_m=1.0, kappa=0.0,
                                 sigma_tilde=0.9, k_big=2.0))
        assert est.value == pytest.approx(0.01 / (4 * 0.81), rel=1e-12)
        assert est.value == pytest.approx(0.003086, abs=1e-6)

    def test_bar_vanishes_with_large_k(self):
        vals = [tau0_select(inputs(sigma=0.8, mu=1.0, big_m=1.0,
                                   sigma_tilde=0.9, k_big=k)).value
                for k in (2.0, 20.0, 200.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_bar_vanishes_as_margins_close(self):
        vals = [tau0_select(inputs(sigma=0.8, mu=1.0, big_m=1.0,
                                   sigma_tilde=s, k_big=2.0)).value
                for s in (0.9, 0.82, 0.801)]
        assert vals[0] > vals[1] > vals[2]

    def test_bar_validation(self):
        with pytest.raises(DomainError):
            inputs(sigma=0.8, sigma_tilde=0.7, k_big=2.0)
        with pytest.raises(DomainError):
            inputs(sigma=0.8, sigma_tilde=0.9, k_big=1.0)
        with pytest.raises(ConfigurationError):
            tau0_select(inputs(sigma=0.8))

    def test_breve_worked_example(self):
        est = tau0_select(inputs(sigma=0.8, mu=1.0, big_m=1.0, rho=1.0,
                                 sigma_tilde=0.9, k_big=2.0, gamma_mode="c1"))
        assert est.value == pytest.approx(0.0025 / (4 * 0.81), rel=1e-12)
        assert est.value == pytest.approx(7.716e-4, abs=1e-7)
        rho_term = (0.85 - 0.8) / (0.8 * (2 * 0.9 - 0.85) * 1.0)
        assert rho_term == pytest.approx(0.0658, abs=1e-4)

    def test_breve_rho_zero(self):
        est = tau0_select(inputs(sigma=0.8, mu=1.0, big_m=1.0, rho=0.0,
                                 sigma_tilde=0.9, k_big=2.0, gamma_mode="c1"))
        bar_at_sigma1 = tau0_select(inputs(sigma=0.85, mu=1.0, big_m=1.0,
                                           sigma_tilde=0.9, k_big=2.0))
        assert est.value == pytest.approx(bar_at_sigma1.value, rel=1e-12)

    def test_tau0_dispatch(self):
        # a monotone rate takes the rate term at sigma, a C1 rate at
        # sigma1 = (sigma_tilde+sigma)/2, here 0.85 (its rho term does not bind)
        mono = inputs(sigma=0.8, mu=1.0, big_m=1.0, sigma_tilde=0.9, k_big=2.0)
        assert tau0_select(mono).value == pytest.approx(0.01 / (4 * 0.81), rel=1e-12)
        smooth = inputs(sigma=0.8, mu=1.0, big_m=1.0, rho=1.0,
                        sigma_tilde=0.9, k_big=2.0, gamma_mode="c1")
        assert tau0_select(smooth).value == pytest.approx(0.0025 / (4 * 0.81),
                                                          rel=1e-12)
        assert tau0_select(smooth).formula_branch == "rate"

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.1, max_value=0.8),
           st.floats(min_value=0.01, max_value=0.15),
           st.floats(min_value=1.01, max_value=50),
           st.floats(min_value=0.01, max_value=20),
           st.floats(min_value=0, max_value=10))
    def test_cap_law(self, sigma, gap, k_big, mu, kappa):
        mu = max(mu, math.sqrt(math.e) * kappa)  # feasibility floor
        inp = inputs(sigma=sigma, mu=mu, big_m=1.0, kappa=kappa,
                     sigma_tilde=min(sigma + gap, 0.999), k_big=k_big)
        assert tau0_select(inp).value <= 1.0 / (1.0 + 2.0 * kappa) + 1e-15


class TestDwellEstimate:
    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            DwellEstimate(value=0.0, formula_branch="rate",
                          inputs_echo=inputs(sigma=0.5))


class TestTauMinOverSublevel:
    def test_constant_constants_give_anchor_value(self, acc):
        # the linear closed loop has state-independent constants, so the
        # sampled infimum equals the bound at any anchor divided by safety
        region = bound_sublevel_box(acc.certificate, np.array([4.0, 1.0, -2.0]))
        constants, _ = estimate_constants(acc.system, acc.certificate, region,
                                          n=128, seed=0)
        rep = tau_min_over_sublevel(acc.certificate, region, constants, 0.9)
        direct = tau_select(DwellInputs(constants=constants, sigma=0.9,
                                        gamma_mode="nondecreasing"))
        assert rep.value == pytest.approx(direct.value / 1.1, rel=1e-12)

    def test_shrinking_region_never_decreases(self, homog):
        vals = []
        for scale in (1.0, 0.6, 0.3):
            region = bound_sublevel_box(homog.certificate, scale * homog.default_x0)
            constants, _ = estimate_constants(homog.system, homog.certificate,
                                              region, n=96, seed=0)
            rep = tau_min_over_sublevel(homog.certificate, region, constants, 0.9)
            vals.append(rep.value)
        assert vals[0] <= vals[1] <= vals[2]

    def test_c1_infimum_attained_at_region_level(self, homog):
        # rho grows with the level, so the minimum over sampled anchors of
        # the bound at each anchor's own rho (the reference route below) is
        # the bound at the region's level
        cert = replace(homog.certificate, rate=RateFunction.custom(
            lambda v: 2.0 + math.sin(v), gamma_prime=math.cos))
        periodic = {"sigma_tilde": 0.95, "k_big": 2.0}
        for scale in (6.0, 7.0, 8.0):
            region = bound_sublevel_box(cert, scale * homog.default_x0)
            constants, _ = estimate_constants(homog.system, cert, region,
                                              n=96, seed=0)
            if scale == 6.0:
                assert region.level == pytest.approx(3.06, rel=1e-12)
                assert constants.rho == pytest.approx(0.9967, abs=1e-4)
            anchors = [region.anchor, *sample_in_region(cert, region, 64, seed=0)]
            for which, select, kw in (("tau", tau_select, {}),
                                      ("tau0", tau0_select, periodic)):
                reference = min(select(DwellInputs(
                    constants=replace(constants, rho=estimate_rho(cert, cert.v(a))),
                    sigma=0.9, gamma_mode="c1", **kw)).value for a in anchors)
                rep = tau_min_over_sublevel(cert, region, constants, 0.9, **kw)
                assert rep.which == which
                assert rep.value == reference / 1.1
                assert rep.argmin_anchor == tuple(region.anchor)

    def test_relay_nondegeneracy_propagates(self, relay):
        region = bound_sublevel_box(relay.certificate, np.array([1.0]))
        # the dwell bound needs constants, and the relay has none to give
        with pytest.raises(NonDegeneracyError):
            estimate_constants(relay.system, relay.certificate, region,
                               n=192, seed=0)

    def test_admissible_period_strictly_inside(self):
        assert 0.0 < admissible_period(1e-3) < 1e-3
        with pytest.raises(DomainError):
            admissible_period(0.0)
