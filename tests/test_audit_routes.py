"""Two routes to the audits.  The batched ``sample_in_region``,
``bound_sublevel_box``, κ, ν and M estimators and CLF check must equal the
per-point loops they replaced (``oracles.*_reference``) bit for bit; and
the sampled constants must reach the exact lower ends of their suprema on
homog2d and acc."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from clfetc import (ClfCertificate, RateFunction, bound_sublevel_box,
                    build_model, estimate_big_m, estimate_constants,
                    estimate_kappa, estimate_nu, sample_in_region,
                    verify_clf_pointwise, zeno_polar)
from clfetc.cli import _model_and_x0, load_config
from oracles import (acc_big_m_lower, acc_closed_loop_matrix, acc_frozen_matrices,
                     big_m_reference, bound_sublevel_box_reference,
                     dropped_lipschitz_candidates, homog2d_big_m_lower,
                     homog2d_kappa_lower, kappa_reference, nu_reference,
                     sample_in_region_reference, verify_clf_reference)


def _bits(obj):
    """``obj`` with every float spelled out bit for bit (so that -0.0 and
    0.0 differ), arrays and dataclasses included."""
    if dataclasses.is_dataclass(obj):
        return _bits(dataclasses.astuple(obj))
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.dtype.str, obj.tobytes())
    if isinstance(obj, (tuple, list)):
        return tuple(_bits(x) for x in obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    return obj


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["acc", "homog", "relay", "zeno"])
def test_batched_audits_match_the_per_point_loops(name, seed, request):
    model = request.getfixturevalue(name)
    sysm, cert = model.system, model.certificate
    region = bound_sublevel_box(cert, model.default_x0, seed=seed)
    reference = bound_sublevel_box_reference(cert, model.default_x0, seed=seed)
    assert _bits(region) == _bits(reference)
    # a feedback that does nothing fails the decrease check wherever the
    # field alone does not decrease V, so the violation lists are compared too
    idle = replace(cert, feedback=lambda x: np.zeros(x.shape[:-1] + (sysm.input_dim,)))
    for n in (64, 193, 1024):
        samples = sample_in_region(cert, region, n, seed=seed)
        assert _bits(samples) == _bits(sample_in_region_reference(cert, region, n, seed))
        pairs = [
            (estimate_kappa(sysm, cert, region, samples, seed=seed),
             kappa_reference(sysm, cert, region, n, seed=seed)),
            (estimate_nu(cert, region, samples, seed=seed),
             nu_reference(cert, region, n, seed=seed)),
            (estimate_big_m(sysm, cert, region, samples, seed=seed),
             big_m_reference(sysm, cert, region, n, seed=seed)),
            (verify_clf_pointwise(cert, sysm, samples),
             verify_clf_reference(cert, sysm, samples)),
            (verify_clf_pointwise(idle, sysm, samples),
             verify_clf_reference(idle, sysm, samples)),
        ]
        for batched, per_point in pairs:
            assert _bits(batched) == _bits(per_point), (n, batched, per_point)


@pytest.mark.parametrize("diag", [(1.0, 100.0), (1e-4, 1.0, 1e4)])
def test_the_box_matches_its_per_point_loop_on_an_anisotropic_ellipse(diag):
    """V = x'Px/2 with a diagonal P, anchored on the first axis at scales
    1e-3 to 1e3: the set's half-width along axis i is the scale times
    sqrt(P_00/P_ii), so at some scales the rays along one axis start inside
    radius 1 and those along another outside it.  Every shipped V reaches
    its level at one radius on every axis ray, so no preset mixes the
    directions in which the box's rays search."""
    p = np.array(diag)
    cert = ClfCertificate(value=lambda x: 0.5 * np.vecdot(x * p, x),
                          gradient=lambda x: np.asarray(x, dtype=float) * p,
                          rate=RateFunction.linear(1.0),
                          feedback=lambda x: -np.asarray(x, dtype=float))
    mixed = 0
    for scale in (1e-3, 1e-2, 1e-1, 1.0, 3.0, 10.0, 30.0, 1e2, 1e3):
        anchor = np.zeros(len(p))
        anchor[0] = scale
        inside = cert.levels(np.eye(len(p))) <= cert.v(anchor)
        mixed += bool(inside.any() and not inside.all())
        region = bound_sublevel_box(cert, anchor)
        reference = bound_sublevel_box_reference(cert, anchor)
        assert _bits(region) == _bits(reference), scale
    assert mixed >= 2


@pytest.mark.parametrize("preset", ["homog2d", "acc_case1", "acc_case2"])
def test_sampled_constants_reach_their_lower_ends(preset):
    """After the 1.25 safety factor, every sampled κ, ν and M reaches the
    exact lower end of its supremum over the sublevel set through the
    preset's ``x0``, at seeds 0-4 and n in {192, 1024}.

    The lower ends: ν = 1 (``grad V = x``); κ = ‖A‖₂ on acc's affine frozen
    field, and on homog2d the largest Jacobian norm on a 20,000-angle grid
    of the boundary circle; M, the grid maximum of the ratio on the boundary
    circle (homog2d) or on a 200,000-point grid of the unit sphere (acc).
    The raw sampled maximum (before the safety factor) over the lower end,
    smallest at n 192 and at n 1024: homog2d κ 0.909 (seed 4) and 0.974,
    M 0.970 (seed 4) and 0.991; acc κ 1 + 1.5e-10 and more (finite
    differences of an affine field), M 0.961 (seed 4) and 0.997, the same on
    both cases.  The raw ν was 1 + 2e-11 (homog2d) to 1 + 1.0e-10 (acc).
    The safety factor covers the shortfalls.
    """
    cfg = load_config(preset)
    model = build_model(cfg.model_name, cfg.model_params)
    sysm, cert = model.system, model.certificate
    x0 = np.asarray(cfg.x0, dtype=float)
    level = cert.v(x0)
    if model.name == "homog2d":
        kappa_lo, m_lo = homog2d_kappa_lower(level), homog2d_big_m_lower(level)
    else:
        k, tau = model.params["k"], model.params["tau_lag"]
        kappa_lo = float(np.linalg.norm(acc_frozen_matrices(k, tau, 0.0)[0], 2))
        m_lo = acc_big_m_lower(k, tau)
        # the closed-loop matrix is the model's closed loop
        rng = np.random.default_rng(0)
        for x in rng.standard_normal((5, 3)):
            np.testing.assert_allclose(acc_closed_loop_matrix(k, tau) @ x,
                                       sysm.f(x, cert.u(x)), rtol=1e-12, atol=1e-12)
    for seed in range(5):
        region = bound_sublevel_box(cert, x0, seed=seed)
        for n in (192, 1024):
            _, reports = estimate_constants(sysm, cert, region, n=n, seed=seed)
            assert reports["kappa"].value >= kappa_lo, (seed, n)
            assert reports["nu"].value >= 1.0, (seed, n)
            assert reports["big_m"].value >= m_lo, (seed, n)


@pytest.mark.parametrize("preset", ["acc_case1", "acc_case2", "homog2d", "relay1d",
                                    "zeno_polar", "zeno_polar_rstar_0.1"])
def test_jacobian_norms_dominate_the_dropped_quotients(preset):
    """κ and ν take only the finite-difference Jacobian norms.  The pair and
    perturbation quotients the estimator once took as well never exceed
    their maximum by more than 1e-10 relative, at seeds 0-4 and n in
    {64, 192, 1024}: a chord quotient of a locally Lipschitz map is at most
    the largest Jacobian norm along the chord.  The largest excess, 1.1e-11
    relative, is zeno_polar's κ at seed 2 and n 64."""
    if preset == "zeno_polar_rstar_0.1":
        model = zeno_polar(r_star=0.1)
        x0 = model.default_x0
    else:
        model, x0 = _model_and_x0(load_config(preset))
    sysm, cert = model.system, model.certificate
    for seed in range(5):
        region = bound_sublevel_box(cert, x0, seed=seed)
        u_star = cert.u(region.anchor)

        def held(xs):
            return sysm.rhs(xs, np.broadcast_to(u_star, xs.shape[:-1] + u_star.shape))

        # the sample is prefix-stable, so one draw serves every n
        sample = sample_in_region(cert, region, 1024, seed=seed)
        for n in (64, 192, 1024):
            pts = sample[:n]
            for rep, map_fn in ((estimate_kappa(sysm, cert, region, pts, seed, safety=1.0), held),
                                (estimate_nu(cert, region, pts, seed, safety=1.0), cert.grad)):
                dropped = dropped_lipschitz_candidates(map_fn, cert, region, pts, seed)
                assert dropped <= rep.value * (1.0 + 1e-10), (rep.constant, seed, n,
                                                               dropped, rep.value)
