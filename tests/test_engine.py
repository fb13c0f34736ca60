import math
from collections import Counter
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfetc import (BlowupError, ClfCertificate, ControlSystem,
                    DimensionMismatchError, DomainError, IntegrationError,
                    EventTriggered, IntegratorConfig, PeriodicEventTriggered,
                    RateFunction, TimeTriggered,
                    bound_sublevel_box, build_model, check_rate_certificate,
                    estimate_constants, integrate_frozen, locate_event,
                    run_closed_loop, run_stats, write_trajectory_csv)
from clfetc import engine
from clfetc.cli import (_model_and_x0, integrator_from_config, load_config,
                        resolve_policy)
from clfetc.core import rowwise
from clfetc.engine import (_Hermite, _probe_states, _probe_times, _states_at,
                           read_event_times_csv, stats_from_event_times)
from clfetc.models import MODEL_NAMES
from clfetc.triggers import frozen_guard, predicate_margin
from oracles import (acc_event_times, acc_frozen_matrices, acc_periodic_checks,
                     affine_flow, dopri_step_reference, ivp_event_times,
                     locate_event_reference, periodic_checks_reference,
                     rate_excess_reference)


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

    def test_a_span_below_time_resolution_snaps_from_the_last_step(self):
        # the first step stops one ulp short of the target, and the span left
        # is below time resolution: the last piece must hold the state and
        # field value of the step before it to the target, not the start's
        cfg = IntegratorConfig(horizon=2.0, max_step=1.0)
        t_end = math.nextafter(1.0, 2.0)
        pieces = list(engine._steps(lambda y: [1.0, y[0]], 0.0, np.zeros(2),
                                    np.array([1.0, 0.0]), t_end, cfg, h=1.0))
        assert len(pieces) == 2
        step, snap = pieces
        assert (step.t1, snap.t0, snap.t1) == (1.0, 1.0, t_end)
        assert step.y1 != [0.0, 0.0] and step.f1 != [1.0, 0.0]  # it moved
        for got, want in ((snap.y0, step.y1), (snap.y1, step.y1),
                          (snap.f0, step.f1), (snap.f1, step.f1)):
            assert [c.hex() for c in got] == [c.hex() for c in want]

    def test_blowup_raises(self):
        sysm = ControlSystem(1, 1, rhs=lambda x, u: np.array([x[0] ** 2]))
        cfg = IntegratorConfig(horizon=1.0)
        with pytest.raises(BlowupError):
            integrate_frozen(sysm, [5.0], [0.0], (0.0, 0.5), cfg)

    def test_a_constant_field_blows_up_after_the_step_that_crosses_the_cap(self):
        # the state moves at speed 1.3e11 and passes the cap of 1e12 near
        # t = 7.69, inside a step of max_step = 0.01; the stepper raises at
        # that step's end.  The time and state are the bits that the
        # stepper gave when it tested the norm with numpy's dot product
        sysm = ControlSystem(3, 1, rhs=lambda x, u: np.zeros_like(x) + [3e10, 4e10, 1.2e11])
        cfg = IntegratorConfig(horizon=10.0)
        with pytest.raises(BlowupError) as blowup:
            integrate_frozen(sysm, [0.0, 0.0, 0.0], [0.0], (0.0, 10.0), cfg)
        assert blowup.value.t.hex() == "0x1.ec53dc6e3b81fp+2"
        assert [v.hex() for v in blowup.value.state.tolist()] == [
            "0x1.addbca3a2c60ep+37", "0x1.1e9286d172eb4p+38", "0x1.addbca3a2c60ep+39"]

    def test_a_field_that_fails_past_a_state_underflows_the_step(self):
        # x' = 1 until x = 1 and NaN past it: every step that reaches past
        # t = 1 fails, and the steps shrink toward it until they underflow
        sysm = ControlSystem(1, 1, rhs=lambda x, u: np.where(x > 1.0, np.nan, 1.0))
        cfg = IntegratorConfig(horizon=2.0)
        with pytest.raises(IntegrationError, match="step size underflow"):
            integrate_frozen(sysm, [0.0], [0.0], (0.0, 2.0), cfg)

    def test_a_field_that_fails_in_one_coordinate_underflows_the_step(self):
        # x' = (1, 1/2, -1/4) until x1 = 1, and NaN past it in the second
        # coordinate alone: that one coordinate must make the error norm
        # non-finite, so the steps that reach past t = 1 fail and shrink
        # toward it until they underflow, as at d = 1
        def rhs(x, u):
            x1 = x.T[0]
            return np.array([np.ones_like(x1), np.where(x1 > 1.0, np.nan, 0.5),
                             np.full_like(x1, -0.25)]).T

        sysm = ControlSystem(3, 1, rhs=rhs)
        cfg = IntegratorConfig(horizon=2.0)
        seg = integrate_frozen(sysm, [0.0, 0.0, 0.0], [0.0], (0.0, 0.5), cfg)
        assert seg.ys[-1].tolist() == pytest.approx([0.5, 0.25, -0.125], abs=1e-15)
        with pytest.raises(IntegrationError, match="step size underflow"):
            integrate_frozen(sysm, [0.0, 0.0, 0.0], [0.0], (0.0, 2.0), cfg)

    @pytest.mark.parametrize("t_span", [(0.0, math.nan), (math.nan, 1.0),
                                        (0.0, math.inf), (1.0, 0.5)],
                             ids=["nan-end", "nan-start", "inf-end", "reversed"])
    def test_a_span_must_be_finite_and_in_order(self, relay, t_span):
        # a NaN end once returned x0 as a one-point segment, and an infinite
        # end stepped without bound
        cfg = IntegratorConfig(horizon=1.0)
        with pytest.raises(DomainError, match="t_span must be finite and nondecreasing"):
            integrate_frozen(relay.system, [1.0], [-1.0], t_span, cfg)

    def test_a_segment_reads_only_its_span(self, relay):
        cfg = IntegratorConfig(horizon=1.0)
        seg = integrate_frozen(relay.system, [1.0], [-1.0], (0.0, 0.5), cfg)
        for t in (-1e-9, 0.5 + 1e-9):
            with pytest.raises(DomainError, match="outside segment"):
                seg.eval(t)
        # a zero-length segment holds its one point, and reads it there
        x0 = np.array([-0.0])
        point = integrate_frozen(relay.system, x0, [-1.0], (0.25, 0.25), cfg)
        assert point.ts.tolist() == [0.25]
        assert point.eval(0.25).tobytes() == x0.tobytes()

    @pytest.mark.parametrize("first_step", [0.0, -1.0, math.nan, math.inf])
    def test_a_first_step_must_be_positive_and_finite(self, relay, first_step):
        # a first step of 0 would otherwise be taken for a span below time
        # resolution and return x0 at the span's end
        cfg = IntegratorConfig(horizon=1.0)
        with pytest.raises(DomainError, match="first_step must be positive and finite"):
            integrate_frozen(relay.system, [1.0], [-1.0], (0.0, 0.5), cfg,
                             first_step=first_step)

    def test_a_first_step_longer_than_the_span_takes_one_step(self, relay):
        cfg = IntegratorConfig(horizon=1.0, max_step=1.0)
        seg = integrate_frozen(relay.system, [1.0], [-1.0], (0.0, 0.5), cfg,
                               first_step=1.0)
        assert seg.ts.tolist() == [0.0, 0.5]
        assert seg.ys[-1][0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-11])
    def test_a_rejected_first_step_keeps_the_tolerance(self, acc, rel_tol):
        # a first step of the whole span fails the error control and shrinks
        # until it passes; the end state is then as close to the exact
        # affine flow as from the initial-step estimate.  Measured error over
        # (abs_tol + rel_tol*|exact|), per component: 0.135 and 0.168 from
        # the first step of 1, 0.123 and 0.168 from the estimate
        u_star = 2.0
        a, c = acc_frozen_matrices(1.01, 0.3, u_star)
        x0 = np.array([1.0, -2.0, 0.5])
        cfg = IntegratorConfig(horizon=1.0, max_step=1.0, rel_tol=rel_tol)
        seg = integrate_frozen(acc.system, x0, [u_star], (0.0, 1.0), cfg,
                               first_step=1.0)
        assert seg.ts[1] < 0.1  # the step of 1 was rejected
        exact = affine_flow(a, c, x0, 1.0)
        scale = cfg.abs_tol + cfg.rel_tol * np.abs(exact)
        assert np.max(np.abs(seg.ys[-1] - exact) / scale) <= 0.5


class TestRkStep:
    @settings(max_examples=300, deadline=None)
    @given(which=st.integers(0, 3), data=st.data())
    def test_an_attempt_matches_both_routes(self, acc, homog, relay, zeno, which, data):
        # one Dormand-Prince attempt on a model's frozen field (d = 3, 2, 1
        # and 2), from a state in [-2, 2]^d under the model's own feedback,
        # over a step up to 0.1.  The engine's attempt, which calls the
        # field's float form on lists, and its error norm have the bits of
        # the oracle's float route, whose tableau is written out apart from
        # the engine's and which calls the array field: the two field forms
        # agree at every stage
        model = (acc, homog, relay, zeno)[which]
        d = model.system.state_dim
        y = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
        h = data.draw(st.floats(1e-6, 0.1))
        u = model.certificate.u(y)
        f, f0 = model.system.frozen(u), model.system.f(y, u)
        y1, f1, err = engine._rk_step(f.point, y.tolist(), f0.tolist(), h)
        norm = engine._error_norm(err, y.tolist(), y1, 1e-9, 1e-11)
        ref_y1, ref_f1, ref_err, ref_norm = dopri_step_reference(f, y, f0, h, 1e-9, 1e-11)
        assert ([v.hex() for v in [*y1, *f1, *err, norm]]
                == [v.hex() for v in [*ref_y1, *ref_f1, *ref_err, ref_norm]])
        y1, f1 = np.array(y1), np.array(f1)
        # the matrix form sums in numpy's and BLAS's order.  Measured on
        # 120,000 random attempts of this kind, in ulps of the state scale
        # |y| + h*max(|f0|, |f1|) (max norms): y1 at most 2.5 apart, the
        # error estimate 0.18
        mat_y1, _, mat_err, _ = dopri_step_reference(f, y, f0, h, 1e-9, 1e-11,
                                                     matmul=True)
        ulp = engine._EPS * (np.max(np.abs(y))
                             + h * max(np.max(np.abs(f0)), np.max(np.abs(f1))))
        assert np.max(np.abs(y1 - mat_y1)) <= 4 * ulp
        assert np.max(np.abs(np.array(err) - mat_err)) <= ulp

    def test_a_nan_end_state_makes_the_norm_nan(self):
        # Python's max keeps its first argument against a NaN, so the scale
        # must take |y1| first: the error estimate here is 0, and the NaN
        # end state alone must make the attempt fail
        y0, y1 = np.array([1.0, 2.0, 3.0]), np.array([1.0, math.nan, 3.0])
        assert math.isnan(engine._error_norm([0.0, 0.0, 0.0], y0, y1, 1e-9, 1e-11))


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
        # a step's probe states come from the probe table, or from the gather
        # over listed instants when the probe times are listed; each row must
        # keep the bits of the interpolant at its time alone
        rng = np.random.default_rng(seed)
        for dim in (1, 2, 3, 5):
            t0 = float(rng.uniform(-100.0, 100.0))
            t1 = t0 + float(10.0 ** rng.uniform(-9.0, 1.0))
            y0, f0, y1, f1 = rng.normal(size=(4, dim)) * 10.0 ** rng.uniform(-3, 3)
            piece = _Hermite(t0, y0, f0, t1, y1, f1)
            ts = _probe_times(piece)[1:-1]
            rows = np.array([piece(t) for t in ts])
            for column in (_probe_states([piece])[1:-1], _states_at([piece], [ts])):
                assert column.shape == rows.shape == (len(ts), dim)
                assert column.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("probes_only", [False, True],
                             ids=["mixed", "probes"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_window_pass_equals_the_listed_states(self, dim, probes_only):
        # a step rule reads, per step, its check times or its start, probes
        # and end, in one batch over a window of consecutive steps; each row
        # must keep the bits of the step's own interpolant at its time, and
        # each start or end row the step's own.  Under the event policy every
        # step of a window reads its probes, through the probe table; a
        # window that lists instants goes through the gather
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
            windows = [_states_at(pieces, times)]
            if probes_only:
                assert len(rows) == width * (engine.GUARD_PROBES + 2)
                windows.append(_probe_states(pieces))
            for window in windows:
                assert window.shape == (len(rows), dim)
                assert window.tobytes() == np.array(rows).reshape(-1, dim).tobytes()

    def test_a_probe_step_keeps_the_signed_zeros_of_its_ends(self):
        # the cubic at s = 0 or 1 adds a +0.0 term to a -0.0 coordinate and
        # returns +0.0, so the gather must put a probe step's own start and
        # end in a window that also lists instants
        y0, y1 = np.array([-0.0, 1.0]), np.array([2.0, -0.0])
        p = _Hermite(1.0, y0, np.array([1.0, 1.0]), 2.0, y1, np.array([1.0, -1.0]))
        before = _Hermite(0.5, np.ones(2), np.ones(2), 1.0, y0, p.f0)
        assert not np.signbit(p(p.t0)[0]) and not np.signbit(p(p.t1)[1])
        window = _states_at([before, p], [[0.75, 1.0], None])
        assert window.shape == (2 + engine.GUARD_PROBES + 2, 2)
        start, end = window[2], window[-1]
        assert np.signbit(start[0]) and np.signbit(end[1])
        assert start.tobytes() == y0.tobytes() and end.tobytes() == y1.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_the_float_read_has_the_bits_of_the_batch_reader(self, dim, data):
        # localization reads a step's cubic at one instant in floats, on the
        # stepper's lists; it must give the bits of piece(t) and of the
        # gather's row there, at the step's ends too, with signed zeros
        vec = st.lists(st.floats(-1e6, 1e6) | st.just(-0.0),
                       min_size=dim, max_size=dim)
        y0, f0, y1, f1 = (data.draw(vec) for _ in range(4))
        t0 = data.draw(st.floats(-100.0, 100.0))
        piece = _Hermite(t0, y0, f0, t0 + data.draw(st.floats(1e-9, 10.0)), y1, f1)
        t = data.draw(st.sampled_from([piece.t0, piece.t1])
                      | st.floats(piece.t0, piece.t1))
        want = [c.hex() for c in _states_at([piece], [[t]])[0].tolist()]
        assert [c.hex() for c in piece.at(t)] == want
        assert [c.hex() for c in piece(t).tolist()] == want

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(MODEL_NAMES), data=st.data())
    def test_the_localization_read_has_the_bits_of_the_guard(self, name, data):
        # the read takes the state in floats and its field value from the
        # float form, then the guard on arrays: the bits of frozen_guard on
        # the gather's row and the array field's value there, or the same
        # error where V is so small that the rate underflows to zero
        def outcome(read):
            try:
                return float(read()).hex()
            except DomainError as exc:
                return str(exc)

        model = build_model(name)
        sysm, cert = model.system, model.certificate
        vec = st.lists(st.floats(-10.0, 10.0) | st.just(-0.0),
                       min_size=sysm.state_dim, max_size=sysm.state_dim)
        y0, y1 = data.draw(vec), data.draw(vec)
        sigma = data.draw(st.floats(0.05, 0.95))
        t0 = data.draw(st.floats(-100.0, 100.0))
        with np.errstate(all="ignore"):
            f = sysm.frozen(cert.u(np.array(y0)))
            piece = _Hermite(t0, y0, f.point(y0),
                             t0 + data.draw(st.floats(1e-9, 10.0)), y1, f.point(y1))
            t = data.draw(st.sampled_from([piece.t0, piece.t1])
                          | st.floats(piece.t0, piece.t1))
            y = _states_at([piece], [[t]])[0]
            want = outcome(lambda: frozen_guard(cert, y, f(y), sigma))
            got = outcome(lambda: engine._read(
                partial(frozen_guard, cert, sigma=sigma), f.point, piece, t))
        assert got == want


    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_grid_pass_equals_the_per_row_states(self, dim):
        # the recorder reads the grid rows of a window's accepted steps, and
        # of a cut last step those strictly before its cut, in one pass;
        # each row must keep the bits of its own step's interpolant at its
        # instant.  A row at the window's start, where an event was
        # recorded, is passed over
        rng = np.random.default_rng(20 + dim)
        for _ in range(60):
            pieces, grid, owners = [], [], []
            t = float(rng.uniform(0.0, 100.0))
            for _ in range(int(rng.integers(1, engine._WINDOW_CAP + 1))):
                h = float(10.0 ** rng.uniform(-9.0, 1.0))
                y0, f0, y1, f1 = rng.normal(size=(4, dim)) * 10.0 ** rng.uniform(-3, 3)
                p = _Hermite(t, y0, f0, t + h, y1, f1)
                ts = set(rng.uniform(p.t0, p.t1, int(rng.integers(0, 41))).tolist())
                if rng.random() < 0.3:
                    ts.add(p.t1)
                ts = sorted(tt for tt in ts if p.t0 < tt <= p.t1)
                grid += ts
                owners += [p] * len(ts)
                pieces.append(p)
                t = p.t1
            last = pieces[-1]
            at = None
            if rng.random() < 0.5:  # a cut, on one of the last step's rows or not
                on_rows = [tt for tt, p in zip(grid, owners) if p is last]
                at = (on_rows[int(rng.integers(len(on_rows)))]
                      if on_rows and rng.random() < 0.5
                      else float(rng.uniform(last.t0, last.t1)))
            rec = engine._Recorder(None, SimpleNamespace(state_dim=dim),
                                   np.array([pieces[0].t0] + grid))
            rec.add_row(pieces[0].t0, pieces[0].y0, True)
            rec.fill_grid(pieces, at)
            rec.flush()  # the states of the noted rows are read here
            want = [(tt, p) for tt, p in zip(grid, owners)
                    if at is None or p is not last or tt < at]
            assert rec.n == 1 + len(want)
            assert rec._first() == 1 + len(want)  # the fill resumes here
            assert rec.t[1:rec.n].tolist() == [tt for tt, _ in want]
            assert rec.x[1:rec.n].tobytes() == np.array(
                [p(tt) for tt, p in want]).reshape(-1, dim).tobytes()

    def test_a_run_of_several_chunks_equals_the_per_row_states(
            self, homog, monkeypatch):
        # homog2d over long steps, each of which holds many grid rows: the
        # recorder reads its noted rows in four full passes and a last one
        # when the run ends, and never holds more than a chunk of them.
        # Every row must keep the bits of its own step's piece(t), as a
        # recorder that reads each row alone gives them
        chunk = engine._GRID_CHUNK
        cfg = IntegratorConfig(horizon=200.0, max_step=200.0,
                               output_points=4 * chunk + 3)
        args = (homog.system, homog.certificate, EventTriggered(sigma=0.9),
                homog.default_x0, cfg)
        fill, flush, waiting, passes = (engine._Recorder.fill_grid,
                                        engine._Recorder.flush, [], [])

        def per_row(rec, pieces, at=None):
            for piece in pieces:
                last = at if at is not None and piece is pieces[-1] else None
                for t in rec.grid[rec._first():]:
                    if t > piece.t1 or (last is not None and t >= last):
                        break
                    rec.add_row(t, piece(t), False)

        monkeypatch.setattr(engine._Recorder, "fill_grid", per_row)
        want = run_closed_loop(*args)

        def watched_fill(rec, pieces, at=None):
            fill(rec, pieces, at)
            waiting.append(len(rec.rows))

        def watched_flush(rec):
            passes.append(len(rec.rows))
            flush(rec)

        monkeypatch.setattr(engine._Recorder, "fill_grid", watched_fill)
        monkeypatch.setattr(engine._Recorder, "flush", watched_flush)
        traj = run_closed_loop(*args)
        assert len(traj.t) > 4 * chunk
        assert traj.t.tobytes() == want.t.tobytes()
        assert traj.x.tobytes() == want.x.tobytes()
        assert max(waiting) < chunk
        assert passes.count(chunk) == 4 and max(passes) == chunk


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
        # the bracket of test_halving_finds_a_root_between_probes's step
        # after its first doubling: reads at a + j/18, with the bump's left
        # edge between j = 8 and 9
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


def _halving_loop(later=True, bump=(0.45, 0.53), window=(0.73, 0.82),
                  on_bump=0.75):
    """A unit-speed clock, so the exact steps grow to ``max_step`` and the
    frozen flow is known in closed form, under a guard that is positive on a
    bump that a full step's probes miss and, when ``later``, on a window
    around a later probe; both are given as offsets from the start ``a`` of
    the step [a, a + 1].  The guard reads ``on_bump`` on the bump, 0.75 on
    the window and -0.25 elsewhere.  Returns ``(system, certificate, x0,
    policy, config, bump)``."""
    sysm = ControlSystem(2, 1, rhs=rowwise(lambda x, u: np.array([0.0, 1.0])))
    x0 = np.array([1.0, 0.0])
    cfg = IntegratorConfig(horizon=10.0, max_step=1.0, max_events=2)
    # with no crossing the guarded run takes exactly these steps
    mesh = integrate_frozen(sysm, x0, [0.0], (0.0, 10.0), cfg).ts
    i = next(i for i in range(len(mesh) - 1)
             if mesh[i] > 2.0 and mesh[i + 1] - mesh[i] == 1.0)
    a = mesh[i]
    # full-step probes sit at a + j/9: the default bump lies between j = 4
    # and 5, and the default window holds j = 7 only
    bump = (a + bump[0], a + bump[1])
    window = (a + window[0], a + window[1]) if later else bump

    def gradient(x):
        if bump[0] <= x[1] <= bump[1]:
            return np.array([x[0], on_bump - 0.25])
        return np.array([x[0], 0.5 if window[0] <= x[1] <= window[1] else -0.5])

    # guard = gradient . F + sigma*V: the clock entry of the gradient + 0.25
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


def _blowup_loop():
    """``xdot = x^2`` from 5, which escapes at t = 0.2, under a clock of
    period 1: ``(system, certificate, x0, policy, config)``."""
    sysm = ControlSystem(1, 1, rhs=rowwise(lambda x, u: np.array([x[0] ** 2])))
    cert = ClfCertificate(value=rowwise(lambda x: float(x[0] ** 2)),
                          gradient=rowwise(lambda x: np.array([2.0 * x[0]])),
                          rate=RateFunction.linear(1.0),
                          feedback=rowwise(lambda x: np.zeros(1)))
    return (sysm, cert, [5.0], TimeTriggered(sigma=0.5, period=1.0),
            IntegratorConfig(horizon=10.0))


def _homog2d_clock(spec):
    """The homog2d preset to a horizon of 5 under the clock policy ``spec``,
    with the preset's sigma: ``(system, certificate, x0, policy, config)``."""
    cfg = load_config("homog2d")
    cfg = replace(cfg, horizon=5.0, policy=dict(spec, sigma=cfg.sigma))
    model, x0 = _model_and_x0(cfg)
    policy, _ = resolve_policy(cfg, model, x0)
    return (model.system, model.certificate, x0, policy,
            IntegratorConfig(horizon=cfg.horizon, **cfg.integrator))


def _run_record(traj):
    """Every array of a trajectory as bytes, its termination and its events,
    for comparing runs bit for bit."""
    return ([arr.tobytes() for arr in (traj.t, traj.x, traj.u, traj.v, traj.w,
                                       traj.bound, traj.event_flag)],
            traj.termination,
            [(e.index, e.time, e.dwell, e.guard_value, e.reason,
              e.state.tobytes(), e.control.tobytes()) for e in traj.events])


def _engine_and_route(preset):
    """A preset's event run through the engine and through the second route
    (:func:`oracles.ivp_event_times`), with the preset's event cap and Zeno
    floor: the config, the model, its initial state, the engine's
    trajectory and the route's ``(times, states, termination)``."""
    cfg = load_config(preset)
    model, x0 = _model_and_x0(cfg)
    icfg = integrator_from_config(cfg)
    traj = run_closed_loop(model.system, model.certificate,
                           EventTriggered(sigma=cfg.sigma), x0, icfg)
    route = ivp_event_times(model, x0, cfg.horizon, cfg.sigma,
                            max_events=icfg.max_events, zeno_floor=icfg.zeno_floor)
    return cfg, model, x0, traj, route


class TestSecondRoute:
    # every preset's events against scipy's DOP853 at rtol 1e-13 and atol
    # 1e-16, restarted at each event: the same count and termination, and
    # the times within bounds set from the measured differences, homog2d's
    # one fired event 1.20e-10 s, relay1d's 1.67e-15 s and zeno_polar's ten
    # before the engine's zeno_abort 1.38e-11 relative.  On acc, where the
    # cubic interpolant's error of up to 3.8e-4 s leads, the route itself is
    # held to the exact flow instead
    @pytest.mark.parametrize("preset, atol, rtol", [
        ("homog2d", 1e-8, 0.0), ("relay1d", 1e-12, 0.0), ("zeno_polar", 0.0, 1e-9)])
    def test_event_times_match_the_second_route(self, preset, atol, rtol):
        _, _, _, traj, (times, _, termination) = _engine_and_route(preset)
        assert len(traj.events) == len(times)
        assert traj.termination == termination
        np.testing.assert_allclose([e.time for e in traj.events], times,
                                   rtol=rtol, atol=atol)

    @pytest.mark.parametrize("preset", ["acc_case1", "acc_case2"])
    def test_acc_second_route_matches_the_exact_flow(self, preset):
        # measured against oracles.acc_event_times: 5.15e-11 s (case 1) and
        # 2.67e-10 s (case 2) over every event
        cfg, model, x0, traj, (times, _, termination) = _engine_and_route(preset)
        exact, _, exact_termination = acc_event_times(model, x0, cfg.horizon,
                                                      cfg.sigma)
        assert len(traj.events) == len(times) == len(exact)
        assert traj.termination == termination == exact_termination
        np.testing.assert_allclose(times, exact, rtol=0.0, atol=1e-8)

    @pytest.mark.xfail(raises=AssertionError,
                       reason="ROADMAP item 6: the probes of steps about "
                              "1e13 s long miss crossings")
    def test_homog2d_at_a_horizon_of_1e16_matches_the_second_route(self):
        # measured: the engine records 15 updates and ends at the horizon
        # with a rate-certificate excess of 4.99e-6; the route records 18
        # and ends at the equilibrium
        cfg = replace(load_config("homog2d"), x0=[0.1, 0.4], horizon=1e16)
        model, x0 = _model_and_x0(cfg)
        icfg = integrator_from_config(cfg)
        traj = run_closed_loop(model.system, model.certificate,
                               EventTriggered(sigma=cfg.sigma), x0, icfg)
        times, _, _ = ivp_event_times(model, x0, cfg.horizon, cfg.sigma,
                                      max_events=icfg.max_events,
                                      zeno_floor=icfg.zeno_floor)
        assert len(traj.events) == len(times)
        assert check_rate_certificate(traj)[0]


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
        sysm, cert, x0, policy, cfg = _blowup_loop()
        traj = run_closed_loop(sysm, cert, policy, x0, cfg)
        assert traj.termination == "blowup"
        # finite escape time of xdot = x^2 from 5 is 1/5
        assert traj.t[-1] == pytest.approx(0.2, abs=1e-3)

    def test_earliest_root_with_oscillating_guard(self):
        # the earliest crossing must match a fine-scan reference.  The guard
        # probes resolve this oscillation in every step, so no step is read
        # again at doubled density here (see the next test)
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
        # two detected crossings.  Only reading the step again at doubled
        # density puts a read inside the bump.
        sysm, cert, x0, policy, cfg, bump = _halving_loop()
        traj = run_closed_loop(sysm, cert, policy, x0, cfg)
        assert traj.termination == "event_cap"
        assert traj.events[1].time == pytest.approx(bump[0], abs=1e-12)

    @pytest.mark.parametrize("window", [(0.33, 0.35), (0.17, 0.25)],
                             ids=["lost", "late"])
    def test_a_narrow_bump_before_a_window_fires_at_the_bump(self, window):
        # the probes read the window, not the bump [a + 0.01, a + 0.02],
        # which shows only to reads 1/144 apart, four doublings of the
        # probes; the first crossing is the bump's, not the window's
        sysm, cert, x0, policy, cfg, bump = _halving_loop(bump=(0.01, 0.02),
                                                          window=window)
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

    def test_a_nan_read_between_probes_is_not_passed_unfired(self):
        # the guard is NaN on the bump, which only the refinement's reads
        # reach, before the window that the probes read: the first NaN read
        # ends the search as the first read not below zero, and the root
        # search finds no zero between it and the read before
        sysm, cert, x0, policy, cfg, _ = _halving_loop(on_bump=math.nan)
        with pytest.raises(DomainError, match="does not straddle.*=nan"):
            run_closed_loop(sysm, cert, policy, x0, cfg)

    def test_refinement_reads_only_before_the_first_non_negative_read(
            self, monkeypatch):
        # the default loop's step reads the window at one probe, and its
        # reads change sign twice, so every doubling runs.  Reading every
        # midpoint of the row took 9 + 18 + ... + 288 = 567 reads; those past
        # the first non-negative read cannot move it, and 261 were measured
        # without them.  The steps of the windows read through the probe
        # table, so every listed read inside the rule is the refinement's
        states_at, reads = engine._states_at, []
        _, judging = _watched_rule(monkeypatch)

        def counted_states_at(pieces, times):
            ys = states_at(pieces, times)
            if judging:
                reads.append(len(ys))
            return ys

        monkeypatch.setattr(engine, "_states_at", counted_states_at)
        sysm, cert, x0, policy, cfg, bump = _halving_loop()
        traj = run_closed_loop(sysm, cert, policy, x0, cfg)
        assert traj.events[1].time == pytest.approx(bump[0], abs=1e-12)
        assert len(reads) == engine._REFINE_DOUBLINGS
        assert sum(reads) <= 261

    def test_a_guard_that_is_nan_at_an_update_is_named(self):
        # the guard is NaN until the clock reads 2, so at t = 0 already: a
        # guard at or above zero at an update fires at once, but a NaN one
        # names where the run stopped
        sysm = ControlSystem(2, 1, rhs=rowwise(lambda x, u: np.array([0.0, 1.0])))
        cert = ClfCertificate(
            value=rowwise(lambda x: 0.5 * x[0] ** 2),
            gradient=rowwise(lambda x: np.array([x[0], math.nan if x[1] < 2.0 else -0.5])),
            rate=RateFunction.linear(1.0),
            feedback=rowwise(lambda x: np.zeros(1)))
        cfg = IntegratorConfig(horizon=10.0, max_step=0.1)
        with pytest.raises(DomainError, match=r"NaN at t=0\.0, x=\[1\.0, 0\.0\]"):
            run_closed_loop(sysm, cert, EventTriggered(sigma=0.5),
                            np.array([1.0, 0.0]), cfg)

    @pytest.mark.xfail(raises=AssertionError,
                       reason="ROADMAP item 6: probes miss a positive bump "
                              "between them when no other crossing shows")
    def test_a_bump_between_probes_fires(self):
        # the bump alone: the step's probes all read -0.25, so the step is
        # not read again, and the run reaches the horizon unfired
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

    @pytest.mark.parametrize("preset, horizon, periodic", [
        ("acc_case1", 15.0, False), ("homog2d", 10.0, True)],
        ids=["acc-event", "homog2d-periodic"])
    def test_a_field_with_no_float_form_runs_as_the_model(self, preset, horizon,
                                                          periodic):
        # a plain lambda around the shipped rhs has no float form: the
        # stepper calls it through the adapter, on arrays, and must give
        # every array and event of the model's own float form, bit for bit
        cfg = load_config(preset)
        model, x0 = _model_and_x0(cfg)
        sysm, cert = model.system, model.certificate
        plain = replace(sysm, rhs=lambda x, u: sysm.rhs(x, u))
        assert hasattr(sysm.rhs, "point") and not hasattr(plain.rhs, "point")
        if periodic:
            policy = PeriodicEventTriggered(sigma=cfg.sigma,
                                            sigma_tilde=(1.0 + cfg.sigma) / 2.0,
                                            k_big=2.0, h=0.05, big_m=10.0)
        else:
            policy = EventTriggered(sigma=cfg.sigma)
        icfg = IntegratorConfig(horizon=horizon, output_points=201, **cfg.integrator)
        runs = [run_closed_loop(s, cert, policy, x0, icfg) for s in (sysm, plain)]
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


def _watched_rule(monkeypatch):
    """Watch every step rule a run makes; returns ``(windows, judging)``:
    the size of each window a rule judges, and a list that is not empty
    while one is being judged."""
    step_rule, windows, judging = engine._step_rule, [], []

    def watched_rule(scalar, grid=None):
        rule = step_rule(scalar, grid)

        def judged(pieces, f):
            windows.append(len(pieces))
            judging.append(True)
            try:
                return rule(pieces, f)
            finally:
                judging.pop()
        return judged

    monkeypatch.setattr(engine, "_step_rule", watched_rule)
    return windows, judging


def _stepper_starts(monkeypatch):
    """Count the stepper's starts in each scan, leaving out the corrector's
    own integration to a cut; returns the list of counts, one per scan."""
    scan, steps, frozen = engine._scan, engine._steps, engine.integrate_frozen
    starts, correcting = [], []

    def counted_scan(*args):
        starts.append(0)
        return scan(*args)

    def counted_steps(*args, **kwargs):
        if not correcting:
            starts[-1] += 1
        return steps(*args, **kwargs)

    def corrector(*args, **kwargs):
        correcting.append(True)
        try:
            return frozen(*args, **kwargs)
        finally:
            correcting.pop()

    monkeypatch.setattr(engine, "_scan", counted_scan)
    monkeypatch.setattr(engine, "_steps", counted_steps)
    monkeypatch.setattr(engine, "integrate_frozen", corrector)
    return starts


class TestCorrector:
    """At a cut, the state comes from one integration of the frozen flow
    from the cut step's start to the cut instant."""

    @pytest.mark.parametrize("preset, kind", [("acc_case1", "event"),
                                              ("acc_policy_sweep", "periodic-event")])
    def test_a_corrector_takes_the_cut_step_once(self, monkeypatch, preset, kind):
        # the span to the cut is never longer than the cut step, which the
        # error control has just accepted from the same state and field
        # value: the corrector starts from that step's size, covers the span
        # in one step and estimates no first step of its own.  The periodic
        # row's checks fail, so its scans end in cuts too
        frozen, initial, scan = engine.integrate_frozen, engine._initial_step, engine._scan
        meshes, estimates, correcting = [], Counter(), []

        def corrector(*args, **kwargs):
            correcting.append(True)
            try:
                seg = frozen(*args, **kwargs)
            finally:
                correcting.pop()
            meshes.append(len(seg.ts))
            return seg

        def counted_initial(*args):
            estimates["corrector" if correcting else "scan"] += 1
            return initial(*args)

        def counted_scan(*args):
            estimates["scans"] += 1
            return scan(*args)

        monkeypatch.setattr(engine, "integrate_frozen", corrector)
        monkeypatch.setattr(engine, "_initial_step", counted_initial)
        monkeypatch.setattr(engine, "_scan", counted_scan)
        cfg = load_config(preset)
        cfg = replace(cfg, policy={"policy": kind, "sigma": cfg.sigma})
        model, x0 = _model_and_x0(cfg)
        policy, _ = resolve_policy(cfg, model, x0)
        icfg = IntegratorConfig(horizon=cfg.horizon, **cfg.integrator)
        traj = run_closed_loop(model.system, model.certificate, policy, x0, icfg)
        assert len(meshes) >= len(traj.events) - 1 > 100
        assert set(meshes) == {2}
        assert estimates["corrector"] == 0
        assert estimates["scan"] == estimates["scans"]


class TestRecorderRows:
    """The row rules of a run's recording: grid rows, event rows and the
    rows that a blow-up and a freeze leave."""

    def test_an_event_at_a_grid_instant_replaces_its_row(self, homog):
        # the update at a grid instant keeps one row there: flag 1, the
        # event's state and its new control
        cfg = IntegratorConfig(horizon=1.0, output_points=5)
        policy = TimeTriggered(sigma=0.9, instants=(0.25, 0.5))
        traj = run_closed_loop(homog.system, homog.certificate, policy,
                               homog.default_x0, cfg)
        assert traj.t.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert traj.event_flag.tolist() == [1, 1, 1, 0, 0]
        for row, e in zip((0, 1, 2), traj.events):
            assert traj.t[row] == e.time
            assert traj.x[row].tobytes() == e.state.tobytes()
            assert traj.u[row].tobytes() == e.control.tobytes()
        assert traj.events[1].control.tolist() != traj.events[0].control.tolist()
        assert traj.u[3:].tobytes() == np.tile(traj.events[2].control, (2, 1)).tobytes()

    def test_repeated_events_at_one_instant_leave_one_row(self):
        # a guard that no control can bring below zero fires again at once,
        # at the same instant, until the Zeno safeguard stops the run
        sysm = ControlSystem(1, 1, rhs=lambda x, u: x)
        cert = ClfCertificate(value=lambda x: 0.5 * x[..., 0] ** 2,
                              gradient=lambda x: x,
                              rate=RateFunction.linear(1.0),
                              feedback=lambda x: -2.0 * x)
        cfg = IntegratorConfig(horizon=1.0, output_points=11)
        traj = run_closed_loop(sysm, cert, EventTriggered(sigma=0.5),
                               np.array([1.0]), cfg)
        assert traj.termination == "zeno_abort"
        assert len(traj.events) == engine.ZENO_CONSECUTIVE + 1
        assert {e.time for e in traj.events} == {0.0}
        assert traj.t.tolist() == [0.0]
        assert traj.event_flag.tolist() == [1]
        assert traj.u.tolist() == [traj.events[-1].control.tolist()]

    def test_events_between_grid_instants_keep_the_rows_in_order(self):
        # zeno_polar fires every 1e-5 s or so from t = 0, and its scans
        # reach no grid instant: the grid row at t = 0, which the initial
        # event holds, is not recorded again after them
        from clfetc import zeno_polar
        m = zeno_polar(r_star=0.01)
        cfg = IntegratorConfig(horizon=1.0, zeno_floor=1e-3, output_points=11)
        traj = run_closed_loop(m.system, m.certificate, EventTriggered(sigma=0.9),
                               m.default_x0, cfg)
        assert traj.termination == "zeno_abort"
        assert traj.t.tolist() == [e.time for e in traj.events]
        assert traj.events[-1].time < 0.1

    def test_a_blowup_appends_its_row(self):
        sysm, cert, x0, policy, cfg = _blowup_loop()
        traj = run_closed_loop(sysm, cert, policy, x0, cfg)
        # the scan to the first clock instant runs the stepper that
        # integrate_frozen runs over the same span
        with pytest.raises(BlowupError) as blowup:
            integrate_frozen(sysm, x0, [0.0], (0.0, 1.0), cfg)
        grid = np.linspace(0.0, 10.0, 1001)
        before = grid[grid <= blowup.value.t]
        assert traj.termination == "blowup"
        assert traj.t.tolist() == before.tolist() + [blowup.value.t]
        assert traj.event_flag.tolist() == [1] + [0] * len(before)
        assert traj.x[-1].tobytes() == blowup.value.state.tobytes()
        # every row, the blow-up row included, holds the initial control
        assert traj.u.tobytes() == np.tile(traj.events[0].control,
                                           (len(traj.t), 1)).tobytes()

    def test_a_freeze_holds_the_state_and_the_origin_control(self, relay):
        cfg = IntegratorConfig(horizon=2.0, output_points=101)
        traj = run_closed_loop(relay.system, relay.certificate,
                               EventTriggered(sigma=0.9), np.array([1.0]), cfg)
        frozen = traj.events[-1]
        assert traj.termination == "equilibrium"
        assert frozen.reason == "equilibrium_frozen" and 0.0 < frozen.time < 2.0
        row = traj.t.tolist().index(frozen.time)
        grid = np.linspace(0.0, 2.0, 101)
        assert traj.t[row + 1:].tolist() == grid[grid > frozen.time].tolist()
        assert traj.event_flag[row:].tolist() == [1] + [0] * (len(traj.t) - row - 1)
        origin_u = relay.certificate.u(np.zeros(1))
        for x, u in zip(traj.x[row:], traj.u[row:]):
            assert x.tobytes() == frozen.state.tobytes()
            assert u.tobytes() == origin_u.tobytes()

    def test_a_freeze_with_a_control_of_the_wrong_length_fails_loudly(self, relay):
        # the origin's control is recorded, not integrated: its length is
        # checked where it is recorded
        cert = replace(relay.certificate,
                       feedback=lambda x: np.zeros(x.shape[:-1] + (2,)))
        cfg = IntegratorConfig(horizon=1.0)
        with pytest.raises(DimensionMismatchError, match="control"):
            run_closed_loop(relay.system, cert, EventTriggered(sigma=0.9),
                            np.array([0.0]), cfg)


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
        # the crossing; the steps drawn before it are judged first, and the
        # crossing ends the scan before the error is raised
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
        # the model raises; the window is judged again one step at a time,
        # and the crossing ends the scan as one step at a time would
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

    def test_a_failed_read_is_judged_from_the_steps_drawn(self, monkeypatch):
        # error control sets the steps of a clock of varying speed; the
        # windowed read past the crossing raises, and the steps already
        # drawn are judged again one at a time, with no second start of the
        # stepper
        sysm, cert, x0, policy, cfg, errors = _guard_undefined_past_a_crossing_loop(
            wobble=5.0, max_step=1.0)
        starts = _stepper_starts(monkeypatch)
        a, b = self._both(monkeypatch, sysm, cert, policy, x0, cfg)
        assert _run_record(a) == _run_record(b)
        assert len(errors) == 1  # the windowed run's
        assert starts == [1, 1]  # one scan in each run
        assert a.termination == "event_cap"
        assert a.events[1].state[1] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("case", ["relay1d", "zeno_polar", "homog2d",
                                      "acc_case1", "acc_case2", "halving", "bump"])
    def test_a_scan_starts_its_stepper_once(self, monkeypatch, case):
        # a step whose reads change sign more than once is read again on its
        # own interpolant, and a window that fails is judged from the steps
        # drawn, so nothing starts the stepper a second time in a scan
        if case in ("halving", "bump"):
            sysm, cert, x0, policy, cfg = _halving_loop(later=case == "halving")[:5]
        else:
            preset = load_config(case)
            model, x0 = _model_and_x0(preset)
            sysm, cert = model.system, model.certificate
            policy = EventTriggered(sigma=preset.sigma)
            cfg = IntegratorConfig(horizon=preset.horizon, **preset.integrator)
        starts = _stepper_starts(monkeypatch)
        run_closed_loop(sysm, cert, policy, x0, cfg)
        assert starts and set(starts) == {1}

    @pytest.mark.parametrize("preset, spec, horizon, fires", [
        ("acc_case1", {"h": 0.005}, None, True),
        ("acc_case2", {"h": 0.005}, None, True),
        ("homog2d", {"h": 0.01}, 5.0, True),
        ("homog2d", {}, 0.02, False),
        ("acc_policy_sweep", {}, None, True),
    ], ids=["acc_case1-long", "acc_case2-long", "homog2d-short",
            "homog2d-derived-short", "acc_policy_sweep-derived"])
    def test_periodic_presets(self, monkeypatch, preset, spec, horizon, fires):
        # at h 0.005 every acc step holds more than GUARD_PROBES + 1 grid
        # points, and reads its probes; the homog2d steps read grid points.
        # The derived h (about 8e-6) passes every check up to the horizon.
        # acc_policy_sweep's periodic row, to its horizon of 60, alternates
        # long scans with one-step ones, so each scan's first window, sized
        # from the scans before it, is often too wide
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
        # margin on steps past it, where the gradient raises, and judges the
        # window again one step at a time, as under the event policy
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

    def test_a_window_that_fails_only_as_a_batch_raises_at_once(self):
        # the gradient rejects any batch of more than one step's reads, so
        # every window of two or more steps fails while each of its steps
        # read alone passes.  The scan judges the first such window one step
        # at a time, finds no cut, and raises the window's error; the run
        # does not read on to the horizon and fail again when it finishes
        cfg = load_config("homog2d")
        model, x0 = _model_and_x0(cfg)
        gradient, oversize = model.certificate.gradient, []

        def fussy(x):
            if np.ndim(x) == 2 and len(x) > engine.GUARD_PROBES + 2:
                oversize.append(len(x))
                raise ValueError("a batch of more than one step's reads")
            return gradient(x)

        cert = replace(model.certificate, gradient=fussy)
        icfg = IntegratorConfig(horizon=cfg.horizon, **cfg.integrator)
        with pytest.raises(ValueError, match="more than one step"):
            run_closed_loop(model.system, cert, EventTriggered(sigma=cfg.sigma),
                            x0, icfg)
        assert len(oversize) == 1

    @pytest.mark.parametrize("loop, termination", [
        (partial(_homog2d_clock, {"policy": "self", "tau": 0.05}), "horizon"),
        (partial(_homog2d_clock, {"policy": "time", "instants": [0.3, 1.0, 2.5]}),
         "horizon"),
        (_blowup_loop, "blowup"),
    ], ids=["homog2d-self", "homog2d-instants", "blowup"])
    def test_clock_policies(self, monkeypatch, loop, termination):
        # a clock scan draws its steps in windows of the cap, with no rule;
        # each clock segment is one scan, whose fills resume the grid after
        # the update row at its start.  The blow-up comes inside the first
        # segment: the steps drawn before the stepper's error are recorded,
        # then the blow-up row
        sysm, cert, x0, policy, cfg = loop()
        a, b = self._both(monkeypatch, sysm, cert, policy, x0, cfg)
        assert _run_record(a) == _run_record(b)
        assert a.termination == termination
        assert len(a.t) > 20

    def test_a_scan_starts_from_the_scans_before_it(self, monkeypatch):
        # acc_case1's scans mostly hold 2 to 4 steps, each about as many as
        # the one before.  A first window of one step took 314 windows; a
        # first window of the smaller step count of the last two cut scans
        # took 224, and the bound leaves room for the steps of another BLAS
        # kernel
        windows, _ = _watched_rule(monkeypatch)
        preset = load_config("acc_case1")
        model, x0 = _model_and_x0(preset)
        cfg = IntegratorConfig(horizon=preset.horizon, **preset.integrator)
        traj = run_closed_loop(model.system, model.certificate,
                               EventTriggered(sigma=preset.sigma), x0, cfg)
        assert len(traj.events) == 114
        assert len(windows) <= 240

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

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["horizon", "rel_tol", "abs_tol", "max_step",
                                       "zeno_floor"])
    def test_a_field_must_be_finite(self, field, value):
        # a NaN horizon would end the run at t = 0, a NaN step cap or Zeno
        # floor would switch itself off, and an infinite horizon would fail
        # deep inside the scan
        with pytest.raises(DomainError, match=f"{field} must be positive and finite"):
            IntegratorConfig(**{"horizon": 1.0, field: value})
