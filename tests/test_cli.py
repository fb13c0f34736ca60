import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import clfetc
from clfetc import (ConfigurationError, DwellInputs, PropernessError,
                    RateFunction, bound_sublevel_box, build_model,
                    check_rate_certificate, cli, engine, estimate_constants,
                    estimate_rho, tau_select)
from clfetc.core import EnergyTimeMap
from clfetc.models import zeno_first_event_bound
from clfetc.cli import (load_config, main, parse_config, resolve_policy,
                        _apply_axis, _csv_cell, _simulate_once)


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


MINI_RELAY = {
    "model": {"name": "relay1d"},
    "policy": {"policy": "event", "sigma": 0.9},
    "x0": [1.0],
    "horizon": 3.0,
    "seed": 0,
    "label": "mini_relay",
}

# a derived self-triggered run, which reads every integer field
TWIN = {
    "model": {"name": "homog2d"},
    "policy": {"policy": "self", "sigma": 0.9},
    "x0": [0.1, 0.4],
    "horizon": 0.02,
    "integrator": {"output_points": 11, "max_events": 400},
    "estimation": {"n_samples": 96, "n_clf_samples": 400},
    "seed": 3,
    "label": "twin",
}


BIG = int("1" * 400)  # a JSON integer too large for a float
HUGE = int("1" * 41)  # a sample size no run can hold


def _with(path, *value):
    """MINI_RELAY with the dotted field set to ``value``, or deleted."""
    data = json.loads(json.dumps(MINI_RELAY))
    *sections, key = path.split(".")
    target = data
    for section in sections:
        target = target.setdefault(section, {})
    if value:
        target[key] = value[0]
    else:
        del target[key]
    return data


class TestConfigHandling:
    def test_round_trip_identity(self):
        cfg = parse_config(MINI_RELAY)
        again = parse_config(cfg.to_dict())
        assert again.to_dict() == MINI_RELAY

    def test_unknown_top_level_key_rejected(self):
        bad = dict(MINI_RELAY)
        bad["extra"] = 1
        with pytest.raises(ConfigurationError):
            parse_config(bad)

    def test_unknown_policy_key_rejected(self):
        bad = json.loads(json.dumps(MINI_RELAY))
        bad["policy"]["window"] = 0.1
        with pytest.raises(ConfigurationError):
            parse_config(bad)

    def test_bad_values_rejected(self):
        for patch in ({"horizon": -1.0}, {"seed": -1},
                      {"model": {"name": "nope"}},
                      {"policy": {"policy": "event", "sigma": 1.5}}):
            bad = json.loads(json.dumps(MINI_RELAY))
            bad.update(patch)
            with pytest.raises(ConfigurationError):
                parse_config(bad)

    def test_presets_load_by_name(self):
        for name in ("homog2d", "acc_case1", "acc_case2", "relay1d",
                     "zeno_polar", "acc_policy_sweep", "zeno_sweep"):
            cfg = load_config(name)
            assert cfg.model_name

    def test_missing_config_reports_error(self):
        with pytest.raises(ConfigurationError):
            load_config("no_such_preset")

    # σ is set only under ``policy``: a ``sigma`` among the model's params
    # goes to the builder, which takes none, and no check of the params' σ
    # answers first with a line of its own (``old_message``)
    @pytest.mark.parametrize("command,policy,params_sigma,old_message", [
        ("simulate", {"policy": "event", "sigma": 0.9}, 0.6,
         "policy sigma and model sigma disagree"),
        ("verify", {"policy": "event", "sigma": 0.9}, 0.6,
         "policy sigma and model sigma disagree"),
        ("verify", {"policy": "event"}, 1.5, "sigma must lie in (0, 1), got 1.5"),
        ("verify", {"policy": "event"}, "abc", "sigma must be a number, got 'abc'"),
        ("verify", {"policy": "event"}, None, "sigma must be a number, got None"),
        ("verify", {"policy": "event"}, [0.5], "sigma must be a number, got [0.5]"),
    ])
    def test_bad_model_sigma_exits_one(self, tmp_path, capsys, command, policy,
                                       params_sigma, old_message):
        data = dict(MINI_RELAY, policy=policy,
                    model={"name": "relay1d", "params": {"sigma": params_sigma}})
        rc = run_cli(command, "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad parameters for model 'relay1d': ")
        assert err.endswith("unexpected keyword argument 'sigma'\n")
        assert old_message not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("data,message", [
        # a derived period needs finite constants, which relay1d lacks
        (dict(MINI_RELAY, policy={"policy": "time", "sigma": 0.9}),
         "velocity-to-decrease ratio diverges"),
        ({"model": {"name": "homog2d"}, "x0": [0.1, 0.4, 0.0], "horizon": 1.0},
         "state must have length 2"),
    ])
    def test_toolkit_errors_exit_one(self, tmp_path, capsys, data, message):
        rc = run_cli("simulate", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert message in err

    @pytest.mark.parametrize("horizon,policy,number", [
        ("1.0", '{"policy": "time", "sigma": 0.9, "period": NaN}', "NaN"),
        ("1.0", '{"policy": "periodic-event", "sigma": 0.9, "h": NaN}', "NaN"),
        ("1.0", '{"policy": "time", "sigma": 0.9, "period": Infinity}', "Infinity"),
        ("1.0", '{"policy": "self", "sigma": 0.9, "tau": -Infinity}', "-Infinity"),
        # a float that overflows reads as inf
        ("1e400", '{"policy": "event", "sigma": 0.9}', "1e400"),
    ])
    def test_non_finite_number_exits_one(self, tmp_path, capsys, horizon, policy, number):
        # Python's json reads these; a config must not
        path = tmp_path / "cfg.json"
        path.write_text('{"model": {"name": "homog2d"}, "x0": [0.1, 0.4], '
                        f'"horizon": {horizon}, "policy": {policy}}}')
        rc = run_cli("simulate", "--config", str(path), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert f"config number {number} is not a finite float" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("data,message", [
        # unknown keys, in each section
        (_with("extra", 1), "extra is not a known key"),
        (_with("policy.window", 0.1), "policy.window is not a known key"),
        (_with("integrator.step", 0.1), "integrator.step is not a known key"),
        (_with("estimation.anchors", 8), "estimation.anchors is not a known key"),
        (_with("sweep.axes", "K"), "sweep.axes is not a known key"),
        # required keys
        (_with("model"), "model is required"),
        (_with("model.name"), "model.name is required"),
        (_with("policy.policy"), "policy.policy is required"),
        (_with("sweep", {"values": [0.5]}), "sweep.axis is required"),
        (_with("sweep", {"axis": "sigma"}), "sweep.values is required"),
        # objects, arrays, strings and choices
        ([1, 2], "config must be an object, got [1, 2]"),
        (_with("policy", "event"), 'policy must be an object, got "event"'),
        (_with("model.params", []), "model.params must be an object, got []"),
        (_with("x0", []), "x0 must be a non-empty array, got []"),
        (_with("sweep", {"axis": "sigma", "values": []}),
         "sweep.values must be a non-empty array, got []"),
        (_with("policy.instants", 0.5), "policy.instants must be an array, got 0.5"),
        (_with("label", 3), "label must be a string, got 3"),
        (_with("model.name", "pendulum"), 'model.name must be one of "acc", '
         '"homog2d", "relay1d", "zeno-polar", got "pendulum"'),
        (_with("policy.policy", "never"), 'policy.policy must be one of "event", '
         '"self", "time", "periodic-event", got "never"'),
        (_with("sweep", {"axis": "k", "values": [1]}), 'sweep.axis must be one of '
         '"sigma", "sigma_tilde", "K", "h", "period", "tau", "policy", "r_star", got "k"'),
        # booleans, strings and null are not numbers
        (_with("horizon", True), "horizon must be a number, got true"),
        (_with("horizon", "3"), 'horizon must be a number, got "3"'),
        (_with("horizon", None), "horizon must be a number, got null"),
        (_with("x0", [True]), "x0[0] must be a number, got true"),
        (_with("seed", True), "seed must be an integer, got true"),
        (_with("seed", 1.5), "seed must be an integer, got 1.5"),
        # each bound form at its boundary: > and < reject it, >= takes it
        (_with("horizon", 0), "horizon must be > 0, got 0"),
        (_with("integrator.max_step", -1), "integrator.max_step must be > 0, got -1"),
        (_with("policy.K", 1), "policy.K must be > 1, got 1"),
        (_with("policy.sigma", 0.0), "policy.sigma must be > 0, got 0.0"),
        (_with("policy.sigma", 1), "policy.sigma must be < 1, got 1"),
        (_with("policy.sigma_tilde", 1.0), "policy.sigma_tilde must be < 1, got 1.0"),
        (_with("seed", -1), "seed must be >= 0, got -1"),
        (_with("integrator.output_points", 1),
         "integrator.output_points must be >= 2, got 1"),
        (_with("estimation.safety_factor", 0.999),
         "estimation.safety_factor must be >= 1, got 0.999"),
        (_with("seed", 0), None),
        (_with("integrator.output_points", 2), None),
        (_with("integrator.max_events", 1), None),
        (_with("estimation.n_samples", 2), None),
        (_with("estimation.safety_factor", 1), None),
        # integers too large for a float
        pytest.param(_with("horizon", BIG), f"horizon must be a finite float, "
                     f"got {BIG}", id="big-horizon"),
        pytest.param(_with("x0", [BIG]), f"x0[0] must be a finite float, got {BIG}",
                     id="big-x0"),
        pytest.param(_with("policy.tau", BIG), f"policy.tau must be a finite float, "
                     f"got {BIG}", id="big-tau"),
        # the audited region is always the sublevel box through x0
        pytest.param(_with("region_level", 0.01), "region_level is not a known key",
                     id="region-level"),
        # sample sizes whose batches would run past the Sobol stream's end
        pytest.param(_with("estimation.n_samples", HUGE),
                     f"estimation.n_samples must be <= {2**24}, got {HUGE}",
                     id="huge-n-samples"),
        pytest.param(_with("estimation.n_samples", 2**24 + 1),
                     f"estimation.n_samples must be <= {2**24}, got {2**24 + 1}",
                     id="n-samples-past-cap"),
        pytest.param(_with("estimation.n_clf_samples", HUGE),
                     f"estimation.n_clf_samples must be <= {2**24}, got {HUGE}",
                     id="huge-n-clf-samples"),
        pytest.param(_with("estimation.n_clf_samples", 2**24 + 1),
                     f"estimation.n_clf_samples must be <= {2**24}, got {2**24 + 1}",
                     id="n-clf-samples-past-cap"),
        # a grid the recorder could not hold: refused before anything runs
        pytest.param(_with("integrator.output_points", 10**13),
                     f"integrator.output_points must be <= {2**22}, got {10**13}",
                     id="huge-output-points"),
        pytest.param(_with("integrator.output_points", 2**22), None,
                     id="output-points-at-cap"),
        pytest.param(_with("estimation.n_samples", 2**24), None, id="n-samples-at-cap"),
        pytest.param(_with("estimation.n_clf_samples", 2**24), None,
                     id="n-clf-samples-at-cap"),
    ])
    def test_config_checks_name_the_field(self, tmp_path, capsys, data, message):
        if message is None:
            parse_config(data)
            return
        rc = run_cli("simulate", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err == f"error: invalid config: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_model_params_too_large_for_a_float(self, tmp_path, capsys):
        # free-form model parameters are checked by the model's builder
        data = _with("model", {"name": "acc", "params": {"k": BIG}})
        data["x0"] = [1.0, 1.0, 1.0]
        rc = run_cli("simulate", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err == ("error: bad parameters for model 'acc': "
                                           "int too large to convert to float\n")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("section,key", [
        ("integrator", "output_points"), ("integrator", "max_events"),
        ("estimation", "n_samples"), ("estimation", "n_clf_samples"), (None, "seed"),
    ])
    def test_integral_floats_run_as_their_integer_twins(self, tmp_path, section, key):
        # JSON Schema counts 11.0 as an integer; so does the parser, which
        # hands the commands an int
        outputs = {}
        for kind in (int, float):
            data = json.loads(json.dumps(TWIN))
            fields = data[section] if section else data
            fields[key] = kind(fields[key])
            out = tmp_path / kind.__name__
            path = write_config(tmp_path, data, f"{kind.__name__}.json")
            codes = [run_cli(command, "--config", path, "--out", str(out))
                     for command in ("simulate", "verify")]
            report = json.loads((out / "twin_verify.json").read_text())
            assert report.pop("config") == data
            outputs[kind] = (codes, (out / "twin_trajectory.csv").read_bytes(), report)
        assert outputs[float] == outputs[int]


class TestSimulateCommand:
    def test_relay_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, MINI_RELAY)
        rc = run_cli("simulate", "--config", cfg, "--out", str(tmp_path), "--plot")
        assert rc == 0
        stats = json.loads((tmp_path / "mini_relay_stats.json").read_text())
        assert stats["stats"]["n_events"] == 2
        assert stats["stats"]["first_event_time"] == pytest.approx(1.0, abs=1e-9)
        assert stats["termination"] == "equilibrium"
        assert stats["rate_certificate_ok"] is True
        assert stats["seed"] == 0
        for suffix in ("trajectory.csv", "x.svg", "u.svg", "v.svg"):
            assert (tmp_path / f"mini_relay_{suffix}").exists()

    def test_plot_evaluates_the_envelope_once_per_row(self, tmp_path, monkeypatch):
        # the run records its envelope once; the check and the V plot read it
        calls = 0
        bound_after = EnergyTimeMap.bound_after

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return bound_after(self, *args)

        monkeypatch.setattr(EnergyTimeMap, "bound_after", counted)
        rc = run_cli("simulate", "--config", "relay1d", "--out", str(tmp_path), "--plot")
        assert rc == 0
        rows = (tmp_path / "relay1d_trajectory.csv").read_text().splitlines()[1:]
        assert (tmp_path / "relay1d_v.svg").exists()
        assert calls == len(rows) > 1

    def test_homog_preset_two_events(self, tmp_path):
        rc = run_cli("simulate", "--config", "homog2d", "--out", str(tmp_path))
        assert rc == 0
        stats = json.loads((tmp_path / "homog2d_stats.json").read_text())
        assert stats["stats"]["n_events"] == 2

    def test_zeno_preset_exit_two_with_bound(self, tmp_path):
        rc = run_cli("simulate", "--config", "zeno_polar", "--out", str(tmp_path))
        assert rc == 2
        stats = json.loads((tmp_path / "zeno_polar_stats.json").read_text())
        assert stats["termination"] == "zeno_abort"
        cmp_ = stats["zeno_bound_comparison"]
        assert cmp_["within_bound"] is True
        assert cmp_["first_dwell"] <= cmp_["analytic_bound"]
        assert "diagnostic" in stats

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = run_cli("simulate", "--config", "relay1d", "--out", str(out))
            assert rc == 0
            outs.append(out)
        for fname in ("relay1d_trajectory.csv", "relay1d_stats.json"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b

    def test_bad_config_is_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"name": "relay1d"},
                                      "policy": {"policy": "event"}})
        # no horizon: simulation cannot be configured
        rc = run_cli("simulate", "--config", cfg, "--out", str(tmp_path))
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", [
        {"policy": "event"},
        {"policy": "self", "tau": 0.05},
        {"policy": "self"},
        {"policy": "time", "period": 0.05},
        {"policy": "time"},
        {"policy": "periodic-event", "h": 0.01},
        {"policy": "periodic-event"},
    ], ids=["event", "self", "self-derived", "time", "time-derived",
            "periodic-event", "periodic-event-derived"])
    def test_every_policy_freezes_at_the_equilibrium(self, tmp_path, capsys, policy):
        # the run freezes at t = 0 before any policy needs constants, which
        # the equilibrium's one-point sublevel set does not have
        cfg = write_config(tmp_path, {"model": {"name": "homog2d"},
                                      "policy": dict(policy, sigma=0.9),
                                      "x0": [0.0, 0.0], "horizon": 5.0,
                                      "label": "origin"})
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out == (
            "origin: termination=equilibrium n_events=1 rate_certificate_ok=True\n")
        stats = json.loads((tmp_path / "origin_stats.json").read_text())
        assert stats["termination"] == "equilibrium"
        assert stats["policy"] == {"policy": policy["policy"], "sigma": 0.9}

    @pytest.mark.parametrize("x0,bound,code", [([0.5, 0.0], 0.5, 2),
                                              ([1.5, 0.0], None, 0)])
    def test_zeno_bound_at_the_initial_radius(self, tmp_path, x0, bound, code):
        # r_star only places zeno-polar's default x0; the bound on the first
        # dwell is taken at |x0|, and outside its domain (0, 1) not at all
        data = dict(load_config("zeno_polar").to_dict(), x0=x0, horizon=2.0,
                    label="zeno_x0")
        assert run_cli("simulate", "--config", write_config(tmp_path, data),
                       "--out", str(tmp_path)) == code
        stats = json.loads((tmp_path / "zeno_x0_stats.json").read_text())
        if bound is None:
            assert "zeno_bound_comparison" not in stats
        else:
            cmp_ = stats["zeno_bound_comparison"]
            assert cmp_["analytic_bound"] == zeno_first_event_bound(bound)
            assert cmp_["first_dwell"] == stats["events"][1]["dwell"]
            assert cmp_["within_bound"] is True

    def test_seed_override_echoed(self, tmp_path):
        cfg = write_config(tmp_path, MINI_RELAY)
        rc = run_cli("simulate", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "7")
        assert rc == 0
        stats = json.loads((tmp_path / "mini_relay_stats.json").read_text())
        assert stats["seed"] == 7


class TestVerifyCommand:
    def test_acc_passes(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "acc"},
            "x0": [5.0, 5.05, 5.1],
            "seed": 0,
            "estimation": {"n_samples": 96, "n_clf_samples": 400},
            "label": "acc_small",
        })
        rc = run_cli("verify", "--config", cfg, "--out", str(tmp_path))
        assert rc == 0
        rep = json.loads((tmp_path / "acc_small_verify.json").read_text())
        assert rep["assumptions_pass"] is True
        assert rep["clf_check"]["n_violations"] == 0
        assert rep["estimates"]["rho"] == 0.0
        assert rep["estimates"]["mu"] > 0

    def test_zeno_fails_nondegeneracy(self, tmp_path):
        rc = run_cli("verify", "--config", "zeno_polar", "--out", str(tmp_path))
        assert rc == 1
        rep = json.loads((tmp_path / "zeno_polar_verify.json").read_text())
        assert rep["nondegeneracy_ok"] is False
        assert rep["expected_status"] == "violates_nondegeneracy"

    def test_verify_and_dwell_read_the_same_constants(self, tmp_path):
        assert run_cli("verify", "--config", "acc_case1", "--out", str(tmp_path)) == 0
        assert run_cli("dwell", "--config", "acc_case1", "--out", str(tmp_path)) == 0
        est = json.loads((tmp_path / "acc_case1_verify.json").read_text())["estimates"]
        dwell = json.loads((tmp_path / "acc_case1_dwell.json").read_text())
        constants = dwell["tau_min"]["constants"]
        for name in ("kappa", "nu", "big_m"):
            assert est[name]["value"] == constants[name]
        assert est["mu"] == constants["mu"]
        assert est["rho"] == constants["rho"]

    @pytest.mark.parametrize("command", ["verify", "dwell"])
    def test_x0_at_equilibrium_exits_one(self, tmp_path, capsys, command):
        # the sublevel set of the equilibrium is one point: no constants
        cfg = write_config(tmp_path, {"model": {"name": "homog2d"},
                                      "x0": [0.0, 0.0], "label": "origin"})
        out = tmp_path / "out"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == ("error: the sublevel region needs an anchor with "
                       "level > 0, got 0.0\n")
        assert not list(out.glob("*.json"))

    @pytest.mark.parametrize("command", ["verify", "dwell"])
    @pytest.mark.parametrize("model,x0", [("homog2d", [0.1, 0.4, 0.0]),
                                          ("relay1d", [1.0, 2.0])])
    def test_x0_of_wrong_length_exits_one(self, tmp_path, capsys, command, model, x0):
        # x0 is checked against the model before any audit reads it
        cfg = write_config(tmp_path, {"model": {"name": model}, "x0": x0,
                                      "label": "bad"})
        out = tmp_path / "out"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 1
        dim = 2 if model == "homog2d" else 1
        assert capsys.readouterr().err == (
            f"error: state must have length {dim}, got shape ({len(x0)},)\n")
        assert not list(out.glob("*.json"))

    def test_a_properness_error_is_reported(self, tmp_path, capsys, monkeypatch):
        # no shipped model has a sublevel set that the box search cannot
        # cover, so the box search is made to fail
        def improper(*args, **kwargs):
            raise PropernessError("the box does not cover the sublevel set")

        monkeypatch.setattr(cli, "bound_sublevel_box", improper)
        assert run_cli("verify", "--config", "homog2d", "--out", str(tmp_path)) == 1
        rep = json.loads((tmp_path / "homog2d_verify.json").read_text())
        assert rep["assumptions_pass"] is False
        assert rep["properness_error"] == "the box does not cover the sublevel set"
        assert "estimates" not in rep
        assert capsys.readouterr().out == "homog2d: assumptions_pass=False\n"


class TestResolvePolicy:
    def test_derived_self_dwell_for_c1_rate(self):
        # a rate that is not non-decreasing gets one dwell, at the region's
        # constants in c1 mode; the region's rho bounds the per-state rho
        model = build_model("homog2d")
        cert = replace(model.certificate, rate=RateFunction.custom(
            lambda v: 2.0 + math.sin(v), gamma_prime=math.cos))
        model = replace(model, certificate=cert)
        # V = |x|^2/2, so the level-4 state on the default ray has |x| = sqrt(8)
        x0 = math.sqrt(8.0) / math.hypot(*model.default_x0) * model.default_x0
        assert cert.v(x0) == pytest.approx(4.0, rel=1e-12)
        cfg = parse_config({
            "model": {"name": "homog2d"}, "policy": {"policy": "self", "sigma": 0.9},
            "x0": list(x0), "estimation": {"n_samples": 96}})
        region = bound_sublevel_box(cert, x0, seed=0)
        constants, _ = estimate_constants(model.system, cert, region, n=96, seed=0)
        policy, info = resolve_policy(cfg, model, x0)
        derived = tau_select(DwellInputs(constants=constants, sigma=0.9,
                                         gamma_mode="c1")).value
        assert info["tau_at_x0"] == derived
        assert policy.tau == derived
        # a state inside the region, below the level where -gamma' peaks
        inner = 6.0 * model.default_x0
        per_state = tau_select(DwellInputs(
            constants=replace(constants, rho=estimate_rho(cert, cert.v(inner))),
            sigma=0.9, gamma_mode="c1")).value
        assert constants.rho == 1.0 > estimate_rho(cert, cert.v(inner))
        assert derived <= per_state


class TestDwellCommand:
    def test_homog_report_and_cross_check(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "homog2d"},
            "policy": {"policy": "event", "sigma": 0.9},
            "horizon": 30.0,
            "seed": 0,
            "estimation": {"n_samples": 96, "n_anchors": 32},
            "label": "homog_dwell",
        })
        rc = run_cli("dwell", "--config", cfg, "--out", str(tmp_path))
        assert rc == 0
        rep = json.loads((tmp_path / "homog_dwell_dwell.json").read_text())
        assert rep["tau_min"]["value"] > 0
        assert rep["tau0_min"]["value"] > 0
        assert rep["recommended_periodic_check_period"] < rep["tau0_min"]["value"]
        assert rep["cross_check"]["ok"] is True
        assert rep["cross_check"]["min_observed_dwell"] >= rep["tau_min"]["value"]

    def test_status_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"name": "homog2d"},
            "seed": 0,
            "estimation": {"n_samples": 96},
            "label": "homog_line",
        })
        assert run_cli("dwell", "--config", cfg, "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "homog_line_dwell.json").read_text())
        tau, h = rep["tau_min"]["value"], rep["recommended_periodic_check_period"]
        assert capsys.readouterr().out == f"homog_line: tau_min={tau:.6g}, h={h:.6g}\n"

    def test_relay_fails_without_force(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "relay1d"},
            "seed": 0,
            "estimation": {"n_samples": 64},
            "label": "relay_dwell",
        })
        rc = run_cli("dwell", "--config", cfg, "--out", str(tmp_path))
        assert rc == 1
        rep = json.loads((tmp_path / "relay_dwell_dwell.json").read_text())
        assert "assumption_failure" in rep

    def test_oversized_period_warns_but_runs(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "homog2d"},
            "policy": {"policy": "time", "period": 0.5},
            "seed": 0,
            "estimation": {"n_samples": 96, "n_anchors": 8},
            "label": "homog_bigperiod",
        })
        rc = run_cli("dwell", "--config", cfg, "--out", str(tmp_path))
        assert rc == 0
        rep = json.loads((tmp_path / "homog_bigperiod_dwell.json").read_text())
        assert "period_warning" in rep

    def test_force_overrides_assumption_failure(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "relay1d"},
            "seed": 0,
            "estimation": {"n_samples": 64, "n_anchors": 8},
            "label": "relay_force",
        })
        rc = run_cli("dwell", "--config", cfg, "--out", str(tmp_path), "--force")
        assert rc == 0
        rep = json.loads((tmp_path / "relay_force_dwell.json").read_text())
        assert rep["tau_min"]["value"] > 0

    def test_sigma_sweep_shrinks_tau_min(self, homog):
        # API-level: larger retained fraction leaves less slack
        from clfetc import bound_sublevel_box, estimate_constants, tau_min_over_sublevel
        region = bound_sublevel_box(homog.certificate, homog.default_x0)
        consts, _ = estimate_constants(homog.system, homog.certificate, region,
                                       n=96, seed=0)
        vals = [tau_min_over_sublevel(homog.certificate, region, consts, s).value
                for s in (0.5, 0.7, 0.9, 0.99)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_k_sweep_shrinks_tau0(self, homog):
        from clfetc import bound_sublevel_box, estimate_constants, tau_min_over_sublevel
        region = bound_sublevel_box(homog.certificate, homog.default_x0)
        consts, _ = estimate_constants(homog.system, homog.certificate, region,
                                       n=96, seed=0)
        vals = [tau_min_over_sublevel(homog.certificate, region, consts, 0.9,
                                      sigma_tilde=0.95, k_big=k).value
                for k in (1.5, 5.0, 50.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestSweepCommand:
    def test_cells_of_python_and_numpy_scalars(self):
        # under numpy 2 an np.float64 is a float whose repr is
        # 'np.float64(...)', and an np.bool_ is not a bool
        assert [_csv_cell(v) for v in (0.1, np.float64(0.1), -0.0, np.float64(1e-300))] \
            == ["0.1", "0.1", "-0.0", "1e-300"]
        assert [_csv_cell(v) for v in (True, False, np.bool_(True), np.bool_(False))] \
            == ["true", "false", "true", "false"]
        assert [_csv_cell(v) for v in (None, 3, "horizon")] == ["", "3", "horizon"]

    def test_zeno_radius_sweep(self, tmp_path):
        rc = run_cli("sweep", "--config", "zeno_sweep", "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "zeno_sweep_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 4
        dwells = [float(r["first_dwell"]) for r in rows]
        bounds = [float(r["dwell_bound"]) for r in rows]
        assert all(d <= b for d, b in zip(dwells, bounds))
        assert all(b < a for a, b in zip(dwells, dwells[1:]))
        assert all(r["error"] == "" for r in rows)

    def test_policy_sweep_rate_certificate(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "homog2d"},
            "policy": {"policy": "event", "sigma": 0.9},
            "x0": [0.1, 0.4],
            "horizon": 1.0,
            "integrator": {"max_events": 400},
            "seed": 0,
            "estimation": {"n_samples": 96, "n_anchors": 8},
            "sweep": {"axis": "policy",
                      "values": ["event", "self", "time", "periodic-event"]},
            "label": "homog_policies",
        })
        rc = run_cli("sweep", "--config", cfg, "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "homog_policies_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert [r["policy"] for r in rows] == ["event", "self", "time",
                                               "periodic-event"]
        assert all(r["rate_certificate_ok"] == "true" for r in rows
                   if r["error"] == "")
        assert all(r["error"] == "" for r in rows)

    def test_acc_policy_sweep_periodic_row_finishes(self, monkeypatch):
        # the preset's periodic-event row checks on a derived grid of about
        # 1.1e-8 s over 60 s: some 5.5e9 grid points, each a predicate call
        # for a loop that checks them one by one
        calls = 0
        predicate_p = engine.predicate_p

        def counted(*args):
            nonlocal calls
            calls += 1
            if calls > 10_000:
                raise RuntimeError("more than 10000 predicate checks")
            return predicate_p(*args)

        monkeypatch.setattr(engine, "predicate_p", counted)
        data = load_config("acc_policy_sweep").to_dict()
        del data["sweep"]
        data["policy"]["policy"] = "periodic-event"
        _, traj, info = _simulate_once(parse_config(data))
        h = info["h"]
        assert h < 1e-7
        assert traj.termination == "equilibrium"
        assert check_rate_certificate(traj)[0]
        fired = traj.events[1:]
        assert fired and all(e.time == round(e.time / h) * h for e in fired)

    def test_sigma_sweep_first_event_direction(self, tmp_path):
        # empirically the guard W + sigma*gamma(V) crosses zero earlier for
        # larger sigma, so the first event time is non-increasing in sigma
        cfg = write_config(tmp_path, {
            "model": {"name": "homog2d"},
            "policy": {"policy": "event", "sigma": 0.9},
            "x0": [0.1, 0.4],
            "horizon": 20.0,
            "seed": 0,
            "sweep": {"axis": "sigma", "values": [0.5, 0.7, 0.9, 0.99]},
            "label": "homog_sigma",
        })
        rc = run_cli("sweep", "--config", cfg, "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "homog_sigma_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        t1s = [float(r["first_event_time"]) for r in rows]
        assert all(b <= a for a, b in zip(t1s, t1s[1:]))
        assert all(r["error"] == "" for r in rows)

    def test_missing_values_are_empty_cells(self, tmp_path):
        # one event in the horizon: every dwell and frequency column is unset
        cfg = write_config(tmp_path, {
            "model": {"name": "homog2d"},
            "policy": {"policy": "event", "sigma": 0.9},
            "x0": [0.1, 0.4],
            "horizon": 1.0,
            "seed": 0,
            "sweep": {"axis": "sigma", "values": [0.5, 0.9]},
            "label": "homog_short",
        })
        rc = run_cli("sweep", "--config", cfg, "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "homog_short_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert [r["n_events"] for r in rows] == ["1", "1"]
        for r in rows:
            assert "None" not in r.values()
            assert r["min_dwell"] == r["first_dwell"] == ""
            assert r["error"] == ""

    def test_a_failed_row_keeps_its_message_in_one_cell(self, tmp_path):
        # the error message holds a comma, so its cell is quoted: every row
        # reads as many fields as the header
        cfg = write_config(tmp_path, {
            "model": {"name": "homog2d"},
            "policy": {"policy": "event", "sigma": 0.9},
            "x0": [0.1, 0.4],
            "horizon": 1.0,
            "seed": 0,
            "sweep": {"axis": "sigma", "values": [0.5, 1.5]},
            "label": "homog_bad_sigma",
        })
        assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path)) == 0
        with open(tmp_path / "homog_bad_sigma_sweep.csv", encoding="utf-8",
                  newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert [len(header)] + [len(r) for r in rows] == [16, 16, 16]
        rows = [dict(zip(header, r)) for r in rows]
        assert rows[0]["error"] == "" and rows[0]["n_events"] == "1"
        assert rows[1]["error"] == ("ConfigurationError: invalid config: "
                                    "policy.sigma must be < 1, got 1.5")
        assert rows[1]["n_events"] == ""

    def test_axis_application(self):
        base = {"model": {"name": "zeno-polar", "params": {"r_star": 0.5}},
                "policy": {"policy": "event", "sigma": 0.9}}
        out = _apply_axis(parse_config(base), "r_star", 0.1)
        assert out["model"]["params"]["r_star"] == 0.1
        out = _apply_axis(parse_config(base), "sigma", 0.5)
        assert out["policy"]["sigma"] == 0.5
        out = _apply_axis(parse_config(base), "policy", "time")
        assert out["policy"]["policy"] == "time"


class TestStatsCommand:
    def test_recompute_from_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINI_RELAY)
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path)) == 0
        capsys.readouterr()  # drop the simulate status line
        csv_path = tmp_path / "mini_relay_trajectory.csv"
        rc = run_cli("stats", str(csv_path))
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_events"] == 2
        assert out["min_dwell"] == pytest.approx(1.0, abs=1e-9)

    def test_write_to_file(self, tmp_path):
        cfg = write_config(tmp_path, MINI_RELAY)
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path)) == 0
        out_json = tmp_path / "recomputed.json"
        rc = run_cli("stats", str(tmp_path / "mini_relay_trajectory.csv"),
                     "--out", str(out_json))
        assert rc == 0
        assert json.loads(out_json.read_text())["n_events"] == 2

    def test_no_events_is_an_error(self, tmp_path, capsys):
        csv_path = tmp_path / "quiet.csv"
        csv_path.write_text("t,x1,u1,V,W,event_flag\n0.0,1.0,0.0,0.5,0.0,0\n"
                            "1.0,0.5,0.0,0.1,0.0,0\n")
        assert run_cli("stats", str(csv_path)) == 1
        assert capsys.readouterr().err == "error: stats need at least one event\n"


def _input_file_argv(tmp_path, case):
    """The argv of one bad-input-file case, with its files written."""
    bad_utf8 = b"t,x1,event_flag\n\xff\xfe,1.0,1\n"
    if case.startswith("stats"):
        path = tmp_path / "traj.csv"
        if case == "stats-no-flag":
            path.write_text("t,x1,u1\n0.0,1.0,0.0\n")
        elif case == "stats-empty":
            path.write_text("")
        elif case == "stats-bad-time":
            path.write_text("t,x1,event_flag\n0.0,1.0,1\nabc,0.5,1\n")
        elif case == "stats-short-row":
            path.write_text("t,x1,event_flag\n0.0,1.0,1\n1.0,0.5\n")
        elif case == "stats-directory":
            path.mkdir()
        else:
            path.write_bytes(bad_utf8)
        return ["stats", str(path)]
    config, out = write_config(tmp_path, MINI_RELAY), tmp_path / "out"
    if case == "config-directory":
        config = str(tmp_path / "configs")
        os.mkdir(config)
    elif case == "config-not-utf8":
        Path(config).write_bytes(bad_utf8)
    elif case == "config-not-json":
        Path(config).write_text('{"model": ')
    else:
        out.write_text("")
    return ["simulate", "--config", config, "--out", str(out)]


@pytest.mark.parametrize("case,message", [
    pytest.param(case, message, id=case) for case, message in (
        ("stats-no-flag", "traj.csv: no 'event_flag' column in the header"),
        ("stats-empty", "traj.csv: no 't' column in the header"),
        ("stats-bad-time", "traj.csv, line 3: t 'abc' is not a number"),
        ("stats-short-row", "traj.csv, line 3: 2 cells, the header has 3"),
        ("stats-directory", "Is a directory"),
        ("stats-not-utf8", "traj.csv: 'utf-8' codec can't decode byte 0xff"),
        ("config-directory", "Is a directory"),
        ("config-not-utf8", "cfg.json: 'utf-8' codec can't decode byte 0xff"),
        ("config-not-json", "cfg.json: Expecting value: line 1 column 11"),
        ("out-is-a-file", "File exists"),
    )
])
def test_input_file_errors_end_in_one_error_line(tmp_path, capsys, case, message):
    assert run_cli(*_input_file_argv(tmp_path, case)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err


# run in a fresh interpreter: the presets' commands, then a custom rate
STARTUP_CODE = """
import json, math, sys
import clfetc.cli
for preset in ("acc_case1", "homog2d"):
    for command in ("verify", "dwell", "simulate"):
        assert clfetc.cli.main([command, "--config", preset, "--out", sys.argv[1]]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
schema = sorted(m for m in sys.modules
                if m.split(".")[0] in ("jsonschema", "referencing", "rpds"))
from clfetc.core import EnergyTimeMap, RateFunction
rate = RateFunction.custom(lambda v: 2.0 + math.sin(v))
print(json.dumps({"scipy": loaded, "schema": schema,
                  "gamma_big": EnergyTimeMap(rate).gamma_big(7.5)}))
"""


def test_presets_run_without_scipy(tmp_path):
    # scipy is imported only by custom-rate quadrature, and no JSON Schema
    # library at all
    src = str(Path(clfetc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", STARTUP_CODE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["scipy"] == []
    assert report["schema"] == []
    rate = RateFunction.custom(lambda v: 2.0 + math.sin(v))
    assert report["gamma_big"] == EnergyTimeMap(rate).gamma_big(7.5)


# run in a fresh interpreter: verify at 2**18 samples, then the peak RSS of
# this process alone, in MB
VERIFY_RSS_CODE = """
import json, os, resource, sys
import clfetc.cli
out = sys.argv[1]
with open(os.path.join(os.path.dirname(clfetc.cli.__file__), "presets", "acc_case1.json")) as fh:
    cfg = json.load(fh)
cfg["estimation"] = {"n_samples": 2**18}
path = os.path.join(out, "big.json")
with open(path, "w") as fh:
    json.dump(cfg, fh)
assert clfetc.cli.main(["verify", "--config", path, "--out", out]) == 0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak / 2**20 if sys.platform == "darwin" else peak / 2**10)
"""


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
def test_verify_memory_at_two_to_the_18_samples(tmp_path):
    # the audits hold the sample and its (n, d, d) finite-difference
    # Jacobians at once, about 165 MB at the peak on acc_case1
    src = str(Path(clfetc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", VERIFY_RSS_CODE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak_mb = float(proc.stdout.splitlines()[-1])
    assert peak_mb < 185.0, peak_mb
