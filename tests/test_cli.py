import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import clfetc
from clfetc import (ConfigurationError, DwellInputs, RateFunction,
                    bound_sublevel_box, build_model, estimate_constants,
                    estimate_rho, tau_select)
from clfetc.core import EnergyTimeMap
from clfetc.cli import (ExperimentConfig, load_config, main, resolve_policy,
                        _apply_axis, _model_and_x0, _simulate_once,
                        _state_at_level)


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


class TestConfigHandling:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig(MINI_RELAY)
        again = ExperimentConfig(cfg.to_dict())
        assert again.to_dict() == MINI_RELAY

    def test_unknown_top_level_key_rejected(self):
        bad = dict(MINI_RELAY)
        bad["extra"] = 1
        with pytest.raises(ConfigurationError):
            ExperimentConfig(bad)

    def test_unknown_policy_key_rejected(self):
        bad = json.loads(json.dumps(MINI_RELAY))
        bad["policy"]["window"] = 0.1
        with pytest.raises(ConfigurationError):
            ExperimentConfig(bad)

    def test_bad_values_rejected(self):
        for patch in ({"horizon": -1.0}, {"seed": -1},
                      {"model": {"name": "nope"}},
                      {"policy": {"policy": "event", "sigma": 1.5}}):
            bad = json.loads(json.dumps(MINI_RELAY))
            bad.update(patch)
            with pytest.raises(ConfigurationError):
                ExperimentConfig(bad)

    def test_presets_load_by_name(self):
        for name in ("homog2d", "acc_case1", "acc_case2", "relay1d",
                     "zeno_polar", "acc_policy_sweep", "zeno_sweep"):
            cfg = load_config(name)
            assert cfg.model_name

    def test_missing_config_reports_error(self):
        with pytest.raises(ConfigurationError):
            load_config("no_such_preset")

    def test_model_sigma_alone_sets_the_run_sigma(self, tmp_path):
        data = json.loads(json.dumps(MINI_RELAY))
        del data["policy"]["sigma"]
        data["model"]["params"] = {"sigma": 0.6}
        cfg = ExperimentConfig(data)
        model, x0 = _model_and_x0(cfg)
        policy, _ = resolve_policy(cfg, model, x0)
        assert policy.sigma == 0.6
        rc = run_cli("simulate", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path))
        assert rc == 0
        stats = json.loads((tmp_path / "mini_relay_stats.json").read_text())
        assert stats["sigma"] == stats["policy"]["sigma"] == 0.6
        assert "sigma" not in stats["model_params"]
        _, _, traj, _ = _simulate_once(cfg)
        assert traj.sigma == 0.6

    @pytest.mark.parametrize("command,policy,params_sigma,message", [
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
                                       params_sigma, message):
        data = dict(MINI_RELAY, policy=policy,
                    model={"name": "relay1d", "params": {"sigma": params_sigma}})
        rc = run_cli(command, "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path))
        assert rc == 1
        assert message in capsys.readouterr().err

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


class TestResolvePolicy:
    def test_derived_self_dwell_for_c1_rate(self):
        # a rate that is not non-decreasing gets one dwell, at the region's
        # constants in c1 mode; the region's rho bounds the per-state rho
        model = build_model("homog2d")
        cert = replace(model.certificate, rate=RateFunction.custom(
            lambda v: 2.0 + math.sin(v), gamma_prime=math.cos))
        model = replace(model, certificate=cert)
        x0 = 6.0 * model.default_x0
        cfg = ExperimentConfig({
            "model": {"name": "homog2d"}, "policy": {"policy": "self", "sigma": 0.9},
            "x0": list(x0), "region_level": 4.0, "estimation": {"n_samples": 96}})
        region = bound_sublevel_box(cert, _state_at_level(model, 4.0), seed=0)
        constants, _ = estimate_constants(model.system, cert, region, n=96, seed=0)
        policy, info = resolve_policy(cfg, model, x0)
        derived = tau_select(DwellInputs(constants=constants, sigma=0.9,
                                         gamma_mode="c1")).value
        assert info["tau_at_x0"] == derived
        assert policy.tau == derived
        per_state = tau_select(DwellInputs(
            constants=replace(constants, rho=estimate_rho(cert, cert.v(x0))),
            sigma=0.9, gamma_mode="c1")).value
        assert constants.rho == 1.0 > estimate_rho(cert, cert.v(x0))
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
                                      which="tau0", sigma_tilde=0.95,
                                      k_big=k).value
                for k in (1.5, 5.0, 50.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestSweepCommand:
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

    def test_axis_application(self):
        base = {"model": {"name": "zeno-polar", "params": {"r_star": 0.5}},
                "policy": {"policy": "event", "sigma": 0.9}}
        out = _apply_axis(base, "r_star", 0.1)
        assert out["model"]["params"]["r_star"] == 0.1
        out = _apply_axis(base, "sigma", 0.5)
        assert out["policy"]["sigma"] == 0.5
        out = _apply_axis(base, "policy", "time")
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


# run in a fresh interpreter: the presets' commands, then a custom rate
STARTUP_CODE = """
import json, math, sys
import clfetc.cli
for preset in ("acc_case1", "homog2d"):
    for command in ("verify", "dwell", "simulate"):
        assert clfetc.cli.main([command, "--config", preset, "--out", sys.argv[1]]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
from clfetc.core import EnergyTimeMap, RateFunction
rate = RateFunction.custom(lambda v: 2.0 + math.sin(v))
print(json.dumps({"scipy": loaded, "gamma_big": EnergyTimeMap(rate).gamma_big(7.5)}))
"""


def test_presets_run_without_scipy(tmp_path):
    # scipy is imported only by custom-rate quadrature
    src = str(Path(clfetc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", STARTUP_CODE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["scipy"] == []
    rate = RateFunction.custom(lambda v: 2.0 + math.sin(v))
    assert report["gamma_big"] == EnergyTimeMap(rate).gamma_big(7.5)
