"""Command-line front end.

Subcommands: ``simulate``, ``verify``, ``dwell``, ``sweep`` and
``stats <traj.csv>``.  Experiments are described by JSON configs (shipped
presets can be named instead of a path); artifacts are CSV trajectories,
JSON reports and optional SVG plots.  Exit codes: 0 success, 1 assumption or
configuration failure or any other toolkit error (printed as ``error: ...``),
2 runtime termination anomaly (Zeno abort, blow-up, event cap).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys as _sys
from importlib import resources

import numpy as np
from jsonschema import Draft202012Validator

from . import dwell as dwellmod
from . import svgplot
from .certificates import (DEFAULT_SAFETY, bound_sublevel_box, estimate_constants,
                           sample_in_region)
# kept for the tracer: the benchmark patches these names on this module
from .certificates import (estimate_big_m, estimate_kappa, estimate_nu,  # noqa: F401
                           estimate_rho)
from .core import verify_clf_pointwise
from .dwell import DwellInputs, admissible_period, tau_min_over_sublevel
from .engine import (IntegratorConfig, check_rate_certificate, run_closed_loop,
                     run_stats, read_event_times_csv, stats_from_event_times,
                     write_trajectory_csv)
from .errors import (ClfetcError, ConfigurationError, NonDegeneracyError,
                     PropernessError)
from .models import MODEL_NAMES, build_model, zeno_first_event_bound
from .triggers import (EventTriggered, PeriodicEventTriggered, SelfTriggered,
                       TimeTriggered, check_sigma)

ANOMALOUS_TERMINATIONS = ("zeno_abort", "blowup", "event_cap")

_POLICY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["policy"],
    "properties": {
        "policy": {"enum": ["event", "self", "time", "periodic-event"]},
        "sigma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "sigma_tilde": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "K": {"type": "number", "exclusiveMinimum": 1},
        "h": {"type": "number", "exclusiveMinimum": 0},
        "period": {"type": "number", "exclusiveMinimum": 0},
        "instants": {"type": "array", "items": {"type": "number"}},
        "tau": {"type": "number", "exclusiveMinimum": 0},
    },
}

_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["model"],
    "properties": {
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"enum": list(MODEL_NAMES)},
                "params": {"type": "object"},
            },
        },
        "policy": _POLICY_SCHEMA,
        "x0": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rel_tol": {"type": "number", "exclusiveMinimum": 0},
                "abs_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_step": {"type": "number", "exclusiveMinimum": 0},
                "max_events": {"type": "integer", "minimum": 1},
                "zeno_floor": {"type": "number", "exclusiveMinimum": 0},
                "output_points": {"type": "integer", "minimum": 2},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "region_level": {"type": "number", "exclusiveMinimum": 0},
        "estimation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_samples": {"type": "integer", "minimum": 2},
                "safety_factor": {"type": "number", "minimum": 1},
                # accepted but unused: the dwell infimum is attained at the
                # region's own level, so no anchors are sampled
                "n_anchors": {"type": "integer", "minimum": 1},
                "n_clf_samples": {"type": "integer", "minimum": 1},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["axis", "values"],
            "properties": {
                "axis": {"enum": ["sigma", "sigma_tilde", "K", "h", "period",
                                  "tau", "policy", "r_star"]},
                "values": {"type": "array", "minItems": 1},
            },
        },
        "label": {"type": "string"},
    },
}

_VALIDATOR = Draft202012Validator(_SCHEMA)


class ExperimentConfig:
    """A validated experiment description with JSON round-trip identity."""

    def __init__(self, data: dict):
        errors = sorted(_VALIDATOR.iter_errors(data), key=str)
        if errors:
            msgs = "; ".join(e.message for e in errors[:4])
            raise ConfigurationError(f"invalid config: {msgs}")
        self.data = copy.deepcopy(data)

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig(_parse_json(fh.read()))

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)

    # convenience accessors -------------------------------------------------
    @property
    def model_name(self) -> str:
        return self.data["model"]["name"]

    @property
    def model_params(self) -> dict:
        return dict(self.data["model"].get("params", {}))

    @property
    def policy_spec(self) -> dict:
        return dict(self.data.get("policy", {"policy": "event"}))

    @property
    def seed(self) -> int:
        return int(self.data.get("seed", 0))

    @property
    def label(self) -> str:
        return self.data.get(
            "label", f"{self.model_name}_{self.policy_spec['policy']}")

    @property
    def estimation(self) -> dict:
        est = dict(self.data.get("estimation", {}))
        est.setdefault("n_samples", 192)
        est.setdefault("safety_factor", DEFAULT_SAFETY)
        est.setdefault("n_clf_samples", 2000)
        return est


def _finite_float(text: str) -> float:
    """A JSON number as a float.  Rejects Python's ``NaN``/``Infinity``
    extension and numbers that overflow a float, such as ``1e400``."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigurationError(f"config number {text} is not a finite float")
    return value


def _parse_json(text: str):
    return json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)


def load_config(spec: str) -> ExperimentConfig:
    """Load a config from a path, or from the shipped presets by name."""
    if os.path.exists(spec):
        return ExperimentConfig.from_file(spec)
    name = spec[:-5] if spec.endswith(".json") else spec
    try:
        text = resources.files("clfetc").joinpath(f"presets/{name}.json").read_text()
    except (FileNotFoundError, ModuleNotFoundError):
        raise ConfigurationError(f"no such config file or preset: {spec!r}")
    return ExperimentConfig(_parse_json(text))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# config resolution


def _resolve_sigma(cfg: ExperimentConfig) -> float:
    """The run's retention fraction: ``policy.sigma``, or its alias
    ``model.params.sigma``, which must agree with it, or 0.9."""
    pol = cfg.policy_spec
    params = cfg.model_params
    sigma = pol.get("sigma", params.get("sigma", 0.9))
    if "sigma" in pol and "sigma" in params and pol["sigma"] != params["sigma"]:
        raise ConfigurationError("policy sigma and model sigma disagree")
    if not isinstance(sigma, (int, float)):
        raise ConfigurationError(f"sigma must be a number, got {sigma!r}")
    return check_sigma(float(sigma))


def build_model_from_config(cfg: ExperimentConfig):
    """The config's model.  A ``sigma`` among its params belongs to the
    policy: it is checked here and not passed to the builder."""
    _resolve_sigma(cfg)
    params = cfg.model_params
    params.pop("sigma", None)
    return build_model(cfg.model_name, params)


def _model_and_x0(cfg: ExperimentConfig):
    """The config's model and its initial state (the model's default when
    the config names none)."""
    model = build_model_from_config(cfg)
    return model, np.asarray(cfg.data.get("x0", model.default_x0), dtype=float)


def _periodic_params(cfg: ExperimentConfig, sigma: float):
    """``(sigma_tilde, K)`` of the periodic check, with their defaults."""
    spec = cfg.policy_spec
    return (float(spec.get("sigma_tilde", 0.5 * (1.0 + sigma))),
            float(spec.get("K", 2.0)))


def _region(cfg: ExperimentConfig, model, x0):
    """The sublevel box through ``x0``, or through a state on the config's
    ``region_level`` when it names one."""
    level = cfg.data.get("region_level")
    anchor = x0 if level is None else _state_at_level(model, level)
    return bound_sublevel_box(model.certificate, anchor, seed=cfg.seed)


def _estimation_bundle(cfg: ExperimentConfig, model, x0,
                       allow_degenerate: bool = False):
    """Region, constants and the per-constant ``EstimateReport``s: the one
    estimate that derived policies and the verify and dwell reports read."""
    est = cfg.estimation
    region = _region(cfg, model, x0)
    constants, reports = estimate_constants(
        model.system, model.certificate, region,
        n=est["n_samples"], seed=cfg.seed, safety=est["safety_factor"],
        allow_degenerate=allow_degenerate)
    return region, constants, reports


def _state_at_level(model, level: float) -> np.ndarray:
    """The default initial state scaled along its ray onto ``level``."""
    cert = model.certificate
    x = np.asarray(model.default_x0, dtype=float)
    if not np.any(x):
        raise ConfigurationError("cannot scale a zero anchor to a level")
    lo, hi = 0.0, 1.0
    while cert.v(hi * x) < level:
        hi *= 2.0
        if hi > 1e12:
            raise ConfigurationError("requested region level unreachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cert.v(mid * x) < level:
            lo = mid
        else:
            hi = mid
    return hi * x


def resolve_policy(cfg: ExperimentConfig, model, x0):
    """Build the policy object, deriving missing periods from dwell bounds.

    Returns ``(policy, info)`` where ``info`` records anything derived.
    """
    spec = cfg.policy_spec
    kind = spec["policy"]
    sigma = _resolve_sigma(cfg)
    info = {"policy": kind, "sigma": sigma}

    if kind == "event":
        return EventTriggered(sigma=sigma), info

    if kind == "self":
        if "tau" in spec:
            tau = info["tau"] = float(spec["tau"])
        else:
            # the region's constants bound those at every state in it, rho
            # included, so every update gets the same dwell
            _, constants, _ = _estimation_bundle(cfg, model, x0)
            tau = info["tau_at_x0"] = float(dwellmod.tau_select(DwellInputs(
                constants=constants, sigma=sigma,
                gamma_mode=dwellmod.gamma_mode(model.certificate))).value)
        return SelfTriggered(sigma=sigma, tau=tau), info

    if kind == "time":
        if "instants" in spec:
            return TimeTriggered(sigma=sigma, instants=tuple(spec["instants"])), info
        if "period" in spec:
            info["period"] = float(spec["period"])
            return TimeTriggered(sigma=sigma, period=float(spec["period"])), info
        region, constants, _ = _estimation_bundle(cfg, model, x0)
        rep = tau_min_over_sublevel(model.certificate, region, constants, sigma)
        info["period"] = rep.value
        info["derived_from"] = "tau_min"
        return TimeTriggered(sigma=sigma, period=rep.value), info

    # periodic-event
    sigma_tilde, k_big = _periodic_params(cfg, sigma)
    info.update({"sigma_tilde": sigma_tilde, "K": k_big})
    region, constants, _ = _estimation_bundle(cfg, model, x0)
    info["big_m"] = constants.big_m
    if "h" in spec:
        h = float(spec["h"])
    else:
        rep = tau_min_over_sublevel(
            model.certificate, region, constants, sigma, which="tau0",
            sigma_tilde=sigma_tilde, k_big=k_big)
        h = admissible_period(rep.value)
        info["derived_from"] = "tau0_min"
    info["h"] = h
    return PeriodicEventTriggered(sigma=sigma, sigma_tilde=sigma_tilde,
                                  k_big=k_big, h=h, big_m=constants.big_m), info


def integrator_from_config(cfg: ExperimentConfig) -> IntegratorConfig:
    if "horizon" not in cfg.data:
        raise ConfigurationError("config needs a horizon for simulation")
    return IntegratorConfig(horizon=float(cfg.data["horizon"]),
                            **cfg.data.get("integrator", {}))


# ---------------------------------------------------------------------------
# subcommands


def _simulate_once(cfg: ExperimentConfig):
    model, x0 = _model_and_x0(cfg)
    policy, pol_info = resolve_policy(cfg, model, x0)
    traj = run_closed_loop(model.system, model.certificate, policy, x0,
                           integrator_from_config(cfg))
    return model, x0, traj, pol_info


def _run_summary(model, traj):
    """``(stats, rate_ok, rate_excess, first_dwell, zeno_bound)`` of one run:
    its statistics, the rate-certificate check, the time from the initial
    update to the first fired one (None without one) and, on zeno-polar
    only, the analytic bound on that time (None on the other models)."""
    stats = run_stats(traj)
    rate_ok, rate_excess = check_rate_certificate(traj, model.certificate)
    first_dwell = traj.events[1].dwell if len(traj.events) > 1 else None
    zeno_bound = (zeno_first_event_bound(model.params["r_star"])
                  if model.name == "zeno-polar" else None)
    return stats, rate_ok, rate_excess, first_dwell, zeno_bound


def cmd_simulate(cfg: ExperimentConfig, out_dir: str, plot: bool = False) -> int:
    os.makedirs(out_dir, exist_ok=True)
    model, x0, traj, pol_info = _simulate_once(cfg)
    label = cfg.label
    csv_path = os.path.join(out_dir, f"{label}_trajectory.csv")
    write_trajectory_csv(traj, csv_path)

    stats, rate_ok, rate_excess, first_dwell, zeno_bound = _run_summary(model, traj)
    payload = {
        "stats": stats,
        "termination": traj.termination,
        "rate_certificate_ok": bool(rate_ok),
        "rate_certificate_excess": rate_excess,
        "sigma": traj.sigma,
        "policy": pol_info,
        "seed": cfg.seed,
        "model": model.name,
        "model_params": model.params,
        "x0": x0,
        "events": [{"index": e.index, "time": e.time, "dwell": e.dwell,
                    "reason": e.reason, "guard_value": e.guard_value,
                    "control": list(e.control)} for e in traj.events[:1000]],
        "config": cfg.to_dict(),
    }
    if zeno_bound is not None:
        payload["zeno_bound_comparison"] = {
            "first_dwell": first_dwell,
            "analytic_bound": zeno_bound,
            "within_bound": (first_dwell is not None and first_dwell <= zeno_bound),
        }
    if traj.termination in ANOMALOUS_TERMINATIONS:
        payload["diagnostic"] = {
            "anomaly": traj.termination,
            "t_last": float(traj.t[-1]),
            "n_events": len(traj.events),
        }
    _write_json(os.path.join(out_dir, f"{label}_stats.json"), payload)

    if plot:
        ts = traj.t
        svgplot.line_plot(os.path.join(out_dir, f"{label}_x.svg"), ts,
                          [(f"x{i+1}", traj.x[:, i]) for i in range(traj.x.shape[1])],
                          title=f"{label}: state", ylabel="x")
        svgplot.line_plot(os.path.join(out_dir, f"{label}_u.svg"), ts,
                          [(f"u{j+1}", traj.u[:, j]) for j in range(traj.u.shape[1])],
                          title=f"{label}: control", ylabel="u")
        v0 = float(traj.v[0])
        bound_curve = [model.certificate.energy_map.bound_after(v0, float(t), traj.sigma)
                       for t in ts]
        svgplot.line_plot(os.path.join(out_dir, f"{label}_v.svg"), ts,
                          [("V", traj.v), ("bound", bound_curve)],
                          title=f"{label}: Lyapunov decay", ylabel="V")

    print(f"{label}: termination={traj.termination} n_events={stats.n_events} "
          f"rate_certificate_ok={rate_ok}")
    return 2 if traj.termination in ANOMALOUS_TERMINATIONS else 0


def cmd_verify(cfg: ExperimentConfig, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    model, x0 = _model_and_x0(cfg)
    cert = model.certificate
    label = cfg.label
    report = {"model": model.name, "seed": cfg.seed, "expected_status":
              model.expected_assumption_status, "config": cfg.to_dict()}
    code = 0
    try:
        region, constants, reports = _estimation_bundle(
            cfg, model, x0, allow_degenerate=True)
        rep_m = reports["big_m"]
        report["region"] = {"level": region.level,
                            "lo": region.lo, "hi": region.hi}
        report["estimates"] = {**reports, "rho": constants.rho,
                               "mu": constants.mu}
        samples = sample_in_region(cert, region, cfg.estimation["n_clf_samples"],
                                   seed=cfg.seed)
        clf = verify_clf_pointwise(cert, model.system, samples)
        report["clf_check"] = {
            "n_samples": clf.n_samples,
            "n_skipped": clf.n_skipped,
            "n_violations": len(clf.violations),
            "worst_margin": clf.worst_margin,
        }
        report["nondegeneracy_ok"] = not rep_m.diverging
        report["assumptions_pass"] = bool(clf.ok and not rep_m.diverging)
        code = 0 if report["assumptions_pass"] else 1
    except PropernessError as exc:
        report["properness_error"] = str(exc)
        report["assumptions_pass"] = False
        code = 1
    _write_json(os.path.join(out_dir, f"{label}_verify.json"), report)
    print(f"{label}: assumptions_pass={report.get('assumptions_pass')}")
    return code


def cmd_dwell(cfg: ExperimentConfig, out_dir: str, force: bool = False) -> int:
    os.makedirs(out_dir, exist_ok=True)
    model, x0 = _model_and_x0(cfg)
    sigma = _resolve_sigma(cfg)
    sigma_tilde, k_big = _periodic_params(cfg, sigma)
    label = cfg.label
    report = {"model": model.name, "seed": cfg.seed, "sigma": sigma,
              "sigma_tilde": sigma_tilde, "K": k_big, "config": cfg.to_dict()}

    try:
        region, constants, _ = _estimation_bundle(cfg, model, x0,
                                                  allow_degenerate=force)
    except (NonDegeneracyError, PropernessError) as exc:
        report["assumption_failure"] = str(exc)
        _write_json(os.path.join(out_dir, f"{label}_dwell.json"), report)
        print(f"{label}: assumption failure ({exc})")
        return 1

    rep_tau = tau_min_over_sublevel(model.certificate, region, constants, sigma)
    rep_tau0 = tau_min_over_sublevel(
        model.certificate, region, constants, sigma, which="tau0",
        sigma_tilde=sigma_tilde, k_big=k_big)
    h = admissible_period(rep_tau0.value)
    report["tau_min"] = rep_tau
    report["tau0_min"] = rep_tau0
    report["recommended_time_triggered_period"] = rep_tau.value
    report["recommended_periodic_check_period"] = h
    # user schedules are never blocked; the bound is sufficient, not
    # necessary, so a too-large period only earns a warning
    user_period = cfg.policy_spec.get("period")
    if user_period is not None and user_period > rep_tau.value:
        report["period_warning"] = (
            f"configured period {user_period} exceeds the estimated "
            f"admissible period {rep_tau.value}; the rate guarantee is "
            "not certified at this period")

    if "horizon" in cfg.data:
        icfg = integrator_from_config(cfg)
        traj = run_closed_loop(model.system, model.certificate,
                               EventTriggered(sigma=sigma), x0, icfg)
        stats = run_stats(traj)
        ok = stats.min_dwell is None or stats.min_dwell >= rep_tau.value
        report["cross_check"] = {
            "min_observed_dwell": stats.min_dwell,
            "tau_min": rep_tau.value,
            "ok": bool(ok),
            "n_events": stats.n_events,
        }
    _write_json(os.path.join(out_dir, f"{label}_dwell.json"), report)
    print(f"{label}: tau_min={rep_tau.value:.6g}, h={h:.6g}")
    return 0


_SWEEP_COLUMNS = [
    "index", "axis", "value", "model", "policy", "n_events",
    "first_event_time", "min_dwell", "max_dwell", "max_dwell_post_first",
    "mean_event_frequency", "first_dwell", "dwell_bound", "termination",
    "rate_certificate_ok", "error",
]


def _apply_axis(base: dict, axis: str, value) -> dict:
    data = copy.deepcopy(base)
    if axis == "policy":
        data.setdefault("policy", {"policy": "event"})
        data["policy"]["policy"] = value
    elif axis == "r_star":
        data.setdefault("model", {}).setdefault("params", {})["r_star"] = value
    elif axis == "sigma":
        data.setdefault("policy", {"policy": "event"})["sigma"] = value
        data.get("model", {}).get("params", {}).pop("sigma", None)
    else:
        data.setdefault("policy", {"policy": "event"})[axis] = value
    return data


def _sweep_row(index, axis, value, data) -> dict:
    row = {c: "" for c in _SWEEP_COLUMNS}
    row.update({"index": index, "axis": axis, "value": value})
    try:
        model, _, traj, pol_info = _simulate_once(ExperimentConfig(data))
        stats, ok, _excess, first_dwell, zeno_bound = _run_summary(model, traj)
        row.update({
            "model": model.name,
            "policy": pol_info["policy"],
            "n_events": stats.n_events,
            "first_event_time": stats.first_event_time,
            "min_dwell": stats.min_dwell,
            "max_dwell": stats.max_dwell,
            "max_dwell_post_first": stats.max_dwell_post_first,
            "mean_event_frequency": stats.mean_event_frequency,
            "first_dwell": first_dwell,
            "dwell_bound": zeno_bound,
            "termination": traj.termination,
            "rate_certificate_ok": ok,
        })
    except Exception as exc:  # per-run failures stay in-row
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    if "sweep" not in cfg.data:
        raise ConfigurationError("sweep config needs a 'sweep' section")
    os.makedirs(out_dir, exist_ok=True)
    axis = cfg.data["sweep"]["axis"]
    values = cfg.data["sweep"]["values"]
    base = cfg.to_dict()
    base.pop("sweep")
    rows = [_sweep_row(i, axis, v, _apply_axis(base, axis, v))
            for i, v in enumerate(values)]

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    label = cfg.label
    path = os.path.join(out_dir, f"{label}_sweep.csv")
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(cell(row[c]) for c in _SWEEP_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    n_err = sum(1 for r in rows if r["error"])
    print(f"{label}: swept {axis} over {len(values)} values, {n_err} failures "
          f"-> {path}")
    return 0


def cmd_stats(csv_path: str, out_path=None) -> int:
    _times, events = read_event_times_csv(csv_path)
    if events.size == 0:
        print("no events found in trajectory", file=_sys.stderr)
        return 1
    stats = stats_from_event_times(events)
    text = json.dumps(_jsonable(stats), indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="clfetc",
        description="Event-triggered stabilization toolkit: simulate, audit "
                    "assumptions, estimate dwell times, sweep parameters.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="config JSON path or preset name")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p_sim = sub.add_parser("simulate", help="run one closed-loop experiment")
    add_common(p_sim)
    p_sim.add_argument("--plot", action="store_true", help="emit SVG plots")

    p_ver = sub.add_parser("verify", help="audit the assumptions on a region")
    add_common(p_ver)

    p_dw = sub.add_parser("dwell", help="estimate dwell-time bounds")
    add_common(p_dw)
    p_dw.add_argument("--force", action="store_true",
                      help="continue despite assumption failures")

    p_sw = sub.add_parser("sweep", help="run a parameter sweep")
    add_common(p_sw)

    p_st = sub.add_parser("stats", help="recompute stats from a trajectory CSV")
    p_st.add_argument("trajectory", help="trajectory CSV path")
    p_st.add_argument("--out", default=None, help="also write the JSON here")

    args = parser.parse_args(argv)
    try:
        if args.command == "stats":
            return cmd_stats(args.trajectory, args.out)
        cfg = load_config(args.config)
        if args.seed is not None:
            data = cfg.to_dict()
            data["seed"] = args.seed
            cfg = ExperimentConfig(data)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, plot=args.plot)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
        if args.command == "dwell":
            return cmd_dwell(cfg, args.out, force=args.force)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
        raise ConfigurationError(f"unknown command {args.command}")
    except (ClfetcError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
