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
import csv
import dataclasses
import json
import math
import os
import sys as _sys
from importlib import resources

import numpy as np

from . import dwell as dwellmod
from . import svgplot
from .certificates import (DEFAULT_SAFETY, MAX_SAMPLES, bound_sublevel_box,
                           estimate_constants, sample_in_region)
# kept for the tracer: the benchmark patches these names on this module
from .certificates import (estimate_big_m, estimate_kappa, estimate_nu,  # noqa: F401
                           estimate_rho)
from .core import _as_vector, verify_clf_pointwise
from .dwell import DwellInputs, admissible_period, tau_min_over_sublevel
from .engine import (MAX_OUTPUT_POINTS, IntegratorConfig, check_rate_certificate,
                     run_closed_loop, run_stats, read_event_times_csv,
                     stats_from_event_times, write_trajectory_csv)
from .errors import (ClfetcError, ConfigurationError, NonDegeneracyError,
                     PropernessError)
from .models import MODEL_NAMES, build_model, zeno_first_event_bound
from .triggers import (EventTriggered, PeriodicEventTriggered, SelfTriggered,
                       TimeTriggered, equilibrium_threshold)

ANOMALOUS_TERMINATIONS = ("zeno_abort", "blowup", "event_cap")

@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment description (see ``parse_config``).  ``data`` is
    the exact input, which ``to_dict()`` echoes into every report; the other
    fields hold its checked values and their defaults.  Each quantity has one
    key: σ is ``policy.sigma``, and the audited region is always the sublevel
    box through ``x0``."""

    data: dict
    model_name: str
    model_params: dict
    policy: dict  # the policy spec; its ``policy`` key names the kind
    label: str
    x0: list | None = None
    horizon: float | None = None
    integrator: dict = dataclasses.field(default_factory=dict)  # IntegratorConfig keywords
    seed: int = 0
    n_samples: int = 192
    safety_factor: float = DEFAULT_SAFETY
    n_clf_samples: int = 2000
    sweep: dict | None = None

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)

    @property
    def sigma(self) -> float:
        """The run's retention fraction: ``policy.sigma``, or 0.9."""
        return self.policy.get("sigma", 0.9)

    @property
    def sigma_tilde(self) -> float:
        """The periodic check's fraction: ``policy.sigma_tilde``, or (1 + σ)/2."""
        return (float(self.policy["sigma_tilde"]) if "sigma_tilde" in self.policy
                else 0.5 * (1.0 + self.sigma))

    @property
    def k_big(self) -> float:
        """The periodic check's ratio cap factor: ``policy.K``, or 2."""
        return float(self.policy["K"]) if "K" in self.policy else 2.0


def _invalid(path: str, wanted: str, value):
    raise ConfigurationError(f"invalid config: {path} must be {wanted}, "
                             f"got {json.dumps(value, default=repr)}")


def _number(integer=False, gt=None, ge=None, lt=None, le=None):
    """A number field, with bounds ``> gt``, ``>= ge``, ``< lt`` and ``<= le``.
    Booleans are not numbers.  An integer field takes integral floats, as
    JSON Schema does, and converts them to ``int``; any other number field
    must fit in a float."""
    def check(path, value):
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or (integer and isinstance(value, float) and not value.is_integer())):
            _invalid(path, "an integer" if integer else "a number", value)
        if not integer and abs(value) > _sys.float_info.max:
            _invalid(path, "a finite float", value)
        if gt is not None and not value > gt:
            _invalid(path, f"> {gt}", value)
        if ge is not None and not value >= ge:
            _invalid(path, f">= {ge}", value)
        if lt is not None and not value < lt:
            _invalid(path, f"< {lt}", value)
        if le is not None and not value <= le:
            _invalid(path, f"<= {le}", value)
        return int(value) if integer else value
    return check


def _is(wanted: str, test):
    def check(path, value):
        if not test(value):
            _invalid(path, wanted, value)
        return value
    return check


def _choice(*options):
    return _is(f"one of {', '.join(map(json.dumps, options))}",
               lambda value: isinstance(value, str) and value in options)


def _array(item, nonempty=False):
    def check(path, value):
        if not isinstance(value, list) or (nonempty and not value):
            _invalid(path, "a non-empty array" if nonempty else "an array", value)
        return [item(f"{path}[{i}]", v) for i, v in enumerate(value)]
    return check


def _object(fields, required=()):
    """An object with only the keys of ``fields``, which maps each key to the
    check of its value, and with every key in ``required``."""
    def check(path, value):
        if not isinstance(value, dict):
            _invalid(path or "config", "an object", value)
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in fields:
                raise ConfigurationError(f"invalid config: {prefix}{key} is not a known key")
        for key in required:
            if key not in value:
                raise ConfigurationError(f"invalid config: {prefix}{key} is required")
        return {key: fields[key](prefix + key, v) for key, v in value.items()}
    return check


_CONFIG = _object({
    "model": _object({"name": _choice(*MODEL_NAMES),
                      "params": _is("an object", lambda value: isinstance(value, dict))},
                     required=("name",)),
    "policy": _object({
        "policy": _choice("event", "self", "time", "periodic-event"),
        "sigma": _number(gt=0, lt=1),
        "sigma_tilde": _number(gt=0, lt=1),
        "K": _number(gt=1),
        "h": _number(gt=0),
        "period": _number(gt=0),
        "instants": _array(_number()),
        "tau": _number(gt=0),
    }, required=("policy",)),
    "x0": _array(_number(), nonempty=True),
    "horizon": _number(gt=0),
    "integrator": _object({
        "rel_tol": _number(gt=0),
        "abs_tol": _number(gt=0),
        "max_step": _number(gt=0),
        "max_events": _number(integer=True, ge=1),
        "zeno_floor": _number(gt=0),
        "output_points": _number(integer=True, ge=2, le=MAX_OUTPUT_POINTS),
    }),
    "seed": _number(integer=True, ge=0),
    "estimation": _object({
        "n_samples": _number(integer=True, ge=2, le=MAX_SAMPLES),
        "safety_factor": _number(ge=1),
        # accepted but unused: the dwell infimum is attained at the
        # region's own level, so no anchors are sampled
        "n_anchors": _number(integer=True, ge=1),
        "n_clf_samples": _number(integer=True, ge=1, le=MAX_SAMPLES),
    }),
    "sweep": _object({
        "axis": _choice("sigma", "sigma_tilde", "K", "h", "period", "tau",
                        "policy", "r_star"),
        "values": _array(lambda _path, value: value, nonempty=True),
    }, required=("axis", "values")),
    "label": _is("a string", lambda value: isinstance(value, str)),
}, required=("model",))


def parse_config(data) -> ExperimentConfig:
    """Check a config and return it typed.  A failed check raises
    ``ConfigurationError`` with a message that names the dotted field."""
    data = copy.deepcopy(data)
    fields = _CONFIG("", data)
    model = fields.pop("model")
    estimation = fields.pop("estimation", {})
    estimation.pop("n_anchors", None)
    policy = fields.setdefault("policy", {"policy": "event"})
    fields.setdefault("label", f"{model['name']}_{policy['policy']}")
    return ExperimentConfig(data=data, model_name=model["name"],
                            model_params=model.get("params", {}),
                            **estimation, **fields)


def _finite_float(text: str) -> float:
    """A JSON number as a float.  Rejects Python's ``NaN``/``Infinity``
    extension and numbers that overflow a float, such as ``1e400``."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigurationError(f"config number {text} is not a finite float")
    return value


def load_config(spec: str) -> ExperimentConfig:
    """Load a config from a path, or from the shipped presets by name.  A
    file that is not UTF-8 or not JSON raises ``ConfigurationError``."""
    try:
        if os.path.exists(spec):
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            name = spec[:-5] if spec.endswith(".json") else spec
            try:
                text = resources.files("clfetc").joinpath(f"presets/{name}.json").read_text()
            except (FileNotFoundError, ModuleNotFoundError):
                raise ConfigurationError(f"no such config file or preset: {spec!r}")
        data = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"{spec}: {exc}") from None
    return parse_config(data)


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


def _model_and_x0(cfg: ExperimentConfig):
    """The config's model, built from ``model.params`` as given, and its
    initial state (the model's default when the config names none), checked
    against the model's state dimension.  The models take no σ, so a
    ``sigma`` among the params fails in the builder."""
    model = build_model(cfg.model_name, cfg.model_params)
    return model, _as_vector(model.default_x0 if cfg.x0 is None else cfg.x0,
                             model.system.state_dim, "state")


def _estimation_bundle(cfg: ExperimentConfig, model, x0,
                       allow_degenerate: bool = False):
    """Region, constants and the per-constant ``EstimateReport``s: the one
    estimate that derived policies and the verify and dwell reports read, on
    the sublevel box through ``x0``: the set {V <= V(x0)} that the certified
    decrease keeps the run inside."""
    region = bound_sublevel_box(model.certificate, x0, seed=cfg.seed)
    constants, reports = estimate_constants(
        model.system, model.certificate, region,
        n=cfg.n_samples, seed=cfg.seed, safety=cfg.safety_factor,
        allow_degenerate=allow_degenerate)
    return region, constants, reports


def resolve_policy(cfg: ExperimentConfig, model, x0):
    """Build the policy object, deriving missing periods from dwell bounds.

    Returns ``(policy, info)`` where ``info`` records anything derived.
    """
    spec = cfg.policy
    kind = spec["policy"]
    sigma = cfg.sigma
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
    sigma_tilde, k_big = info["sigma_tilde"], info["K"] = cfg.sigma_tilde, cfg.k_big
    region, constants, _ = _estimation_bundle(cfg, model, x0)
    info["big_m"] = constants.big_m
    if "h" in spec:
        h = float(spec["h"])
    else:
        rep = tau_min_over_sublevel(
            model.certificate, region, constants, sigma,
            sigma_tilde=sigma_tilde, k_big=k_big)
        h = admissible_period(rep.value)
        info["derived_from"] = "tau0_min"
    info["h"] = h
    return PeriodicEventTriggered(sigma=sigma, sigma_tilde=sigma_tilde,
                                  k_big=k_big, h=h, big_m=constants.big_m), info


def integrator_from_config(cfg: ExperimentConfig) -> IntegratorConfig:
    if cfg.horizon is None:
        raise ConfigurationError("config needs a horizon for simulation")
    return IntegratorConfig(horizon=float(cfg.horizon), **cfg.integrator)


# ---------------------------------------------------------------------------
# subcommands


def _simulate_once(cfg: ExperimentConfig):
    """One closed-loop run of the config.  A run from the equilibrium
    freezes at t = 0 whatever the policy, so no policy is resolved for it:
    a derived one would need constants, which the equilibrium's one-point
    sublevel set does not have.  Its policy record names the kind and σ."""
    model, x0 = _model_and_x0(cfg)
    v0 = model.certificate.v(x0)
    if v0 <= equilibrium_threshold(v0):
        policy = EventTriggered(sigma=cfg.sigma)
        pol_info = {"policy": cfg.policy["policy"], "sigma": cfg.sigma}
    else:
        policy, pol_info = resolve_policy(cfg, model, x0)
    traj = run_closed_loop(model.system, model.certificate, policy, x0,
                           integrator_from_config(cfg))
    return model, traj, pol_info


def _run_summary(model, traj):
    """``(stats, rate_ok, rate_excess, first_dwell, zeno_bound)`` of one run:
    its statistics, the rate-certificate check, the time from the initial
    update to the first fired one (None without one) and, on zeno-polar
    only, the analytic bound on that time at the radius of the initial
    state (None on the other models, and where the radius is outside the
    bound's domain (0, 1))."""
    stats = run_stats(traj)
    rate_ok, rate_excess = check_rate_certificate(traj)
    first_dwell = traj.events[1].dwell if len(traj.events) > 1 else None
    radius = math.hypot(*traj.x[0])
    zeno_bound = (zeno_first_event_bound(radius)
                  if model.name == "zeno-polar" and 0.0 < radius < 1.0 else None)
    return stats, rate_ok, rate_excess, first_dwell, zeno_bound


def cmd_simulate(cfg: ExperimentConfig, out_dir: str, plot: bool = False) -> int:
    os.makedirs(out_dir, exist_ok=True)
    model, traj, pol_info = _simulate_once(cfg)
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
        "x0": traj.x[0],
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
        svgplot.line_plot(os.path.join(out_dir, f"{label}_v.svg"), ts,
                          [("V", traj.v), ("bound", traj.bound)],
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
        samples = sample_in_region(cert, region, cfg.n_clf_samples, seed=cfg.seed)
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
    sigma, sigma_tilde, k_big = cfg.sigma, cfg.sigma_tilde, cfg.k_big
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
        model.certificate, region, constants, sigma,
        sigma_tilde=sigma_tilde, k_big=k_big)
    h = admissible_period(rep_tau0.value)
    report["tau_min"] = rep_tau
    report["tau0_min"] = rep_tau0
    report["recommended_time_triggered_period"] = rep_tau.value
    report["recommended_periodic_check_period"] = h
    # user schedules are never blocked; the bound is sufficient, not
    # necessary, so a too-large period only earns a warning
    if "period" in cfg.policy and cfg.policy["period"] > rep_tau.value:
        report["period_warning"] = (
            f"configured period {cfg.policy['period']} exceeds the estimated "
            f"admissible period {rep_tau.value}; the rate guarantee is "
            "not certified at this period")

    if cfg.horizon is not None:
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


def _apply_axis(cfg: ExperimentConfig, axis: str, value) -> dict:
    """The raw config of one sweep row: the base config without its sweep,
    with the axis set to ``value``."""
    data = {key: v for key, v in cfg.to_dict().items() if key != "sweep"}
    if axis == "r_star":
        data["model"]["params"] = dict(cfg.model_params, r_star=value)
    else:
        data["policy"] = dict(cfg.policy, **{axis: value})
    return data


def _sweep_row(index, axis, value, data) -> dict:
    row = {c: "" for c in _SWEEP_COLUMNS}
    row.update({"index": index, "axis": axis, "value": value})
    try:
        model, traj, pol_info = _simulate_once(parse_config(data))
        stats, ok, _excess, first_dwell, zeno_bound = _run_summary(model, traj)
        row.update(dataclasses.asdict(stats), model=model.name,
                   policy=pol_info["policy"], first_dwell=first_dwell,
                   dwell_bound=zeno_bound, rate_certificate_ok=ok)
    except Exception as exc:  # per-run failures stay in-row
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _csv_cell(v) -> str:
    """One sweep CSV cell: empty for None, ``true``/``false`` for a Python
    or numpy bool, the shortest round-trip repr of a Python or numpy float
    (under numpy 2 an ``np.float64``'s own repr is ``np.float64(...)``),
    and ``str`` otherwise."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def cmd_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    if cfg.sweep is None:
        raise ConfigurationError("sweep config needs a 'sweep' section")
    os.makedirs(out_dir, exist_ok=True)
    axis, values = cfg.sweep["axis"], cfg.sweep["values"]
    rows = [_sweep_row(i, axis, v, _apply_axis(cfg, axis, v))
            for i, v in enumerate(values)]
    label = cfg.label
    path = os.path.join(out_dir, f"{label}_sweep.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SWEEP_COLUMNS)
        writer.writerows([_csv_cell(row[c]) for c in _SWEEP_COLUMNS]
                         for row in rows)
    n_err = sum(1 for r in rows if r["error"])
    print(f"{label}: swept {axis} over {len(values)} values, {n_err} failures "
          f"-> {path}")
    return 0


def cmd_stats(csv_path: str, out_path=None) -> int:
    stats = stats_from_event_times(read_event_times_csv(csv_path))
    if out_path:
        _write_json(out_path, stats)
    print(json.dumps(_jsonable(stats), indent=2, sort_keys=True))
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
    p_sim.set_defaults(run=lambda cfg, a: cmd_simulate(cfg, a.out, plot=a.plot))

    p_ver = sub.add_parser("verify", help="audit the assumptions on a region")
    add_common(p_ver)
    p_ver.set_defaults(run=lambda cfg, a: cmd_verify(cfg, a.out))

    p_dw = sub.add_parser("dwell", help="estimate dwell-time bounds")
    add_common(p_dw)
    p_dw.add_argument("--force", action="store_true",
                      help="continue despite assumption failures")
    p_dw.set_defaults(run=lambda cfg, a: cmd_dwell(cfg, a.out, force=a.force))

    p_sw = sub.add_parser("sweep", help="run a parameter sweep")
    add_common(p_sw)
    p_sw.set_defaults(run=lambda cfg, a: cmd_sweep(cfg, a.out))

    p_st = sub.add_parser("stats", help="recompute stats from a trajectory CSV")
    p_st.add_argument("trajectory", help="trajectory CSV path")
    p_st.add_argument("--out", default=None, help="also write the JSON here")
    p_st.set_defaults(config=None, run=lambda _cfg, a: cmd_stats(a.trajectory, a.out))

    args = parser.parse_args(argv)
    try:
        cfg = None
        if args.config is not None:  # every command but stats reads one
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg = parse_config(dict(cfg.to_dict(), seed=args.seed))
        return args.run(cfg, args)
    except (ClfetcError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
