"""Seeded workload generator for the clfetc benchmark.

Each workload is a closed loop with one client: the next CLI command starts
when the previous one has returned.  Every op kind has a fixed pool of
variants (initial states, parameters, sample sizes and estimator seeds),
drawn from a pool seed that never changes, so the reference outputs recorded
in ``reference/<workload>.json`` cover every variant.  A cycle runs the
whole pool once.  The run seed decides the order of every cycle and which
``event-sim`` ops add ``--plot``; it does not change the work a pair of
cycles does, so runs with different seeds measure the same thing.

The generator never imports ``clfetc``: the program receives only the config
files written here.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

POOL_SEED = "clfetc-perfbench-pool-v1"
MAX_CYCLES = 16  # more than any run completes

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "src" / "clfetc" / "presets"

# acc_policy_sweep's periodic-event row: it does not finish at the commit
# that introduced this benchmark, so it always runs under OP_BUDGET_S and
# its overrun counts as a failed op.
BUDGET_OP_KIND = "acc-policy-sweep-periodic"


@dataclass(frozen=True)
class Op:
    """One CLI command: ``clfetc <command> --config <file> <flags>``."""

    op_id: str  # "<kind>/<variant>", the key of the reference record
    kind: str
    command: str  # simulate | verify | dwell | sweep
    config: dict
    facts: dict = field(default_factory=dict)  # inputs the output check needs

    @property
    def label(self) -> str:
        return self.config["label"]


def _rng(workload: str, kind: str, variant: int) -> random.Random:
    return random.Random(f"{POOL_SEED}/{workload}/{kind}/{variant}")


def _r(x: float) -> float:
    """Round generated numbers so config files stay short and exact."""
    return float(f"{x:.6g}")


def _label(kind: str, variant: int) -> str:
    return f"{kind.replace('-', '_')}_{variant:02d}"


def _rotate(vec, plane, angle):
    i, j = plane
    out = list(vec)
    c, s = math.cos(angle), math.sin(angle)
    out[i] = c * vec[i] - s * vec[j]
    out[j] = s * vec[i] + c * vec[j]
    return out


def _preset(name: str) -> dict:
    with open(PRESETS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# event-sim: simulate with the event-triggered policy on all four models


def _event_acc(rng, label):
    base = rng.choice([[10.0, 10.1, 10.201], [0.0, -2.0, -4.04]])
    x0 = _rotate(base, rng.choice([(0, 1), (1, 2), (0, 2)]),
                 rng.uniform(-0.6, 0.6))
    scale = rng.uniform(0.5, 1.5)
    return {"model": {"name": "acc", "params": {"k": 1.01, "tau_lag": 0.3}},
            "policy": {"policy": "event", "sigma": 0.9},
            "x0": [_r(scale * c) for c in x0], "horizon": 60.0,
            "seed": rng.randrange(1000), "label": label}, {}


def _event_homog2d(rng, label):
    radius, angle = rng.uniform(0.2, 0.6), rng.uniform(0.0, 2.0 * math.pi)
    return {"model": {"name": "homog2d", "params": {"rate_scale": 1.0}},
            "policy": {"policy": "event", "sigma": 0.9},
            "x0": [_r(radius * math.cos(angle)), _r(radius * math.sin(angle))],
            "horizon": 200.0, "seed": rng.randrange(1000), "label": label}, {}


def _event_relay1d(rng, label):
    x0 = _r(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 2.0))
    return {"model": {"name": "relay1d"},
            "policy": {"policy": "event", "sigma": 0.9},
            "x0": [x0], "horizon": 3.0, "seed": rng.randrange(1000),
            "label": label}, {"relay_x0": x0}


def _event_zeno(rng, label):
    r_star = _r(rng.uniform(0.005, 0.05))
    return {"model": {"name": "zeno-polar",
                      "params": {"r_star": r_star,
                                 "phi_star": _r(rng.uniform(0.0, 6.28))}},
            "policy": {"policy": "event", "sigma": 0.9},
            "horizon": 1.0,
            "integrator": {"zeno_floor": 0.001, "max_events": 20000},
            "seed": rng.randrange(1000), "label": label}, {"r_star": r_star}


# ---------------------------------------------------------------------------
# sampled-sim: self-, time- and periodic-event triggering, half of the ops
# with explicit parameters, half derived from the dwell bounds


def _homog2d_x0(rng):
    radius, angle = rng.uniform(0.2, 0.5), rng.uniform(0.0, 2.0 * math.pi)
    return [_r(radius * math.cos(angle)), _r(radius * math.sin(angle))]


def _acc_x0(rng):
    return [_r(rng.uniform(0.5, 1.5) * c) for c in (10.0, 10.1, 10.201)]


def _homog2d_base(rng, label, horizon, policy):
    return {"model": {"name": "homog2d", "params": {"rate_scale": 1.0}},
            "policy": policy, "x0": _homog2d_x0(rng), "horizon": horizon,
            "seed": rng.randrange(1000), "label": label}


def _acc_base(rng, label, horizon, policy):
    return {"model": {"name": "acc", "params": {"k": 1.01, "tau_lag": 0.3}},
            "policy": policy, "x0": _acc_x0(rng), "horizon": horizon,
            "seed": rng.randrange(1000), "label": label}


def _self_explicit(rng, label):
    tau = _r(rng.uniform(0.01, 0.05))
    return _homog2d_base(rng, label, 5.0,
                         {"policy": "self", "sigma": 0.9, "tau": tau}), {}


def _self_derived(rng, label):
    return _homog2d_base(rng, label, _r(rng.uniform(0.03, 0.06)),
                         {"policy": "self", "sigma": 0.9}), {}


def _time_explicit(rng, label):
    period = _r(rng.uniform(0.05, 0.2))
    return _acc_base(rng, label, 20.0,
                     {"policy": "time", "sigma": 0.9, "period": period}), {}


def _time_derived(rng, label):
    return _acc_base(rng, label, _r(rng.uniform(5e-5, 1e-4)),
                     {"policy": "time", "sigma": 0.9}), {}


def _periodic_explicit(rng, label):
    h = _r(rng.uniform(5e-3, 1e-2))
    return _acc_base(rng, label, 3.0,
                     {"policy": "periodic-event", "sigma": 0.9, "h": h}), {}


def _periodic_derived(rng, label):
    return _homog2d_base(rng, label, _r(rng.uniform(3e-3, 6e-3)),
                         {"policy": "periodic-event", "sigma": 0.9}), {}


def _sweep_explicit(rng, label):
    policy = {"policy": "event", "sigma": 0.9,
              "tau": _r(rng.uniform(0.05, 0.2)),
              "period": _r(rng.uniform(0.05, 0.2)),
              "h": _r(rng.uniform(0.02, 0.05))}
    cfg = _acc_base(rng, label, 5.0, policy)
    cfg["sweep"] = {"axis": "policy",
                    "values": ["event", "self", "time", "periodic-event"]}
    return cfg, {}


def _sweep_derived(rng, label):
    cfg = _homog2d_base(rng, label, _r(rng.uniform(2e-3, 4e-3)),
                        {"policy": "event", "sigma": 0.9})
    cfg["sweep"] = {"axis": "policy",
                    "values": ["event", "self", "time", "periodic-event"]}
    return cfg, {}


def _acc_policy_sweep_periodic(_rng, label):
    cfg = _preset("acc_policy_sweep")
    cfg.pop("sweep")
    cfg["policy"] = dict(cfg.get("policy", {}), policy="periodic-event")
    cfg["label"] = label
    return cfg, {}


# ---------------------------------------------------------------------------
# certify: verify, and dwell without a horizon, on all four models


def _certify_config(rng, label, model):
    """Sample size from 192 to 1024, with the anchors scaled to match."""
    n = rng.randrange(192, 1025)
    est = {"n_samples": n, "n_anchors": max(1, round(n * 256 / 192))}
    return {"model": model, "policy": {"policy": "event", "sigma": 0.9},
            "estimation": est, "seed": rng.randrange(1000), "label": label}


def _certify_acc(rng, label):
    cfg = _certify_config(rng, label, {"name": "acc",
                                       "params": {"k": 1.01, "tau_lag": 0.3}})
    cfg["x0"] = _acc_x0(rng)
    return cfg, {}


def _certify_homog2d(rng, label):
    cfg = _certify_config(rng, label, {"name": "homog2d",
                                       "params": {"rate_scale": 1.0}})
    cfg["x0"] = _homog2d_x0(rng)
    return cfg, {}


def _certify_relay1d(rng, label):
    cfg = _certify_config(rng, label, {"name": "relay1d"})
    cfg["x0"] = [_r(rng.uniform(0.25, 2.0))]
    return cfg, {}


def _certify_zeno(rng, label):
    return _certify_config(rng, label, {
        "name": "zeno-polar",
        "params": {"r_star": _r(rng.uniform(0.05, 0.5)),
                   "phi_star": _r(rng.uniform(0.0, 6.28))}}), {}


# ---------------------------------------------------------------------------
# workload table: kind -> (command, config maker, variants in the pool)
#
# A cycle runs every variant once, so each cycle does the same work whatever
# the seed.  The variant counts set the op mix.  They keep the median and the
# 90th percentile of op times inside one large cluster of similar ops (acc on
# event-sim, the simulate ops and the derived sweeps on sampled-sim), not on
# the gap between two clusters, where a small shift moves them far.

WORKLOADS = {
    # almost all of its time goes to RK stepping, the guard probes of every
    # step, bisection localization, the corrector and recording, while the
    # estimators do no work
    "event-sim": {
        "acc": ("simulate", _event_acc, 20),
        "homog2d": ("simulate", _event_homog2d, 4),
        "relay1d": ("simulate", _event_relay1d, 2),
        "zeno-polar": ("simulate", _event_zeno, 2),
    },
    # its work is an integrator restart at every clock or check instant,
    # predicate_p calls and policy resolution, while guard probes and
    # localization do nothing; the sweeps run through the CLI's thread pool
    "sampled-sim": {
        "self-explicit": ("simulate", _self_explicit, 4),
        "self-derived": ("simulate", _self_derived, 4),
        "time-explicit": ("simulate", _time_explicit, 4),
        "time-derived": ("simulate", _time_derived, 4),
        "periodic-explicit": ("simulate", _periodic_explicit, 4),
        "periodic-derived": ("simulate", _periodic_derived, 4),
        "sweep-explicit": ("sweep", _sweep_explicit, 1),
        "sweep-derived": ("sweep", _sweep_derived, 3),
        BUDGET_OP_KIND: ("simulate", _acc_policy_sweep_periodic, 1),
    },
    # all of its work is in the per-point loops and Sobol sampling of the
    # certificates and dwell modules, and the engine sits idle; zeno-polar and
    # relay1d must fail the non-degeneracy audit (exit 1 is correct)
    "certify": {
        "verify-acc": ("verify", _certify_acc, 6),
        "verify-homog2d": ("verify", _certify_homog2d, 6),
        "verify-relay1d": ("verify", _certify_relay1d, 6),
        "verify-zeno-polar": ("verify", _certify_zeno, 6),
        "dwell-acc": ("dwell", _certify_acc, 6),
        "dwell-homog2d": ("dwell", _certify_homog2d, 6),
        "dwell-relay1d": ("dwell", _certify_relay1d, 6),
        "dwell-zeno-polar": ("dwell", _certify_zeno, 6),
    },
}

# event-sim kinds whose ops write SVG plots in half of their runs.  Plotted
# acc ops are the slowest of the workload and set its 90th percentile.
PLOTTED_KINDS = ("acc", "zeno-polar")


def pool(workload: str) -> dict:
    """Every variant of every op kind of a workload, keyed by op id."""
    ops = {}
    for kind, (command, build, n_variants) in WORKLOADS[workload].items():
        for variant in range(n_variants):
            label = _label(kind, variant)
            config, facts = build(_rng(workload, kind, variant), label)
            op_id = f"{kind}/{variant:02d}"
            ops[op_id] = Op(op_id=op_id, kind=kind, command=command,
                            config=config, facts=facts)
    return ops


def sequence(workload: str, seed: int) -> list:
    """The seed's op order: ``MAX_CYCLES`` cycles, each every variant of the
    pool once as ``(op_id, flags)``, shuffled anew for every cycle.

    On ``event-sim`` the seed also picks the half of each plotted kind that
    adds ``--plot``; the next cycle plots the other half, so every pair of
    cycles plots each of those variants once."""
    rng = random.Random(f"{workload}/{seed}")
    ops = pool(workload)
    op_ids = sorted(ops)
    plottable = {i for i in op_ids
                 if workload == "event-sim" and ops[i].kind in PLOTTED_KINDS}
    cycles = []
    for n in range(MAX_CYCLES):
        if n % 2 == 0:
            plotted = set()
            for kind in PLOTTED_KINDS:
                variants = sorted(i for i in plottable if ops[i].kind == kind)
                plotted.update(rng.sample(variants, len(variants) // 2))
        else:
            plotted = plottable - plotted
        order = rng.sample(op_ids, len(op_ids))
        cycles.append([(op_id, ("--plot",) if op_id in plotted else ())
                       for op_id in order])
    return cycles


def write_inputs(workload: str, seed: int, out_dir) -> list:
    """Write the config file of every variant, and ``ops.json`` with the
    seed's sequence.  Returns the sequence."""
    os.makedirs(out_dir, exist_ok=True)
    ops = pool(workload)
    cycles = sequence(workload, seed)
    for op_id in sorted(ops):
        _dump(Path(out_dir) / f"{ops[op_id].label}.json", ops[op_id].config)
    _dump(Path(out_dir) / "ops.json",
          {"workload": workload, "seed": seed,
           "cycles": [[[op_id, list(flags)] for op_id, flags in cycle]
                      for cycle in cycles]})
    return cycles


def _dump(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
