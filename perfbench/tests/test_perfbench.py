"""Tests of the benchmark itself: generator, output check and tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import collections
import copy
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import speed  # noqa: E402
import tracing  # noqa: E402
from harness import check, load_cli, run_op, summarize  # noqa: E402
from run import Run  # noqa: E402
from workloads import BUDGET_OP_KIND, WORKLOADS, write_inputs  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    write_inputs(workload, 7, tmp_path / "a")
    write_inputs(workload, 7, tmp_path / "b")
    write_inputs(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["ops.json"] != _files(tmp_path / "c")["ops.json"]


def test_every_cycle_runs_the_whole_pool_once(tmp_path):
    for workload in WORKLOADS:
        run = Run(workload, 3, tmp_path / workload)
        for cycle in run.cycles:
            assert sorted(op_id for op_id, _ in cycle) == sorted(run.ops)


@pytest.fixture(scope="module")
def cli():
    return load_cli()


def _run(cli, workload, tmp_path, op_ids, tracer=None):
    run = Run(workload, 0, tmp_path)
    run.cli = cli
    for op_id in op_ids:
        run.run(op_id, (), tracer)
    return run


def test_check_rejects_a_perturbed_event_time(cli, tmp_path):
    run = Run("event-sim", 0, tmp_path)
    op = run.ops["acc/00"]
    result = run_op(cli, op, (), run.config_path(op), tmp_path / "out")
    summary = summarize(op, tmp_path / "out", result.exit_code)
    ref = run.reference["acc/00"]
    assert check(op, summary, ref) == []

    perturbed = copy.deepcopy(summary)
    perturbed["event_times"][5] *= 1.0 + 1e-4
    assert "event times differ from the reference" in check(op, perturbed, ref)

    relay = run.ops["relay1d/00"]
    relay_ref = run.reference["relay1d/00"]
    moved = copy.deepcopy(relay_ref)
    moved["event_times"][-1] += 1e-6
    assert any("relay events" in p for p in check(relay, moved, moved))


def test_check_rejects_a_wrong_assumption_status(tmp_path):
    run = Run("certify", 0, tmp_path)
    op = run.ops["verify-zeno-polar/00"]
    ref = run.reference["verify-zeno-polar/00"]
    wrong = dict(copy.deepcopy(ref), assumptions_pass=True)
    assert check(op, wrong, ref)


# one op of each command, a sweep among them for the worker threads
TRACED_OPS = {
    "event-sim": ["acc/01", "relay1d/01", "zeno-polar/01"],
    "sampled-sim": ["self-derived/00", "periodic-explicit/01",
                    "sweep-derived/01"],
    "certify": ["verify-homog2d/00", "dwell-acc/01", "dwell-relay1d/02"],
}


def _traced(cli, tmp_path, workload):
    tracer = tracing.Tracer()
    tracing.install(tracer, cli)
    try:
        run = _run(cli, workload, tmp_path, TRACED_OPS[workload], tracer)
    finally:
        tracer.restore()
    assert all(r.ok for r in run.results), [r for r in run.results if not r.ok]
    return run, tracer


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_self_times_fit_in_the_op_wall_time(cli, tmp_path, workload):
    run, tracer = _traced(cli, tmp_path, workload)
    wall = {f"{n}:{r.op_id}": r.wall_s for n, r in enumerate(run.results, 1)}
    per_thread = collections.defaultdict(float)
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        assert self_s >= 0.0
        per_thread[(span[tracing.OP], span[tracing.THREAD])] += self_s
    assert per_thread
    for (op, _thread), total in per_thread.items():
        assert total <= wall[op]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_call_counts_repeat_exactly(cli, tmp_path, workload):
    def counts(sub):
        _run_, tracer = _traced(cli, tmp_path / sub, workload)
        metrics = tracing.layer_metrics(tracer)
        return {name: value for name, (value, unit) in metrics.items()
                if unit != "s"}

    first, second = counts("a"), counts("b")
    assert first == second
    assert first["models.rhs.calls"] > 0


def test_tracer_restores_every_patched_name(cli):
    from clfetc import core, engine
    originals = (cli.run_closed_loop, engine.locate_event,
                 core.EnergyTimeMap.bound_after, cli.build_model)
    tracer = tracing.Tracer()
    tracing.install(tracer, cli)
    tracer.restore()
    assert originals == (cli.run_closed_loop, engine.locate_event,
                         core.EnergyTimeMap.bound_after, cli.build_model)


def test_budgeted_op_fails_and_leaves_no_thread(cli, tmp_path):
    run = Run("sampled-sim", 0, tmp_path)
    op = run.ops[f"{BUDGET_OP_KIND}/00"]
    result = run_op(cli, op, (), run.config_path(op), tmp_path / "out",
                    budget_s=0.5)
    assert result.over_budget and not result.ok
    assert 0.5 <= result.wall_s < 2.0
    assert result.reference_s == result.wall_s  # the budget is wall time
    assert threading.active_count() == 1


def test_reference_time_scales_with_the_kernel(cli, tmp_path):
    nominal = speed.NOMINAL_S
    assert speed.to_reference(2.0, nominal, nominal) == 2.0
    assert speed.to_reference(2.0, 1.5 * nominal, 2.5 * nominal) == pytest.approx(1.0)
    run = Run("event-sim", 0, tmp_path)
    op = run.ops["relay1d/00"]
    result = run_op(cli, op, (), run.config_path(op), tmp_path / "out")
    assert result.ok and result.reference_s > 0.0
