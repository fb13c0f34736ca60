"""The clfetc benchmark: seeded CLI workloads, timed end to end or traced.

    python3 perfbench/run.py --workload event-sim --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``event-sim``, ``sampled-sim``, ``certify``.
One client runs a closed loop: each CLI command starts when the previous one
has returned, in process, through ``clfetc.cli.main``.  Every op's output is
checked against the reference recorded for its variant.

``--trace 0`` runs whole cycles of the workload's op mix (whole pairs of them
on ``event-sim``) until the ops have taken ``--seconds`` reference seconds,
with tracing off, and reports the end-to-end metrics.  Op times are in
reference seconds: each op is timed between two runs of a fixed kernel and
scaled to the machine speed at which that kernel takes ``speed.NOMINAL_S``
(see ``speed.py``), because the shared host's speed drifts more than any
bound.  The wall-time figures are printed too, above the JSON line.
``setup_s`` stays in wall seconds: the kernel does not track the cost of a
fresh interpreter's imports, so scaling only adds noise to it.

``--trace 1`` runs the first cycle twice, untraced and traced, and reports
the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import load_cli, run_and_check, run_op  # noqa: E402
from workloads import (BUDGET_OP_KIND, PLOTTED_KINDS, ROOT,  # noqa: E402
                       WORKLOADS, pool, write_inputs)
import tracing  # noqa: E402

SETUP_REPS = 5      # fresh interpreters per run for setup_s; median reported
SETUP_EVERY = 10    # ops between two of them, so they meet different phases
IMPORT_REPS = 3     # `python -X importtime` runs per traced run
SUBPROCESS_TIMEOUT_S = 60
WALL_CAP = 1.5      # or once its ops took this many times --seconds of wall time

# a fresh interpreter's set-up: import the CLI and load every generated config
SETUP_CODE = """
import pathlib, sys
sys.path.insert(0, sys.argv[1])
import clfetc.cli
for path in sorted(pathlib.Path(sys.argv[2]).glob("*.json")):
    if path.name != "ops.json":
        clfetc.cli.load_config(str(path))
"""
IMPORTS = {"import.clfetc_cli.s": "clfetc.cli",
           "import.scipy_stats.s": "scipy.stats",
           "import.scipy_integrate.s": "scipy.integrate"}


class Run:
    """One workload run: its inputs, references and op results."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.ops = pool(workload)
        self.inputs = work_dir / "inputs"
        self.outputs = work_dir / "outputs"
        self.cycles = write_inputs(workload, seed, self.inputs)
        with open(HERE / "reference" / f"{workload}.json", encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.results = []
        self.cli = None
        self._n = 0

    def config_path(self, op):
        return self.inputs / f"{op.label}.json"

    def run(self, op_id, flags, tracer=None):
        """Run one op, check its output and keep the result."""
        op = self.ops[op_id]
        self._n += 1
        out_dir = self.outputs / str(self._n)
        if tracer is not None:
            tracer.op = f"{self._n}:{op_id}"
        result = run_and_check(self.cli, op, flags, self.config_path(op),
                               out_dir, self.reference.get(op_id))
        shutil.rmtree(out_dir, ignore_errors=True)
        self.results.append(result)
        return result

    def warm_up(self):
        """One untimed op of each kind, so lazy imports and first-call costs
        land before timing.  The budgeted op is left out: it never ends."""
        for kind in WORKLOADS[self.workload]:
            if kind != BUDGET_OP_KIND:
                op = next(o for o in self.ops.values() if o.kind == kind)
                out_dir = self.outputs / "warm-up"
                run_op(self.cli, op, (), self.config_path(op), out_dir)
                shutil.rmtree(out_dir, ignore_errors=True)


def _fresh_python(args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)


def time_setup(inputs: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI and loads the
    workload's configs."""
    start = time.perf_counter()
    _fresh_python(["-c", SETUP_CODE, str(ROOT / "src"), str(inputs)])
    return time.perf_counter() - start


def measure_imports() -> dict:
    """Cumulative import times from ``python -X importtime`` (median)."""
    samples = {name: [] for name in IMPORTS}
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import clfetc.cli"
    for _ in range(IMPORT_REPS):
        err = _fresh_python(["-X", "importtime", "-c", code]).stderr
        seen = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                try:
                    seen.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
                except ValueError:
                    continue  # the header line
        for name, module in IMPORTS.items():
            samples[name].append(seen.get(module, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def percentile(results, q: float, key=lambda r: r.reference_s) -> float:
    """Nearest-rank percentile of op times; a failed op ranks above every
    op that succeeded, so it misses any limit."""
    ranked = sorted(results, key=lambda r: (not r.ok, key(r)))
    return key(ranked[max(0, math.ceil(len(ranked) * q) - 1)])


def timed_run(run: Run, seconds: float) -> dict:
    run.cli = load_cli()
    run.warm_up()
    # on event-sim a pair of cycles plots each plotted variant once, so only
    # whole pairs do the same work whatever the seed
    unit = 2 if any(k in PLOTTED_KINDS for k in WORKLOADS[run.workload]) else 1
    # the host's slow phases last seconds, so the set-ups are spread over
    # the run rather than timed back to back
    setups = []
    for n, cycle in enumerate(run.cycles, start=1):
        for op_id, flags in cycle:
            if len(run.results) % SETUP_EVERY == 0 and len(setups) < SETUP_REPS:
                setups.append(time_setup(run.inputs))
            run.run(op_id, flags)
        # stopping on reference time makes a run do the same work whatever
        # the host's speed; the wall-time cap bounds a run on a slow host
        if n % unit == 0 and (
                sum(r.reference_s for r in run.results) >= seconds
                or sum(r.wall_s for r in run.results) >= WALL_CAP * seconds):
            break
    while len(setups) < SETUP_REPS:
        setups.append(time_setup(run.inputs))
    results = run.results
    good = sum(r.ok for r in results)
    op_wall = sum(r.wall_s for r in results)
    return {
        "setup_s": (statistics.median(setups), "s"),
        # time spent on failed ops stays in the denominator
        "ops_per_s": (good / sum(r.reference_s for r in results), "ops/s"),
        "op_s.p50": (percentile(results, 0.5), "s"),
        "op_s.p90": (percentile(results, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        # not an end-to-end metric of BENCHMARK.json: it is 0 on two
        # workloads, and the JSON line carries it as failed / attempted
        "error_rate": ((len(results) - good) / len(results), "ratio"),
        "ops": (len(results), "count"),
        # the same figures in wall seconds, which the host's drift moves
        "wall.ops_per_s": (good / op_wall, "ops/s"),
        "wall.op_s.p50": (percentile(results, 0.5, lambda r: r.wall_s), "s"),
        "wall.op_s.p90": (percentile(results, 0.9, lambda r: r.wall_s), "s"),
        "wall.slowdown": (op_wall / sum(r.reference_s for r in results),
                          "ratio"),
        "wall.ops_s": (op_wall, "s"),
    }


def traced_run(run: Run) -> dict:
    metrics = {name: (value, "s") for name, value in measure_imports().items()}
    run.cli = load_cli()
    run.warm_up()
    op_list = run.cycles[0]

    start = time.perf_counter()
    for op_id, flags in op_list:
        run.run(op_id, flags)
    untraced = time.perf_counter() - start

    tracer = tracing.Tracer()
    tracing.install(tracer, run.cli)
    try:
        start = time.perf_counter()
        for op_id, flags in op_list:
            run.run(op_id, flags, tracer)
        traced = time.perf_counter() - start
    finally:
        tracer.restore()
    metrics.update(tracing.layer_metrics(tracer))
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clfetc" / "cli.py").is_file():
        print(f"error: no clfetc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the sweep ops run the CLI's thread pool with one worker: with two, an
    # op's time depends on how the shared host schedules two threads, which
    # the reference kernel does not track (a sweep's spread in reference
    # seconds is 30 % with two workers, 15 % with one)
    os.environ["CLF_ETC_THREADS"] = "1"

    work_dir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, work_dir)
        metrics = traced_run(run) if args.trace else timed_run(run, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    results = run.results
    failed = [r for r in results if not r.ok]
    for r in failed:
        reason = ("over budget" if r.over_budget
                  else r.error or "; ".join(r.problems))
        print(f"failed op {r.op_id}: {reason} ({r.wall_s:.3f} s)")
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.op_id.split("/")[0], []).append(r.reference_s)
    for kind, times in sorted(by_kind.items()):
        print(f"{args.workload:12s} kind {kind:40s} {len(times):5d} ops, "
              f"median {statistics.median(times):.4f} s (reference)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:45s} {value:14.6g} {unit}")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        reported = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        # a wrong answer or a crash makes the run incorrect; an op that only
        # ran out of its wall budget is counted in `failed`
        "correct": not any(r.error or r.problems for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in (m["name"] for m in reported)},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
