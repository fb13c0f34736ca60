"""Record the reference outputs of every pool variant.

Run once, at the commit whose outputs the benchmark holds later commits to:

    python3 perfbench/record_reference.py [workload ...]

It writes ``perfbench/reference/<workload>.json``, mapping each op id to the
summary that :func:`harness.check` compares against, and prints each op's
wall time.  The budgeted op has no reference: it does not finish.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import load_cli, run_op, summarize  # noqa: E402
from workloads import BUDGET_OP_KIND, ROOT, WORKLOADS, pool  # noqa: E402


def record(cli, workload: str, scratch: Path) -> dict:
    reference = {}
    for op_id, op in pool(workload).items():
        if op.kind == BUDGET_OP_KIND:
            continue
        work = Path(tempfile.mkdtemp(dir=scratch))
        config_path = work / f"{op.label}.json"
        config_path.write_text(json.dumps(op.config), encoding="utf-8")
        result = run_op(cli, op, (), config_path, work / "out")
        if not (result.exit_code is not None and not result.error):
            raise RuntimeError(f"{op_id} did not finish: {result}")
        reference[op_id] = summarize(op, work / "out", result.exit_code)
        print(f"{workload:12s} {op_id:24s} {result.wall_s:7.3f} s "
              f"exit={result.exit_code}", flush=True)
        shutil.rmtree(work)
    return reference


def main(argv) -> int:
    workloads = argv or list(WORKLOADS)
    cli = load_cli()
    (HERE / "reference").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench_ref_", dir=ROOT))
    try:
        for workload in workloads:
            reference = record(cli, workload, scratch)
            with open(HERE / "reference" / f"{workload}.json", "w",
                      encoding="utf-8", newline="\n") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
