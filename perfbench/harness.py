"""Run one CLI op in process under a wall budget, and check its output.

An op is ``clfetc.cli.main([...])`` with artifacts written to a fresh
directory.  The budget is enforced with ``SIGALRM``: the handler raises
:class:`OpBudgetExceeded`, which derives from ``BaseException`` so that no
``except Exception`` inside the program can swallow it.  ``cmd_sweep``'s
thread pool waits for its rows before the exception leaves ``main``, so an
overrun never leaves a thread running.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import speed
from workloads import BUDGET_OP_KIND, ROOT

OP_BUDGET_S = 3.0

# tolerances of the output check against the recorded reference
TIME_RTOL = 1e-6       # event times and sweep timing columns
ESTIMATE_RTOL = 1e-6   # kappa, nu, big_m, rho, mu, tau_min, tau0_min, h
RELAY_ATOL = 1e-9      # relay1d events at {0, |x0|}
N_COMPARED_EVENTS = 20  # leading event times compared, plus the last one

TERMINATIONS = ("horizon", "equilibrium", "zeno_abort", "blowup", "event_cap")


class OpBudgetExceeded(BaseException):
    """Raised in the main thread when an op outlives its wall budget."""


def load_cli():
    """Import ``clfetc.cli`` from the checkout's ``src`` directory."""
    src = ROOT / "src"
    if not (src / "clfetc" / "cli.py").is_file():
        raise FileNotFoundError(f"no clfetc sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import clfetc.cli
    return clfetc.cli


@dataclass
class OpResult:
    op_id: str
    wall_s: float
    exit_code: object  # int, or None when the op raised or ran over budget
    # wall time scaled to the reference machine speed (see speed.py); an op
    # that ran out of its budget keeps its wall time, the budget
    reference_s: float = 0.0
    error: str = ""
    over_budget: bool = False
    problems: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.error and not self.over_budget and not self.problems


def _on_alarm(_signum, _frame):
    raise OpBudgetExceeded()


def run_op(cli, op, flags, config_path, out_dir, budget_s=OP_BUDGET_S) -> OpResult:
    """Run one op through ``cli.main`` and time it; no output check."""
    argv = [op.command, "--config", str(config_path), "--out", str(out_dir),
            *flags]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    sink = io.StringIO()
    code, error, over = None, "", False
    kernel_before = speed.kernel_s()
    start = time.perf_counter()
    try:
        # the inner finally stops the timer; an alarm that fires before it
        # does is still caught below
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except OpBudgetExceeded:
        over = True
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception as exc:  # the op failed; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join()
    reference = (wall if over else
                 speed.to_reference(wall, kernel_before, speed.kernel_s()))
    return OpResult(op_id=op.op_id, wall_s=wall, exit_code=code, error=error,
                    over_budget=over, reference_s=reference)


# ---------------------------------------------------------------------------
# output summaries: what the check compares, and what the reference stores


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _num(v):
    """Numbers as floats; the program writes non-finite ones, and missing
    sweep cells, as text."""
    if v is None or v in ("", "None"):
        return None
    return float(v)


def summarize(op, out_dir, exit_code) -> dict:
    """The outputs of one finished op that the check looks at."""
    out = Path(out_dir)
    summary = {"exit_code": exit_code}
    if op.command == "simulate":
        data = _read_json(out / f"{op.label}_stats.json")
        times = [e["time"] for e in data["events"]]
        dwells = [e["dwell"] for e in data["events"]]
        summary.update({
            "termination": data["termination"],
            "n_events": data["stats"]["n_events"],
            "event_times": times[:N_COMPARED_EVENTS] + times[-1:],
            "first_dwell": dwells[1] if len(dwells) > 1 else None,
            "rate_certificate_ok": data["rate_certificate_ok"],
            "policy": data["policy"]["policy"],
        })
    elif op.command == "verify":
        data = _read_json(out / f"{op.label}_verify.json")
        est = data.get("estimates", {})
        summary.update({
            "assumptions_pass": data["assumptions_pass"],
            "expected_status": data["expected_status"],
            "estimates": {k: _num(est[k]["value"] if isinstance(est[k], dict)
                                  else est[k])
                          for k in ("kappa", "nu", "big_m", "rho", "mu")
                          if k in est},
        })
    elif op.command == "dwell":
        data = _read_json(out / f"{op.label}_dwell.json")
        summary["assumption_failure"] = "assumption_failure" in data
        if not summary["assumption_failure"]:
            summary["estimates"] = {
                "tau_min": _num(data["tau_min"]["value"]),
                "tau0_min": _num(data["tau0_min"]["value"]),
                "h": _num(data["recommended_periodic_check_period"]),
            }
    elif op.command == "sweep":
        with open(out / f"{op.label}_sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        summary["rows"] = [{
            "policy": row["policy"],
            "termination": row["termination"],
            "n_events": int(row["n_events"]) if row["n_events"] else None,
            "first_event_time": _num(row["first_event_time"]),
            "min_dwell": _num(row["min_dwell"]),
            "rate_certificate_ok": row["rate_certificate_ok"],
            "error": row["error"],
        } for row in rows]
    return summary


# ---------------------------------------------------------------------------
# the output check


def _close(a, b, rtol, atol=0.0) -> bool:
    if a is None or b is None or a == b:
        return a == b
    return abs(a - b) <= rtol * abs(b) + atol


def check(op, summary, ref) -> list:
    """Problems found in one op's output; an empty list means correct.

    ``ref`` is the recorded summary of the same variant, or None for the
    budgeted op, which has never finished and so has no reference.
    """
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    if ref is None:
        if op.kind != BUDGET_OP_KIND:
            return ["no reference recorded for this variant"]
        expect(summary["exit_code"] in (0, 2),
               f"exit code {summary['exit_code']}")
        expect(summary.get("termination") in TERMINATIONS,
               f"termination {summary.get('termination')!r}")
        return problems

    expect(summary["exit_code"] == ref["exit_code"],
           f"exit code {summary['exit_code']} != {ref['exit_code']}")
    if problems:
        return problems

    if op.command == "simulate":
        expect(summary["termination"] == ref["termination"],
               f"termination {summary['termination']} != {ref['termination']}")
        expect(summary["n_events"] == ref["n_events"],
               f"n_events {summary['n_events']} != {ref['n_events']}")
        times, ref_times = summary["event_times"], ref["event_times"]
        expect(len(times) == len(ref_times) and all(
            _close(t, r, TIME_RTOL, 1e-15) for t, r in zip(times, ref_times)),
            "event times differ from the reference")
        if summary["policy"] == "event":
            expect(summary["rate_certificate_ok"] is True,
                   "rate certificate violated")
        if "relay_x0" in op.facts:
            full = summary["event_times"]
            expect(summary["n_events"] == 2 and abs(full[0]) <= RELAY_ATOL
                   and abs(full[-1] - abs(op.facts["relay_x0"])) <= RELAY_ATOL,
                   f"relay events {full} are not at {{0, |x0|}}")
        if "r_star" in op.facts:
            bound = zeno_first_event_bound(op.facts["r_star"])
            dwell = summary["first_dwell"]
            expect(dwell is not None and dwell <= bound,
                   f"zeno first dwell {dwell} above the bound {bound}")
    elif op.command == "verify":
        passes = summary["expected_status"] == "satisfies_all"
        expect(summary["assumptions_pass"] is passes,
               f"assumptions_pass={summary['assumptions_pass']} but model "
               f"status is {summary['expected_status']}")
        expect(summary["exit_code"] == (0 if passes else 1),
               f"exit code {summary['exit_code']} for "
               f"assumptions_pass={summary['assumptions_pass']}")
        problems += _compare_estimates(summary["estimates"], ref["estimates"])
    elif op.command == "dwell":
        expect(summary["assumption_failure"] == ref["assumption_failure"],
               "assumption audit outcome differs from the reference")
        if not ref["assumption_failure"]:
            problems += _compare_estimates(summary.get("estimates", {}),
                                           ref["estimates"])
    elif op.command == "sweep":
        rows, ref_rows = summary["rows"], ref["rows"]
        expect(len(rows) == len(ref_rows), "sweep row count differs")
        for row, ref_row in zip(rows, ref_rows):
            tag = f"sweep row {row['policy']}"
            expect(row["error"] == "", f"{tag}: {row['error']}")
            for key in ("policy", "termination", "n_events",
                        "rate_certificate_ok"):
                expect(row[key] == ref_row[key],
                       f"{tag}: {key} {row[key]} != {ref_row[key]}")
            for key in ("first_event_time", "min_dwell"):
                expect(_close(row[key], ref_row[key], TIME_RTOL, 1e-15),
                       f"{tag}: {key} {row[key]} != {ref_row[key]}")
    return problems


def _compare_estimates(got: dict, ref: dict) -> list:
    problems = []
    for key, value in ref.items():
        if not _close(got.get(key), value, ESTIMATE_RTOL):
            problems.append(f"estimate {key} {got.get(key)} != {value}")
    return problems


def zeno_first_event_bound(r_star: float) -> float:
    """The analytic first-event bound of the zeno-polar model, computed here
    independently of the program."""
    s = math.sqrt(1.0 + r_star ** 2)
    return r_star * s * math.atan(r_star) / (r_star * s + 1.0 - r_star ** 2)


def run_and_check(cli, op, flags, config_path, out_dir, ref) -> OpResult:
    """Run an op, then check it (outside the timed region)."""
    result = run_op(cli, op, flags, config_path, out_dir)
    if result.ok:
        try:
            summary = summarize(op, out_dir, result.exit_code)
        except (OSError, KeyError, ValueError) as exc:
            result.problems = (f"unreadable output: {type(exc).__name__}: {exc}",)
        else:
            result.problems = tuple(check(op, summary, ref))
    return result
