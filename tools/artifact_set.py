"""Rerun the byte-identity command set, keep everything it writes, and
compare it with the committed manifest of its hashes.

    python3 tools/artifact_set.py OUT_DIR
    python3 tools/artifact_set.py --manifest OUT_DIR
    python3 tools/artifact_set.py --check OUT_DIR

Runs 46 ``clfetc`` commands, one at a time, against the package in this
checkout's ``src`` directory:

- ``simulate --plot``, ``verify`` and ``dwell`` on the relay1d, zeno_polar,
  homog2d, acc_case1 and acc_case2 presets;
- ``dwell --force`` on relay1d and ``sweep`` on zeno_sweep;
- homog2d ``simulate`` under explicit ``self`` (tau 0.05), ``time`` (period
  0.05, and instants 0.3/1/2.5) and ``periodic-event`` (h 0.01) at horizon
  5, and under derived ``self``, ``time`` and ``periodic-event`` at horizon
  0.02;
- ``stats``, printed and with ``--out``, on the relay1d, homog2d and
  acc_case1 trajectories;
- two ``simulate`` runs that must exit 1 with an ``error:`` line: relay1d
  under a derived ``time`` policy (its constants diverge) and homog2d with
  a 3-entry ``x0``;
- ``sweep`` on acc_policy_sweep;
- six homog2d ``simulate`` runs of config checks, last, so that the
  commands before them keep their directory numbers: an unknown ``policy``
  key and ``horizon: -1`` must exit 1 with an ``error:`` line,
  ``output_points: 11.0`` runs as ``11`` would, a ``sigma`` given only
  in the model's params and a top-level ``region_level`` must each exit 1
  with an ``error:`` line (σ is set only under ``policy``, and the audited
  region is always the sublevel box through ``x0``), and a derived
  ``time`` policy from ``x0`` at the equilibrium must freeze at t = 0 and
  exit 0 (no policy is resolved there, so none needs constants);
- after them, zeno_polar ``simulate`` from ``x0`` [0.5, 0] at horizon 2,
  whose first dwell is compared with the bound at |x0| (``r_star`` only
  places the default ``x0``), and ``stats`` on a CSV with no
  ``event_flag`` column, which must exit 1 with an ``error:`` line;
- then ``stats`` on a CSV that is not UTF-8 and ``simulate`` on a
  truncated JSON config, which must each exit 1 with an ``error:`` line
  that names the file;
- last, ``simulate`` with ``integrator.max_step`` at the horizon, so that
  a step holds many grid rows (every command before steps at most the grid
  spacing): homog2d and acc_case1 under their ``event`` policy, and homog2d
  under ``self`` (tau 0.05) at horizon 5.

Each command writes into its own directory ``OUT_DIR/NN_name``.  The
homog2d, error-path, config-check and long-step configs and the three bad
input files go to ``OUT_DIR/configs``.
``OUT_DIR/log.txt`` records each command with its exit code and printed
lines, with ``OUT_DIR`` and this checkout's root replaced by placeholders.
Run it at two commits and compare the two directories with ``diff -r``: the
output is empty when no artifact, exit code or printed line changed.

``--manifest`` then writes ``tools/artifact_manifest.json``: the SHA-256
of every file under ``OUT_DIR``, ``log.txt`` included, of each command's
lines in the log, and what the run's bits depend on: the Python and numpy
versions, numpy's BLAS build (name, version and OpenBLAS configuration) and
the BLAS kernel, which numpy's bundled OpenBLAS names through ``ctypes``
(``null`` where numpy bundles none that names it).
``--check`` compares the run with that manifest instead, names each file
that differs, is missing or is new, and exits 1 if any does.  Artifacts
hold shortest round-trip floats, which another numpy build may round
differently, so ``--check`` on other versions, another BLAS build or
another BLAS kernel than the manifest's exits 3 before it runs anything;
re-record the manifest there, or check where it was recorded.  The kernel
matters because ``np.vecdot`` and ``@`` on 3-vectors go through BLAS: the
quadratic V, the guard's and the recorder's W, ``verify_clf_pointwise``
and the stepper's blow-up norm, though not its stage sums, which are
Python floats.  With numpy's OpenBLAS 0.3.31 (a ``DYNAMIC_ARCH`` build,
which picks its kernel from the CPU at run time) on an Intel Xeon, 42 of
the 90 files differ between its own ``SkylakeX`` kernel and
``OPENBLAS_CORETYPE=Haswell``.  No other CPU was tried.  A change that
alters outputs on purpose re-records the manifest and names every changed
file.  Uses the standard library, and numpy only to read its BLAS.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "artifact_manifest.json"
PRESETS = ROOT / "src" / "clfetc" / "presets"
MODELS = ("relay1d", "zeno_polar", "homog2d", "acc_case1", "acc_case2")
STATS_OF = ("relay1d", "homog2d", "acc_case1")

# homog2d under the clock policies: (name, policy spec, horizon)
HOMOG2D_RUNS = (
    ("self", {"policy": "self", "tau": 0.05}, 5.0),
    ("time", {"policy": "time", "period": 0.05}, 5.0),
    ("instants", {"policy": "time", "instants": [0.3, 1.0, 2.5]}, 5.0),
    ("periodic", {"policy": "periodic-event", "h": 0.01}, 5.0),
    ("self_derived", {"policy": "self"}, 0.02),
    ("time_derived", {"policy": "time"}, 0.02),
    ("periodic_derived", {"policy": "periodic-event"}, 0.02),
)

# runs that must stop with a toolkit error: (name, preset, config overrides)
ERROR_RUNS = (
    ("relay1d_time_derived", "relay1d", {"policy": {"policy": "time", "sigma": 0.9}}),
    ("homog2d_bad_x0", "homog2d", {"x0": [0.1, 0.4, 0.0]}),
)

# config checks, in the same form
CHECK_RUNS = (
    ("homog2d_unknown_policy_key", "homog2d",
     {"policy": {"policy": "event", "sigma": 0.9, "window": 0.1}}),
    ("homog2d_negative_horizon", "homog2d", {"horizon": -1}),
    ("homog2d_integral_output_points", "homog2d",
     {"integrator": {"output_points": 11.0}}),
    ("homog2d_model_sigma", "homog2d",
     {"model": {"name": "homog2d", "params": {"rate_scale": 1.0, "sigma": 0.6}},
      "policy": {"policy": "event"}}),
    ("homog2d_region_level", "homog2d", {"region_level": 0.01}),
    ("homog2d_origin_time_derived", "homog2d",
     {"x0": [0.0, 0.0], "policy": {"policy": "time", "sigma": 0.9}}),
)

# zeno_polar from a state away from its default: the bound is taken at |x0|
ZENO_RUNS = (
    ("zeno_polar_x0_half", "zeno_polar", {"x0": [0.5, 0.0], "horizon": 2.0}),
)

# runs whose steps each hold many grid rows, in the same form: every other
# command steps at most the grid spacing, horizon/1000, so that its steps
# hold one or two rows each
LONG_STEP_RUNS = (
    ("homog2d_long_steps", "homog2d", {"integrator": {"max_step": 200.0}}),
    ("acc_case1_long_steps", "acc_case1", {"integrator": {"max_step": 60.0}}),
    ("homog2d_self_long_steps", "homog2d",
     {"policy": {"policy": "self", "sigma": 0.9, "tau": 0.05}, "horizon": 5.0,
      "integrator": {"max_step": 5.0}}),
)

# a part of the set that runs in a few seconds, in the set's order: the three
# fast presets, two clock-policy runs that scan past t = 0 (explicit self
# and time instants), the periodic-event runs (explicit and derived h, and
# the acc_policy_sweep row, which takes the periodic rule over long steps),
# the stats commands on the presets' trajectories, every command that must
# exit 1, the homog2d and acc_case1 event runs over long steps (acc's steps
# hold up to 161 grid rows of a 3-state system), and the homog2d
# self-triggered run over long steps, whose clock windows hold many grid rows
FAST = tuple(
    [f"{command}_{model}" for model in MODELS[:3]
     for command in ("simulate", "verify", "dwell")]
    + ["simulate_homog2d_self", "simulate_homog2d_instants",
       "simulate_homog2d_periodic", "simulate_homog2d_periodic_derived"]
    + [f"stats{out}_{model}" for model in STATS_OF[:2] for out in ("", "_out")]
    + [f"simulate_{name}" for name, _, _ in ERROR_RUNS]
    + ["sweep_acc_policy_sweep"]
    + ["simulate_homog2d_unknown_policy_key", "simulate_homog2d_negative_horizon",
       "simulate_homog2d_model_sigma", "simulate_homog2d_region_level",
       "stats_no_event_flag", "stats_not_utf8", "simulate_truncated_config",
       "simulate_homog2d_long_steps", "simulate_acc_case1_long_steps",
       "simulate_homog2d_self_long_steps"])


def _write_config(config_dir: Path, name: str, data: dict) -> Path:
    config_dir.mkdir(parents=True, exist_ok=True)
    path = config_dir / f"{name}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def homog2d_configs(config_dir: Path) -> list:
    """Write the homog2d clock-policy configs; returns ``(name, path)``."""
    base = json.loads((PRESETS / "homog2d.json").read_text())
    sigma = base["policy"]["sigma"]
    out = []
    for name, spec, horizon in HOMOG2D_RUNS:
        data = dict(base, policy=dict(spec, sigma=sigma), horizon=horizon,
                    label=f"homog2d_{name}")
        out.append((f"homog2d_{name}",
                    _write_config(config_dir, f"homog2d_{name}", data)))
    return out


def preset_configs(config_dir: Path, runs) -> list:
    """Write presets with overrides, one per entry of ``runs``; returns
    ``(name, path)``."""
    out = []
    for name, preset, overrides in runs:
        base = json.loads((PRESETS / f"{preset}.json").read_text())
        data = dict(base, label=name, **overrides)
        out.append((name, _write_config(config_dir, name, data)))
    return out


def commands(out_dir: Path) -> list:
    """The command set as ``(name, argv after 'clfetc', output dir)``."""
    cmds = []

    def add(name, args):
        target = out_dir / f"{len(cmds) + 1:02d}_{name}"
        cmds.append((name, args(str(target)), target))

    for model in MODELS:
        add(f"simulate_{model}",
            lambda d, m=model: ["simulate", "--config", m, "--out", d, "--plot"])
        add(f"verify_{model}",
            lambda d, m=model: ["verify", "--config", m, "--out", d])
        add(f"dwell_{model}",
            lambda d, m=model: ["dwell", "--config", m, "--out", d])
    add("dwell_force_relay1d",
        lambda d: ["dwell", "--config", "relay1d", "--out", d, "--force"])
    add("sweep_zeno_sweep",
        lambda d: ["sweep", "--config", "zeno_sweep", "--out", d])
    for name, path in homog2d_configs(out_dir / "configs"):
        add(f"simulate_{name}",
            lambda d, p=path: ["simulate", "--config", str(p), "--out", d])
    for model in STATS_OF:
        index = 3 * MODELS.index(model) + 1
        csv = out_dir / f"{index:02d}_simulate_{model}" / f"{model}_trajectory.csv"
        add(f"stats_{model}", lambda d, c=csv: ["stats", str(c)])
        add(f"stats_out_{model}",
            lambda d, c=csv: ["stats", str(c), "--out", str(Path(d) / "stats.json")])
    for name, path in preset_configs(out_dir / "configs", ERROR_RUNS):
        add(f"simulate_{name}",
            lambda d, p=path: ["simulate", "--config", str(p), "--out", d])
    add("sweep_acc_policy_sweep",
        lambda d: ["sweep", "--config", "acc_policy_sweep", "--out", d])
    for name, path in preset_configs(out_dir / "configs", CHECK_RUNS + ZENO_RUNS):
        add(f"simulate_{name}",
            lambda d, p=path: ["simulate", "--config", str(p), "--out", d])
    no_flag = out_dir / "configs" / "no_event_flag.csv"
    no_flag.write_text("t,x1,u1\n0.0,1.0,0.0\n1.0,0.5,0.0\n")
    add("stats_no_event_flag", lambda d: ["stats", str(no_flag)])
    not_utf8 = out_dir / "configs" / "not_utf8.csv"
    not_utf8.write_bytes(b"t,x1,event_flag\n\xff\xfe,1.0,1\n")
    add("stats_not_utf8", lambda d: ["stats", str(not_utf8)])
    truncated = out_dir / "configs" / "truncated.json"
    truncated.write_text('{"model": ')
    add("simulate_truncated_config",
        lambda d: ["simulate", "--config", str(truncated), "--out", d])
    for name, path in preset_configs(out_dir / "configs", LONG_STEP_RUNS):
        add(f"simulate_{name}",
            lambda d, p=path: ["simulate", "--config", str(p), "--out", d])
    return cmds


def blas_kernel():
    """The kernel that numpy's bundled OpenBLAS runs on this CPU, or None
    where numpy bundles no OpenBLAS that names it."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy has loaded already
        corename = getattr(lib, "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def versions() -> dict:
    """What the commands' bits depend on: the Python and numpy versions,
    numpy's BLAS build and the BLAS kernel it runs here."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "blas": {key: blas.get(key)
                     for key in ("name", "version", "openblas configuration")},
            "blas_kernel": blas_kernel()}


def _described(v: dict) -> str:
    blas = v.get("blas") or {}
    return (f"Python {v.get('python')} and numpy {v.get('numpy')}, BLAS "
            f"{blas.get('name')} {blas.get('version')} on kernel "
            f"{v.get('blas_kernel')}")


def version_mismatch(manifest: dict):
    """A line naming both builds when this interpreter and its BLAS differ
    from those the manifest was made with, else None."""
    here = versions()
    made = {key: manifest.get(key) for key in here}
    if made == here:
        return None
    return f"manifest made with {_described(made)}; this is {_described(here)}"


def run(out_dir: Path, names=None) -> dict:
    """Run the command set, or only the commands in ``names``, into
    ``out_dir`` and write ``log.txt``; returns each command's log lines by
    its directory name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def scrub(text):
        return text.replace(str(out_dir), "<OUT>").replace(str(ROOT), "<ROOT>")

    blocks = {}
    cmds = commands(out_dir)
    for i, (name, args, target) in enumerate(cmds, start=1):
        if names is not None and name not in names:
            continue
        target.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "clfetc.cli", *args],
                              env=env, capture_output=True, text=True)
        blocks[target.name] = (
            [f"== {i:02d} {name}: clfetc {scrub(' '.join(args))}",
             f"exit {proc.returncode}"]
            + [f"stdout: {scrub(line)}" for line in proc.stdout.splitlines()]
            + [f"stderr: {scrub(line)}" for line in proc.stderr.splitlines()])
        print(f"{i:02d}/{len(cmds)} {name}: exit {proc.returncode}", flush=True)
    log = [line for lines in blocks.values() for line in lines]
    (out_dir / "log.txt").write_text("\n".join(log) + "\n")
    return blocks


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(out_dir: Path, blocks: dict) -> dict:
    """The hashes of a run: every file under ``out_dir`` by its relative
    path, and each command's log lines by its directory name."""
    return {
        "files": {path.relative_to(out_dir).as_posix(): _sha256(path.read_bytes())
                  for path in sorted(out_dir.rglob("*")) if path.is_file()},
        "log": {name: _sha256(("\n".join(lines) + "\n").encode())
                for name, lines in blocks.items()},
    }


def differences(manifest: dict, got: dict) -> list:
    """What differs between a run's :func:`digest` and the manifest, one
    line per file or log entry.  A run of part of the set is compared on
    its commands' directories, their log lines and the shared configs; a
    run of the whole set, on every file, ``log.txt`` included."""
    ran = set(got["log"])
    whole = ran == set(manifest["log"])

    def covered(path):
        top = path.split("/", 1)[0]
        return whole or top in ran or top == "configs"

    out = []
    for path in sorted(set(manifest["files"]) | set(got["files"])):
        if not covered(path):
            continue
        want, have = manifest["files"].get(path), got["files"].get(path)
        if want is None:
            out.append(f"new: {path}")
        elif have is None:
            out.append(f"missing: {path}")
        elif want != have:
            out.append(f"differs: {path}")
    for name in sorted(ran):
        if got["log"][name] != manifest["log"].get(name):
            out.append(f"differs: log.txt, the lines of {name}")
    return out


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    mode = argv[0] if argv and argv[0] in ("--manifest", "--check") else None
    if len(argv) != (2 if mode else 1):
        print("usage: python3 tools/artifact_set.py [--manifest | --check] OUT_DIR",
              file=sys.stderr)
        return 2
    out_dir = Path(argv[-1]).resolve()
    if mode == "--check":
        manifest = load_manifest()
        mismatch = version_mismatch(manifest)
        if mismatch:
            print(f"error: {mismatch}", file=sys.stderr)
            return 3
    got = digest(out_dir, run(out_dir))
    if mode == "--manifest":
        MANIFEST.write_text(json.dumps(dict(versions(), **got), indent=1,
                                       sort_keys=True) + "\n")
        print(f"wrote {len(got['files'])} file hashes to {MANIFEST}")
    elif mode == "--check":
        diff = differences(manifest, got)
        for line in diff:
            print(line)
        print(f"{len(diff)} differences from the manifest" if diff
              else f"all {len(got['files'])} files match the manifest")
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
