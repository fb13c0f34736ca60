"""Byte identity as a committed check: the fast part of
``tools/artifact_set.py`` against ``tools/artifact_manifest.json``.

The manifest holds the SHA-256 of every file the command set writes and of
each command's lines in its log.  A change that alters an artifact on
purpose re-records it with ``python3 tools/artifact_set.py --manifest
OUT_DIR`` and names each changed file."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_set.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("_artifact_set", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    tool = _load_tool()
    manifest = tool.load_manifest()
    mismatch = tool.version_mismatch(manifest)
    if mismatch:
        pytest.skip(mismatch)
    out = tmp_path_factory.mktemp("artifacts")
    return tool, manifest, out, tool.run(out, tool.FAST)


def test_fast_subset_matches_the_manifest(fast_run):
    tool, manifest, out, blocks = fast_run
    assert [name.split("_", 1)[1] for name in blocks] == list(tool.FAST)
    assert tool.differences(manifest, tool.digest(out, blocks)) == []


def test_check_names_each_changed_file_and_log_entry(fast_run, tmp_path):
    tool, manifest, out, blocks = fast_run
    out = Path(shutil.copytree(out, tmp_path / "copy"))
    csv = out / "01_simulate_relay1d" / "relay1d_trajectory.csv"
    text = csv.read_text()
    assert "1.0000000000000007," in text  # the event at |x0| = 1, one ulp on
    csv.write_text(text.replace("1.0000000000000007,", "1.0000000000000009,"))
    (out / "02_verify_relay1d" / "extra.txt").write_text("")
    (out / "03_dwell_relay1d" / "relay1d_dwell.json").unlink()
    blocks = dict(blocks, **{"25_stats_relay1d":
                             blocks["25_stats_relay1d"] + ["stdout: "]})
    assert tool.differences(manifest, tool.digest(out, blocks)) == [
        "differs: 01_simulate_relay1d/relay1d_trajectory.csv",
        "new: 02_verify_relay1d/extra.txt",
        "missing: 03_dwell_relay1d/relay1d_dwell.json",
        "differs: log.txt, the lines of 25_stats_relay1d",
    ]


def test_check_stops_on_other_versions(tmp_path):
    tool = _load_tool()
    manifest = dict(tool.load_manifest(), numpy="0.0")
    assert "numpy 0.0" in tool.version_mismatch(manifest)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    tool.MANIFEST = path
    assert tool.main(["--check", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()  # nothing ran


def test_check_stops_on_another_blas_kernel(tmp_path):
    # np.vecdot and @ go through BLAS, whose kernel, picked from the CPU at
    # run time, may round them otherwise: V, the guard, the recorder's W
    # and verify_clf_pointwise read them
    tool = _load_tool()
    manifest = tool.load_manifest()
    assert set(manifest["blas"]) == {"name", "version", "openblas configuration"}
    manifest = dict(manifest, blas_kernel="AnotherCore")
    assert "kernel AnotherCore" in tool.version_mismatch(manifest)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    tool.MANIFEST = path
    assert tool.main(["--check", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()  # nothing ran
