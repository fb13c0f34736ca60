"""The benchmark's tracer patches names in the clfetc modules by attribute
(``perfbench/tracing.py``).  Installing and restoring it must work against
this tree and leave every module exactly as it found it, so that deleting or
renaming a traced name fails here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

from clfetc import certificates, cli, core, dwell, engine, svgplot, triggers

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = (certificates, cli, core, dwell, engine, svgplot, triggers)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    snap = {m.__name__: dict(vars(m)) for m in MODULES}
    snap["EnergyTimeMap"] = dict(vars(core.EnergyTimeMap))
    return snap


def test_install_then_restore_leaves_every_attribute_identical():
    tracing = _load_tracing()
    before = _attributes()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, cli)
        assert engine.locate_event is not before["clfetc.engine"]["locate_event"]
        assert cli.run_closed_loop is not before["clfetc.cli"]["run_closed_loop"]
    finally:
        tracer.restore()
    after = _attributes()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        changed = [name for name, value in attrs.items()
                   if after[owner][name] is not value]
        assert not changed, (owner, changed)
