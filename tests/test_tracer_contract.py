"""The benchmark's tracer patches names in the clfetc modules by attribute
(``perfbench/tracing.py``).  Installing and restoring it must work against
this tree and leave every module exactly as it found it, so that deleting or
renaming a traced name fails here rather than in a traced benchmark run."""

import collections
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


def test_a_traced_run_reaches_the_patched_names(homog):
    # the engine looks these names up in its module at each call, so a run
    # under the tracer reaches the wrappers; a name bound early would escape
    # them, and the benchmark would read 0 for its layer
    tracing = _load_tracing()
    cfg = engine.IntegratorConfig(horizon=10.0)
    runs = {
        "event": (triggers.EventTriggered(sigma=0.9),
                  ("engine.locate_event", "engine.integrate_frozen")),
        # big_m is so small that every check on the coarse grid fails
        "periodic": (triggers.PeriodicEventTriggered(
            sigma=0.9, sigma_tilde=0.95, k_big=2.0, h=0.5, big_m=1e-9),
                     ("triggers.predicate_p", "engine.integrate_frozen")),
    }
    for name, (policy, traced) in runs.items():
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer, cli)
            engine.run_closed_loop(homog.system, homog.certificate, policy,
                                   homog.default_x0, cfg)
        finally:
            tracer.restore()
        spans = collections.Counter(span[tracing.NAME] for span in tracer.spans)
        for span_name in traced:
            assert spans[span_name] > 0, (name, span_name)
