"""The benchmark's traced mode (``perfbench/run.py --trace 1``) patches the
program's functions under the names that its modules bind them to.  A
refactor that drops one of those names fails here, without running a
workload."""

from pathlib import Path

import pivotboot.cli
from pivotboot import intervals, multi_bootstrap, simulation
from pivotboot.estimators import Sample

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Everything that the traced mode patches: module globals, class attributes
# and the entries of the model registry.
OWNERS = (simulation, multi_bootstrap, intervals, pivotboot.cli, simulation.Model, Sample,
          simulation.MODELS)


def bindings() -> list[dict]:
    return [dict(owner if isinstance(owner, dict) else vars(owner)) for owner in OWNERS]


def test_instrument_patches_and_restore_undoes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    before = bindings()
    tracer = Tracer()
    try:
        layers.instrument(tracer, pivotboot.cli)  # a KeyError names a binding that is gone
        patched = bindings()
    finally:
        tracer.restore()
    changed = sum(old[name] is not new[name]
                  for old, new in zip(before, patched) for name in old)
    assert changed > 0
    after = bindings()
    assert all(old[name] is now[name] for old, now in zip(before, after) for name in old)
    assert all(old.keys() == now.keys() for old, now in zip(before, after))
