"""The benchmark's traced passes wrap names inside biharm from outside
(``perfbench/spans.py``).  A refactor that renames one of them breaks every
traced pass; this check enters and leaves the tracer so the suite catches it.
The tracer's source is read and run in a fresh module, so nothing is written
under ``perfbench/``."""

import types
from pathlib import Path

import numpy as np

from biharm.radial import RadialFunction

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    mod = types.ModuleType("perfbench_spans")
    mod.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), mod.__dict__)
    return mod


def _bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_traced_pass_wraps_and_restores_every_binding():
    spans = _spans_module()
    bindings = spans._bindings()   # raises if a bound name is gone
    names = {name for _, _, name in bindings}
    assert {name for _, _, name in spans.EXTRA_BINDINGS} <= names
    before = [_bound(owner, attr) for owner, attr, _ in bindings]
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert all(_bound(owner, attr) is not orig
                   for (owner, attr, _), orig in zip(bindings, before))
        grid = np.geomspace(1.0, 100.0, 8)
        RadialFunction(grid, grid ** -2.0).as_piecewise()
    assert [_bound(owner, attr) for owner, attr, _ in bindings] == before
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["radial.as_piecewise.calls"] == 1
    assert metrics["radial.as_piecewise.pieces"] == 9
    assert not tracer.work_errors
