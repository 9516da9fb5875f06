"""What the benchmark takes from biharm.  Its traced passes wrap names inside
biharm from outside (``perfbench/spans.py``): a refactor that renames one of
them breaks every traced pass, so one check enters and leaves the tracer.
Its oracle jobs draw seeds from a list vetted to pass the 3-standard-error
check (``perfbench/jobs.py``): a change to the oracle's random stream can
fail one of them, so another check runs every case at every seed.  Each
source is read and run in a fresh module, so nothing is written under
``perfbench/``."""

import itertools
import sys
import types
from pathlib import Path

import numpy as np

from biharm.cli import run
from biharm.radial import RadialFunction

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    path = PERFBENCH / f"{name}.py"
    mod = types.ModuleType(f"perfbench_{name}")
    mod.__file__ = str(path)
    sys.modules[mod.__name__] = mod   # dataclasses look their module up while they are built
    try:
        exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    finally:
        del sys.modules[mod.__name__]
    return mod


def _bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_traced_pass_wraps_and_restores_every_binding():
    spans = _perfbench_module("spans")
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


def test_every_vetted_oracle_seed_passes_its_check(tmp_path):
    jobs = _perfbench_module("jobs")
    for (n, x, radius), seed in itertools.product(jobs.ORACLE_CASES, jobs.ORACLE_SEEDS):
        out = tmp_path / f"oracle-{n}-{x}-{radius}-{seed}"
        assert run(["oracle", "--n", str(n), "--x", repr(x), "--ball-radius", repr(radius),
                    "--seed", str(seed), "--out-dir", str(out)]) == 0
        jobs.check_oracle(out, n, x, radius)
