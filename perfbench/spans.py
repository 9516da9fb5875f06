"""Span recorder for traced benchmark passes.

The package carries no instrumentation, so a traced pass wraps functions
from outside: every public function of every ``biharm`` module, replaced at
each name that binds it (the modules use ``from .x import f``, so
``kernels.integrate`` and ``quad.integrate`` are separate bindings), plus a
few methods and the scipy solve that ``spectral`` binds.  Each wrapper
records a span (name, start, end, parent, work) in memory; layer metrics are
derived from the spans after the pass, and self time is a span's duration
minus that of its child spans.  Wrappers are removed when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = ("cli", "kernels", "liouville", "profiles", "quad", "radial", "solver", "spectral")

# (module, attribute path, span name): bindings the public-function scan
# does not find
EXTRA_BINDINGS = (
    ("radial", "PiecewisePower.eval", "radial.eval"),
    ("radial", "RadialFunction.as_piecewise", "radial.as_piecewise"),
    ("quad", "PowerIntegrand.eval", "quad.eval"),
    ("spectral", "cho_solve_banded", "spectral.cho_solve_banded"),
)


def _points(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _pieces(args, kwargs, result):
    return {"pieces": result.npieces}


def _integrate(args, kwargs, result):
    rel = (result.abs_error_estimate / abs(result.value)
           if not result.diverged and result.value != 0.0 else 0.0)
    return {"diverged": int(result.diverged), "rel_err": rel}


def _potential(args, kwargs, result):
    from biharm.radial import RadialFunction
    return {"mode": args[0].mode, "points": int(result.grid.size),
            "grid_source": isinstance(args[1], RadialFunction)}


def _samples(args, kwargs, result):
    return {"samples": int(args[3] if len(args) > 3 else kwargs["samples"])}


def _steps(args, kwargs, result):
    return {"steps": result.iterations}


# per-span work counters, taken from arguments and results
WORK = {
    "radial.eval": _points,
    "quad.eval": _points,
    "radial.pp_product": _pieces,
    "radial.as_piecewise": _pieces,
    "quad.integrate": _integrate,
    "kernels.potential": _potential,
    "kernels.mc_oracle": _samples,
    "solver.solve_fixed_point": _steps,
}


class Tracer:
    """Spans of one traced pass: (name, start, end, parent index, work)."""

    def __init__(self):
        self.spans = []
        self.work_errors = set()
        self._stack = []

    def _work(self, name, args, kwargs, result):
        """Work counters of one span; None (and a note) when the program's
        signatures no longer match the extractor, so tracing never breaks a job."""
        try:
            return WORK[name](args, kwargs, result)
        except Exception as exc:  # noqa: BLE001 - recorded, never raised into the job
            self.work_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def wrap(self, fn, name):
        spans, stack, work = self.spans, self._stack, name in WORK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                info = (self._work(name, args, kwargs, result)
                        if work and result is not None else None)
                spans[idx] = (name, t0, t1, parent, info)

        return traced


def _bindings():
    """(owner object, attribute, span name) for every wrapped binding."""
    mods = {m: importlib.import_module(f"biharm.{m}") for m in MODULES}
    public = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            # cli's own helpers stay inside cli.run's self time
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__ and (short != "cli" or attr == "run")):
                public[id(obj)] = f"{short}.{attr}"
    out = []
    for mod in mods.values():
        for attr, obj in vars(mod).items():
            if id(obj) in public:
                out.append((mod, attr, public[id(obj)]))
    for short, path, name in EXTRA_BINDINGS:
        owner = mods[short]
        *head, attr = path.split(".")
        for part in head:
            owner = getattr(owner, part)
        out.append((owner, attr, name))
    return out


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name in _bindings():
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(orig, name))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _growth_exponent(pots):
    """Log-log slope of median time per grid-source potential against N, in
    the kernel mode that took the most time; 0 when under two sizes ran."""
    by_mode = {}
    for dur, info in pots:
        if info["grid_source"]:
            by_mode.setdefault(info["mode"], []).append((info["points"], dur))
    if not by_mode:
        return 0.0
    mode = max(by_mode, key=lambda k: sum(d for _, d in by_mode[k]))
    per_n = {}
    for n, dur in by_mode[mode]:
        per_n.setdefault(n, []).append(dur)
    if len(per_n) < 2:
        return 0.0
    ns = sorted(per_n)
    x = np.log(ns)
    y = np.log([statistics.median(per_n[n]) for n in ns])
    return float(np.polyfit(x, y, 1)[0])


def _durations(spans):
    """Duration and self time (duration minus child spans) of every span."""
    dur = [s[2] - s[1] for s in spans]
    own = list(dur)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            own[s[3]] -= dur[i]
    return dur, own


def span_table(spans) -> dict:
    """calls / inclusive seconds / self seconds per span name."""
    dur, own = _durations(spans)
    table = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += dur[i]
        row["self_s"] += own[i]
    return dict(sorted(table.items()))


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one traced pass (values, no units)."""
    dur = [s[2] - s[1] for s in spans]
    table = span_table(spans)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def incl(name):
        return table.get(name, {}).get("s", 0.0)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    def info_sum(name, key):
        return sum(s[4][key] for s in spans if s[0] == name and s[4])

    def has_ancestor(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    pots = [(dur[i], s[4]) for i, s in enumerate(spans) if s[0] == "kernels.potential" and s[4]]
    m = {
        "radial.pp_product.calls": calls("radial.pp_product"),
        "radial.pp_product.s": incl("radial.pp_product"),
        "radial.pp_product.pieces": info_sum("radial.pp_product", "pieces"),
        "radial.as_piecewise.calls": calls("radial.as_piecewise"),
        "radial.as_piecewise.s": incl("radial.as_piecewise"),
        "radial.as_piecewise.pieces": info_sum("radial.as_piecewise", "pieces"),
        "radial.eval.calls": calls("radial.eval"),
        "radial.eval.s": incl("radial.eval"),
        "radial.eval.points": info_sum("radial.eval", "points"),
        "quad.integrate.calls": calls("quad.integrate"),
        "quad.integrate.s": incl("quad.integrate"),
        "quad.integrate.diverged": info_sum("quad.integrate", "diverged"),
        "quad.nodes": info_sum("quad.eval", "points"),
        "quad.max_rel_err": max((s[4]["rel_err"] for s in spans
                                 if s[0] == "quad.integrate" and s[4]), default=0.0),
    }
    for mode, short in (("split-comparison", "split"), ("surrogate-exact", "surrogate"),
                        ("euclidean-exact", "euclidean")):
        sel = [d for d, info in pots if info["mode"] == mode]
        m[f"kernels.potential.{short}.calls"] = len(sel)
        m[f"kernels.potential.{short}.s"] = sum(sel)
    solves = calls("solver.solve_fixed_point")
    in_solve = sum(1 for i, s in enumerate(spans)
                   if s[0] == "kernels.potential" and has_ancestor(i, "solver.solve_fixed_point"))
    profile_roots = [i for i, s in enumerate(spans) if s[0].startswith("profiles.")
                     and not (s[3] >= 0 and spans[s[3]][0].startswith("profiles."))]
    m.update({
        "kernels.potential.points": sum(info["points"] for _, info in pots),
        "kernels.potential.growth_exponent": _growth_exponent(pots),
        "kernels.compose_green.calls": calls("kernels.compose_green"),
        "kernels.compose_green.s": incl("kernels.compose_green"),
        "kernels.mc_oracle.s": incl("kernels.mc_oracle"),
        "kernels.mc_oracle.samples": info_sum("kernels.mc_oracle", "samples"),
        "spectral.lambda1_annulus.calls": calls("spectral.lambda1_annulus"),
        "spectral.lambda1_annulus.s": incl("spectral.lambda1_annulus"),
        "spectral.inverse_iters": calls("spectral.cho_solve_banded"),
        "liouville.verdict.calls": calls("liouville.verdict"),
        "liouville.verdict.self_s": own("liouville.verdict"),
        "solver.estimate_constants.s": incl("solver.estimate_constants"),
        "solver.solve_fixed_point.self_s": own("solver.solve_fixed_point"),
        "solver.verify_bounds.s": (incl("solver.verify_prop1")
                                   + incl("solver.verify_prop2")),
        "solver.residual_check.s": incl("solver.residual_check"),
        "solver.picard_steps": info_sum("solver.solve_fixed_point", "steps"),
        "solver.potentials_per_solve": in_solve / solves if solves else 0.0,
        "profiles.calls": len(profile_roots),
        "profiles.s": sum(dur[i] for i in profile_roots),
        "cli.self_s": own("cli.run"),
    })
    return m

