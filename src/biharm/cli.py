"""Command-line front door: classification, kernel tables, bound checks,
eigenvalue scans, non-existence witnesses, fixed-point solves, and the
Monte Carlo oracle.

Every command writes report.json (stable key order, resolved config and
normalization disclaimers embedded) plus command-specific CSV files into the
output directory.  Writes are atomic (temp file then rename) and outputs are
byte-identical across runs with the same config and seed.

Exit codes: 0 success, 1 usage error, 2 validation/precondition error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import BiharmError, NonConvergenceError, ParameterError
from . import kernels, liouville, profiles, solver, spectral
from .radial import fit_loglog_slope, log_grid

USAGE_EXIT = 1
VALIDATION_EXIT = 2
NONCONVERGENCE_EXIT = 3

DISCLAIMERS = {
    "constants_normalized_to_one": True,
    "normalization_note": liouville.NORMALIZATION_NOTE,
    "constants_note": solver.CONSTANTS_NOTE,
}


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors, per the CLI contract, and reads
    a negative number in any float notation (-1e-3 too) as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict):
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: str, rows):
    """One line per row, each value as %.12e: one format per row, with one
    field per column of the header."""
    fmt = ",".join(["%.12e"] * len(header.split(",")))
    _atomic_write(path, "\n".join([header, *(fmt % row for row in rows)]) + "\n")


def _report(out_dir: Path, command: str, config: dict, body: dict):
    payload = {"command": command, "config": config, "disclaimers": DISCLAIMERS, **body}
    _write_json(out_dir / "report.json", payload)
    cfg_lines = [f"{k}={v}" for k, v in sorted(config.items())]
    _atomic_write(out_dir / "resolved.cfg", "\n".join(cfg_lines) + "\n")


def parse_config_text(text: str) -> dict:
    """Read the key=value lines that _report writes to resolved.cfg."""
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _profile_args(p: _Parser, need_n: bool = True):
    p.add_argument("--alpha", type=_finite_float, required=True, help="volume-growth exponent")
    p.add_argument("--gamma", type=_finite_float, required=True, help="Green-decay exponent")
    if need_n:
        p.add_argument("--n", type=int, default=6, help="small-scale dimension (default 6)")
    p.add_argument("--mode", default=profiles.TWO_REGIME,
                   choices=[profiles.TWO_REGIME, profiles.PURE_POWER])


def _global_flags(top: bool) -> argparse.ArgumentParser:
    """--config, --out-dir and --seed, accepted before or after the subcommand.

    Only the top-level copies carry defaults: the subcommand's copies default
    to SUPPRESS, so they cannot overwrite a value given before the subcommand.
    """
    def default(value):
        return value if top else argparse.SUPPRESS

    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", default=default(None),
                       help="key=value config file with flag defaults")
    flags.add_argument("--out-dir", default=default("out"), help="output directory (default ./out)")
    flags.add_argument("--seed", type=int, default=default(0), help="seed for stochastic commands")
    return flags


def _finite_float(text: str) -> float:
    """argparse type of the float flags: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_radii(text: str):
    return tuple(_finite_float(tok) for tok in text.split(",") if tok.strip())


def _radii_text(text: str) -> str:
    """argparse type of --r-values: checks the list, keeps the text as given."""
    try:
        if _parse_radii(text):
            return text
    except argparse.ArgumentTypeError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {text!r}")


@functools.cache   # one parser per process: parsing never changes it
def build_parser() -> _Parser:
    parser = _Parser(prog="biharm", parents=[_global_flags(top=True)],
                     description="numerical toolkit for the biharmonic critical-exponent classification")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices   # subcommand name -> its parser
    sub_flags = _global_flags(top=False)

    def add_parser(name, **kw):
        p = sub.add_parser(name, parents=[sub_flags], **kw)
        p.error = parser.error
        return p

    p = add_parser("classify", help="place p against both critical thresholds")
    _profile_args(p)
    p.add_argument("--m", type=_finite_float, required=True, help="lower-bound weight exponent")
    p.add_argument("--s", type=_finite_float, default=None,
                   help="weight-profile exponent; defaults to min(m, 0)")
    p.add_argument("--p", type=_finite_float, required=True)

    p = add_parser("kernel-table", help="tabulate the composed Green kernel")
    _profile_args(p)
    p.add_argument("--rho-min", type=_finite_float, default=1.0)
    p.add_argument("--rho-max", type=_finite_float, default=1e4)
    p.add_argument("--points", type=int, default=41)

    p = add_parser("verify-bounds", help="bounded-potential checks and constants")
    _profile_args(p)
    p.add_argument("--s", type=_finite_float, default=0.0)
    p.add_argument("--m", type=_finite_float, default=0.0)
    p.add_argument("--p", type=_finite_float, required=True)
    p.add_argument("--a", type=_finite_float, default=None)
    p.add_argument("--b", type=_finite_float, default=None)
    p.add_argument("--kernel-mode", default=kernels.MODE_SPLIT, choices=kernels.KERNEL_MODES)
    p.add_argument("--grid-lo", type=_finite_float, default=1e-2)
    p.add_argument("--grid-hi", type=_finite_float, default=1e4)
    p.add_argument("--grid-points", type=int, default=384)

    p = add_parser("eigen", help="surrogate eigenvalue scan on annuli")
    _profile_args(p, need_n=False)
    p.add_argument("--r-values", type=_radii_text, default="1e2,1e3,1e4",
                   help="comma-separated outer radii (annulus is (R/ratio, R))")
    p.add_argument("--ratio", type=_finite_float, default=4.0)
    p.add_argument("--mesh", type=int, default=256)

    p = add_parser("witness", help="non-existence witness scan")
    _profile_args(p)
    p.add_argument("--m", type=_finite_float, default=0.0)
    p.add_argument("--p", type=_finite_float, required=True)
    p.add_argument("--tau", type=_finite_float, default=0.5)
    p.add_argument("--big-n", type=_finite_float, default=4.0)
    p.add_argument("--r-inner", type=_finite_float, default=2.0)
    p.add_argument("--r-values", type=_radii_text, default=None,
                   help="comma-separated scan radii (default 2**10 .. 2**20)")
    p.add_argument("--mesh", type=int, default=256)

    p = add_parser("solve", help="fixed-point solve of the double-potential map")
    _profile_args(p)
    p.add_argument("--s", type=_finite_float, default=0.0)
    p.add_argument("--p", type=_finite_float, required=True)
    p.add_argument("--a", type=_finite_float, default=None)
    p.add_argument("--b", type=_finite_float, default=None)
    p.add_argument("--nodes", type=int, default=1024)
    p.add_argument("--tol", type=_finite_float, default=1e-10)
    p.add_argument("--maxit", type=int, default=80)
    p.add_argument("--kernel-mode", default=kernels.MODE_SURROGATE, choices=kernels.KERNEL_MODES)

    p = add_parser("oracle", help="Monte Carlo check of the euclidean kernel")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--x", type=_finite_float, required=True, help="evaluation radius")
    p.add_argument("--ball-radius", type=_finite_float, default=1.0)
    p.add_argument("--height", type=_finite_float, default=1.0)
    p.add_argument("--samples", type=int, default=400000)
    return parser


def _resolved_config(args) -> dict:
    """Every flag that was set (or defaulted), as text that --config reads back."""
    return {k: repr(v) if isinstance(v, float) else str(v)
            for k, v in vars(args).items()
            if k not in ("config", "out_dir") and v is not None}


def _cmd_classify(args, out: Path):
    prof = profiles.ManifoldProfile(args.alpha, args.gamma, args.n, args.mode)
    s = args.s if args.s is not None else min(args.m, 0.0)
    src = profiles.SourceProfile(s=s, m=args.m)
    report = profiles.classify(prof, src, args.p)
    cfg = _resolved_config(args)
    cfg["s"] = repr(float(s))
    _report(out, "classify", cfg, {"classification": report.as_dict(),
                                   "p_star": float(report.p_star_nonexistence)})
    return 0


def _cmd_kernel_table(args, out: Path):
    prof = profiles.ManifoldProfile(args.alpha, args.gamma, args.n, args.mode)
    rhos = log_grid(args.rho_min, args.rho_max, args.points)
    res = kernels.compose_green(prof, rhos)   # diverged rows have value inf
    diverged = bool(res.diverged.any())
    _write_csv(out / "kernel_table.csv", "rho,gtilde", zip(rhos, res.value))
    body = {"diverged": diverged,
            "finiteness_condition": "gamma > alpha/2",
            "tail_exponent": float(res.tail_exponent[0])}
    if not diverged:
        body["loglog_slope"] = fit_loglog_slope(rhos, res.value)
        body["expected_slope"] = -(2.0 * args.gamma - args.alpha)
    _report(out, "kernel-table", _resolved_config(args), body)
    return 0


def _cmd_verify_bounds(args, out: Path):
    prof = profiles.ManifoldProfile(args.alpha, args.gamma, args.n, args.mode)
    src = profiles.SourceProfile(s=args.s, m=args.m)
    plan = profiles.plan_exponents(prof, src, args.p, a=args.a, b=args.b)
    spec = kernels.KernelSpec(args.kernel_mode, prof)
    grid = log_grid(args.grid_lo, args.grid_hi, args.grid_points)
    check1 = solver.verify_prop1(plan, spec, src, grid)
    check2 = solver.verify_prop2(plan, spec, src, grid)
    consts = solver.estimate_constants(plan, spec, src, grid)
    l = solver.pick_l(plan, consts.C, consts.C_prime)
    window = [c.describe() for c in profiles.exponent_window_checks(prof, src, plan)]
    _report(out, "verify-bounds", _resolved_config(args), {
        "plan": plan.as_dict(),
        "window_conditions": window,
        "sup_ratio_weighted_source": check1.sup_ratio1,
        "sup_ratio_envelope": check1.sup_ratio2,
        "sup_ratio_contraction": check2.sup_ratio,
        "global_sup": check2.global_sup,
        "last_decade_variations": [check1.variation1, check1.variation2, check2.variation],
        "C": consts.C, "C_prime": consts.C_prime, "l": l,
    })
    return 0


def _cmd_eigen(args, out: Path):
    if not args.ratio > 1.0:
        raise ParameterError(f"--ratio must exceed 1, got {args.ratio}")
    op = spectral.SurrogateOperator(args.alpha, args.gamma)
    radii = _parse_radii(args.r_values)
    # each annulus is checked first, so an out-of-range one is named; the mesh
    # scales with the annulus, so each radius's eigenvectors start the next's
    results = []
    for R in radii:
        start = results[-1].vectors if results else None
        results.append(spectral.lambda1_annulus(op, R / args.ratio, R, args.mesh, start=start))
    if len(set(radii)) < 2:
        raise ParameterError("--r-values needs two distinct radii to fit a slope, "
                             f"got {args.r_values}")
    rows = [(R, res.value) for R, res in zip(radii, results)]
    _write_csv(out / "eigen.csv", "R,lambda1", rows)
    _report(out, "eigen", _resolved_config(args), {
        "slope": fit_loglog_slope(radii, [res.value for res in results]),
        "expected_slope": -(args.alpha - args.gamma),
        "error_estimates": [res.error_estimate for res in results],
        "inverse_iterations": [list(res.iterations) for res in results],
    })
    return 0


def _cmd_witness(args, out: Path):
    prof = profiles.ManifoldProfile(args.alpha, args.gamma, args.n, args.mode)
    src = profiles.SourceProfile(s=min(args.m, 0.0), m=args.m)
    kwargs = {"tau": args.tau, "big_n": args.big_n, "r_inner": args.r_inner}
    if args.r_values:
        kwargs["r_list"] = _parse_radii(args.r_values)
    cfg_obj = liouville.WitnessConfig(**kwargs)
    report = liouville.verdict(prof, src, args.p, cfg_obj, args.mesh)
    _write_csv(out / "witness.csv", "R,lhs,rhs",
               [(r, l, h) for r, l, h, _ in report.rows])
    cfg = _resolved_config(args)
    cfg["r_values"] = ",".join(repr(r) for r in cfg_obj.r_list)
    _report(out, "witness", cfg, {"witness": report.as_dict(), "verdict": report.verdict})
    return 0


def _cmd_solve(args, out: Path):
    prof = profiles.ManifoldProfile(args.alpha, args.gamma, args.n, args.mode)
    src = profiles.SourceProfile(s=args.s, m=0.0)
    plan = profiles.plan_exponents(prof, src, args.p, a=args.a, b=args.b)
    spec = kernels.KernelSpec(args.kernel_mode, prof)
    grid = solver.default_grid(args.nodes)
    report = solver.solve_fixed_point(plan, spec, src, grid, tol=args.tol, maxit=args.maxit)
    if args.kernel_mode == kernels.MODE_SURROGATE:
        res = solver.residual_check(prof, report)
        report = solver.SolveReport(**{**report.__dict__, "residuals": res})
    _write_csv(out / "solution.csv", "rho,u,h",
               zip(report.u.grid, report.u.values, report.h.values))
    _report(out, "solve", _resolved_config(args), {"solve": report.as_dict(),
                                "membership_margin": report.membership_margin})
    return 0


def _cmd_oracle(args, out: Path):
    src = kernels.BallSource(args.ball_radius, args.height)
    est, stderr = kernels.mc_oracle(args.n, args.x, src, args.samples, args.seed)
    prof = profiles.ManifoldProfile(float(args.n), float(args.n) - 2.0, args.n)
    spec = kernels.KernelSpec(kernels.MODE_EUCLIDEAN, prof)
    exact = float(kernels.potential_values(spec, src, [args.x])[0])
    _report(out, "oracle", _resolved_config(args), {
        "estimate": est, "stderr": stderr, "exact": exact,
        "abs_difference": abs(est - exact),
        "within_3_stderr": bool(abs(est - exact) <= 3.0 * stderr + 1e-12 * abs(exact)),
    })
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "kernel-table": _cmd_kernel_table,
    "verify-bounds": _cmd_verify_bounds,
    "eigen": _cmd_eigen,
    "witness": _cmd_witness,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
}


# the top-level parser's flags that take a value
_GLOBAL_FLAGS = ("--config", "--out-dir", "--seed")


def _with_config(parser: _Parser, argv: list) -> list:
    """argv with the --config file's key=value lines as --key=value flags, the
    global ones first and the rest right after the subcommand: argparse checks
    them as it checks flags, and each given flag, read later, wins."""
    path = None
    for i, tok in enumerate(argv):
        # argparse reads a prefix of --config, such as --conf, as --config too
        name, eq, value = tok.partition("=")
        if len(name) > 2 and "--config".startswith(name):
            if eq:
                path = value
            elif i + 1 < len(argv):
                path = argv[i + 1]
    # the subcommand is the first token that is no global flag, nor a prefix of
    # one (argparse takes those too), nor a global flag's value
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        i += 2 if any(flag.startswith(argv[i]) for flag in _GLOBAL_FLAGS) else 1
    if path is None or i >= len(argv) or argv[i] not in parser.commands:
        return argv
    command = argv[i]
    try:
        cfg = parse_config_text(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read config file {path!r}: {exc}")
    cfg.pop("command", None)   # resolved.cfg records it; argv names it
    unknown = set(cfg) - {action.dest for action in parser.commands[command]._actions}
    if unknown:
        raise ParameterError(f"config keys not accepted by {command!r}: {sorted(unknown)}")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in cfg.items()]
    top = [flag for flag in flags if flag.split("=", 1)[0] in _GLOBAL_FLAGS]
    rest = [flag for flag in flags if flag not in top]
    return top + argv[:i + 1] + rest + argv[i + 1:]


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))   # usage errors exit via parser.error
        return _COMMANDS[args.command](args, Path(args.out_dir))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except NonConvergenceError as exc:
        trace = f" (trace: {len(exc.trace)} values, last {exc.trace[-1]:.1e})" if exc.trace else ""
        sys.stderr.write(f"error: {exc}{trace}\n")
        return NONCONVERGENCE_EXIT
    except BiharmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_EXIT


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
