"""biharm benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload existence-maxkernel --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The package is imported from ``src/``; a
directory without it makes the run exit 2.  With ``--trace 0`` the result
holds the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  Human-readable lines come first; the last stdout line is
the JSON result.  A fuller record (machine facts, per-pass figures, span
table, failures) is written under ``.perfbench_out/results/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import jobs as joblib  # noqa: E402

DEADLINE_S = 170.0        # the whole run, set-up included
SETUP_REPEATS = 5
SETUP_CODE = ("import time; t = time.perf_counter(); import biharm.cli as c; "
              "c.build_parser(); print(time.perf_counter() - t)")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BIHARM_THREADS")

END_TO_END = (("wall_s", "s"), ("job_p50_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYER_UNITS = {"cpu_s": "s", "cli.bytes_written": "B", "quad.max_rel_err": "1",
               "kernels.potential.growth_exponent": "1", "tracing_overhead": "1"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("BIHARM_THREADS", None)   # measure the user default
    return env


def measure_setup(deadline: float) -> dict:
    """Fresh interpreter to ready (import biharm.cli + parser build), SETUP_REPEATS times."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(),
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        walls.append(time.perf_counter() - t0)
        imports.append(float(done.stdout.strip()))
    return {"setup_s": statistics.median(walls), "process_walls": walls,
            "import_and_parser_s": imports}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # as inherited; the worker runs with BIHARM_THREADS removed
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_worker(workload, seed, seconds, trace, deadline) -> dict:
    work = OUT / "jobs" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(work)]
    with subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _median(rows, key):
    return statistics.median(r[key] for r in rows)


def end_to_end(res: dict, setup: dict) -> dict:
    return {"wall_s": _median(res["untraced"], "wall_s"),
            "job_p50_s": _median(res["untraced"], "job_p50_s"),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": res["peak_rss_mb"]}


def per_layer(res: dict) -> dict:
    names = res["layers"][0].keys()
    m = {k: statistics.median(layer[k] for layer in res["layers"]) for k in names}
    m["cpu_s"] = _median(res["untraced"], "cpu_s")
    m["tracing_overhead"] = _median(res["traced"], "wall_s") / _median(res["untraced"], "wall_s")
    return m


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    return LAYER_UNITS.get(name, "count")


def run(a) -> int:
    deadline = time.monotonic() + DEADLINE_S
    setup = measure_setup(deadline) if not a.trace else None
    res = run_worker(a.workload, a.seed, a.seconds, a.trace, deadline)
    if a.trace:
        values = per_layer(res)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = end_to_end(res, setup)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    error_rate = res["failed"] / res["attempted"]
    facts = machine_facts(a.seed)
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
              "machine": facts, "setup": setup, "metrics": metrics,
              "error_rate": error_rate, **res}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {a.workload}  seed {a.seed}  trace {a.trace}  "
          f"passes {len(res['untraced'])}+{len(res['traced'])}  jobs/pass {res['jobs']}")
    print("  machine: " + "  ".join(f"{k} {v}" for k, v in facts.items() if k != "seed"))
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':40s} {error_rate:.6g} ({res['failed']}/{res['attempted']} jobs failed)")
    for job, why in res["failures"]:
        print(f"  FAILED {job}: {why.splitlines()[0]}")
    for err in res["span_work_errors"]:
        print(f"  span counter unavailable: {err}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def smoke() -> int:
    """Job lists are a pure function of the seed, family vetting holds, and
    every job's check runs at tiny sizes."""
    import worker
    problems = []
    for w in joblib.WORKLOADS:
        for seed in (0, 1):
            a = [(j.name, j.argv, j.expect) for j in joblib.build_jobs(w, seed)]
            b = [(j.name, j.argv, j.expect) for j in joblib.build_jobs(w, seed)]
            if a != b:
                problems.append(f"{w}: job list for seed {seed} is not deterministic")
    for alpha, gamma, m, n in joblib.SWEEP_POINTS:
        ps = joblib.p_star(alpha, gamma, m)
        if m > 0 or n == alpha or float(ps) != ps:
            problems.append(f"sweep point {(alpha, gamma, m, n)} is not vetted")
        for off in joblib.P_OFFSETS:
            gap = joblib.exponent_gap(alpha, gamma, m, ps + off)
            if ps + off <= 1 or (off != 0 and abs(gap) < 0.15):
                problems.append(f"sweep point {(alpha, gamma, m, n)} offset {off}: gap {gap}")
    base = OUT / "jobs" / f"smoke-{os.getpid()}"
    try:
        for w in joblib.WORKLOADS:
            job_list = joblib.build_jobs(w, 0, "tiny")
            records = worker.run_pass(job_list, base / w)["records"]
            for job, rec in zip(job_list, records):
                if rec["failure"] and not rec["known"]:
                    problems.append(f"{w}/{job.name}: {rec['failure']}")
                if 0 in job.expect and job.check is None:
                    problems.append(f"{w}/{job.name}: no output check")
                if rec["rc"] == 0 and job.check is not None and not rec["checked"]:
                    problems.append(f"{w}/{job.name}: check did not run")
            print(f"{w}: {len(job_list)} tiny jobs, "
                  f"{sum(r['checked'] for r in records)} output checks run")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the smoke test instead")
    a = ap.parse_args()
    if not (SRC / "biharm" / "cli.py").is_file():
        print(f"error: no biharm package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if a.smoke:
        return smoke()
    if a.workload is None:
        ap.error("--workload is required")
    try:
        return run(a)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
