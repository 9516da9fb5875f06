"""One benchmark run of one workload, in a fresh process.

Closed loop, one client: jobs run one at a time, each a call of
``biharm.cli.run(argv)`` in this process (the code path of the ``biharm``
console script without a new interpreter per job).  A tiny-size pass warms
the process up; then whole passes over the job list repeat until the run's
seconds are spent.  With tracing on, passes alternate untraced and traced.
Every job's exit code and artifacts are checked after its timer stops, and
every pass must write byte-identical artifacts to the first one.

Prints one JSON object on its last stdout line; ``run.py`` turns it into the
benchmark result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import jobs as joblib  # noqa: E402
import spans  # noqa: E402
from biharm import cli  # noqa: E402


def _artifacts(out: Path) -> dict:
    """sha256 and size of every file a job wrote."""
    if not out.is_dir():
        return {}
    return {p.name: (hashlib.sha256(p.read_bytes()).hexdigest(), p.stat().st_size)
            for p in sorted(out.iterdir()) if p.is_file()}


def run_job(job, out: Path) -> dict:
    """Run one job, then check it.  Only the cli.run call is timed."""
    shutil.rmtree(out, ignore_errors=True)
    argv = [*job.argv, "--out-dir", str(out)]   # after the subcommand: see NOTES.md
    err = io.StringIO()
    exc = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception as e:  # a traceback from the CLI is a contract failure
            rc, exc = None, e
        t1 = time.perf_counter()
        c1 = time.process_time()
    rec = {"job": job.name, "s": t1 - t0, "cpu_s": c1 - c0, "rc": rc,
           "checked": False, "failure": None, "check_failed": False, "known": False}
    if exc is not None:
        rec["failure"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        rec["known"] = type(exc).__name__ == job.known_defect
    elif rc not in job.expect:
        rec["failure"] = f"exit code {rc}, expected {job.expect}: {err.getvalue().strip()}"
    elif rc == 0 and job.check is not None:
        rec["checked"] = True
        try:
            job.check(out)
        except (joblib.CheckFailed, OSError, ValueError, KeyError) as e:
            rec["failure"] = f"check failed: {type(e).__name__}: {e}"
            rec["check_failed"] = True
    rec["artifacts"] = _artifacts(out)
    return rec


def run_pass(job_list, base: Path) -> dict:
    records = [run_job(job, base / f"{i:03d}") for i, job in enumerate(job_list)]
    times = [r["s"] for r in records]
    return {"wall_s": sum(times), "job_p50_s": statistics.median(times),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "bytes_written": sum(size for r in records for _, size in r["artifacts"].values()),
            "records": records}


def _compare(ref: dict, p: dict):
    """Mark jobs whose artifacts differ from the first pass."""
    for a, b in zip(ref["records"], p["records"]):
        if b["failure"] is None and a["artifacts"] != b["artifacts"]:
            b["failure"] = "artifacts differ from the first pass"
            b["check_failed"] = True


def _summary(p: dict) -> dict:
    return {k: v for k, v in p.items() if k != "records"}


def measure(workload: str, seed: int, seconds: float, trace: bool, base: Path) -> dict:
    full = joblib.build_jobs(workload, seed, "full")
    warm = run_pass(joblib.build_jobs(workload, seed, "tiny"), base / "warmup")
    untraced, traced, layers, tables, work_errors = [], [], [], [], set()
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(full, base / "pass"))
        if trace:
            tracer = spans.Tracer()
            with spans.traced(tracer):
                p = run_pass(full, base / "pass")
            layers.append({**spans.layer_metrics(tracer.spans),
                           "cli.bytes_written": p["bytes_written"]})
            tables.append(spans.span_table(tracer.spans))
            work_errors.update(tracer.work_errors)
            traced.append(p)
        if time.perf_counter() - start >= seconds:
            break
    for p in untraced[1:] + traced:
        _compare(untraced[0], p)
    measured = untraced + traced
    recs = [r for p in measured for r in p["records"]]
    failures = [r for p in [warm] + measured for r in p["records"] if r["failure"]]
    return {
        "workload": workload, "seed": seed, "jobs": len(full),
        "attempted": len(recs),
        "failed": sum(1 for r in recs if r["failure"]),
        # a known-defect probe failing in its known way is counted in
        # `failed` but is not an incorrect output
        "correct": not any(r["check_failed"] or not r["known"] for r in failures),
        "failures": sorted({(r["job"], r["failure"]) for r in failures}),
        "warmup": _summary(warm),
        "untraced": [_summary(p) for p in untraced],
        "traced": [_summary(p) for p in traced],
        "layers": layers,
        "span_table": tables[0] if tables else {},
        "span_work_errors": sorted(work_errors),
        "job_list": [{"job": j.name, "argv": list(j.argv)} for j in full],
        "first_pass": [{k: r[k] for k in ("job", "s", "rc", "checked", "failure")}
                       for r in untraced[0]["records"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    base = Path(a.out)
    try:
        res = measure(a.workload, a.seed, a.seconds, bool(a.trace), base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
