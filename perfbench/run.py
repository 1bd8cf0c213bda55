"""kacbath benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Each pass runs the workload's ops in a fresh process (worker.py), so
every pass pays the package import and the cold quadrature cache the
way a `kacbath` user does. Passes repeat until T seconds are spent
(at least one). Set-up time is also sampled by set-up-only processes.
Metrics are medians over passes. --trace 1 alternates untraced and
traced passes and reports the per-layer metrics and the tracing
overhead instead of the end-to-end metrics.

Prints a detail line (provenance, every metric with unit and sample
count, per-op errors, the span table), then the result line with keys
correct / attempted / failed / metrics. Exits 1 without a result line
if the program cannot be run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
SETUP_PROBES = 3
DEADLINE_S = 170.0   # every run must end well inside 180 s
WORKLOADS = ("spectral-d2", "spectral-d3", "sim-small-bath", "sim-large-bath")


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(args, workdir: str, tag: str, deadline: float, trace: int = 0,
           setup_only: bool = False) -> tuple[dict, float, float]:
    """Run one worker; return (its result, set-up seconds, wall seconds)."""
    pass_dir = os.path.join(workdir, tag)
    os.makedirs(pass_dir)
    out = os.path.join(pass_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", pass_dir, "--out", out,
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    t0 = time.monotonic()
    # own session, so a timeout also ends the worker's pool processes
    proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - t0))
    except BaseException:  # timeout or termination: end the worker, then re-raise
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    wall = time.monotonic() - t0
    if code != 0:
        raise RuntimeError(f"worker {tag} exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    shutil.rmtree(pass_dir)
    return result, result["setup_done"] - t0, wall


def _pass_metrics(ops: list[dict]) -> dict:
    """End-to-end figures of one pass; the known-defect op is kept apart."""
    counted = [o for o in ops if not o["known_defect"]]
    out = {"run_s": sum(o["seconds"] for o in counted)}
    for o in ops:
        out[o["name"] + "_s"] = o["seconds"]
    for work, metric in (("members", "members_per_s"),
                         ("members_serial", "members_per_s_serial"),
                         ("mc_samples", "mc_samples_per_s")):
        done = [o for o in counted if work in o["work"]]
        if done:
            # failed ops did no useful work
            useful = sum(o["work"][work] for o in done if o["error"] is None)
            out[metric] = useful / sum(o["seconds"] for o in done)
    return out


def _unit(name: str) -> str:
    if "_per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith(("_ratio", "_share")) else "count"


def _median_table(rows: list[dict]) -> dict:
    keys = sorted({k for r in rows for k in r})
    return {k: _metric(k, [r.get(k, 0.0) for r in rows]) for k in keys}


def _metric(name: str, values: list) -> dict:
    return {"value": statistics.median(values), "unit": _unit(name),
            "samples": len(values)}


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def _provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(), "platform": platform.platform(),
        "processor": platform.processor() or "unknown", "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_sha": _git_sha(), "workload_seed": seed,
    }


def run(args) -> tuple[dict, dict]:
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        setups = [_spawn(args, workdir, f"probe{i}", deadline, setup_only=True)[1]
                  for i in range(SETUP_PROBES)]
        passes = []          # (traced, result)
        t_measure = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            result, setup, wall = _spawn(args, workdir, f"pass{len(passes)}",
                                         deadline, trace=int(traced))
            setups.append(setup)
            passes.append((traced, result))
            now = time.monotonic()
            need_traced = args.trace and len(passes) < 2
            if now + wall > deadline or (
                    not need_traced and now - t_measure + wall > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by a concurrent run
            os.rmdir(os.path.dirname(workdir))

    ops = [o for _, r in passes for o in r["ops"]]
    counted = [o for o in ops if not o["known_defect"]]
    plain = [_pass_metrics(r["ops"]) for traced, r in passes if not traced]
    metrics = _median_table(plain)
    metrics["setup_s"] = _metric("setup_s", setups)
    metrics["peak_rss_mb"] = _metric(
        "peak_rss_mb", [r["peak_rss_mb"] for traced, r in passes if not traced])
    n_failed = sum(o["error"] is not None for o in ops)
    metrics["failed_ops_ratio"] = {"value": n_failed / len(ops), "unit": "ratio",
                                   "samples": len(ops), "failed": n_failed}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": _provenance(args.seed),
        "passes": len(passes), "metrics": metrics,
        "errors": sorted({f"{o['name']}: {o['error']}" for o in ops if o["error"]}),
        "known_defect": sorted({f"{o['name']}: {o['error'] or 'passed'}"
                                for o in ops if o["known_defect"]}),
    }
    if args.trace:
        tr = [(r, _pass_metrics(r["ops"])["run_s"]) for traced, r in passes if traced]
        layers = _median_table([r["layers"] for r, _ in tr])
        base = metrics["run_s"]["value"]
        overhead = [s - base for _, s in tr]
        layers["trace.overhead_s"] = _metric("trace.overhead_s", overhead)
        layers["trace.overhead_share"] = _metric(
            "trace.overhead_share", [x / base for x in overhead])
        detail["layers"] = layers
        detail["spans"] = tr[-1][0]["spans"]
    summary = {"correct": all(o["error"] is None for o in counted),
               "attempted": len(counted),
               "failed": sum(o["error"] is not None for o in counted)}
    return detail, summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit, so a terminated run still ends its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "kacbath", "__init__.py")):
        print("perfbench: src/kacbath not found next to perfbench/", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        detail, summary = run(args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    table = detail["layers"] if args.trace else detail["metrics"]
    summary["metrics"] = {  # a layer a workload never calls reports 0
        m["name"]: {"value": table.get(m["name"], {"value": 0})["value"], "unit": m["unit"]}
        for m in declared}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
