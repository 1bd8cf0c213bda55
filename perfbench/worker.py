"""One benchmark pass in a fresh process: import, set up, run ops, check.

Started by run.py with the checkout's src/ on PYTHONPATH and the BLAS
thread count pinned. Writes one JSON result to --out; in --setup-only
mode it stops once the package is imported and the inputs are built.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _run_ops(ops, ctx, rec) -> list[dict]:
    from workloads import CheckFailed

    results = []
    for op in ops:
        idx = rec.enter("cli.main" if getattr(op.run, "cli", False) else f"bench.{op.name}")
        t0 = time.perf_counter()
        error = None
        try:
            out = op.run(ctx)
        except CheckFailed as exc:
            error = str(exc)
        except Exception as exc:  # an op that dies is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        rec.leave(idx)
        if error is None:
            with rec.paused():
                try:
                    op.check(ctx, out)
                except (CheckFailed, OSError, KeyError, ValueError) as exc:
                    error = f"check: {type(exc).__name__}: {exc}"
        results.append({"name": op.name, "seconds": seconds, "error": error,
                        "work": op.work, "known_defect": op.known_defect})
    return results


def _report(ops, results, ctx, path: str):
    """Run `kacbath report` over the artifacts; failed or missing files fail their op."""
    from kacbath.cli import main

    main(["report", "--dir", ctx.art, "--out", path])
    with open(path, encoding="utf-8") as fh:
        passed = {c["file"]: (c["passed"], c["detail"]) for c in json.load(fh)["checks"]}
    for op, res in zip(ops, results):
        for name in op.reported:
            ok, detail = passed.get(name, (False, "not checked by report"))
            if not ok and res["error"] is None:
                res["error"] = f"report: {name}: {detail}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    import kacbath
    if not os.path.realpath(kacbath.__file__).startswith(src + os.sep):
        raise SystemExit(f"kacbath imported from {kacbath.__file__}, not {src}")
    import kacbath.spectral
    import tracing
    from workloads import WORKLOADS, Ctx

    workload = WORKLOADS[args.workload]
    ctx = Ctx(args.seed, os.path.join(args.dir, "artifacts"), os.path.join(args.dir, "configs"))
    os.makedirs(ctx.art)
    os.makedirs(ctx.cfg)
    workload.setup(ctx)
    result = {"setup_done": time.monotonic()}

    if not args.setup_only:
        cached = len(kacbath.spectral._cache)
        rec = tracing.install() if args.trace else tracing.Recorder()
        result["ops"] = _run_ops(workload.ops, ctx, rec)
        with rec.paused():
            _report(workload.ops, result["ops"], ctx, os.path.join(args.dir, "report.json"))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            layers, result["spans"] = tracing.summarize(rec)
            layers.update(rec.counts)
            misses = len(kacbath.spectral._cache) - cached
            layers["spectral.quadrature_cache_hits"] = (
                rec.counts.get("spectral.quadrature_calls", 0) - misses)
            result["layers"] = layers

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
