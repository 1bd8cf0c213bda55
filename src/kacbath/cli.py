"""Command-line entry point.

One executable, nine subcommands, one shared JSON configuration shape.
Curves go to CSV (17 significant digits, '.' decimal), reports and
sweeps to JSON, operators to the plain matrix format. Exit codes:
0 success, 2 configuration problem, 3 a numerical tolerance failed,
4 file I/O. Failures additionally emit a one-line machine-readable
record on stderr.

Verification subcommands write their artifact first and raise after,
so a tolerance failure still leaves the numbers on disk for a
post-mortem. They judge it with the same check function that `report`
applies to the artifact, so both read one threshold per claim.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .bounds import (
    bound_curve,
    estimate_l,
    measured_bound_params,
    perturbation_data,
    scaling_study,
)
from .config import CONFIG_SCHEMA, RunConfig, load_config
from .errors import (
    ConfigError,
    DegenerateBoundError,
    KacbathError,
    NegativeWeightError,
    StateError,
    ToleranceError,
    UnitVectorError,
)
from .evolution import default_time_grid, distance_curve
from .hermite import HermiteCoeffs, make_basis
from .jump import (
    BlockObservable,
    EquilibriumInit,
    PerturbationInit,
    SimConfig,
    hermite_observable,
    run_ensemble,
)
from .kinematics import ModelParams
from .output import read_json, write_csv, write_json, write_matrix
from .projector import estimate_lemma1_ratio, lemma1_constant
from .randomness import RngStream
from .spectral import (
    SpectralContext,
    assemble_T,
    assemble_generator,
    bath_map_blocks,
    conserved_count,
    k_block,
    spectral_gap,
    symmetric_tensor_eigenvalues,
    verify_lemma2,
)

LEMMA3_SUP = 2.0 / 3.0
# the configured degree's range also bounds verify-lemma3's --max-degree
DEGREE_RANGE = (CONFIG_SCHEMA["properties"]["degree"]["minimum"],
                CONFIG_SCHEMA["properties"]["degree"]["maximum"])


# ---------------------------------------------------------------------------
# shared pieces

def _model(cfg: RunConfig) -> ModelParams:
    return ModelParams(cfg.m, cfg.n, lambda_s=cfg.lambda_s,
                       lambda_r=cfg.lambda_r, mu=cfg.mu)


def _unit_coeff(m: int, degree: int, key_exponent: dict[int, int]) -> HermiteCoeffs:
    """1 plus one unit Hermite mode: exponent map {var: power} on 3M vars."""
    b = make_basis(3 * m, degree)
    vec = np.zeros(b.size)
    vec[0] = 1.0
    key = tuple(key_exponent.get(i, 0) for i in range(3 * m))
    vec[b.index[key]] = 1.0
    return HermiteCoeffs(b, vec)


# Block forms of the registry's observables: each maps a read-only
# (count, M+N, 3) block state to (count,) values with the per-member
# arithmetic of the per-state form (kinematics.total_energy and
# total_momentum for the totals), so both give the same numbers.

def _v1x(vw: np.ndarray) -> np.ndarray:
    return vw[:, 0, 0]


def _row_sums(a: np.ndarray) -> np.ndarray:
    return np.sum(a.reshape(len(a), -1), axis=1)


def _system_energy(vw: np.ndarray, m: int) -> np.ndarray:
    return _row_sums(vw[:, :m] ** 2)


def _total_energy(vw: np.ndarray, m: int) -> np.ndarray:
    v, w = vw[:, :m], vw[:, m:]
    return _row_sums(v * v) + _row_sums(w * w)


def _momentum_x(vw: np.ndarray, m: int) -> np.ndarray:
    return (vw[:, :m].sum(axis=1) + vw[:, m:].sum(axis=1))[:, 0]


def observable_registry(p: ModelParams) -> dict[str, BlockObservable]:
    """The named observables the simulate subcommand can record.

    All are batched, and every entry pickles, so `threads` >= 2 can
    ship them to workers.
    """
    return {
        "v1x": BlockObservable(_v1x),
        "v1x_h1": hermite_observable(_unit_coeff(p.m, 1, {0: 1}), p),
        "v1x_h2": hermite_observable(_unit_coeff(p.m, 2, {0: 2}), p),
        "system_energy": BlockObservable(_system_energy, (p.m,)),
        "total_energy": BlockObservable(_total_energy, (p.m,)),
        "momentum_x": BlockObservable(_momentum_x, (p.m,)),
    }


def _record_times(cfg: RunConfig) -> np.ndarray:
    if cfg.record_times is not None:
        return np.asarray(cfg.record_times, dtype=float)
    return default_time_grid(cfg.t_end, count=cfg.grid["count"],
                             t_min=cfg.grid["t_min"])


# ---------------------------------------------------------------------------
# checks: each claim has one threshold, read by its subcommand right after
# the artifact is written and by `report` from the artifact on disk

# numpy's reductions propagate a NaN, where Python's min and max skip one
# after their first argument; a non-finite value a check reads fails it

def _columns(rows, *names) -> np.ndarray:
    return np.array([[float(r[name]) for r in rows] for name in names])


def _check_bound_rows(rows) -> tuple[bool, str]:
    cols = _columns(rows, "bound", "bound_term1", "bound_term2")
    bound, term1, term2 = cols
    split = float(np.max(np.abs(bound - term1 - term2)))
    ok = bool(np.isfinite(cols).all()) and split <= 1e-12
    return ok, f"max term-split defect {split:.3e}"


def _check_distance_rows(rows) -> tuple[bool, str]:
    distance, bound = _columns(rows, "distance", "bound")
    slack = float(np.min(bound - distance))
    split_ok, split = _check_bound_rows(rows)
    ok = split_ok and bool(np.isfinite(distance).all()) and slack >= -1e-9
    return ok, f"min slack {slack:.3e}, {split}"


def _check_lemma1_rows(rows) -> tuple[bool, str]:
    cols = _columns(rows, "ratio", "C", "stderr")
    ratio, c, stderr = cols
    worst = float(np.max(ratio - (c + 3.0 * stderr)))
    ok = bool(np.isfinite(cols).all()) and worst <= 0.0
    return ok, f"worst ratio excess over C + 3 stderr: {worst:.3e}"


def _check_moment_rows(rows) -> tuple[bool, str]:
    ok = all(np.isfinite(float(r["mean"])) and float(r["std_error"]) >= 0.0
             and int(r["n_samples"]) >= 1 for r in rows)
    return ok, f"{len(rows)} records structurally sound" if ok else "bad record"


def _check_lemma2_json(doc) -> tuple[bool, str]:
    ok = doc["identity_defect"] <= 1e-9 and doc["bound_violation"] <= 1e-12
    return ok, (f"identity defect {doc['identity_defect']:.3e}, "
                f"bound violation {doc['bound_violation']:.3e}")


def _check_lemma3_json(doc) -> tuple[bool, str]:
    top, first = doc["top_eigenvalue"], doc["degree1_eigenvalue"]
    routes = [*doc["tensor_route"].values(), *doc["matrix_route"].values()]
    ok = (bool(np.isfinite(routes).all())
          and top <= LEMMA3_SUP + 1e-10
          and abs(first - LEMMA3_SUP) <= 1e-12
          and doc["route_disagreement"] <= 1e-9)
    return ok, (f"top eigenvalue {top!r}, degree-1 eigenvalue {first!r}, "
                f"route disagreement {doc['route_disagreement']:.3e}")


def _check_scaling_json(doc) -> tuple[bool, str]:
    ok = 0.8 <= doc["p"] <= 1.2 and 0.3 <= doc["q"] <= 0.7
    return ok, f"p = {doc['p']:.3f}, q = {doc['q']:.3f}"


def _check_gap_json(doc) -> tuple[bool, str]:
    # one kappa and one kernel count per degree 1..d; every kernel is the
    # span of the P^a E^b of its degree, and k is the smallest kappa
    counts, kappa = doc["kernel_counts"], doc["kappa"]
    want = [conserved_count(m) for m in range(1, doc["degree"] + 1)]
    ok = (doc["k_hat"] > 0.0 and doc["l_hat"] >= 0.0 and counts == want
          and len(kappa) == len(want) and doc["k_hat"] == min(kappa))
    return ok, (f"k_hat = {doc['k_hat']:.6g} (degree {doc['k_degree']}, multiplicity "
                f"{doc['k_multiplicity']}), l_hat = {doc['l_hat']:.6g}, kernel counts "
                f"{counts} against {want}")


def _raise_if_failed(kind: str, result: tuple[bool, str]) -> None:
    """Raise ToleranceError with the check's detail unless it passed."""
    passed, detail = result
    if not passed:
        raise ToleranceError(f"{kind}: {detail}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(cfg: RunConfig, args) -> int:
    p = _model(cfg)
    times = _record_times(cfg)
    sim = SimConfig(t_end=cfg.t_end, record_times=tuple(float(t) for t in times),
                    ensemble=cfg.ensemble, seed=cfg.seed,
                    system_kind=cfg.system_kind)
    if cfg.init["kind"] == "equilibrium":
        init = EquilibriumInit()
    else:
        init = PerturbationInit(
            perturbation_data(cfg.init["family"], cfg.init["eps"], cfg.m))
    registry = observable_registry(p)
    try:
        obs = {name: registry[name] for name in cfg.observables}
    except KeyError as exc:
        raise ConfigError(f"unknown observable {exc.args[0]!r}") from exc
    records = run_ensemble(sim, p, init, obs, workers=cfg.threads)
    write_csv(args.out, ["time", "observable", "mean", "std_error", "n_samples"],
              [(r.time, r.observable, r.mean, r.std_error, r.n_samples)
               for r in records])
    return 0


def cmd_spectral(cfg: RunConfig, args) -> int:
    p = _model(cfg)
    if cfg.operator == "bath_map":
        op = assemble_T(p.m, cfg.degree)
    else:
        op = assemble_generator(cfg.operator, p, cfg.degree)
    write_matrix(args.out, op)
    return 0


def cmd_verify_lemma1(cfg: RunConfig, args) -> int:
    ms = cfg.system_sizes if cfg.system_sizes is not None else (cfg.m,)
    ns = cfg.reservoir_sizes if cfg.reservoir_sizes is not None else (cfg.n,)
    header = ["M", "N", "C", "ratio", "stderr", "samples"]
    rows = []
    for row_id, (m, n) in enumerate((m, n) for m in ms for n in ns):
        h = perturbation_data(cfg.init["family"], cfg.init["eps"], m)
        est = estimate_lemma1_ratio(h, m, n, cfg.samples,
                                    RngStream(cfg.seed, row_id), inner=cfg.inner)
        rows.append((m, n, lemma1_constant(m, n), est.ratio, est.stderr,
                     cfg.samples * cfg.inner))
    write_csv(args.out, header, rows)
    _raise_if_failed("projector-contraction",
                     _check_lemma1_rows([dict(zip(header, r)) for r in rows]))
    return 0


def cmd_verify_lemma2(cfg: RunConfig, args) -> int:
    p = _model(cfg)
    ctx = SpectralContext(p, cfg.degree)
    basis = make_basis(3 * cfg.m, cfg.degree)
    us = [HermiteCoeffs(basis, RngStream(cfg.seed, trial).rng.standard_normal(basis.size))
          for trial in range(cfg.random_polynomials)]
    trials = [{"lhs": res.lhs, "rhs": res.rhs, "variance_bound": res.variance_bound}
              for res in verify_lemma2(us, ctx)]
    payload = {
        "m": cfg.m, "n": cfg.n, "degree": cfg.degree,
        "random_polynomials": cfg.random_polynomials,
        "identity_defect": float(np.max([abs(t["lhs"] - t["rhs"]) for t in trials])),
        "bound_violation": float(np.max([t["lhs"] - t["variance_bound"] for t in trials])),
        "trials": trials,
    }
    write_json(args.out, payload)
    _raise_if_failed("rotation-average-identity", _check_lemma2_json(payload))
    return 0


def cmd_verify_lemma3(cfg: RunConfig | None, args) -> int:
    max_degree = args.max_degree
    lo, hi = DEGREE_RANGE
    if not lo <= max_degree <= hi:
        raise ConfigError(f"max degree must be in {lo}..{hi}, got {max_degree}")
    blocks = bath_map_blocks(max_degree)
    # both routes give all C(deg + 2, 2) eigenvalues of each degree block
    spectra = {str(deg): (np.sort(symmetric_tensor_eigenvalues(deg)),
                          np.sort(np.linalg.eigvalsh(blocks[deg])))
               for deg in range(1, max_degree + 1)}
    matrix_route = {k: float(mat[-1]) for k, (_, mat) in spectra.items()}
    payload = {
        "max_degree": max_degree,
        "supremum": LEMMA3_SUP,
        "tensor_route": {k: float(ten[-1]) for k, (ten, _) in spectra.items()},
        "matrix_route": matrix_route,
        "route_disagreement": float(np.max([np.abs(ten - mat).max()
                                            for ten, mat in spectra.values()])),
        "top_eigenvalue": float(np.max(list(matrix_route.values()))),
        "degree1_eigenvalue": matrix_route["1"],
    }
    if args.out:
        write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    _raise_if_failed("bath-map-spectrum", _check_lemma3_json(payload))
    return 0


def cmd_gap(cfg: RunConfig, args) -> int:
    if cfg.system_kind != "reservoir":
        # the thermostat flow conserves neither the total momentum P nor the
        # total energy E. Its kernel is the reservoir's own momentum and
        # energy polynomials, as many per degree as the P^a E^b, so the
        # gap's kernel count would pass on another space, and the rate off
        # it is not the k of the reservoir coupling that the bound takes
        raise ConfigError(
            f"gap is defined for system_kind 'reservoir' only, got {cfg.system_kind!r}")
    ctx = SpectralContext(_model(cfg), cfg.degree)
    k_hat = spectral_gap(ctx)
    first = k_block(ctx)
    l_hat = estimate_l(cfg.degree)
    write_json(args.out, {
        "m": cfg.m, "n": cfg.n, "degree": cfg.degree,
        "lambda_s": cfg.lambda_s, "lambda_r": cfg.lambda_r, "mu": cfg.mu,
        "system_kind": cfg.system_kind,
        "k_hat": k_hat, "l_hat": l_hat,
        "k_degree": first.degree, "k_multiplicity": first.multiplicity,
        "kappa": [b.kappa for b in ctx.gap_blocks],
        "kernel_counts": [b.kernel_count for b in ctx.gap_blocks],
    })
    return 0


def cmd_distance(cfg: RunConfig, args) -> int:
    ctx = SpectralContext(_model(cfg), cfg.degree)
    h0 = perturbation_data(cfg.init["family"], cfg.init["eps"], cfg.m)
    times = _record_times(cfg)
    curve = distance_curve(ctx, h0, times)
    bp = measured_bound_params(ctx, h0)
    bc = bound_curve(bp, cfg.m, cfg.n, times)
    header = ["t", "distance", "bound", "bound_term1", "bound_term2"]
    rows = list(zip(curve.times, curve.distance, bc.total, bc.term1, bc.term2))
    write_csv(args.out, header, rows)
    _raise_if_failed("distance-vs-bound",
                     _check_distance_rows([dict(zip(header, r)) for r in rows]))
    return 0


def cmd_bound(cfg: RunConfig, args) -> int:
    if cfg.reservoir_sizes is not None:
        study = scaling_study(
            cfg.m, ns=cfg.reservoir_sizes, eps=cfg.eps,
            lambda_s=cfg.lambda_s, lambda_r=cfg.lambda_r, mu=cfg.mu, d=cfg.degree)
        write_json(args.out, {
            "m": study.m, "degree": study.degree, "eps": study.eps,
            "rows": [{"n": r.n, "limit": r.limit, "gap": r.gap,
                      "bump": r.bump} for r in study.rows],
            "p": study.p, "q": study.q,
        })
        return 0
    ctx = SpectralContext(_model(cfg), cfg.degree)
    h0 = perturbation_data(cfg.init["family"], cfg.init["eps"], cfg.m)
    times = _record_times(cfg)
    bp = measured_bound_params(ctx, h0)
    bc = bound_curve(bp, cfg.m, cfg.n, times)
    header = ["t", "bound", "bound_term1", "bound_term2"]
    rows = list(zip(bc.times, bc.total, bc.term1, bc.term2))
    write_csv(args.out, header, rows)
    _raise_if_failed("bound-envelope",
                     _check_bound_rows([dict(zip(header, r)) for r in rows]))
    return 0


# ---------------------------------------------------------------------------
# report: recognize result files by shape and re-check their claims

_CSV_CHECKS = {
    ("t", "distance", "bound", "bound_term1", "bound_term2"):
        ("distance-vs-bound", _check_distance_rows),
    ("t", "bound", "bound_term1", "bound_term2"):
        ("bound-envelope", _check_bound_rows),
    ("M", "N", "C", "ratio", "stderr", "samples"):
        ("projector-contraction", _check_lemma1_rows),
    ("time", "observable", "mean", "std_error", "n_samples"):
        ("ensemble-moments", _check_moment_rows),
}

_JSON_CHECKS = [
    ("identity_defect", "rotation-average-identity", _check_lemma2_json),
    ("tensor_route", "bath-map-spectrum", _check_lemma3_json),
    ("rows", "scaling-table", _check_scaling_json),
    ("k_hat", "spectral-gap", _check_gap_json),
]


def _read_csv_dicts(path: str) -> list[dict] | None:
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return None
        return list(reader)


def cmd_report(cfg: RunConfig | None, args) -> int:
    checks = []
    for name in sorted(os.listdir(args.dir)):
        path = os.path.join(args.dir, name)
        if not os.path.isfile(path):
            continue
        try:
            if name.endswith(".csv"):
                rows = _read_csv_dicts(path)
                if not rows:
                    continue
                kind_fn = _CSV_CHECKS.get(tuple(rows[0].keys()))
                if kind_fn is None:
                    continue
                kind, fn = kind_fn
                passed, detail = fn(rows)
            elif name.endswith(".json"):
                doc = read_json(path)
                if not isinstance(doc, dict):
                    continue
                for key, kind, fn in _JSON_CHECKS:
                    if key in doc:
                        passed, detail = fn(doc)
                        break
                else:
                    continue
            else:
                continue
        except (KeyError, ValueError, TypeError) as exc:
            kind, passed, detail = "unreadable", False, f"{type(exc).__name__}: {exc}"
        checks.append({"file": name, "kind": kind, "passed": passed,
                       "detail": detail})

    if not checks:
        raise ConfigError(f"no recognized result files in {args.dir!r}")
    overall = all(c["passed"] for c in checks)
    payload = {"directory": args.dir, "passed": overall,
               "files_checked": len(checks), "checks": checks}
    if args.out:
        write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if overall else 3


# ---------------------------------------------------------------------------
# wiring

_HANDLERS = {
    "simulate": cmd_simulate,
    "spectral": cmd_spectral,
    "verify-lemma1": cmd_verify_lemma1,
    "verify-lemma2": cmd_verify_lemma2,
    "verify-lemma3": cmd_verify_lemma3,
    "gap": cmd_gap,
    "distance": cmd_distance,
    "bound": cmd_bound,
    "report": cmd_report,
}

# subcommands that read no configuration, and what sets their input instead
_NO_CONFIG = {"verify-lemma3": "set the degree with --max-degree",
              "report": "it checks the run directory --dir"}

_NEEDS_OUT = {"simulate", "spectral", "verify-lemma1", "verify-lemma2",
              "gap", "distance", "bound"}


# parse_args keeps no state in the parser, so it is built once per process
# (1.4 ms warm on a 2-vCPU Linux VM) and every main call reuses it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kacbath",
        description="Numerical checks for a tagged particle system coupled "
                    "to a finite reservoir or an infinite bath.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        s = sub.add_parser(name)
        s.add_argument("--config", help="JSON configuration file")
        s.add_argument("--out", required=name in _NEEDS_OUT,
                       help="output file (CSV, JSON, or matrix)")
        s.add_argument("--seed", type=int, help="override the config seed")
        s.add_argument("--threads", type=int, help="override the config threads")
        if name == "verify-lemma3":
            s.add_argument("--max-degree", type=int, dest="max_degree", default=6,
                           help="highest polynomial degree to check "
                                f"({DEGREE_RANGE[0]}..{DEGREE_RANGE[1]}, default 6)")
        if name == "report":
            s.add_argument("--dir", default=".",
                           help="run directory to summarize")
    return parser


def _exit_code(exc: Exception) -> int | None:
    if isinstance(exc, (ConfigError, StateError, UnitVectorError)):
        return 2
    if isinstance(exc, (ToleranceError, DegenerateBoundError, NegativeWeightError)):
        return 3
    if isinstance(exc, OSError):
        return 4
    return None


def _check_out_dir(path: str | None) -> None:
    """Raise FileNotFoundError (exit code 4) before any work is done when the
    directory that would hold the artifact does not exist."""
    if path is None:
        return
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"output directory {directory!r} does not exist")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = None
        if args.command in _NO_CONFIG:
            for flag, what in (("config", "config file"), ("seed", "--seed"),
                               ("threads", "--threads")):
                if getattr(args, flag) is not None:
                    raise ConfigError(f"{args.command} reads no {what}; "
                                      f"{_NO_CONFIG[args.command]}")
        elif args.config is None:
            raise ConfigError("this subcommand needs --config")
        else:
            overrides = {key: getattr(args, key) for key in ("seed", "threads")
                         if getattr(args, key) is not None}
            cfg = load_config(args.config, overrides)
        _check_out_dir(args.out)
        return _HANDLERS[args.command](cfg, args)
    except (KacbathError, OSError) as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        record = {"error": type(exc).__name__, "message": str(exc),
                  "exit_code": code}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
