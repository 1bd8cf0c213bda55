"""Spans around calls into kacbath's public functions, for the traced mode.

Nothing under src/ is edited. `install` rebinds, in every loaded kacbath
module, each name that refers to a traced function, so calls made from
inside the package (cli -> bounds -> evolution -> spectral -> hermite)
are caught as nested spans. Spans are kept in memory as
(name, start, end, parent index) and summarized when the pass ends.

Work counts are taken at the same boundaries from arguments and
results. In pool workers the wrappers still run, but their spans die
with the worker: only the parent's spans are reported.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

import kacbath.bounds as bounds
import kacbath.config as config
import kacbath.evolution as evolution
import kacbath.hermite as hermite
import kacbath.jump as jump
import kacbath.output as output
import kacbath.projector as projector
import kacbath.randomness as randomness
import kacbath.spectral as spectral
import numpy as np

# The recorder of this process; a module global so that the picklable
# observable wrapper can reach it after a fork.
_active = None


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.off = False     # set while the benchmark runs its own checks

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float):
        self.counts[key] = max(self.counts.get(key, 0), value)

    @contextlib.contextmanager
    def paused(self):
        self.off = True
        try:
            yield
        finally:
            self.off = False

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def leave(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.off:
                return fn(*args, **kwargs)
            idx = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave(idx)
            if count is not None:
                count(self, args, kwargs, out)
            return out
        return traced


class TimedObservable:
    """Picklable observable wrapper, so the pool op behaves as untraced."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, state):
        rec = _active
        if rec.off:
            return self.fn(state)
        idx = rec.enter("jump.observable")
        try:
            return self.fn(state)
        finally:
            rec.leave(idx)


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _replace(orig, new):
    """Point every kacbath module-level name bound to `orig` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "kacbath" or mod_name.startswith("kacbath."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)


def _rebind(rec: Recorder, owner, attr: str, name: str, count=None):
    if isinstance(owner, type):
        setattr(owner, attr, rec.wrap(name, owner.__dict__[attr], count))
    else:
        orig = getattr(owner, attr)
        _replace(orig, rec.wrap(name, orig, count))


def _timed_observables(run_ensemble):
    """run_ensemble with each observable wrapped in a TimedObservable."""
    @functools.wraps(run_ensemble)
    def run(cfg, p, init, observables, *args, **kwargs):
        timed = {k: TimedObservable(fn) for k, fn in observables.items()}
        return run_ensemble(cfg, p, init, timed, *args, **kwargs)
    return run


def _count_events(rec, args, kwargs, out):
    cfg, p = _arg(args, kwargs, 0, "cfg"), _arg(args, kwargs, 1, "p")
    rec.add("jump.members", cfg.ensemble)
    rec.add("jump.events_expected",
            jump.event_rates(p, cfg.system_kind).total * cfg.t_end * cfg.ensemble)


def _count_output(rec, args, kwargs, out):
    rec.add("output.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_assemble(rec, args, kwargs, out):
    rec.add("spectral.assemble_calls", 1)
    rec.peak("spectral.basis_size_max", out.basis.size)


def _count_samples(rec, args, kwargs, out):
    rec.add("projector.samples", out.outer * out.inner)


def install() -> Recorder:
    """Wrap the traced functions of every kacbath layer; return the recorder."""
    global _active
    rec = Recorder()
    _active = rec
    plan = [
        (hermite, "make_basis", "hermite.make_basis",
         lambda r, a, k, out: r.add("hermite.basis_rows", out.size)),
        (hermite, "evaluate_basis", "hermite.evaluate_basis",
         lambda r, a, k, out: r.add("hermite.evaluate_basis_points", out.shape[0])),
        (hermite.HermiteCoeffs, "evaluate", "hermite.coeffs_evaluate",
         lambda r, a, k, out: r.add("hermite.coeffs_evaluate_calls", 1)),
        (spectral, "pair_avg_block", "spectral.pair_avg_block",
         lambda r, a, k, out: r.add("spectral.quadrature_calls", 1)),
        (spectral, "thermostat_block", "spectral.thermostat_block",
         lambda r, a, k, out: r.add("spectral.quadrature_calls", 1)),
        (spectral, "assemble_generator", "spectral.assemble_generator", _count_assemble),
        (spectral, "invariant_projector", "spectral.invariant_projector", None),
        (spectral, "spectral_gap", "spectral.spectral_gap", None),
        (spectral, "symmetric_tensor_eigenvalues", "spectral.tensor_route", None),
        (spectral, "verify_lemma2", "spectral.verify_lemma2", None),
        (evolution, "evolve", "evolution.evolve", None),
        (evolution, "solve_ivp", "evolution.dop853", None),
        (evolution, "distance_curve", "evolution.distance_curve", None),
        (bounds, "estimate_l", "bounds.estimate_l", None),
        (bounds, "bound_curve", "bounds.bound_curve", None),
        (bounds, "scaling_study", "bounds.scaling_study", None),
        (projector, "estimate_lemma1_ratio", "projector.lemma1", _count_samples),
        (jump, "run_ensemble", "jump.run_ensemble", _count_events),
        (jump.EquilibriumInit, "sample", "jump.init_sample", None),
        (jump.PerturbationInit, "sample", "jump.init_sample", None),
        (randomness.RngStream, "__init__", "randomness.stream",
         lambda r, a, k, out: r.add("randomness.streams_built", 1)),
        (output, "write_csv", "output.write", _count_output),
        (output, "write_json", "output.write", _count_output),
        (output, "write_matrix", "output.write", _count_output),
        (config, "load_config", "config.load_config", None),
    ]
    _replace(jump.run_ensemble, _timed_observables(jump.run_ensemble))
    for owner, attr, name, count in plan:
        _rebind(rec, owner, attr, name, count)
    return rec


# per-layer time metric -> span names whose outermost occurrences it sums
TIME_METRICS = {
    "hermite.make_basis_s": {"hermite.make_basis"},
    "hermite.evaluate_basis_s": {"hermite.evaluate_basis"},
    "hermite.coeffs_evaluate_s": {"hermite.coeffs_evaluate"},
    "spectral.quadrature_s": {"spectral.pair_avg_block", "spectral.thermostat_block"},
    "spectral.assemble_s": {"spectral.assemble_generator"},
    "spectral.projector_s": {"spectral.invariant_projector"},
    "spectral.gap_s": {"spectral.spectral_gap"},
    "spectral.tensor_route_s": {"spectral.tensor_route"},
    "evolution.dop853_s": {"evolution.dop853"},
    "bounds.estimate_l_s": {"bounds.estimate_l"},
    "bounds.bound_curve_s": {"bounds.bound_curve"},
    "projector.lemma1_s": {"projector.lemma1"},
    "jump.run_ensemble_s": {"jump.run_ensemble"},
    "jump.init_sample_s": {"jump.init_sample"},
    "jump.observable_s": {"jump.observable"},
    "output.write_s": {"output.write"},
    "config.load_s": {"config.load_config"},
}
LAYERS = ("cli", "config", "hermite", "spectral", "evolution", "bounds",
          "projector", "jump", "randomness", "output")


def summarize(rec: Recorder) -> tuple[dict, list]:
    """Per-layer metrics and a (name, parent name) table of the spans.

    A time metric sums its spans' durations, skipping spans nested in
    another span of the same metric; self time is a span's duration
    minus its children's.
    """
    spans = rec.spans
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    parent = np.array([s[3] for s in spans], dtype=int)
    child_time = np.zeros(len(spans))
    has = parent >= 0
    np.add.at(child_time, parent[has], dur[has])
    self_time = dur - child_time

    keys = list(TIME_METRICS) + ["evolution.evolve_s"]
    groups = dict(TIME_METRICS, **{"evolution.evolve_s": {"evolution.evolve"}})
    bits = {}
    for b, key in enumerate(keys):
        for name in groups[key]:
            bits[name] = bits.get(name, 0) | (1 << b)
    totals = [0.0] * len(keys)
    mask = [0] * len(spans)
    for i, name in enumerate(names):
        above = mask[parent[i]] if parent[i] >= 0 else 0
        own = bits.get(name, 0)
        mask[i] = above | own
        fresh = own & ~above
        b = 0
        while fresh:
            if fresh & 1:
                totals[b] += dur[i]
            fresh >>= 1
            b += 1
    metrics = dict(zip(keys, totals))
    metrics["evolution.eigen_s"] = (metrics.pop("evolution.evolve_s")
                                    - metrics["evolution.dop853_s"])
    assemble = [dur[i] for i, n in enumerate(names) if n == "spectral.assemble_generator"]
    metrics["spectral.assemble_max_s"] = max(assemble, default=0.0)
    layer_of = np.array([n.split(".")[0] for n in names]) if names else np.array([])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = float(self_time[layer_of == layer].sum())
    metrics["trace.spans"] = len(spans)

    table: dict = {}
    for i, name in enumerate(names):
        key = (name, names[parent[i]] if parent[i] >= 0 else "")
        row = table.setdefault(key, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += self_time[i]
    rows = [{"name": n, "parent": p, "count": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(table.items())]
    return metrics, rows
