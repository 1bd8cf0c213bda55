"""End-to-end CLI runs in temporary directories: artifacts, exit codes,
determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from kacbath import ModelParams, assemble_T, cli, spectral
from kacbath.cli import main, perturbation_data
from kacbath.jump import BLOCK
from kacbath.output import read_matrix
from kacbath.spectral import assemble_generator


def _write_config(tmp_path, name="c.json", **fields):
    doc = {"m": 1, "n": 2}
    doc.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(*argv) -> int:
    return main(list(argv))


def test_simulate_writes_moment_csv(tmp_path):
    cfg = _write_config(
        tmp_path, t_end=0.5, record_times=[0.0, 0.5], ensemble=100,
        observables=["v1x", "system_energy"], seed=3)
    out = tmp_path / "m.csv"
    assert _run("simulate", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time,observable,mean,std_error,n_samples"
    assert len(lines) == 1 + 2 * 2


def test_simulate_deterministic_and_seed_sensitive(tmp_path):
    cfg = _write_config(tmp_path, t_end=0.5, record_times=[0.5], ensemble=64)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert _run("simulate", "--config", cfg, "--out", str(a)) == 0
    assert _run("simulate", "--config", cfg, "--out", str(b)) == 0
    assert _run("simulate", "--config", cfg, "--out", str(c), "--seed", "99") == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_threads_do_not_change_the_csv(tmp_path):
    # three member blocks; every registered observable crosses to the workers
    cfg = _write_config(
        tmp_path, t_end=0.5, record_times=[0.25, 0.5], ensemble=2 * BLOCK + 8,
        observables=["v1x", "v1x_h1", "v1x_h2", "system_energy",
                     "total_energy", "momentum_x"],
        init={"kind": "perturbation", "family": "h1_v1x", "eps": 0.1})
    one, two = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert _run("simulate", "--config", cfg, "--out", str(one)) == 0
    assert _run("simulate", "--config", cfg, "--out", str(two),
                "--threads", "2") == 0
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--threads", "0")])
def test_command_line_overrides_pass_the_schema(tmp_path, capsys, flag, value):
    cfg = _write_config(tmp_path, t_end=0.5, record_times=[0.5], ensemble=8)
    out = tmp_path / "m.csv"
    assert _run("simulate", "--config", cfg, "--out", str(out), flag, value) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert not out.exists()


@pytest.mark.parametrize("sub,m,family,eps", [
    ("verify-lemma1", 1, "h1_v1x", float("nan")),
    ("distance", 2, "h2_aniso", float("inf")),
])
def test_non_finite_eps_is_a_config_error(tmp_path, capsys, sub, m, family, eps):
    # json reads NaN and Infinity and the schema's "number" admits them;
    # the initial data refuses them in every family and at every M
    cfg = _write_config(
        tmp_path, m=m, samples=400, inner=16, degree=2, t_end=3.0,
        grid={"count": 10},
        init={"kind": "perturbation", "family": family, "eps": eps})
    out = tmp_path / "out.csv"
    assert _run(sub, "--config", cfg, "--out", str(out)) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert "eps must be finite" in record["message"]
    assert not out.exists()


def test_spectral_exports_symmetric_operator(tmp_path):
    cfg = _write_config(tmp_path, degree=2)
    out = tmp_path / "gen.mat"
    assert _run("spectral", "--config", cfg, "--out", str(out)) == 0
    mat = read_matrix(str(out))
    assert mat.shape == (55, 55)
    assert np.abs(mat - mat.T).max() < 1e-10
    # the export prints 17 significant digits, so it reads back exactly
    want = assemble_generator("reservoir", ModelParams(1, 2), 2).mat.toarray()
    assert mat.tobytes() == want.tobytes()


def test_spectral_exports_the_bath_map_exactly(tmp_path):
    cfg = _write_config(tmp_path, m=2, degree=3, operator="bath_map")
    out = tmp_path / "bath.mat"
    assert _run("spectral", "--config", cfg, "--out", str(out)) == 0
    want = assemble_T(2, 3).mat.toarray()
    assert read_matrix(str(out)).tobytes() == want.tobytes()


def test_spectral_bath_map_over_the_dense_limit_exits_before_enumeration(
        tmp_path, capsys, monkeypatch):
    # 120 tagged variables at degree 3 give 302621 rows, 733 GB dense;
    # the size is refused in closed form, before any basis is enumerated
    def refuse(nvars, degree):
        raise AssertionError(f"make_basis({nvars}, {degree}) was called")

    monkeypatch.setattr(spectral, "make_basis", refuse)
    cfg = _write_config(tmp_path, m=40, degree=3, operator="bath_map")
    out = tmp_path / "bath.mat"
    assert _run("spectral", "--config", cfg, "--out", str(out)) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert "tagged basis at M=40, degree 3 has 302621 rows" in record["message"]
    assert not out.exists()


def test_verify_lemma1_csv(tmp_path):
    cfg = _write_config(
        tmp_path, samples=400, inner=16, system_sizes=[1],
        reservoir_sizes=[2], init={"kind": "perturbation", "eps": 0.4})
    out = tmp_path / "l1.csv"
    assert _run("verify-lemma1", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "M,N,C,ratio,stderr,samples"
    assert len(lines) == 2


def test_verify_lemma2_json(tmp_path):
    cfg = _write_config(tmp_path, degree=2, random_polynomials=5)
    out = tmp_path / "l2.json"
    assert _run("verify-lemma2", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["identity_defect"] <= 1e-9
    assert doc["bound_violation"] <= 1e-12
    assert len(doc["trials"]) == 5


def test_verify_lemma3_needs_no_config(tmp_path, capsys):
    out = tmp_path / "l3.json"
    assert _run("verify-lemma3", "--max-degree", "3", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["top_eigenvalue"] <= 2.0 / 3.0 + 1e-10
    assert set(doc["matrix_route"]) == {"1", "2", "3"}
    # without --out the report goes to stdout
    assert _run("verify-lemma3", "--max-degree", "1") == 0
    streamed = json.loads(capsys.readouterr().out)
    assert streamed["degree1_eigenvalue"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_verify_lemma3_catches_a_shifted_eigenvalue_below_the_top(
        tmp_path, monkeypatch, capsys):
    # 7/15 of degree 2 moves by 1e-6; the top eigenvalues still agree
    real = cli.symmetric_tensor_eigenvalues

    def shifted(deg):
        ev = np.sort(real(deg))
        if deg == 2:
            ev[0] += 1e-6
        return ev

    monkeypatch.setattr(cli, "symmetric_tensor_eigenvalues", shifted)
    out = tmp_path / "l3.json"
    assert _run("verify-lemma3", "--max-degree", "3", "--out", str(out)) == 3
    doc = json.loads(out.read_text())
    for deg in ("1", "2", "3"):
        assert abs(doc["tensor_route"][deg] - doc["matrix_route"][deg]) <= 1e-14
    assert doc["route_disagreement"] == pytest.approx(1e-6, rel=1e-6)
    assert "route disagreement 1.000e-06" in capsys.readouterr().err


def test_gap_json(tmp_path):
    cfg = _write_config(tmp_path, degree=2)
    out = tmp_path / "gap.json"
    assert _run("gap", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["k_hat"] == pytest.approx(0.5, abs=1e-9)
    assert doc["l_hat"] == pytest.approx(0.49888765156985887, abs=1e-9)


def _count_calls(monkeypatch, name: str, key) -> Counter:
    """Count calls of spectral.<name> made from any kacbath module, by key(args)."""
    calls = Counter()
    real = getattr(spectral, name)

    def counted(*args, **kwargs):
        calls[key(*args)] += 1
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "kacbath" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_gap_rejects_the_thermostat_before_assembly(tmp_path, capsys, monkeypatch):
    # the thermostat flow does not conserve total momentum and energy, so
    # the invariant projector is the wrong subspace for its gap
    built = _count_calls(monkeypatch, "joint_basis", lambda p, d: (p.n, d))
    cfg = _write_config(tmp_path, degree=2, system_kind="thermostat")
    out = tmp_path / "gap.json"
    assert _run("gap", "--config", cfg, "--out", str(out)) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and "thermostat" in record["message"]
    assert not out.exists()
    assert not built


def test_each_operator_is_built_once_per_configuration(tmp_path, monkeypatch):
    # the gap reads the joint reservoir generator and the distance curve
    # both sector generators; no joint thermostat generator is built
    generators = _count_calls(monkeypatch, "assemble_generator",
                              lambda kind, p, d: (kind, p.n, d))
    sector = _count_calls(monkeypatch, "assemble_sector_generator",
                          lambda kind, p, d: (kind, p.n, d))
    bases = _count_calls(monkeypatch, "joint_basis", lambda p, d: (p.n, d))
    study = _write_config(tmp_path, "study.json", degree=2, eps=0.2,
                          reservoir_sizes=[2, 4], t_end=70.0, grid={"count": 36})
    assert _run("bound", "--config", study, "--out", str(tmp_path / "s.json")) == 0
    dist = _write_config(tmp_path, "dist.json", n=3, degree=2, t_end=3.0,
                         grid={"count": 10},
                         init={"kind": "perturbation", "family": "h2_aniso", "eps": 0.2})
    assert _run("distance", "--config", dist, "--out", str(tmp_path / "d.csv")) == 0
    sizes = (2, 4, 3)
    assert generators == {("reservoir", n, 2): 1 for n in sizes}
    assert sector == {(kind, n, 2): 1 for kind in ("reservoir", "thermostat")
                      for n in sizes}
    assert bases == {(n, 2): 1 for n in sizes}


def test_verify_lemma2_enumerates_the_joint_basis_once(tmp_path, monkeypatch):
    # every trial and every interaction pair share one spectral context
    bases = _count_calls(monkeypatch, "joint_basis", lambda p, d: (p.n, d))
    cfg = _write_config(tmp_path, n=3, degree=2, random_polynomials=4)
    assert _run("verify-lemma2", "--config", cfg, "--out", str(tmp_path / "l2.json")) == 0
    assert bases == {(3, 2): 1}


def test_distance_csv_contract(tmp_path):
    cfg = _write_config(
        tmp_path, t_end=3.0, grid={"count": 10}, degree=2,
        init={"kind": "perturbation", "family": "h2_aniso", "eps": 0.2})
    out = tmp_path / "curve.csv"
    assert _run("distance", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,distance,bound,bound_term1,bound_term2"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    for t, d, bound, t1, t2 in rows:
        assert d <= bound + 1e-9
        assert bound == pytest.approx(t1 + t2, abs=1e-12)


def test_bound_single_curve(tmp_path):
    cfg = _write_config(tmp_path, t_end=3.0, grid={"count": 8}, degree=2)
    out = tmp_path / "b.csv"
    assert _run("bound", "--config", cfg, "--out", str(out)) == 0
    assert out.read_text().splitlines()[0] == "t,bound,bound_term1,bound_term2"


def test_bound_scaling_mode(tmp_path):
    cfg = _write_config(
        tmp_path, t_end=70.0, grid={"count": 30}, degree=2, eps=0.2,
        reservoir_sizes=[2, 4])
    out = tmp_path / "scal.json"
    assert _run("bound", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert [r["n"] for r in doc["rows"]] == [2, 4]
    assert doc["p"] > 0.0 and doc["q"] > 0.0


@pytest.mark.parametrize("key,value", [("cross_check", False), ("max_degree", 3)])
def test_retired_config_keys_are_rejected_by_name(tmp_path, capsys, key, value):
    # the evolution cross-check cannot be switched off, and --max-degree
    # is the one way to set verify-lemma3's degree
    cfg = _write_config(tmp_path, degree=2, **{key: value})
    assert _run("gap", "--config", cfg, "--out", str(tmp_path / "gap.json")) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and repr(key) in record["message"]
    assert not (tmp_path / "gap.json").exists()


def test_verify_lemma3_rejects_a_config_file(tmp_path, capsys, monkeypatch):
    # verify-lemma3 and report read no config field, so --config, --seed
    # and --threads are refused before any file is read, even a missing one
    loaded = []
    monkeypatch.setattr(cli, "load_config", lambda *args: loaded.append(args))
    cfg = _write_config(tmp_path, degree=2)
    out = tmp_path / "l3.json"
    hint = {"verify-lemma3": "set the degree with --max-degree",
            "report": "it checks the run directory --dir"}
    for sub, flags, what in [
        ("verify-lemma3", ["--config", cfg], "config file"),
        ("verify-lemma3", ["--seed", "3"], "--seed"),
        ("verify-lemma3", ["--threads", "2"], "--threads"),
        ("report", ["--config", cfg], "config file"),
        ("report", ["--config", str(tmp_path / "missing.json")], "config file"),
        ("report", ["--seed", "3"], "--seed"),
        ("report", ["--threads", "2"], "--threads"),
    ]:
        extra = ["--dir", str(tmp_path)] if sub == "report" else []
        assert _run(sub, *flags, *extra, "--out", str(out)) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ConfigError", "exit_code": 2,
                          "message": f"{sub} reads no {what}; {hint[sub]}"}
        assert not out.exists() and not loaded


def test_verify_lemma3_reaches_the_schema_degree(tmp_path, capsys):
    # --max-degree has the range of the config's degree, 1..8
    rundir = tmp_path / "run"
    rundir.mkdir()
    out = rundir / "l3.json"
    assert _run("verify-lemma3", "--max-degree", "8", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert set(doc["matrix_route"]) == {str(deg) for deg in range(1, 9)}
    assert doc["top_eigenvalue"] <= 2.0 / 3.0 + 1e-10
    assert _run("report", "--dir", str(rundir)) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["file"] == "l3.json" and check["passed"] is True
    assert _run("verify-lemma3", "--max-degree", "9", "--out", str(tmp_path / "l9.json")) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["message"] == "max degree must be in 1..8, got 9"
    assert not (tmp_path / "l9.json").exists()


def test_bound_with_one_reservoir_size_is_a_config_error(tmp_path, capsys):
    # one size gives no exponent to fit; it must not fall back to the
    # single curve at N
    cfg = _write_config(tmp_path, t_end=3.0, grid={"count": 8}, degree=2,
                        reservoir_sizes=[16])
    out = tmp_path / "b.json"
    assert _run("bound", "--config", cfg, "--out", str(out)) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert "at least two reservoir sizes" in record["message"]
    assert not out.exists()


def test_bound_with_duplicate_reservoir_sizes_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, t_end=3.0, grid={"count": 8}, degree=2,
                        reservoir_sizes=[4, 4])
    out = tmp_path / "b.json"
    assert _run("bound", "--config", cfg, "--out", str(out)) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert "reservoir sizes must be distinct" in record["message"]
    assert not out.exists()


def _wrap_result(monkeypatch, name, change):
    """Rebind cli.<name> so that its result passes through `change`."""
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: change(real(*a, **k)))


_FAILING_RUNS = {
    "verify-lemma1": (
        "l1.csv", dict(samples=400, inner=16,
                       init={"kind": "perturbation", "eps": 0.4}),
        lambda mp: _wrap_result(mp, "estimate_lemma1_ratio",
                                lambda est: est._replace(ratio=10.0))),
    "verify-lemma2": (
        "l2.json", dict(degree=2, random_polynomials=2),
        lambda mp: _wrap_result(mp, "verify_lemma2", lambda results: [
            res._replace(lhs=res.lhs + 1e-6) for res in results])),
    "verify-lemma3": (
        "l3.json", None,
        lambda mp: _wrap_result(mp, "symmetric_tensor_eigenvalues",
                                lambda ev: ev + 1e-6)),
    "distance": (
        "curve.csv", dict(t_end=3.0, grid={"count": 10}, degree=2,
                          init={"kind": "perturbation", "family": "h2_aniso",
                                "eps": 0.2}),
        lambda mp: _wrap_result(mp, "distance_curve", lambda c: dataclasses.replace(
            c, distance=tuple(d + 1.0 for d in c.distance)))),
}


@pytest.mark.parametrize("sub", sorted(_FAILING_RUNS))
def test_failed_verification_keeps_the_artifact_and_report_agrees(
        tmp_path, capsys, monkeypatch, sub):
    # the subcommand and report judge the artifact with one check: the
    # subcommand exits 3 with the very detail report finds on disk
    name, fields, break_one_value = _FAILING_RUNS[sub]
    break_one_value(monkeypatch)
    rundir = tmp_path / "run"
    rundir.mkdir()
    out = rundir / name
    argv = [sub, "--out", str(out)]
    if fields is None:
        argv += ["--max-degree", "2"]
    else:
        argv += ["--config", _write_config(tmp_path, **fields)]
    assert _run(*argv) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ToleranceError" and record["exit_code"] == 3
    assert out.exists()
    assert _run("report", "--dir", str(rundir)) == 3
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["file"] == name and check["passed"] is False
    assert record["message"] == f"{check['kind']}: {check['detail']}"


def test_report_aggregates_and_flags_failures(tmp_path, capsys):
    cfg = _write_config(tmp_path, degree=2)
    rundir = tmp_path / "run"
    rundir.mkdir()
    assert _run("gap", "--config", cfg, "--out", str(rundir / "gap.json")) == 0
    assert _run("report", "--dir", str(rundir),
                "--out", str(rundir / "report.json")) == 0
    doc = json.loads((rundir / "report.json").read_text())
    assert doc["passed"] is True and doc["files_checked"] == 1

    # a hand-broken distance table must flip the report to failing
    (rundir / "curve.csv").write_text(
        "t,distance,bound,bound_term1,bound_term2\n"
        "1,0.5,0.1,0.1,0\n")
    assert _run("report", "--dir", str(rundir)) == 3
    streamed = json.loads(capsys.readouterr().out)
    assert streamed["passed"] is False


def test_report_empty_directory_is_a_config_error(tmp_path, capsys):
    assert _run("report", "--dir", str(tmp_path)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_exit_codes(tmp_path, capsys):
    # missing config file: I/O
    assert _run("gap", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "g.json")) == 4
    # schema violation: config error
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 1}')
    assert _run("gap", "--config", str(bad),
                "--out", str(tmp_path / "g.json")) == 2
    # unwritable output path: I/O
    good = _write_config(tmp_path)
    assert _run("gap", "--config", good,
                "--out", str(tmp_path / "missing" / "g.json")) == 4
    records = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
    assert [r["exit_code"] for r in records] == [4, 2, 4]


@pytest.mark.parametrize("sub,name", [("simulate", "m.csv"), ("gap", "g.json"),
                                      ("spectral", "gen.mat")])
def test_failed_rename_leaves_no_artifact(tmp_path, capsys, monkeypatch, sub, name):
    # every writer renames a finished temp file over the target; when the
    # rename fails, the run exits 4 and neither file is left behind
    cfg = _write_config(tmp_path, degree=1, t_end=0.5, record_times=[0.5], ensemble=8)
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert _run(sub, "--config", cfg, "--out", str(out_dir / name)) == 4
    assert list(out_dir.iterdir()) == []
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["exit_code"] == 4 and record["message"] == "rename refused"


def test_unknown_observable_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, observables=["system_energy"])
    doc = json.loads(open(cfg).read())
    doc["observables"] = ["nonsense"]
    # bypass schema on purpose: the runtime registry must still catch it
    from kacbath.cli import observable_registry
    from kacbath.kinematics import ModelParams

    assert "nonsense" not in observable_registry(ModelParams(1, 2))


def test_perturbation_families_have_unit_mean():
    for fam in ("h1_v1x", "h2_aniso"):
        for m in (1, 2):
            h = perturbation_data(fam, 0.2, m)
            assert h.mean() == pytest.approx(1.0, abs=0)
            assert h.fluctuation_norm() > 0.0


def test_the_package_imports_no_ode_integrator():
    # evolve's cross-check is a dense eigendecomposition, so scipy.integrate
    # (and the optimize and special modules it pulls in) stays out of every
    # kacbath process; the benchmark's tracer still resolves solve_ivp
    code = (
        "import sys, kacbath, kacbath.cli\n"
        "heavy = [m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special')\n"
        "         if m in sys.modules]\n"
        "assert not heavy, heavy\n"
        "from kacbath import evolution\n"
        "assert evolution.solve_ivp.__module__.startswith('scipy.integrate')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
