"""End-to-end CLI runs in temporary directories: artifacts, exit codes,
determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from math import sqrt

import numpy as np
import pytest

from kacbath import ModelParams, bounds, cli, spectral
from kacbath.bounds import make_bound_params
from kacbath.cli import main, perturbation_data
from kacbath.jump import BLOCK
from kacbath.output import read_matrix
from kacbath.projector import lemma1_constant
from kacbath.spectral import assemble_T, assemble_generator

from matrix_oracle import dense


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
    want = dense(assemble_generator("reservoir", ModelParams(1, 2), 2))
    assert mat.tobytes() == want.tobytes()


def test_spectral_exports_the_bath_map_exactly(tmp_path):
    cfg = _write_config(tmp_path, m=2, degree=3, operator="bath_map")
    out = tmp_path / "bath.mat"
    assert _run("spectral", "--config", cfg, "--out", str(out)) == 0
    want = dense(assemble_T(2, 3))
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


@pytest.mark.parametrize("sub", ["verify-lemma2", "distance", "bound"])
def test_an_oversized_sector_exits_before_any_tagged_basis(tmp_path, capsys, monkeypatch, sub):
    # the sector at (M, N, d) = (16, 8, 4) has 349879 rows, over the dense
    # limit; its size is checked before the tagged basis of verify-lemma2's
    # functions or the initial data h0 is enumerated
    def refuse(nvars, degree):
        raise AssertionError(f"make_basis({nvars}, {degree}) was called")

    monkeypatch.setattr(cli, "make_basis", refuse)
    monkeypatch.setattr(bounds, "make_basis", refuse)
    cfg = _write_config(tmp_path, m=16, n=8, degree=4, t_end=3.0, grid={"count": 8},
                        init={"kind": "perturbation", "family": "h2_aniso", "eps": 0.2})
    out = tmp_path / "out"
    assert _run(sub, "--config", cfg, "--out", str(out)) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert ("reservoir-symmetric sector at M=16, N=8, degree 4 has 349879 rows"
            in record["message"])
    assert not out.exists()


def test_an_oversized_sector_in_a_sweep_exits_before_any_row(tmp_path, capsys, monkeypatch):
    # at degree 7 the sector has 5944 rows at N = 2 and 10319 at N = 3,
    # over the dense limit; every size is checked before the N = 2 row
    # assembles its generator
    def refuse(*args):
        raise AssertionError("a sector generator was assembled")

    monkeypatch.setattr(spectral, "assemble_sector_generator", refuse)
    cfg = _write_config(tmp_path, degree=7, reservoir_sizes=[2, 3, 8])
    out = tmp_path / "scaling.json"
    assert _run("bound", "--config", cfg, "--out", str(out)) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert ("reservoir-symmetric sector at M=1, N=3, degree 7 has 10319 rows"
            in record["message"])
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


def test_gap_json_names_the_block_that_sets_k(tmp_path, monkeypatch):
    # at (1, 6, 3) kappa_3 < kappa_1 = kappa_2 = (N+1)/(3N) sets k, three
    # times over; each sector block is factored once, by spectral_gap (a
    # 6-row block is also l_hat's degree-2 thermostat block)
    sizes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or real(a))
    cfg = _write_config(tmp_path, n=6, degree=3)
    out = tmp_path / "gap.json"
    assert _run("gap", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert [sizes.count(rows) for rows in (6, 27, 102)] == [2, 1, 1]
    assert doc["kernel_counts"] == [3, 7, 13]
    assert doc["kappa"][:2] == pytest.approx([7 / 18] * 2, abs=1e-12)
    assert (doc["k_degree"], doc["k_multiplicity"]) == (3, 3)
    assert doc["k_hat"] == doc["kappa"][2] < 7 / 18
    # equal rates name the lowest degree: at N=2, kappa_1 = kappa_2 = 1/2
    assert _run("gap", "--config", _write_config(tmp_path, degree=2), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert (doc["k_degree"], doc["k_multiplicity"], doc["kernel_counts"]) == (1, 3, [3, 7])


@pytest.mark.parametrize("field,value", [("kernel_counts", [3, 6, 13]),
                                         ("kernel_counts", [3, 7]),
                                         ("k_hat", 0.36)])
def test_report_fails_a_gap_whose_kernels_or_minimum_are_off(tmp_path, field, value):
    cfg = _write_config(tmp_path, n=6, degree=3)
    rundir = tmp_path / "run"
    rundir.mkdir()
    assert _run("gap", "--config", cfg, "--out", str(rundir / "gap.json")) == 0
    assert _run("report", "--dir", str(rundir)) == 0
    doc = json.loads((rundir / "gap.json").read_text())
    doc[field] = value
    (rundir / "gap.json").write_text(json.dumps(doc))
    assert _run("report", "--dir", str(rundir)) == 3


def test_integral_floats_are_read_as_integers(tmp_path):
    # JSON Schema counts 8.0 as an integer, so both configs are valid and
    # must give the same artifacts
    outs = {}
    for kind, cast in (("int", int), ("float", float)):
        gap = _write_config(tmp_path, f"{kind}-gap.json", m=cast(1), n=cast(8),
                            degree=cast(2))
        sim = _write_config(tmp_path, f"{kind}-sim.json", t_end=0.5,
                            record_times=[0.5], ensemble=cast(10))
        outs[kind] = tmp_path / f"{kind}-gap.out", tmp_path / f"{kind}-sim.out"
        assert _run("gap", "--config", gap, "--out", str(outs[kind][0])) == 0
        assert _run("simulate", "--config", sim, "--out", str(outs[kind][1])) == 0
    k_hat = [json.loads(outs[kind][0].read_text())["k_hat"] for kind in outs]
    assert k_hat[0] == k_hat[1]
    assert outs["int"][1].read_bytes() == outs["float"][1].read_bytes()


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
    # the kernel count of the reservoir gap does not apply to it
    built = _count_calls(monkeypatch, "make_sector", lambda p, d: (p.n, d))
    cfg = _write_config(tmp_path, degree=2, system_kind="thermostat")
    out = tmp_path / "gap.json"
    assert _run("gap", "--config", cfg, "--out", str(out)) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and "thermostat" in record["message"]
    assert not out.exists()
    assert not built


def test_each_operator_is_built_once_per_configuration(tmp_path, monkeypatch):
    # the distance curve builds both sector generators and the gap reads
    # the reservoir one; the sweep reads its limit and gap from the
    # reservoir one alone; nothing is built on the joint basis
    generators = _count_calls(monkeypatch, "assemble_generator",
                              lambda kind, p, d: (kind, p.n, d))
    sector = _count_calls(monkeypatch, "assemble_sector_generator",
                          lambda kind, p, sec: (kind, p.n, sec.degree))
    bases = _count_calls(monkeypatch, "joint_basis", lambda p, d: (p.n, d))
    study = _write_config(tmp_path, "study.json", degree=2, eps=0.2,
                          reservoir_sizes=[2, 4])
    assert _run("bound", "--config", study, "--out", str(tmp_path / "s.json")) == 0
    dist = _write_config(tmp_path, "dist.json", n=3, degree=2, t_end=3.0,
                         grid={"count": 10},
                         init={"kind": "perturbation", "family": "h2_aniso", "eps": 0.2})
    assert _run("distance", "--config", dist, "--out", str(tmp_path / "d.csv")) == 0
    assert sector == {("reservoir", 2, 2): 1, ("reservoir", 4, 2): 1,
                      ("reservoir", 3, 2): 1, ("thermostat", 3, 2): 1}
    assert not generators and not bases


def test_verify_lemma2_builds_one_sector_basis_and_no_joint_basis(tmp_path, monkeypatch):
    # every trial and both collision averages share one sector basis
    bases = _count_calls(monkeypatch, "joint_basis", lambda p, d: (p.n, d))
    sectors = _count_calls(monkeypatch, "make_sector", lambda p, d: (p.n, d))
    cfg = _write_config(tmp_path, n=3, degree=2, random_polynomials=4)
    assert _run("verify-lemma2", "--config", cfg, "--out", str(tmp_path / "l2.json")) == 0
    assert not bases
    assert sectors == {(3, 2): 1}


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


@pytest.mark.parametrize("n,offset", [(7, 8.28e-3), (8, -8.21e-4)])
def test_distance_on_both_sides_of_the_gap_pole(tmp_path, n, offset):
    # at d = 3 the gap k crosses mu/3 between N = 7 and N = 8, so
    # b = mu l / (k - mu/3) changes sign; the bound holds on both sides
    cfg = _write_config(tmp_path, n=n, degree=3, t_end=80.0, grid={"count": 56},
                        init={"kind": "perturbation", "family": "h2_aniso", "eps": 0.2})
    rundir = tmp_path / "run"
    rundir.mkdir()
    assert _run("distance", "--config", cfg, "--out", str(rundir / "curve.csv")) == 0
    assert _run("gap", "--config", cfg, "--out", str(rundir / "gap.json")) == 0
    assert _run("report", "--dir", str(rundir)) == 0
    doc = json.loads((rundir / "gap.json").read_text())
    assert doc["k_hat"] - 1.0 / 3.0 == pytest.approx(offset, rel=1e-2)
    bp = make_bound_params(c=lemma1_constant(1, n), lambda_s=1.0, mu=1.0,
                           k=doc["k_hat"], l=doc["l_hat"],
                           h0_norm=perturbation_data("h2_aniso", 0.2, 1).fluctuation_norm())
    assert np.sign(bp.b) == np.sign(offset)


def test_bound_single_curve(tmp_path):
    cfg = _write_config(tmp_path, t_end=3.0, grid={"count": 8}, degree=2)
    rundir = tmp_path / "run"
    rundir.mkdir()
    out = rundir / "b.csv"
    assert _run("bound", "--config", cfg, "--out", str(out)) == 0
    assert out.read_text().splitlines()[0] == "t,bound,bound_term1,bound_term2"
    assert _run("report", "--dir", str(rundir)) == 0


def test_bound_scaling_mode(tmp_path):
    cfg = _write_config(tmp_path, degree=2, eps=0.2, reservoir_sizes=[2, 4])
    out = tmp_path / "scal.json"
    assert _run("bound", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert [r["n"] for r in doc["rows"]] == [2, 4]
    assert doc["p"] > 0.0 and doc["q"] > 0.0


@pytest.mark.parametrize("m", [1, 2])
def test_bound_scaling_mode_limits_pass_report(tmp_path, m):
    # h0 lives on all 3M tagged variables; data orthogonal to momentum and
    # energy ends at its projection on the conserved momentum quadratics,
    # eps sqrt(2) / (M + N), which the p fit against M + N reads as p = 1
    cfg = _write_config(tmp_path, m=m, degree=2, eps=0.2, reservoir_sizes=[2, 4, 8])
    rundir = tmp_path / "run"
    rundir.mkdir()
    out = rundir / "scal.json"
    assert _run("bound", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["m"] == m and [r["n"] for r in doc["rows"]] == [2, 4, 8]
    for row in doc["rows"]:
        assert abs(row["limit"] - 0.2 * sqrt(2.0) / (m + row["n"])) <= 1e-12
    assert abs(doc["p"] - 1.0) <= 1e-12
    assert _run("report", "--dir", str(rundir)) == 0


@pytest.mark.parametrize("sub", sorted(set(cli._HANDLERS) - set(cli._NO_CONFIG)))
def test_a_subcommand_without_a_config_exits_2(tmp_path, capsys, sub):
    out = tmp_path / "out"
    assert _run(sub, "--out", str(out)) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "ConfigError", "exit_code": 2,
                      "message": "this subcommand needs --config"}
    assert not out.exists()


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
    "bound": (
        "bound.csv", dict(t_end=3.0, grid={"count": 8}, degree=2),
        lambda mp: _wrap_result(mp, "bound_curve", lambda bc: bc._replace(
            total=tuple(b + 1e-6 for b in bc.total)))),
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


_NAN_ARTIFACTS = {
    # a NaN after the first row, where Python's min and max skip it
    "curve.csv": "t,distance,bound,bound_term1,bound_term2\n"
                 + "".join(f"{t},0.01,0.5,0.25,0.25\n" for t in range(3))
                 + "3,nan,0.5,0.25,0.25\n4,0.01,0.5,0.25,0.25\n",
    "bound.csv": "t,bound,bound_term1,bound_term2\n"
                 "0,0,0,0\n1,0.5,0.25,0.25\n2,nan,0.25,0.25\n",
    "l1.csv": "M,N,C,ratio,stderr,samples\n"
              "1,2,0.9,0.5,0.01,100\n1,4,0.8,nan,0.01,100\n1,8,0.7,0.4,0.01,100\n",
    "moments.csv": "time,observable,mean,std_error,n_samples\n"
                   "0.4,v1x_h1,1.0,0.01,100\n0.8,v1x_h1,nan,0.01,100\n",
}


@pytest.mark.parametrize("name", sorted(_NAN_ARTIFACTS))
def test_report_fails_a_nan_in_a_later_row(tmp_path, capsys, name):
    (tmp_path / name).write_text(_NAN_ARTIFACTS[name])
    assert _run("report", "--dir", str(tmp_path)) == 3
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["file"] == name and check["passed"] is False


def test_report_fails_a_nan_in_a_bath_map_route(tmp_path, capsys):
    # the summaries are finite; one eigenvalue of degree 3 is not
    assert _run("verify-lemma3", "--max-degree", "3", "--out", str(tmp_path / "l3.json")) == 0
    doc = json.loads((tmp_path / "l3.json").read_text())
    doc["matrix_route"]["3"] = float("nan")
    (tmp_path / "l3.json").write_text(json.dumps(doc))
    assert _run("report", "--dir", str(tmp_path)) == 3
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["kind"] == "bath-map-spectrum" and check["passed"] is False


def test_verify_lemma3_fails_a_nan_above_degree_one(tmp_path, monkeypatch, capsys):
    # the summaries over degrees carry a NaN of any degree into the artifact
    real = cli.symmetric_tensor_eigenvalues

    def broken(deg):
        ev = np.array(real(deg))
        if deg == 2:
            ev[0] = np.nan
        return ev

    monkeypatch.setattr(cli, "symmetric_tensor_eigenvalues", broken)
    rundir = tmp_path / "run"
    rundir.mkdir()
    out = rundir / "l3.json"
    assert _run("verify-lemma3", "--max-degree", "3", "--out", str(out)) == 3
    assert np.isnan(json.loads(out.read_text())["route_disagreement"])
    assert _run("report", "--dir", str(rundir)) == 3


def test_verify_lemma2_fails_a_nan_in_a_later_trial(tmp_path, monkeypatch):
    _wrap_result(monkeypatch, "verify_lemma2", lambda results: [
        res._replace(lhs=np.nan) if i == 1 else res for i, res in enumerate(results)])
    rundir = tmp_path / "run"
    rundir.mkdir()
    cfg = _write_config(tmp_path, degree=2, random_polynomials=3)
    assert _run("verify-lemma2", "--config", cfg, "--out", str(rundir / "l2.json")) == 3
    assert _run("report", "--dir", str(rundir)) == 3


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


def test_a_missing_output_directory_exits_4_before_the_work(tmp_path, capsys, monkeypatch):
    # the study never runs, and the message names the missing directory,
    # not a temporary file inside it
    def refuse(*args, **kwargs):
        raise AssertionError("the scaling study ran")

    monkeypatch.setattr(cli, "scaling_study", refuse)
    cfg = _write_config(tmp_path, degree=2, reservoir_sizes=[2, 4])
    missing = tmp_path / "missing"
    assert _run("bound", "--config", cfg, "--out", str(missing / "scaling.json")) == 4
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["exit_code"] == 4 and record["error"] == "FileNotFoundError"
    assert record["message"] == f"output directory {str(missing)!r} does not exist"
    assert not missing.exists()


def test_consecutive_main_calls_parse_independently(tmp_path, monkeypatch):
    # the parser is built once per process; flags of one call do not reach
    # the next, and each subcommand's defaults come back
    seen = []
    for name in ("gap", "verify-lemma3"):
        monkeypatch.setitem(cli._HANDLERS, name, lambda cfg, args: seen.append(args) or 0)
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "g.json")
    assert _run("gap", "--config", cfg, "--out", out, "--seed", "5", "--threads", "2") == 0
    assert _run("verify-lemma3", "--max-degree", "3") == 0
    assert _run("gap", "--config", cfg, "--out", out) == 0
    assert _run("verify-lemma3") == 0
    assert [vars(a) for a in seen] == [
        {"command": "gap", "config": cfg, "out": out, "seed": 5, "threads": 2},
        {"command": "verify-lemma3", "config": None, "out": None, "seed": None,
         "threads": None, "max_degree": 3},
        {"command": "gap", "config": cfg, "out": out, "seed": None, "threads": None},
        {"command": "verify-lemma3", "config": None, "out": None, "seed": None,
         "threads": None, "max_degree": 6},
    ]
    assert cli.build_parser() is cli.build_parser()


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


_WITHOUT_SCIPY = """
import json, os, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from kacbath.cli import main

run = sys.argv[1]
h2 = {"kind": "perturbation", "family": "h2_aniso", "eps": 0.2}
configs = {
    "distance": {"m": 1, "n": 4, "degree": 2, "t_end": 10.0, "grid": {"count": 12},
                 "init": h2},
    "gap": {"m": 1, "n": 6, "degree": 3},
    "bound": {"m": 1, "n": 2, "degree": 2, "eps": 0.2, "t_end": 80.0,
              "grid": {"count": 56}, "reservoir_sizes": [2, 4, 8, 16]},
    "reservoir": {"m": 1, "n": 2, "degree": 2},
    "bath_map": {"m": 2, "n": 2, "degree": 3, "operator": "bath_map"},
    "lemma1": {"m": 1, "n": 2, "samples": 400, "inner": 16,
               "init": {"kind": "perturbation", "eps": 0.4}},
    "lemma2": {"m": 1, "n": 4, "degree": 2, "random_polynomials": 3},
    "simulate": {"m": 1, "n": 2, "t_end": 0.5, "record_times": [0.5], "ensemble": 64},
}
for name, doc in configs.items():
    with open(os.path.join(run, name + ".json"), "w") as fh:
        json.dump(doc, fh)
art = os.path.join(run, "art")
os.mkdir(art)
runs = [
    ("distance", "distance", "curve.csv"), ("gap", "gap", "gap.json"),
    ("bound", "bound", "scaling.json"), ("spectral", "reservoir", "gen.mat"),
    ("spectral", "bath_map", "bath.mat"), ("verify-lemma1", "lemma1", "l1.csv"),
    ("verify-lemma2", "lemma2", "l2.json"), ("simulate", "simulate", "m.csv"),
]
for sub, cfg, out in runs:
    code = main([sub, "--config", os.path.join(run, cfg + ".json"),
                 "--out", os.path.join(art, out)])
    assert code == 0, (sub, cfg, code)
assert main(["verify-lemma3", "--max-degree", "4",
             "--out", os.path.join(art, "bathmap.json")]) == 0
assert main(["report", "--dir", art, "--out", os.path.join(run, "report.json")]) == 0
with open(os.path.join(run, "report.json")) as fh:
    assert json.load(fh)["files_checked"] == 7
"""


def test_the_package_imports_no_ode_integrator(tmp_path):
    # kacbath runs on numpy alone: importing it loads no scipy module, and
    # every subcommand and `report` run with scipy made unimportable; the
    # benchmark's tracer still resolves solve_ivp where scipy is installed
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, kacbath, kacbath.cli\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
        "from kacbath import evolution\n"
        "assert evolution.solve_ivp.__module__.startswith('scipy.integrate')\n"
    )
    for argv in (["-c", code], ["-c", _WITHOUT_SCIPY, str(tmp_path)]):
        done = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
