"""The reservoir-symmetric sector: its basis, its counted size, and
both generators on it against the joint generators restricted to it."""

import itertools

import numpy as np
import pytest
from scipy import sparse

from kacbath import ModelParams, spectral
from kacbath.cli import perturbation_data
from kacbath.errors import ConfigError, StateError
from kacbath.sector import make_sector, sector_sizes
from kacbath.spectral import (
    DENSE_BYTES_MAX,
    assemble_generator,
    assemble_sector_generator,
    joint_basis,
    sector_basis,
)

from matrix_oracle import dense


def _degree_rows(basis) -> list[int]:
    return [basis.degree_slice(m).stop - basis.degree_slice(m).start
            for m in range(basis.degree + 1)]


@pytest.mark.parametrize("n", [3, 4, 16, 1024])
@pytest.mark.parametrize("d,want", [(2, [1, 6, 27]), (3, [1, 6, 27, 102])])
def test_sector_rows_per_degree_do_not_depend_on_n(d, want, n):
    p = ModelParams(1, n)
    assert sector_sizes(p, d) == want
    assert _degree_rows(sector_basis(p, d)) == want


def test_sector_sizes_at_degree_6():
    # M = 1 at any N >= 6, counted from the supports without the sector
    assert sector_sizes(ModelParams(1, 4096), 6) == [1, 6, 27, 102, 348, 1095, 3249]


def test_sector_with_fewer_reservoir_particles_than_the_degree():
    # at N=2 no support holds three particles: 126 rows, not 136
    assert sum(sector_sizes(ModelParams(1, 2), 3)) == 126
    assert sector_basis(ModelParams(1, 2), 3).size == 126


@pytest.mark.parametrize("m,n,d", [(1, 2, 2), (1, 2, 4), (1, 3, 4), (1, 9, 5),
                                   (2, 2, 3), (2, 5, 3), (3, 4, 2), (2, 3, 4)])
def test_counted_sizes_equal_the_sector_rows(m, n, d):
    p = ModelParams(m, n)
    sec = make_sector(p, d)
    assert _degree_rows(sec) == sector_sizes(p, d)
    assert (np.diff(sec.degree_of) >= 0).all()
    assert len(sec.index) == sec.size


@pytest.mark.parametrize("m,n,d", [(1, 2, 2), (1, 5, 2), (1, 2, 3), (1, 4, 3), (2, 3, 2)])
def test_orbits_partition_the_joint_basis(m, n, d):
    # every joint row lands in one orbit, and each orbit holds |O_a| rows
    p = ModelParams(m, n)
    sec, big = sector_basis(p, d), joint_basis(p, d)
    rows = sec.rows_of(big.exponents[:, :3 * m], big.exponents[:, 3 * m:])
    assert (np.bincount(rows, minlength=sec.size) == sec.orbit_size).all()
    assert (sec.degree_of[rows] == big.degree_of).all()


@pytest.mark.parametrize("m,n,d,rates", [
    # rates that tell every collision class apart
    pytest.param(m, n, d, (0.7, 1.3, 0.9), id=f"{m}-{n}-{d}")
    for m, n, d in [(1, 2, 2), (1, 8, 2), (1, 2, 3), (1, 5, 3), (2, 3, 2)]] + [
    # each class switched off and on: (lambda_s, lambda_r, mu) in
    # {0, 0.7} x {0, 1.3} x {0, 0.9}
    pytest.param(m, n, d, rates, id="-".join(map(str, (m, n, d, *rates))))
    for m, n, d in [(1, 2, 2), (2, 3, 2), (1, 5, 1), (2, 2, 2), (1, 3, 3)]
    for rates in itertools.product((0.0, 0.7), (0.0, 1.3), (0.0, 0.9))])
@pytest.mark.parametrize("kind", ["reservoir", "thermostat"])
def test_sector_generator_is_the_joint_generator_restricted(kind, m, n, d, rates):
    # Q^T G Q with Q the normalised orbit sums
    p = ModelParams(m, n, *rates)
    sec, big = sector_basis(p, d), joint_basis(p, d)
    rows = sec.rows_of(big.exponents[:, :3 * m], big.exponents[:, 3 * m:])
    q = sparse.csr_matrix((1.0 / np.sqrt(sec.orbit_size[rows]), (np.arange(big.size), rows)),
                          shape=(big.size, sec.size))
    want = q.T @ dense(assemble_generator(kind, p, d)) @ q
    got = assemble_sector_generator(kind, p, sec)
    assert got.basis is sec
    assert np.abs(dense(got) - want).max() <= 1e-14


def test_tagged_data_are_their_own_orbit_sums():
    p = ModelParams(2, 3)
    sec = sector_basis(p, 2)
    h = perturbation_data("h2_aniso", 0.3, 2)
    c = sec.tagged_coeffs(h)
    assert c.norm() == pytest.approx(h.norm(), rel=1e-15)
    assert c.mean() == 1.0
    assert sec.index[((2, 0, 0, 0, 0, 0), (0, 0))] == int(np.flatnonzero(c.vec == 0.3)[0])


@pytest.mark.parametrize("n,d,reservoir", [
    # three excited reservoir particles: over the degree cap at d=2, and
    # more than the N=2 the sector has at d=3
    pytest.param(2, 2, [1, 0, 0, 1, 0, 0, 0, 0, 1], id="2"),
    pytest.param(2, 3, [1, 0, 0, 1, 0, 0, 0, 0, 1], id="3"),
    # one reservoir 3-exponent over the degree cap, whose digits in base
    # d + 1 would alias the constant, a degree-1 row, or no row at all
    pytest.param(4, 2, [2, 2, 0], id="4-2-220"),
    pytest.param(4, 2, [3, 0, 0], id="4-2-300"),
    pytest.param(4, 2, [0, 0, 3], id="4-2-003"),
])
def test_rows_of_rejects_an_exponent_outside_the_sector(n, d, reservoir):
    sec = sector_basis(ModelParams(1, n), d)
    with pytest.raises(StateError, match=f"outside the sector of degree {d} at N={n}"):
        sec.rows_of(np.zeros((1, 3), dtype=int), np.array([reservoir]))


def test_an_oversize_sector_is_a_config_error_before_enumeration(monkeypatch):
    # degree 7 at M=1 holds 14005 rows for N >= 7, over the dense limit
    def never(*args):
        raise AssertionError("enumerated an oversize sector")

    monkeypatch.setattr(spectral, "make_sector", never)
    rows = sum(sector_sizes(ModelParams(1, 64), 7))
    assert rows == 14005 and 8 * rows ** 2 > DENSE_BYTES_MAX
    with pytest.raises(ConfigError, match="reservoir-symmetric sector .* has 14005 rows"):
        sector_basis(ModelParams(1, 64), 7)
