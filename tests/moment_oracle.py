"""The exact blocks by the rational route: every sphere entry summed in
`Fraction`s, each surviving term over its own (2|j| + 1)!!, then one
float per entry.

The package sums integer numerators over the common denominator
(2m + 1)!! and divides once per entry; both round the same exact
rational once, so tests require the blocks to be bitwise equal.
`moment_matrix` gives the package's moment matrix itself in `Fraction`s,
for the checks in exact arithmetic.
"""

import itertools
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np

from kacbath import spectral


def sphere_entry(alpha: tuple, beta: tuple, c: int) -> Fraction:
    """Coefficient of x^alpha in E_omega prod_i (x_i - c omega_i (omega.x))^beta_i."""
    total = Fraction(0)
    choices = (range(max(0, b - a), b + 1) for a, b in zip(alpha, beta))
    for j in itertools.product(*choices):
        delta = [a - b + k for a, b, k in zip(alpha, beta, j)]
        r = sum(j)
        count = (prod(comb(b, k) for b, k in zip(beta, j)) * factorial(r)
                 // prod(factorial(k) for k in delta))
        total += (-c) ** r * count * spectral._sphere_moment(
            tuple(k + e for k, e in zip(j, delta)))
    return total


ENTRIES = {
    "mix": (2, spectral._mix_entry),
    "reflection": (3, lambda a, b: sphere_entry(a, b, 2)),
    "thermostat": (3, lambda a, b: sphere_entry(a, b, 1)),
}


def exact_block(kind: str, m: int) -> np.ndarray:
    """Degree-m Hermite block of `kind`: sqrt(alpha!/beta!) A_m[alpha, beta]."""
    n, entry = ENTRIES[kind]
    exps = spectral._degree_exponents(n, m)
    root = np.sqrt([float(prod(factorial(e) for e in a)) for a in exps])
    a = np.array([[float(entry(x, y)) for y in exps] for x in exps])
    block = root[:, None] * a / root[None, :]
    if kind == "mix":
        block *= 2.0 ** (-m / 2)
    return block


def moment_matrix(kind: str, m: int) -> list[list[Fraction]]:
    """A_m exactly, in Fractions: the package's integer numerators over
    their common denominator."""
    rows, den = spectral._moment_numerators(kind, m)
    return [[Fraction(x, den) for x in row] for row in rows]
