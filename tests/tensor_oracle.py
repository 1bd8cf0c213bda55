"""The thermostat average on rank-m coefficient tensors, as a 3^m x 3^m map.

Two routes, neither used by the package:
- `tensor_T`: the closed form of E[(I - omega omega^T)^(x)m], expanded
  over subsets of the m factors, with the sphere moment tensors built by
  summing pair matchings (`sphere_moment_tensor`);
- `tensor_T_quadrature`: the sphere rule, one node's m-fold Kronecker
  power at a time.

The package forms the same quadrature as one weighted product over all
nodes (`spectral._kron_power_sum`) and checks the thermostat blocks
against exact scalar sphere moments. Tests compare all of them.
"""

import itertools

import numpy as np

from kacbath.hermite import sphere_rule


def sphere_moment_tensor(order: int) -> np.ndarray:
    """E[omega_{i1} ... omega_{i_order}] as a dense (3,)*order tensor.

    Odd orders vanish; even orders follow the recursion
    M_k = (1/(k+1)) sum_j delta_{i1 ij} (x) M_{k-2}, equivalent to the
    sum over pair matchings divided by 3 * 5 * ... * (k+1).
    """
    if order == 0:
        return np.array(1.0)
    if order % 2 == 1:
        return np.zeros((3,) * order)
    prev = sphere_moment_tensor(order - 2)
    out = np.zeros((3,) * order)
    for k in range(1, order):
        term = np.tensordot(np.eye(3), prev, axes=0)
        out += np.moveaxis(term, 1, k)
    return out / (order + 1)


def tensor_T(m: int) -> np.ndarray:
    """Closed form of E[(I - omega omega^T)^(x)m], m = 0..6 (einsum letters
    run out beyond); m = 0 returns the identity on scalars."""
    if m == 0:
        return np.ones((1, 1))
    letters = "abcdefghijkl"
    li, lj = letters[:m], letters[m:2 * m]
    big = np.zeros((3,) * (2 * m))
    for r in range(m + 1):
        mom = sphere_moment_tensor(2 * r)
        for subset in itertools.combinations(range(m), r):
            operands, subs = [], []
            if r:
                operands.append(mom)
                subs.append("".join(li[k] + lj[k] for k in subset))
            for k in range(m):
                if k not in subset:
                    operands.append(np.eye(3))
                    subs.append(li[k] + lj[k])
            subscripts = ",".join(subs) + "->" + li + lj
            big += (-1) ** r * np.einsum(subscripts, *operands)
    return big.reshape(3 ** m, 3 ** m)


def tensor_T_quadrature(m: int) -> np.ndarray:
    nodes, wts = sphere_rule(2 * m)
    quad = np.zeros((3 ** m, 3 ** m))
    for om, sw in zip(nodes, wts):
        a = np.eye(3) - np.outer(om, om)
        block = np.array(1.0)
        for _ in range(m):
            block = np.kron(block, a)
        quad += sw * block
    return quad
