"""The thermostat average on rank-m coefficient tensors, as a 3^m x 3^m map.

Two routes, neither used by the package:
- `tensor_T`: the closed form of E[(I - omega omega^T)^(x)m], expanded
  over subsets of the m factors, with the sphere moment tensors built by
  summing pair matchings (`sphere_moment_tensor`);
- `tensor_T_quadrature`: the sphere rule, one node's m-fold Kronecker
  power at a time.

`symmetrizer(n, m)` restricts either to the symmetric tensors, in the
Hermite basis order of degree m. The package builds the thermostat blocks
on the degree-m monomials directly and checks them against exact scalar
sphere moments. Tests compare all of them.
"""

import itertools

import numpy as np

from kacbath.hermite import make_basis, sphere_rule


def symmetrizer(n: int, m: int) -> np.ndarray:
    """b_m: orthonormal basis of the symmetric rank-m tensors on R^n.

    Column alpha, in make_basis(n, m).degree_slice(m) order, is the
    indicator of the index tuples with exponent alpha (np.kron order)
    over the square root of their number, so b_m^T X b_m is the
    degree-m Hermite block of a map X on rank-m tensors.
    """
    basis = make_basis(n, m)
    sl = basis.degree_slice(m)
    cols = [basis.index[tuple(t.count(i) for i in range(n))] - sl.start
            for t in itertools.product(range(n), repeat=m)]
    out = np.zeros((n ** m, sl.stop - sl.start))
    out[np.arange(n ** m), cols] = 1.0
    return out / np.sqrt(out.sum(axis=0))


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
