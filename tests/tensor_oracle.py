"""Sphere quadrature of the tensor thermostat map, one node at a time.

The package forms sum_k w_k (I - omega_k omega_k^T)^(x)m as one weighted
product over all sphere nodes (`spectral._kron_power_sum`). The
route here builds the m-fold Kronecker power of each node's matrix in a
loop and adds them up. Tests compare the two.
"""

import numpy as np

from kacbath.hermite import sphere_rule


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
