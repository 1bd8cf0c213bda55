"""Adaptive ODE integration of the coefficient flow, kept as an oracle for
`evolve`.

The package evolves each degree block by Lanczos and cross-checks it with
the block's dense eigendecomposition (`evolution.evolve`). The route here
shares neither: it integrates c'(t) = G_m c(t) on every block that c0
fills with DOP853 (`scipy.integrate.solve_ivp`, rtol 1e-11, atol 1e-14,
output at the requested times), on the same dense blocks, and leaves the
empty blocks at zero. Its step count over long horizons makes it far
slower than either package route. Tests compare them.
"""

import numpy as np
from scipy.integrate import solve_ivp

from kacbath.hermite import HermiteCoeffs
from kacbath.spectral import OperatorMatrix


def path(g: OperatorMatrix, c0: HermiteCoeffs, times) -> np.ndarray:
    """exp(G t) c0 at each t of `times` (sorted, nonnegative), one row
    per time."""
    arr = np.asarray(times, dtype=float)
    out = np.repeat(c0.vec[None, :], arr.size, axis=0)
    if arr[-1] == 0.0:
        return out
    for m in range(g.basis.degree + 1):
        sl = g.basis.degree_slice(m)
        if not c0.vec[sl].any():
            continue
        block = g.block(m)
        sol = solve_ivp(lambda _, y: block @ y, (0.0, float(arr[-1])), c0.vec[sl],
                        method="DOP853", t_eval=arr, rtol=1e-11, atol=1e-14)
        assert sol.success, sol.message
        out[:, sl] = sol.y.T
    return out
