"""Quadrature check of the Gaussian identity behind the constant C(M, N).

The second term of `projector.lemma1_constant`, sqrt(((M+N)/N)^3 - 1),
comes from the squared norm of the kernel that couples the system-mean
coordinate to the total-mean coordinate. Tests integrate that kernel
numerically here and compare with the closed form.
"""

from math import exp, pi, sqrt

import numpy as np
from scipy.integrate import dblquad

from kacbath.errors import ConfigError, IntegrationError


def verify_gaussian_identity(m: int, n: int) -> tuple[float, float]:
    """Quadrature check of the squared conditioning-kernel integral.

    The kernel coupling the system-mean coordinate s to the total-mean
    coordinate V is, per component,
        n1(x, y) = sqrt((M+N)/N) exp(-pi ((M/N)(x^2+y^2) - 2 sqrt(M(M+N))/N x y)),
    and the claim is that the Gaussian-weighted integral of n^2 over
    all six (s, V) components equals ((M+N)/N)^3. Components decouple,
    so the numeric value is the cube of one adaptive 2D quadrature of a
    quadratic-form Gaussian (whose form matrix has determinant one,
    which is where the closed form comes from). Returns (numeric, exact).
    """
    if m < 0 or n < 1:
        raise ConfigError(f"need M >= 0, N >= 1, got M={m}, N={n}")
    ratio = (m + n) / n
    diag = 1.0 + 2.0 * m / n
    cross = 2.0 * sqrt(m * (m + n)) / n

    def integrand(yv: float, xs: float) -> float:
        return ratio * exp(-pi * (diag * (xs * xs + yv * yv) - 2.0 * cross * xs * yv))

    val, err = dblquad(integrand, -np.inf, np.inf, -np.inf, np.inf,
                       epsabs=1e-12, epsrel=1e-12)
    if err > 1e-9:
        raise IntegrationError(f"kernel quadrature error estimate {err:.3e}")
    return float(val) ** 3, float(ratio) ** 3
