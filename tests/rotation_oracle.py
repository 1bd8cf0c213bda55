"""Full-dimensional rotation samplers, kept as oracles for the projector.

The package draws only the system block of each momentum-preserving
rotation (`projector._system_rows`). The routes here build the whole
rotated state: `rotated_states` resamples every complement coordinate
of the momentum frame, and `sample_momentum_preserving_rotation`
materializes a dense Haar rotation of the full phase space. Tests
compare the package against them.
"""

from math import sqrt

import numpy as np

from kacbath.hermite import evaluate_basis
from kacbath.projector import MomentumFrame, build_frame
from kacbath.randomness import GAMMA_SIGMA, RngStream


def haar_special_orthogonal(k: int, stream: RngStream) -> np.ndarray:
    """Haar-distributed rotation from SO(k).

    QR of a Gaussian matrix with the R-diagonal sign fix gives Haar on
    O(k); a reflection with negative determinant is pushed into SO(k) by
    flipping one fixed column, which preserves Haar measure on the
    rotation component.
    """
    g = stream.rng.standard_normal((k, k))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def sample_momentum_preserving_rotation(frame: MomentumFrame,
                                        stream: RngStream) -> np.ndarray:
    """Random rotation of the full phase space fixing total momentum.

    The returned matrix O is in SO(3(M+N)), acts as the identity on the
    three momentum directions of the frame, and is Haar-uniform on the
    orthogonal complement. Energy |z|^2 and total momentum are both
    preserved, so O leaves the background Gaussian invariant.
    """
    d = frame.dim
    comp = frame.complement_slots
    q = haar_special_orthogonal(len(comp), stream)
    s = np.eye(d)
    s[np.ix_(comp, comp)] = q
    return frame.p @ s @ frame.p.T


def rotate_frame_coordinates(frame: MomentumFrame, y: np.ndarray,
                             u: np.ndarray) -> np.ndarray:
    """Rotated states, shape (count, dim), from frame coordinates y and
    Gaussian complement draws u, shape (count, 3(M+N)-3): the g
    coordinates are kept and the complement goes to rho u / |u|."""
    comp = frame.complement_slots
    rho = np.linalg.norm(y[comp])
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0  # probability-zero draw; leaves a zero row
    rotated = np.empty((len(u), frame.dim))
    rotated[:, frame.g_slots] = y[frame.g_slots]
    rotated[:, comp] = rho * (u / norms)
    return rotated @ frame.p.T


def rotated_states(frame: MomentumFrame, flat: np.ndarray, count: int,
                   stream: RngStream) -> np.ndarray:
    """`count` Haar-rotated copies of a state, as rows of shape (count, dim).

    In frame coordinates a Haar rotation fixes the g components and
    sends the complement components to a uniform point on the sphere of
    their radius, so each copy costs one normalized Gaussian draw.
    """
    u = stream.rng.standard_normal((count, len(frame.complement_slots)))
    return rotate_frame_coordinates(frame, frame.coordinates(flat), u)


def full_rotation_ratio(h, m: int, n: int, outer: int, stream: RngStream,
                        inner: int = 64) -> tuple[float, float]:
    """(ratio, stderr) of the nested Lemma-1 estimator, rotating whole states.

    The statistics of `projector.estimate_lemma1_ratio`, but every inner
    draw resamples all 3(M+N)-3 complement coordinates, one outer state
    at a time, and h is read off the first 3M columns of the full state.
    """
    frame = build_frame(m, n)
    half = inner // 2
    chunk = 256  # outer states per draw, as in `projector._ratio_core`
    prods = np.empty(outer)
    done = 0
    while done < outer:
        b = min(chunk, outer - done)
        z = stream.rng.normal(0.0, GAMMA_SIGMA, (b, frame.dim))
        u = stream.rng.standard_normal((b, inner, len(frame.complement_slots)))
        for i in range(b):
            rows = rotate_frame_coordinates(frame, frame.coordinates(z[i]), u[i])
            vals = evaluate_basis(h.basis, rows[:, : 3 * m]) @ h.vec
            prods[done + i] = (vals[:half].mean() - 1.0) * (vals[half:].mean() - 1.0)
        done += b
    mean_sq = float(prods.mean())
    se_sq = float(prods.std(ddof=1) / sqrt(outer))
    norm_est = sqrt(max(mean_sq, 0.0))
    se_norm = se_sq / (2.0 * norm_est) if norm_est > 0.0 else sqrt(se_sq)
    denom = h.fluctuation_norm()
    return norm_est / denom, se_norm / denom
