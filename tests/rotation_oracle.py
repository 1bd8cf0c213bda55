"""Full-dimensional rotation samplers, kept as oracles for the projector.

The package draws only the system columns that h reads of each
momentum-preserving rotation, in closed form (`projector._system_rows`),
from the orbit of each state rather than the state. The routes here
build the whole rotated state in an explicit orthonormal frame of the
phase space: `rotated_states` resamples every complement coordinate of
the frame, and `sample_momentum_preserving_rotation` materializes a
dense Haar rotation of the full phase space. Tests compare the package
against them.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from kacbath.errors import ConfigError, ToleranceError
from kacbath.hermite import evaluate_basis
from kacbath.projector import OUTER_CHUNK
from kacbath.randomness import GAMMA_SIGMA, RngStream

# Residual norm below which a candidate completion vector is discarded
# as dependent, and the orthogonality tolerance of the finished frame.
DEPENDENCE_TOL = 1e-12
FRAME_TOL = 1e-12


def _mean_direction_rows(k: int) -> np.ndarray:
    """Rows i=0,1,2: unit vector pointing along component i of every
    one of k particles, i.e. (1,0,0,1,0,0,...)/sqrt(k) and cyclic."""
    rows = np.zeros((3, 3 * k))
    for i in range(3):
        rows[i, i::3] = 1.0 / sqrt(k)
    return rows


def _complete_basis(rows: np.ndarray) -> np.ndarray:
    """Extend orthonormal `rows` to a basis of their ambient space.

    Candidates are the canonical coordinate vectors in index order;
    each is orthogonalized against everything accepted so far (two
    passes, for reorthogonalization) and kept when its residual norm
    clears DEPENDENCE_TOL. Deterministic by construction.
    """
    dim = rows.shape[1]
    accepted = [r for r in rows]
    extra = []
    for j in range(dim):
        cand = np.zeros(dim)
        cand[j] = 1.0
        for _ in range(2):
            for b in accepted:
                cand -= (b @ cand) * b
        nrm = np.linalg.norm(cand)
        if nrm > DEPENDENCE_TOL:
            cand /= nrm
            accepted.append(cand)
            extra.append(cand)
    if len(accepted) != dim:
        raise ToleranceError(
            f"basis completion found {len(accepted)} of {dim} vectors"
        )
    return np.array(extra) if extra else np.zeros((0, dim))


@dataclass(frozen=True)
class MomentumFrame:
    """Orthogonal change of basis adapted to the momentum-fixing group.

    Columns of `p`, in order: the 3M-3 completion vectors a of the
    system block, the three momentum directions g_i, the three
    relative-mean directions l_i, and the 3N-3 completion vectors of the
    reservoir block. The group acts as the identity on the g columns and
    as the full rotation group on everything else.
    """

    m: int
    n: int
    p: np.ndarray

    @property
    def dim(self) -> int:
        return 3 * (self.m + self.n)

    @property
    def g_slots(self) -> np.ndarray:
        return np.arange(3 * self.m - 3, 3 * self.m)

    @property
    def l_slots(self) -> np.ndarray:
        return np.arange(3 * self.m, 3 * self.m + 3)

    @property
    def complement_slots(self) -> np.ndarray:
        return np.delete(np.arange(self.dim), self.g_slots)

    @property
    def g(self) -> np.ndarray:
        """The three fixed momentum directions, as columns."""
        return self.p[:, self.g_slots]

    @property
    def l(self) -> np.ndarray:
        return self.p[:, self.l_slots]

    @property
    def system_basis(self) -> np.ndarray:
        """Q = [a^T | e^T], shape (3M, 3M): the system completion vectors,
        then the three system mean directions e_i, as columns."""
        s = 3 * self.m
        e = self.l[:s] * sqrt((self.m + self.n) / self.n)
        return np.hstack([self.p[:s, : s - 3], e])

    def coordinates(self, flat: np.ndarray) -> np.ndarray:
        """Coordinates of a flattened state in this frame (P^T z)."""
        return self.p.T @ np.asarray(flat, dtype=float)


def build_frame(m: int, n: int) -> MomentumFrame:
    """Assemble the orthonormal momentum frame for an (M, N) system.

    g_i = (sqrt(M) e_i, sqrt(N) f_i)/sqrt(M+N) and
    l_i = (sqrt(N) e_i, -sqrt(M) f_i)/sqrt(M+N), where e_i (f_i) is the
    normalized component-i mean direction of the system (reservoir)
    block; the blocks are completed by Gram-Schmidt over canonical
    coordinate vectors in index order.
    """
    if m < 1 or n < 2:
        raise ConfigError(f"frame needs M >= 1, N >= 2, got M={m}, N={n}")
    dim = 3 * (m + n)
    e = _mean_direction_rows(m)
    f = _mean_direction_rows(n)
    a = _complete_basis(e)
    b = _complete_basis(f)

    cols = np.zeros((dim, dim))
    cols[: 3 * m, : 3 * m - 3] = a.T
    root = sqrt(m + n)
    for i in range(3):
        cols[: 3 * m, 3 * m - 3 + i] = sqrt(m) * e[i] / root
        cols[3 * m :, 3 * m - 3 + i] = sqrt(n) * f[i] / root
        cols[: 3 * m, 3 * m + i] = sqrt(n) * e[i] / root
        cols[3 * m :, 3 * m + i] = -sqrt(m) * f[i] / root
    cols[3 * m :, 3 * m + 3 :] = b.T

    defect = np.max(np.abs(cols.T @ cols - np.eye(dim)))
    if defect > FRAME_TOL:
        raise ToleranceError(f"frame orthogonality defect {defect:.3e}")
    return MomentumFrame(m=m, n=n, p=cols)


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
    prods = np.empty(outer)
    done = 0
    while done < outer:
        b = min(OUTER_CHUNK, outer - done)
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
