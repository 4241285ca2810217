"""Finite-dimensional representations of the proper Lorentz group.

An irreducible representation is labeled by a pair (u, v) of half-integers;
its generators are built from two commuting angular-momentum blocks. The
representation matrix of a group element uses the same rotation-then-boost
factorization and parameter meaning as the vector chart in
``config_space.lorentz_from_angles``, so group-level identities can be
checked numerically between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .config_space import GroupMetric, lorentz_from_angles
from .geometry import laplace_beltrami


def _is_half_integer(x: float) -> bool:
    return abs(2 * x - round(2 * x)) < 1e-12 and x >= 0


@dataclass(frozen=True)
class Irrep:
    """Representation label (u, v); dimension (2u+1)(2v+1)."""

    u: float
    v: float

    def __post_init__(self):
        if not (_is_half_integer(self.u) and _is_half_integer(self.v)):
            raise ValueError("u and v must be non-negative half-integers")
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))

    @property
    def dim(self) -> int:
        return int(round((2 * self.u + 1) * (2 * self.v + 1)))

    @property
    def conjugate(self) -> "Irrep":
        return Irrep(self.v, self.u)

    def label(self) -> str:
        def fmt(x: float) -> str:
            return str(int(x)) if x == int(x) else f"{int(2 * x)}/2"
        return f"({fmt(self.u)},{fmt(self.v)})"


def reps_up_to_dim(max_dim: int) -> list[Irrep]:
    """All irreps with dimension at most ``max_dim``, sorted by (dim, u, v)."""
    out = []
    half = 0.5
    u = 0.0
    while 2 * u + 1 <= max_dim:
        v = 0.0
        while (2 * u + 1) * (2 * v + 1) <= max_dim:
            out.append(Irrep(u, v))
            v += half
        u += half
    out.sort(key=lambda r: (r.dim, r.u, r.v))
    return out


def su2_generators(j: float) -> np.ndarray:
    """Spin-j angular momentum matrices (Jx, Jy, Jz), shape (3, 2j+1, 2j+1).

    Basis states ordered by descending magnetic number m = j, j-1, ..., -j.
    """
    if not _is_half_integer(j):
        raise ValueError("j must be a non-negative half-integer")
    d = int(round(2 * j + 1))
    m = j - np.arange(d)
    jz = np.diag(m).astype(complex)
    jp = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        jp[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    return np.stack([jx, jy, jz])


def irrep_generators(rep: Irrep) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and boost generators (J, K) of the irrep, each (3, d, d).

    J is Hermitian, K anti-Hermitian; they satisfy
    [J_a, J_b] = i eps_abc J_c, [J_a, K_b] = i eps_abc K_c,
    [K_a, K_b] = -i eps_abc J_c.
    """
    a = su2_generators(rep.u)
    b = su2_generators(rep.v)
    du, dv = a.shape[1], b.shape[1]
    eye_u, eye_v = np.eye(du), np.eye(dv)
    j = np.stack([np.kron(a[k], eye_v) + np.kron(eye_u, b[k]) for k in range(3)])
    k_ = np.stack([-1j * (np.kron(a[k], eye_v) - np.kron(eye_u, b[k])) for k in range(3)])
    return j, k_


def commutator_defect(rep: Irrep) -> float:
    """Largest entry of the residuals of the three commutation relations of (J, K)."""
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    j, k = irrep_generators(rep)
    residuals = []
    for a in range(3):
        for b in range(3):
            target_j = 1j * np.einsum("c,cij->ij", eps[a, b], j)
            target_k = 1j * np.einsum("c,cij->ij", eps[a, b], k)
            residuals += [j[a] @ j[b] - j[b] @ j[a] - target_j,
                          j[a] @ k[b] - k[b] @ j[a] - target_k,
                          k[a] @ k[b] - k[b] @ k[a] + target_j]
    return float(np.max(np.abs(residuals)))


def casimir_value(rep: Irrep) -> float:
    """Eigenvalue of J.J - K.K on the irrep: 2[u(u+1) + v(v+1)]."""
    return 2.0 * (rep.u * (rep.u + 1) + rep.v * (rep.v + 1))


def d_matrix(rep: Irrep, theta: np.ndarray) -> np.ndarray:
    """Representation matrix D(Lambda(theta)), same chart as the vector rep.

    D = exp(-i theta_rot . J) exp(-i theta_boost . K); the correspondence
    with the 4x4 chart generators is J_vec -> -i J, K_vec -> -i K.
    """
    theta = np.asarray(theta, dtype=float)
    j, k = irrep_generators(rep)
    rot = expm(-1j * np.einsum("a,aij->ij", theta[:3], j))
    boost = expm(-1j * np.einsum("a,aij->ij", theta[3:], k))
    return rot @ boost


def d_matrix_inverse(rep: Irrep, theta: np.ndarray) -> np.ndarray:
    """Inverse of d_matrix in closed form (reversed factor order), per angle
    6-vector on the last axis of ``theta``.

    Boosted representation matrices are badly conditioned, so inverting
    through the exponentials is far more accurate than a linear solve.
    """
    theta = np.asarray(theta, dtype=float)
    j, k = irrep_generators(rep)
    boost = expm(1j * np.einsum("...a,aij->...ij", theta[..., 3:], k))
    rot = expm(1j * np.einsum("...a,aij->...ij", theta[..., :3], j))
    return boost @ rot


def factor_swap(rep: Irrep) -> np.ndarray:
    """Permutation from the (u, v) index order to the (v, u) index order.

    P[j * du + i, i * dv + j] = 1 for i < du, j < dv, where du = 2u+1 and
    dv = 2v+1. It intertwines the conjugation relation below.
    """
    du = int(round(2 * rep.u + 1))
    dv = int(round(2 * rep.v + 1))
    p = np.zeros((du * dv, du * dv))
    for i in range(du):
        for j in range(dv):
            p[j * du + i, i * dv + j] = 1.0
    return p


def conjugation_defect(rep: Irrep, theta: np.ndarray) -> float:
    """Residual of the conjugation relation between (u, v) and (v, u).

    The adjoint of D in rep (u, v) equals the inverse of D in rep (v, u)
    after the canonical reordering of the two spin factors:
    D_(u,v)(theta)^dagger = P^T D_(v,u)(theta)^{-1} P. When u or v is zero
    the permutation is the identity and the relation is the bare
    adjoint-inverse statement.
    """
    d_uv = d_matrix(rep, theta)
    d_vu_inv = d_matrix_inverse(rep.conjugate, theta)
    p = factor_swap(rep)
    return float(np.max(np.abs(d_uv.conj().T - p.T @ d_vu_inv @ p)))


def vector_intertwiner() -> tuple[np.ndarray, float]:
    """Equivalence between the (1/2, 1/2) irrep and the vector chart.

    Solves D(theta) X = X Lambda(theta) simultaneously over three fixed
    sample angles by an SVD nullspace (row-major vectorization). Returns the
    intertwiner, normalized to unit largest entry, and the smallest singular
    value of the stacked system (zero for a genuine equivalence).
    """
    thetas = [
        np.array([0.7, -0.3, 0.2, 0.4, 0.1, -0.5]),
        np.array([-0.2, 0.5, -0.6, 0.1, -0.3, 0.2]),
        np.array([0.1, 0.2, 0.9, -0.2, 0.6, 0.3]),
    ]
    rep = Irrep(0.5, 0.5)
    eye = np.eye(4)
    blocks = []
    for theta in thetas:
        d = d_matrix(rep, theta)
        lam = lorentz_from_angles(theta)
        blocks.append(np.kron(d, eye) - np.kron(eye, lam.T))
    system = np.vstack(blocks)
    _, s, vh = np.linalg.svd(system)
    # right singular vectors are the conjugated rows of vh
    x = vh[-1].conj().reshape(4, 4)
    pivot = x.flat[np.argmax(np.abs(x))]
    return x / pivot, float(s[-1])


# ---------------------------------------------------------------------------
# angular Laplacian
# ---------------------------------------------------------------------------


def angular_laplacian_check(rep: Irrep, theta: np.ndarray, a: float = 1.0,
                            order: int = 4) -> np.ndarray:
    """Laplace-Beltrami operator of the group block applied to D(Lambda)^{-1}.

    Returns the matrix ratio (Delta D^{-1})(theta) (D^{-1}(theta))^{-1},
    computed entirely by nested finite differences of the chart metric and
    the representation matrices. For every irrep this must be the constant
    matrix -(casimir / a^2) I, independent of theta: the group-invariant
    second-order operator acts on translated matrix elements through the
    Casimir alone. This single number ties together the chart, the metric
    normalization, and the representation conventions. The outer divergence
    steps by 1e-2, the inner gradient by 1e-3.
    """
    theta = np.asarray(theta, dtype=float)
    lap = laplace_beltrami(GroupMetric(a), lambda t: d_matrix_inverse(rep, t),
                           theta, h=1e-2, order=order, h_inner=1e-3)
    return lap @ d_matrix(rep, theta)
