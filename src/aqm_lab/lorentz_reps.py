"""Finite-dimensional representations of the proper Lorentz group.

An irreducible representation is labeled by a pair (u, v) of half-integers;
its generators are built from two commuting angular-momentum blocks. The
representation matrix of a group element uses the same rotation-then-boost
factorization and parameter meaning as the vector chart in
``config_space.lorentz_from_angles``, so group-level identities can be
checked numerically between the two.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .config_space import GroupMetric, expm, factor_exponents, lorentz_from_angles
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
        # the half-integer the check accepted, not a value within 1e-12 of it
        object.__setattr__(self, "u", round(2 * self.u) / 2)
        object.__setattr__(self, "v", round(2 * self.v) / 2)

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


def _groups(reps: Sequence[Irrep], key: Callable[[Irrep], object]
            ) -> list[tuple[list[int], tuple[Irrep, ...]]]:
    """The positions of ``reps`` and their irreps, grouped by ``key``:
    groups, and the positions in each, in first-seen order."""
    positions: dict = {}
    for i, rep in enumerate(reps):
        positions.setdefault(key(rep), []).append(i)
    return [(idx, tuple(reps[i] for i in idx)) for idx in positions.values()]


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
    [K_a, K_b] = -i eps_abc J_c. The arrays are built once per irrep and are
    read-only.
    """
    j, k_ = _generator_halves(rep)
    return j, k_


@functools.cache
def _generator_halves(rep: Irrep) -> np.ndarray:
    """(J, K) of the irrep stacked as (2, 3, d, d), read-only."""
    a = su2_generators(rep.u)
    b = su2_generators(rep.v)
    du, dv = a.shape[1], b.shape[1]
    eye_u, eye_v = np.eye(du), np.eye(dv)
    j = np.stack([np.kron(a[k], eye_v) + np.kron(eye_u, b[k]) for k in range(3)])
    k_ = np.stack([-1j * (np.kron(a[k], eye_v) - np.kron(eye_u, b[k])) for k in range(3)])
    halves = np.stack([j, k_])
    halves.flags.writeable = False
    return halves


# Levi-Civita symbol eps[a, b, c]
_EPS = np.zeros((3, 3, 3))
_EPS[0, 1, 2] = _EPS[1, 2, 0] = _EPS[2, 0, 1] = 1.0
_EPS[0, 2, 1] = _EPS[2, 1, 0] = _EPS[1, 0, 2] = -1.0


def commutator_defect(reps: Sequence[Irrep]) -> np.ndarray:
    """Largest entry of the residuals of the three commutation relations of
    (J, K), one per irrep of ``reps``, in their order.

    The 9 (a, b) pairs of [J, J], [J, K] and [K, K] of every irrep of one
    dimension come from one stacked product of the six generators, and
    their targets i eps_abc J_c and i eps_abc K_c from one product with the
    Levi-Civita rows, whose weights are exactly 0 or +-1.
    """
    defect = np.empty(len(reps))
    for idx, stack in _groups(reps, lambda rep: rep.dim):
        gens = np.stack([np.concatenate(irrep_generators(rep)) for rep in stack])
        n, d = len(stack), stack[0].dim
        prods = gens[:, :, None] @ gens[:, None, :]
        # comm[r, h, a, g, b] = [G_ha, G_gb] of irrep r, G_0 = J and G_1 = K
        comm = (prods - prods.swapaxes(1, 2)).reshape(n, 2, 3, 2, 3, d, d)
        targets = 1j * (_EPS.reshape(9, 3) @ gens.reshape(n, 2, 3, d * d))
        target_j, target_k = np.moveaxis(targets.reshape(n, 2, 3, 3, d, d), 1, 0)
        residuals = np.stack([comm[:, 0, :, 0] - target_j,
                              comm[:, 0, :, 1] - target_k,
                              comm[:, 1, :, 1] + target_j], axis=1)
        defect[idx] = np.max(np.abs(residuals.reshape(n, -1)), axis=-1)
    return defect


def casimir_value(rep: Irrep) -> float:
    """Eigenvalue of J.J - K.K on the irrep: 2[u(u+1) + v(v+1)]."""
    return 2.0 * (rep.u * (rep.u + 1) + rep.v * (rep.v + 1))


def _factor_exponentials(rep: Irrep, theta: np.ndarray, sign: float) -> np.ndarray:
    """exp(sign i theta_rot . J) and exp(sign i theta_boost . K), per angle
    6-vector on the last axis of ``theta``, stacked as (..., 2, d, d).

    On the irrep (u, v), i n.J and i n.K for a unit vector n have the
    spectra i {-(u+v), ..., u+v} and {-(u+v), ..., u+v}, so both are
    closed-form polynomials of spin u + v.
    """
    m, kappa = factor_exponents(theta, _generator_halves(rep))
    return expm(sign * 1j * m, kappa, rep.u + rep.v)


def _chart_product(factors: np.ndarray, *, inverse: bool) -> np.ndarray:
    """The chart's rotation-then-boost product of the factors on axis -3.

    From the factors (exp(-i theta_rot . J), exp(-i theta_boost . K)) it is
    D = R B; from their inverses it is D^-1 = B^-1 R^-1.
    """
    rot, boost = factors[..., 0, :, :], factors[..., 1, :, :]
    return boost @ rot if inverse else rot @ boost


def d_matrix(rep: Irrep, theta: np.ndarray) -> np.ndarray:
    """Representation matrix D(Lambda(theta)), same chart as the vector rep.

    D = exp(-i theta_rot . J) exp(-i theta_boost . K); the correspondence
    with the 4x4 chart generators is J_vec -> -i J, K_vec -> -i K.
    """
    return _chart_product(_factor_exponentials(rep, theta, -1.0), inverse=False)


def d_matrix_inverse(rep: Irrep, theta: np.ndarray) -> np.ndarray:
    """Inverse of d_matrix in closed form (reversed factor order), per angle
    6-vector on the last axis of ``theta``.

    Boosted representation matrices are badly conditioned, so inverting
    through the exponentials is far more accurate than a linear solve.
    """
    return _chart_product(_factor_exponentials(rep, theta, 1.0), inverse=True)


@functools.cache
def factor_swap(rep: Irrep) -> np.ndarray:
    """Permutation from the (u, v) index order to the (v, u) index order.

    P[j * du + i, i * dv + j] = 1 for i < du, j < dv, where du = 2u+1 and
    dv = 2v+1. It intertwines the conjugation relation below. Built once
    per irrep; the array is read-only.
    """
    du = int(round(2 * rep.u + 1))
    dv = int(round(2 * rep.v + 1))
    cols = np.arange(du * dv)
    i, j = np.divmod(cols, dv)  # column i * dv + j
    p = np.zeros((du * dv, du * dv))
    p[j * du + i, cols] = 1.0
    p.flags.writeable = False
    return p


def conjugation_defect(reps: Sequence[Irrep], theta: np.ndarray) -> np.ndarray:
    """Residual of the conjugation relation between (u, v) and (v, u), one
    row per irrep of ``reps`` in their order (leading axis), per angle
    6-vector on the last axis of ``theta``.

    The adjoint of D in rep (u, v) equals the inverse of D in rep (v, u)
    after the canonical reordering of the two spin factors:
    D_(u,v)(theta)^dagger = P^T D_(v,u)(theta)^{-1} P. When u or v is zero
    the permutation is the identity and the relation is the bare
    adjoint-inverse statement. Irreps of one dimension and one spin u + v
    share kappa, the spin and the matrix size, so both sides of all of them
    come from one ``expm`` call. A row with a non-finite angle gives NaN in
    that row only.
    """
    defect = np.empty((len(reps),) + np.shape(theta)[:-1])
    for idx, stack in _groups(reps, lambda rep: (rep.dim, rep.u + rep.v)):
        conjugates = tuple(rep.conjugate for rep in stack)
        # one exponent per distinct irrep and conjugate
        m = {}
        for rep in dict.fromkeys(stack + conjugates):
            m[rep], kappa = factor_exponents(theta, _generator_halves(rep))
        n = len(stack)
        exponents = np.stack([e for rep, conj in zip(stack, conjugates)
                              for e in (-1j * m[rep], 1j * m[conj])])
        # (member, side, *batch, factor, d, d); kappa takes the exponents'
        # batch shape: at spin 0 expm returns exp(0) I on kappa's shape alone
        exponents = exponents.reshape((n, 2) + exponents.shape[1:])
        kappa = np.broadcast_to(kappa, exponents.shape[:-2])
        factors = expm(exponents, kappa, stack[0].u + stack[0].v)
        d_uv = _chart_product(factors[:, 0], inverse=False)
        d_vu_inv = _chart_product(factors[:, 1], inverse=True)
        p = np.stack([factor_swap(rep) for rep in stack])
        p = p.reshape(p.shape[:1] + (1,) * (d_uv.ndim - 3) + p.shape[1:])
        defect[idx] = np.max(np.abs(d_uv.conj().swapaxes(-1, -2)
                                    - p.swapaxes(-1, -2) @ d_vu_inv @ p),
                             axis=(-2, -1))
    return defect


def vector_intertwiner() -> tuple[np.ndarray, float]:
    """Equivalence between the (1/2, 1/2) irrep and the vector chart.

    Solves D(theta) X = X Lambda(theta) simultaneously over three fixed
    sample angles by an SVD nullspace (row-major vectorization). Returns the
    intertwiner, normalized to unit largest entry, and the smallest singular
    value of the stacked system (zero for a genuine equivalence).
    """
    thetas = np.array([
        [0.7, -0.3, 0.2, 0.4, 0.1, -0.5],
        [-0.2, 0.5, -0.6, 0.1, -0.3, 0.2],
        [0.1, 0.2, 0.9, -0.2, 0.6, 0.3],
    ])
    # the rows kron(D, I) - kron(I, Lambda^T) of each angle, as one product
    # of D and Lambda^T with I: every product is by exactly 0 or 1
    d = d_matrix(Irrep(0.5, 0.5), thetas)[:, :, None, :, None]
    lam_t = lorentz_from_angles(thetas).swapaxes(-1, -2)[:, None, :, None, :]
    eye = np.eye(4)
    system = (d * eye[:, None, :] - eye[:, None, :, None] * lam_t).reshape(48, 16)
    _, s, vh = np.linalg.svd(system)
    # right singular vectors are the conjugated rows of vh
    x = vh[-1].conj().reshape(4, 4)
    pivot = x.flat[np.argmax(np.abs(x))]
    return x / pivot, float(s[-1])


# ---------------------------------------------------------------------------
# angular Laplacian
# ---------------------------------------------------------------------------


def angular_laplacian_check(reps: Sequence[Irrep], theta: np.ndarray,
                            a: float) -> tuple[np.ndarray, ...]:
    """Laplace-Beltrami operator of the group block applied to D(Lambda)^{-1},
    one ratio per irrep of ``reps``, in their order.

    Returns the matrix ratios (Delta D^{-1})(theta) (D^{-1}(theta))^{-1},
    computed entirely by nested finite differences of the chart metric and
    the representation matrices. For every irrep this must be the constant
    matrix -(casimir / a^2) I, independent of theta: the group-invariant
    second-order operator acts on translated matrix elements through the
    Casimir alone. This single number ties together the chart, the metric
    normalization, and the representation conventions. The outer divergence
    steps by 1e-2, the inner gradient by 1e-3.

    The irreps' flattened D^{-1} share one stencil pass, one metric inverse
    and sqrt g.
    """
    theta = np.asarray(theta, dtype=float)

    def d_inverse(t):
        return np.concatenate([d_matrix_inverse(rep, t).reshape(
            t.shape[:-1] + (rep.dim ** 2,)) for rep in reps], axis=-1)

    lap = laplace_beltrami(GroupMetric(a), d_inverse, theta, h=1e-2,
                           h_inner=1e-3)
    ends = np.cumsum([rep.dim ** 2 for rep in reps])[:-1]
    return tuple(
        np.ascontiguousarray(part).reshape(theta.shape[:-1] + (rep.dim,) * 2)
        @ d_matrix(rep, theta)
        for rep, part in zip(reps, np.split(lap, ends, axis=-1)))
