"""Reduction of the top wave equation to the squared spin-1/2 equation.

Acting on the parity-symmetric spin-1/2 mode expansion, the 10-dimensional
wave operator collapses to a 4x4 operator on spacetime plane waves: the
gauge-covariant d'Alembertian plus a spin coupling block plus a constant
curvature term. The same object, up to a known field-strength scalar, is
the square of the covariant Dirac operator in the mostly-plus signature.
Identifying the constant terms fixes the internal length scale a against
the particle mass and yields the mass spectrum over all irreps.

Scales are numpy floats, so a square that over- or underflows gives inf or
0 and the result a non-finite value, where a Python float would raise. The
caller reports that value, so numpy's floating-point warnings are silenced
on these paths.

Operators are evaluated on plane waves psi(x) = w exp(i p.x) with the
uniform-field potential, for which the action of covariant momentum
products is exact (polynomial coefficients only), so every identity here
is checked to rounding error rather than stencil error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config_space import MINKOWSKI
from .hj import EMConfig, conformal_coupling
from .lorentz_reps import Irrep, casimir_value, irrep_generators

# conformal coupling xi^2 = 2/9 of the 10-dim configuration space
XI2 = conformal_coupling(10) ** 2

# np.errstate of the scale arithmetic: over- and underflow give a non-finite
# result that the caller reports, not a warning
EXTREME_SCALES = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}

# ---------------------------------------------------------------------------
# gamma matrices, mostly-plus signature
# ---------------------------------------------------------------------------


def pauli_matrices() -> np.ndarray:
    return np.array([
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ], dtype=complex)


def gamma_matrices() -> np.ndarray:
    """Dirac matrices for g = diag(-1, 1, 1, 1): {gamma^mu, gamma^nu} = 2 g^{mu nu}.

    gamma^0 = i [[0, I], [I, 0]], gamma^k = i [[0, -sigma_k], [sigma_k, 0]].
    """
    sig = pauli_matrices()
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    out = np.empty((4, 4, 4), dtype=complex)
    out[0] = 1j * np.block([[zero, eye], [eye, zero]])
    for k in range(3):
        out[k + 1] = 1j * np.block([[zero, -sig[k]], [sig[k], zero]])
    return out


def clifford_defect() -> float:
    """Largest entry of {gamma^mu, gamma^nu} - 2 g^{mu nu} I over all index pairs."""
    gam = gamma_matrices()
    anti = gam[:, None] @ gam[None, :] + gam[None, :] @ gam[:, None]
    return float(np.max(np.abs(anti - 2.0 * MINKOWSKI[:, :, None, None] * np.eye(4))))


# ---------------------------------------------------------------------------
# spin coupling block
# ---------------------------------------------------------------------------


def spin_coupling_matrix(rep: Irrep, em: EMConfig, a: float) -> np.ndarray:
    """Field-shifted Casimir block of one irrep.

    sum_k [(1/a) J_k - (kappa a / 2) H_k]^2
        - sum_k [(1/a) K_k - (kappa a / 2) E_k]^2.

    Field-free it is (casimir / a^2) I; the cross terms carry the magnetic
    and electric moment couplings, the squares add the quadratic invariant
    (kappa a / 2)^2 (H^2 - E^2).
    """
    j, k_ = irrep_generators(rep)
    eye = np.eye(rep.dim)
    gamma = 0.5 * em.kappa * a
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for comp in range(3):
        m = j[comp] / a - gamma * em.h_field[comp] * eye
        n = k_[comp] / a - gamma * em.e_field[comp] * eye
        out += m @ m - n @ n
    return out


def parity_spin_coupling(rep: Irrep, em: EMConfig, a: float) -> np.ndarray:
    """Spin coupling block on the parity-symmetric pair rep + conjugate."""
    upper = spin_coupling_matrix(rep, em, a)
    lower = spin_coupling_matrix(rep.conjugate, em, a)
    zero = np.zeros((upper.shape[0], lower.shape[1]), dtype=complex)
    return np.block([[upper, zero], [zero.T, lower]])


# ---------------------------------------------------------------------------
# mass scale and spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MassScale:
    """Internal length scale fixed by the particle mass.

    a = sqrt(3 (1 + 4 xi^2) / 2) / mass, the unique scale at which the
    constant terms of the reduced spin-1/2 operator compose the squared
    mass: casimir(0,1/2) + 6 xi^2 = m^2 a^2.
    """

    mass: float

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        object.__setattr__(self, "mass", np.float64(self.mass))

    @property
    def a(self) -> float:
        return np.sqrt(1.5 * (1.0 + 4.0 * XI2)) / self.mass


def mass_closure_defect() -> float:
    """|casimir(0,1/2) + 6 xi^2 - m^2 a^2| at any mass (mass drops out)."""
    scale = MassScale(mass=1.0)
    lhs = casimir_value(Irrep(0.0, 0.5)) + 6.0 * XI2
    return float(abs(lhs - (scale.mass * scale.a) ** 2))


def mass_spin_spectrum(reps: list[Irrep], a: float) -> list[dict]:
    """Squared-mass spectrum m^2(u, v) = (casimir(u, v) + 6 xi^2) / a^2.

    Quadratic in the spin content through the Casimir, the same closure that
    fixes the spin-1/2 mass; returned as records for direct serialization.
    """
    out = []
    with np.errstate(**EXTREME_SCALES):
        a2 = np.float64(a) ** 2
        for rep in reps:
            cas = casimir_value(rep)
            out.append({
                "u": rep.u,
                "v": rep.v,
                "casimir": cas,
                "m2": float((cas + 6.0 * XI2) / a2),
            })
    return out


# ---------------------------------------------------------------------------
# plane-wave operators
# ---------------------------------------------------------------------------


def momentum_product_symbol(p: np.ndarray, em: EMConfig, x: np.ndarray) -> np.ndarray:
    """Exact symbol T[mu, nu] of Pi_mu Pi_nu on the plane wave exp(i p.x).

    With Pi_mu = -i d_mu - A_mu and the potential linear in x,
    Pi_mu Pi_nu exp(i p.x) = T[mu, nu] exp(i p.x) with
    T = pi (x) pi + i dA, pi = p - A(x). No finite differences involved.
    """
    pi = np.asarray(p, dtype=float) - em.potential_spacetime(x)
    return np.multiply.outer(pi, pi).astype(complex) \
        + 1j * em.potential_gradient()


def top_spinor_matrix(p: np.ndarray, em: EMConfig, scale: MassScale,
                      x: np.ndarray, counterterm: bool = False) -> np.ndarray:
    """Reduced 4x4 operator of the top wave equation on a spin-1/2 plane wave.

    g^{mu nu} Pi_mu Pi_nu I + (spin coupling block) + 6 xi^2 / a^2 I.
    With ``counterterm`` the curvature term is shifted by
    -(a / xi)^2 (H^2 - E^2) xi^2, which removes the quadratic field
    invariant introduced by the spin coupling squares.
    """
    a = scale.a
    t = momentum_product_symbol(p, em, x)
    # the Minkowski metric is its own inverse
    scalar = np.einsum("mn,mn->", MINKOWSKI, t)
    with np.errstate(**EXTREME_SCALES):
        curvature = 6.0 * XI2 / a ** 2
        if counterterm:
            curvature -= a ** 2 * em.invariant_h2_e2()
        return scalar * np.eye(4, dtype=complex) \
            + parity_spin_coupling(Irrep(0.0, 0.5), em, a) \
            + curvature * np.eye(4, dtype=complex)


def squared_dirac_matrix(p: np.ndarray, em: EMConfig, mass: float,
                         x: np.ndarray) -> np.ndarray:
    """Square of the covariant Dirac operator on a plane wave, plus m^2.

    gamma^mu gamma^nu Pi_mu Pi_nu + m^2 c^2 I in the mostly-plus signature;
    this matrix annihilates on-shell free spinors with (p^0)^2 = |p|^2 + m^2.
    """
    gam = gamma_matrices()
    t = momentum_product_symbol(p, em, x)
    out = np.einsum("mij,njk,mn->ik", gam, gam, t)
    return out + np.float64(mass) ** 2 * np.eye(4, dtype=complex)


def dispersion_root(p_spatial: np.ndarray, scale: MassScale) -> float:
    """Positive-energy root p^0 of the field-free reduced operator.

    Found by bisection on the sign of the operator's scalar part
    tr(M)/4 over [0, sqrt(|p|^2 + (2 mass)^2) + 2], until the bracket is
    at most 1e-14 + 1e-15 p^0 wide; the closed-form answer
    sqrt(|p|^2 + mass^2) is never used. NaN when the operator is not finite
    at the ends of the bracket (the scale over- or underflowed).
    """
    p_spatial = np.asarray(p_spatial, dtype=float)
    em, x = EMConfig.zero(), np.zeros(4)

    def scalar_part(p0: float) -> float:
        m = top_spinor_matrix(np.array([p0, *p_spatial]), em, scale, x)
        return float(np.real(np.trace(m)) / 4.0)

    lo, f_lo = 0.0, scalar_part(0.0)
    hi = np.sqrt(p_spatial @ p_spatial + (2.0 * scale.mass) ** 2) + 2.0
    if not np.all(np.isfinite([f_lo, scalar_part(hi)])):
        return float("nan")
    # lo only moves to points of f_lo's sign, so the root stays bracketed
    while hi - lo > 1e-14 + 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if np.sign(scalar_part(mid)) == np.sign(f_lo):
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))
