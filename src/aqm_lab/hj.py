"""Weyl-gauge Hamilton-Jacobi system on the top configuration space.

The classical data are a phase field S(q) and a Weyl gauge chi(q); the
electromagnetic data are uniform electric and magnetic fields extended to
the group directions through the right-invariant frame. The module checks
that the nonlinear pair (Hamilton-Jacobi equation, transport equation) is
exactly equivalent to one linear wave equation for
psi = chi^(-(n-2)/2) exp(i S), with the conformal coupling
xi^2 = (n-2)/(4(n-1)) and no approximation: the complex residual of the
wave operator splits into the two real residuals, and the defect of that
split is zero to stencil accuracy.

Natural units hbar = c = 1; the electric charge stays an explicit knob.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config_space import killing_vectors, split_point
from .fd import derivative_stack
from .fields import draw_field
from .geometry import MetricField, WeylGauge, covariant_divergence_at, \
    laplace_beltrami, weyl_scalar_at


def conformal_coupling(n: int) -> float:
    """Conformal coupling constant xi(n) = sqrt((n-2) / (4(n-1))).

    This is the unique coupling for which the curvature-potential wave
    equation is conformally invariant; xi(10) = sqrt(2)/3, xi(4) = sqrt(1/6),
    xi(2) = 0.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return float(np.sqrt((n - 2) / (4.0 * (n - 1))))


# ---------------------------------------------------------------------------
# electromagnetic configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EMConfig:
    """Uniform electromagnetic field with its coupling constants.

    ``e_field`` and ``h_field`` are the electric and magnetic 3-vectors. The
    spacetime potential A_0 = E.x, A_k = (1/2)(H x x)_k reproduces the field
    strength F_{0k} = -E_k, F_{kl} = eps_{klm} H_m. ``kappa`` scales the
    group-direction extension of the potential.
    """

    e_field: np.ndarray
    h_field: np.ndarray
    e_charge: float = 1.0
    kappa: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "e_field", np.asarray(self.e_field, dtype=float))
        object.__setattr__(self, "h_field", np.asarray(self.h_field, dtype=float))
        if self.e_field.shape != (3,) or self.h_field.shape != (3,):
            raise ValueError("e_field and h_field must be 3-vectors")

    @classmethod
    def zero(cls, kappa: float = 2.0) -> "EMConfig":
        return cls(np.zeros(3), np.zeros(3), kappa=kappa)

    def potential_spacetime(self, x: np.ndarray) -> np.ndarray:
        """Covariant components (A_0, A_1, A_2, A_3) at events x on the last axis."""
        x = np.asarray(x, dtype=float)
        a = np.empty(x.shape)
        a[..., 0] = x[..., 1:] @ self.e_field
        a[..., 1:] = 0.5 * np.cross(self.h_field, x[..., 1:])
        return a

    def invariant_h2_e2(self) -> float:
        """The scalar invariant (1/2) F_{mu nu} F^{mu nu} = H^2 - E^2."""
        return float(self.h_field @ self.h_field - self.e_field @ self.e_field)

    def potential_gradient(self) -> np.ndarray:
        """Constant Jacobian dA[mu, nu] = d_mu A_nu of the spacetime potential."""
        da = np.zeros((4, 4))
        da[1:, 0] = self.e_field
        for i, j, m in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            da[i, j] = 0.5 * self.h_field[m - 1]
            da[j, i] = -0.5 * self.h_field[m - 1]
        return da

    def generator_charges(self) -> np.ndarray:
        """Constant algebra-frame components -(kappa/2) (H1, H2, H3, E1, E2, E3)."""
        return -0.5 * self.kappa * np.concatenate([self.h_field, self.e_field])

    def potential(self, q: np.ndarray) -> np.ndarray:
        """Full 10-component covariant potential at configuration points."""
        x, theta = split_point(q)
        return np.concatenate([self.potential_spacetime(x),
                               extend_potential(self, theta)], axis=-1)


def extend_potential(em: EMConfig, theta: np.ndarray) -> np.ndarray:
    """Group-direction components A_alpha of the extended potential.

    The uniform field defines constant charges on the right-invariant frame;
    pulling them back through the frame gives chart components
    A_alpha = xi[alpha, a] * (-(kappa/2) (H, E))_a. At theta = 0 these are
    the charges themselves.
    """
    return killing_vectors(theta) @ em.generator_charges()


# ---------------------------------------------------------------------------
# wave data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WaveInputs:
    """Classical data of the system: phase field S(q) and Weyl gauge chi(q)."""

    s_field: Callable[[np.ndarray], np.ndarray]
    gauge: WeylGauge


def draw_wave_inputs(rng: np.random.Generator) -> WaveInputs:
    """Random band-limited phase and log-gauge fields on the 10-dim space."""
    s_field = draw_field(rng, 10)
    log_chi = draw_field(rng, 10)
    return WaveInputs(s_field=s_field, gauge=WeylGauge.from_log(log_chi))


def momentum_covector(fields: WaveInputs, em: EMConfig, point: np.ndarray,
                      h: float = 1e-3, order: int = 4) -> np.ndarray:
    """Gauge-covariant momentum u_j = d_j S - e A_j at points on the last axis."""
    point = np.asarray(point, dtype=float)
    return derivative_stack(fields.s_field, point, h=h, order=order) \
        - em.e_charge * em.potential(point)


def born_density(fields: WaveInputs, point: np.ndarray) -> np.ndarray:
    """Scalar density |psi|^2 = chi^(-(n-2)) carried by the linearizing map,
    with n the length of the last axis of ``point``."""
    point = np.asarray(point, dtype=float)
    return np.exp(-(point.shape[-1] - 2) * fields.gauge.log_chi(point))


def wave_ansatz(fields: WaveInputs) -> Callable[[np.ndarray], np.ndarray]:
    """The linearizing map psi(q) = chi^(-(n-2)/2) exp(i S), n = dim q."""
    s_field, log_chi = fields.s_field, fields.gauge.log_chi

    def psi(q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return np.exp(-(q.shape[-1] - 2) / 2.0 * log_chi(q) + 1j * s_field(q))

    return psi


# ---------------------------------------------------------------------------
# residuals and the linearization identity
# ---------------------------------------------------------------------------


def hj_residual(fields: WaveInputs, em: EMConfig, metric: MetricField,
                point: np.ndarray, r_scalar: float, xi2: float | None = None,
                h: float = 1e-3, order: int = 4) -> float:
    """Residual of the Hamilton-Jacobi equation at a point.

    g^{ij} u_i u_j + xi^2 R_W, which vanishes on solutions. ``r_scalar`` is
    the Riemann scalar of the metric at the point; ``xi2`` may override the
    conformal coupling (for control experiments).
    """
    point = np.asarray(point, dtype=float)
    if xi2 is None:
        xi2 = conformal_coupling(metric.dim) ** 2
    u = momentum_covector(fields, em, point, h=h, order=order)
    rw = weyl_scalar_at(metric, fields.gauge, point, h=h, order=order,
                        r_scalar=r_scalar)
    return float(u @ metric.inverse(point) @ u + xi2 * rw)


def divergence_residual(fields: WaveInputs, em: EMConfig, metric: MetricField,
                        point: np.ndarray, h: float = 1e-3, order: int = 4
                        ) -> float:
    """Residual of the transport equation: covariant divergence of the
    density-weighted momentum current chi^(-(n-2)) g^{ij} u_j."""
    point = np.asarray(point, dtype=float)

    def current_up(q):
        u = momentum_covector(fields, em, q, h=h, order=order)
        up = (metric.inverse(q) @ u[..., None])[..., 0]
        return born_density(fields, q)[..., None] * up

    return covariant_divergence_at(metric, current_up, point, h=h, order=order)


def wave_operator(psi: Callable[[np.ndarray], np.ndarray], em: EMConfig,
                  metric: MetricField, point: np.ndarray, xi2: float,
                  r_scalar: float, h: float = 1e-3, order: int = 4) -> complex:
    """Minimally coupled curvature-potential wave operator applied to psi.

    W psi = -(1/sqrt g)(d_i - i e A_i) [sqrt g g^{ij} (d_j - i e A_j) psi]
            + xi^2 R psi,
    evaluated at one point by nested central differences.
    """
    lap = laplace_beltrami(metric, psi, point, h=h, order=order,
                           potential=lambda q: em.e_charge * em.potential(q))
    return complex(-lap + xi2 * r_scalar * psi(point))


def linearization_check(fields: WaveInputs, em: EMConfig, metric: MetricField,
                        point: np.ndarray, r_scalar: float,
                        xi2: float | None = None, h: float = 1e-3,
                        order: int = 4) -> tuple[complex, float, float]:
    """Verify the exact linearization at one point.

    Returns (defect, hj_res, div_res) where

        defect = (W psi)/psi - hj_res + i chi^(n-2) div_res.

    At the conformal coupling the identity
    (W psi)/psi = hj_res - i chi^(n-2) div_res holds exactly, so the defect
    is zero to stencil accuracy whatever the fields, the electromagnetic
    configuration, and the Riemann scalar value (which cancels between the
    two sides; any consistent ``r_scalar`` gives the same defect). With a
    wrong coupling injected via ``xi2`` the defect becomes
    (xi2_true - xi2) (R_W - R), which is generically far from zero.
    """
    point = np.asarray(point, dtype=float)
    n = metric.dim
    if xi2 is None:
        xi2 = conformal_coupling(n) ** 2

    psi = wave_ansatz(fields)
    w = wave_operator(psi, em, metric, point, xi2=xi2, r_scalar=r_scalar,
                      h=h, order=order)
    hj = hj_residual(fields, em, metric, point, r_scalar, xi2=xi2,
                     h=h, order=order)
    div = divergence_residual(fields, em, metric, point, h=h, order=order)
    chi_pow = float(np.exp((n - 2) * fields.gauge.log_chi(point)))
    defect = w / psi(point) - hj + 1j * chi_pow * div
    return complex(defect), float(hj), float(div)
