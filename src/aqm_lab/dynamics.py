"""Hamiltonian trajectory bundles on the top configuration space.

Trajectories follow the normalized gauge-covariant momentum raised by the
metric. A bundle is a set of nearby trajectories integrated together; the
transport check verifies that the conserved current stays divergence-free
along the tube, that the flux carried through successive cross-sections
does not drift, and that trajectories never cross within the probed tube.

Degenerate (null) directions and boost components running past the chart
bound truncate the affected trajectory; truncation is recorded, never
raised as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config_space import NULL_TOL, RAPIDITY_MAX, split_point
from .geometry import MetricField
from .hj import EMConfig, WaveInputs, born_density, divergence_residual, \
    momentum_covector


class DegenerateDirection(Exception):
    """Momentum norm fell below the null tolerance."""


def velocity_field(fields: WaveInputs, em: EMConfig, metric: MetricField,
                   point: np.ndarray, h: float = 1e-3, order: int = 4
                   ) -> tuple[np.ndarray, float]:
    """Normalized trajectory velocity and the squared momentum norm.

    v^i = g^{ij} u_j / sqrt(|g^{kl} u_k u_l|); the returned norm is
    g^{kl} u_k u_l (negative for timelike directions). Raises
    DegenerateDirection when |norm| < NULL_TOL.
    """
    point = np.asarray(point, dtype=float)
    u = momentum_covector(fields, em, point, h=h, order=order)
    up = metric.inverse(point) @ u
    norm2 = float(u @ up)
    if abs(norm2) < NULL_TOL:
        raise DegenerateDirection(f"|u.u| = {abs(norm2):.3e} at s-point")
    return up / np.sqrt(abs(norm2)), norm2


@dataclass
class Trajectory:
    """Integrated curve: parameter values, sample points, and bookkeeping."""

    s_values: np.ndarray
    points: np.ndarray            # (n_samples, 10)
    timelike: bool
    truncated: str | None = None  # None, "degenerate" or "rapidity"

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]


def _within_chart(q: np.ndarray) -> bool:
    _, theta = split_point(q)
    return bool(np.all(np.abs(theta[3:]) <= RAPIDITY_MAX))


def integrate_trajectory(fields: WaveInputs, em: EMConfig, metric: MetricField,
                         q0: np.ndarray, ds: float, n_steps: int,
                         h: float = 1e-3, order: int = 4) -> Trajectory:
    """Fixed-step fourth-order Runge-Kutta integration of the velocity field.

    Stops early (keeping the samples so far) when the direction degenerates
    or a boost coordinate leaves the chart domain.
    """
    q = np.asarray(q0, dtype=float).copy()
    if not _within_chart(q):
        raise ValueError("initial point outside the rapidity domain")

    def rhs(p):
        v, _ = velocity_field(fields, em, metric, p, h=h, order=order)
        return v

    try:
        _, norm2 = velocity_field(fields, em, metric, q, h=h, order=order)
    except DegenerateDirection:
        return Trajectory(s_values=np.zeros(1), points=q[None, :].copy(),
                          timelike=False, truncated="degenerate")
    samples = [q.copy()]
    truncated = None
    for _ in range(n_steps):
        try:
            k1 = rhs(q)
            k2 = rhs(q + 0.5 * ds * k1)
            k3 = rhs(q + 0.5 * ds * k2)
            k4 = rhs(q + ds * k3)
        except DegenerateDirection:
            truncated = "degenerate"
            break
        q_next = q + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not _within_chart(q_next):
            truncated = "rapidity"
            break
        q = q_next
        samples.append(q.copy())
    pts = np.array(samples)
    s_values = ds * np.arange(pts.shape[0])
    return Trajectory(s_values=s_values, points=pts, timelike=norm2 < 0,
                      truncated=truncated)


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------


def integrate_bundle(fields: WaveInputs, em: EMConfig, metric: MetricField,
                     q0: np.ndarray, rng: np.random.Generator,
                     n_traj: int = 8, spread: float = 0.05, ds: float = 0.01,
                     n_steps: int = 100, h: float = 1e-3, order: int = 4
                     ) -> list[Trajectory]:
    """Integrate a bundle of trajectories seeded in a ball around q0."""
    out = []
    for k in range(n_traj):
        offset = spread * rng.uniform(-1.0, 1.0, 10) if k else np.zeros(10)
        out.append(integrate_trajectory(fields, em, metric, q0 + offset,
                                        ds=ds, n_steps=n_steps, h=h, order=order))
    return out


def min_pairwise_distance(bundle: list[Trajectory]) -> float:
    """Smallest distance between distinct trajectories at shared parameter steps."""
    n_common = min(t.n_samples for t in bundle)
    best = np.inf
    for i in range(len(bundle)):
        for j in range(i + 1, len(bundle)):
            d = np.linalg.norm(bundle[i].points[:n_common]
                               - bundle[j].points[:n_common], axis=1)
            best = np.min([best, d.min()])
    return float(best)


@dataclass
class TransportReport:
    """Summary of the conserved-transport diagnostics along a bundle."""

    max_divergence: float
    flux_drift: float
    min_distance: float
    n_truncated: int
    section_flux: list[float] = field(default_factory=list)


def flux_density(fields: WaveInputs, em: EMConfig, metric: MetricField,
                 point: np.ndarray, h: float = 1e-3, order: int = 4) -> float:
    """Current magnitude along the flow: |psi|^2 sqrt(g) sqrt(|g^{ij} u_i u_j|)."""
    point = np.asarray(point, dtype=float)
    u = momentum_covector(fields, em, point, h=h, order=order)
    norm2 = float(u @ metric.inverse(point) @ u)
    return born_density(fields, point) * metric.sqrt_det(point) \
        * float(np.sqrt(abs(norm2)))


def transport_check(fields: WaveInputs, em: EMConfig, metric: MetricField,
                    bundle: list[Trajectory], n_sections: int = 5,
                    h: float = 1e-3, order: int = 4) -> TransportReport:
    """Divergence, flux drift and crossing diagnostics along a bundle.

    Cross-sections are equally spaced parameter steps shared by all
    trajectories; the flux through a section is the bundle average of the
    current magnitude. Truncated trajectories shorten the shared range and
    are counted, not failed. Worst cases use np.max, so a NaN divergence or
    flux propagates instead of being dropped by the builtin max.
    """
    n_common = min(t.n_samples for t in bundle)
    if n_common < 2:
        raise ValueError("bundle has no common parameter range")
    idx = np.unique(np.linspace(0, n_common - 1, n_sections).astype(int))

    fluxes = []
    max_div = 0.0
    for i in idx:
        section_points = [t.points[i] for t in bundle]
        fluxes.append(float(np.mean([
            flux_density(fields, em, metric, p, h=h, order=order)
            for p in section_points])))
        max_div = np.max([max_div, *(
            abs(divergence_residual(fields, em, metric, p, h=h, order=order))
            for p in section_points)])

    drift = np.max([abs(f - fluxes[0]) for f in fluxes]) / abs(fluxes[0])
    return TransportReport(
        max_divergence=float(max_div),
        flux_drift=float(drift),
        min_distance=min_pairwise_distance(bundle),
        n_truncated=sum(1 for t in bundle if t.truncated is not None),
        section_flux=fluxes,
    )
