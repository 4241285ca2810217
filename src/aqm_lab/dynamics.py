"""Hamiltonian trajectory bundles on the top configuration space.

Trajectories follow the normalized gauge-covariant momentum raised by the
metric. A bundle is a set of nearby trajectories integrated together; the
transport check verifies that the conserved current stays divergence-free
along the tube, that the flux carried through successive cross-sections
does not drift, and that trajectories never cross within the probed tube.

Degenerate (null) directions, steps that would cross the null surface, and
boost components running past the chart bound truncate the affected
trajectory; truncation is recorded, never raised as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config_space import NULL_TOL, RAPIDITY_MAX, TopMetric, split_point
from .hj import EMConfig, WaveInputs, born_density, divergence_residual, \
    raised_momentum


def velocity_field(fields: WaveInputs, em: EMConfig, metric: TopMetric,
                   point: np.ndarray, h: float = 1e-3, order: int = 4
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Normalized trajectory velocity and the squared momentum norm.

    v^i = g^{ij} u_j / sqrt(|g^{kl} u_k u_l|); the returned norm is
    g^{kl} u_k u_l (negative for timelike directions). ``point`` has shape
    (*batch, 10); v has the same shape and the norm the batch shape. The
    caller tests the norms: where |norm| < NULL_TOL, v is left
    unnormalized.
    """
    point = np.asarray(point, dtype=float)
    up, norm2 = raised_momentum(fields, em, metric, point, h, order)
    scale = np.sqrt(np.abs(np.where(np.abs(norm2) < NULL_TOL, 1.0, norm2)))
    return up / scale[..., None], norm2


@dataclass(frozen=True)
class Bundle:
    """Trajectories integrated together, as the integrator fills them.

    ``points[k, i]`` is trajectory i after k steps, for k below
    ``n_samples[i]``; later rows of a trajectory that stopped early are
    NaN. ``truncated[i]`` is None, "degenerate" or "rapidity". The start
    evaluation ``velocity_field(points[0])`` is kept as ``start_velocity``
    and ``start_norm2``.
    """

    points: np.ndarray          # (n_steps + 1, n_traj, 10)
    n_samples: np.ndarray       # (n_traj,) int
    truncated: np.ndarray       # (n_traj,) object
    start_velocity: np.ndarray  # (n_traj, 10)
    start_norm2: np.ndarray     # (n_traj,)

    @property
    def timelike(self) -> np.ndarray:
        """Whether each start is timelike and not degenerate."""
        return self.start_norm2 <= -NULL_TOL


def _within_chart(q: np.ndarray) -> np.ndarray:
    """Whether each point on the last axis has every boost within the bound."""
    _, theta = split_point(q)
    return np.all(np.abs(theta[..., 3:]) <= RAPIDITY_MAX, axis=-1)


def integrate_trajectory(fields: WaveInputs, em: EMConfig, metric: TopMetric,
                         starts: np.ndarray, ds: float, n_steps: int,
                         h: float = 1e-3, order: int = 4) -> Bundle:
    """Fixed-step fourth-order Runge-Kutta integration of the velocity field.

    ``starts`` is a stack of start points, shape (n_traj, 10). All
    trajectories step together: each RK4 stage is one ``velocity_field``
    call on the trajectories still running. The evaluation at the start
    points, which classifies them, is also the first stage of step 0 when
    none is degenerate there, so n_steps steps make 4 n_steps calls. A
    trajectory stops early (keeping its samples so far) as "degenerate"
    when u.u at one of its stages is below NULL_TOL in magnitude or has the
    other sign than at its start, where v = u#/sqrt|u.u| would step through
    its singularity, and as "rapidity" when a boost coordinate leaves the
    chart domain; the others run on.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2:
        raise ValueError("starts must be a stack of shape (n_traj, 10)")
    if not np.all(_within_chart(starts)):
        raise ValueError("initial point outside the rapidity domain")
    n_traj = starts.shape[0]
    samples = np.full((n_steps + 1,) + starts.shape, np.nan)
    samples[0] = starts
    n_samples = np.full(n_traj, n_steps + 1)
    truncated = np.full(n_traj, None, dtype=object)

    def stop(rows, reason, step):
        truncated[rows] = reason
        n_samples[rows] = step + 1

    v0, norm2_0 = velocity_field(fields, em, metric, starts, h=h, order=order)
    degenerate = np.abs(norm2_0) < NULL_TOL
    stop(degenerate, "degenerate", 0)
    start_sign = np.sign(norm2_0)
    running = np.flatnonzero(~degenerate)
    # step 0's first stage is the start's evaluation when every trajectory
    # runs: the same points in the same batch
    start = (v0, norm2_0) if running.size == n_traj else None
    for step in range(n_steps):
        base = samples[step, running]
        ks = []
        # stages at q, q + ds/2 k1, q + ds/2 k2 and q + ds k3; a trajectory
        # that degenerates at a stage leaves the batch before the next one.
        # A NaN norm compares false, so it propagates instead
        for c in (None, 0.5, 0.5, 1.0):
            if not running.size:
                break
            if start is not None:
                (v, norm2), start = start, None
            else:
                p = base if c is None else base + c * ds * ks[-1]
                v, norm2 = velocity_field(fields, em, metric, p, h=h,
                                          order=order)
            live = ~(norm2 * start_sign[running] < NULL_TOL)
            if not live.all():
                stop(running[~live], "degenerate", step)
                running, base, v = running[live], base[live], v[live]
                ks = [k[live] for k in ks]
            ks.append(v)
        if not running.size:
            break
        k1, k2, k3, k4 = ks
        q_next = base + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        inside = _within_chart(q_next)
        stop(running[~inside], "rapidity", step)
        running = running[inside]
        samples[step + 1, running] = q_next[inside]

    return Bundle(points=samples, n_samples=n_samples, truncated=truncated,
                  start_velocity=v0, start_norm2=norm2_0)


def min_pairwise_distance(bundle: Bundle) -> float:
    """Smallest distance between distinct trajectories at shared parameter steps.

    np.min keeps a NaN distance instead of dropping it; a bundle of one
    trajectory has no pairs and gives inf.
    """
    points = bundle.points[:np.min(bundle.n_samples)]
    i, j = np.triu_indices(points.shape[1], k=1)
    d = np.linalg.norm(points[:, i] - points[:, j], axis=-1)
    return float(np.min(d, initial=np.inf))


@dataclass
class TransportReport:
    """Summary of the conserved-transport diagnostics along a bundle."""

    max_divergence: float
    flux_drift: float
    min_distance: float
    n_truncated: int
    section_flux: list[float] = field(default_factory=list)


def flux_density(fields: WaveInputs, em: EMConfig, metric: TopMetric,
                 point: np.ndarray, h: float = 1e-3, order: int = 4) -> np.ndarray:
    """Current magnitude along the flow, |psi|^2 sqrt(g) sqrt(|g^{ij} u_i u_j|),
    at points on the last axis."""
    point = np.asarray(point, dtype=float)
    _, norm2 = raised_momentum(fields, em, metric, point, h, order)
    return born_density(fields, point) * metric.sqrt_det(point) \
        * np.sqrt(np.abs(norm2))


def transport_check(fields: WaveInputs, em: EMConfig, metric: TopMetric,
                    bundle: Bundle, n_sections: int = 5,
                    h: float = 1e-3, order: int = 4) -> TransportReport:
    """Divergence, flux drift and crossing diagnostics along a bundle.

    Cross-sections are equally spaced parameter steps shared by all
    trajectories; the flux through a section is the bundle average of the
    current magnitude. Each section's bundle points are evaluated as one
    batch. Truncated trajectories shorten the shared range and are
    counted, not failed; a trajectory stopped at its start point leaves no
    range to drift over, and the flux drift is NaN. Worst cases use np.max,
    so a NaN divergence or flux propagates instead of being dropped by the
    builtin max.
    """
    n_common = int(np.min(bundle.n_samples))
    n = min(n_sections, n_common)  # more samples give the same index set
    idx = np.unique(np.linspace(0, n_common - 1, n).astype(int))

    fluxes, divergences = [], []
    for i in idx:
        section = bundle.points[i]
        fluxes.append(float(np.mean(
            flux_density(fields, em, metric, section, h=h, order=order))))
        divergences.append(
            divergence_residual(fields, em, metric, section, h=h, order=order))

    drift = np.max([abs(f - fluxes[0]) for f in fluxes]) / abs(fluxes[0]) \
        if n_common > 1 else np.nan
    return TransportReport(
        max_divergence=float(np.max(np.abs(divergences))),
        flux_drift=float(drift),
        min_distance=min_pairwise_distance(bundle),
        n_truncated=sum(t is not None for t in bundle.truncated),
        section_flux=fluxes,
    )
