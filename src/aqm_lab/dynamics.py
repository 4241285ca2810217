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

from dataclasses import dataclass

import numpy as np

from .config_space import RAPIDITY_MAX, TopMetric, split_point
from .hj import EMConfig, WaveInputs, born_density, divergence_residual, \
    raised_momentum

# below this, |g^ij u_i u_j| counts as degenerate (null direction)
NULL_TOL = 1e-10


def velocity_field(fields: WaveInputs, em: EMConfig, metric: TopMetric,
                   point: np.ndarray, h: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Normalized trajectory velocity and the squared momentum norm.

    v^i = g^{ij} u_j / sqrt(|g^{kl} u_k u_l|); the returned norm is
    g^{kl} u_k u_l (negative for timelike directions). ``point`` has shape
    (*batch, 10); v has the same shape and the norm the batch shape. The
    caller tests the norms: where |norm| < NULL_TOL, v is left
    unnormalized.
    """
    point = np.asarray(point, dtype=float)
    up, norm2 = raised_momentum(fields, em, metric, point, h)
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
                         h: float) -> Bundle:
    """Fixed-step fourth-order Runge-Kutta integration of the velocity field.

    ``starts`` is a stack of start points, shape (n_traj, 10); n_steps >= 1.
    Each RK4 stage is one ``velocity_field`` call on every trajectory, step
    0's first stage being the start evaluation: at most 4 n_steps calls,
    none after every trajectory has stopped. A trajectory stops (keeping
    its samples) as "degenerate" when u.u at one of its stages is below
    NULL_TOL in magnitude or has the other sign than at its start, where
    v = u#/sqrt|u.u| would step through its singularity, and as "rapidity"
    when a boost leaves the chart domain. It is then held at its last
    sample, its slope 0, while the others run on.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or not len(starts) or n_steps < 1:
        raise ValueError("need a stack of starts (n_traj, 10), n_steps >= 1")
    if not np.all(_within_chart(starts)):
        raise ValueError("initial point outside the rapidity domain")
    samples = np.full((n_steps + 1,) + starts.shape, np.nan)
    samples[0] = q = starts
    n_samples = np.full(len(starts), n_steps + 1)
    truncated = np.full(len(starts), None, dtype=object)
    running = np.ones(len(starts), dtype=bool)
    start = None

    def stop(rows, reason, step):
        truncated[rows] = reason
        n_samples[rows] = step + 1
        running[rows] = False

    for step in range(n_steps):
        ks = []
        # stages at q, q + ds/2 k1, q + ds/2 k2 and q + ds k3. A NaN norm
        # compares false, so it propagates instead of stopping its row
        for c in (None, 0.5, 0.5, 1.0):
            p = q if c is None else q + c * ds * ks[-1]
            v, norm2 = velocity_field(fields, em, metric, p, h=h)
            if start is None:
                start, start_sign = (v, norm2), np.sign(norm2)
            halt = running & (norm2 * start_sign < NULL_TOL)
            if halt.any():
                stop(halt, "degenerate", step)
                if not running.any():
                    break
            ks.append(np.where(running[:, None], v, 0.0))
        else:  # some trajectory runs on through all four stages
            q_next = q + (ds / 6.0) * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3])
            outside = running & ~_within_chart(q_next)
            if outside.any():
                stop(outside, "rapidity", step)
            q = np.where(running[:, None], q_next, q)
            samples[step + 1, running] = q[running]
        if not running.any():
            break

    return Bundle(points=samples, n_samples=n_samples, truncated=truncated,
                  start_velocity=start[0], start_norm2=start[1])


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
    section_flux: list[float]


def flux_density(fields: WaveInputs, em: EMConfig, metric: TopMetric,
                 point: np.ndarray, h: float) -> np.ndarray:
    """Current magnitude along the flow, |psi|^2 sqrt(g) sqrt(|g^{ij} u_i u_j|),
    at points on the last axis."""
    point = np.asarray(point, dtype=float)
    _, norm2 = raised_momentum(fields, em, metric, point, h)
    return born_density(fields, point) * metric.sqrt_det(point) \
        * np.sqrt(np.abs(norm2))


def transport_check(fields: WaveInputs, em: EMConfig, metric: TopMetric,
                    bundle: Bundle, n_sections: int, h: float
                    ) -> TransportReport:
    """Divergence, flux drift and crossing diagnostics along a bundle.

    Cross-sections are equally spaced parameter steps shared by all
    trajectories; the flux through a section is the bundle average of the
    current magnitude. All sections go in one call, as one batch of shape
    (n_sections, n_traj, 10); the divergence comes back with the axis of
    its one config, which is dropped here. Truncated trajectories shorten
    the shared range and are counted, not failed; a trajectory stopped at
    its start point leaves no range to drift over, and the flux drift is
    NaN. Worst cases use np.max, so a NaN divergence or flux propagates
    instead of being dropped by the builtin max.
    """
    n_common = int(np.min(bundle.n_samples))
    n = min(n_sections, n_common)  # more samples give the same index set
    idx = np.unique(np.linspace(0, n_common - 1, n).astype(int))
    sections = bundle.points[idx]
    fluxes = np.mean(flux_density(fields, em, metric, sections, h=h), axis=-1)
    divergences = divergence_residual(fields, em, metric, sections, h)[..., 0]
    drift = np.max(np.abs(fluxes - fluxes[0])) / abs(fluxes[0]) \
        if n_common > 1 else np.nan
    return TransportReport(
        max_divergence=float(np.max(np.abs(divergences))),
        flux_drift=float(drift),
        min_distance=min_pairwise_distance(bundle),
        n_truncated=sum(t is not None for t in bundle.truncated),
        section_flux=fluxes.tolist(),
    )
