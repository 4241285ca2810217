"""Band-limited random scalar fields used as test inputs.

Each field is a finite sum of low-order polynomial factors times sinusoids
with bounded coefficients, so all derivatives stay O(1) on the sampled
domain and finite differences converge at their nominal order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BandLimitedField:
    """value(q) = sum_m amp[m] * prod_d (poly[m, d] . q) * sin(wavevec[m] . q + phase[m]).

    ``degree[m]`` in {0, 1, 2} selects how many linear polynomial factors
    multiply term m; unused factor rows are ignored.
    """

    amp: np.ndarray       # (m,)
    wavevec: np.ndarray   # (m, dim)
    phase: np.ndarray     # (m,)
    poly: np.ndarray      # (m, 2, dim)
    degree: np.ndarray    # (m,) ints in 0..2

    @property
    def dim(self) -> int:
        return self.wavevec.shape[1]

    def __call__(self, q: np.ndarray) -> np.ndarray:
        """Values at points on the last axis of ``q``, shape ``q.shape[:-1]``."""
        q = np.asarray(q, dtype=float)
        osc = np.sin(q @ self.wavevec.T + self.phase)  # (..., m)
        lin = np.einsum("...d,mkd->...mk", q, self.poly)  # (..., m, 2)
        factors = np.ones_like(osc)
        for d in range(2):
            factors = factors * np.where(self.degree > d, lin[..., d], 1.0)
        return (factors * osc) @ self.amp


@dataclass(frozen=True)
class LinearField:
    """Exact linear field value(q) = coeffs . q, for plane-wave phases."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def __call__(self, q: np.ndarray) -> np.ndarray:
        return np.asarray(q, dtype=float) @ self.coeffs


def draw_field(rng: np.random.Generator, dim: int,
               amp_scale: float = 1.0) -> BandLimitedField:
    """Draw a random field of four terms: wavevectors and polynomial factors
    uniform in [-1/2, 1/2], phases in [0, 2 pi), degrees in {0, 1, 2} and
    amplitudes uniform in [-amp_scale, amp_scale]."""
    return BandLimitedField(
        amp=amp_scale * rng.uniform(-1.0, 1.0, 4),
        wavevec=rng.uniform(-0.5, 0.5, (4, dim)),
        phase=rng.uniform(0.0, 2.0 * np.pi, 4),
        poly=rng.uniform(-0.5, 0.5, (4, 2, dim)),
        degree=rng.integers(0, 3, 4),
    )
