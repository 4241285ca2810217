"""Riemannian and Weyl-integrable geometry evaluated by finite differences.

A metric is any object exposing the ``MetricField`` interface. Curvature
quantities are assembled from nested central differences of the metric
components; a Weyl structure adds a positive gauge field chi(q) whose
logarithmic gradient is the Weyl covector, and the Weyl scalar curvature is
provided in two algebraically equivalent but independently coded forms so
their agreement is a meaningful check. One gauge-covariant Laplace-Beltrami
operator serves the Weyl scalar, the wave operator and the Casimir check.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fd import derivative_stack

# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------


class MetricField:
    """Base class for metric fields g_ij(q).

    Subclasses set ``dim``, ``constant_dims`` (coordinate indices the
    components provably do not depend on, exploited to skip finite
    differences) and implement ``matrix``. ``inverse`` and ``sqrt_det``
    have generic fallbacks. Every method takes points on the last axis of
    ``q`` and returns its values with the leading axes of ``q`` in front.
    """

    dim: int = 0
    constant_dims: frozenset[int] = frozenset()

    def matrix(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse(self, q: np.ndarray) -> np.ndarray:
        return np.linalg.inv(self.matrix(q))

    def sqrt_det(self, q: np.ndarray) -> np.ndarray:
        return np.sqrt(np.abs(np.linalg.det(self.matrix(q))))


class ConstantMetric(MetricField):
    """Metric with the same components everywhere (flat fixture)."""

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("metric matrix must be square")
        self._m = m
        self._inv = np.linalg.inv(m)
        self._sd = np.sqrt(np.abs(np.linalg.det(m)))
        self.dim = m.shape[0]
        self.constant_dims = frozenset(range(self.dim))

    def matrix(self, q):
        return np.broadcast_to(self._m, np.shape(q)[:-1] + self._m.shape)

    def inverse(self, q):
        return np.broadcast_to(self._inv, np.shape(q)[:-1] + self._inv.shape)

    def sqrt_det(self, q):
        return np.broadcast_to(self._sd, np.shape(q)[:-1])


class SphereMetric(MetricField):
    """Round 2-sphere of radius r in polar coordinates q = (colatitude, azimuth)."""

    dim = 2
    constant_dims = frozenset({1})

    def __init__(self, radius: float = 1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def matrix(self, q):
        r2 = self.radius ** 2
        q = np.asarray(q, dtype=float)
        g = np.zeros(q.shape[:-1] + (2, 2))
        g[..., 0, 0] = r2
        g[..., 1, 1] = r2 * np.sin(q[..., 0]) ** 2
        return g


class ScaledMetric(MetricField):
    """Pointwise conformal scaling rho(q) * g_ij(q) of a base metric."""

    def __init__(self, base: MetricField, rho: Callable[[np.ndarray], np.ndarray]):
        self.base = base
        self.rho = rho
        self.dim = base.dim

    def matrix(self, q):
        return np.asarray(self.rho(q))[..., None, None] * self.base.matrix(q)

    def inverse(self, q):
        return self.base.inverse(q) / np.asarray(self.rho(q))[..., None, None]

    def sqrt_det(self, q):
        return self.base.sqrt_det(q) * self.rho(q) ** (self.dim / 2.0)


def _lead(a, ndim: int) -> np.ndarray:
    """``a`` with trailing unit axes up to ``ndim``, so that it broadcasts
    against an array that carries extra axes after the batch axes of ``a``."""
    a = np.asarray(a)
    return a.reshape(a.shape + (1,) * (ndim - a.ndim))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def christoffel_at(metric: MetricField, point: np.ndarray, h: float = 1e-3,
                   order: int = 4) -> np.ndarray:
    """Christoffel symbols Gamma^i_{jk} of the metric at points on the last axis.

    Components are assembled from central differences of the metric matrix;
    axes in ``metric.constant_dims`` contribute exact zero derivatives.
    """
    point = np.asarray(point, dtype=float)
    dg = derivative_stack(metric.matrix, point, h=h, order=order,
                          skip=metric.constant_dims)  # dg[..., l, i, j] = d_l g_ij
    ginv = metric.inverse(point)
    term = np.einsum("...jlk->...ljk", dg) + np.einsum("...klj->...ljk", dg) - dg
    return 0.5 * np.einsum("...il,...ljk->...ijk", ginv, term)


def riemann_scalar_at(metric: MetricField, point: np.ndarray, h: float = 1e-2,
                      order: int = 4) -> float:
    """Riemann scalar curvature R at one point by nested finite differences.

    ``h`` steps the outer derivatives of the Christoffel symbols, h/10 the
    metric derivatives inside each Christoffel evaluation.
    """
    point = np.asarray(point, dtype=float)
    h_inner = h / 10.0
    gam = christoffel_at(metric, point, h=h_inner, order=order)
    dgam = derivative_stack(
        lambda q: christoffel_at(metric, q, h=h_inner, order=order),
        point, h=h, order=order, skip=metric.constant_dims)
    ginv = metric.inverse(point)
    t1 = np.einsum("iijk->jk", dgam)
    t2 = np.einsum("jiik->jk", dgam)
    t3 = np.einsum("iip,pjk->jk", gam, gam)
    t4 = np.einsum("ijp,pik->jk", gam, gam)
    return float(np.einsum("jk,jk->", ginv, t1 - t2 + t3 - t4))


def covariant_divergence_at(metric: MetricField, vector: Callable[[np.ndarray], np.ndarray],
                            point: np.ndarray, h: float = 1e-3, order: int = 4,
                            potential: Callable[[np.ndarray], np.ndarray] | None = None):
    """Gauge-covariant divergence (1/sqrt g)(d_k - i A_k)(sqrt g V^k) of a vector field.

    ``vector(q)`` returns V^k on the axis after the batch axes of ``q``;
    trailing axes may hold complex or matrix values, and the result has
    their shape. ``potential(q)``, when given, is the charge-weighted
    covector A_k. Uses the density form, which needs no Christoffel symbols.
    """
    point = np.asarray(point, dtype=float)

    def density(q):
        v = np.asarray(vector(q))
        return _lead(metric.sqrt_det(q), v.ndim) * v

    # flux[i, k] = d_i (sqrt g V^k)
    flux = derivative_stack(density, point, h=h, order=order)
    total = 0.0
    for k in range(metric.dim):
        total += flux[k, k]
    sqrt_g = metric.sqrt_det(point)
    if potential is not None:
        total -= np.tensordot(1j * potential(point), sqrt_g * vector(point), axes=1)
    return total / sqrt_g


def laplace_beltrami(metric: MetricField, f: Callable[[np.ndarray], np.ndarray],
                     point: np.ndarray, h: float = 1e-3, order: int = 4,
                     potential: Callable[[np.ndarray], np.ndarray] | None = None,
                     h_inner: float | None = None):
    """Gauge-covariant Laplace-Beltrami operator (1/sqrt g) D_i (sqrt g g^{ij} D_j f).

    D = d - i A with the charge-weighted covector ``potential`` (zero when
    omitted). ``f`` may be real, complex or matrix valued. ``h`` steps the
    outer divergence, ``h_inner`` (default h) the inner gradient.
    """
    h_inner = h if h_inner is None else h_inner

    def grad_up(q):
        df = derivative_stack(f, q, h=h_inner, order=order)  # (*batch, dim, *value)
        batch = q.shape[:-1]
        if potential is not None:
            df = df - 1j * (_lead(potential(q), df.ndim)
                            * np.expand_dims(f(q), len(batch)))
        flat = df.reshape(df.shape[:len(batch) + 1] + (-1,))
        return (metric.inverse(q) @ flat).reshape(df.shape)

    return covariant_divergence_at(metric, grad_up, point, h=h, order=order,
                                   potential=potential)


# ---------------------------------------------------------------------------
# Weyl structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeylGauge:
    """Positive gauge field chi(q) of a Weyl-integrable structure.

    Keeping log(chi) as a first-class callable avoids a lossy exp/log round
    trip when the gauge is built from a log-space field.
    """

    chi: Callable[[np.ndarray], np.ndarray]
    log_chi: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_log(cls, log_chi: Callable[[np.ndarray], np.ndarray]) -> "WeylGauge":
        return cls(chi=lambda q: np.exp(log_chi(q)), log_chi=log_chi)

    @classmethod
    def unit(cls) -> "WeylGauge":
        return cls(chi=lambda q: np.ones(np.shape(q)[:-1]),
                   log_chi=lambda q: np.zeros(np.shape(q)[:-1]))

    def covector(self, q: np.ndarray, h: float = 1e-3, order: int = 4) -> np.ndarray:
        """Weyl covector phi_i = d_i log chi at a point."""
        return derivative_stack(self.log_chi, q, h=h, order=order)


def weyl_scalar_at(metric: MetricField, gauge: WeylGauge, point: np.ndarray,
                   h: float = 1e-3, order: int = 4, form: str = "phi",
                   r_scalar: float | None = None) -> float:
    """Weyl scalar curvature of (metric, gauge) at one point.

    Two independently coded forms of the same scalar:

    * ``form="phi"``:  R + 2(n-1) div(phi#) - (n-1)(n-2) phi.phi,
      with phi_i = d_i log chi raised by the inverse metric.
    * ``form="chi"``:  R + 2(n-1) (lap chi)/chi - n(n-1) |grad chi|^2/chi^2.

    with n = ``metric.dim``. ``r_scalar`` short-circuits the Riemann scalar
    when it is known in closed form (it enters both forms additively).
    """
    point = np.asarray(point, dtype=float)
    n = metric.dim
    r = riemann_scalar_at(metric, point, order=order) \
        if r_scalar is None else float(r_scalar)

    if form == "phi":
        div_phi = laplace_beltrami(metric, gauge.log_chi, point, h=h, order=order)
        phi = gauge.covector(point, h=h, order=order)
        phi_sq = float(phi @ metric.inverse(point) @ phi)
        return r + 2.0 * (n - 1) * div_phi - (n - 1) * (n - 2) * phi_sq

    if form == "chi":
        chi0 = gauge.chi(point)
        lap_chi = laplace_beltrami(metric, gauge.chi, point, h=h, order=order)
        dchi = derivative_stack(gauge.chi, point, h=h, order=order)
        grad_sq = float(dchi @ metric.inverse(point) @ dchi)
        return r + 2.0 * (n - 1) * lap_chi / chi0 - n * (n - 1) * grad_sq / chi0 ** 2

    raise ValueError(f"unknown form {form!r}; use 'phi' or 'chi'")


def conformal_transform(metric: MetricField, gauge: WeylGauge,
                        log_rho: Callable[[np.ndarray], np.ndarray]
                        ) -> tuple[ScaledMetric, WeylGauge]:
    """Conformal gauge change (g, chi) -> (rho g, chi sqrt(rho)), rho = exp(log_rho).

    This is the unique gauge shift under which the Weyl scalar transforms
    with weight -1 (rho * R_W(transformed) = R_W(original)) and under which
    the unit gauge rho = chi^(-2) drives chi to 1, reducing the Weyl scalar
    to the Riemann scalar of the rescaled metric.
    """
    def rho(q):
        return np.exp(log_rho(q))

    chi = gauge.chi
    log_chi = gauge.log_chi
    new_gauge = WeylGauge(
        chi=lambda q: chi(q) * np.sqrt(rho(q)),
        log_chi=lambda q: log_chi(q) + 0.5 * log_rho(q),
    )
    return ScaledMetric(metric, rho), new_gauge
