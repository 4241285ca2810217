"""Riemannian and Weyl-integrable geometry evaluated by finite differences.

A metric is any object exposing the ``MetricField`` interface. Curvature
quantities are assembled from nested central differences of the metric
components. A Weyl structure adds a positive gauge field chi(q), given as
the callable log chi: its gradient is the Weyl covector, and the Weyl
scalar curvature is provided in two algebraically equivalent but
independently coded forms so their agreement is a meaningful check. One
gauge-covariant Laplace-Beltrami operator serves the Weyl scalar, the wave
operator and the Casimir check.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .fd import derivative_stack, value_and_derivative_stack

# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------


class MetricField:
    """Base class for metric fields g_ij(q).

    Subclasses set ``dim`` and implement ``matrix``. ``inverse`` and
    ``sqrt_det`` have generic fallbacks. Every method takes points on the
    last axis of ``q`` and returns its values with the leading axes of
    ``q`` in front.
    """

    dim: int = 0

    def matrix(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse(self, q: np.ndarray) -> np.ndarray:
        return _invert(self.matrix(q))

    def sqrt_det(self, q: np.ndarray) -> np.ndarray:
        return np.sqrt(np.abs(np.linalg.det(self.matrix(q))))


def _invert(g: np.ndarray) -> np.ndarray:
    """The generic inverse of metric matrices g on the last two axes."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError:
        # an exactly singular matrix (a scale underflowed to zero) makes
        # the batch NaN, which the checks report
        return np.full(g.shape, np.nan)


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


def christoffel_at(metric: MetricField, point: np.ndarray,
                   h: float) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel symbols Gamma^i_{jk} of the metric at points on the last
    axis, and the inverse metric g^{ij} there: ``(gam, ginv)``.

    Components are assembled from central differences of the metric matrix,
    whose values at the points come from the same call as its stencil.
    """
    g, dg = value_and_derivative_stack(metric.matrix, point, h)
    # dg[..., l, i, j] = d_l g_ij; curvature stays a result of ``matrix``
    # alone, never of a closed form
    ginv = _invert(g)
    term = np.einsum("...jlk->...ljk", dg) + np.einsum("...klj->...ljk", dg) - dg
    return 0.5 * np.einsum("...il,...ljk->...ijk", ginv, term), ginv


def riemann_scalar_at(metric: MetricField, point: np.ndarray, h: float, *,
                      order: int = 4) -> float:
    """Riemann scalar curvature R at one point by nested finite differences.

    ``h`` steps the outer derivatives of the Christoffel symbols, h/10 the
    metric derivatives inside each Christoffel evaluation. One Christoffel
    evaluation covers the point and its stencil, with the inverse metric
    riding along as an extra slice, so ``matrix`` is called once.

    ``order`` names the one stencil, 4, and changes nothing: it is kept only
    for callers that still pass it, and any other value raises ValueError.
    """
    if order != 4:
        raise ValueError(f"unsupported stencil order {order}; the stencil "
                         f"is of order 4")
    h_inner = h / 10.0

    def christoffel_and_inverse(q):
        gam, ginv = christoffel_at(metric, q, h=h_inner)
        return np.concatenate([gam, ginv[..., None, :, :]], axis=-3)

    both, dboth = value_and_derivative_stack(christoffel_and_inverse, point, h)
    gam, ginv, dgam = both[:-1], both[-1], dboth[:, :-1]
    t1 = np.einsum("iijk->jk", dgam)
    t2 = np.einsum("jiik->jk", dgam)
    t3 = np.einsum("iip,pjk->jk", gam, gam)
    t4 = np.einsum("ijp,pik->jk", gam, gam)
    return float(np.einsum("jk,jk->", ginv, t1 - t2 + t3 - t4))


def _columns(v: np.ndarray, nb: int) -> np.ndarray:
    """Axis ``nb`` of ``v`` moved last and made contiguous: each value
    element's dim-vector is the operand its own scalar call multiplies."""
    return np.ascontiguousarray(np.moveaxis(v, nb, -1))


def covariant_divergence_at(metric: MetricField, vector: Callable[[np.ndarray], np.ndarray],
                            point: np.ndarray, h: float,
                            potential: Callable[[np.ndarray], np.ndarray] | None = None):
    """Gauge-covariant divergence (1/sqrt g)(d_k - i A_k)(sqrt g V^k) of a vector field.

    ``point`` has shape (*batch, dim). ``vector(q)`` returns V^k on the axis
    after the batch axes of ``q``; trailing axes may hold complex or matrix
    values, and the result has shape (*batch, *value). ``potential(q)``,
    when given, is the charge-weighted covector A_k, (*batch, dim, ...),
    padded with unit axes to the value rank of V, against whose value axes
    it broadcasts. The value axes are a batch: each value element has the
    bits of its own scalar call. Uses the density form, which needs no
    Christoffel symbols.
    """
    point = np.asarray(point, dtype=float)
    nb = point.ndim - 1

    def density(q):
        v = np.asarray(vector(q))
        return _lead(metric.sqrt_det(q), v.ndim) * v

    # flux[..., i, k, ...] = d_i (sqrt g V^k); the value axes follow k, so
    # the trace is indexed from the front
    flux = derivative_stack(density, point, h=h)
    total = 0.0
    for k in range(metric.dim):
        total += flux[(slice(None),) * nb + (k, k)]
    sqrt_g = metric.sqrt_det(point)
    if potential is not None:
        v = np.asarray(vector(point))
        v = _lead(sqrt_g, v.ndim) * v
        a = _lead(1j * potential(point), v.ndim)
        # one (1, dim) @ (dim, 1) product per value column
        total = total - (_columns(a, nb)[..., None, :]
                         @ _columns(v, nb)[..., None])[..., 0, 0]
    return total / _lead(sqrt_g, np.ndim(total))


def laplace_beltrami(metric: MetricField, f: Callable[[np.ndarray], np.ndarray],
                     point: np.ndarray, h: float,
                     potential: Callable[[np.ndarray], np.ndarray] | None = None,
                     h_inner: float | None = None):
    """Gauge-covariant Laplace-Beltrami operator (1/sqrt g) D_i (sqrt g g^{ij} D_j f).

    D = d - i A with the charge-weighted covector ``potential`` (zero when
    omitted). ``f`` may be real, complex or matrix valued. ``h`` steps the
    outer divergence, ``h_inner`` (default h) the inner gradient. The
    potential broadcasts as in ``covariant_divergence_at``: a stack of
    covectors on its last axis against a unit last axis of ``f`` gives one
    Laplacian per covector from one evaluation of ``f`` per stencil level.
    Each value element has the bits of its own scalar call.
    """
    h_inner = h if h_inner is None else h_inner

    def grad_up(q):
        df = derivative_stack(f, q, h=h_inner)  # (*batch, dim, *value)
        nb = q.ndim - 1
        if potential is not None:
            df = df - 1j * (_lead(potential(q), df.ndim)
                            * np.expand_dims(f(q), nb))
        # g^{ij} with unit value axes @ each value column
        ginv = np.expand_dims(metric.inverse(q), tuple(range(nb, df.ndim - 1)))
        return np.moveaxis((ginv @ _columns(df, nb)[..., None])[..., 0], -1, nb)

    return covariant_divergence_at(metric, grad_up, point, h, potential)


# ---------------------------------------------------------------------------
# Weyl structure
# ---------------------------------------------------------------------------


def weyl_scalar_at(metric: MetricField,
                   log_chi: Callable[[np.ndarray], np.ndarray],
                   point: np.ndarray, h: float,
                   form: str, r_scalar: float) -> float:
    """Weyl scalar curvature of the metric and the gauge chi = exp(log_chi)
    at one point.

    Two independently coded forms of the same scalar, named by ``form``:

    * ``form="phi"``:  R + 2(n-1) div(phi#) - (n-1)(n-2) phi.phi,
      with the Weyl covector phi_i = d_i log chi raised by the inverse metric.
    * ``form="chi"``:  R + 2(n-1) (lap chi)/chi - n(n-1) |grad chi|^2/chi^2.

    with n = ``metric.dim`` and R = ``r_scalar``, the caller's Riemann scalar
    of the metric at the point: neither form computes curvature.
    """
    point = np.asarray(point, dtype=float)
    n, r = metric.dim, float(r_scalar)

    if form == "phi":
        div_phi = laplace_beltrami(metric, log_chi, point, h=h)
        phi = derivative_stack(log_chi, point, h=h)
        phi_sq = float(phi @ metric.inverse(point) @ phi)
        return r + 2.0 * (n - 1) * div_phi - (n - 1) * (n - 2) * phi_sq

    if form == "chi":
        def chi(q):
            return np.exp(log_chi(q))

        chi0 = chi(point)
        lap_chi = laplace_beltrami(metric, chi, point, h=h)
        dchi = derivative_stack(chi, point, h=h)
        grad_sq = float(dchi @ metric.inverse(point) @ dchi)
        return r + 2.0 * (n - 1) * lap_chi / chi0 - n * (n - 1) * grad_sq / chi0 ** 2

    raise ValueError(f"unknown form {form!r}; use 'phi' or 'chi'")


def conformal_transform(metric: MetricField,
                        log_chi: Callable[[np.ndarray], np.ndarray],
                        log_rho: Callable[[np.ndarray], np.ndarray]
                        ) -> tuple[ScaledMetric, Callable[[np.ndarray], np.ndarray]]:
    """Conformal gauge change (g, chi) -> (rho g, chi sqrt(rho)) with
    rho = exp(log_rho), returned as (rho g, log chi + (1/2) log rho).

    This is the unique gauge shift under which the Weyl scalar transforms
    with weight -1 (rho * R_W(transformed) = R_W(original)) and under which
    the unit gauge rho = chi^(-2) drives chi to 1, reducing the Weyl scalar
    to the Riemann scalar of the rescaled metric.
    """
    def rho(q):
        return np.exp(log_rho(q))

    def new_log_chi(q):
        return log_chi(q) + 0.5 * log_rho(q)

    return ScaledMetric(metric, rho), new_log_chi
