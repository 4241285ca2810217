"""Central finite-difference stencils for scalar and array-valued callables.

Everything downstream (curvature, Weyl scalar, wave operator, angular
Laplacian) is built from nested first derivatives, so only first-derivative
stencils live here.

Every callable differentiated here follows one convention, that of a numpy
gufunc with signature ``(n)->()``: it takes points on the last axis, with
any number of leading batch axes, and returns its values with those batch
axes leading. All stencil points of one derivative stack are evaluated in
one call, so a nested derivative costs one call per nesting level.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np

# offsets and weights for the first derivative, by accuracy order
_STENCILS = {
    2: ((-1, 1), (-0.5, 0.5)),
    4: ((-2, -1, 1, 2), (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)),
}


def stencil(order: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Return (offsets, weights) of the central first-derivative stencil."""
    try:
        return _STENCILS[order]
    except KeyError:
        raise ValueError(f"unsupported stencil order {order}; choose from {sorted(_STENCILS)}")


@functools.lru_cache(maxsize=32)
def _step_table(order: int, h: float, dim: int) -> np.ndarray:
    """Read-only steps[k, i] = offsets[k] h e_i, (n_offsets, dim, dim).

    Built once per (order, h, dim): a verb differentiates with a few step
    sizes in a few dimensions, so the cache stays small.
    """
    offsets, _ = stencil(order)
    steps = np.zeros((len(offsets), dim, dim))
    steps[:, range(dim), range(dim)] = (np.array(offsets) * h)[:, None]
    steps.flags.writeable = False
    return steps


def derivative_stack(f: Callable[[np.ndarray], np.ndarray], point: np.ndarray,
                     h: float, order: int) -> np.ndarray:
    """Stack of partial derivatives: out[..., i, ...] = d f / d q^i at ``point``.

    ``point`` has shape (*batch, dim) and the result (*batch, dim, *value),
    where ``f`` maps (*batch, dim) points to (*batch, *value) values. The
    stencil points of every axis go to ``f`` in one call, as an array of
    shape (n_offsets, *batch, dim, dim). The table of stencil steps comes
    from a small cache keyed by (order, h, dim).
    """
    point = np.asarray(point, dtype=float)
    batch, dim = point.shape[:-1], point.shape[-1]
    _, weights = stencil(order)
    steps = _step_table(order, h, dim)
    points = point[..., None, :] + steps.reshape(
        steps.shape[:1] + (1,) * len(batch) + steps.shape[1:])
    values = np.asarray(f(points))  # values[k]: all points at offset k
    return sum(w * v for w, v in zip(weights, values)) / h


def value_and_derivative_stack(f: Callable[[np.ndarray], np.ndarray],
                               point: np.ndarray, h: float, order: int
                               ) -> tuple[np.ndarray, np.ndarray]:
    """``(f(point), derivative_stack(f, point, h, order))`` from one call
    of ``f``.

    The points ride along with the stencil points that ``derivative_stack``
    hands over: ``f`` sees one flat batch of shape (n_stencil + n_batch,
    dim), stencil points first, and the stack is the weighted sum of the
    stencil rows.
    """
    point = np.asarray(point, dtype=float)
    dim = point.shape[-1]
    value = []

    def with_point(points):
        n = points.size // dim
        values = np.asarray(f(np.concatenate([points.reshape(n, dim),
                                              point.reshape(-1, dim)])))
        value.append(values[n:].reshape(point.shape[:-1] + values.shape[1:]))
        return values[:n].reshape(points.shape[:-1] + values.shape[1:])

    stack = derivative_stack(with_point, point, h=h, order=order)
    return value[0], stack


def central_diff(f: Callable[[np.ndarray], np.ndarray], point: np.ndarray,
                 axis: int, h: float, order: int) -> np.ndarray:
    """Derivative of ``f`` along one coordinate axis: one slice of
    ``derivative_stack``, with the same calling convention for ``f``."""
    point = np.asarray(point, dtype=float)
    stack = derivative_stack(f, point, h=h, order=order)
    return np.take(stack, axis, axis=point.ndim - 1)
