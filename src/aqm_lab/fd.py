"""The central finite-difference stencil for scalar and array-valued callables.

Everything downstream (curvature, Weyl scalar, wave operator, angular
Laplacian) is built from nested first derivatives, so one stencil lives
here: the fourth-order central first derivative.

The stencil is antisymmetric, and its sum takes the differences first,
((f(+h) - f(-h)) w1 + (f(+2h) - f(-2h)) w2) / h: along an axis that f does
not read, the derivative is exactly 0, not roundoff of order 1e-16/h. The
integrator of ``dynamics`` relies on that zero: the plane wave's angles
then stay fixed to the bit.

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

# offsets and weights of the fourth-order central first-derivative stencil
OFFSETS = (-2, -1, 1, 2)
WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


@functools.lru_cache(maxsize=32)
def _step_table(h: float, dim: int) -> np.ndarray:
    """Read-only steps[k, i] = OFFSETS[k] h e_i, (n_offsets, dim, dim).

    Built once per (h, dim): a verb differentiates with a few step sizes in
    a few dimensions, so the cache stays small.
    """
    steps = np.zeros((len(OFFSETS), dim, dim))
    steps[:, range(dim), range(dim)] = (np.array(OFFSETS) * h)[:, None]
    steps.flags.writeable = False
    return steps


def derivative_stack(f: Callable[[np.ndarray], np.ndarray], point: np.ndarray,
                     h: float) -> np.ndarray:
    """Stack of partial derivatives: out[..., i, ...] = d f / d q^i at ``point``.

    ``point`` has shape (*batch, dim) and the result (*batch, dim, *value),
    where ``f`` maps (*batch, dim) points to (*batch, *value) values. The
    stencil points of every axis go to ``f`` in one call, as an array of
    shape (n_offsets, *batch, dim, dim). The table of stencil steps comes
    from a small cache keyed by (h, dim).
    """
    point = np.asarray(point, dtype=float)
    batch, dim = point.shape[:-1], point.shape[-1]
    steps = _step_table(h, dim)
    points = point[..., None, :] + steps.reshape(
        steps.shape[:1] + (1,) * len(batch) + steps.shape[1:])
    values = np.asarray(f(points))  # values[k]: all points at offset k
    v_m2, v_m1, v_p1, v_p2 = values  # the rows at OFFSETS -2, -1, 1, 2
    return ((v_p1 - v_m1) * WEIGHTS[2] + (v_p2 - v_m2) * WEIGHTS[3]) / h


def value_and_derivative_stack(f: Callable[[np.ndarray], np.ndarray],
                               point: np.ndarray, h: float
                               ) -> tuple[np.ndarray, np.ndarray]:
    """``(f(point), derivative_stack(f, point, h))`` from one call of ``f``.

    The points ride along with the stencil points that ``derivative_stack``
    hands over: ``f`` sees one flat batch of shape (n_stencil + n_batch,
    dim), stencil points first, and the stack is the difference-first sum
    of the stencil rows.
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

    stack = derivative_stack(with_point, point, h=h)
    return value[0], stack


def central_diff(f: Callable[[np.ndarray], np.ndarray], point: np.ndarray,
                 axis: int, h: float) -> np.ndarray:
    """Derivative of ``f`` along one coordinate axis: one slice of
    ``derivative_stack``, with the same calling convention for ``f``."""
    point = np.asarray(point, dtype=float)
    stack = derivative_stack(f, point, h=h)
    return np.take(stack, axis, axis=point.ndim - 1)
