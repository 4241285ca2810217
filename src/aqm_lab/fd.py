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

from collections.abc import Callable, Iterable

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


def derivative_stack(f: Callable[[np.ndarray], np.ndarray], point: np.ndarray,
                     h: float = 1e-3, order: int = 4,
                     skip: Iterable[int] = ()) -> np.ndarray:
    """Stack of partial derivatives: out[..., i, ...] = d f / d q^i at ``point``.

    ``point`` has shape (*batch, dim) and the result (*batch, dim, *value),
    where ``f`` maps (*batch, dim) points to (*batch, *value) values. The
    stencil points of every differentiated axis go to ``f`` in one call, as
    an array of shape (n_offsets, *batch, n_axes, dim). Axes listed in
    ``skip`` are known to leave ``f`` unchanged and get an exact zero block
    without any function evaluations; ``f`` is evaluated at ``point`` only
    when every axis is skipped, to learn the block's shape.
    """
    point = np.asarray(point, dtype=float)
    batch, dim = point.shape[:-1], point.shape[-1]
    skip = frozenset(skip)
    axes = [i for i in range(dim) if i not in skip]
    if not axes:
        value = np.asarray(f(point))
        dtype = complex if np.iscomplexobj(value) else float
        return np.zeros(batch + (dim,) + value.shape[len(batch):], dtype)

    offsets, weights = stencil(order)
    steps = np.zeros((len(offsets), len(axes), dim))
    steps[:, range(len(axes)), axes] = (np.array(offsets) * h)[:, None]
    points = point[..., None, :] + steps.reshape(
        (len(offsets),) + (1,) * len(batch) + (len(axes), dim))
    values = np.asarray(f(points))  # values[k]: all points at offset k
    partials = sum(w * v for w, v in zip(weights, values)) / h
    if len(axes) == dim:
        return partials
    out = np.zeros(batch + (dim,) + partials.shape[len(batch) + 1:], partials.dtype)
    out[(slice(None),) * len(batch) + (axes,)] = partials
    return out


def central_diff(f: Callable[[np.ndarray], np.ndarray], point: np.ndarray,
                 axis: int, h: float = 1e-3, order: int = 4) -> np.ndarray:
    """Derivative of ``f`` along one coordinate axis: the one-axis case of
    ``derivative_stack``, with the same calling convention for ``f``."""
    point = np.asarray(point, dtype=float)
    others = set(range(point.shape[-1])) - {axis}
    stack = derivative_stack(f, point, h=h, order=order, skip=others)
    return np.take(stack, axis, axis=point.ndim - 1)
