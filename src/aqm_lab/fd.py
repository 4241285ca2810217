"""Central finite-difference stencils for scalar and array-valued callables.

Everything downstream (curvature, Weyl scalar, wave operator, angular
Laplacian) is built from nested first derivatives, so only first-derivative
stencils live here.
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


def central_diff(f: Callable[[np.ndarray], np.ndarray], point: np.ndarray,
                 axis: int, h: float = 1e-3, order: int = 4) -> np.ndarray:
    """Derivative of an array-valued callable along one coordinate axis.

    Parameters
    ----------
    f : callable
        Maps a point (1-d array) to a scalar or ndarray. The output shape
        must not depend on the point.
    point : ndarray
        Evaluation point.
    axis : int
        Coordinate index to differentiate along.
    h : float
        Step size.
    order : int
        Stencil accuracy order, 2 or 4.
    """
    offsets, weights = stencil(order)
    acc = None
    for k, w in zip(offsets, weights):
        q = np.array(point, dtype=float)
        q[axis] += k * h
        term = w * np.asarray(f(q))
        acc = term if acc is None else acc + term
    return acc / h


def derivative_stack(f: Callable[[np.ndarray], np.ndarray], point: np.ndarray,
                     h: float = 1e-3, order: int = 4,
                     skip: Iterable[int] = ()) -> np.ndarray:
    """Stack of partial derivatives: out[i] = d f / d q^i at ``point``.

    The one place where stencils are assembled over the axes. Axes listed in
    ``skip`` are known to leave ``f`` unchanged and get an exact zero block
    without any function evaluations; ``f`` is evaluated at ``point`` only
    when every axis is skipped, to learn the block's shape.
    """
    point = np.asarray(point, dtype=float)
    skip = frozenset(skip)
    blocks = {i: central_diff(f, point, i, h=h, order=order)
              for i in range(point.size) if i not in skip}
    if blocks:
        zero = np.zeros_like(next(iter(blocks.values())))
    else:
        value = np.asarray(f(point))
        zero = np.zeros(value.shape, complex if np.iscomplexobj(value) else float)
    return np.stack([blocks.get(i, zero) for i in range(point.size)])
