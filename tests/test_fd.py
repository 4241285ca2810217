import numpy as np
import pytest

from aqm_lab.fd import central_diff, derivative_stack, stencil


def test_stencil_orders():
    offs2, w2 = stencil(2)
    assert offs2 == (-1, 1)
    offs4, w4 = stencil(4)
    assert offs4 == (-2, -1, 1, 2)
    assert np.allclose(np.sum(w4), 0.0)
    with pytest.raises(ValueError):
        stencil(3)


def test_central_diff_polynomial_exact():
    # order-4 stencil differentiates cubics exactly
    def f(q):
        return q[0] ** 3 - 2.0 * q[1] ** 2 + 5.0

    point = np.array([1.3, 0.7])
    d0 = central_diff(f, point, axis=0, h=0.1, order=4)
    d1 = central_diff(f, point, axis=1, h=0.1, order=4)
    assert abs(d0 - 3 * 1.3 ** 2) < 1e-12
    assert abs(d1 + 4 * 0.7) < 1e-12


def test_central_diff_order4_beats_order2():
    point = np.array([0.4])
    exact = np.cos(0.4)
    e2 = abs(central_diff(lambda q: np.sin(q[0]), point, 0, h=1e-2, order=2)
             - exact)
    e4 = abs(central_diff(lambda q: np.sin(q[0]), point, 0, h=1e-2, order=4)
             - exact)
    assert e4 < e2 * 1e-2


def test_central_diff_matrix_valued():
    def f(q):
        return np.array([[q[0] ** 2, q[0] * q[1]], [0.0, q[1] ** 2]])

    point = np.array([0.5, -0.3])
    d = central_diff(f, point, axis=0, h=1e-3, order=4)
    expected = np.array([[1.0, -0.3], [0.0, 0.0]])
    assert np.max(np.abs(d - expected)) < 1e-10


def test_central_diff_complex():
    def f(q):
        return np.exp(1j * q[0])

    d = central_diff(f, np.array([0.2]), axis=0, h=1e-3, order=4)
    assert abs(d - 1j * np.exp(0.2j)) < 1e-12


def test_gradient_matches_analytic():
    # the derivative stack of a scalar callable is its gradient
    def f(q):
        return np.sin(q[0]) * np.cos(q[1])

    point = np.array([0.3, 1.1])
    g = derivative_stack(f, point, h=1e-3, order=4)
    expected = np.array([np.cos(0.3) * np.cos(1.1), -np.sin(0.3) * np.sin(1.1)])
    assert np.max(np.abs(g - expected)) < 1e-11


def test_derivative_stack_and_skip():
    def f(q):
        return q[0] + 2.0 * q[1] + 3.0 * q[2]

    point = np.array([0.1, 0.2, 0.3])
    stack = derivative_stack(f, point, h=1e-3, order=4)
    assert np.allclose(stack, [1.0, 2.0, 3.0], atol=1e-11)
    stack = derivative_stack(f, point, h=1e-3, order=4, skip=(1,))
    assert stack[1] == 0.0
    assert abs(stack[2] - 3.0) < 1e-11

    # 4 evaluations per differentiated axis at order 4, no probe call
    calls = []

    def counted(q):
        calls.append(q.copy())
        return np.array([[q[0], q[1]], [q[2], q[3]]])

    point4 = np.array([0.1, 0.2, 0.3, 0.4])
    for skip in ((), (2,), (0, 3)):
        calls.clear()
        stack = derivative_stack(counted, point4, h=1e-3, order=4, skip=skip)
        assert len(calls) == 4 * (4 - len(skip))
        assert stack.shape == (4, 2, 2) and stack.dtype == float
        for i in skip:
            assert not np.any(stack[i])

    # every axis skipped: zero blocks shaped like f, f evaluated once
    calls.clear()
    stack = derivative_stack(counted, point4, skip=range(4))
    assert len(calls) == 1
    assert stack.shape == (4, 2, 2) and stack.dtype == float
    assert not np.any(stack)
    stack = derivative_stack(lambda q: np.exp(1j * q[:2]), point4[:2],
                             skip=(0, 1))
    assert stack.shape == (2, 2) and stack.dtype == complex
    assert not np.any(stack)

    # a complex-valued callable keeps a complex stack, zero blocks included
    stack = derivative_stack(lambda q: np.exp(1j * q[0]) + q[1], point[:2],
                             h=1e-3, order=4, skip=(1,))
    assert stack.dtype == complex
    assert abs(stack[0] - 1j * np.exp(0.1j)) < 1e-12
    assert stack[1] == 0.0
