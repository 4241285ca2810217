import numpy as np
import pytest

from aqm_lab.config_space import TopMetric, sample_point
from aqm_lab.fd import central_diff, derivative_stack, stencil
from aqm_lab.fields import BandLimitedField, draw_field
from aqm_lab.geometry import riemann_scalar_at
from aqm_lab.hj import EMConfig, draw_wave_inputs, linearization_check


def derivative_stack_reference(f, point, h=1e-3, order=4, skip=()):
    """Per-point loop over batch entries, axes and offsets: the reference of
    the batched ``derivative_stack``. ``f`` sees one 1-d point per call."""
    point = np.asarray(point, dtype=float)
    offsets, weights = stencil(order)
    out = []
    for p in point.reshape(-1, point.shape[-1]):
        blocks = {}
        for i in range(p.size):
            if i in skip:
                continue
            acc = None
            for k, w in zip(offsets, weights):
                q = p.copy()
                q[i] += k * h
                term = w * np.asarray(f(q))
                acc = term if acc is None else acc + term
            blocks[i] = acc / h
        value = np.asarray(f(p))
        zero = np.zeros(value.shape, complex if np.iscomplexobj(value) else float)
        out.append(np.stack([blocks.get(i, zero) for i in range(p.size)]))
    out = np.array(out)
    return out.reshape(point.shape[:-1] + out.shape[1:])


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
        return q[..., 0] ** 3 - 2.0 * q[..., 1] ** 2 + 5.0

    point = np.array([1.3, 0.7])
    d0 = central_diff(f, point, axis=0, h=0.1, order=4)
    d1 = central_diff(f, point, axis=1, h=0.1, order=4)
    assert abs(d0 - 3 * 1.3 ** 2) < 1e-12
    assert abs(d1 + 4 * 0.7) < 1e-12


def test_central_diff_order4_beats_order2():
    point = np.array([0.4])
    exact = np.cos(0.4)
    e2 = abs(central_diff(lambda q: np.sin(q[..., 0]), point, 0, h=1e-2, order=2)
             - exact)
    e4 = abs(central_diff(lambda q: np.sin(q[..., 0]), point, 0, h=1e-2, order=4)
             - exact)
    assert e4 < e2 * 1e-2


def test_central_diff_matrix_valued():
    def f(q):
        x, y = q[..., 0], q[..., 1]
        return np.stack([np.stack([x ** 2, x * y], axis=-1),
                         np.stack([np.zeros_like(x), y ** 2], axis=-1)], axis=-2)

    point = np.array([0.5, -0.3])
    d = central_diff(f, point, axis=0, h=1e-3, order=4)
    expected = np.array([[1.0, -0.3], [0.0, 0.0]])
    assert np.max(np.abs(d - expected)) < 1e-10


def test_central_diff_complex():
    def f(q):
        return np.exp(1j * q[..., 0])

    d = central_diff(f, np.array([0.2]), axis=0, h=1e-3, order=4)
    assert abs(d - 1j * np.exp(0.2j)) < 1e-12


def test_gradient_matches_analytic():
    # the derivative stack of a scalar callable is its gradient
    def f(q):
        return np.sin(q[..., 0]) * np.cos(q[..., 1])

    point = np.array([0.3, 1.1])
    g = derivative_stack(f, point, h=1e-3, order=4)
    expected = np.array([np.cos(0.3) * np.cos(1.1), -np.sin(0.3) * np.sin(1.1)])
    assert np.max(np.abs(g - expected)) < 1e-11


def test_derivative_stack_and_skip():
    def f(q):
        return q[..., 0] + 2.0 * q[..., 1] + 3.0 * q[..., 2]

    point = np.array([0.1, 0.2, 0.3])
    stack = derivative_stack(f, point, h=1e-3, order=4)
    assert np.allclose(stack, [1.0, 2.0, 3.0], atol=1e-11)
    stack = derivative_stack(f, point, h=1e-3, order=4, skip=(1,))
    assert stack[1] == 0.0
    assert abs(stack[2] - 3.0) < 1e-11

    # 4 evaluations per differentiated axis at order 4, no probe call
    calls = []

    def counted(q):
        calls.extend(q.reshape(-1, q.shape[-1]).copy())
        return np.stack([np.stack([q[..., 0], q[..., 1]], axis=-1),
                         np.stack([q[..., 2], q[..., 3]], axis=-1)], axis=-2)

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
    stack = derivative_stack(lambda q: np.exp(1j * q[..., :2]), point4[:2],
                             skip=(0, 1))
    assert stack.shape == (2, 2) and stack.dtype == complex
    assert not np.any(stack)

    # a complex-valued callable keeps a complex stack, zero blocks included
    stack = derivative_stack(lambda q: np.exp(1j * q[..., 0]) + q[..., 1],
                             point[:2], h=1e-3, order=4, skip=(1,))
    assert stack.dtype == complex
    assert abs(stack[0] - 1j * np.exp(0.1j)) < 1e-12
    assert stack[1] == 0.0


# ---------------------------------------------------------------------------
# the batched engine against the per-point reference
# ---------------------------------------------------------------------------

# The batched and the per-point evaluation of a callable may differ in the
# last bits of its values (a matrix product summed in another order). A
# stencil level divides such a difference by h with weights of total size
# 1.5, so per level the stacks may part by about eps / h times the value
# scale; 100 eps / h per level leaves room for a few ulps at each point.
def _tol(scale: float, h: float, levels: int) -> float:
    return 100.0 * np.finfo(float).eps * scale / h ** levels


def _matrix_field(field: BandLimitedField):
    """A complex 2x3 matrix of field values, on the last axis convention."""
    def f(q):
        v = field(q)
        return np.stack([np.stack([v, np.exp(1j * v), v * v], axis=-1),
                         np.stack([np.cos(v), 1j * v, np.sin(q[..., 0])],
                                  axis=-1)], axis=-2)
    return f


@pytest.mark.parametrize("skip", [(), (1,), (0, 3, 4)])
@pytest.mark.parametrize("order", [2, 4])
def test_batched_stack_matches_reference(skip, order):
    rng = np.random.default_rng(20)
    field = draw_field(rng, 5)
    cases = {
        "real": field,
        "complex": lambda q: np.exp(-0.5 * field(q) + 1j * q[..., 2]),
        "matrix": _matrix_field(field),
    }
    h = 1e-3
    for batch in ((), (3,), (2, 3)):
        point = rng.uniform(-1.0, 1.0, batch + (5,))
        for name, f in cases.items():
            scale = max(1.0, float(np.max(np.abs(f(point)))))
            got = derivative_stack(f, point, h=h, order=order, skip=skip)
            ref = derivative_stack_reference(f, point, h=h, order=order, skip=skip)
            assert got.shape == ref.shape, name
            assert got.shape[:len(batch) + 1] == batch + (5,), name
            assert got.dtype == ref.dtype, name
            assert np.max(np.abs(got - ref)) <= _tol(scale, h, 1), name
            for i in skip:
                assert not np.any(np.take(got, i, axis=len(batch))), name


def test_nested_batched_stack_matches_reference():
    # the Hessian as a stack of gradients: one call per nesting level
    # against a per-point loop nested in a per-point loop
    rng = np.random.default_rng(21)
    field = draw_field(rng, 4)
    h = 1e-3
    calls = []

    def counted(q):
        calls.append(q.shape)
        return field(q)

    point = rng.uniform(-1.0, 1.0, 4)
    scale = max(1.0, abs(float(field(point))))
    got = derivative_stack(
        lambda q: derivative_stack(counted, q, h=h, skip=(2,)), point, h=h)
    # (inner offsets, outer offsets, outer axes, inner axes, dim)
    assert calls == [(4, 4, 4, 3, 4)]
    ref = derivative_stack_reference(
        lambda q: derivative_stack_reference(field, q, h=h, skip=(2,)), point, h=h)
    assert got.shape == ref.shape == (4, 4)
    assert np.max(np.abs(got - ref)) <= _tol(scale, h, 2)
    assert not np.any(got[:, 2])


def test_derivative_stack_calls_f_once():
    calls = []

    def counted(q):
        calls.append(q.shape)
        return np.sin(q).sum(axis=-1)

    point = np.zeros((3, 6))
    for skip in ((), (1, 2), range(6)):
        calls.clear()
        derivative_stack(counted, point, skip=skip)
        assert len(calls) == 1
    assert calls == [(3, 6)]


# ---------------------------------------------------------------------------
# no per-point loop: the nested checks evaluate their points in a few calls
# ---------------------------------------------------------------------------


def _count_points(monkeypatch, cls, attr):
    """Wrap ``cls.attr`` to count its calls and the points they carry."""
    counts = {"calls": 0, "points": 0}
    original = getattr(cls, attr)

    def counted(self, q):
        counts["calls"] += 1
        counts["points"] += int(np.prod(np.shape(q)[:-1]))
        return original(self, q)

    monkeypatch.setattr(cls, attr, counted)
    return counts


def test_curvature_point_evaluates_frames_in_few_calls(monkeypatch):
    counts = _count_points(monkeypatch, TopMetric, "matrix")
    q = sample_point(np.random.default_rng(22))
    riemann_scalar_at(TopMetric(1.0), q)
    assert counts["points"] == 626
    assert counts["calls"] <= 5


def test_linearization_check_evaluates_fields_in_few_calls(monkeypatch):
    counts = _count_points(monkeypatch, BandLimitedField, "__call__")
    rng = np.random.default_rng(23)
    fields = draw_wave_inputs(rng)
    q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
    em = EMConfig(e_field=(0.2, 0.1, -0.3), h_field=(0.3, -0.2, 0.4))
    linearization_check(fields, em, TopMetric(1.0), q, r_scalar=6.0)
    assert counts["points"] == 6687
    assert counts["calls"] <= 18
