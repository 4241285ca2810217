import ast
from pathlib import Path

import numpy as np
import pytest

from aqm_lab import cli, config_space, fd, hj
from aqm_lab.config_space import GroupMetric, TopMetric, sample_point
from aqm_lab.fd import central_diff, derivative_stack, \
    value_and_derivative_stack
from aqm_lab.fields import BandLimitedField, draw_field
from aqm_lab.hj import EMConfig, draw_wave_inputs, linearization_check

SRC = Path(__file__).resolve().parents[1] / "src" / "aqm_lab"

# offsets and weights of the central first-derivative stencils, by accuracy
# order: the tests' own table, so that a wrong weight in ``fd`` fails the
# pins against the references below; order 2 lives here alone
STENCILS = {
    2: ((-1, 1), (-0.5, 0.5)),
    4: ((-2, -1, 1, 2), (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)),
}


def stencil_loop(f, point, h, order):
    """Per-point loop over batch entries, axes and the offsets of the
    order-``order`` stencil of ``STENCILS``: ``f`` sees one 1-d point per
    call."""
    point = np.asarray(point, dtype=float)
    offsets, weights = STENCILS[order]
    out = []
    for p in point.reshape(-1, point.shape[-1]):
        blocks = []
        for i in range(p.size):
            acc = None
            for k, w in zip(offsets, weights):
                q = p.copy()
                q[i] += k * h
                term = w * np.asarray(f(q))
                acc = term if acc is None else acc + term
            blocks.append(acc / h)
        out.append(np.stack(blocks))
    out = np.array(out)
    return out.reshape(point.shape[:-1] + out.shape[1:])


def derivative_stack_reference(f, point, h=1e-3, order=4):
    """The reference of the batched ``derivative_stack``, built from the
    ``order`` row of ``STENCILS``: the order-4 loop, or at order 2 the
    Richardson extrapolation (4 D(h) - D(2h)) / 3 of two order-2 loops,
    which is the fourth-order stencil."""
    if order == 2:
        return (4.0 * stencil_loop(f, point, h, 2)
                - stencil_loop(f, point, 2.0 * h, 2)) / 3.0
    return stencil_loop(f, point, h, 4)


def ignoring(f, skip):
    """``f`` read with the axes in ``skip`` pinned to 0.3: a callable that
    does not read those axes, as the top metric does not read spacetime.
    ``derivative_stack`` differentiates them like any other axis."""
    skip = list(skip)

    def g(q):
        q = np.array(q, dtype=float)
        q[..., skip] = 0.3
        return f(q)
    return g


def test_stencil_orders():
    # fd's one stencil is the table's order-4 row, and that row is the
    # Richardson extrapolation of its order-2 row at h and 2h, to the bit
    assert (fd.OFFSETS, fd.WEIGHTS) == STENCILS[4]
    richardson = {}
    for k, w in zip(*STENCILS[2]):
        richardson[k] = 4.0 / 3.0 * w
        richardson[2 * k] = -1.0 / 3.0 * w / 2.0
    assert tuple(sorted(richardson)) == STENCILS[4][0]
    assert tuple(richardson[k] for k in STENCILS[4][0]) == STENCILS[4][1]


def test_no_src_parameter_chooses_a_stencil():
    # one stencil: no function of the package takes an ``order``, but the
    # inert keyword of riemann_scalar_at that perfbench's tracing test
    # still passes (ROADMAP item 1)
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                            args.vararg, args.kwarg):
                    if arg is not None and arg.arg == "order":
                        found.add((path.stem, getattr(node, "name", "lambda"),
                                   arg in args.kwonlyargs))
    assert found == {("geometry", "riemann_scalar_at", True)}


def test_central_diff_polynomial_exact():
    # order-4 stencil differentiates cubics exactly
    def f(q):
        return q[..., 0] ** 3 - 2.0 * q[..., 1] ** 2 + 5.0

    point = np.array([1.3, 0.7])
    d0 = central_diff(f, point, axis=0, h=0.1)
    d1 = central_diff(f, point, axis=1, h=0.1)
    assert abs(d0 - 3 * 1.3 ** 2) < 1e-12
    assert abs(d1 + 4 * 0.7) < 1e-12


def test_central_diff_order4_beats_order2():
    # fd's stencil against the table's order-2 row
    point = np.array([0.4])
    exact = np.cos(0.4)
    e2 = abs(stencil_loop(lambda q: np.sin(q[..., 0]), point, 1e-2, 2)[0]
             - exact)
    e4 = abs(central_diff(lambda q: np.sin(q[..., 0]), point, 0, h=1e-2)
             - exact)
    assert e4 < e2 * 1e-2


def test_central_diff_matrix_valued():
    def f(q):
        x, y = q[..., 0], q[..., 1]
        return np.stack([np.stack([x ** 2, x * y], axis=-1),
                         np.stack([np.zeros_like(x), y ** 2], axis=-1)], axis=-2)

    point = np.array([0.5, -0.3])
    d = central_diff(f, point, axis=0, h=1e-3)
    expected = np.array([[1.0, -0.3], [0.0, 0.0]])
    assert np.max(np.abs(d - expected)) < 1e-10


def test_central_diff_complex():
    def f(q):
        return np.exp(1j * q[..., 0])

    d = central_diff(f, np.array([0.2]), axis=0, h=1e-3)
    assert abs(d - 1j * np.exp(0.2j)) < 1e-12


def test_gradient_matches_analytic():
    # the derivative stack of a scalar callable is its gradient
    def f(q):
        return np.sin(q[..., 0]) * np.cos(q[..., 1])

    point = np.array([0.3, 1.1])
    g = derivative_stack(f, point, h=1e-3)
    expected = np.array([np.cos(0.3) * np.cos(1.1), -np.sin(0.3) * np.sin(1.1)])
    assert np.max(np.abs(g - expected)) < 1e-11


def test_derivative_stack_and_skip():
    # an axis the callable skips (does not read) is differentiated like any
    # other, and its block is zero
    def f(q):
        return q[..., 0] + 3.0 * q[..., 2]

    point = np.array([0.1, 0.2, 0.3])
    stack = derivative_stack(f, point, h=1e-3)
    assert np.allclose(stack, [1.0, 0.0, 3.0], atol=1e-11)

    # 4 evaluations per axis, no probe call
    calls = []

    def counted(q):
        calls.extend(q.reshape(-1, q.shape[-1]).copy())
        return np.stack([np.stack([q[..., 0], q[..., 1]], axis=-1),
                         np.stack([q[..., 2], q[..., 3]], axis=-1)], axis=-2)

    point4 = np.array([0.1, 0.2, 0.3, 0.4])
    for skip in ((), (2,), (0, 3)):
        calls.clear()
        stack = derivative_stack(ignoring(counted, skip), point4, h=1e-3)
        assert len(calls) == 4 * 4
        assert stack.shape == (4, 2, 2) and stack.dtype == float
        for i in skip:
            assert np.max(np.abs(stack[i])) < 1e-12

    # a complex-valued callable keeps a complex stack
    stack = derivative_stack(lambda q: np.exp(1j * q[..., 0]) + q[..., 1],
                             point[:2], h=1e-3)
    assert stack.dtype == complex
    assert abs(stack[0] - 1j * np.exp(0.1j)) < 1e-12
    assert abs(stack[1] - 1.0) < 1e-12


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
    # the reference from the ``order`` row of STENCILS; ``skip``: the axes
    # the callables do not read
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
            f = ignoring(f, skip)
            scale = max(1.0, float(np.max(np.abs(f(point)))))
            got = derivative_stack(f, point, h=h)
            ref = derivative_stack_reference(f, point, h=h, order=order)
            assert got.shape == ref.shape, name
            assert got.shape[:len(batch) + 1] == batch + (5,), name
            assert got.dtype == ref.dtype, name
            assert np.max(np.abs(got - ref)) <= _tol(scale, h, 1), name
            for i in skip:
                assert np.max(np.abs(np.take(got, i, axis=len(batch)))) \
                    <= _tol(scale, h, 1), name


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
        lambda q: derivative_stack(ignoring(counted, (2,)), q, h=h),
        point, h=h)
    # (inner offsets, outer offsets, outer axes, inner axes, dim)
    assert calls == [(4, 4, 4, 4, 4)]
    ref = derivative_stack_reference(
        lambda q: derivative_stack_reference(ignoring(field, (2,)), q, h=h),
        point, h=h)
    assert got.shape == ref.shape == (4, 4)
    assert np.max(np.abs(got - ref)) <= _tol(scale, h, 2)
    assert np.max(np.abs(got[:, 2])) <= _tol(scale, h, 2)


def test_derivative_stack_calls_f_once():
    calls = []

    def counted(q):
        calls.append(q.shape)
        return np.sin(q).sum(axis=-1)

    point = np.zeros((3, 6))
    derivative_stack(counted, point, h=1e-3)
    # (offsets, batch, axes, dim)
    assert calls == [(4, 3, 6, 6)]


# pointwise callables: each value depends on its own point alone, by
# elementwise arithmetic, so its bits do not depend on the batch layout the
# point arrives in (a matrix product over the batch, as in a band-limited
# field, may part in the last bits between one point and a row of many)
_POINTWISE = {
    "real": lambda q: (np.sin(q[..., 0]) * np.cos(q[..., 1])
                       + q[..., 2] ** 2 * q[..., 3] - np.exp(0.3 * q[..., 4])),
    "complex": lambda q: np.exp(1j * q[..., 2] - 0.5 * q[..., 1] * q[..., 4]) + q[..., 0],
    "matrix": lambda q: np.stack(
        [np.stack([q[..., 0] * q[..., 1], np.exp(1j * q[..., 3]), q[..., 4]], axis=-1),
         np.stack([np.cos(q[..., 2]), 1j * q[..., 0], np.sin(q[..., 4] - q[..., 1])],
                  axis=-1)], axis=-2),
}


@pytest.mark.parametrize("skip", [(), (1,), (0, 3, 4), (0, 1, 2, 3)])
@pytest.mark.parametrize("order", [2, 4])
def test_value_and_stack_equal_separate_calls_bitwise(skip, order):
    # one call of f returns f(point) and the derivative stack, each bitwise
    # equal to its separate evaluation, and the stack matches the reference
    # from the ``order`` row of STENCILS; ``skip``: the axes f does not read
    rng = np.random.default_rng(24)
    h = 1e-3
    for batch in ((), (3,), (2, 3)):
        point = rng.uniform(-1.0, 1.0, batch + (5,))
        for name, f in _POINTWISE.items():
            f = ignoring(f, skip)
            calls = []

            def counted(q, f=f):
                calls.append(q.shape)
                return f(q)

            value, stack = value_and_derivative_stack(counted, point, h)
            n_batch = int(np.prod(batch))
            n_stencil = len(fd.OFFSETS) * n_batch * 5
            assert calls == [(n_stencil + n_batch, 5)], name
            expected = np.asarray(f(point))
            assert value.shape == expected.shape and value.dtype == expected.dtype, name
            assert np.array_equal(value, expected), name
            ref = derivative_stack(f, point, h=h)
            assert stack.shape == ref.shape and stack.dtype == ref.dtype, name
            assert np.array_equal(stack, ref), name
            scale = max(1.0, float(np.max(np.abs(expected))))
            ref = derivative_stack_reference(f, point, h=h, order=order)
            assert np.max(np.abs(stack - ref)) <= _tol(scale, h, 1), name


def test_value_and_stack_with_every_axis_skipped():
    # a callable that reads no axis: the value from the one call, and a
    # stack that is zero up to the rounding of the weighted sum
    for batch in ((), (2, 3)):
        point = np.random.default_rng(25).uniform(-1.0, 1.0, batch + (5,))
        for name, f in _POINTWISE.items():
            f = ignoring(f, range(5))
            calls = []

            def counted(q, f=f):
                calls.append(q.shape)
                return f(q)

            value, stack = value_and_derivative_stack(counted, point, 1e-3)
            assert calls == [(21 * int(np.prod(batch)), 5)], name
            assert np.array_equal(value, f(point)), name
            ref = derivative_stack(f, point, h=1e-3)
            assert stack.shape == ref.shape and stack.dtype == ref.dtype, name
            assert np.max(np.abs(stack)) <= _tol(1.0, 1e-3, 1), name


def step_table_reference(order, h, dim):
    """steps[k, i] = shift[k] e_i, entry by entry, with the fourth-order
    shifts from the ``order`` row of STENCILS: its offsets times h, or at
    order 2 the order-2 offsets at h and at 2h that the Richardson
    extrapolation reads. The table that ``derivative_stack`` built on every
    call before it came from a cache."""
    offsets, _ = STENCILS[order]
    shifts = [k * s for k in offsets
              for s in ((h, 2.0 * h) if order == 2 else (h,))]
    steps = np.zeros((len(shifts), dim, dim))
    for k, shift in enumerate(sorted(shifts)):
        for axis in range(dim):
            steps[k, axis, axis] = shift
    return steps


@pytest.mark.parametrize("skip", [(), (0, 3)])
@pytest.mark.parametrize("h", [1e-3, 2.5e-2])
@pytest.mark.parametrize("order", [2, 4])
def test_cached_step_table_matches_uncached_build(order, h, skip):
    # a cold and a warm cache hand f the same stencil points, bitwise equal
    # to the point plus the table built entry by entry from the ``order``
    # row of STENCILS, on every axis, those that f does not read (``skip``)
    # included
    seen = []

    def recorded(q):
        seen.append(q.copy())
        return np.sin(q).sum(axis=-1)

    point = np.random.default_rng(22).uniform(-1.0, 1.0, (3, 5))
    fd._step_table.cache_clear()
    f = ignoring(recorded, skip)
    cold = derivative_stack(f, point, h=h)
    warm = derivative_stack(f, point, h=h)
    assert fd._step_table.cache_info().hits >= 1
    ref = step_table_reference(order, h, 5)
    table = fd._step_table(h, 5)
    assert np.array_equal(table, ref)
    expected = point[:, None, :] + ref[:, None]
    expected[..., list(skip)] = 0.3
    assert np.array_equal(seen[0], expected) and np.array_equal(seen[1], expected)
    assert np.array_equal(cold, warm)
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0.0


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


def _count_angles(monkeypatch, name, modules=(config_space,)):
    """Wrap the function ``name`` of ``config_space``, where each of
    ``modules`` binds it, to count its calls and the angles they carry."""
    counts = {"calls": 0, "points": 0}
    original = getattr(config_space, name)

    def counted(theta):
        counts["calls"] += 1
        counts["points"] += int(np.prod(np.shape(theta)[:-1]))
        return original(theta)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return counts


def _count_frames_and_killing(monkeypatch):
    return (_count_angles(monkeypatch, "frame_coefficients"),
            _count_angles(monkeypatch, "killing_vectors", (config_space, hj)))


def test_curvature_point_evaluates_frames_in_few_calls(monkeypatch, tmp_path):
    # a verify-curvature point differentiates the group block alone: the
    # angles and their 24 outer stencil points, each with its 24 inner
    # stencil points, 25 x 25 points in one call of the group metric (the
    # top metric on every axis: 41 x 41)
    group = _count_points(monkeypatch, GroupMetric, "matrix")
    top = _count_points(monkeypatch, TopMetric, "matrix")
    assert cli.main(["verify-curvature", "--n-draws", "1",
                     "--out", str(tmp_path / "report.json")]) == 0
    assert group == {"calls": 1, "points": 625}
    assert top == {"calls": 0, "points": 0}


def _em_linearization_check():
    rng = np.random.default_rng(23)
    fields = draw_wave_inputs(rng)
    q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
    em = EMConfig(e_field=(0.2, 0.1, -0.3), h_field=(0.3, -0.2, 0.4))
    linearization_check(fields, em, TopMetric(1.0), q, r_scalar=6.0)


def test_linearization_check_evaluates_fields_in_few_calls(monkeypatch):
    # each field once per point array, for the three stages together: the
    # point, its 40 stencil points and their 1 600, 2 x 1 641 points in 6
    # calls (before the check's store: 6 685 points in 16 calls)
    counts = _count_points(monkeypatch, BandLimitedField, "__call__")
    _em_linearization_check()
    assert counts == {"calls": 6, "points": 3282}


def test_linearization_check_evaluates_frames_in_few_calls(monkeypatch):
    # the closed-form inverse takes the Killing fields, sqrt(g) none, and
    # neither assembles the 10x10 matrix; the potential, the inverse and
    # the raised momentum of every stage read one evaluation of the Killing
    # fields per point array, the point's and its 40 stencil points' (before
    # the check's store: 165 angles in 9 calls); the Killing fields are
    # closed-form and build no frame
    frames, killing = _count_frames_and_killing(monkeypatch)
    matrices = _count_points(monkeypatch, TopMetric, "matrix")
    _em_linearization_check()
    assert frames == {"calls": 0, "points": 0}
    assert killing == {"calls": 2, "points": 41}
    assert matrices["calls"] == 0


def test_verify_linearization_draw_evaluates_two_checks(monkeypatch, tmp_path):
    # the free and the field-on check are one call with a tuple of two EM
    # configs, and the wrong-coupling control rides on it as a second
    # coupling, so a draw costs the field and Killing-field evaluations of
    # one check: 3 282 field points in 6 calls and 41 Killing-field points
    # in 2 calls, and one evaluation of each traced layer, R_W included
    # (two checks: 6 564 field points in 12 calls, 82 Killing-field points
    # in 4; three: 9 846 in 18 and 123 in 6); the Killing fields build no
    # frame
    fields = _count_points(monkeypatch, BandLimitedField, "__call__")
    frames, killing = _count_frames_and_killing(monkeypatch)
    # each traced layer on the verb's path is reached
    reached = {}
    for module, name in ((cli, "linearization_check"), (hj, "wave_operator"),
                         (hj, "hj_residual"), (hj, "divergence_residual"),
                         (hj, "weyl_scalar_at")):
        def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
            reached[_name] = reached.get(_name, 0) + 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert cli.main(["verify-linearization", "--n-draws", "1",
                     "--out", str(tmp_path / "report.json")]) == 0
    assert fields == {"calls": 6, "points": 3282}
    assert frames == {"calls": 0, "points": 0}
    assert killing == {"calls": 2, "points": 41}
    assert reached == {"linearization_check": 1, "wave_operator": 1,
                       "hj_residual": 1, "divergence_residual": 1,
                       "weyl_scalar_at": 1}
