import numpy as np
import pytest

from aqm_lab.config_space import GroupMetric, TopMetric, sample_point
from aqm_lab.fd import derivative_stack
from aqm_lab.fields import LinearField, draw_field
from aqm_lab.geometry import (
    MetricField,
    ScaledMetric,
    christoffel_at,
    conformal_transform,
    covariant_divergence_at,
    laplace_beltrami,
    riemann_scalar_at,
    weyl_scalar_at,
)
from aqm_lab.lorentz_reps import Irrep, d_matrix_inverse


# ---------------------------------------------------------------------------
# fixture metrics
# ---------------------------------------------------------------------------


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

    def matrix(self, q):
        return np.broadcast_to(self._m, np.shape(q)[:-1] + self._m.shape)

    def inverse(self, q):
        return np.broadcast_to(self._inv, np.shape(q)[:-1] + self._inv.shape)

    def sqrt_det(self, q):
        return np.broadcast_to(self._sd, np.shape(q)[:-1])


class SphereMetric(MetricField):
    """Round 2-sphere of radius r in polar coordinates q = (colatitude, azimuth)."""

    dim = 2

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


# ---------------------------------------------------------------------------
# Riemannian layer
# ---------------------------------------------------------------------------


def test_flat_christoffel_vanishes():
    m = ConstantMetric(np.eye(3))
    gam, ginv = christoffel_at(m, np.array([0.2, -0.5, 1.0]), h=1e-3)
    assert np.max(np.abs(gam)) < 1e-12
    assert np.array_equal(ginv, np.eye(3))


def test_sphere_christoffel_golden():
    m = SphereMetric(radius=1.0)
    q = np.array([0.7, 0.3])
    gam, ginv = christoffel_at(m, q, h=1e-3)
    assert np.array_equal(ginv, np.linalg.inv(m.matrix(q)))
    assert abs(gam[0, 1, 1] + np.sin(0.7) * np.cos(0.7)) < 1e-9
    assert abs(gam[1, 0, 1] - 1.0 / np.tan(0.7)) < 1e-9
    assert abs(gam[1, 1, 0] - 1.0 / np.tan(0.7)) < 1e-9
    assert abs(gam[0, 0, 0]) < 1e-10


def test_sphere_scalar_curvature():
    for r in (1.0, 2.0):
        m = SphereMetric(radius=r)
        val = riemann_scalar_at(m, np.array([1.1, 0.4]), h=1e-2)
        assert abs(val - 2.0 / r ** 2) / (2.0 / r ** 2) < 1e-6


def test_flat_scalar_curvature_zero():
    m = ConstantMetric(np.diag([-1.0, 1.0, 1.0, 1.0]))
    val = riemann_scalar_at(m, np.array([0.3, -0.2, 0.9, 0.0]), h=1e-2)
    assert abs(val) < 1e-10


def test_top_scalar_curvature_matches_closed_form():
    rng = np.random.default_rng(10)
    for a in (1.0, 2.0):
        m = TopMetric(a)
        q = sample_point(rng)
        val = riemann_scalar_at(m, q, h=1e-2)
        assert abs(val - 6.0 / a ** 2) / (6.0 / a ** 2) < 1e-4


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_top_scalar_curvature_is_the_group_blocks(monkeypatch, a):
    # the product-metric rule that verify-curvature relies on: the top
    # metric, differentiated on all ten axes, has the scalar curvature of
    # its group block at the point's angles
    top_points = []
    top_matrix = TopMetric.matrix

    def counted(self, q):
        top_points.append(int(np.prod(np.shape(q)[:-1])))
        return top_matrix(self, q)

    monkeypatch.setattr(TopMetric, "matrix", counted)
    rng = np.random.default_rng(28)
    for _ in range(4):
        q = sample_point(rng)
        top_points.clear()
        top = riemann_scalar_at(TopMetric(a), q, h=1e-2)
        # the point and its 40 outer stencil points, each with its 40 inner
        # ones: every axis is differentiated
        assert top_points == [41 * 41]
        group = riemann_scalar_at(GroupMetric(a), q[4:], h=1e-2)
        assert abs(top - group) <= 1e-12 * abs(group)


def test_top_scalar_curvature_reads_the_matrix_alone(monkeypatch):
    # curvature is a finite-difference result of ``matrix``: the closed-form
    # inverse and sqrt(g) of the top metric never enter it
    q = sample_point(np.random.default_rng(11))
    expected = riemann_scalar_at(TopMetric(1.4), q, h=1e-2)

    def fail(self, q):
        raise AssertionError("closed form used in curvature")

    monkeypatch.setattr(TopMetric, "inverse", fail)
    monkeypatch.setattr(TopMetric, "sqrt_det", fail)
    assert riemann_scalar_at(TopMetric(1.4), q, h=1e-2) == expected


def test_group_scalar_curvature_reads_the_matrix_alone(monkeypatch):
    # the group metric's closed-form inverse and sqrt(g) never enter its
    # curvature either
    theta = sample_point(np.random.default_rng(12))[4:]
    expected = riemann_scalar_at(GroupMetric(0.9), theta, h=1e-2)

    def fail(self, theta):
        raise AssertionError("closed form used in curvature")

    for name in ("inverse", "inverse_from_killing", "sqrt_det"):
        monkeypatch.setattr(GroupMetric, name, fail)
    assert riemann_scalar_at(GroupMetric(0.9), theta, h=1e-2) \
        == expected


def test_riemann_scalar_order_keyword_is_inert():
    # the one stencil is of order 4: ``order=4`` is the call without it,
    # to the bit, and any other order is refused
    q = sample_point(np.random.default_rng(13))
    expected = riemann_scalar_at(TopMetric(1.0), q, h=1e-2)
    assert riemann_scalar_at(TopMetric(1.0), q, h=1e-2, order=4) == expected
    with pytest.raises(ValueError, match="order 2"):
        riemann_scalar_at(TopMetric(1.0), q, h=1e-2, order=2)


def christoffel_reference(metric, point, h=1e-3):
    """Gamma^i_{jk} from a derivative stack of ``matrix`` and a separate
    generic inverse at the points: the Christoffel symbols before they came
    with the inverse from one call of ``matrix``."""
    point = np.asarray(point, dtype=float)
    dg = derivative_stack(metric.matrix, point, h=h)
    ginv = MetricField.inverse(metric, point)
    term = np.einsum("...jlk->...ljk", dg) + np.einsum("...klj->...ljk", dg) - dg
    return 0.5 * np.einsum("...il,...ljk->...ijk", ginv, term)


def riemann_reference(metric, point, h=1e-2):
    """R in two passes, the Christoffel symbols at the point alone and on
    its stencil, and a third inverse at the point: the Riemann scalar before
    the point rode along with its stencil."""
    point = np.asarray(point, dtype=float)
    h_inner = h / 10.0
    gam = christoffel_reference(metric, point, h=h_inner)
    dgam = derivative_stack(
        lambda q: christoffel_reference(metric, q, h=h_inner),
        point, h=h)
    ginv = MetricField.inverse(metric, point)
    t1 = np.einsum("iijk->jk", dgam)
    t2 = np.einsum("jiik->jk", dgam)
    t3 = np.einsum("iip,pjk->jk", gam, gam)
    t4 = np.einsum("ijp,pik->jk", gam, gam)
    return float(np.einsum("jk,jk->", ginv, t1 - t2 + t3 - t4))


@pytest.mark.parametrize("a", [0.8, 1.6])
def test_riemann_scalar_matches_two_pass_reference_bitwise(a):
    # the top and group metrics evaluate each point alone, so the point and
    # the inverse riding along with the stencil leave every bit in place
    rng = np.random.default_rng(26)
    for _ in range(10):
        q = sample_point(rng)
        assert riemann_scalar_at(TopMetric(a), q, h=1e-2) \
            == riemann_reference(TopMetric(a), q)
        assert riemann_scalar_at(GroupMetric(a), q[4:], h=1e-2) \
            == riemann_reference(GroupMetric(a), q[4:])


def test_riemann_scalar_of_scaled_metric_matches_two_pass_reference():
    # a band-limited rho takes a matrix product over the batch, whose bits at
    # the point may part from those of a one-point product in the last place
    rng = np.random.default_rng(27)
    for _ in range(12):
        log_rho = draw_field(rng, 10, amp_scale=0.5)
        metric, _ = conformal_transform(TopMetric(1.0), lambda q: q[..., 0], log_rho)
        q = sample_point(rng, rot_scale=1.0, boost_bound=1.0)
        r = riemann_scalar_at(metric, q, h=1e-2)
        assert abs(r - riemann_reference(metric, q)) <= 1e-14


class SingularMetric(MetricField):
    """diag(1 + q0^2, 0): exactly singular everywhere."""

    dim = 2

    def matrix(self, q):
        q = np.asarray(q, dtype=float)
        g = np.zeros(q.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0 + q[..., 0] ** 2
        return g


def test_singular_metric_gives_nan_curvature_without_raising():
    q = np.array([0.4, -0.2])
    gam, ginv = christoffel_at(SingularMetric(), q, h=1e-3)
    assert np.all(np.isnan(ginv)) and np.all(np.isnan(gam))
    assert np.isnan(riemann_scalar_at(SingularMetric(), q, h=1e-2))


def test_covariant_divergence_flat_linear():
    m = ConstantMetric(np.eye(2))

    def cov(q):
        # covector field with components (x, y): divergence 2
        return np.stack([q[..., 0], q[..., 1]], axis=-1)

    val = covariant_divergence_at(m, cov, np.array([0.4, -0.7]), h=1e-3)
    assert abs(val - 2.0) < 1e-9


def test_covariant_divergence_sphere():
    m = SphereMetric(radius=1.0)

    def cov(q):
        # raised vector (1, 0): divergence (1/sqrt g) d_theta sqrt g = cot
        return m.matrix(q) @ np.array([1.0, 0.0])

    q = np.array([0.9, 0.2])
    val = covariant_divergence_at(m, cov, q, h=1e-3)
    assert abs(val - 1.0 / np.tan(0.9)) < 1e-8


def _vector_real(q):
    # V^k on the sphere: (sin q0 cos q1, q0 q1^2)
    return np.stack([np.sin(q[..., 0]) * np.cos(q[..., 1]),
                     q[..., 0] * q[..., 1] ** 2], axis=-1)


def _vector_complex(q):
    return np.exp(1j * (0.7 * q[..., 0] - 0.4 * q[..., 1]))[..., None] \
        * _vector_real(q)


def _vector_matrix(q):
    # V^k a 3x3 complex matrix per component: (*batch, 2, 3, 3)
    mixer = np.array([[1.0, 0.25, 0.0], [-0.5j, 2.0, 0.1], [0.3, 0.0, -1.0]])
    return _vector_complex(q)[..., :, None, None] * mixer \
        + np.cos(q[..., 1])[..., None, None, None] * np.eye(3)


@pytest.mark.parametrize("vector", [_vector_real, _vector_complex,
                                    _vector_matrix])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("gauged", [False, True])
def test_covariant_divergence_batch_matches_per_point(vector, batch, gauged):
    # reference: one point and one value entry at a time, so neither the
    # batch axes nor the value axes take part in the indexing under test
    m = SphereMetric(radius=1.3)
    rng = np.random.default_rng(17)
    points = np.stack([rng.uniform(0.5, 2.5, batch),
                       rng.uniform(-np.pi, np.pi, batch)], axis=-1)
    potential = (lambda q: np.stack([0.3 * q[..., 1], np.cos(q[..., 0])],
                                    axis=-1)) if gauged else None
    batched = covariant_divergence_at(m, vector, points, h=1e-3,
                                      potential=potential)

    value_shape = np.shape(vector(points))[len(batch) + 1:]
    loop = np.empty(batch + value_shape, dtype=complex)
    for b in np.ndindex(batch):
        for e in np.ndindex(value_shape):
            loop[b + e] = covariant_divergence_at(
                m, lambda q: vector(q)[(Ellipsis,) + e], points[b],
                h=1e-3, potential=potential)
    assert batched.shape == loop.shape
    np.testing.assert_allclose(batched, loop, rtol=0,
                               atol=1e-12 * np.max(np.abs(loop)))


def test_group_metric_scalar_curvature():
    theta = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    for a in (1.0, 2.0):
        val = riemann_scalar_at(GroupMetric(a), theta, h=1e-2)
        assert abs(val - 6.0 / a ** 2) / (6.0 / a ** 2) < 1e-6


# ---------------------------------------------------------------------------
# Laplace-Beltrami operator, against closed forms
# ---------------------------------------------------------------------------


def test_laplace_beltrami_sphere_harmonics():
    # l = 1 and l = 2 spherical harmonics: Delta Y_l = -l(l+1) Y_l / r^2
    q = np.array([0.9, 0.4])
    y1 = lambda p: np.cos(p[..., 0])
    y2 = lambda p: np.sin(p[..., 0]) ** 2 * np.cos(2.0 * p[..., 1])
    for r in (1.0, 2.0):
        m = SphereMetric(radius=r)
        lap1 = laplace_beltrami(m, y1, q, h=1e-3)
        lap2 = laplace_beltrami(m, y2, q, h=1e-3)
        assert abs(lap1 + 2.0 * y1(q) / r ** 2) < 1e-8
        assert abs(lap2 + 6.0 * y2(q) / r ** 2) < 1e-8


def test_laplace_beltrami_gauged_plane_wave():
    # D_j e^{ik.x} = i (k - A)_j e^{ik.x} for a constant potential A
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    m = ConstantMetric(eta)
    k = np.array([0.7, -0.3, 0.5, 0.2])
    a = np.array([0.1, 0.4, -0.2, 0.3])
    f = lambda x: np.exp(1j * (x @ k))
    x = np.array([0.3, -0.5, 0.2, 0.8])
    val = laplace_beltrami(m, f, x, h=1e-3,
                           potential=lambda q: np.broadcast_to(a, q.shape))
    expected = -float((k - a) @ np.linalg.inv(eta) @ (k - a)) * f(x)
    assert abs(val - expected) < 1e-8


def _covector(c):
    return lambda q: np.stack([c * q[..., 1], np.cos(c * q[..., 0])], axis=-1)


@pytest.mark.parametrize("f", [
    lambda q: np.exp(1j * np.sin(q[..., 0]) * q[..., 1]),
    lambda q: np.exp(1j * q[..., 0])[..., None, None]
    * np.array([[1.0, 0.5j], [-0.2, 2.0]]) + np.cos(q[..., 1])[..., None, None],
], ids=["scalar", "matrix"])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_laplace_beltrami_channels_match_one_call_per_channel(f, batch):
    # a stack of covectors on the last axis of the potential, against a
    # unit axis of f, gives each covector's own gauge-covariant Laplacian,
    # bitwise, from one stencil pass over f
    m = SphereMetric(radius=1.3)
    rng = np.random.default_rng(18)
    points = np.stack([rng.uniform(0.5, 2.5, batch),
                       rng.uniform(-np.pi, np.pi, batch)], axis=-1)
    covectors = [_covector(c) for c in (0.3, -0.7, 1.1)]
    lap = laplace_beltrami(m, lambda q: np.expand_dims(f(q), q.ndim - 1),
                           points, h=1e-3,
                           potential=lambda q: np.stack(
                               [a(q) for a in covectors], axis=-1))
    value_shape = np.shape(f(points))[len(batch):]
    assert lap.shape == batch + (3,) + value_shape
    for c, a in enumerate(covectors):
        assert np.array_equal(lap[(slice(None),) * len(batch) + (c,)],
                              laplace_beltrami(m, f, points, h=1e-3,
                                               potential=a))


def test_laplace_beltrami_matrix_elements_match_scalar_calls():
    # the value axes are a batch: each element of the Laplacian of the
    # (1/2,1/2) D^-1 has the bits of the scalar call on that element
    rep, m = Irrep(0.5, 0.5), GroupMetric(1.3)
    thetas = np.random.default_rng(19).uniform(-1.2, 1.2, (3, 6))
    lap = laplace_beltrami(m, lambda t: d_matrix_inverse(rep, t), thetas,
                           h=1e-2, h_inner=1e-3)
    assert lap.shape == (3, 4, 4)
    for i, j in np.ndindex(4, 4):
        assert np.array_equal(lap[..., i, j], laplace_beltrami(
            m, lambda t: d_matrix_inverse(rep, t)[..., i, j], thetas,
            h=1e-2, h_inner=1e-3)), (i, j)


def test_laplace_beltrami_stacked_covectors_match_scalar_calls():
    # a stack of 3 covectors against the unit axis of a matrix-valued f:
    # each (covector, element) entry has the bits of the scalar call
    m = SphereMetric(radius=1.3)
    rng = np.random.default_rng(20)
    points = np.stack([rng.uniform(0.5, 2.5, 3),
                       rng.uniform(-np.pi, np.pi, 3)], axis=-1)
    mixer = np.array([[1.0, 0.5j], [-0.2, 2.0]])

    def f(q):
        return np.exp(1j * q[..., 0])[..., None, None] * mixer \
            + np.cos(q[..., 1])[..., None, None]

    covectors = [_covector(c) for c in (0.3, -0.7, 1.1)]
    lap = laplace_beltrami(m, lambda q: f(q)[..., None, :, :], points,
                           h=1e-3, potential=lambda q: np.stack(
                               [a(q) for a in covectors], axis=-1))
    assert lap.shape == (3, 3, 2, 2)
    for c, a in enumerate(covectors):
        for i, j in np.ndindex(2, 2):
            assert np.array_equal(lap[:, c, i, j], laplace_beltrami(
                m, lambda q: f(q)[..., i, j], points, h=1e-3,
                potential=a)), (c, i, j)


def test_laplace_beltrami_matrix_valued():
    # Delta (q_a q_b) = 2 delta_ab on flat R^3
    m = ConstantMetric(np.eye(3))
    val = laplace_beltrami(m, lambda q: q[..., :, None] * q[..., None, :],
                           np.array([0.4, -0.7, 0.2]), h=1e-3)
    assert val.shape == (3, 3)
    assert np.max(np.abs(val - 2.0 * np.eye(3))) < 1e-8


# ---------------------------------------------------------------------------
# scale gauge
# ---------------------------------------------------------------------------


def test_unit_gauge():
    # a zero log chi is the unit gauge chi = 1: both forms of the Weyl
    # scalar reduce to the Riemann scalar
    rng = np.random.default_rng(11)
    m = TopMetric(1.0)
    q = sample_point(rng)
    for form in ("phi", "chi"):
        val = weyl_scalar_at(m, LinearField(np.zeros(10)), q, h=1e-3,
                             form=form, r_scalar=6.0)
        assert abs(val - 6.0) < 1e-12


def test_weyl_scalar_flat_constant_slope():
    # chi = exp(c.x) on flat R^3: R_W = -(n-1)(n-2) |c|^2
    c = np.array([0.3, -0.1, 0.2])
    m = ConstantMetric(np.eye(3))
    q = np.array([0.5, 0.4, -0.2])
    expected = -2.0 * float(c @ c)
    for form in ("phi", "chi"):
        val = weyl_scalar_at(m, LinearField(c), q, h=1e-3, form=form,
                             r_scalar=0.0)
        assert abs(val - expected) < 1e-8


def test_weyl_scalar_flat_quadratic_log():
    # log chi = |x|^2 / 2 on flat R^3: phi_k = x_k,
    # R_W = 2(n-1) div(phi) - (n-1)(n-2) |x|^2 = 12 - 2 |x|^2
    m = ConstantMetric(np.eye(3))
    q = np.array([0.6, -0.3, 0.1])
    expected = 12.0 - 2.0 * float(q @ q)
    val = weyl_scalar_at(m, lambda p: 0.5 * np.sum(p * p, axis=-1), q,
                         h=1e-3, form="phi", r_scalar=0.0)
    assert abs(val - expected) < 1e-7


def test_weyl_forms_agree_on_top():
    rng = np.random.default_rng(12)
    m = TopMetric(1.0)
    log_chi = draw_field(rng, 10)
    q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
    r = m.riemann_scalar()
    v1 = weyl_scalar_at(m, log_chi, q, h=1e-3, form="phi", r_scalar=r)
    v2 = weyl_scalar_at(m, log_chi, q, h=1e-3, form="chi", r_scalar=r)
    assert abs(v1 - v2) / max(abs(v1), 1.0) < 1e-6


def test_weyl_scalar_conformal_weight():
    # rho R_W(rho g, chi sqrt(rho)) = R_W(g, chi), and the chi form of the
    # moved scalar, which reads exp of the moved log chi, agrees with its
    # phi form
    rng = np.random.default_rng(13)
    m = TopMetric(1.0)
    log_chi = draw_field(rng, 10)
    log_rho = draw_field(rng, 10, amp_scale=0.4)
    q = sample_point(rng, rot_scale=1.0, boost_bound=1.0)
    base = weyl_scalar_at(m, log_chi, q, h=1e-3, form="phi",
                          r_scalar=m.riemann_scalar())
    new_m, new_log_chi = conformal_transform(m, log_chi, log_rho)
    moved = weyl_scalar_at(new_m, new_log_chi, q, h=1e-3, form="phi")
    rho0 = float(np.exp(log_rho(q)))
    assert abs(rho0 * moved - base) / max(abs(base), 1.0) < 1e-5
    moved_chi = weyl_scalar_at(new_m, new_log_chi, q, h=1e-3,
                               form="chi")
    assert abs(moved_chi - moved) / max(abs(moved), abs(moved_chi)) < 1e-6


def test_weyl_scalar_unit_gauge_oracle():
    # independent route: R_W(g, chi) = chi^-2 R(chi^-2 g) with the plain
    # scalar curvature of the rescaled metric and no gauge field at all
    rng = np.random.default_rng(14)
    m = ConstantMetric(np.eye(3))
    log_chi = draw_field(rng, 3, amp_scale=0.4)
    q = np.array([0.3, -0.5, 0.2])

    direct = weyl_scalar_at(m, log_chi, q, h=1e-3, form="phi", r_scalar=0.0)

    scaled = ScaledMetric(m, rho=lambda p: np.exp(-2.0 * log_chi(p)))
    riem = riemann_scalar_at(scaled, q, h=5e-3)
    chi0 = float(np.exp(log_chi(q)))
    assert abs(direct - riem / chi0 ** 2) < 5e-5


def test_conformal_transform_composes_gauge():
    m = ConstantMetric(np.eye(2))
    new_m, new_log_chi = conformal_transform(
        m, lambda q: float(q[0]), log_rho=lambda q: 4.0 * float(q[1]))
    q = np.array([0.3, 0.2])
    assert abs(new_log_chi(q) - (0.3 + 2.0 * 0.2)) < 1e-12
    assert np.max(np.abs(new_m.matrix(q) - np.exp(0.8) * np.eye(2))) < 1e-12

