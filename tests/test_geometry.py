import numpy as np
import pytest

from aqm_lab.config_space import GroupMetric, TopMetric, sample_point
from aqm_lab.fd import derivative_stack
from aqm_lab.fields import draw_field
from aqm_lab.geometry import (
    ConstantMetric,
    ScaledMetric,
    SphereMetric,
    WeylGauge,
    christoffel_at,
    conformal_transform,
    covariant_divergence_at,
    laplace_beltrami,
    riemann_scalar_at,
    weyl_scalar_at,
)


# ---------------------------------------------------------------------------
# Riemannian layer
# ---------------------------------------------------------------------------


def test_flat_christoffel_vanishes():
    m = ConstantMetric(np.eye(3))
    gam = christoffel_at(m, np.array([0.2, -0.5, 1.0]))
    assert np.max(np.abs(gam)) < 1e-12


def test_sphere_christoffel_golden():
    m = SphereMetric(radius=1.0)
    q = np.array([0.7, 0.3])
    gam = christoffel_at(m, q)
    assert abs(gam[0, 1, 1] + np.sin(0.7) * np.cos(0.7)) < 1e-9
    assert abs(gam[1, 0, 1] - 1.0 / np.tan(0.7)) < 1e-9
    assert abs(gam[1, 1, 0] - 1.0 / np.tan(0.7)) < 1e-9
    assert abs(gam[0, 0, 0]) < 1e-10


def test_sphere_scalar_curvature():
    for r in (1.0, 2.0):
        m = SphereMetric(radius=r)
        val = riemann_scalar_at(m, np.array([1.1, 0.4]))
        assert abs(val - 2.0 / r ** 2) / (2.0 / r ** 2) < 1e-6


def test_flat_scalar_curvature_zero():
    m = ConstantMetric(np.diag([-1.0, 1.0, 1.0, 1.0]))
    val = riemann_scalar_at(m, np.array([0.3, -0.2, 0.9, 0.0]))
    assert abs(val) < 1e-10


def test_top_scalar_curvature_matches_closed_form():
    rng = np.random.default_rng(10)
    for a in (1.0, 2.0):
        m = TopMetric(a)
        q = sample_point(rng)
        val = riemann_scalar_at(m, q)
        assert abs(val - 6.0 / a ** 2) / (6.0 / a ** 2) < 1e-4


def test_covariant_divergence_flat_linear():
    m = ConstantMetric(np.eye(2))

    def cov(q):
        # covector field with components (x, y): divergence 2
        return np.stack([q[..., 0], q[..., 1]], axis=-1)

    val = covariant_divergence_at(m, cov, np.array([0.4, -0.7]))
    assert abs(val - 2.0) < 1e-9


def test_covariant_divergence_sphere():
    m = SphereMetric(radius=1.0)

    def cov(q):
        # raised vector (1, 0): divergence (1/sqrt g) d_theta sqrt g = cot
        return m.matrix(q) @ np.array([1.0, 0.0])

    q = np.array([0.9, 0.2])
    val = covariant_divergence_at(m, cov, q)
    assert abs(val - 1.0 / np.tan(0.9)) < 1e-8


def test_group_metric_scalar_curvature():
    theta = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    for a in (1.0, 2.0):
        val = riemann_scalar_at(GroupMetric(a), theta)
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
        assert abs(laplace_beltrami(m, y1, q) + 2.0 * y1(q) / r ** 2) < 1e-8
        assert abs(laplace_beltrami(m, y2, q) + 6.0 * y2(q) / r ** 2) < 1e-8


def test_laplace_beltrami_gauged_plane_wave():
    # D_j e^{ik.x} = i (k - A)_j e^{ik.x} for a constant potential A
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    m = ConstantMetric(eta)
    k = np.array([0.7, -0.3, 0.5, 0.2])
    a = np.array([0.1, 0.4, -0.2, 0.3])
    f = lambda x: np.exp(1j * (x @ k))
    x = np.array([0.3, -0.5, 0.2, 0.8])
    val = laplace_beltrami(m, f, x, potential=lambda q: np.broadcast_to(a, q.shape))
    expected = -float((k - a) @ np.linalg.inv(eta) @ (k - a)) * f(x)
    assert abs(val - expected) < 1e-8


def test_laplace_beltrami_matrix_valued():
    # Delta (q_a q_b) = 2 delta_ab on flat R^3
    m = ConstantMetric(np.eye(3))
    val = laplace_beltrami(m, lambda q: q[..., :, None] * q[..., None, :],
                           np.array([0.4, -0.7, 0.2]))
    assert val.shape == (3, 3)
    assert np.max(np.abs(val - 2.0 * np.eye(3))) < 1e-8


# ---------------------------------------------------------------------------
# scale gauge
# ---------------------------------------------------------------------------


def test_gauge_covector_is_log_gradient():
    log_chi = draw_field(np.random.default_rng(11), dim=3)
    gauge = WeylGauge.from_log(log_chi)
    q = np.array([0.2, 0.5, -0.4])
    expected = derivative_stack(log_chi, q, h=1e-4, order=4)
    assert np.max(np.abs(gauge.covector(q) - expected)) < 1e-9


def test_unit_gauge():
    gauge = WeylGauge.unit()
    q = np.array([1.0, 2.0])
    assert gauge.chi(q) == 1.0
    assert gauge.log_chi(q) == 0.0
    assert np.max(np.abs(gauge.covector(q))) < 1e-12


def test_weyl_scalar_flat_constant_slope():
    # chi = exp(c.x) on flat R^3: R_W = -(n-1)(n-2) |c|^2
    c = np.array([0.3, -0.1, 0.2])
    m = ConstantMetric(np.eye(3))
    gauge = WeylGauge.from_log(lambda q: q @ c)
    q = np.array([0.5, 0.4, -0.2])
    expected = -2.0 * float(c @ c)
    for form in ("phi", "chi"):
        val = weyl_scalar_at(m, gauge, q, form=form, r_scalar=0.0)
        assert abs(val - expected) < 1e-8


def test_weyl_scalar_flat_quadratic_log():
    # log chi = |x|^2 / 2 on flat R^3: phi_k = x_k,
    # R_W = 2(n-1) div(phi) - (n-1)(n-2) |x|^2 = 12 - 2 |x|^2
    m = ConstantMetric(np.eye(3))
    gauge = WeylGauge.from_log(lambda q: 0.5 * np.sum(q * q, axis=-1))
    q = np.array([0.6, -0.3, 0.1])
    expected = 12.0 - 2.0 * float(q @ q)
    val = weyl_scalar_at(m, gauge, q, r_scalar=0.0)
    assert abs(val - expected) < 1e-7


def test_weyl_forms_agree_on_top():
    rng = np.random.default_rng(12)
    m = TopMetric(1.0)
    gauge = WeylGauge.from_log(draw_field(rng, 10))
    q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
    r = m.riemann_scalar()
    v1 = weyl_scalar_at(m, gauge, q, form="phi", r_scalar=r)
    v2 = weyl_scalar_at(m, gauge, q, form="chi", r_scalar=r)
    assert abs(v1 - v2) / max(abs(v1), 1.0) < 1e-6


def test_weyl_scalar_conformal_weight():
    # rho R_W(rho g, chi sqrt(rho)) = R_W(g, chi)
    rng = np.random.default_rng(13)
    m = TopMetric(1.0)
    gauge = WeylGauge.from_log(draw_field(rng, 10))
    log_rho = draw_field(rng, 10, amp_scale=0.4)
    q = sample_point(rng, rot_scale=1.0, boost_bound=1.0)
    base = weyl_scalar_at(m, gauge, q, r_scalar=m.riemann_scalar())
    new_m, new_gauge = conformal_transform(m, gauge, log_rho)
    moved = weyl_scalar_at(new_m, new_gauge, q)
    rho0 = float(np.exp(log_rho(q)))
    assert abs(rho0 * moved - base) / max(abs(base), 1.0) < 1e-5


def test_weyl_scalar_unit_gauge_oracle():
    # independent route: R_W(g, chi) = chi^-2 R(chi^-2 g) with the plain
    # scalar curvature of the rescaled metric and no gauge field at all
    rng = np.random.default_rng(14)
    m = ConstantMetric(np.eye(3))
    log_chi = draw_field(rng, 3, amp_scale=0.4)
    gauge = WeylGauge.from_log(log_chi)
    q = np.array([0.3, -0.5, 0.2])

    direct = weyl_scalar_at(m, gauge, q, r_scalar=0.0)

    scaled = ScaledMetric(m, rho=lambda p: np.exp(-2.0 * log_chi(p)))
    riem = riemann_scalar_at(scaled, q, h=5e-3)
    chi0 = float(np.exp(log_chi(q)))
    assert abs(direct - riem / chi0 ** 2) < 5e-5


def test_conformal_transform_composes_gauge():
    gauge = WeylGauge.from_log(lambda q: float(q[0]))
    m = ConstantMetric(np.eye(2))
    new_m, new_gauge = conformal_transform(
        m, gauge, log_rho=lambda q: 4.0 * float(q[1]))
    q = np.array([0.3, 0.2])
    assert abs(new_gauge.log_chi(q) - (0.3 + 2.0 * 0.2)) < 1e-12
    assert np.max(np.abs(new_m.matrix(q) - np.exp(0.8) * np.eye(2))) < 1e-12


def test_scaled_metric_keeps_constant_dims_only_if_rho_constant():
    m = ConstantMetric(np.eye(2))
    scaled = ScaledMetric(m, rho=lambda q: float(np.exp(q[0])))
    assert 0 not in scaled.constant_dims
