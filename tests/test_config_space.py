import numpy as np
import pytest
from scipy.linalg import expm

from aqm_lab import config_space
from aqm_lab.config_space import (
    GENERATOR_PAIRING,
    MINKOWSKI,
    RAPIDITY_MAX,
    SERIES_CUTOFF,
    GroupMetric,
    TopMetric,
    ad_matrix,
    basis_decompose,
    frame_coefficients,
    generators,
    killing_vectors,
    lorentz_from_angles,
    sample_point,
)
from aqm_lab.fd import central_diff
from aqm_lab.geometry import MetricField

EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0


def structure_constants() -> np.ndarray:
    """f[a, b, c] with [T_a, T_b] = sum_c f[a, b, c] T_c, recomputed from the basis."""
    gen = generators()
    f = np.zeros((6, 6, 6))
    for a in range(6):
        for b in range(6):
            f[a, b] = basis_decompose(gen[a] @ gen[b] - gen[b] @ gen[a])
    return f


def _phi1_reference(a: np.ndarray) -> np.ndarray:
    """Phi1(a) = (exp(a) - 1) a^{-1} through the block identity
    expm([[a, I], [0, 0]]) = [[exp(a), Phi1(a)], [0, I]]."""
    n = a.shape[0]
    z = np.zeros((2 * n, 2 * n))
    z[:n, :n] = a
    z[:n, n:] = np.eye(n)
    return expm(z)[:n, n:]


def frame_reference(theta: np.ndarray) -> np.ndarray:
    """The chart frame by dense ``expm``, reference of the closed form."""
    gen = generators()
    ad_r = ad_matrix(np.einsum("a,aij->ij", theta[:3], gen[:3]))
    ad_b = ad_matrix(np.einsum("a,aij->ij", theta[3:], gen[3:]))
    c = np.empty((6, 6))
    c[:, :3] = _phi1_reference(ad_r)[:, :3]
    c[:, 3:] = (expm(ad_r) @ _phi1_reference(ad_b))[:, 3:]
    return c


def lorentz_reference(theta: np.ndarray) -> np.ndarray:
    """The chart element by dense ``expm``, reference of the closed form."""
    gen = generators()
    return expm(np.einsum("a,aij->ij", theta[:3], gen[:3])) \
        @ expm(np.einsum("a,aij->ij", theta[3:], gen[3:]))


def _rel_error(value: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(value - ref)) / np.max(np.abs(ref)))


def _frame_rel_error(theta: np.ndarray) -> float:
    ref = frame_reference(theta)
    return float(np.max(np.abs(frame_coefficients(theta) - ref))
                 / np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def test_generator_commutator_table():
    gen = generators()
    j, k = gen[:3], gen[3:]
    for a in range(3):
        for b in range(3):
            jj = j[a] @ j[b] - j[b] @ j[a]
            jk = j[a] @ k[b] - k[b] @ j[a]
            kk = k[a] @ k[b] - k[b] @ k[a]
            assert np.allclose(jj, np.einsum("c,cij->ij", EPS[a, b], j))
            assert np.allclose(jk, np.einsum("c,cij->ij", EPS[a, b], k))
            assert np.allclose(kk, -np.einsum("c,cij->ij", EPS[a, b], j))


def test_structure_constants_match_commutators():
    gen = generators()
    f = structure_constants()
    for a in range(6):
        for b in range(6):
            comm = gen[a] @ gen[b] - gen[b] @ gen[a]
            recon = np.einsum("c,cij->ij", f[a, b], gen)
            assert np.max(np.abs(comm - recon)) < 1e-14


def test_basis_decompose_round_trip():
    rng = np.random.default_rng(0)
    c = rng.uniform(-1, 1, 6)
    m = np.einsum("a,aij->ij", c, generators())
    assert np.allclose(basis_decompose(m), c, atol=1e-14)


def test_ad_matrix_reproduces_bracket():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, 6)
    b = rng.uniform(-1, 1, 6)
    gen = generators()
    ma = np.einsum("a,aij->ij", a, gen)
    mb = np.einsum("a,aij->ij", b, gen)
    bracket = basis_decompose(ma @ mb - mb @ ma)
    assert np.allclose(ad_matrix(ma) @ b, bracket, atol=1e-13)


def test_generator_pairing_values():
    # invariant quadratic form tr(T^t G T' G) on the basis
    gen = generators()
    for a in range(6):
        for b in range(6):
            val = np.trace(gen[a].T @ MINKOWSKI @ gen[b] @ MINKOWSKI)
            assert abs(val - GENERATOR_PAIRING[a, b]) < 1e-14
        # raising the second index gives an antisymmetric omega^{mu nu}
        raised = gen[a] @ MINKOWSKI
        assert np.max(np.abs(raised + raised.T)) == 0.0


# ---------------------------------------------------------------------------
# chart
# ---------------------------------------------------------------------------


def test_rotation_golden():
    theta = np.array([0.0, 0.0, np.pi / 2, 0.0, 0.0, 0.0])
    lam = lorentz_from_angles(theta)
    assert np.allclose(lam @ np.array([0, 1, 0, 0]), [0, 0, 1, 0], atol=1e-14)
    assert np.allclose(lam[0], [1, 0, 0, 0], atol=1e-15)


def test_boost_golden():
    eta = 0.8
    theta = np.array([0.0, 0.0, 0.0, eta, 0.0, 0.0])
    lam = lorentz_from_angles(theta)
    expected = np.eye(4)
    expected[0, 0] = expected[1, 1] = np.cosh(eta)
    expected[0, 1] = expected[1, 0] = np.sinh(eta)
    assert np.allclose(lam, expected, atol=1e-14)


def test_chart_lands_in_lorentz_group():
    rng = np.random.default_rng(2)
    for _ in range(5):
        theta = np.concatenate([rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)])
        lam = lorentz_from_angles(theta)
        assert np.max(np.abs(lam.T @ MINKOWSKI @ lam - MINKOWSKI)) < 1e-12
        assert lam[0, 0] >= 1.0
        assert abs(np.linalg.det(lam) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# frame and Killing fields
# ---------------------------------------------------------------------------


def test_frame_columns_match_chart_derivative():
    rng = np.random.default_rng(4)
    theta = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)])
    c = frame_coefficients(theta)
    lam_inv = np.linalg.inv(lorentz_from_angles(theta))
    for axis in range(6):
        dlam = central_diff(lambda t: lorentz_from_angles(t), theta,
                            axis=axis, h=1e-5)
        omega = basis_decompose(dlam @ lam_inv)
        assert np.max(np.abs(c[:, axis] - omega)) < 1e-9


def test_frame_rotation_block_closed_form():
    # pure rotation: the rotation block is the so(3) left Jacobian
    rot = np.array([0.3, -0.2, 0.5])
    theta = np.concatenate([rot, np.zeros(3)])
    c = frame_coefficients(theta)
    phi = np.linalg.norm(rot)
    cross = np.einsum("a,aij->ij", rot, generators()[:3])[1:, 1:]
    jac = (np.eye(3) + (1 - np.cos(phi)) / phi ** 2 * cross
           + (phi - np.sin(phi)) / phi ** 3 * cross @ cross)
    assert np.max(np.abs(c[:3, :3] - jac)) < 1e-12
    assert np.max(np.abs(c[3:, :3])) < 1e-14


@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e-5, 1e-9])
def test_frame_matches_expm_reference_at_random_points(scale):
    # full sampler range: rotation up to pi, rapidity up to RAPIDITY_MAX
    rng = np.random.default_rng(10)
    for _ in range(40):
        theta = scale * sample_point(rng)[4:]
        assert _frame_rel_error(theta) <= 1e-11


@pytest.mark.parametrize("norm", [0.99 * SERIES_CUTOFF, SERIES_CUTOFF,
                                  1.01 * SERIES_CUTOFF])
@pytest.mark.parametrize("block", [slice(0, 3), slice(3, 6)])
def test_frame_matches_expm_reference_at_series_cutoff(norm, block):
    # pure rotations and pure boosts on both sides of the series switch
    rng = np.random.default_rng(11)
    for _ in range(5):
        direction = rng.normal(size=3)
        theta = np.zeros(6)
        theta[block] = norm * direction / np.linalg.norm(direction)
        assert _frame_rel_error(theta) <= 1e-11


def test_frame_matches_expm_reference_at_zero():
    assert _frame_rel_error(np.zeros(6)) == 0.0


def test_frame_batch_matches_expm_reference_per_row():
    # one (N, 6) call whose rows take the series and the closed form side by
    # side: theta = 0, pure rotations and boosts on both sides of the
    # cutoff, mixed rows and the full sampler range
    rng = np.random.default_rng(13)
    rows = [np.zeros(6)]
    for norm in (0.99 * SERIES_CUTOFF, SERIES_CUTOFF, 1.01 * SERIES_CUTOFF):
        for block in (slice(0, 3), slice(3, 6)):
            direction = rng.normal(size=3)
            theta = np.zeros(6)
            theta[block] = norm * direction / np.linalg.norm(direction)
            rows.append(theta)
            full = sample_point(rng)[4:]
            full[block] = theta[block]
            rows.append(full)
    rows += [sample_point(rng)[4:] for _ in range(20)]
    thetas = np.array(rng.permutation(rows))
    batch = frame_coefficients(thetas)
    assert batch.shape == (len(rows), 6, 6)
    for theta, c in zip(thetas, batch):
        ref = frame_reference(theta)
        assert np.max(np.abs(c - ref)) / np.max(np.abs(ref)) <= 1e-11


@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e-5, 1e-9])
def test_lorentz_matches_expm_reference_at_random_points(scale):
    rng = np.random.default_rng(14)
    for _ in range(40):
        theta = scale * sample_point(rng)[4:]
        assert _rel_error(lorentz_from_angles(theta), lorentz_reference(theta)) <= 1e-12


@pytest.mark.parametrize("norm", [0.99 * SERIES_CUTOFF, SERIES_CUTOFF,
                                  1.01 * SERIES_CUTOFF])
@pytest.mark.parametrize("block", [slice(0, 3), slice(3, 6)])
def test_lorentz_matches_expm_reference_at_series_cutoff(norm, block):
    rng = np.random.default_rng(15)
    for _ in range(5):
        direction = rng.normal(size=3)
        theta = np.zeros(6)
        theta[block] = norm * direction / np.linalg.norm(direction)
        assert _rel_error(lorentz_from_angles(theta), lorentz_reference(theta)) <= 1e-12


def test_lorentz_at_zero_is_identity():
    assert np.array_equal(lorentz_from_angles(np.zeros(6)), np.eye(4))


def test_lorentz_batch_matches_per_row_calls():
    rng = np.random.default_rng(16)
    rows = [np.zeros(6)]
    for norm in (0.99 * SERIES_CUTOFF, 1.01 * SERIES_CUTOFF):
        for block in (slice(0, 3), slice(3, 6)):
            full = sample_point(rng)[4:]
            direction = rng.normal(size=3)
            full[block] = norm * direction / np.linalg.norm(direction)
            rows.append(full)
    rows += [sample_point(rng)[4:] for _ in range(20)]
    thetas = np.array(rng.permutation(rows))
    batch = lorentz_from_angles(thetas)
    assert batch.shape == (len(rows), 4, 4)
    for theta, lam in zip(thetas, batch):
        assert _rel_error(lam, lorentz_from_angles(theta)) <= 1e-12
        assert _rel_error(lam, lorentz_reference(theta)) <= 1e-12


def test_frame_layers_evaluate_without_expm(monkeypatch):
    # the frame is closed-form: a slow path through expm must not come back
    def no_expm(*args, **kwargs):
        raise AssertionError("expm called on a frame evaluation")

    monkeypatch.setattr(config_space, "expm", no_expm)
    q = sample_point(np.random.default_rng(12))
    top = TopMetric(1.3)
    g = top.matrix(q)
    assert np.all(np.isfinite(g))
    assert np.all(np.isfinite(GroupMetric(1.3).matrix(q[4:])))
    assert np.all(np.isfinite(killing_vectors(q[4:])))

    # the inverse and sqrt(g) are closed forms: neither assembles the matrix,
    # and sqrt(g) evaluates no frame
    def no_call(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return fail

    monkeypatch.setattr(TopMetric, "matrix", no_call("TopMetric.matrix"))
    assert np.allclose(top.inverse(q) @ g, np.eye(10), atol=1e-9)
    assert top.sqrt_det(q) > 0.0
    monkeypatch.setattr(config_space, "frame_coefficients",
                        no_call("frame_coefficients"))
    assert top.sqrt_det(q) > 0.0


def test_frame_identity_at_origin():
    assert np.max(np.abs(frame_coefficients(np.zeros(6)) - np.eye(6))) < 1e-12


def test_killing_identity_at_origin():
    assert np.max(np.abs(killing_vectors(np.zeros(6)) - np.eye(6))) < 1e-12


def _killing_rel_error(theta: np.ndarray) -> float:
    """Largest relative deviation of the closed-form Killing fields from
    the inverse of the frame, over the points of a batch."""
    ref = np.linalg.inv(frame_coefficients(theta))
    err = np.max(np.abs(killing_vectors(theta) - ref), axis=(-2, -1))
    return float(np.max(err / np.max(np.abs(ref), axis=(-2, -1))))


def _pure_angles(rng, norm: float, block: slice, count: int = 5) -> np.ndarray:
    """``count`` angle vectors with only ``block`` set, of length ``norm``."""
    direction = rng.normal(size=(count, 3))
    theta = np.zeros((count, 6))
    theta[:, block] = norm * direction / np.linalg.norm(direction, axis=1,
                                                        keepdims=True)
    return theta


@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e-5, 1e-9])
def test_killing_closed_form_matches_frame_inverse(scale):
    rng = np.random.default_rng(31)
    thetas = np.stack([scale * sample_point(rng)[4:] for _ in range(40)])
    assert _killing_rel_error(thetas) <= 1e-13


@pytest.mark.parametrize("norm", [0.99 * SERIES_CUTOFF, SERIES_CUTOFF,
                                  1.01 * SERIES_CUTOFF])
@pytest.mark.parametrize("block", [slice(0, 3), slice(3, 6)])
def test_killing_closed_form_at_series_cutoff(norm, block):
    # pure rotations and pure boosts on both sides of the series switch
    theta = _pure_angles(np.random.default_rng(32), norm, block)
    assert _killing_rel_error(theta) <= 1e-13


@pytest.mark.parametrize("norm", [np.pi - 1e-3, np.pi, np.pi + 1e-3,
                                  np.pi * np.sqrt(3.0)])
def test_killing_closed_form_near_pi(norm):
    # sin(r) / r vanishes at |theta_rot| = pi, and the sampler's rotation
    # angles reach pi sqrt(3): neither may cost digits
    rng = np.random.default_rng(33)
    theta = _pure_angles(rng, norm, slice(0, 3))
    theta[:, 3:] = rng.uniform(-RAPIDITY_MAX, RAPIDITY_MAX, (len(theta), 3))
    assert _killing_rel_error(theta) <= 1e-13


def test_killing_closed_form_is_exact_at_zero():
    assert np.array_equal(killing_vectors(np.zeros(6)), np.eye(6))


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_killing_closed_form_keeps_batch_shape(batch):
    theta = np.random.default_rng(34).uniform(-1.2, 1.2, batch + (6,))
    k = killing_vectors(theta)
    assert k.shape == batch + (6, 6)
    assert _killing_rel_error(theta) <= 1e-13
    # each point of the batch as its own call
    for index in np.ndindex(*batch):
        assert np.max(np.abs(k[index] - killing_vectors(theta[index]))) \
            <= 1e-15


def test_killing_vectors_build_no_frame_and_invert_nothing(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("called by killing_vectors")

    theta = np.random.default_rng(35).uniform(-1.2, 1.2, (4, 6))
    expected = np.linalg.inv(frame_coefficients(theta))
    monkeypatch.setattr(config_space, "frame_coefficients", fail)
    monkeypatch.setattr(np.linalg, "inv", fail)
    assert np.max(np.abs(killing_vectors(theta) - expected)) <= 1e-13


def test_killing_brackets_close_with_minus_f():
    rng = np.random.default_rng(5)
    theta = np.concatenate([rng.uniform(-0.8, 0.8, 3),
                            rng.uniform(-0.8, 0.8, 3)])
    f = structure_constants()
    xi = killing_vectors(theta)

    def xi_at(t):
        return killing_vectors(t)

    dxi = np.stack([central_diff(xi_at, theta, axis=b, h=1e-5)
                    for b in range(6)])  # dxi[beta, alpha, a]
    for a in range(6):
        for b in range(6):
            lie = (np.einsum("b,bA->A", xi[:, a], dxi[:, :, b])
                   - np.einsum("b,bA->A", xi[:, b], dxi[:, :, a]))
            expected = -np.einsum("c,Ac->A", f[a, b], xi)
            assert np.max(np.abs(lie - expected)) < 1e-8


# ---------------------------------------------------------------------------
# metric and sampling
# ---------------------------------------------------------------------------


def test_top_metric_block_structure():
    m = TopMetric(1.5)
    rng = np.random.default_rng(7)
    q = sample_point(rng)
    g = m.matrix(q)
    assert np.allclose(g[:4, :4], MINKOWSKI)
    assert np.max(np.abs(g[:4, 4:])) == 0.0


def test_top_metric_at_group_identity():
    m = TopMetric(2.0)
    q = np.zeros(10)
    g = m.matrix(q)
    expected = np.diag([-1, 1, 1, 1, 4, 4, 4, -4, -4, -4]).astype(float)
    assert np.array_equal(g, expected)


def test_top_metric_signature_constant():
    m = TopMetric(1.0)
    rng = np.random.default_rng(8)
    for _ in range(4):
        q = sample_point(rng)
        evals = np.linalg.eigvalsh(m.matrix(q))
        assert int(np.sum(evals > 0)) == 6
        assert int(np.sum(evals < 0)) == 4


def _frame_metric(theta: np.ndarray, a: float) -> np.ndarray:
    """a^2 C^T P C from the frame C: the reference of ``GroupMetric.matrix``."""
    c = frame_coefficients(theta)
    return a ** 2 * np.swapaxes(c, -1, -2) @ (0.5 * GENERATOR_PAIRING) @ c


def _assert_matrix_matches_frame(group: GroupMetric, theta: np.ndarray):
    """The closed form is exactly symmetric and within 1e-13 of the frame's
    metric, per point, relative to that point's largest entry."""
    g = group.matrix(theta)
    ref = _frame_metric(theta, group.a)
    assert g.shape == theta.shape[:-1] + (6, 6)
    assert np.array_equal(g, np.swapaxes(g, -1, -2))
    err = np.max(np.abs(g - ref), axis=(-2, -1)) \
        / np.max(np.abs(ref), axis=(-2, -1))
    assert np.all(err <= 1e-13), float(np.max(err))


@pytest.mark.parametrize("a", [0.7, 1.0, 1.3])
def test_group_matrix_matches_frame_at_random_points(a):
    # rotation components in +-pi, boosts up to RAPIDITY_MAX; as one (n,)
    # batch, as a (k, m) batch, as an empty batch and point by point
    rng = np.random.default_rng(21)
    theta = np.array([sample_point(rng)[4:] for _ in range(200)])
    assert np.max(np.abs(theta[:, 3:])) <= RAPIDITY_MAX
    group = GroupMetric(a)
    for batch in (theta, theta.reshape(20, 10, 6), theta[:0], *theta[:20]):
        _assert_matrix_matches_frame(group, batch)


@pytest.mark.parametrize("scale", [1e-2, 1.01 * SERIES_CUTOFF, SERIES_CUTOFF,
                                   0.99 * SERIES_CUTOFF, 1e-5, 1e-7, 1e-9])
@pytest.mark.parametrize("small", [slice(0, 6), slice(0, 3), slice(3, 6)])
def test_group_matrix_matches_frame_across_the_series_cutoff(scale, small):
    # both halves at the angle scale, or one alone with the other drawn over
    # the full domain, on both sides of the series switch
    rng = np.random.default_rng(22)
    theta = np.array([sample_point(rng)[4:] for _ in range(24)])
    direction = rng.normal(size=(24, 2, 3))
    halves = scale * direction / np.linalg.norm(direction, axis=-1,
                                                keepdims=True)
    theta[:, small] = halves.reshape(24, 6)[:, small]
    for a in (0.7, 1.0, 1.3):
        for batch in (theta, theta.reshape(4, 6, 6), *theta[:6]):
            _assert_matrix_matches_frame(GroupMetric(a), batch)


def test_group_matrix_builds_no_frame_and_no_killing_fields(monkeypatch):
    # the matrix is what curvature holds the K and sqrt(g) closed forms to,
    # so it shares no code path with them
    def fail(*args, **kwargs):
        raise AssertionError("called by GroupMetric.matrix")

    theta = np.random.default_rng(36).uniform(-2.0, 2.0, (4, 6))
    expected = _frame_metric(theta, 1.3)
    for name in ("frame_coefficients", "_rodrigues_coefficients",
                 "killing_vectors"):
        monkeypatch.setattr(config_space, name, fail)
    g = GroupMetric(1.3).matrix(theta)
    assert np.max(np.abs(g - expected)) <= 1e-13 * np.max(np.abs(expected))


def _closed_form_rel_errors(metric: MetricField, q: np.ndarray
                            ) -> tuple[float, float]:
    """Relative errors of the closed-form inverse and sqrt(g) against the
    generic ``MetricField`` forms of ``matrix``: max-abs error over max-abs
    reference, over the whole batch."""
    inv, sqrt_g = metric.inverse(q), metric.sqrt_det(q)
    assert inv.shape == q.shape[:-1] + (metric.dim, metric.dim)
    assert np.shape(sqrt_g) == q.shape[:-1]
    return (_rel_error(inv, MetricField.inverse(metric, q)),
            _rel_error(sqrt_g, MetricField.sqrt_det(metric, q)))


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e-5, 1e-9])
def test_top_metric_closed_forms_match_generic_at_random_points(scale, batch):
    # full sampler range, then angles shrunk onto the series side
    rng = np.random.default_rng(17)
    top = TopMetric(1.3)
    for _ in range(40):
        q = np.array([sample_point(rng) for _ in range(int(np.prod(batch)))])
        q[:, 4:] *= scale
        inv_err, sqrt_err = _closed_form_rel_errors(top, q.reshape(batch + (10,)))
        assert inv_err <= 1e-13
        assert sqrt_err <= 1e-13


@pytest.mark.parametrize("norm", [0.99 * SERIES_CUTOFF, SERIES_CUTOFF,
                                  1.01 * SERIES_CUTOFF])
@pytest.mark.parametrize("block", [slice(4, 7), slice(7, 10)])
def test_top_metric_closed_forms_match_generic_at_series_cutoff(norm, block):
    # pure rotations and pure boosts on both sides of the series switch, as
    # one (2, 3) batch, as its rows and point by point
    rng = np.random.default_rng(18)
    top = TopMetric(0.8)
    q = np.zeros((2, 3, 10))
    q[..., :4] = rng.uniform(-1.0, 1.0, (2, 3, 4))
    direction = rng.normal(size=(2, 3, 3))
    q[..., block] = norm * direction / np.linalg.norm(direction, axis=-1,
                                                      keepdims=True)
    for batch in (q, *q, *q.reshape(6, 10)):
        assert max(_closed_form_rel_errors(top, batch)) <= 1e-13


def test_top_metric_closed_forms_at_group_identity():
    q = np.zeros(10)
    q[:4] = (0.3, -0.7, 0.1, 0.9)
    top = TopMetric(2.0)
    assert max(_closed_form_rel_errors(top, q)) <= 1e-13
    assert np.array_equal(
        top.inverse(q), np.diag([-1, 1, 1, 1, 0.25, 0.25, 0.25, -0.25, -0.25, -0.25]))
    assert top.sqrt_det(q) == 64.0


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e-5, 1e-9])
def test_group_metric_closed_forms_match_generic_at_random_points(scale, batch):
    rng = np.random.default_rng(19)
    group = GroupMetric(1.3)
    for _ in range(40):
        theta = np.array([sample_point(rng)[4:]
                          for _ in range(int(np.prod(batch)))]) * scale
        assert max(_closed_form_rel_errors(
            group, theta.reshape(batch + (6,)))) <= 1e-13


@pytest.mark.parametrize("norm", [0.99 * SERIES_CUTOFF, SERIES_CUTOFF,
                                  1.01 * SERIES_CUTOFF])
@pytest.mark.parametrize("block", [slice(0, 3), slice(3, 6)])
def test_group_metric_closed_forms_match_generic_at_series_cutoff(norm, block):
    rng = np.random.default_rng(20)
    group = GroupMetric(0.8)
    theta = np.zeros((2, 3, 6))
    direction = rng.normal(size=(2, 3, 3))
    theta[..., block] = norm * direction / np.linalg.norm(
        direction, axis=-1, keepdims=True)
    for batch in (theta, *theta, *theta.reshape(6, 6)):
        assert max(_closed_form_rel_errors(group, batch)) <= 1e-13


def test_group_metric_closed_forms_at_group_identity():
    group = GroupMetric(2.0)
    theta = np.zeros(6)
    assert max(_closed_form_rel_errors(group, theta)) <= 1e-13
    assert np.array_equal(group.inverse(theta),
                          np.diag([0.25, 0.25, 0.25, -0.25, -0.25, -0.25]))
    assert group.sqrt_det(theta) == 64.0


def test_top_metric_closed_form_scalar():
    assert TopMetric(1.0).riemann_scalar() == pytest.approx(6.0)
    assert TopMetric(2.0).riemann_scalar() == pytest.approx(1.5)
    with pytest.raises(ValueError):
        TopMetric(0.0)


def test_sample_point_respects_bounds():
    rng = np.random.default_rng(9)
    for _ in range(50):
        q = sample_point(rng, rot_scale=1.0, boost_bound=2.0)
        assert np.max(np.abs(q[:4])) <= 1.0
        assert np.max(np.abs(q[4:7])) <= 1.0
        assert np.max(np.abs(q[7:])) <= 2.0
    with pytest.raises(ValueError):
        sample_point(rng, boost_bound=RAPIDITY_MAX + 1.0)
