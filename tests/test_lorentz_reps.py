import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from aqm_lab.cli import CASIMIR_REPS, REPS_CHUNK
from aqm_lab.config_space import (
    SERIES_CUTOFF,
    GroupMetric,
    expm as chart_expm,
    factor_exponents,
    generators,
    lorentz_from_angles,
)
from aqm_lab.geometry import laplace_beltrami
from aqm_lab import lorentz_reps
from aqm_lab.lorentz_reps import (
    Irrep,
    _chart_product,
    _generator_halves,
    angular_laplacian_check,
    casimir_value,
    commutator_defect,
    conjugation_defect,
    d_matrix,
    d_matrix_inverse,
    factor_swap,
    irrep_generators,
    reps_up_to_dim,
    su2_generators,
    vector_intertwiner,
)

SIGMA = np.array([[[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]],
                  [[1, 0], [0, -1]]], dtype=complex)


# ---------------------------------------------------------------------------
# chart inverse: the independent reference of the homomorphism test
# ---------------------------------------------------------------------------


def angles_from_lorentz(lam: np.ndarray) -> np.ndarray:
    """Chart coordinates of a proper orthochronous Lorentz matrix.

    Polar decomposition with respect to the Minkowski pairing: the positive
    factor B = sqrt(Lambda^T Lambda) is a pure boost whose generator is read
    off its matrix logarithm, and Lambda B^{-1} is a spatial rotation whose
    rotation vector completes the chart. Exact up to floating point, no
    iteration involved.
    """
    lam = np.asarray(lam, dtype=float)
    w, v = np.linalg.eigh(lam.T @ lam)
    if np.any(w <= 0):
        raise ValueError("matrix is not in the proper Lorentz group")
    log_b = v @ np.diag(0.5 * np.log(w)) @ v.T   # symmetric log of the boost factor
    theta_boost = np.array([log_b[0, 1], log_b[0, 2], log_b[0, 3]])
    b_inv = v @ np.diag(w ** -0.5) @ v.T
    rot = lam @ b_inv
    if rot[0, 0] < 0:
        raise ValueError("matrix is not orthochronous")
    rvec = Rotation.from_matrix(rot[1:, 1:]).as_rotvec()
    return np.concatenate([rvec, theta_boost])


def compose_angles(theta_left: np.ndarray, theta_right: np.ndarray) -> np.ndarray:
    """Chart coordinates of Lambda(theta_left) Lambda(theta_right)."""
    return angles_from_lorentz(lorentz_from_angles(theta_left)
                               @ lorentz_from_angles(theta_right))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1.5, 1.5), min_size=6, max_size=6))
def test_angle_round_trip(vals):
    theta = np.array(vals)
    lam = lorentz_from_angles(theta)
    back = angles_from_lorentz(lam)
    assert np.max(np.abs(lorentz_from_angles(back) - lam)) < 1e-10


def test_angle_round_trip_near_identity():
    theta = np.array([1e-9, 0.0, -1e-9, 1e-9, 0.0, 0.0])
    back = angles_from_lorentz(lorentz_from_angles(theta))
    assert np.max(np.abs(back - theta)) < 1e-12


def test_angles_reject_non_orthochronous():
    with pytest.raises(ValueError):
        angles_from_lorentz(-np.eye(4))  # PT: proper but past-pointing


def test_compose_is_group_multiplication():
    rng = np.random.default_rng(3)
    t1 = rng.uniform(-1, 1, 6)
    t2 = rng.uniform(-1, 1, 6)
    lhs = lorentz_from_angles(compose_angles(t1, t2))
    rhs = lorentz_from_angles(t1) @ lorentz_from_angles(t2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_irrep_validation_and_labels():
    rep = Irrep(0.5, 1.0)
    assert rep.dim == 6
    assert rep.conjugate == Irrep(1.0, 0.5)
    assert rep.label() == "(1/2,1)"
    with pytest.raises(ValueError):
        Irrep(0.3, 0.0)
    with pytest.raises(ValueError):
        Irrep(-0.5, 0.0)


def test_irrep_stores_the_half_integers_it_accepts():
    # within the 1e-12 acceptance of a half-integer, the label is the irrep
    near, exact = Irrep(0.5 + 4e-13, 1 - 4e-13), Irrep(0.5, 1)
    assert (near.u, near.v) == (0.5, 1.0)
    assert near == exact and hash(near) == hash(exact)
    assert near.label() == "(1/2,1)"
    assert commutator_defect([near, exact])[0] == commutator_defect([exact])[0]


def test_su2_golden_half():
    j = su2_generators(0.5)
    assert np.max(np.abs(j - SIGMA / 2.0)) < 1e-15


def test_su2_golden_one():
    j = su2_generators(1.0)
    assert np.allclose(j[2], np.diag([1.0, 0.0, -1.0]))
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(j[0], [[0, s, 0], [s, 0, s], [0, s, 0]])


def test_su2_commutators_high_spin():
    j = su2_generators(2.5)
    comm = j[0] @ j[1] - j[1] @ j[0]
    assert np.max(np.abs(comm - 1j * j[2])) < 1e-13


def test_irrep_generator_hermiticity():
    j, k = irrep_generators(Irrep(1.0, 0.5))
    for a in range(3):
        assert np.max(np.abs(j[a] - j[a].conj().T)) < 1e-14
        assert np.max(np.abs(k[a] + k[a].conj().T)) < 1e-14


EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0


def commutator_residuals_reference(rep: Irrep) -> list[np.ndarray]:
    """The 27 commutator residuals, one (a, b) pair and relation at a time:
    the reference of the stacked ``commutator_defect``."""
    j, k = irrep_generators(rep)
    residuals = []
    for a in range(3):
        for b in range(3):
            tj = 1j * np.einsum("c,cij->ij", EPS[a, b], j)
            tk = 1j * np.einsum("c,cij->ij", EPS[a, b], k)
            residuals += [j[a] @ j[b] - j[b] @ j[a] - tj,
                          j[a] @ k[b] - k[b] @ j[a] - tk,
                          k[a] @ k[b] - k[b] @ k[a] + tj]
    return residuals


def test_commutators_all_small_reps():
    reps = reps_up_to_dim(9)
    for rep in reps:
        for residual in commutator_residuals_reference(rep):
            assert np.max(np.abs(residual)) < 1e-12
    assert np.all(commutator_defect(reps) < 1e-12)


@pytest.mark.parametrize("rep", reps_up_to_dim(9) + [Irrep(1.5, 1.5), Irrep(2, 1)],
                         ids=Irrep.label)
def test_commutator_defect_equals_per_pair_loop(rep):
    reference = np.max(np.abs(commutator_residuals_reference(rep)))
    assert commutator_defect([rep])[0] == reference


def test_casimir_is_scalar_matrix():
    for rep in (Irrep(0, 0.5), Irrep(0.5, 0.5), Irrep(1, 1)):
        j, k = irrep_generators(rep)
        c = sum(j[a] @ j[a] - k[a] @ k[a] for a in range(3))
        assert np.max(np.abs(c - casimir_value(rep) * np.eye(rep.dim))) < 1e-12


def test_casimir_golden_values():
    assert casimir_value(Irrep(0, 0)) == 0.0
    assert casimir_value(Irrep(0, 0.5)) == pytest.approx(1.5)
    assert casimir_value(Irrep(0.5, 0.5)) == pytest.approx(3.0)
    assert casimir_value(Irrep(1, 1)) == pytest.approx(8.0)


def test_reps_up_to_dim_inventory():
    reps = reps_up_to_dim(9)
    assert len(reps) == 23
    assert reps[0] == Irrep(0, 0)
    assert Irrep(0.5, 0.5) in reps
    assert Irrep(1, 1) in reps
    assert all(r.dim <= 9 for r in reps)
    dims = [r.dim for r in reps]
    assert dims == sorted(dims)


# ---------------------------------------------------------------------------
# representation matrices
# ---------------------------------------------------------------------------


def test_d_matrix_rotation_rodrigues():
    rep = Irrep(0, 0.5)
    rot = np.array([0.4, -0.7, 0.2])
    theta = np.concatenate([rot, np.zeros(3)])
    phi = np.linalg.norm(rot)
    expected = (np.cos(phi / 2) * np.eye(2)
                - 1j * np.sin(phi / 2) * np.einsum("a,aij->ij", rot / phi, SIGMA))
    assert np.max(np.abs(d_matrix(rep, theta) - expected)) < 1e-13


def test_d_matrix_boost_rodrigues():
    rep = Irrep(0, 0.5)
    boost = np.array([0.3, 0.1, -0.5])
    theta = np.concatenate([np.zeros(3), boost])
    beta = np.linalg.norm(boost)
    expected = (np.cosh(beta / 2) * np.eye(2)
                + np.sinh(beta / 2) * np.einsum("a,aij->ij", boost / beta, SIGMA))
    assert np.max(np.abs(d_matrix(rep, theta) - expected)) < 1e-13


def test_d_matrix_homomorphism():
    rng = np.random.default_rng(21)
    for rep in (Irrep(0.5, 0.5), Irrep(1, 0)):
        t1 = rng.uniform(-0.8, 0.8, 6)
        t2 = rng.uniform(-0.8, 0.8, 6)
        lhs = d_matrix(rep, t1) @ d_matrix(rep, t2)
        rhs = d_matrix(rep, compose_angles(t1, t2))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_d_matrix_inverse_closed_form():
    rng = np.random.default_rng(22)
    for rep in (Irrep(0, 0.5), Irrep(1, 1)):
        theta = rng.uniform(-1.5, 1.5, 6)
        prod = d_matrix(rep, theta) @ d_matrix_inverse(rep, theta)
        assert np.max(np.abs(prod - np.eye(rep.dim))) < 1e-12


def d_matrix_reference(rep: Irrep, theta: np.ndarray) -> np.ndarray:
    """D(theta) by dense ``expm``, reference of the closed form."""
    j, k = irrep_generators(rep)
    return expm(-1j * np.einsum("a,aij->ij", theta[:3], j)) \
        @ expm(-1j * np.einsum("a,aij->ij", theta[3:], k))


def d_matrix_inverse_reference(rep: Irrep, theta: np.ndarray) -> np.ndarray:
    j, k = irrep_generators(rep)
    return expm(1j * np.einsum("a,aij->ij", theta[3:], k)) \
        @ expm(1j * np.einsum("a,aij->ij", theta[:3], j))


def _rel_error(value: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(value - ref)) / np.max(np.abs(ref)))


def _assert_matches_references(rep: Irrep, theta: np.ndarray) -> None:
    assert _rel_error(d_matrix(rep, theta), d_matrix_reference(rep, theta)) <= 1e-12
    assert _rel_error(d_matrix_inverse(rep, theta),
                      d_matrix_inverse_reference(rep, theta)) <= 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e-5, 1e-9])
def test_d_matrix_matches_expm_reference_at_random_points(scale):
    # the angle range of verify-reps, on every irrep it checks
    thetas = scale * np.random.default_rng(25).uniform(-1.2, 1.2, (8, 6))
    for rep in reps_up_to_dim(9):
        for theta in thetas:
            _assert_matches_references(rep, theta)


@pytest.mark.parametrize("norm", [0.99 * SERIES_CUTOFF, SERIES_CUTOFF,
                                  1.01 * SERIES_CUTOFF])
@pytest.mark.parametrize("block", [slice(0, 3), slice(3, 6)])
def test_d_matrix_matches_expm_reference_at_series_cutoff(norm, block):
    rng = np.random.default_rng(26)
    for rep in reps_up_to_dim(9):
        direction = rng.normal(size=3)
        theta = np.zeros(6)
        theta[block] = norm * direction / np.linalg.norm(direction)
        _assert_matches_references(rep, theta)


def test_d_matrix_keeps_digits_on_high_spins():
    # Newton terms taken from one end of the nodes grow like
    # (1 + |e^{i theta} - 1|)^k before they cancel: 1.5e-13 on (0,4)
    thetas = np.random.default_rng(0).uniform(-1.2, 1.2, (50, 6))
    for rep in reps_up_to_dim(9):
        if rep.u + rep.v < 3:
            continue
        for theta in thetas:
            assert _rel_error(d_matrix(rep, theta),
                              d_matrix_reference(rep, theta)) <= 3e-14
            assert _rel_error(d_matrix_inverse(rep, theta),
                              d_matrix_inverse_reference(rep, theta)) <= 3e-14


def test_d_matrix_at_zero_is_identity():
    for rep in reps_up_to_dim(9):
        assert np.array_equal(d_matrix(rep, np.zeros(6)), np.eye(rep.dim))
        assert np.array_equal(d_matrix_inverse(rep, np.zeros(6)), np.eye(rep.dim))


def test_d_matrix_batch_matches_per_row_calls():
    rng = np.random.default_rng(27)
    rows = [np.zeros(6)]
    for norm in (0.99 * SERIES_CUTOFF, 1.01 * SERIES_CUTOFF):
        for block in (slice(0, 3), slice(3, 6)):
            full = rng.uniform(-1.2, 1.2, 6)
            direction = rng.normal(size=3)
            full[block] = norm * direction / np.linalg.norm(direction)
            rows.append(full)
    rows += list(rng.uniform(-1.2, 1.2, (10, 6)))
    thetas = np.array(rng.permutation(rows)).reshape(3, 5, 6)
    for rep in reps_up_to_dim(9):
        batch = d_matrix(rep, thetas)
        batch_inv = d_matrix_inverse(rep, thetas)
        assert batch.shape == batch_inv.shape == (3, 5, rep.dim, rep.dim)
        for idx in np.ndindex(3, 5):
            theta = thetas[idx]
            assert _rel_error(batch[idx], d_matrix(rep, theta)) <= 1e-12
            assert _rel_error(batch_inv[idx], d_matrix_inverse(rep, theta)) <= 1e-12
            _assert_matches_references(rep, theta)


def test_irrep_generators_are_built_once_and_read_only():
    rep = Irrep(1, 0.5)
    j, k = irrep_generators(rep)
    j_again, k_again = irrep_generators(Irrep(1, 0.5))
    assert np.shares_memory(j, j_again) and np.shares_memory(k, k_again)
    for gen in (j, k):
        with pytest.raises(ValueError):
            gen[0, 0, 0] = 0.0
    # the benchmark's cProfile cross-check reads the code object of every
    # traced function, so this stays a plain function around the cache
    assert irrep_generators.__code__.co_name == "irrep_generators"


def test_factor_swap_is_permutation():
    for rep in (Irrep(0.5, 0.5), Irrep(1, 0.5)):
        p = factor_swap(rep)
        assert np.max(np.abs(p @ p.T - np.eye(rep.dim))) < 1e-15
        assert np.all((p == 0) | (p == 1))


def factor_swap_reference(rep: Irrep) -> np.ndarray:
    """P[j * du + i, i * dv + j] = 1 by a double loop over the two spin
    factors: the reference of the cached, index-arithmetic ``factor_swap``."""
    du = int(round(2 * rep.u + 1))
    dv = int(round(2 * rep.v + 1))
    p = np.zeros((du * dv, du * dv))
    for i in range(du):
        for j in range(dv):
            p[j * du + i, i * dv + j] = 1.0
    return p


def test_factor_swap_matches_double_loop_and_is_cached_read_only():
    for rep in reps_up_to_dim(12) + [Irrep(1.5, 1.5), Irrep(2, 1)]:
        p = factor_swap(rep)
        assert np.array_equal(p, factor_swap_reference(rep)), rep.label()
        assert factor_swap(rep) is p
        with pytest.raises(ValueError):
            p[0, 0] = 2.0


# every class of one dimension and one spin u + v, interleaved, with one
# irrep twice: the grouped checks put each row back in the order given
SHUFFLED_REPS = [(reps_up_to_dim(9) + [Irrep(1.5, 1.5), Irrep(2, 1),
                                       Irrep(1, 0.5)])[i]
                 for i in np.random.default_rng(33).permutation(26)]


def test_conjugation_relation_across_reps():
    rng = np.random.default_rng(23)
    thetas = [rng.uniform(-1.0, 1.0, 6) for _ in range(3)]
    for theta in thetas:
        assert np.all(conjugation_defect(reps_up_to_dim(9), theta) < 1e-10)


def conjugation_defect_reference(rep: Irrep, theta: np.ndarray) -> float:
    """The conjugation residual at one angle 6-vector from d_matrix and
    d_matrix_inverse of the conjugate irrep: the reference of the one-expm
    ``conjugation_defect``."""
    d_uv = d_matrix(rep, theta)
    d_vu_inv = d_matrix_inverse(rep.conjugate, theta)
    p = factor_swap(rep)
    return float(np.max(np.abs(d_uv.conj().T - p.T @ d_vu_inv @ p)))


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=str)
@pytest.mark.parametrize("scale", [1.0, 1e-9, 0.0])
def test_conjugation_defect_equals_per_angle_reference(scale, shape):
    # scale 1e-9 puts both factors below SERIES_CUTOFF; 0 is theta = 0
    thetas = scale * np.random.default_rng(28).uniform(-1.2, 1.2, shape + (6,))
    reps = reps_up_to_dim(9)
    assert {Irrep(0, 0), Irrep(0, 0.5), Irrep(0.5, 0)} <= set(reps)
    defects = conjugation_defect(reps, thetas)
    assert defects.shape == (len(reps),) + shape
    for rep, defect in zip(reps, defects):
        for idx in np.ndindex(shape):
            assert defect[idx] == conjugation_defect_reference(rep, thetas[idx])


def test_conjugation_defect_is_nan_in_non_finite_rows_only():
    thetas = np.random.default_rng(29).uniform(-1.2, 1.2, (5, 6))
    thetas[1, 4] = np.nan
    thetas[3, 0] = np.inf
    with np.errstate(all="ignore"):
        defects = conjugation_defect(SHUFFLED_REPS, thetas)
    for rep, defect in zip(SHUFFLED_REPS, defects):
        assert np.isnan(defect[[1, 3]]).all(), rep.label()
        for row in (0, 2, 4):
            assert defect[row] == conjugation_defect_reference(rep, thetas[row])


# ---------------------------------------------------------------------------
# vector equivalence
# ---------------------------------------------------------------------------


def test_vector_intertwiner_nullspace():
    x, sigma_min = vector_intertwiner()
    assert sigma_min < 1e-12
    assert np.max(np.abs(x)) == pytest.approx(1.0)


def test_vector_intertwiner_equals_three_single_angle_calls():
    thetas = [np.array([0.7, -0.3, 0.2, 0.4, 0.1, -0.5]),
              np.array([-0.2, 0.5, -0.6, 0.1, -0.3, 0.2]),
              np.array([0.1, 0.2, 0.9, -0.2, 0.6, 0.3])]
    eye = np.eye(4)
    system = np.vstack([np.kron(d_matrix(Irrep(0.5, 0.5), theta), eye)
                        - np.kron(eye, lorentz_from_angles(theta).T)
                        for theta in thetas])
    _, s, vh = np.linalg.svd(system)
    x_ref = vh[-1].conj().reshape(4, 4)
    x_ref = x_ref / x_ref.flat[np.argmax(np.abs(x_ref))]
    x, sigma_min = vector_intertwiner()
    assert np.array_equal(x, x_ref)
    assert sigma_min == s[-1]


def test_vector_intertwiner_system_equals_kron_form(monkeypatch):
    # the broadcast product of D and Lambda^T with I is bitwise the stack of
    # kron(D, I) - kron(I, Lambda^T), signed zeros included
    systems = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        systems.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    vector_intertwiner()
    thetas = np.array([[0.7, -0.3, 0.2, 0.4, 0.1, -0.5],
                       [-0.2, 0.5, -0.6, 0.1, -0.3, 0.2],
                       [0.1, 0.2, 0.9, -0.2, 0.6, 0.3]])
    eye = np.eye(4)
    kron_form = np.vstack([np.kron(d, eye) - np.kron(eye, lam.T) for d, lam in
                           zip(d_matrix(Irrep(0.5, 0.5), thetas),
                               lorentz_from_angles(thetas))])
    (system,) = systems
    assert system.shape == kron_form.shape == (48, 16)
    assert system.dtype == kron_form.dtype
    assert system.tobytes() == kron_form.tobytes()


def test_vector_intertwiner_fresh_group_elements():
    x, _ = vector_intertwiner()
    rep = Irrep(0.5, 0.5)
    rng = np.random.default_rng(24)
    for _ in range(4):
        theta = rng.uniform(-1.2, 1.2, 6)
        resid = d_matrix(rep, theta) @ x - x @ lorentz_from_angles(theta)
        assert np.max(np.abs(resid)) < 1e-11


def test_vector_intertwiner_algebra_level():
    x, _ = vector_intertwiner()
    j, k = irrep_generators(Irrep(0.5, 0.5))
    gen = generators()
    for a in range(3):
        assert np.max(np.abs(-1j * j[a] @ x - x @ gen[a])) < 1e-11
        assert np.max(np.abs(-1j * k[a] @ x - x @ gen[3 + a])) < 1e-11


# ---------------------------------------------------------------------------
# invariant second-order operator
# ---------------------------------------------------------------------------


def test_angular_laplacian_casimir_smallest_spinor():
    theta = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    rep = Irrep(0, 0.5)
    (ratio,) = angular_laplacian_check([rep], theta, a=1.0)
    expected = -casimir_value(rep) * np.eye(2)
    assert np.max(np.abs(ratio - expected)) < 1e-5


def test_angular_laplacian_casimir_vector_rep_scaled():
    theta = np.array([-0.4, 0.2, 0.1, 0.3, 0.2, -0.1])
    rep = Irrep(0.5, 0.5)
    a = 2.0
    (ratio,) = angular_laplacian_check([rep], theta, a=a)
    expected = -casimir_value(rep) / a ** 2 * np.eye(4)
    assert np.max(np.abs(ratio - expected)) < 1e-5


def test_angular_laplacian_separates_reps():
    theta = np.array([0.2, 0.4, -0.3, -0.2, 0.1, 0.5])
    v1, v2 = (ratio[0, 0] for ratio in angular_laplacian_check(
        [Irrep(0, 0.5), Irrep(0.5, 0.5)], theta, a=1.0))
    assert abs(v1 - v2) > 1.0


@pytest.mark.parametrize("n_angles", [1, 2, 5])
@pytest.mark.parametrize("seed", [3, 41, 907])
def test_angular_laplacian_batch_equals_per_angle_calls(seed, n_angles):
    thetas = np.random.default_rng(seed).uniform(-1.2, 1.2, (n_angles, 6))
    for rep in (Irrep(0, 0.5), Irrep(0.5, 0.5)):
        (batch,) = angular_laplacian_check([rep], thetas, a=1.5)
        assert batch.shape == (n_angles, rep.dim, rep.dim)
        for theta, ratio in zip(thetas, batch):
            (single,) = angular_laplacian_check([rep], theta, a=1.5)
            assert np.array_equal(ratio, single)


# ---------------------------------------------------------------------------
# grouped checks: each row of a list of irreps against its per-irrep form
# ---------------------------------------------------------------------------


def commutator_defect_per_irrep(rep: Irrep) -> float:
    """One irrep's commutator defect from one stacked product of its six
    generators and an ``einsum`` for the targets: the reference of the
    grouped form."""
    j, k = irrep_generators(rep)
    gens = np.concatenate([j, k])
    d = gens.shape[-1]
    prods = gens[:, None] @ gens[None, :]
    comm = (prods - prods.swapaxes(0, 1)).reshape(2, 3, 2, 3, d, d)
    target_j, target_k = 1j * np.einsum("abc,hcij->habij", EPS,
                                        gens.reshape(2, 3, d, d))
    residuals = np.stack([comm[0, :, 0] - target_j,
                          comm[0, :, 1] - target_k,
                          comm[1, :, 1] + target_j])
    return float(np.max(np.abs(residuals)))


def conjugation_defect_per_irrep(rep: Irrep, theta: np.ndarray) -> np.ndarray:
    """One irrep's conjugation defect from one ``expm`` call of its own four
    factors: the reference of the grouped form."""
    m_uv, kappa = factor_exponents(theta, _generator_halves(rep))
    m_vu, _ = factor_exponents(theta, _generator_halves(rep.conjugate))
    exponents = np.stack([-1j * m_uv, 1j * m_vu], axis=-4)
    kappa = np.broadcast_to(kappa[..., None, :], exponents.shape[:-2])
    factors = chart_expm(exponents, kappa, rep.u + rep.v)
    d_uv = _chart_product(factors[..., 0, :, :, :], inverse=False)
    d_vu_inv = _chart_product(factors[..., 1, :, :, :], inverse=True)
    p = factor_swap(rep)
    return np.max(np.abs(d_uv.conj().swapaxes(-1, -2) - p.T @ d_vu_inv @ p),
                  axis=(-2, -1))


def angular_laplacian_per_irrep(rep: Irrep, theta: np.ndarray,
                                a: float) -> np.ndarray:
    """One irrep's Casimir ratio from its own stencil pass: the reference of
    the shared pass."""
    lap = laplace_beltrami(GroupMetric(a), lambda t: d_matrix_inverse(rep, t),
                           theta, h=1e-2, h_inner=1e-3)
    return lap @ d_matrix(rep, theta)


def test_classes_of_the_checked_irreps(monkeypatch):
    # one expm call per class of one dimension and one spin u + v: 13 for
    # the 23 checked irreps, and a repeated or reordered irrep joins its class
    calls = []
    monkeypatch.setattr(lorentz_reps, "expm",
                        lambda *args: calls.append(args) or chart_expm(*args))
    theta = np.zeros(6)
    conjugation_defect(reps_up_to_dim(9), theta)
    assert len(calls) == 13
    calls.clear()
    conjugation_defect(reps_up_to_dim(9)[::-1] + reps_up_to_dim(9), theta)
    assert len(calls) == 13


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=str)
@pytest.mark.parametrize("scale", [1.0, 1e-9, 0.0])
def test_shuffled_irreps_equal_per_irrep_forms(scale, shape):
    # scale 1e-9 puts both factors below SERIES_CUTOFF; 0 is theta = 0;
    # the spin-0 class broadcasts kappa onto the exponents
    thetas = scale * np.random.default_rng(30).uniform(-1.2, 1.2, shape + (6,))
    commutators = commutator_defect(SHUFFLED_REPS)
    conjugations = conjugation_defect(SHUFFLED_REPS, thetas)
    assert commutators.shape == (len(SHUFFLED_REPS),)
    assert conjugations.shape == (len(SHUFFLED_REPS),) + shape
    for rep, commutator, conjugation in zip(SHUFFLED_REPS, commutators,
                                            conjugations):
        assert commutator == commutator_defect_per_irrep(rep), rep.label()
        assert np.array_equal(conjugation,
                              conjugation_defect_per_irrep(rep, thetas)), \
            rep.label()


@pytest.mark.parametrize("shape", [(), (3,), (2, 2)], ids=str)
def test_shared_laplacian_pass_equals_single_irrep_calls(shape):
    thetas = np.random.default_rng(32).uniform(-1.2, 1.2, shape + (6,))
    ratios = angular_laplacian_check(CASIMIR_REPS, thetas, a=1.5)
    assert isinstance(ratios, tuple) and len(ratios) == len(CASIMIR_REPS)
    for rep, ratio in zip(CASIMIR_REPS, ratios):
        assert ratio.shape == shape + (rep.dim, rep.dim)
        (single,) = angular_laplacian_check([rep], thetas, a=1.5)
        assert np.array_equal(ratio, single)
        assert np.array_equal(
            ratio, angular_laplacian_per_irrep(rep, thetas, a=1.5))


@pytest.mark.parametrize("seed", [0, 5, 17])
def test_reps_chunk_through_shared_pass_equals_per_draw_calls(seed):
    # verify-reps hands REPS_CHUNK draws to one shared pass; from 15 draws
    # the pass's expm batches reach 256 KiB, where numpy reuses temporaries
    # in place, so chunks of 15 and 64 pin that it still gives each draw
    # the bits of its own call
    rng = np.random.default_rng(seed)
    for n_draws in (REPS_CHUNK, 15, 64):
        thetas = rng.uniform(-1.2, 1.2, (n_draws, 6))
        ratios = angular_laplacian_check(CASIMIR_REPS, thetas, a=1.0)
        for rep, ratio in zip(CASIMIR_REPS, ratios):
            for theta, row in zip(thetas, ratio):
                assert np.array_equal(
                    row, angular_laplacian_per_irrep(rep, theta, a=1.0)), \
                    (n_draws, rep.label())


@pytest.mark.parametrize("rep", [None, Irrep(0.5, 0.5), Irrep(1, 0.5)],
                         ids=lambda rep: rep.label() if rep else "chart")
def test_expm_batch_rows_equal_single_calls(rep):
    # 9000 angles give expm a kappa of 288 KiB, past the 256 KiB from which
    # numpy reuses a temporary operand in place; sampled factor matrices of
    # the batch must have the bits of their own calls, on the 4x4 chart
    # (real exponents) and on irreps (imaginary ones)
    rng = np.random.default_rng(36)
    thetas = rng.uniform(-1.2, 1.2, (9000, 6))
    if rep is None:
        m, kappa = factor_exponents(thetas, generators().reshape(2, 3, 4, 4))
        spin = 1.0
    else:
        m, kappa = factor_exponents(thetas, _generator_halves(rep))
        m, spin = -1j * m, rep.u + rep.v
    factors = chart_expm(m, kappa, spin)
    for i in rng.choice(len(thetas), 40, replace=False):
        assert np.array_equal(factors[i], chart_expm(m[i], kappa[i], spin)), i
