import numpy as np
import pytest
from scipy.linalg import block_diag

from aqm_lab.hj import EMConfig
from aqm_lab.lorentz_reps import Irrep, casimir_value, irrep_generators
from aqm_lab.dirac import (
    XI2,
    MassScale,
    clifford_defect,
    dispersion_root,
    gamma_matrices,
    mass_closure_defect,
    mass_spin_spectrum,
    momentum_product_symbol,
    parity_spin_coupling,
    pauli_matrices,
    spin_coupling_matrix,
    squared_dirac_matrix,
    top_spinor_matrix,
)

MOSTLY_PLUS = np.diag([-1.0, 1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# Dirac-basis references: block matrices built from the Pauli matrices
# ---------------------------------------------------------------------------


def spin_sigma_matrices() -> np.ndarray:
    """Block-diagonal spin matrices Sigma_k = diag(sigma_k, sigma_k)."""
    sig = pauli_matrices()
    return np.stack([block_diag(sig[k], sig[k]) for k in range(3)])


def dirac_alpha_matrices() -> np.ndarray:
    """Chirality-weighted matrices alpha_k = diag(sigma_k, -sigma_k)."""
    sig = pauli_matrices()
    return np.stack([block_diag(sig[k], -sig[k]) for k in range(3)])


def parity_generators() -> tuple[np.ndarray, np.ndarray]:
    """Generators of the parity-symmetric spin-1/2 pair, first factor (0, 1/2).

    The direct sum of the (0, 1/2) and (1/2, 0) irrep generators in that
    order; it should equal J = Sigma/2 and K = (i/2) alpha.
    """
    ju, ku = irrep_generators(Irrep(0.0, 0.5))
    jd, kd = irrep_generators(Irrep(0.5, 0.0))
    j = np.stack([block_diag(ju[k], jd[k]) for k in range(3)])
    k_ = np.stack([block_diag(ku[k], kd[k]) for k in range(3)])
    return j, k_


def test_clifford_relations_exact():
    gam = gamma_matrices()
    for mu in range(4):
        for nu in range(4):
            anti = gam[mu] @ gam[nu] + gam[nu] @ gam[mu]
            assert np.max(np.abs(anti - 2 * MOSTLY_PLUS[mu, nu] * np.eye(4))) == 0.0
    assert clifford_defect() == 0.0


def test_gamma_hermiticity_pattern():
    gam = gamma_matrices()
    assert np.max(np.abs(gam[0] + gam[0].conj().T)) == 0.0
    for k in range(1, 4):
        assert np.max(np.abs(gam[k] - gam[k].conj().T)) == 0.0


def test_parity_generators_are_sigma_and_alpha():
    j, k = parity_generators()
    sig = spin_sigma_matrices()
    alp = dirac_alpha_matrices()
    for a in range(3):
        assert np.max(np.abs(j[a] - sig[a] / 2.0)) < 1e-15
        assert np.max(np.abs(k[a] - 0.5j * alp[a])) < 1e-15


def test_spin_coupling_field_free_is_casimir():
    for rep in (Irrep(0, 0.5), Irrep(0.5, 0.5)):
        a = 1.7
        delta = spin_coupling_matrix(rep, EMConfig.zero(), a)
        expected = casimir_value(rep) / a ** 2 * np.eye(rep.dim)
        assert np.max(np.abs(delta - expected)) < 1e-12


def test_parity_spin_coupling_field_free():
    a = 0.9
    delta = parity_spin_coupling(Irrep(0, 0.5), EMConfig.zero(), a)
    assert np.max(np.abs(delta - 1.5 / a ** 2 * np.eye(4))) < 1e-12


def test_squared_dirac_zero_momentum_golden():
    # at p = 0, x = 0 the matrix is m^2 - e (Sigma.H - i alpha.E)
    em = EMConfig(e_field=(0.3, -0.1, 0.4), h_field=(0.2, 0.5, -0.3))
    m = 1.3
    got = squared_dirac_matrix(np.zeros(4), em, m, x=np.zeros(4))
    sig = spin_sigma_matrices()
    alp = dirac_alpha_matrices()
    coupling = (np.einsum("a,aij->ij", em.h_field, sig)
                - 1j * np.einsum("a,aij->ij", em.e_field, alp))
    expected = m ** 2 * np.eye(4) - coupling
    assert np.max(np.abs(got - expected)) < 1e-12


def test_momentum_symbol_free_particle():
    p = np.array([0.7, -0.2, 0.1, 0.4])
    t = momentum_product_symbol(p, EMConfig.zero(), np.zeros(4))
    assert np.max(np.abs(t - np.outer(p, p))) == 0.0


def test_on_shell_annihilation():
    m = 1.1
    p_spatial = np.array([0.3, -0.5, 0.2])
    p0 = np.sqrt(p_spatial @ p_spatial + m ** 2)
    p = np.array([p0, *p_spatial])
    mat = squared_dirac_matrix(p, EMConfig.zero(), m, x=np.zeros(4))
    assert np.max(np.abs(mat)) < 1e-12


def test_gap_identity_random_configs():
    rng = np.random.default_rng(25)
    scale = MassScale(1.0)
    for _ in range(10):
        em = EMConfig(e_field=rng.uniform(-1, 1, 3),
                      h_field=rng.uniform(-1, 1, 3))
        p = rng.uniform(-1, 1, 4)
        x = rng.uniform(-1, 1, 4)
        m18 = top_spinor_matrix(p, em, scale, x=x)
        m19 = squared_dirac_matrix(p, em, scale.mass, x=x)
        gap = scale.a ** 2 * em.invariant_h2_e2()
        assert np.max(np.abs(m18 - m19 - gap * np.eye(4))) < 1e-10


def test_counterterm_closes_gap():
    rng = np.random.default_rng(26)
    scale = MassScale(2.0)
    em = EMConfig(e_field=rng.uniform(-1, 1, 3), h_field=rng.uniform(-1, 1, 3))
    p = rng.uniform(-1, 1, 4)
    x = rng.uniform(-1, 1, 4)
    m18 = top_spinor_matrix(p, em, scale, x=x, counterterm=True)
    m19 = squared_dirac_matrix(p, em, scale.mass, x=x)
    assert np.max(np.abs(m18 - m19)) < 1e-12


def test_mass_scale_closed_form():
    m = 1.4
    scale = MassScale(m)
    assert scale.a == pytest.approx(np.sqrt(17.0 / 6.0) / m)
    assert XI2 == pytest.approx(2.0 / 9.0)
    with pytest.raises(ValueError):
        MassScale(0.0)


def test_mass_closure_is_seventeen_sixths():
    # casimir(0,1/2) + 6 xi^2 = 3/2 + 4/3 = 17/6 reproduces the mass exactly
    assert mass_closure_defect() < 1e-15


def test_spectrum_values():
    scale = MassScale(1.0)
    rows = mass_spin_spectrum([Irrep(0, 0.5), Irrep(0.5, 0.5)], scale.a)
    by_label = {(r["u"], r["v"]): r for r in rows}
    assert by_label[(0.0, 0.5)]["m2"] == pytest.approx(1.0)
    assert by_label[(0.5, 0.5)]["m2"] == pytest.approx(26.0 / 17.0)
    assert by_label[(0.5, 0.5)]["casimir"] == pytest.approx(3.0)


def test_dispersion_root_matches_relativistic_energy():
    scale = MassScale(1.0)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        p_spatial = rng.uniform(-1, 1, 3)
        root = dispersion_root(p_spatial, scale)
        expected = np.sqrt(p_spatial @ p_spatial + scale.mass ** 2)
        assert abs(root - expected) / expected < 1e-10
