import numpy as np
import pytest

from aqm_lab import config_space, hj
from aqm_lab.config_space import SERIES_CUTOFF, TopMetric, killing_vectors, \
    sample_point
from aqm_lab.fields import LinearField, draw_field
from aqm_lab.geometry import laplace_beltrami, weyl_scalar_at
from aqm_lab.hj import (
    EMConfig,
    WaveInputs,
    born_density,
    conformal_coupling,
    divergence_residual,
    draw_wave_inputs,
    hj_residual,
    linearization_check,
    momentum_covector,
    raised_momentum,
    wave_ansatz,
    wave_operator,
)


def test_conformal_coupling_values():
    assert conformal_coupling(10) == pytest.approx(np.sqrt(2.0) / 3.0)
    assert conformal_coupling(10) ** 2 == pytest.approx(2.0 / 9.0)
    assert conformal_coupling(4) == pytest.approx(np.sqrt(6.0) / 6.0)
    with pytest.raises(ValueError):
        conformal_coupling(1)


# ---------------------------------------------------------------------------
# electromagnetic configuration
# ---------------------------------------------------------------------------


def field_strength(em: EMConfig) -> np.ndarray:
    """Field tensor F_{mu nu} with F_{0k} = -E_k, F_{kl} = eps_{klm} H_m,
    written out entry by entry as the reference of ``potential_gradient``."""
    f = np.zeros((4, 4))
    f[0, 1:] = -em.e_field
    f[1:, 0] = em.e_field
    h = em.h_field
    f[1, 2], f[2, 1] = h[2], -h[2]
    f[2, 3], f[3, 2] = h[0], -h[0]
    f[3, 1], f[1, 3] = h[1], -h[1]
    return f


def test_field_strength_layout():
    em = EMConfig(e_field=(1.0, 2.0, 3.0), h_field=(4.0, 5.0, 6.0))
    f = field_strength(em)
    assert np.max(np.abs(f + f.T)) == 0.0
    assert np.allclose(f[0, 1:], [-1.0, -2.0, -3.0])
    # F_ij = eps_ijk H_k
    assert f[1, 2] == pytest.approx(6.0)
    assert f[2, 3] == pytest.approx(4.0)
    assert f[3, 1] == pytest.approx(5.0)


def test_field_strength_from_potential_gradient():
    em = EMConfig(e_field=(0.3, -0.2, 0.5), h_field=(0.1, 0.4, -0.6))
    da = em.potential_gradient()
    assert np.max(np.abs((da - da.T) - field_strength(em))) < 1e-14


def potential_spacetime_reference(em: EMConfig, x: np.ndarray) -> np.ndarray:
    """A_0 = E.x and A_k = (1/2)(H x x)_k written out component by component:
    the reference of ``potential_spacetime``, which reads the field from dA."""
    x = np.asarray(x, dtype=float)
    a = np.empty(x.shape)
    e1, e2, e3 = em.e_field
    h1, h2, h3 = em.h_field
    x1, x2, x3 = x[..., 1], x[..., 2], x[..., 3]
    a[..., 0] = e1 * x1 + e2 * x2 + e3 * x3
    a[..., 1] = 0.5 * (h2 * x3 - h3 * x2)
    a[..., 2] = 0.5 * (h3 * x1 - h1 * x3)
    a[..., 3] = 0.5 * (h1 * x2 - h2 * x1)
    return a


def test_potential_spacetime_matches_gradient():
    # the potential read from dA has the bits of the written-out form, at
    # coordinates of both signs and magnitudes from 1e-3 to 1e3
    rng = np.random.default_rng(15)
    for shape in ((), (5,), (3, 7)):
        for _ in range(20):
            em = EMConfig(e_field=rng.normal(size=3),
                          h_field=rng.normal(size=3), kappa=rng.normal())
            x = rng.uniform(-1, 1, shape + (4,)) * 10.0 ** rng.integers(-3, 4)
            assert np.array_equal(em.potential_spacetime(x),
                                  potential_spacetime_reference(em, x))


def test_potential_spacetime_is_batch_independent():
    # a point's potential has the same bits alone and in any batch
    rng = np.random.default_rng(16)
    em = EMConfig(e_field=rng.normal(size=3), h_field=rng.normal(size=3))
    x = rng.uniform(-1, 1, (3, 7, 4))
    batch = em.potential_spacetime(x)
    for idx in np.ndindex(x.shape[:-1]):
        assert np.array_equal(batch[idx], em.potential_spacetime(x[idx]))


def test_invariant_h2_e2():
    em = EMConfig(e_field=(1.0, 0.0, 0.0), h_field=(0.0, 2.0, 0.0))
    assert em.invariant_h2_e2() == pytest.approx(3.0)


def test_em_constants_are_built_once_and_read_only():
    e, h = np.array([0.3, -0.2, 0.5]), np.array([0.1, 0.4, -0.6])
    em = EMConfig(e_field=e, h_field=h, kappa=1.5)
    e[0] = h[0] = 7.0  # the config holds copies of its arguments
    assert em.e_field[0] == 0.3 and em.h_field[0] == 0.1
    assert em.potential_gradient() is em.potential_gradient()
    assert em.generator_charges() is em.generator_charges()
    for const in (em.e_field, em.h_field, em.potential_gradient(),
                  em.generator_charges()):
        with pytest.raises(ValueError):
            const[0] = 0.0


def test_generator_charges_layout():
    em = EMConfig(e_field=(1.0, 2.0, 3.0), h_field=(4.0, 5.0, 6.0), kappa=2.0)
    charges = em.generator_charges()
    assert np.allclose(charges[:3], [-4.0, -5.0, -6.0])
    assert np.allclose(charges[3:], [-1.0, -2.0, -3.0])


def test_group_potential_at_group_identity():
    em = EMConfig(e_field=(0.2, -0.1, 0.4), h_field=(0.5, 0.3, -0.2))
    q = np.concatenate([[0.3, -0.1, 0.2, 0.5], np.zeros(6)])
    val = em.potential(q)[..., 4:]
    assert np.allclose(val, em.generator_charges(), atol=1e-12)


def test_group_potential_uses_killing_fields():
    em = EMConfig(e_field=(0.2, -0.1, 0.4), h_field=(0.5, 0.3, -0.2))
    theta = np.array([0.3, -0.5, 0.2, 0.4, 0.1, -0.3])
    q = np.concatenate([[0.3, -0.1, 0.2, 0.5], theta])
    val = em.potential(q)[..., 4:]
    expected = killing_vectors(theta) @ em.generator_charges()
    assert np.allclose(val, expected, atol=1e-12)


def test_zero_config():
    em = EMConfig.zero()
    assert em.invariant_h2_e2() == 0.0
    assert np.max(np.abs(em.potential(np.zeros(10)))) == 0.0


# ---------------------------------------------------------------------------
# residuals and the exact linearization
# ---------------------------------------------------------------------------


def _setup(seed, a=1.0):
    rng = np.random.default_rng(seed)
    metric = TopMetric(a)
    fields = draw_wave_inputs(rng)
    q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
    return rng, metric, fields, q


def test_born_density_unit_gauge():
    fields = WaveInputs(s_field=LinearField(np.zeros(10)),
                        log_chi=LinearField(np.zeros(10)))
    assert born_density(fields, np.ones(10)) == pytest.approx(1.0)


def test_wave_ansatz_modulus():
    _, _, fields, q = _setup(16)
    psi = wave_ansatz(fields)
    # |psi| = chi^{-(n-2)/2} = exp(-4 log chi)
    assert abs(abs(psi(q)) - np.exp(-4.0 * fields.log_chi(q))) < 1e-12


def test_momentum_covector_gauge_shift():
    _, _, fields, q = _setup(17)
    em = EMConfig(e_field=(0.2, 0.1, -0.3), h_field=(0.3, -0.2, 0.4))
    u_free = momentum_covector(fields, EMConfig.zero(), q, h=1e-3)
    u_em = momentum_covector(fields, em, q, h=1e-3)
    assert np.max(np.abs(u_free - u_em - em.potential(q))) < 1e-12


@pytest.mark.parametrize("batch", [(), (3,), (2, 5)])
@pytest.mark.parametrize("em", [
    EMConfig.zero(),
    EMConfig(e_field=(0.2, 0.1, -0.3), h_field=(0.3, -0.2, 0.4)),
    EMConfig(*np.random.default_rng(25).normal(size=(2, 3)), kappa=-0.7),
], ids=["free", "em", "random-em"])
def test_raised_momentum_matches_covector_and_inverse(em, batch):
    # one Killing-field evaluation serves the potential and the inverse, and
    # the raise by blocks has the bits of the full 10x10 inverse times u,
    # with u.u# contracted from them: at random points, at the group
    # identity, and with both angle halves just below and just above the
    # series cutoff
    rng = np.random.default_rng(24)
    fields = draw_wave_inputs(rng)
    metric = TopMetric(1.3)
    random = np.array([sample_point(rng) for _ in range(int(np.prod(batch)))])
    halves = random[:, 4:].reshape(-1, 2, 3)
    unit = (halves / np.linalg.norm(halves, axis=-1, keepdims=True)).reshape(-1, 6)
    identity, below, above = random.copy(), random.copy(), random.copy()
    identity[:, 4:] = 0.0
    below[:, 4:] = 0.99 * SERIES_CUTOFF * unit
    above[:, 4:] = 1.01 * SERIES_CUTOFF * unit
    for q in (random, identity, below, above):
        q = q.reshape(batch + (10,))
        up, norm2 = raised_momentum(fields, em, metric, q, 1e-3)
        u_ref = momentum_covector(fields, em, q, h=1e-3)
        up_ref = (metric.inverse(q) @ u_ref[..., None])[..., 0]
        norm2_ref = (u_ref[..., None, :] @ up_ref[..., None])[..., 0, 0]
        assert np.array_equal(up, up_ref) and np.array_equal(norm2, norm2_ref)
        assert norm2.shape == batch


def test_hj_residual_evaluates_the_killing_fields_once(monkeypatch):
    # the momentum's square reads one Killing-field evaluation for the
    # potential and the inverse metric, for a stack of one config or more;
    # the Weyl scalar is stubbed, as it evaluates the inverse metric on its
    # own stencil points
    calls = {"killing_vectors": 0}
    original = killing_vectors

    def counted(theta):
        calls["killing_vectors"] += 1
        return original(theta)

    for module in (config_space, hj):
        monkeypatch.setattr(module, "killing_vectors", counted)
    monkeypatch.setattr(hj, "weyl_scalar_at", lambda *args, **kwargs: 0.0)
    _, metric, fields, q = _setup(21)
    em = EMConfig(e_field=(0.2, 0.1, -0.3), h_field=(0.3, -0.2, 0.4))
    for configs in ((em,), (em, EMConfig.zero(), em)):
        calls["killing_vectors"] = 0
        hj_residual(fields, configs, metric, q, 6.0, np.array([2.0 / 9.0]),
                    1e-3)
        assert calls == {"killing_vectors": 1}


def test_linearization_defect_small_free_and_coupled():
    _, metric, fields, q = _setup(18)
    for em in (EMConfig.zero(),
               EMConfig(e_field=(0.2, 0.1, -0.3), h_field=(0.3, -0.2, 0.4))):
        defect, hj_res, div_res = linearization_check(
            fields, em, metric, q, r_scalar=metric.riemann_scalar())
        assert abs(defect) < 1e-6
        assert np.isfinite(hj_res) and np.isfinite(div_res)


def test_linearization_control_detects_wrong_coupling():
    _, metric, fields, q = _setup(19)
    defect, _, _ = linearization_check(
        fields, EMConfig.zero(), metric, q, xi2=0.25,
        r_scalar=metric.riemann_scalar())
    assert abs(defect) > 1e-2


# seeds 44, 54 and 63 are the one-draw runs whose control misses the
# 1e-2 floor of verify-linearization; 40 and 41 pass it
@pytest.mark.parametrize("seed, misses_floor", [
    (44, True), (54, True), (63, True), (40, False), (41, False)])
def test_linearization_control_matches_its_prediction(seed, misses_floor):
    # the wrong-coupling control is (xi^2 - 1/4)(R_W - R), with R_W from
    # the chi form: the phi form is the one hj_residual reads, and a
    # prediction from it would match the defect by the code's own algebra
    rng = np.random.default_rng(seed)
    fields = draw_wave_inputs(rng)
    q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
    metric = TopMetric(1.0)
    ems = (EMConfig.zero(), EMConfig(e_field=(0.2, 0.1, -0.3),
                                     h_field=(0.3, -0.2, 0.4)))
    xi2 = conformal_coupling(10) ** 2
    defects, _, _ = linearization_check(fields, ems, metric, q, r_scalar=6.0,
                                        xi2=(xi2, 0.25), h=1e-3)
    control = defects[0, 1]
    rw = weyl_scalar_at(metric, fields.log_chi, q, h=1e-3, form="chi",
                        r_scalar=6.0)
    prediction = (xi2 - 0.25) * (rw - 6.0)
    assert (abs(control) < 1e-2) == misses_floor
    assert abs(control - prediction) <= 1e-5 * abs(prediction)


@pytest.mark.parametrize("seed", [24, 25, 26])
@pytest.mark.parametrize("em", [
    EMConfig.zero(),
    EMConfig(e_field=(0.2, 0.1, -0.3), h_field=(0.3, -0.2, 0.4)),
], ids=["free", "field"])
def test_linearization_coupling_array_matches_scalar_calls(seed, em):
    # the stencils do not depend on the coupling, so one call with an array
    # of couplings must give, bitwise, what one call per coupling gives
    _, metric, fields, q = _setup(seed)
    r = metric.riemann_scalar()
    couplings = (conformal_coupling(10) ** 2, 0.25, 0.0)
    defects, hj_res, div_res = linearization_check(fields, em, metric, q,
                                                   r_scalar=r, xi2=couplings)
    assert defects.shape == hj_res.shape == (1, 3)
    for k, xi2 in enumerate(couplings):
        defect, hj_k, div_k = linearization_check(fields, em, metric, q,
                                                  r_scalar=r, xi2=xi2)
        assert np.array_equal(defects[:, k], defect[:, 0])
        assert np.array_equal(hj_res[:, k], hj_k[:, 0]) \
            and np.array_equal(div_res, div_k)
    # the default coupling is the conformal one
    assert _bits(linearization_check(fields, em, metric, q, r_scalar=r)) \
        == _bits((defects[:, :1], hj_res[:, :1], div_res))


def _em_stack(rng):
    return (EMConfig.zero(),
            EMConfig(*rng.normal(size=(2, 3))),
            EMConfig(*rng.normal(size=(2, 3)), kappa=rng.normal()))


@pytest.mark.parametrize("seed", [31, 32, 33])
@pytest.mark.parametrize("xi2", [2.0 / 9.0, (2.0 / 9.0, 0.25)],
                         ids=["scalar", "array"])
def test_stacked_configs_match_one_call_per_config(seed, xi2):
    # a tuple of configs shares the fields' stencils, the Killing fields and
    # R_W; each config's entry must be, bitwise, its own call's value, and
    # the stages' stack of one must give bitwise what the primitives give
    # without a config axis
    rng, metric, fields, q = _setup(seed)
    ems = _em_stack(rng)
    r = metric.riemann_scalar()
    xi2s = np.atleast_1d(xi2)
    # three points and three configs: a mix-up of the point and config axes
    # would broadcast without an error (R_W, and so hj_residual, takes one
    # point)
    batch = q + 0.01 * rng.uniform(-1.0, 1.0, (3, 10))
    psi = wave_ansatz(fields)
    rw = weyl_scalar_at(metric, fields.log_chi, q, h=1e-3, form="phi",
                        r_scalar=r)

    defects, hj_res, div_res = linearization_check(fields, ems, metric, q,
                                                   r_scalar=r, xi2=xi2)
    assert defects.shape == hj_res.shape == (3, len(xi2s))
    assert div_res.shape == (3,)
    hj_stack = hj_residual(fields, ems, metric, q, r, xi2s, 1e-3)
    w_stack = wave_operator(psi, ems, metric, q, psi(q), xi2s, r, 1e-3)
    assert hj_stack.shape == w_stack.shape == (3, len(xi2s))
    assert np.array_equal(hj_res, hj_stack)
    w_batch = wave_operator(psi, ems, metric, batch, psi(batch), xi2s, r,
                            1e-3)
    assert w_batch.shape == (3, 3, len(xi2s))
    div_stack = divergence_residual(fields, ems, metric, batch, h=1e-3)
    up_stack, norm2_stack = raised_momentum(fields, ems, metric, batch,
                                            1e-3)
    assert div_stack.shape == norm2_stack.shape == (3, 3)
    assert up_stack.shape == (3, 3, 10)
    for k, em in enumerate(ems):
        defect, hj_k, div_k = linearization_check(fields, em, metric, q,
                                                  r_scalar=r, xi2=xi2)
        assert np.array_equal(defects[k], defect[0])
        assert np.array_equal(hj_res[k], hj_k[0]) and div_res[k] == div_k[0]
        hj_one = hj_residual(fields, (em,), metric, q, r, xi2s, 1e-3)[0]
        assert np.array_equal(hj_stack[k], hj_one)
        norm2 = raised_momentum(fields, em, metric, q, 1e-3)[1]
        assert np.array_equal(hj_one, norm2 + xi2s * rw)
        w_one = wave_operator(psi, (em,), metric, q, psi(q), xi2s, r,
                              1e-3)[0]
        assert np.array_equal(w_stack[k], w_one)
        lap = laplace_beltrami(metric, psi, q, h=1e-3,
                               potential=em.potential)
        assert np.array_equal(w_one, -lap + xi2s * r * psi(q))
        # a batch of points rounds the fields' sums its own way, so the
        # batch is held to its point calls within 1e-12, not bitwise
        for b, p in enumerate(batch):
            np.testing.assert_allclose(w_batch[b, k], wave_operator(
                psi, (em,), metric, p, psi(p), xi2s, r, 1e-3)[0],
                rtol=0.0, atol=1e-12)
        assert np.array_equal(div_stack[:, k],
                              divergence_residual(fields, em, metric, batch,
                                                  h=1e-3)[:, 0])
        up, norm2 = raised_momentum(fields, em, metric, batch, 1e-3)
        assert np.array_equal(up_stack[:, k], up)
        assert np.array_equal(norm2_stack[:, k], norm2)


@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_a_lone_config_or_coupling_is_a_stack_of_one(batch):
    # every spelling of one config and one coupling gives the stacked
    # shapes, with the bits of the stack of one
    rng, metric, fields, q = _setup(40)
    em = EMConfig(*rng.normal(size=(2, 3)), kappa=rng.normal())
    r = metric.riemann_scalar()
    xi2 = conformal_coupling(10) ** 2
    results = [linearization_check(fields, configs, metric, q, r_scalar=r,
                                   **couplings)
               for configs in (em, (em,))
               for couplings in ({"xi2": xi2}, {"xi2": (xi2,)}, {})]
    assert [np.shape(x) for x in results[0]] == [(1, 1), (1, 1), (1,)]
    assert all(_bits(result) == _bits(results[0]) for result in results)
    points = q + 0.01 * rng.uniform(-1.0, 1.0, batch + (10,))
    lone = divergence_residual(fields, em, metric, points, h=1e-3)
    assert lone.shape == batch + (1,)
    assert _bits((lone,)) == _bits(
        (divergence_residual(fields, (em,), metric, points, h=1e-3),))


def test_empty_config_tuple_is_rejected():
    # wave_operator takes the stack that linearization_check checked
    _, metric, fields, q = _setup(34)
    r = metric.riemann_scalar()
    calls = (
        lambda: linearization_check(fields, (), metric, q, r_scalar=r),
        lambda: hj_residual(fields, (), metric, q, r, np.array([2.0 / 9.0]),
                            1e-3),
        lambda: divergence_residual(fields, (), metric, q, h=1e-3),
        lambda: raised_momentum(fields, (), metric, q, 1e-3),
    )
    for call in calls:
        with pytest.raises(ValueError, match="empty"):
            call()


def test_linearization_insensitive_to_curvature_route():
    # the closed-form scalar and an unrelated value must give the same
    # defect: the curvature enters both sides and cancels
    _, metric, fields, q = _setup(20)
    em = EMConfig.zero()
    d1, _, _ = linearization_check(fields, em, metric, q,
                                   r_scalar=metric.riemann_scalar())
    d2, _, _ = linearization_check(fields, em, metric, q, r_scalar=4.21)
    assert abs(d1 - d2) < 1e-9


# ---------------------------------------------------------------------------
# the check's store: each input once per point array, and the same bits
# ---------------------------------------------------------------------------


def _unshared_check(fields, em, metric, point, r_scalar, xi2, h=1e-3):
    """``linearization_check`` composed from its three stages on the plain
    fields and metric, with no store: each stage evaluates S, log chi, the
    Killing fields and sqrt g itself."""
    point = np.asarray(point, dtype=float)
    ems = (em,) if isinstance(em, EMConfig) else tuple(em)
    couplings = np.atleast_1d(np.asarray(xi2, dtype=float))
    psi = wave_ansatz(fields)
    psi0 = psi(point)
    w = wave_operator(psi, ems, metric, point, psi0, couplings, r_scalar, h)
    hj_res = hj_residual(fields, ems, metric, point, r_scalar, couplings, h)
    div = divergence_residual(fields, ems, metric, point, h=h)
    chi_pow = np.exp((metric.dim - 2) * fields.log_chi(point))
    defect = w / psi0 - hj_res + 1j * chi_pow * div[:, None]
    return defect, hj_res, div


def _bits(result):
    """Type, shape and bytes of each of (defect, hj_res, div_res): equal
    bits, NaN payloads and signed zeros included."""
    return [(type(x), np.shape(x), np.asarray(x).tobytes()) for x in result]


@pytest.mark.parametrize("a", [0.7, 1.0, 1.4])
@pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stack"])
@pytest.mark.parametrize("xi2", [2.0 / 9.0, (2.0 / 9.0, 0.25)],
                         ids=["scalar", "array"])
def test_shared_inputs_give_the_unshared_bits(a, stacked, xi2):
    # four random points per case, 48 in all, over the whole sampled
    # domain, one with both angle halves below the series cutoff
    rng = np.random.default_rng(35)
    metric = TopMetric(a)
    fields = draw_wave_inputs(rng)
    em = _em_stack(rng) if stacked else \
        EMConfig(*rng.normal(size=(2, 3)), kappa=rng.normal())
    points = [sample_point(rng) for _ in range(4)]
    points[-1][4:] = 0.5 * SERIES_CUTOFF
    r = metric.riemann_scalar()
    for q in points:
        shared = linearization_check(fields, em, metric, q, r_scalar=r,
                                     xi2=xi2)
        assert _bits(shared) == _bits(
            _unshared_check(fields, em, metric, q, r, xi2))


@pytest.mark.parametrize("coordinate", [2, 8], ids=["x", "theta"])
def test_nan_point_gives_the_unshared_nans(coordinate):
    # a NaN point equals no array, so the store evaluates it afresh at
    # every call and the NaNs come out as without it
    _, metric, fields, q = _setup(36)
    q[coordinate] = np.nan
    ems = _em_stack(np.random.default_rng(36))
    r = metric.riemann_scalar()
    with np.errstate(invalid="ignore"):
        shared = linearization_check(fields, ems, metric, q, r_scalar=r,
                                     xi2=(2.0 / 9.0, 0.25))
        unshared = _unshared_check(fields, ems, metric, q, r,
                                   (2.0 / 9.0, 0.25))
    assert np.isnan(shared[0]).all()
    assert _bits(shared) == _bits(unshared)


def test_each_check_evaluates_its_own_inputs():
    # two checks in a row at the same point, on different fields, each get
    # their own values; the inputs and the metric handed in are left as
    # they were, their values writable
    rng, metric, first, q = _setup(37)
    second = draw_wave_inputs(rng)
    em = EMConfig(e_field=(0.2, 0.1, -0.3), h_field=(0.3, -0.2, 0.4))
    r = metric.riemann_scalar()
    before = (dict(vars(first)), dict(vars(second)), dict(vars(metric)))
    results = [linearization_check(fields, em, metric, q, r_scalar=r)
               for fields in (first, second)]
    assert results[0][0] != results[1][0]
    for fields, result in zip((first, second), results):
        assert _bits(result) == _bits(
            _unshared_check(fields, em, metric, q, r, 2.0 / 9.0))
    assert (dict(vars(first)), dict(vars(second)), dict(vars(metric))) \
        == before
    assert type(metric) is TopMetric
    stencil = q + 1e-3 * np.eye(10)
    for values in (first.s_field(stencil), metric.killing_fields(stencil),
                   metric.sqrt_det(stencil)):
        assert values.flags.writeable


def test_the_store_keys_on_the_values_of_the_points():
    # an equal array shares the first evaluation whatever its identity;
    # another array of the same shape, or the caller's array written after
    # the call, is evaluated afresh
    seen = []

    def field(q):
        seen.append(q.copy())
        return q.sum(axis=-1)

    evaluated = hj._Evaluated(field)
    q = np.random.default_rng(39).uniform(size=(3, 10))
    first = evaluated(q)
    assert evaluated(q.copy()) is first and len(seen) == 1
    assert np.array_equal(evaluated(q[::-1]), q[::-1].sum(axis=-1))
    q[0, 0] = 7.0
    assert np.array_equal(evaluated(q), q.sum(axis=-1))
    assert len(seen) == 3 and not first.flags.writeable


def _write_into(values):
    values *= 1.0


@pytest.mark.parametrize("target", ["log_chi", "killing_fields"])
def test_a_stage_writing_into_a_shared_input_fails(monkeypatch, target):
    _, metric, fields, q = _setup(38)
    if target == "log_chi":
        def born(fields, point):
            _write_into(fields.log_chi(point))

        monkeypatch.setattr(hj, "born_density", born)
    else:
        raise_from_killing = TopMetric.raise_from_killing

        def raising(self, k, u):
            _write_into(k)
            return raise_from_killing(self, k, u)

        monkeypatch.setattr(TopMetric, "raise_from_killing", raising)
    with pytest.raises(ValueError, match="read-only"):
        linearization_check(fields, EMConfig.zero(), metric, q, r_scalar=6.0)


def test_wave_operator_acts_on_plane_wave():
    # unit gauge, linear spacetime phase, no fields:
    # W psi / psi = u.g^-1.u + xi^2 R exactly (the flux divergence vanishes)
    metric = TopMetric(1.0)
    coeffs = np.zeros(10)
    coeffs[0] = -1.2
    coeffs[1] = 0.4
    fields = WaveInputs(s_field=LinearField(coeffs),
                        log_chi=LinearField(np.zeros(10)))
    q = np.zeros(10)
    q[0] = 0.3
    em = EMConfig.zero()
    psi = wave_ansatz(fields)
    xi2 = conformal_coupling(10) ** 2
    w = wave_operator(psi, (em,), metric, q, psi(q), np.array([xi2]),
                      metric.riemann_scalar(), 1e-3)[0, 0]
    u = momentum_covector(fields, em, q, h=1e-3)
    ginv = metric.inverse(q)
    expected = u @ ginv @ u + xi2 * 6.0
    assert abs(w / psi(q) - expected) < 1e-7


def test_divergence_residual_plane_wave_zero():
    metric = TopMetric(1.0)
    coeffs = np.zeros(10)
    coeffs[0] = -1.0
    coeffs[2] = 0.3
    fields = WaveInputs(s_field=LinearField(coeffs),
                        log_chi=LinearField(np.zeros(10)))
    q = np.zeros(10)
    val = divergence_residual(fields, EMConfig.zero(), metric, q, h=1e-3)
    assert abs(val) < 1e-9


def test_hj_residual_on_shell_value():
    # linear phase with u.g^-1.u = -1: residual is -1 + xi^2 R
    metric = TopMetric(1.0)
    coeffs = np.zeros(10)
    coeffs[0] = 1.0
    fields = WaveInputs(s_field=LinearField(coeffs),
                        log_chi=LinearField(np.zeros(10)))
    q = np.zeros(10)
    val = hj_residual(fields, (EMConfig.zero(),), metric, q,
                      metric.riemann_scalar(), np.array([2.0 / 9.0]),
                      1e-3)[0, 0]
    expected = -1.0 + (2.0 / 9.0) * 6.0
    assert abs(val - expected) < 1e-9
