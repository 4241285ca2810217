import numpy as np
import pytest

from aqm_lab.config_space import RAPIDITY_MAX, TopMetric
from aqm_lab.dynamics import (
    DegenerateDirection,
    integrate_bundle,
    integrate_trajectory,
    min_pairwise_distance,
    transport_check,
    velocity_field,
)
from aqm_lab.fields import LinearField
from aqm_lab.geometry import WeylGauge
from aqm_lab.hj import EMConfig, WaveInputs


def _plane_wave(p_spatial, mass=1.0):
    coeffs = np.zeros(10)
    coeffs[0] = -np.sqrt(np.dot(p_spatial, p_spatial) + mass ** 2)
    coeffs[1:4] = p_spatial
    return WaveInputs(s_field=LinearField(coeffs), gauge=WeylGauge.unit())


def _null_wave():
    coeffs = np.zeros(10)
    coeffs[0] = -1.0
    coeffs[1] = 1.0
    return WaveInputs(s_field=LinearField(coeffs), gauge=WeylGauge.unit())


METRIC = TopMetric(1.0)
EM0 = EMConfig.zero()


def test_velocity_unit_normalized():
    fields = _plane_wave(np.array([0.3, -0.2, 0.4]))
    q = np.zeros(10)
    v, norm2 = velocity_field(fields, EM0, METRIC, q)
    assert norm2 < 0  # timelike
    g = METRIC.matrix(q)
    assert abs(abs(v @ g @ v) - 1.0) < 1e-10


def test_velocity_null_direction_raises():
    fields = _null_wave()
    with pytest.raises(DegenerateDirection):
        velocity_field(fields, EM0, METRIC, np.zeros(10))


def test_plane_wave_trajectory_is_straight():
    fields = _plane_wave(np.array([0.5, 0.1, -0.3]))
    q0 = np.zeros(10)
    q0[4:7] = [0.2, -0.1, 0.3]
    v0, _ = velocity_field(fields, EM0, METRIC, q0)
    traj = integrate_trajectory(fields, EM0, METRIC, q0, ds=0.01, n_steps=1000)
    assert traj.truncated is None
    assert traj.n_samples == 1001
    expected_end = q0 + 10.0 * v0
    assert np.max(np.abs(traj.points[-1] - expected_end)) < 1e-8
    assert traj.timelike


def test_trajectory_reversibility():
    fields = _plane_wave(np.array([0.2, 0.6, -0.1]))
    q0 = np.zeros(10)
    fwd = integrate_trajectory(fields, EM0, METRIC, q0, ds=0.02, n_steps=200)
    end = fwd.points[-1]
    back = integrate_trajectory(fields, EM0, METRIC, end, ds=-0.02, n_steps=200)
    assert np.max(np.abs(back.points[-1] - q0)) < 1e-7


def test_degenerate_start_truncates_immediately():
    fields = _null_wave()
    traj = integrate_trajectory(fields, EM0, METRIC, np.zeros(10),
                                ds=0.01, n_steps=50)
    assert traj.truncated == "degenerate"
    assert traj.n_samples == 1


def test_rapidity_wall_truncates():
    # a phase with a strong boost-direction gradient drives theta^4 outward
    coeffs = np.zeros(10)
    coeffs[0] = -1.5
    coeffs[7] = 2.0
    fields = WaveInputs(s_field=LinearField(coeffs), gauge=WeylGauge.unit())
    q0 = np.zeros(10)
    q0[7] = RAPIDITY_MAX - 0.05
    traj = integrate_trajectory(fields, EM0, METRIC, q0, ds=0.05, n_steps=400)
    assert traj.truncated == "rapidity"
    assert traj.n_samples < 401
    assert np.max(np.abs(traj.points[-1][7:])) <= RAPIDITY_MAX


def test_initial_point_outside_chart_rejected():
    fields = _plane_wave(np.array([0.1, 0.0, 0.0]))
    q0 = np.zeros(10)
    q0[8] = RAPIDITY_MAX + 0.5
    with pytest.raises(ValueError):
        integrate_trajectory(fields, EM0, METRIC, q0, ds=0.01, n_steps=10)


def test_rk4_step_halving_convergence():
    # an angular phase gradient makes the flow genuinely curved: the group
    # block of the metric varies along the path, so the velocity rotates
    coeffs = np.zeros(10)
    coeffs[0] = -1.4
    coeffs[4] = 0.5
    fields = WaveInputs(s_field=LinearField(coeffs), gauge=WeylGauge.unit())
    q0 = np.zeros(10)
    q0[5] = 0.4

    def endpoint(ds, steps):
        return integrate_trajectory(fields, EM0, METRIC, q0, ds=ds,
                                    n_steps=steps).points[-1]

    ref = endpoint(0.025, 32)
    err_coarse = np.max(np.abs(endpoint(0.2, 4) - ref))
    err_fine = np.max(np.abs(endpoint(0.1, 8) - ref))
    assert err_coarse / err_fine > 12.0  # fourth-order: expect about 16


def test_bundle_has_unperturbed_leader():
    fields = _plane_wave(np.array([0.4, 0.0, 0.2]))
    q0 = np.zeros(10)
    rng = np.random.default_rng(28)
    bundle = integrate_bundle(fields, EM0, METRIC, q0, rng, n_traj=5,
                              spread=0.05, ds=0.01, n_steps=20)
    assert len(bundle) == 5
    assert np.max(np.abs(bundle[0].points[0] - q0)) == 0.0
    for traj in bundle[1:]:
        assert np.max(np.abs(traj.points[0] - q0)) <= 0.05 + 1e-12


def test_min_pairwise_distance_positive_for_distinct_seeds():
    fields = _plane_wave(np.array([0.4, 0.0, 0.2]))
    rng = np.random.default_rng(29)
    bundle = integrate_bundle(fields, EM0, METRIC, np.zeros(10), rng,
                              n_traj=4, spread=0.1, ds=0.01, n_steps=30)
    assert min_pairwise_distance(bundle) > 1e-4


def test_transport_report_plane_wave():
    fields = _plane_wave(np.array([-0.2, 0.5, 0.1]))
    rng = np.random.default_rng(30)
    bundle = integrate_bundle(fields, EM0, METRIC, np.zeros(10), rng,
                              n_traj=4, spread=0.05, ds=0.02, n_steps=100)
    rep = transport_check(fields, EM0, METRIC, bundle, n_sections=5)
    assert rep.max_divergence < 1e-6
    assert rep.flux_drift < 1e-10
    assert rep.n_truncated == 0
    assert len(rep.section_flux) == 5
    assert rep.min_distance > 0.0


def test_transport_check_keeps_nan_divergence():
    # at h = 1e-300 every stencil quotient overflows and each section
    # divergence is NaN; the worst case must stay NaN, not max(0.0, nan) = 0.0
    fields = _plane_wave(np.array([0.3, -0.2, 0.4]))
    q0 = np.array([0.1, -0.2, 0.3, 0.25, 0.2, -0.1, 0.3, 0.1, 0.2, -0.3])
    bundle = integrate_bundle(fields, EM0, METRIC, q0, np.random.default_rng(0),
                              n_traj=2, n_steps=5)
    with np.errstate(all="ignore"):
        report = transport_check(fields, EM0, METRIC, bundle, h=1e-300)
    assert np.isnan(report.max_divergence)
    assert report.min_distance > 0.0
