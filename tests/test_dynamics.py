import numpy as np
import pytest

from aqm_lab import cli, config_space, dynamics, hj
from aqm_lab.config_space import RAPIDITY_MAX, TopMetric, sample_point
from aqm_lab.dynamics import (
    NULL_TOL,
    Bundle,
    integrate_trajectory,
    min_pairwise_distance,
    transport_check,
    velocity_field,
)
from aqm_lab.fields import LinearField
from aqm_lab.hj import EMConfig, WaveInputs, draw_wave_inputs


def _plane_wave(p_spatial, mass=1.0):
    coeffs = np.zeros(10)
    coeffs[0] = -np.sqrt(np.dot(p_spatial, p_spatial) + mass ** 2)
    coeffs[1:4] = p_spatial
    return WaveInputs(s_field=LinearField(coeffs),
                      log_chi=LinearField(np.zeros(10)))


def _null_wave():
    coeffs = np.zeros(10)
    coeffs[0] = -1.0
    coeffs[1] = 1.0
    return WaveInputs(s_field=LinearField(coeffs),
                      log_chi=LinearField(np.zeros(10)))


METRIC = TopMetric(1.0)
EM0 = EMConfig.zero()


def _ball(q0, rng, n_traj, spread=0.05):
    """Starts seeded around q0 as ``trace`` seeds them: q0 itself first."""
    return np.vstack([q0, q0 + spread * rng.uniform(-1.0, 1.0,
                                                     (n_traj - 1, 10))])


def _bundle(points, n_samples, truncated=None):
    """A Bundle of given points (n_samples, n_traj, 10) and timelike starts."""
    n_traj = points.shape[1]
    return Bundle(points=points, n_samples=np.asarray(n_samples),
                  truncated=np.array(truncated or [None] * n_traj,
                                     dtype=object),
                  start_velocity=np.zeros((n_traj, 10)),
                  start_norm2=-np.ones(n_traj))


def test_velocity_unit_normalized():
    fields = _plane_wave(np.array([0.3, -0.2, 0.4]))
    q = np.zeros(10)
    v, norm2 = velocity_field(fields, EM0, METRIC, q, h=1e-3)
    assert norm2 < 0  # timelike
    g = METRIC.matrix(q)
    assert abs(abs(v @ g @ v) - 1.0) < 1e-10


def test_velocity_null_direction_is_left_unnormalized():
    fields = _null_wave()
    q = np.zeros(10)
    v, norm2 = velocity_field(fields, EM0, METRIC, q, h=1e-3)
    assert abs(norm2) < NULL_TOL
    up, _ = hj.raised_momentum(fields, EM0, METRIC, q, 1e-3)
    np.testing.assert_array_equal(v, up)


@pytest.mark.parametrize("seed", range(20))
def test_velocity_field_row_zero_has_the_bits_of_one_point(seed):
    # trace reads its start point's norm check from row 0 of the start
    # evaluation: a point has the same bits alone and in a batch, for the
    # plane-wave family trace draws and for drawn fields under an EM field
    plane, starts = cli._plane_wave_bundle_inputs(
        np.random.default_rng(seed), 8, 0.05)
    rng = np.random.default_rng(1000 + seed)
    drawn = draw_wave_inputs(rng)
    em_on = EMConfig(e_field=rng.uniform(-0.5, 0.5, 3),
                     h_field=rng.uniform(-0.5, 0.5, 3), kappa=1.5)
    points = np.array([sample_point(rng, rot_scale=1.5, boost_bound=1.5)
                       for _ in range(8)])
    for fields, em, pts in ((plane, EM0, starts), (drawn, em_on, points)):
        v, norm2 = velocity_field(fields, em, METRIC, pts[0], h=1e-3)
        for n in (2, 8):
            vb, norm2b = velocity_field(fields, em, METRIC, pts[:n], h=1e-3)
            assert np.array_equal(vb[0], v) and norm2b[0] == norm2


def test_plane_wave_trajectory_is_straight():
    fields = _plane_wave(np.array([0.5, 0.1, -0.3]))
    q0 = np.zeros(10)
    q0[4:7] = [0.2, -0.1, 0.3]
    v0, _ = velocity_field(fields, EM0, METRIC, q0, h=1e-3)
    traj = integrate_trajectory(fields, EM0, METRIC, q0[None], ds=0.01,
                                n_steps=1000, h=1e-3)
    assert traj.truncated.tolist() == [None]
    assert traj.n_samples.tolist() == [1001]
    expected_end = q0 + 10.0 * v0
    assert np.max(np.abs(traj.points[-1, 0] - expected_end)) < 1e-8
    assert traj.timelike.tolist() == [True]


def test_trajectory_reversibility():
    fields = _plane_wave(np.array([0.2, 0.6, -0.1]))
    q0 = np.zeros(10)
    fwd = integrate_trajectory(fields, EM0, METRIC, q0[None], ds=0.02,
                               n_steps=200, h=1e-3)
    end = fwd.points[-1]
    back = integrate_trajectory(fields, EM0, METRIC, end, ds=-0.02,
                                n_steps=200, h=1e-3)
    assert np.max(np.abs(back.points[-1, 0] - q0)) < 1e-7


def test_degenerate_start_truncates_immediately():
    fields = _null_wave()
    traj = integrate_trajectory(fields, EM0, METRIC, np.zeros((1, 10)),
                                ds=0.01, n_steps=50, h=1e-3)
    assert traj.truncated.tolist() == ["degenerate"]
    assert traj.n_samples.tolist() == [1]
    assert np.all(np.isnan(traj.points[1:]))


def test_rapidity_wall_truncates():
    # a phase with a strong boost-direction gradient drives theta^4 outward
    coeffs = np.zeros(10)
    coeffs[0] = -1.5
    coeffs[7] = 2.0
    fields = WaveInputs(s_field=LinearField(coeffs),
                        log_chi=LinearField(np.zeros(10)))
    q0 = np.zeros(10)
    q0[7] = RAPIDITY_MAX - 0.05
    traj = integrate_trajectory(fields, EM0, METRIC, q0[None], ds=0.05,
                                n_steps=400, h=1e-3)
    n = traj.n_samples[0]
    assert traj.truncated.tolist() == ["rapidity"]
    assert n < 401
    assert np.max(np.abs(traj.points[n - 1, 0, 7:])) <= RAPIDITY_MAX


def test_initial_point_outside_chart_rejected():
    fields = _plane_wave(np.array([0.1, 0.0, 0.0]))
    q0 = np.zeros(10)
    q0[8] = RAPIDITY_MAX + 0.5
    with pytest.raises(ValueError):
        integrate_trajectory(fields, EM0, METRIC, q0[None], ds=0.01,
                             n_steps=10, h=1e-3)
    # a single point is not a stack of starts
    with pytest.raises(ValueError):
        integrate_trajectory(fields, EM0, METRIC, np.zeros(10), ds=0.01,
                             n_steps=10, h=1e-3)
    # nor is an empty stack, and step 0's first stage is the start
    # evaluation, so there is at least one step
    with pytest.raises(ValueError):
        integrate_trajectory(fields, EM0, METRIC, np.zeros((0, 10)), ds=0.01,
                             n_steps=10, h=1e-3)
    with pytest.raises(ValueError):
        integrate_trajectory(fields, EM0, METRIC, np.zeros((2, 10)), ds=0.01,
                             n_steps=0, h=1e-3)


def test_rk4_step_halving_convergence():
    # an angular phase gradient makes the flow genuinely curved: the group
    # block of the metric varies along the path, so the velocity rotates
    coeffs = np.zeros(10)
    coeffs[0] = -1.4
    coeffs[4] = 0.5
    fields = WaveInputs(s_field=LinearField(coeffs),
                        log_chi=LinearField(np.zeros(10)))
    q0 = np.zeros(10)
    q0[5] = 0.4

    def endpoint(ds, steps):
        bundle = integrate_trajectory(fields, EM0, METRIC, q0[None], ds=ds,
                                      n_steps=steps, h=1e-3)
        return bundle.points[-1, 0]

    ref = endpoint(0.025, 32)
    err_coarse = np.max(np.abs(endpoint(0.2, 4) - ref))
    err_fine = np.max(np.abs(endpoint(0.1, 8) - ref))
    assert err_coarse / err_fine > 12.0  # fourth-order: expect about 16


def test_min_pairwise_distance_positive_for_distinct_seeds():
    fields = _plane_wave(np.array([0.4, 0.0, 0.2]))
    rng = np.random.default_rng(29)
    bundle = integrate_trajectory(fields, EM0, METRIC,
                                  _ball(np.zeros(10), rng, 4, spread=0.1),
                                  ds=0.01, n_steps=30, h=1e-3)
    assert min_pairwise_distance(bundle) > 1e-4


def test_transport_report_plane_wave():
    fields = _plane_wave(np.array([-0.2, 0.5, 0.1]))
    rng = np.random.default_rng(30)
    bundle = integrate_trajectory(fields, EM0, METRIC,
                                  _ball(np.zeros(10), rng, 4),
                                  ds=0.02, n_steps=100, h=1e-3)
    rep = transport_check(fields, EM0, METRIC, bundle, n_sections=5, h=1e-3)
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
    bundle = integrate_trajectory(fields, EM0, METRIC,
                                  _ball(q0, np.random.default_rng(0), 2),
                                  ds=0.01, n_steps=5, h=1e-3)
    with np.errstate(all="ignore"):
        report = transport_check(fields, EM0, METRIC, bundle, n_sections=5,
                                 h=1e-300)
    assert np.isnan(report.max_divergence)
    assert report.min_distance > 0.0


def test_transport_check_caps_sections_at_the_shared_steps():
    # a bundle of 4 shared samples has at most 4 distinct sections, and a
    # section count far above that must not size an array by it
    fields = _plane_wave(np.array([-0.2, 0.5, 0.1]))
    bundle = integrate_trajectory(
        fields, EM0, METRIC, _ball(np.zeros(10), np.random.default_rng(30), 2),
        ds=0.02, n_steps=3, h=1e-3)
    n_common = int(np.min(bundle.n_samples))
    assert n_common == 4
    capped = transport_check(fields, EM0, METRIC, bundle, n_sections=n_common,
                             h=1e-3)
    for n_sections in (n_common + 1, 1000, 10**21):
        assert transport_check(fields, EM0, METRIC, bundle, n_sections,
                               h=1e-3) == capped


def test_bundle_stopped_at_its_start_has_nan_drift():
    # one trajectory stopped at its start leaves one shared section: no
    # range to drift over, so the drift is NaN rather than an exception
    fields = _plane_wave(np.array([0.3, -0.2, 0.4]))
    q0 = np.zeros(10)
    running = integrate_trajectory(fields, EM0, METRIC, (q0 + 0.05)[None],
                                   ds=0.02, n_steps=5, h=1e-3)
    points = np.full((6, 2, 10), np.nan)
    points[0, 0] = q0
    points[:, 1] = running.points[:, 0]
    bundle = _bundle(points, [1, 6], ["degenerate", None])
    report = transport_check(fields, EM0, METRIC, bundle, n_sections=5, h=1e-3)
    assert np.isnan(report.flux_drift)
    assert report.n_truncated == 1 and len(report.section_flux) == 1


# ---------------------------------------------------------------------------
# the batched integrator against the per-trajectory loop
# ---------------------------------------------------------------------------


def integrate_trajectory_reference(fields, em, metric, q0, ds, n_steps,
                                   h=1e-3):
    """One trajectory, one point per RK4 stage: the loop the batched
    integrator replaces, as (points, truncated, timelike). It calls
    ``dynamics.velocity_field`` on single points; a stage is degenerate
    when its |u.u| is below NULL_TOL or its u.u has the other sign than at
    the start."""
    class Degenerate(Exception):
        pass

    def within_chart(q):
        return bool(np.all(np.abs(q[7:]) <= RAPIDITY_MAX))

    def rhs(p):
        v, stage_norm2 = dynamics.velocity_field(fields, em, metric, p, h=h)
        if abs(stage_norm2) < NULL_TOL or stage_norm2 * norm2 < 0:
            raise Degenerate
        return v

    q = np.asarray(q0, dtype=float).copy()
    assert within_chart(q)
    _, norm2 = dynamics.velocity_field(fields, em, metric, q, h=h)
    if abs(norm2) < NULL_TOL:
        return q[None, :].copy(), "degenerate", False
    samples = [q.copy()]
    truncated = None
    for _ in range(n_steps):
        try:
            k1 = rhs(q)
            k2 = rhs(q + 0.5 * ds * k1)
            k3 = rhs(q + 0.5 * ds * k2)
            k4 = rhs(q + ds * k3)
        except Degenerate:
            truncated = "degenerate"
            break
        q_next = q + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not within_chart(q_next):
            truncated = "rapidity"
            break
        q = q_next
        samples.append(q.copy())
    return np.array(samples), truncated, norm2 < 0


def _assert_matches_reference(fields, em, starts, ds, n_steps):
    batched = integrate_trajectory(fields, em, METRIC, starts, ds=ds,
                                   n_steps=n_steps, h=1e-3)
    assert isinstance(batched, Bundle)
    assert batched.points.shape == (n_steps + 1, len(starts), 10)
    for i, q0 in enumerate(starts):
        ref_points, ref_truncated, ref_timelike = \
            integrate_trajectory_reference(fields, em, METRIC, q0, ds=ds,
                                           n_steps=n_steps)
        n = batched.n_samples[i]
        assert n == len(ref_points)
        assert batched.truncated[i] == ref_truncated
        assert batched.timelike[i] == ref_timelike
        np.testing.assert_allclose(batched.points[:n, i], ref_points,
                                   rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref_points)))
        assert np.all(np.isnan(batched.points[n:, i]))
    return batched


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_batched_bundle_matches_reference_with_em_field(seed):
    # a random phase on top of -2 x^0 keeps the flow timelike, |u.u| >= 2
    # along these paths: near a null crossing v = u#/sqrt|u.u| magnifies
    # roundoff without bound, so no tolerance would pin anything there
    rng = np.random.default_rng(seed)
    drawn = draw_wave_inputs(rng)
    fields = WaveInputs(
        s_field=lambda q: drawn.s_field(q) - 2.0 * np.asarray(q)[..., 0],
        log_chi=drawn.log_chi)
    em = EMConfig(e_field=rng.uniform(-0.5, 0.5, 3),
                  h_field=rng.uniform(-0.5, 0.5, 3), kappa=1.5)
    q0 = sample_point(rng, rot_scale=1.0, boost_bound=1.0)
    starts = q0 + 0.1 * rng.uniform(-1.0, 1.0, (4, 10))
    _assert_matches_reference(fields, em, starts, ds=0.02, n_steps=12)


def test_trajectories_stop_at_the_null_surface():
    # u.u changes sign along five of these paths when integrated through
    # the null surface; each must stop there as degenerate instead
    rng = np.random.default_rng(0)
    fields = draw_wave_inputs(rng)
    em = EMConfig(e_field=[0.2, 0.1, -0.3], h_field=[0.3, -0.2, 0.4])
    starts = np.array([sample_point(rng, rot_scale=1.5, boost_bound=1.5)
                       for _ in range(16)])
    bundle = _assert_matches_reference(fields, em, starts, ds=0.02,
                                       n_steps=100)
    degenerate = np.flatnonzero(bundle.truncated == "degenerate")
    assert degenerate.tolist() == [1, 8, 9, 11, 12]
    for i, n in enumerate(bundle.n_samples):
        _, norm2 = velocity_field(fields, em, METRIC, bundle.points[:n, i],
                                  h=1e-3)
        assert np.all(norm2 * norm2[0] > 0)


def test_batched_bundle_truncates_at_the_wall_per_trajectory():
    coeffs = np.zeros(10)
    coeffs[0] = -1.5
    coeffs[7] = 2.0
    fields = WaveInputs(s_field=LinearField(coeffs),
                        log_chi=LinearField(np.zeros(10)))
    starts = np.zeros((3, 10))
    starts[:, 7] = [-(RAPIDITY_MAX - 0.5), RAPIDITY_MAX - 0.05, 0.3]
    bundle = _assert_matches_reference(fields, EM0, starts, ds=0.05,
                                       n_steps=40)
    assert bundle.truncated[0] == "rapidity" and bundle.n_samples[0] < 41
    assert bundle.truncated[1:].tolist() == [None, None]
    assert bundle.n_samples[1:].tolist() == [41, 41]


def test_batched_null_bundle_is_degenerate_at_start(monkeypatch):
    starts = np.zeros((3, 10))
    starts[1:, 4:7] = [[0.2, -0.1, 0.3], [-0.4, 0.1, 0.0]]
    bundle = _assert_matches_reference(_null_wave(), EM0, starts, ds=0.01,
                                       n_steps=10)
    assert bundle.truncated.tolist() == ["degenerate"] * 3
    assert bundle.n_samples.tolist() == [1] * 3
    # the start evaluation stops every row, so it is the only call
    calls = []
    real = dynamics.velocity_field

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "velocity_field", counted)
    integrate_trajectory(_null_wave(), EM0, METRIC, starts, ds=0.01,
                         n_steps=10, h=1e-3)
    assert len(calls) == 1


def test_batched_bundle_degenerates_mid_run_per_trajectory(monkeypatch):
    # the momentum vanishes past x^0 = 0.08, so the trajectory that starts
    # ahead in time degenerates at some RK4 stage; the others run on
    raised = dynamics.raised_momentum

    def vanishing(fields, em, metric, point, h):
        late = np.asarray(point)[..., 0] > 0.08
        up, norm2 = raised(fields, em, metric, point, h)
        return np.where(late[..., None], 0.0, up), np.where(late, 0.0, norm2)

    monkeypatch.setattr(dynamics, "raised_momentum", vanishing)
    fields = _plane_wave(np.array([0.3, -0.2, 0.1]))
    starts = np.zeros((3, 10))
    starts[:, 0] = [0.05, -0.5, -0.6]
    bundle = _assert_matches_reference(fields, EM0, starts, ds=0.01,
                                       n_steps=20)
    assert bundle.truncated[0] == "degenerate" \
        and 1 < bundle.n_samples[0] < 21
    assert bundle.n_samples[1:].tolist() == [21, 21]


def test_a_stopped_neighbour_leaves_the_others_bitwise_unchanged(monkeypatch):
    # a stopped trajectory is held in the batch at its last sample, so the
    # rows that run on see the same batch size and the same bits whether
    # their neighbour stops mid-run (x^0 = 0.05) or runs on (x^0 = -0.7)
    raised = dynamics.raised_momentum

    def vanishing(fields, em, metric, point, h):
        late = np.asarray(point)[..., 0] > 0.08
        up, norm2 = raised(fields, em, metric, point, h)
        return np.where(late[..., None], 0.0, up), np.where(late, 0.0, norm2)

    monkeypatch.setattr(dynamics, "raised_momentum", vanishing)
    fields = _plane_wave(np.array([0.3, -0.2, 0.1]))
    bundles = []
    for first in (0.05, -0.7):
        starts = _ball(np.zeros(10), np.random.default_rng(12), 3)
        starts[:, 0] = [first, -0.5, -0.6]
        bundles.append(integrate_trajectory(fields, EM0, METRIC, starts,
                                            ds=0.01, n_steps=20, h=1e-3))
    stopped, running = bundles
    assert stopped.truncated[0] == "degenerate" \
        and 1 < stopped.n_samples[0] < 21
    assert running.truncated.tolist() == [None] * 3
    assert stopped.n_samples[1:].tolist() == [21, 21]
    assert np.array_equal(stopped.points[:, 1:], running.points[:, 1:])
    assert np.array_equal(stopped.start_norm2[1:], running.start_norm2[1:])


def test_bundle_with_a_degenerate_start_matches_reference(monkeypatch):
    # the trajectory that starts past x^0 = 0.08 is degenerate at its start
    # and is held there; every stage is one call on all three rows, the
    # start evaluation being step 0's first stage
    raised = dynamics.raised_momentum
    calls = []

    def vanishing(fields, em, metric, point, h):
        calls.append(np.shape(point))
        late = np.asarray(point)[..., 0] > 0.08
        up, norm2 = raised(fields, em, metric, point, h)
        return np.where(late[..., None], 0.0, up), np.where(late, 0.0, norm2)

    monkeypatch.setattr(dynamics, "raised_momentum", vanishing)
    fields = _plane_wave(np.array([0.3, -0.2, 0.1]))
    starts = np.zeros((3, 10))
    starts[:, 0] = [0.1, -0.5, -0.6]
    n_steps = 5
    bundle = integrate_trajectory(fields, EM0, METRIC, starts, ds=0.01,
                                  n_steps=n_steps, h=1e-3)
    assert calls == [(3, 10)] * (4 * n_steps)
    assert bundle.truncated[0] == "degenerate" and bundle.n_samples[0] == 1
    _assert_matches_reference(fields, EM0, starts, ds=0.01, n_steps=n_steps)


def test_velocity_field_evaluates_the_killing_fields_once(monkeypatch):
    # the potential and the inverse metric share one Killing-field
    # evaluation, which is closed-form and builds no frame
    counts = {"killing_vectors": 0, "frame_coefficients": 0}

    def count(name, modules):
        original = getattr(modules[0], name)

        def counted(theta):
            counts[name] += 1
            return original(theta)

        for module in modules:
            monkeypatch.setattr(module, name, counted)

    count("killing_vectors", (config_space, hj))
    count("frame_coefficients", (config_space,))
    rng = np.random.default_rng(6)
    fields = draw_wave_inputs(rng)
    em = EMConfig(e_field=(0.2, 0.1, -0.3), h_field=(0.3, -0.2, 0.4))
    q = np.stack([sample_point(rng, 1.5, 1.5) for _ in range(2)])
    velocity_field(fields, em, METRIC, q, h=1e-3)
    assert counts == {"killing_vectors": 1, "frame_coefficients": 0}


def test_bundle_calls_velocity_field_once_per_stage(monkeypatch):
    calls = []
    real = dynamics.velocity_field

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "velocity_field", counted)
    fields = _plane_wave(np.array([0.4, 0.0, 0.2]))
    n_steps = 6
    counts = []
    for n_traj in (2, 8):
        calls.clear()
        integrate_trajectory(fields, EM0, METRIC,
                             _ball(np.zeros(10), np.random.default_rng(5),
                                   n_traj),
                             ds=0.01, n_steps=n_steps, h=1e-3)
        counts.append(len(calls))
    # the start evaluation is the first stage of step 0
    assert counts == [4 * n_steps, 4 * n_steps]


def test_transport_check_evaluates_each_section_once(monkeypatch):
    # all sections go in one flux_density and one divergence_residual call;
    # each section's values have the bits of a call on that section alone
    real = {name: getattr(dynamics, name)
            for name in ("divergence_residual", "flux_density")}
    calls = {name: [] for name in real}
    for name in real:
        def counted(*args, _name=name, **kwargs):
            out = real[_name](*args, **kwargs)
            calls[_name].append(out)
            return out

        monkeypatch.setattr(dynamics, name, counted)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        fields = draw_wave_inputs(rng)
        em = EMConfig(e_field=rng.uniform(-0.5, 0.5, 3),
                      h_field=rng.uniform(-0.5, 0.5, 3), kappa=1.5)
        points = np.array([[sample_point(rng, rot_scale=1.0, boost_bound=1.0)
                            for _ in range(4)] for _ in range(5)])
        for out in calls.values():
            out.clear()
        rep = transport_check(fields, em, METRIC, _bundle(points, [5] * 4),
                              n_sections=5, h=1e-3)
        assert {name: len(out) for name, out in calls.items()} \
            == {"divergence_residual": 1, "flux_density": 1}
        (divergences,) = calls["divergence_residual"]
        assert divergences.shape == (5, 4, 1)
        for i, section in enumerate(points):
            flux = np.mean(real["flux_density"](fields, em, METRIC, section,
                                                h=1e-3))
            assert rep.section_flux[i] == float(flux)
            np.testing.assert_array_equal(
                divergences[i],
                real["divergence_residual"](fields, em, METRIC, section,
                                            h=1e-3))
        assert rep.max_divergence == np.max(np.abs(divergences))


def _pairwise_loop(trajectories):
    n_common = min(len(t) for t in trajectories)
    best = np.inf
    for i in range(len(trajectories)):
        for j in range(i + 1, len(trajectories)):
            d = np.linalg.norm(trajectories[i][:n_common]
                               - trajectories[j][:n_common], axis=1)
            best = np.min([best, d.min()])
    return float(best)


def test_min_pairwise_distance_matches_pairwise_loop():
    # ragged trajectories; each one's rows past its samples are NaN
    rng = np.random.default_rng(31)
    trajectories = [rng.normal(size=(n, 10)) for n in (7, 5, 9, 6, 8)]
    points = np.full((9, 5, 10), np.nan)
    for i, t in enumerate(trajectories):
        points[:len(t), i] = t
    bundle = _bundle(points, [len(t) for t in trajectories])
    assert min_pairwise_distance(bundle) == _pairwise_loop(trajectories)


def test_min_pairwise_distance_keeps_nan():
    rng = np.random.default_rng(32)
    points = rng.normal(size=(3, 4, 10))
    points[2, 1, 5] = np.nan
    bundle = _bundle(points.swapaxes(0, 1), [4, 4, 4])
    assert np.isnan(min_pairwise_distance(bundle))
