"""Acceptance gate: every headline identity at its contract tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
enforces its runtime budget. Tolerances here are frozen; loosening them is
not a fix, it is a regression.
"""

import json
import sys
import time

import numpy as np
import pytest

from aqm_lab.cli import main
from aqm_lab.config_space import RAPIDITY_MAX, TopMetric, sample_point
from aqm_lab.dirac import (
    MassScale,
    dispersion_root,
    mass_closure_defect,
    squared_dirac_matrix,
    top_spinor_matrix,
)
from aqm_lab.dynamics import integrate_trajectory, transport_check, \
    velocity_field
from aqm_lab.fields import LinearField, draw_field
from aqm_lab.geometry import riemann_scalar_at, weyl_scalar_at
from aqm_lab.hj import EMConfig, WaveInputs, draw_wave_inputs, \
    linearization_check
from aqm_lab.lorentz_reps import (
    Irrep,
    angular_laplacian_check,
    casimir_value,
    conjugation_defect,
    irrep_generators,
    reps_up_to_dim,
)


def _criterion(name: str, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_curvature():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        metric = TopMetric(a)
        expected = 6.0 / a ** 2
        for _ in range(50):
            q = sample_point(rng, boost_bound=RAPIDITY_MAX)
            r = riemann_scalar_at(metric, q, h=1e-2)
            worst = np.maximum(worst, abs(r - expected) / expected)
    wall = time.perf_counter() - start
    ok = worst < 1e-3 and wall < 120.0
    _criterion("curvature 6/a^2 (3 scales x 50 points)", ok,
               f"max rel err {worst:.3e} (tol 1e-3), {wall:.1f}s (budget 120s)")


def test_criterion_weyl_forms():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    metric = TopMetric(1.0)
    r = metric.riemann_scalar()
    worst = 0.0
    for _ in range(100):
        log_chi = draw_field(rng, 10)
        q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
        v1 = weyl_scalar_at(metric, log_chi, q, h=1e-3, form="phi",
                            r_scalar=r)
        v2 = weyl_scalar_at(metric, log_chi, q, h=1e-3, form="chi",
                            r_scalar=r)
        worst = np.maximum(worst, abs(v1 - v2)
                           / np.max([abs(v1), abs(v2), 1.0]))
    wall = time.perf_counter() - start
    ok = worst < 1e-6 and wall < 60.0
    _criterion("weyl scalar two evaluation forms (100 draws)", ok,
               f"max rel diff {worst:.3e} (tol 1e-6), {wall:.1f}s (budget 60s)")


def test_criterion_linearization():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    metric = TopMetric(1.0)
    r = metric.riemann_scalar()
    em_full = EMConfig(e_field=(0.2, 0.1, -0.3), h_field=(0.3, -0.2, 0.4))
    worst = 0.0
    control_min = np.inf
    for i in range(100):
        fields = draw_wave_inputs(rng)
        q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
        for em in (EMConfig.zero(), em_full):
            defect, _, _ = linearization_check(fields, em, metric, q,
                                               r_scalar=r)
            worst = np.maximum(worst, abs(defect[0, 0]))
        if i < 10:
            control, _, _ = linearization_check(fields, EMConfig.zero(),
                                                metric, q, xi2=0.25,
                                                r_scalar=r)
            control_min = np.minimum(control_min, abs(control[0, 0]))
    wall = time.perf_counter() - start
    ok = worst < 1e-6 and control_min > 1e-2 and wall < 300.0
    _criterion("exact linearization (100 draws, free and coupled)", ok,
               f"max |defect| {worst:.3e} (tol 1e-6), control min "
               f"{control_min:.3e} (floor 1e-2), {wall:.1f}s (budget 300s)")


def test_criterion_representations():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0

    comm_worst = 0.0
    conj_worst = 0.0
    thetas = [np.concatenate([rng.uniform(-1.2, 1.2, 3),
                              rng.uniform(-1.2, 1.2, 3)]) for _ in range(5)]
    for rep in reps_up_to_dim(9):
        j, k = irrep_generators(rep)
        for a in range(3):
            for b in range(3):
                tj = 1j * np.einsum("c,cij->ij", eps[a, b], j)
                tk = 1j * np.einsum("c,cij->ij", eps[a, b], k)
                comm_worst = np.max([
                    comm_worst,
                    np.max(np.abs(j[a] @ j[b] - j[b] @ j[a] - tj)),
                    np.max(np.abs(j[a] @ k[b] - k[b] @ j[a] - tk)),
                    np.max(np.abs(k[a] @ k[b] - k[b] @ k[a] + tj))])
        for theta in thetas:
            conj_worst = np.maximum(conj_worst,
                                    np.max(conjugation_defect([rep], theta)))

    casimir_worst = 0.0
    for rep in (Irrep(0, 0.5), Irrep(0.5, 0.5)):
        expected = -casimir_value(rep)
        for theta in thetas:
            (ratio,) = angular_laplacian_check([rep], theta, a=1.0)
            dev = float(np.max(np.abs(ratio - expected * np.eye(rep.dim))))
            casimir_worst = np.maximum(casimir_worst, dev / abs(expected))
    wall = time.perf_counter() - start
    ok = (comm_worst < 1e-12 and conj_worst < 1e-10
          and casimir_worst < 1e-3 and wall < 120.0)
    _criterion("representation identities (dims <= 9)", ok,
               f"commutators {comm_worst:.3e} (tol 1e-12), conjugation "
               f"{conj_worst:.3e} (tol 1e-10), laplacian casimir rel "
               f"{casimir_worst:.3e} (tol 1e-3), {wall:.1f}s (budget 120s)")


def test_criterion_squared_dirac():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    scale = MassScale(1.0)
    gap_worst = 0.0
    ct_worst = 0.0
    for _ in range(10):
        em = EMConfig(e_field=rng.uniform(-1, 1, 3),
                      h_field=rng.uniform(-1, 1, 3))
        p = rng.uniform(-1, 1, 4)
        x = rng.uniform(-1, 1, 4)
        m18 = top_spinor_matrix(p, em, scale, x=x)
        m19 = squared_dirac_matrix(p, em, scale.mass, x=x)
        gap = scale.a ** 2 * em.invariant_h2_e2()
        gap_worst = np.maximum(gap_worst, np.max(np.abs(
            m18 - m19 - gap * np.eye(4))))
        m18_ct = top_spinor_matrix(p, em, scale, x=x, counterterm=True)
        ct_worst = np.maximum(ct_worst, np.max(np.abs(m18_ct - m19)))

    p_spatial = rng.uniform(-1, 1, 3)
    root = dispersion_root(p_spatial, scale)
    exact = float(np.sqrt(p_spatial @ p_spatial + scale.mass ** 2))
    disp_rel = abs(root - exact) / exact
    wall = time.perf_counter() - start
    ok = (gap_worst < 1e-10 and ct_worst < 1e-12 and disp_rel < 1e-8
          and wall < 60.0)
    _criterion("squared spin-1/2 reduction (10 field configs)", ok,
               f"gap defect {gap_worst:.3e} (tol 1e-10), counterterm "
               f"{ct_worst:.3e} (tol 1e-12), dispersion rel {disp_rel:.3e} "
               f"(tol 1e-8), {wall:.1f}s (budget 60s)")


def test_criterion_mass_closure():
    defect = mass_closure_defect()
    ok = defect < 1e-14
    _criterion("mass closure 3/2 + 4/3 = 17/6", ok,
               f"defect {defect:.3e} (tol 1e-14)")


def test_criterion_transport():
    start = time.perf_counter()
    metric = TopMetric(1.0)
    em = EMConfig.zero()
    coeffs = np.zeros(10)
    coeffs[0] = -np.sqrt(1.0 + 0.35)
    coeffs[1:4] = [0.5, -0.1, 0.3]
    fields = WaveInputs(s_field=LinearField(coeffs),
                        log_chi=LinearField(np.zeros(10)))
    q0 = np.zeros(10)
    q0[4:7] = [0.2, -0.3, 0.1]

    v0, _ = velocity_field(fields, em, metric, q0, h=1e-3)
    g0 = metric.matrix(q0)
    norm_defect = abs(abs(float(v0 @ g0 @ v0)) - 1.0)

    traj = integrate_trajectory(fields, em, metric, q0[None], ds=0.01,
                                n_steps=1000, h=1e-3)
    straight = float(np.max(np.abs(traj.points[..., 0, :][-1]
                                   - (q0 + 10.0 * v0))))

    rng = np.random.default_rng(107)
    starts = np.vstack([q0, q0 + 0.05 * rng.uniform(-1.0, 1.0, (3, 10))])
    bundle = integrate_trajectory(fields, em, metric, starts, ds=0.02,
                                  n_steps=100, h=1e-3)
    rep = transport_check(fields, em, metric, bundle, n_sections=5, h=1e-3)

    curved = np.zeros(10)
    curved[0] = -1.4
    curved[4] = 0.5
    cfields = WaveInputs(s_field=LinearField(curved),
                         log_chi=LinearField(np.zeros(10)))
    c0 = np.zeros(10)
    c0[5] = 0.4

    def endpoint(ds, steps):
        bundle = integrate_trajectory(cfields, em, metric, c0[None], ds=ds,
                                      n_steps=steps, h=1e-3)
        return bundle.points[..., 0, :][-1]

    ref = endpoint(0.025, 32)
    ratio = (np.max(np.abs(endpoint(0.2, 4) - ref))
             / np.max(np.abs(endpoint(0.1, 8) - ref)))
    wall = time.perf_counter() - start
    ok = (straight < 1e-8 and norm_defect < 1e-10
          and rep.max_divergence < 1e-6 and ratio > 12.0 and wall < 120.0)
    _criterion("bundle transport on exact plane waves", ok,
               f"straightness {straight:.3e} over 1000 steps (tol 1e-8), "
               f"normalization defect {norm_defect:.3e} (tol 1e-10), max "
               f"divergence {rep.max_divergence:.3e} (tol 1e-6), step-halving "
               f"ratio {ratio:.1f} (floor 12), {wall:.1f}s (budget 120s)")


NAN = float("nan")
_top_spinor_matrix = top_spinor_matrix


def _nan_generators(rep):
    nan = np.full((3, rep.dim, rep.dim), NAN)
    return nan, nan


def _nan_defect(in_control):
    # the control is the call that passes xi2; the other defect passes
    def stub(*args, xi2=None, **kwargs):
        control = xi2 is not None
        defect = NAN if control == in_control else float(control)
        return np.full((1, 1), defect), None, None
    return stub


def _nan_top_spinor(with_counterterm):
    def stub(*args, counterterm=False, **kwargs):
        if counterterm == with_counterterm:
            return np.full((4, 4), NAN)
        return _top_spinor_matrix(*args, counterterm=counterterm, **kwargs)
    return stub


# one NaN per worst-case reduction; each criterion must fail on it, as the
# builtins max(0.0, nan) = 0.0 and min(inf, nan) = inf would let it pass
@pytest.mark.parametrize("criterion, name, stub", [
    ("curvature", "riemann_scalar_at", lambda *a, **k: NAN),
    ("weyl_forms", "weyl_scalar_at", lambda *a, **k: NAN),
    ("linearization", "linearization_check", _nan_defect(False)),
    ("linearization", "linearization_check", _nan_defect(True)),
    ("representations", "irrep_generators", _nan_generators),
    ("representations", "conjugation_defect", lambda *a, **k: NAN),
    ("representations", "angular_laplacian_check",
     lambda reps, *a, **k: tuple(np.full((rep.dim, rep.dim), NAN)
                                 for rep in reps)),
    ("squared_dirac", "top_spinor_matrix", _nan_top_spinor(False)),
    ("squared_dirac", "top_spinor_matrix", _nan_top_spinor(True)),
], ids=["curvature", "weyl_forms", "free_defect", "control_defect",
        "commutators", "conjugation", "casimir", "gap", "counterterm"])
def test_criteria_fail_on_nan(monkeypatch, criterion, name, stub):
    module = sys.modules[__name__]
    monkeypatch.setattr(module, name, stub)
    with pytest.raises(AssertionError, match="nan"):
        getattr(module, f"test_criterion_{criterion}")()


def test_criterion_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["verify-dirac", "--n-draws", "3", "--seed", "42",
                     "--out", str(out)])
        assert code == 0
        outs.append(json.dumps(json.loads(out.read_text())["payload"],
                               sort_keys=True).encode())
    lin = []
    for name in ("c.json", "d.json"):
        out = tmp_path / name
        code = main(["verify-linearization", "--n-draws", "2", "--seed", "9",
                     "--out", str(out)])
        assert code == 0
        lin.append(json.dumps(json.loads(out.read_text())["payload"],
                              sort_keys=True).encode())
    ok = outs[0] == outs[1] and lin[0] == lin[1]
    _criterion("seeded runs are byte-identical", ok,
               f"dirac payload bytes equal: {outs[0] == outs[1]}, "
               f"linearization payload bytes equal: {lin[0] == lin[1]}")
