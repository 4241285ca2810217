"""Tests of the benchmark's span tracing.

Run with ``python3 -m pytest perfbench``. No test pins a count of the
current code (such as frames per curvature point): optimisations are
expected to change those, and the tracer must keep measuring them.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from aqm_lab import config_space, fd, geometry, hj, lorentz_reps  # noqa: E402
from aqm_lab.config_space import TopMetric, sample_point  # noqa: E402
from aqm_lab.hj import EMConfig, draw_wave_inputs  # noqa: E402


def _profile_calls(call) -> dict[tuple, int]:
    prof = cProfile.Profile()
    prof.enable()
    call()
    prof.disable()
    return {key: stats[1] for key, stats in pstats.Stats(prof).stats.items()}


def _traced_calls(call) -> tuple[dict[str, int], dict[str, object]]:
    tracer = tracing.Tracer()
    with tracer.installed():
        call()
    return {name: calls for name, (calls, _, _) in tracer.take().items()}, \
        tracer.originals


def _assert_counts_match_profile(call) -> None:
    """Traced calls, summed per code object, equal cProfile's ncalls.

    ``call`` must reach the package through module attributes, looked up
    at call time, so that the entry point itself is traced.
    """
    profiled = _profile_calls(call)
    counts, originals = _traced_calls(call)
    per_code: dict[tuple, int] = {}
    for name, fn in originals.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        per_code[key] = per_code.get(key, 0) + counts[name]
    assert any(per_code.values())
    for key, calls in per_code.items():
        assert calls == profiled.get(key, 0), key


def test_riemann_scalar_counts_match_cprofile():
    q = sample_point(np.random.default_rng(3))
    _assert_counts_match_profile(
        lambda: geometry.riemann_scalar_at(TopMetric(1.0), q, h=1e-2, order=4))


def test_linearization_check_counts_match_cprofile():
    rng = np.random.default_rng(5)
    fields = draw_wave_inputs(rng)
    q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
    em = EMConfig(e_field=(0.2, 0.1, -0.3), h_field=(0.3, -0.2, 0.4))
    metric = TopMetric(1.0)
    _assert_counts_match_profile(
        lambda: hj.linearization_check(fields, em, metric, q, r_scalar=6.0))


def test_wrappers_cover_every_binding_and_are_restored():
    bindings = {
        "central_diff": (fd, geometry, hj, lorentz_reps),
        "frame_coefficients": (config_space, lorentz_reps),
        "killing_vectors": (config_space, hj),
    }
    before = {(m.__name__, attr): getattr(m, attr)
              for attr, mods in bindings.items() for m in mods}
    methods = {attr: TopMetric.__dict__.get(attr)
               for attr in ("matrix", "inverse", "sqrt_det")}
    tracer = tracing.Tracer()
    with tracer.installed():
        for (module, attr), original in before.items():
            assert getattr(sys.modules[module], attr) is not original
        assert config_space.expm is not lorentz_reps.expm
        with pytest.raises(RuntimeError):
            tracing.assert_untraced()
    tracing.assert_untraced()
    for (module, attr), original in before.items():
        assert getattr(sys.modules[module], attr) is original
    assert config_space.expm is lorentz_reps.expm
    assert {attr: TopMetric.__dict__.get(attr) for attr in methods} == methods


SMALL_SHAPES = {
    "curvature": ("verify-curvature", "--n-draws", "1"),
    "linearization": ("verify-linearization", "--n-draws", "1"),
    "transport": ("trace", "--format", "json", "--n-draws", "2", "--steps", "5"),
    "representations": ("verify-reps", "--n-draws", "1"),
}


def _traced_op_counts(workload: str, seed_base: int, tmp_path: Path) -> list:
    bench = run.Bench(workload, seed_base)
    bench.shape = SMALL_SHAPES[workload]
    bench.out = tmp_path / "report.json"
    tracer = tracing.Tracer()
    with tracer.installed():
        ops = [bench.run_op(k, tracer) for k in (1, 2)]
    assert bench.failed == 0
    return [{name: calls for name, (calls, _, _) in op.layers.items()}
            for op in ops]


@pytest.mark.parametrize("workload", sorted(SMALL_SHAPES))
def test_two_traced_runs_give_identical_counts(workload, tmp_path):
    first = _traced_op_counts(workload, 7, tmp_path)
    assert first == _traced_op_counts(workload, 7, tmp_path)
    assert first[0]["cli.main"] == 1


def test_tail_stat_leaves_ten_ops_beyond():
    times = [float(t) for t in range(1, 41)]
    value, pct = run.tail_stat(times)
    assert sum(t > value for t in times) == run.TAIL_BEYOND
    assert pct == 75.0
    assert run.tail_stat(times[:5]) == (5.0, 100.0)


def _checked(tmp_path: Path, code: int, checks: list[dict]) -> tuple[list, set]:
    bench = run.Bench("linearization", 0)
    bench.out = tmp_path / "report.json"
    passed = all(c["pass"] for c in checks)
    bench.out.write_text(json.dumps({"payload": {
        "command": "verify-linearization", "passed": passed, "checks": checks,
        "config": {"seed": 3, "n_draws": 1}}}))
    _, problems = bench._check(code, 3)
    return problems, bench.control_missed


def _check_record(name: str, value: float, passed: bool) -> dict:
    return {"name": name, "value": value, "expected": 0.0, "tolerance": 1e-6,
            "pass": passed}


def test_control_floor_miss_is_listed_and_any_other_failure_fails(tmp_path):
    identity = _check_record("linearization_max_defect_free", 1e-9, True)
    control = dict(_check_record("linearization_control_min_defect", 4e-3, False),
                   expected=1e-2, tolerance=0.0)
    assert _checked(tmp_path, 1, [identity, control]) == ([], {3})
    assert _checked(tmp_path, 0, [identity, control])[0]
    broken = dict(identity, value=1e-3, **{"pass": False})
    assert _checked(tmp_path, 1, [broken, control])[0]
    assert _checked(tmp_path, 1, [broken])[0]
    assert _checked(tmp_path, 0, [identity]) == ([], set())
