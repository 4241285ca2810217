import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqm_lab.config_space import TopMetric
from aqm_lab.dynamics import integrate_trajectory
from aqm_lab.fields import LinearField
from aqm_lab.hj import EMConfig, WaveInputs
from aqm_lab.report import (
    SCHEMA,
    TRAJECTORY_COLUMNS,
    build_report,
    check_at_least,
    check_close,
    dump_report,
    trajectory_rows,
    write_csv,
)


def payload_bytes(report: dict) -> bytes:
    """Canonical bytes of the payload, the object under the determinism contract."""
    return json.dumps(report["payload"], sort_keys=True, allow_nan=False).encode()


def test_check_close_semantics():
    assert check_close("x", 1.0, 1.0, 0.0).passed
    assert check_close("x", 1.0, 1.05, 0.1).passed
    assert not check_close("x", 1.0, 1.2, 0.1).passed


@settings(max_examples=40, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0, 5))
def test_check_close_matches_abs_difference(value, expected, tol):
    rec = check_close("x", value, expected, tol)
    assert rec.passed == (abs(value - expected) <= tol)


def test_check_at_least():
    assert check_at_least("floor", 0.5, 0.1).passed
    assert not check_at_least("floor", 0.05, 0.1).passed
    assert check_at_least("floor", 0.1, 0.1).tolerance == 0.0


def test_build_report_sorts_and_aggregates():
    checks = [check_close("zeta", 1.0, 1.0, 0.1),
              check_close("alpha", 0.0, 1.0, 0.1)]
    report = build_report("cmd", {"seed": 1}, checks, wall_time_s=0.5)
    names = [c["name"] for c in report["payload"]["checks"]]
    assert names == ["alpha", "zeta"]
    assert report["payload"]["passed"] is False
    assert report["schema"] == SCHEMA
    assert report["wall_time_s"] == 0.5
    assert "wall_time_s" not in report["payload"]


def test_payload_bytes_excludes_wall_time():
    checks = [check_close("a", 1.0, 1.0, 0.1)]
    r1 = build_report("cmd", {"seed": 1}, checks, wall_time_s=0.1)
    r2 = build_report("cmd", {"seed": 1}, checks, wall_time_s=99.0)
    assert payload_bytes(r1) == payload_bytes(r2)


def test_numpy_values_serialize_plainly(tmp_path):
    checks = [check_close("a", np.float64(1.0), np.float64(1.0), np.float64(0.1))]
    report = build_report("cmd", {"n": np.int64(3)}, checks,
                          records=[{"vec": np.arange(3.0)}])
    out = tmp_path / "r.json"
    dump_report(report, out=str(out))
    loaded = json.loads(out.read_text())
    assert loaded["payload"]["records"][0]["vec"] == [0.0, 1.0, 2.0]


def test_dump_rejects_nan():
    # build_report turns non-finite numbers into null; a NaN that reaches
    # dump_report some other way is still refused, never written as NaN
    with pytest.raises(ValueError):
        dump_report({"payload": {"value": float("nan")}}, out=None)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_value_fails_every_check(bad):
    assert not check_close("x", bad, 0.0, 1e300).passed
    assert not check_at_least("floor", bad, 1e-6).passed


def test_nonfinite_check_serializes_as_null(tmp_path):
    checks = [check_close("a", float("nan"), 0.0, 1.0),
              check_at_least("b", float("inf"), 1e-6),
              check_close("c", 0.5, 0.0, 1.0)]
    report = build_report("cmd", {}, checks,
                          records=[{"r": float("nan"), "v": [1.0, -np.inf]}])
    out = tmp_path / "r.json"
    dump_report(report, out=str(out))
    payload = json.loads(out.read_text())["payload"]
    a, b, c = payload["checks"]
    for rec in (a, b):
        assert rec["value"] is None and rec["nonfinite"] is True
        assert rec["pass"] is False
    assert c == {"name": "c", "value": 0.5, "expected": 0.0,
                 "tolerance": 1.0, "pass": True}
    assert payload["passed"] is False
    assert payload["records"] == [{"r": None, "v": [1.0, None]}]


def test_finite_payload_bytes_golden():
    checks = [check_close("a", 1.25e-9, 0.0, 1e-6),
              check_at_least("b", 0.5, 1e-2)]
    report = build_report("cmd", {"seed": 3, "H": (0.1, 0.2, 0.3)}, checks,
                          records=[{"x": np.float64(2.5), "n": np.int64(4)}])
    assert payload_bytes(report) == (
        b'{"checks": [{"expected": 0.0, "name": "a", "pass": true, '
        b'"tolerance": 1e-06, "value": 1.25e-09}, {"expected": 0.01, '
        b'"name": "b", "pass": true, "tolerance": 0.0, "value": 0.5}], '
        b'"command": "cmd", "config": {"H": [0.1, 0.2, 0.3], "seed": 3}, '
        b'"passed": true, "records": [{"n": 4, "x": 2.5}]}')


def test_trajectory_rows_layout():
    coeffs = np.zeros(10)
    coeffs[0] = -1.0
    fields = WaveInputs(s_field=LinearField(coeffs),
                        log_chi=LinearField(np.zeros(10)))
    starts = np.vstack([np.zeros(10), 0.01 * np.random.default_rng(0)
                        .uniform(-1.0, 1.0, (1, 10))])
    bundle = integrate_trajectory(fields, EMConfig.zero(), TopMetric(1.0),
                                  starts, ds=0.1, n_steps=3)
    rows = trajectory_rows(bundle, 0.1)
    assert len(rows) == 8  # two trajectories, four samples each
    assert len(rows[0]) == len(TRAJECTORY_COLUMNS)
    assert rows[0][0] == 0.0
    assert rows[4][0] == 0.0  # parameter resets mark the next trajectory
    assert [r[0] for r in rows[:4]] == [0.0, 0.1, 0.2, 0.1 * 3]
    assert all(r[-1] in (0, 1) for r in rows)


def test_write_csv_golden(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(["a", "b"], [[1, 2.5], [3, -1.0]], out=str(out))
    assert out.read_text() == "a,b\n1,2.5\n3,-1.0\n"
