import json
import math

import numpy as np
import pytest

from aqm_lab.config_space import TopMetric
from aqm_lab.dynamics import integrate_trajectory
from aqm_lab.fields import LinearField
from aqm_lab.hj import EMConfig, WaveInputs
from aqm_lab.report import (
    SCHEMA,
    TRAJECTORY_COLUMNS,
    Check,
    build_report,
    dump_report,
    trajectory_table,
    write_csv,
)


def payload_bytes(report: dict) -> bytes:
    """Canonical bytes of the payload, the object under the determinism contract."""
    return json.dumps(report["payload"], sort_keys=True, allow_nan=False).encode()


# the three kinds of check row: a residual, a floor and a count
ROWS = {"close": Check("close", 1e-6),
        "floor": Check("floor", 1e-2, np.min, floor=True),
        "count": Check("count", 0.0)}

# (row, per-draw values, --tol, expected, tolerance, pass)
FINITE_CASES = [
    ("close", [0.0], None, 0.0, 1e-6, True),
    ("close", [1e-6], None, 0.0, 1e-6, True),
    ("close", [-5e-7, 2e-7], None, 0.0, 1e-6, True),
    ("close", [1e-9, 2e-6], None, 0.0, 1e-6, False),
    ("close", [-2e-6], None, 0.0, 1e-6, False),
    ("close", [2e-6], 1e-5, 0.0, 1e-5, True),
    ("close", [5e-7], 1e-7, 0.0, 1e-7, False),
    ("floor", [0.5, 2.0], None, 1e-2, 0.0, True),
    ("floor", [1e-2], None, 1e-2, 0.0, True),
    ("floor", [0.5, 5e-3], None, 1e-2, 0.0, False),
    ("floor", [-1.0], None, 1e-2, 0.0, False),
    ("floor", [5e-3], 1e-3, 1e-2, 0.0, False),
    ("floor", [0.5], 1.0, 1e-2, 0.0, True),
    ("count", 0, None, 0.0, 0.0, True),
    ("count", 1, None, 0.0, 0.0, False),
    ("count", 1, 10.0, 0.0, 0.0, False),
]


def record(name, value, expected, tolerance, passed):
    """A check record as ``Check.record`` makes it for a finite value."""
    return {"name": name, "value": value, "expected": expected,
            "tolerance": tolerance, "pass": passed}


def assert_record(row, values, tol, expected, tolerance, passed):
    rec = ROWS[row].record(values, tol)
    assert (rec["name"], rec["expected"], rec["tolerance"], rec["pass"]) \
        == (row, expected, tolerance, passed)
    assert type(rec["value"]) is float and type(rec["pass"]) is bool
    # the record is the payload's check object: "nonfinite" only on a
    # non-finite value
    finite = math.isfinite(rec["value"])
    assert set(rec) == {"name", "value", "expected", "tolerance", "pass",
                        *(() if finite else ("nonfinite",))}
    assert finite or rec["nonfinite"] is True


@pytest.mark.parametrize(
    "row, values, tol, expected, tolerance, passed", FINITE_CASES,
    ids=["close-zero", "close-at-tolerance", "close-both-signs",
         "close-one-draw-over", "close-negative-over", "close-tol-widens",
         "close-tol-narrows", "floor-above", "floor-at",
         "floor-one-draw-below", "floor-negative", "floor-tol-ignored-below",
         "floor-tol-ignored-above", "count-zero", "count-one",
         "count-tol-ignored"])
def test_check_row_pass_rule(row, values, tol, expected, tolerance, passed):
    # a residual passes within its tolerance of 0, a floor at or above it;
    # --tol replaces only the nonzero tolerance of a residual
    assert_record(row, values, tol, expected, tolerance, passed)
    assert ROWS[row].record(values, tol)["value"] == ROWS[row].reduce(values)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_value_fails_every_check(bad):
    # a non-finite value never passes, whatever the kind of row or --tol; a
    # NaN draw propagates through the row's reduction
    for row, tol, expected, tolerance in [
            ("close", None, 0.0, 1e-6), ("close", 1e300, 0.0, 1e300),
            ("floor", None, 1e-2, 0.0), ("floor", 1e300, 1e-2, 0.0),
            ("count", None, 0.0, 0.0), ("count", 1e300, 0.0, 0.0)]:
        assert_record(row, [bad], tol, expected, tolerance, False)
        if bad != bad:
            assert_record(row, [0.5, bad, 0.0], tol, expected, tolerance,
                          False)


def test_build_report_sorts_and_aggregates():
    checks = [record("zeta", 0.0, 0.0, 0.1, True),
              record("alpha", 1.0, 0.0, 0.1, False)]
    report = build_report("cmd", {"seed": 1}, checks, wall_time_s=0.5)
    names = [c["name"] for c in report["payload"]["checks"]]
    assert names == ["alpha", "zeta"]
    assert report["payload"]["passed"] is False
    assert report["schema"] == SCHEMA
    assert report["wall_time_s"] == 0.5
    assert "wall_time_s" not in report["payload"]


def test_payload_bytes_excludes_wall_time():
    checks = [record("a", 0.0, 0.0, 0.1, True)]
    r1 = build_report("cmd", {"seed": 1}, checks, wall_time_s=0.1)
    r2 = build_report("cmd", {"seed": 1}, checks, wall_time_s=99.0)
    assert payload_bytes(r1) == payload_bytes(r2)


def test_numpy_values_serialize_plainly(tmp_path):
    checks = [record("a", np.float64(0.0), np.float64(0.0),
                     np.float64(0.1), np.bool_(True))]
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


def test_nonfinite_check_serializes_as_null(tmp_path):
    checks = [Check("a", 1.0).record([float("nan")], None),
              Check("b", 1e-6, np.min, floor=True).record([np.inf], None),
              Check("c", 1.0).record([0.5], None)]
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
    checks = [record("a", 1.25e-9, 0.0, 1e-6, True),
              record("b", 0.5, 1e-2, 0.0, True)]
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
                                  starts, ds=0.1, n_steps=3, h=1e-3)
    columns, rows = trajectory_table(bundle, 0.1)
    assert columns == TRAJECTORY_COLUMNS
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
