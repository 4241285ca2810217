"""Check records, deterministic report serialization, CSV writers.

A report separates a byte-stable ``payload`` (command, configuration echo,
check records, optional data records) from volatile envelope fields
(currently only the wall-clock time). Two runs with the same seed must
produce byte-identical payloads; comparing
``json.dumps(report["payload"], sort_keys=True)`` between runs is the
supported determinism check. Non-finite numbers never reach JSON: a check
on one fails and carries ``"value": null, "nonfinite": true``, and one in
the records becomes ``null``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

SCHEMA = "aqm-lab/report/v1"


@dataclass(frozen=True)
class CheckRecord:
    """One named check: measured value against an expectation.

    For ordinary checks ``passed`` means |value - expected| <= tolerance.
    Control checks that must stay far from zero use ``check_at_least``:
    there ``passed`` means value >= expected and the tolerance is zero by
    convention. A non-finite value fails either kind.
    """

    name: str
    value: float
    expected: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "value": float(self.value),
            "expected": float(self.expected),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }
        if not math.isfinite(self.value):
            out.update(value=None, nonfinite=True)
        return out


def check_close(name: str, value: float, expected: float, tolerance: float
                ) -> CheckRecord:
    value = float(value)
    return CheckRecord(name=name, value=value, expected=float(expected),
                       tolerance=float(tolerance),
                       passed=math.isfinite(value)
                       and bool(abs(value - expected) <= tolerance))


def check_at_least(name: str, value: float, threshold: float) -> CheckRecord:
    """Control check that passes only when the value stays above a floor."""
    value = float(value)
    return CheckRecord(name=name, value=value, expected=float(threshold),
                       tolerance=0.0,
                       passed=math.isfinite(value) and bool(value >= threshold))


def build_report(command: str, config: dict, checks: list[CheckRecord],
                 records: list[dict] | None = None, wall_time_s: float = 0.0
                 ) -> dict:
    """Assemble the full report object around a byte-stable payload."""
    payload = {
        "command": command,
        "config": _plain(config),
        "checks": [c.to_json() for c in sorted(checks, key=lambda c: c.name)],
        "passed": bool(all(c.passed for c in checks)),
    }
    if records is not None:
        payload["records"] = _plain(records)
    return {
        "schema": SCHEMA,
        "payload": payload,
        "wall_time_s": float(wall_time_s),
    }


def _plain(obj):
    """Recursively convert numpy scalars and arrays to built-in types.

    Non-finite floats become ``None``, so the payload stays valid JSON.
    """
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def dump_report(report: dict, out=None) -> None:
    """Write a report as JSON to a path or a file object (default stdout)."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    _write_text(text + "\n", out)


# ---------------------------------------------------------------------------
# CSV layouts
# ---------------------------------------------------------------------------

TRAJECTORY_COLUMNS = ["s", "x0", "x1", "x2", "x3",
                      "th1", "th2", "th3", "th4", "th5", "th6",
                      "timelike_flag"]

SPECTRUM_COLUMNS = ["u", "v", "casimir", "m2"]


def trajectory_rows(bundle, ds: float) -> list[list]:
    """Flatten a ``dynamics.Bundle`` integrated at step ``ds`` into
    trajectory CSV rows.

    Trajectories are concatenated; each restarts the parameter column at
    zero, which delimits them without extra columns.
    """
    rows = []
    for i, n in enumerate(bundle.n_samples):
        flag = int(bundle.timelike[i])
        rows.extend([ds * k, *map(float, bundle.points[k, i]), flag]
                    for k in range(n))
    return rows


def write_csv(columns: list[str], rows: list[list], out=None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    _write_text(buf.getvalue(), out)


def _write_text(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    elif hasattr(out, "write"):
        out.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
