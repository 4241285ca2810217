"""Check rows, their pass rule and the check records they make,
deterministic report serialization, CSV layouts.

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
from typing import Callable

import numpy as np

SCHEMA = "aqm-lab/report/v1"


@dataclass(frozen=True)
class Check:
    """One named check of a verb, the one place its pass rule lives.
    ``reduce``, a numpy reduction (so a NaN propagates), takes the verb's
    per-draw values or one number to the checked value. A residual passes
    within ``tol`` of zero; a ``floor`` passes at ``tol`` or above; a
    non-finite value never passes. ``--tol`` replaces every nonzero ``tol``
    that is not a floor: floors and counts (``tol`` 0) are not residuals."""

    name: str
    tol: float
    reduce: Callable = np.max
    floor: bool = False

    def record(self, values, tol: float | None) -> dict:
        """The payload's check object: ``name``, ``value``, ``expected``,
        ``tolerance`` and ``pass``, plus ``nonfinite`` when the value is
        not finite (``_plain`` writes that value as null)."""
        value = float(self.reduce(values))
        if self.floor:
            expected, tolerance = float(self.tol), 0.0
            passed = value >= expected
        else:
            expected = 0.0
            tolerance = float(self.tol if tol is None or self.tol == 0.0
                              else tol)
            passed = abs(value) <= tolerance
        finite = math.isfinite(value)
        out = {"name": self.name, "value": value, "expected": expected,
               "tolerance": tolerance, "pass": finite and passed}
        if not finite:
            out["nonfinite"] = True
        return out


def _by_name(checks: list[dict]) -> list[dict]:
    return sorted(checks, key=lambda c: c["name"])


def build_report(command: str, config: dict, checks: list[dict],
                 records: list[dict] | None = None, wall_time_s: float = 0.0
                 ) -> dict:
    """Assemble the full report object around a byte-stable payload."""
    payload = {
        "command": command,
        "config": _plain(config),
        "checks": _plain(_by_name(checks)),
        "passed": all(c["pass"] for c in checks),
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


def dump_report(report: dict, out: str | None = None) -> None:
    """Write a report as JSON to a path, or stdout."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    _write_text(text + "\n", out)


# ---------------------------------------------------------------------------
# CSV layouts
# ---------------------------------------------------------------------------

TRAJECTORY_COLUMNS = ["s", "x0", "x1", "x2", "x3",
                      "th1", "th2", "th3", "th4", "th5", "th6",
                      "timelike_flag"]

SPECTRUM_COLUMNS = ["u", "v", "casimir", "m2"]

CHECK_COLUMNS = ["name", "value", "expected", "tolerance", "pass"]


def check_table(checks: list[dict]) -> tuple[list[str], list[list]]:
    """The check records as a CSV table, sorted by name as in the JSON
    payload."""
    return CHECK_COLUMNS, [[c["name"], c["value"], c["expected"],
                            c["tolerance"], int(c["pass"])]
                           for c in _by_name(checks)]


def spectrum_table(records: list[dict]) -> tuple[list[str], list[list]]:
    """The spectrum records (``dirac.mass_spin_spectrum``) as a CSV table."""
    return SPECTRUM_COLUMNS, [[r[c] for c in SPECTRUM_COLUMNS]
                              for r in records]


def trajectory_table(bundle, ds: float) -> tuple[list[str], list[list]]:
    """A ``dynamics.Bundle`` integrated at step ``ds`` as a CSV table of
    trajectory samples.

    Trajectories are concatenated; each restarts the parameter column at
    zero, which delimits them without extra columns.
    """
    rows = []
    for i, n in enumerate(bundle.n_samples):
        flag = int(bundle.timelike[i])
        rows.extend([ds * k, *map(float, bundle.points[k, i]), flag]
                    for k in range(n))
    return TRAJECTORY_COLUMNS, rows


def write_csv(columns: list[str], rows: list[list],
              out: str | None = None) -> None:
    """Write a CSV table, a header row and its rows, to a path, or stdout."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    _write_text(buf.getvalue(), out)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
