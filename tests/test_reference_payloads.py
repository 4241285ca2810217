"""Byte identity of every verb's payload against the committed reference.

``tests/reference_payloads.json`` holds, for every verb (``trace`` in both
formats) at seeds 0-3 and two draws, the exit code, the payload sha256 and
every check record, with the fingerprint of the platform that produced them.
On the same platform the digests must be equal, and a digest that moves
lists each moved check's old and new value. Elsewhere the bits may move
with the BLAS kernels, so each check value must stay within
``VALUE_FRACTION`` of its tolerance (of the floor, for a floor check), with
the same pass bit. The test prints which comparison it made.

A change that moves payload bits on purpose regenerates the reference with
``python tools/reference_payloads.py`` and commits the diff.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference_payloads.json"
VALUE_FRACTION = 0.1


def _scale(check: dict) -> float:
    """The width a value may move by: its tolerance, or the floor of a
    floor check (tolerance zero); zero for an exact count."""
    return check["tolerance"] or abs(check["expected"])


def _value_moves(ref: dict, now: dict) -> list[str]:
    """Where ``now`` leaves ``ref`` by more than the allowed fraction."""
    moves = []
    if ref["exit"] != now["exit"]:
        moves.append(f"exit {ref['exit']} -> {now['exit']}")
    if [c["name"] for c in ref["checks"]] != [c["name"] for c in now["checks"]]:
        return moves + ["check names differ"]
    for a, b in zip(ref["checks"], now["checks"]):
        if a["pass"] != b["pass"]:
            moves.append(f"{a['name']} pass {a['pass']} -> {b['pass']}")
        if a["value"] is None or b["value"] is None:
            if a["value"] is not b["value"]:
                moves.append(f"{a['name']} {a['value']} -> {b['value']}")
        elif abs(a["value"] - b["value"]) > VALUE_FRACTION * _scale(a):
            moves.append(f"{a['name']} {a['value']!r} -> {b['value']!r}")
    return moves


def _moved_values(ref: dict, now: dict) -> list[str]:
    """Each check of ``now`` whose value is not the reference's, old -> new
    in repr, so a digest that moves shows by how much."""
    old = {c["name"]: c["value"] for c in ref["checks"]}
    return [f"  {c['name']} {old.get(c['name'])!r} -> {c['value']!r}"
            for c in now["checks"] if old.get(c["name"]) != c["value"]]


def test_payloads_match_the_reference(tmp_path):
    out = tmp_path / "now.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "reference_payloads.py"),
                    "--out", str(out)], check=True)
    ref = json.loads(REFERENCE.read_text())
    now = json.loads(out.read_text())
    key = [(r["label"], r["seed"], r["n_draws"]) for r in ref["runs"]]
    assert [(r["label"], r["seed"], r["n_draws"]) for r in now["runs"]] == key

    if ref["fingerprint"] == now["fingerprint"]:
        print("same platform: comparing exit codes and payload digests")
        moved, detail = [], []
        for k, a, b in zip(key, ref["runs"], now["runs"]):
            if (a["exit"], a["sha256"]) != (b["exit"], b["sha256"]):
                moved.append(f"{k}: {a['exit']} {a['sha256']} -> "
                             f"{b['exit']} {b['sha256']}")
                detail += [moved[-1], *_moved_values(a, b)]
    else:
        print(f"platform {now['fingerprint']} is not the reference's "
              f"{ref['fingerprint']}: comparing exit codes, pass bits and "
              f"check values within {VALUE_FRACTION} of each tolerance")
        moved = [f"{k}: {m}" for k, a, b in zip(key, ref["runs"], now["runs"])
                 for m in _value_moves(a, b)]
        detail = moved
    assert not moved, "\n".join(detail)


def test_value_comparison_scales_with_each_checks_tolerance():
    run = {"exit": 0, "checks": [
        {"name": "residual", "value": 1e-9, "expected": 0.0,
         "tolerance": 1e-6, "pass": True},
        {"name": "floor", "value": 0.5, "expected": 1e-2, "tolerance": 0.0,
         "pass": True},
        {"name": "count", "value": 0.0, "expected": 0.0, "tolerance": 0.0,
         "pass": True}]}

    def moved(**values):
        now = {"exit": values.pop("exit", 0), "checks": [
            dict(c, value=values.get(c["name"], c["value"]))
            for c in run["checks"]]}
        return _value_moves(run, now)

    assert moved() == []
    assert moved(residual=1e-9 + 0.9e-7, floor=0.5 + 0.9e-3) == []
    assert len(moved(residual=1e-9 + 1.1e-7)) == 1
    assert len(moved(floor=0.5 + 1.1e-3)) == 1
    assert len(moved(count=1.0)) == 1
    assert len(moved(residual=None)) == 1
    assert moved(exit=1) == ["exit 0 -> 1"]


def test_moved_values_show_each_moved_check_old_and_new():
    ref = {"checks": [{"name": "a", "value": 1e-10},
                      {"name": "b", "value": 2.0}]}
    now = {"checks": [{"name": "a", "value": 1.5e-10},
                      {"name": "b", "value": 2.0}]}
    assert _moved_values(ref, now) == ["  a 1e-10 -> 1.5e-10"]
    assert _moved_values(ref, ref) == []
