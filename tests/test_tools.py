import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from aqm_lab.cli import VERBS, main

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def test_payload_digests_lists_one_run_per_seed_and_draw_count(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "payload_digests.py"), "verify-reps",
         "--seeds", "3,5-6", "--n-draws", "1", "2"],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert [line.split()[1:3] for line in lines] == [
        [f"seed={s}", f"n_draws={n}"] for n in (1, 2) for s in (3, 5, 6)]
    out = tmp_path / "report.json"
    assert main(["verify-reps", "--n-draws", "2", "--seed", "5",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    expected = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    assert lines[4] == f"verify-reps seed=5 n_draws=2 exit=0 {expected.hexdigest()}"


def test_payload_digests_values_follow_the_digest(tmp_path):
    # each check's name=value from the JSON payload, the value in repr,
    # after the digest; a CSV report has none
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "payload_digests.py"), "verify-reps",
         "--seeds", "5", "--n-draws", "2", "--values"],
        capture_output=True, text=True, check=True)
    out = tmp_path / "report.json"
    assert main(["verify-reps", "--n-draws", "2", "--seed", "5",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    expected = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    values = [f"{c['name']}={c['value']!r}" for c in payload["checks"]]
    assert len(values) == len(VERBS["verify-reps"].checks)
    assert proc.stdout.split() == ["verify-reps", "seed=5", "n_draws=2",
                                   "exit=0", expected.hexdigest(), *values]
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "payload_digests.py"), "trace",
         "--seeds", "0", "--n-draws", "2", "--steps", "3", "--values"],
        capture_output=True, text=True, check=True)
    assert len(proc.stdout.split()) == 5


def test_payload_digests_reports_a_config_error_without_digest():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "payload_digests.py"), "verify-reps",
         "--seeds", "0", "--n-draws", "0"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "verify-reps seed=0 n_draws=0 exit=2 -\n"


def test_payload_digests_all_runs_every_verb_and_both_trace_formats(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "payload_digests.py"), "all",
         "--seeds", "2", "--n-draws", "2"],
        capture_output=True, text=True, check=True)
    labels = [line.split()[0] for line in proc.stdout.splitlines()]
    assert labels == [label for name in VERBS for label in (
        ("trace/csv", "trace/json") if name == "trace" else (name,))]
    runs = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    # --n-draws goes only to the verbs that take it
    assert runs["spectrum"].startswith("seed=2 n_draws=default exit=0 ")
    out = tmp_path / "report.json"
    assert main(["trace", "--format", "json", "--n-draws", "2", "--seed", "2",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    expected = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    assert runs["trace/json"] == f"seed=2 n_draws=2 exit=0 {expected.hexdigest()}"
    assert runs["trace/csv"].startswith("seed=2 n_draws=2 exit=0 ")
    assert runs["trace/csv"] != runs["trace/json"]


def test_surface_counts_lines_knobs_and_cli_flags():
    proc = subprocess.run([sys.executable, str(TOOLS / "surface.py")],
                          capture_output=True, text=True, check=True)
    rows = {name: [int(n) for n in counts] for name, *counts in
            map(str.split, proc.stdout.splitlines())}
    modules = [p.stem for p in (ROOT / "src" / "aqm_lab").glob("*.py")]
    assert list(rows) == sorted(modules) + ["total", "knobs", "flags"]
    # per module and in total: non-blank lines, then public names
    assert rows["total"] == [sum(rows[m][k] for m in modules) for k in (0, 1)]
    assert rows["knobs"][0] > 0
    assert rows["flags"] == [sum(len(v.params) for v in VERBS.values())]
    spec = importlib.util.spec_from_file_location("surface",
                                                  TOOLS / "surface.py")
    surface = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(surface)
    source = """
import numpy as np
from .fd import derivative_stack
LIMIT = 3
LIMIT = 4
typed: int = 1
_private = 2
_EPS[0] = 1.0
def public(x):
    inner = x
    return inner
def _helper():
    pass
async def waits():
    pass
class Shape:
    dim = 6
    def method(self):
        pass
class _Hidden:
    pass
"""
    assert surface.public_names(source) == {"LIMIT", "typed", "public",
                                            "waits", "Shape"}


def test_payload_digests_all_runs_trace_at_two_draws_at_least(tmp_path):
    # a bundle needs two trajectories: at one draw, trace runs at two and
    # says so, while the other verbs run at the one draw asked for
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "payload_digests.py"), "all",
         "--seeds", "1", "--n-draws", "1"],
        capture_output=True, text=True, check=True)
    runs = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    assert runs["trace/csv"].startswith("seed=1 n_draws=2 exit=0 ")
    assert runs["verify-reps"].startswith("seed=1 n_draws=1 exit=0 ")
    out = tmp_path / "report.json"
    assert main(["trace", "--format", "json", "--n-draws", "2", "--seed", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    expected = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    assert runs["trace/json"] == f"seed=1 n_draws=2 exit=0 {expected.hexdigest()}"


def test_payload_digests_margins_summarize_each_check_over_the_seeds(
        tmp_path):
    # per check: kind, worst value, tolerance, margin, failing seeds and
    # whether the value is the same at every seed, against the payloads
    out = tmp_path / "report.json"
    for verb in ("spectrum", "verify-dirac"):
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "payload_digests.py"), verb,
             "--seeds", "0-1", "--margins"],
            capture_output=True, text=True, check=True)
        values = {}
        for seed in (0, 1):
            assert main([verb, "--seed", str(seed), "--out", str(out)]) == 0
            for check in json.loads(out.read_text())["payload"]["checks"]:
                values.setdefault(check["name"], []).append(check["value"])
        tols = {c.name: c.tol for c in VERBS[verb].checks}
        lines = [line.split() for line in proc.stdout.splitlines()]
        assert [line[:2] for line in lines] == [[verb, "n_draws=default"]] \
            * len(tols)
        assert [line[2] for line in lines] == sorted(tols)
        for _, _, name, kind, *columns in lines:
            fields = dict(column.split("=") for column in columns)
            worst = max(map(abs, values[name]))
            assert kind == "residual"
            assert float(fields["worst"]) == pytest.approx(worst, rel=1e-3)
            assert float(fields["tol"]) == tols[name]
            assert float(fields["margin"]) == (
                pytest.approx(tols[name] / worst, rel=1e-2) if worst
                else float("inf"))
            assert fields["fails"] == "0/2"
            assert fields["same"] == ("yes" if values[name][0]
                                      == values[name][1] else "no")
    # a floor's margin is worst over threshold, and a non-finite value in
    # any run makes the worst nan
    spec = importlib.util.spec_from_file_location(
        "payload_digests", TOOLS / "payload_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)

    def run(seed, floor, residual):
        return {"label": "v", "n_draws": 1, "checks": [
            {"name": "f", "value": floor, "expected": 0.5, "tolerance": 0.0,
             "pass": floor >= 0.5},
            {"name": "r", "value": residual, "expected": 0.0,
             "tolerance": 1e-6, "pass": residual is not None}]}

    assert list(digests.margins([run(0, 2.0, 1e-9), run(1, 0.25, None)],
                                {"f"})) == [
        "v n_draws=1 f floor worst=2.500e-01 tol=5.000e-01 margin=0.5 "
        "fails=1/2 same=no",
        "v n_draws=1 r residual worst=nan tol=1.000e-06 margin=nan "
        "fails=1/2 same=no"]
