import json
import subprocess
import sys

import pytest

from aqm_lab.cli import main

FAST_DIRAC = ["verify-dirac", "--n-draws", "2"]


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "aqm_lab.cli"] + args,
                          capture_output=True, text=True)


def test_entry_point_installed():
    proc = subprocess.run(["aqm-lab", "--version"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_missing_verb_exits_two():
    assert main([]) == 2


def test_unknown_verb_exits_two():
    assert main(["frobnicate"]) == 2


def test_dirac_passes_and_reports(capsys):
    code = main(FAST_DIRAC)
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "aqm-lab/report/v1"
    payload = report["payload"]
    assert payload["command"] == "verify-dirac"
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)


def test_zero_draws_is_config_error():
    assert main(["verify-curvature", "--n-draws", "0"]) == 2


def test_negative_scale_is_config_error():
    assert main(["verify-curvature", "--a", "-1.0"]) == 2


def test_tight_tolerance_fails_checks(capsys):
    code = main(["verify-curvature", "--n-draws", "2", "--tol", "1e-16"])
    capsys.readouterr()
    assert code == 1


def test_tol_overrides_every_check(capsys):
    code = main(FAST_DIRAC + ["--tol", "1e-3"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert all(c["tolerance"] == 1e-3 for c in report["payload"]["checks"])


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_draws": 2, "mass": 2.5}))
    code = main(["verify-dirac", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["config"]["n_draws"] == 2
    assert payload["config"]["mass"] == 2.5


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_draws": 2, "mass": 2.5}))
    code = main(["verify-dirac", "--config", str(cfg), "--mass", "1.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["payload"]["config"]["mass"] == 1.5


def test_unknown_config_key_is_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"draws": 5}))
    assert main(["verify-dirac", "--config", str(cfg)]) == 2


def test_malformed_config_is_error(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["verify-dirac", "--config", str(cfg)]) == 2
    for bad in ({"order": 3}, {"n_draws": True}):
        cfg.write_text(json.dumps(bad))
        assert main(["verify-curvature", "--config", str(cfg)]) == 2


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(FAST_DIRAC + ["--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["payload"]["passed"] is True


def test_csv_format_for_verify(tmp_path):
    out = tmp_path / "checks.csv"
    code = main(FAST_DIRAC + ["--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,value,expected,tolerance,pass"
    assert len(lines) == 6  # five checks


def test_same_seed_payloads_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(FAST_DIRAC + ["--seed", "7", "--out", str(a)]) == 0
    assert main(FAST_DIRAC + ["--seed", "7", "--out", str(b)]) == 0
    pa = json.dumps(json.loads(a.read_text())["payload"], sort_keys=True)
    pb = json.dumps(json.loads(b.read_text())["payload"], sort_keys=True)
    assert pa == pb


def test_different_seed_changes_payload(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(FAST_DIRAC + ["--seed", "7", "--out", str(a)]) == 0
    assert main(FAST_DIRAC + ["--seed", "8", "--out", str(b)]) == 0
    assert (json.loads(a.read_text())["payload"]
            != json.loads(b.read_text())["payload"])


def test_trace_csv_layout(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["trace", "--n-draws", "3", "--steps", "10",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("s,x0,x1,x2,x3,th1")
    body = [line.split(",") for line in lines[1:]]
    resets = [i for i, row in enumerate(body) if float(row[0]) == 0.0]
    assert resets == [0, 11, 22]  # three trajectories of 11 samples


def test_trace_json_checks(capsys):
    code = main(["trace", "--n-draws", "3", "--steps", "20",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)["payload"]
    names = [c["name"] for c in payload["checks"]]
    assert "trace_max_divergence" in names
    assert payload["records"][0]["n_truncated"] == 0


def test_trace_rejects_bad_geometry():
    assert main(["trace", "--ds", "0"]) == 2
    assert main(["trace", "--sections", "1"]) == 2


def test_spectrum_json_all_small_reps(capsys):
    code = main(["spectrum"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["records"]) == 23
    assert payload["records"][0]["m2"] == pytest.approx(
        (2.0 / 9.0) * 6.0)  # scalar mode at a = 1


def test_spectrum_rep_selection_and_csv(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--rep", "0,1/2", "--rep", "1/2,1/2",
                 "--mass", "1.0", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "u,v,casimir,m2"
    assert len(lines) == 3
    m2 = float(lines[1].split(",")[3])
    assert abs(m2 - 1.0) < 1e-12  # smallest spinor reproduces the mass


def test_spectrum_bad_rep_label():
    assert main(["spectrum", "--rep", "0.3,7"]) == 2


def test_subprocess_matches_in_process(tmp_path):
    proc = run_cli(FAST_DIRAC)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["passed"] is True
