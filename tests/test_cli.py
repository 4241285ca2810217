import ast
import contextlib
import csv
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import venv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqm_lab import cli, config_space, dynamics
from aqm_lab.cli import VERBS, ConfigError, _build_parser, main, resolve_config

FAST_DIRAC = ["verify-dirac", "--n-draws", "2"]
ROOT = Path(__file__).resolve().parents[1]


def child_env():
    # the child imports this checkout as the in-process tests do, with or
    # without PYTHONPATH=src set (pytest's pythonpath reaches only itself)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "aqm_lab.cli"] + args,
                          capture_output=True, text=True, env=child_env())


def env_without_pythonpath():
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


@pytest.fixture(scope="module")
def installed_bin(tmp_path_factory):
    """Install a copy of this checkout into a throwaway venv; return its bin.

    The venv sees the running interpreter's packages (numpy, scipy,
    setuptools), so setuptools' ``develop`` installs offline, without pip
    or ``wheel``, and writes the ``aqm-lab`` script from
    ``[project.scripts]``. The checkout itself is never written to.
    ``PYTHONPATH`` is dropped: with the package already importable,
    ``develop`` would skip the ``easy-install.pth`` entry.
    """
    pytest.importorskip("setuptools")
    base = tmp_path_factory.mktemp("install")
    builder = venv.EnvBuilder(system_site_packages=True, with_pip=False,
                              symlinks=True)
    builder.create(base / "venv")
    ctx = builder.ensure_directories(base / "venv")
    checkout = base / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, checkout / name)
    proc = subprocess.run([ctx.env_exe, "-c",
                           "from setuptools import setup; setup()",
                           "develop", "--no-deps"],
                          cwd=checkout, env=env_without_pythonpath(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ctx.bin_path


def test_entry_point_installed(installed_bin):
    env = env_without_pythonpath()
    env["PATH"] = installed_bin + os.pathsep + env.get("PATH", "")
    proc = subprocess.run(["aqm-lab", "--version"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_missing_verb_exits_two():
    assert main([]) == 2


def test_unknown_verb_exits_two():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv, prefix", [
    (["trace", "--kappa", "2"], "error: unrecognized arguments: --kappa 2"),
    (["verify-curvature", "--format", "xml"],
     "error: argument --format: invalid choice: "),
    ([], "error: the following arguments are required: command"),
    # one stencil: the stencil order is no longer an option
    (["verify-linearization", "--order", "4"],
     "error: unrecognized arguments: --order 4"),
], ids=["unknown_flag", "bad_choice", "missing_verb", "order_flag"])
def test_rejected_flag_is_one_error_line(capsys, argv, prefix):
    # a flag the parser rejects is reported like every configuration
    # error: one line on stderr, no usage, nothing on stdout
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(prefix), captured.err


@pytest.mark.parametrize("argv, prefix", [
    # verify-reps has no --h, and --h is not read as --help
    (["verify-reps", "--h", "1e-3"], "error: unrecognized arguments: --h "),
    (["verify-dirac", "--n", "1"], "error: unrecognized arguments: --n 1"),
    (["--vers"], "error: "),
], ids=["h_help", "n_n_draws", "root_version"])
def test_flag_prefix_is_not_a_flag(capsys, argv, prefix):
    # flags match exactly, on the root parser and on every verb's
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(prefix), captured.err


def test_help_and_version_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert main(["trace", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("0.1.0\nusage: aqm-lab trace")
    assert captured.err == ""


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


def assert_one_line_error(capsys, prefix="error: "):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err


def test_zero_draws_is_config_error(capsys):
    assert main(["verify-curvature", "--n-draws", "0"]) == 2
    assert_one_line_error(capsys)
    # a bundle check needs pairs of trajectories, in either format
    for fmt in ("csv", "json"):
        assert main(["trace", "--n-draws", "1", "--format", fmt]) == 2
        assert_one_line_error(capsys, "error: --n-draws ")


def test_negative_scale_is_config_error(capsys):
    for flags in (["--a", "-1.0"], ["--seed", "-1"], ["--h", "nan"],
                  ["--tol", "nan"], ["--a", "inf"]):
        assert main(["verify-curvature"] + flags) == 2, flags
        assert_one_line_error(capsys)


def test_tight_tolerance_fails_checks(capsys):
    code = main(["verify-curvature", "--n-draws", "2", "--tol", "1e-16"])
    capsys.readouterr()
    assert code == 1


# a short run of every verb; trace in JSON, the format that computes every
# check
SHORT_RUNS = {
    "verify-curvature": ["--n-draws", "1"],
    "verify-weyl": ["--n-draws", "1"],
    "verify-linearization": ["--n-draws", "1"],
    "verify-reps": ["--n-draws", "1"],
    "verify-dirac": ["--n-draws", "2"],
    "trace": ["--format", "json", "--n-draws", "2", "--steps", "5"],
    "spectrum": [],
}


def test_check_rows_are_the_checks_every_verb_reports(monkeypatch, capsys):
    assert set(SHORT_RUNS) == set(VERBS)
    for name, verb in VERBS.items():
        argv = [name, *SHORT_RUNS[name], "--tol", "1e-3"]
        assert main(argv) == 0, name
        checks = {c["name"]: c for c in
                  json.loads(capsys.readouterr().out)["payload"]["checks"]}
        assert set(checks) == {row.name for row in verb.checks}, name
        # --tol reaches exactly the nonzero tolerances that are not floors;
        # a floor is the expected value, with tolerance 0
        for row in verb.checks:
            got = checks[row.name]
            if row.floor:
                assert (got["expected"], got["tolerance"]) == (row.tol, 0.0)
            else:
                assert got["tolerance"] == (1e-3 if row.tol else 0.0), row

        # a value with no row is an internal error, not a dropped check
        def stray(cfg, rng, run=verb.run):
            values, records, table = run(cfg, rng)
            return {**values, "unlisted_check": 0.0}, records, table

        monkeypatch.setitem(VERBS, name, replace(verb, run=stray))
        assert main(argv) == 3, name
        assert_one_line_error(capsys, "error: internal: RuntimeError: ")


def test_no_verb_builds_the_frame(monkeypatch, capsys):
    # the frame is the closed forms' test reference only: every verb runs
    # with it raising
    def fail(*args, **kwargs):
        raise AssertionError("frame built")

    for name in ("frame_coefficients", "_rodrigues_coefficients"):
        monkeypatch.setattr(config_space, name, fail)
    for name in VERBS:
        assert main([name, *SHORT_RUNS[name]]) == 0, name
        capsys.readouterr()


def test_one_percent_metric_error_fails_verify_curvature(tmp_path):
    # the checks see the closed-form metric: e2_b of its rotation-boost
    # block off by 1%, in a copy of the package, fails both curvature checks
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = src / "aqm_lab" / "config_space.py"
    text = module.read_text()
    exact = "corner = a2 * e2[1]"
    assert text.count(exact) == 1
    module.write_text(text.replace(exact, "corner = 1.01 * a2 * e2[1]"))
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(src), env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, "-m", "aqm_lab.cli",
                           "verify-curvature", "--n-draws", "4"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    failed = {c["name"] for c in json.loads(proc.stdout)["payload"]["checks"]
              if not c["pass"]}
    assert failed == {"curvature_max_rel_error", "curvature_mean_rel_error"}


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for verb, file_cfg in (("verify-dirac", {"n_draws": 2, "mass": 2.5}),
                           ("spectrum", {"tol": 1e-3, "mass": 2.5})):
        cfg.write_text(json.dumps(file_cfg))
        code = main([verb, "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)["payload"]
        for key, value in file_cfg.items():
            assert payload["config"][key] == value
    # both runs went through one parser, built once per process
    assert _build_parser() is _build_parser()


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


def test_malformed_config_is_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["verify-dirac", "--config", str(cfg)]) == 2
    for bad in ({"order": 4}, {"n_draws": True}, {"seed": "x"}, {"seed": -1},
                {"seed": 1.5}, {"a": "1"}, {"format": "xml"}, {"out": 5}):
        cfg.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["verify-curvature", "--config", str(cfg)]) == 2, bad
        assert_one_line_error(capsys)
    for bad in ({"kappa": None}, {"H": "abc"}):
        cfg.write_text(json.dumps(bad))
        assert main(["verify-dirac", "--config", str(cfg)]) == 2, bad
        assert_one_line_error(capsys)
    # an integer that no float equals would be rounded without a word; the
    # error names the rule it breaks
    inexact, beyond = 2**53 + 1, 10**400
    for verb, key, value, need, integer in (
            ("spectrum", "tol", inexact, "a finite positive number", inexact),
            ("verify-curvature", "a", beyond, "a finite positive number",
             beyond),
            ("verify-dirac", "H", [inexact, 0, 0], "three finite numbers",
             inexact)):
        cfg.write_text(json.dumps({key: value}))
        assert main([verb, "--config", str(cfg)]) == 2, key
        assert capsys.readouterr().err == (
            f"error: --{key} must be {need}; got {value!r}, and the integer "
            f"{integer} has no exact float value\n")
    cfg.write_text(json.dumps({"n_draws": 1}))
    assert main(["trace", "--config", str(cfg)]) == 2
    assert_one_line_error(capsys, "error: --n-draws ")
    # a count that sizes an array or a loop is bounded; one above the bound
    # is refused before anything is allocated, and the error names the bound
    huge, over = str(10**20), str(cli.MAX_COUNT + 1)
    for argv, flag in ((["verify-reps", "--n-draws", huge], "--n-draws"),
                       (["trace", "--n-draws", huge], "--n-draws"),
                       (["trace", "--steps", huge, "--n-draws", "2"], "--steps"),
                       (["verify-curvature", "--n-draws", over], "--n-draws"),
                       (["trace", "--steps", over], "--steps")):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: {flag} must be "), err
        assert f" {cli.MAX_COUNT}; got " in err, err
    for key in ("n_draws", "steps"):
        cfg.write_text(json.dumps({key: cli.MAX_COUNT + 1}))
        assert main(["trace", "--config", str(cfg)]) == 2, key
        assert_one_line_error(capsys, f"error: --{key.replace('_', '-')} ")
    # an empty list of labels would select no representation, a vacuous pass
    cfg.write_text(json.dumps({"rep": []}))
    assert main(["spectrum", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        "error: --rep must be a 'u,v' label or a list of them; got []\n"
    # an output path that cannot be written is rejected before the run,
    # from a flag or a config file, and no file is created
    missing = tmp_path / "missing" / "x.json"
    for bad in ({"out": str(missing)}, {"out": str(tmp_path)}, {"out": ""}):
        cfg.write_text(json.dumps(bad))
        assert main(["spectrum", "--config", str(cfg)]) == 2, bad
        assert_one_line_error(capsys, "error: --out ")
    assert main(["spectrum", "--out", str(missing)]) == 2
    assert_one_line_error(capsys, "error: --out ")
    assert not missing.parent.exists()


def test_trace_bundle_above_its_bound_is_refused(capsys, tmp_path,
                                                  monkeypatch):
    # each count may be within its own bound while the bundle, one
    # (steps + 1, n_draws, 10) array, is not: the product is refused at
    # configuration, from flags, a config file or both, and nothing is
    # drawn or integrated (only the refusal runs here, never a bundle at
    # the bound)
    def never(*args, **kwargs):
        raise AssertionError("a refused bundle reached the run")

    monkeypatch.setattr(cli, "_plane_wave_bundle_inputs", never)
    monkeypatch.setattr(cli, "integrate_trajectory", never)
    cfg = tmp_path / "cfg.json"
    cap = str(cli.MAX_COUNT)
    over = cli.MAX_BUNDLE // 2  # two trajectories of MAX_BUNDLE / 2 + 1 points
    cfg.write_text(json.dumps({"n_draws": cli.MAX_COUNT,
                               "steps": cli.MAX_COUNT}))
    for argv in (["trace", "--n-draws", cap, "--steps", cap],
                 ["trace", "--n-draws", "2", "--steps", str(over)],
                 ["trace", "--n-draws", cap],
                 ["trace", "--config", str(cfg)],
                 ["trace", "--config", str(cfg), "--steps", "2"]):
        assert main(argv) == 2, argv
        assert_one_line_error(capsys, "error: --n-draws x (--steps + 1) "
                                      f"must be at most {cli.MAX_BUNDLE} ")
    # at the bound the configuration resolves; it is not run
    for n_draws, steps in ((2, over - 1), (cli.MAX_BUNDLE // 100, 99)):
        cfg = resolve_config("trace", {"n_draws": n_draws, "steps": steps},
                             {})
        assert cfg["n_draws"] * (cfg["steps"] + 1) == cli.MAX_BUNDLE
    assert f"at most {cli.MAX_BUNDLE}" in cli.STEPS.help


@pytest.mark.parametrize("text, key", [
    ('{"n-draws": 0, "n_draws": 2}', "'n_draws' given twice (first as "
                                     "'n-draws')"),
    ('{"seed": -1, "seed": 2}', "'seed' given twice"),
    ('{"n_draws": 2, "n-draws": 2}', "'n-draws' given twice (first as "
                                     "'n_draws')"),
], ids=["two_spellings", "repeated_key", "same_values"])
def test_config_key_given_twice_is_error(tmp_path, capsys, text, key):
    # the later value would shadow the earlier one, which no check would see
    cfg = tmp_path / "twice.json"
    cfg.write_text(text)
    assert main(["verify-curvature", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config key {key}"), captured.err
    assert len(captured.err.splitlines()) == 1


def test_counterterm_is_no_option(tmp_path, capsys):
    # the counterterm has its own check; no option moves it into the gap
    # check, as a flag or a config key
    assert main(["verify-dirac", "--counterterm"]) == 2
    assert_one_line_error(capsys, "error: unrecognized arguments: "
                                  "--counterterm")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"counterterm": True}))
    assert main(["verify-dirac", "--config", str(cfg)]) == 2
    assert_one_line_error(capsys, "error: unknown config keys for "
                                  "verify-dirac: ['counterterm']")


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


@pytest.mark.parametrize("verb", ["verify-curvature", "verify-weyl",
                                  "verify-linearization", "verify-reps",
                                  "verify-dirac"])
def test_csv_check_table_is_the_payload_checks(verb, tmp_path):
    # the same records, in the same order and to the bit; --tol 1e-9 fails
    # some checks, so the pass column is not all ones
    argv = [verb, "--n-draws", "2" if verb == "verify-dirac" else "1",
            "--tol", "1e-9"]
    out_csv, out_json = tmp_path / "checks.csv", tmp_path / "report.json"
    code = main(argv + ["--format", "csv", "--out", str(out_csv)])
    assert main(argv + ["--out", str(out_json)]) == code
    rows = list(csv.reader(out_csv.read_text().splitlines()))
    assert rows[0] == ["name", "value", "expected", "tolerance", "pass"]
    checks = json.loads(out_json.read_text())["payload"]["checks"]
    assert [[r[0], float(r[1]), float(r[2]), float(r[3]), bool(int(r[4]))]
            for r in rows[1:]] == [
        [c["name"], c["value"], c["expected"], c["tolerance"], c["pass"]]
        for c in checks]


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


def test_spectrum_rep_near_a_half_integer_is_that_irrep(capsys):
    # a label within 1e-12 of (1/2,0) is (1/2,0): u, casimir and m2 too
    records = []
    for label in ("0.5000000000004,0", "1/2,0"):
        assert main(["spectrum", "--rep", label]) == 0
        records.append(json.loads(capsys.readouterr().out)["payload"]["records"])
    assert records[0] == records[1]
    assert (records[0][0]["u"], records[0][0]["casimir"]) == (0.5, 1.5)


def test_spectrum_one_rep_label_has_one_payload(tmp_path):
    # a lone label is the list of one, as a flag, a config string or a
    # config list: the same run, byte for byte the same payload
    payloads = []
    for i, file_rep in enumerate((None, "1/2,0", ["1/2,0"])):
        argv = ["--rep", "1/2,0"]
        if file_rep is not None:
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps({"rep": file_rep}))
            argv = ["--config", str(cfg)]
        out = tmp_path / f"report{i}.json"
        assert main(["spectrum", *argv, "--out", str(out)]) == 0
        payloads.append(json.dumps(json.loads(out.read_text())["payload"],
                                   sort_keys=True))
    assert payloads[0] == payloads[1] == payloads[2]
    assert json.loads(payloads[0])["config"]["rep"] == ["1/2,0"]


def test_spectrum_takes_a_or_mass_not_both(tmp_path, capsys):
    # the scale comes from one of them; the other would be dropped unread
    assert main(["spectrum", "--a", "2", "--mass", "3"]) == 2
    assert_one_line_error(capsys, "error: --a and --mass exclude each other")
    cfg = tmp_path / "cfg.json"
    for file_cfg, flags in (({"a": 2, "mass": 3}, []),
                            ({"mass": 3}, ["--a", "2"]),
                            ({"a": 2}, ["--mass", "3"])):
        cfg.write_text(json.dumps(file_cfg))
        assert main(["spectrum", "--config", str(cfg), *flags]) == 2, file_cfg
        assert_one_line_error(capsys, "error: --a and --mass ")
    for flags in (["--a", "2"], ["--mass", "3"]):
        assert main(["spectrum", *flags]) == 0


def test_internal_error_exits_three(capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("Numerical result out of range")

    monkeypatch.setattr("aqm_lab.cli.dispersion_root", overflow)
    assert main(["verify-dirac", "--n-draws", "1"]) == 3
    assert_one_line_error(capsys, "error: internal: OverflowError: ")


@pytest.mark.parametrize("argv, null_m2", [
    (["spectrum", "--a", "1e-300"], True),     # a^2 underflows to 0
    (["spectrum", "--mass", "1e300"], True),   # a = 1.6e-300, same
    (["spectrum", "--a", "1e200"], False),     # a^2 overflows: m2 = 0
])
def test_spectrum_extreme_scales_give_null_records(argv, null_m2, capsys):
    with np.errstate(all="ignore"):
        code = main(argv)
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert all((r["m2"] is None) == null_m2 for r in payload["records"])
    # a spectrum without a finite value fails, a finite one passes
    assert code == (1 if null_m2 else 0)
    count = {c["name"]: c for c in payload["checks"]}[
        "spectrum_nonfinite_m2_count"]
    assert count["value"] == (len(payload["records"]) if null_m2 else 0)


def test_nan_conjugation_draw_fails_verify_reps(monkeypatch, capsys):
    # verify-reps hands every draw to conjugation_defect with every irrep;
    # a NaN in one draw's row must fail its check, neither pass nor exit 3
    conjugation_defect = cli.conjugation_defect

    def nan_in_second_draw(reps, thetas):
        defect = conjugation_defect(reps, thetas).copy()
        defect[..., 1] = np.nan
        return defect

    monkeypatch.setattr(cli, "conjugation_defect", nan_in_second_draw)
    assert main(["verify-reps", "--n-draws", "3", "--seed", "5"]) == 1
    checks = {c["name"]: c for c in
              json.loads(capsys.readouterr().out)["payload"]["checks"]}
    conj = checks.pop("reps_conjugation_max_defect")
    assert conj["nonfinite"] and not conj["pass"]
    assert all(c["pass"] for c in checks.values())


def test_verify_reps_hands_over_draws_in_bounded_chunks(monkeypatch, capsys):
    # the stacked checks see at most REPS_CHUNK draws per call, so memory
    # does not grow with --n-draws, and the values stay those of one batch
    sizes = []
    for name in ("angular_laplacian_check", "conjugation_defect"):
        def recorded(reps, theta, *args, _f=getattr(cli, name)):
            sizes.append(len(theta))
            return _f(reps, theta, *args)

        monkeypatch.setattr(cli, name, recorded)
    chunk = cli.REPS_CHUNK
    argv = ["verify-reps", "--n-draws", str(2 * chunk + 1)]
    # one shared Casimir pass, one conjugation call over every irrep
    n_calls = 1 + 1

    def values():
        assert main(argv) == 0
        return {c["name"]: c["value"] for c in
                json.loads(capsys.readouterr().out)["payload"]["checks"]}

    chunked = values()
    assert sorted(sizes) == sorted([1, chunk, chunk] * n_calls)
    sizes.clear()
    monkeypatch.setattr(cli, "REPS_CHUNK", 2 * chunk + 1)
    one_batch = values()
    assert sizes == [2 * chunk + 1] * n_calls
    for name, value in one_batch.items():
        assert abs(chunked[name] - value) <= 1e-12 * abs(value), name


def test_tol_cannot_forgive_nonfinite_spectrum(capsys):
    assert main(["spectrum", "--a", "1e-300", "--tol", "23"]) == 1
    payload = json.loads(capsys.readouterr().out)["payload"]
    count = {c["name"]: c for c in payload["checks"]}[
        "spectrum_nonfinite_m2_count"]
    assert count["value"] == 23 and count["tolerance"] == 0.0
    assert not count["pass"]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--a", "1e-300"],
    ["spectrum", "--a", "1e200"],
    ["verify-dirac", "--n-draws", "1", "--mass", "1e300"],
    ["verify-dirac", "--n-draws", "1", "--mass", "1e-200"],
    ["verify-weyl", "--n-draws", "1", "--h", "1e-300"],
    ["trace", "--format", "json", "--n-draws", "2", "--steps", "5",
     "--h", "1e-300"],
])
def test_extreme_scales_write_no_runtime_warning(argv):
    # the payload reports the non-finite value; stderr stays clean
    proc = run_cli(argv)
    assert proc.returncode in (0, 1)
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("argv", [
    # at a step of 1e300 the stencil points are far outside the chart,
    # where the group metric is not finite
    ["verify-weyl", "--n-draws", "1", "--h", "1e300"],
    ["trace", "--n-draws", "2", "--steps", "5", "--h", "1e300",
     "--format", "json"],
    # NaN residuals inside a worst-case loop must not be dropped by max()
    ["verify-dirac", "--n-draws", "1", "--kappa", "1e300"],
    # (e a)^2 overflows in the gap and counterterm checks
    ["verify-dirac", "--n-draws", "1", "--mass", "1e-200"],
])
def test_nonfinite_values_fail_checks_in_valid_json(argv, capsys):
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)["payload"]
    nonfinite = [c for c in payload["checks"] if c.get("nonfinite")]
    assert nonfinite
    assert all(c["value"] is None and not c["pass"] for c in nonfinite)
    assert payload["passed"] is False
    if argv[0] == "trace":
        assert "trace_max_divergence" in {c["name"] for c in nonfinite}


STEP_VERBS = sorted(name for name, verb in cli.VERBS.items()
                    if any(p.flag == "--h" for p in verb.params))


def test_step_verbs_are_the_stencil_verbs():
    assert STEP_VERBS == ["trace", "verify-curvature", "verify-linearization",
                          "verify-weyl"]


@pytest.mark.parametrize("command", STEP_VERBS)
def test_collapsed_stencil_fails_every_verb_with_a_step(command, capsys):
    # at h = 1e-300, q +- h == q: every stencil point is its centre, and
    # the difference-first sum reads an exact 0 for every derivative. No
    # verb that takes --h passes on that
    argv = [command, "--n-draws", "1", "--h", "1e-300"]
    if command == "trace":
        argv = [command, "--n-draws", "2", "--steps", "5", "--h", "1e-300",
                "--format", "json"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["passed"] is False


@pytest.mark.parametrize("a", ["1e-200", "1e200"])
@pytest.mark.parametrize("argv", [
    ["verify-curvature", "--n-draws", "1"],
    ["verify-weyl", "--n-draws", "1"],
    ["verify-linearization", "--n-draws", "1"],
    ["verify-reps", "--n-draws", "1"],
    ["trace", "--format", "json", "--n-draws", "2", "--steps", "5"],
], ids=lambda argv: argv[0])
def test_extreme_length_scale_fails_checks_without_internal_error(
        argv, a, capsys):
    # a^2 and a^6 over- or underflow and the group metric turns singular;
    # every verb reports the non-finite values as failed checks
    assert main(argv + ["--a", a]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)["payload"]
    assert any(c.get("nonfinite") for c in payload["checks"])
    assert "error:" not in captured.err


@pytest.mark.parametrize("flags", [["--a", "1e-200"], ["--a", "1e200"],
                                   ["--ds", "1e300"]],
                         ids=["1e-200", "1e200", "ds-1e300"])
def test_trace_csv_fails_where_json_fails(flags, tmp_path):
    # the start point's velocity norm is non-finite at these scales; a step
    # of 1e300 stops every trajectory at its start point, which JSON fails
    # as a non-finite flux drift and CSV as no step taken: both formats
    # exit 1, and the CSV rows are still the two trajectories' samples (at
    # 1e-200 and 1e300 each stops at its start point)
    argv = ["trace", "--n-draws", "2", "--steps", "5", *flags]
    out = tmp_path / "traj.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert main(argv + ["--format", "json", "--out",
                        str(tmp_path / "report.json")]) == 1
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("s,x0,x1,x2,x3,th1")
    assert sum(float(row.split(",")[0]) == 0.0 for row in lines[1:]) == 2


@pytest.mark.parametrize("flags, file_cfg, error", [
    (["--H", "0.6,-0.4,0.8", "--E", "0.4,0.2,-0.6", "--kappa", "5"], None,
     "error: unrecognized arguments: --H 0.6,-0.4,0.8 "
     "--E 0.4,0.2,-0.6 --kappa 5"),
    ([], {"E": [0.0, 0.0, 1e-9], "kappa": 2.0},
     "error: unknown config keys for trace: ['E', 'kappa']"),
], ids=["flags", "config_file"])
def test_trace_rejects_nonzero_fields(monkeypatch, tmp_path, capsys, flags,
                                      file_cfg, error):
    # the bundle inputs are field-free plane waves, so trace takes no field:
    # a field flag or config key is unknown, a configuration error reported
    # before any trajectory is integrated
    def fail(*args, **kwargs):
        raise AssertionError("integrated a bundle")

    monkeypatch.setattr(cli, "integrate_trajectory", fail)
    if file_cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        flags = flags + ["--config", str(path)]
    code = main(["trace", "--format", "json", "--seed", "2", *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == error


@pytest.mark.parametrize("flags, file_cfg", [
    (["--spread", "3"], None),
    ([], {"spread": 2.2000001}),
    (["--spread", "1e200"], {"spread": 0.05}),
], ids=["flag", "config_file", "flag_over_file"])
def test_trace_rejects_a_seed_ball_leaving_the_rapidity_domain(
        monkeypatch, tmp_path, capsys, flags, file_cfg):
    # the start point's boosts reach START_RANGE, so a seed ball wider than
    # RAPIDITY_MAX - START_RANGE can start a trajectory outside the chart:
    # a configuration error, reported before any trajectory is integrated
    def fail(*args, **kwargs):
        raise AssertionError("integrated a bundle")

    monkeypatch.setattr(cli, "integrate_trajectory", fail)
    if file_cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        flags = flags + ["--config", str(path)]
    code = main(["trace", "--n-draws", "8", "--steps", "2", "--seed", "0",
                 *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: --spread must be ")
    assert len(captured.err.splitlines()) == 1


def test_trace_bundle_has_unperturbed_leader():
    # the first start is the drawn start point itself, bitwise (a bundle
    # of one is the start point alone); the others lie in the seed ball
    # around it, drawn row by row after it from the same stream
    _, starts = cli._plane_wave_bundle_inputs(np.random.default_rng(28), 5,
                                              0.05)
    rng = np.random.default_rng(28)
    q0 = cli._plane_wave_bundle_inputs(rng, 1, 0.05)[1][0]
    assert starts.shape == (5, 10)
    assert np.array_equal(starts[0], q0)
    assert np.all(np.abs(starts[1:] - q0) <= 0.05)
    rows = [q0 + 0.05 * rng.uniform(-1.0, 1.0, 10) for _ in range(4)]
    assert np.array_equal(starts[1:], rows)


def test_trace_evaluates_the_velocity_four_times_per_step(monkeypatch,
                                                         capsys):
    # the start point's norm check reads row 0 of the integrator's start
    # evaluation, which is also step 0's first stage: 4 calls per step
    real = dynamics.velocity_field
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (cli, dynamics):
        for name, bound in list(vars(module).items()):
            if bound is real:
                monkeypatch.setattr(module, name, counted)
    steps = 7
    assert main(["trace", "--format", "json", "--n-draws", "3", "--steps",
                 str(steps), "--seed", "4"]) == 0
    capsys.readouterr()
    assert len(calls) == 4 * steps


@pytest.mark.parametrize("seed", range(6))
def test_trace_runs_at_the_widest_seed_ball(seed, tmp_path):
    # at the bound every trajectory starts inside the rapidity domain
    assert main(["trace", "--n-draws", "8", "--steps", "2", "--spread", "2.2",
                 "--seed", str(seed), "--out", str(tmp_path / "t.csv")]) == 0


# config fuzz: the verb's own keys plus junk keys, with JSON values
JUNK_KEYS = ["draws", "config", "verbose", "n_draw", "Tol", "order"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6)
    | st.sampled_from([0, 1, 2, 4, 0.5, 1e-3, 1e-200, 1e200, "json", "csv",
                       "0,1/2", "1/2,1/2", [0.1, -0.2, 0.3], ["0,1/2"]]),
    lambda inner: st.lists(inner, max_size=4), max_leaves=6)


def file_keys(verb):
    return [p.name for p in VERBS[verb].params]


def fuzzed_configs(verbs):
    return st.sampled_from(verbs).flatmap(lambda verb: st.tuples(
        st.just(verb),
        st.dictionaries(st.sampled_from(file_keys(verb) + JUNK_KEYS),
                        JSON_VALUES, max_size=5)))


def is_finite_number(v, positive=False):
    return (type(v) in (int, float) and v == v and abs(v) != float("inf")
            and (v > 0 or not positive))


@settings(max_examples=400, deadline=None)
@given(fuzzed_configs(sorted(VERBS)))
def test_fuzzed_config_resolves_to_checked_values_or_config_error(case):
    verb, raw = case
    try:
        cfg = resolve_config(verb, raw, {})
    except ConfigError:
        return
    assert set(raw) <= set(file_keys(verb))
    assert set(cfg) == {p.name for p in VERBS[verb].params}
    assert type(cfg["seed"]) is int and cfg["seed"] >= 0
    assert cfg["format"] in ("json", "csv")
    assert cfg["out"] is None or isinstance(cfg["out"], str)
    assert cfg["tol"] is None or is_finite_number(cfg["tol"], positive=True)
    for key in ("n_draws", "steps", "sections"):
        assert key not in cfg or (type(cfg[key]) is int and cfg[key] >= 1)
    assert verb != "trace" or cfg["n_draws"] >= 2
    for key in ("a", "h", "mass", "ds", "spread"):
        assert cfg.get(key) is None or is_finite_number(cfg[key], True)
    assert is_finite_number(cfg.get("kappa", 0.0))
    for key in ("H", "E"):
        vec = cfg.get(key)
        assert vec is None or (len(vec) == 3
                               and all(is_finite_number(x) for x in vec))
    for key, value in raw.items():
        assert cfg[key] == (tuple(value) if key in ("H", "E") and value
                            is not None else value)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# flags win over the file, so these keep every fuzzed run short; trace
# needs two trajectories
FUZZ_FLAGS = {"verify-dirac": {"n_draws": 1}, "verify-reps": {"n_draws": 1},
              "spectrum": {}, "trace": {"n_draws": 2, "steps": 2}}


@settings(max_examples=80, deadline=None)
@given(fuzzed_configs(sorted(FUZZ_FLAGS)))
# a seed ball this wide starts trajectories outside the rapidity domain
@example(("trace", {"spread": 1e200}))
# more sections than the three shared steps sample no more of the range
@example(("trace", {"format": "json", "sections": 10**21}))
def test_fuzzed_config_runs_end_to_end(fuzz_dir, case):
    verb, raw = case
    cfg_path, out = fuzz_dir / "cfg.json", fuzz_dir / "out"
    cfg_path.write_text(json.dumps(raw))
    flags = {"out": str(out), **FUZZ_FLAGS[verb]}
    argv = [verb, "--config", str(cfg_path), "--out", str(out)]
    for name, value in FUZZ_FLAGS[verb].items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    try:
        resolve_config(verb, raw, flags)
        allowed = {0, 1}
    except ConfigError:
        allowed = {2}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in allowed, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        assert len(err.getvalue().splitlines()) == 1


def test_package_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is in the test extra.
    # Function-level imports count too: ast.walk reaches every node
    found = []
    for path in sorted((ROOT / "src" / "aqm_lab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_cli_import_loads_no_scipy():
    # importing scipy would be most of the start-up time
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, aqm_lab.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_import_loads_only_its_init():
    # the modules are the package's public surface; the package itself
    # exports only its version and imports none of them
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, aqm_lab; print(sorted(m for m in "
         "sys.modules if m.split('.')[0] in ('aqm_lab', 'numpy'))); "
         "print(sorted(n for n in vars(aqm_lab) if not n.startswith('_')), "
         "aqm_lab.__version__)"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['aqm_lab']", "[] 0.1.0"]


@pytest.mark.parametrize("args", [
    ["verify-reps", "--n-draws", "1"],
    ["verify-curvature", "--n-draws", "1"],
    ["spectrum"],
    ["verify-weyl", "--n-draws", "1"],
    ["verify-linearization", "--n-draws", "1"],
    ["verify-dirac", "--n-draws", "1"],
    ["trace", "--format", "json", "--n-draws", "2", "--steps", "5"],
])
def test_verbs_run_without_scipy(args):
    # with scipy blocked, any import of it on a verb's path raises
    code = ("import sys; sys.modules['scipy'] = None; "
            "from aqm_lab.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["payload"]["passed"] is True


REUSE_CHILD = """
import resource, sys
import numpy as np
from aqm_lab.cli import main

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

argv = ["verify-curvature", "--n-draws", "4", "--out", sys.argv[1]]
main(argv)
start = faults()
main(argv)
verb = faults() - start
np.ones(1 << 21)
start = faults()
np.ones(1 << 21)
print(verb, faults() - start)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds set are glibc's")
def test_repeated_run_reuses_freed_memory(tmp_path):
    # the batched stencils free and reallocate arrays of 0.1-10 MB on every
    # call; a second run in the same fresh process finds those pages kept.
    # Under glibc's default thresholds the verb's count depends on what ran
    # before (about 1 700 per run in a bare process), and a 16 MB array freed
    # and allocated again is mapped anew, so its pages fault in again
    proc = subprocess.run([sys.executable, "-c", REUSE_CHILD,
                           str(tmp_path / "r.json")],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    verb, array = map(int, proc.stdout.split())
    assert verb < 200 and array < 200


def test_subprocess_matches_in_process(tmp_path):
    proc = run_cli(FAST_DIRAC)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["passed"] is True
