import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqm_lab.cli import VERBS, ConfigError, main, resolve_config

FAST_DIRAC = ["verify-dirac", "--n-draws", "2"]
ROOT = Path(__file__).resolve().parents[1]


def run_cli(args):
    # the child imports this checkout as the in-process tests do, with or
    # without PYTHONPATH=src set (pytest's pythonpath reaches only itself)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "aqm_lab.cli"] + args,
                          capture_output=True, text=True, env=env)


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


def test_tol_overrides_every_check(capsys):
    for argv in (FAST_DIRAC, ["spectrum"]):
        code = main(argv + ["--tol", "1e-3"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == 0
        assert all(c["tolerance"] == 1e-3
                   for c in report["payload"]["checks"]
                   if c["name"] != "spectrum_nonfinite_m2_count")
    main(["spectrum", "--tol", "1e-300"])
    checks = json.loads(capsys.readouterr().out)["payload"]["checks"]
    # the non-finite count is not a residual: its tolerance stays 0
    assert [c["tolerance"] for c in checks] == [1e-300, 0.0]


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


def test_malformed_config_is_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["verify-dirac", "--config", str(cfg)]) == 2
    for bad in ({"order": 3}, {"n_draws": True}, {"seed": "x"}, {"seed": -1},
                {"seed": 1.5}, {"a": "1"}, {"format": "xml"}, {"out": 5}):
        cfg.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["verify-curvature", "--config", str(cfg)]) == 2, bad
        assert_one_line_error(capsys)
    for bad in ({"kappa": None}, {"H": "abc"}, {"counterterm": "no"}):
        cfg.write_text(json.dumps(bad))
        assert main(["verify-dirac", "--config", str(cfg)]) == 2, bad
        assert_one_line_error(capsys)
    cfg.write_text(json.dumps({"n_draws": 1}))
    assert main(["trace", "--config", str(cfg)]) == 2
    assert_one_line_error(capsys, "error: --n-draws ")
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
    ["verify-weyl", "--n-draws", "1", "--h", "1e-300"],
    ["trace", "--n-draws", "2", "--steps", "5", "--h", "1e-300",
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


# config fuzz: the verb's own keys plus junk keys, with JSON values
JUNK_KEYS = ["draws", "config", "verbose", "n_draw", "Tol"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6)
    | st.sampled_from([0, 1, 2, 4, 0.5, 1e-3, "json", "csv", "0,1/2",
                       "1/2,1/2", [0.1, -0.2, 0.3], ["0,1/2"]]),
    lambda inner: st.lists(inner, max_size=4), max_leaves=6)


def file_keys(verb):
    return [p.name for p in VERBS[verb].params if p.in_file]


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
    assert cfg.get("order", 4) in (2, 4) and type(cfg.get("order", 4)) is int
    for key in ("a", "h", "mass", "ds", "spread"):
        assert cfg.get(key) is None or is_finite_number(cfg[key], True)
    assert is_finite_number(cfg.get("kappa", 0.0))
    for key in ("H", "E"):
        vec = cfg.get(key)
        assert vec is None or (len(vec) == 3
                               and all(is_finite_number(x) for x in vec))
    assert type(cfg.get("counterterm", False)) is bool
    for key, value in raw.items():
        assert cfg[key] == (tuple(value) if key in ("H", "E") and value
                            is not None else value)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None)
@given(fuzzed_configs(["verify-dirac", "spectrum"]))
def test_fuzzed_config_runs_end_to_end(fuzz_dir, case):
    verb, raw = case
    cfg_path, out = fuzz_dir / "cfg.json", fuzz_dir / "out"
    cfg_path.write_text(json.dumps(raw))
    flags = {"out": str(out)}
    argv = [verb, "--config", str(cfg_path), "--out", str(out)]
    if verb == "verify-dirac":
        flags["n_draws"] = 1
        argv += ["--n-draws", "1"]
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


def test_subprocess_matches_in_process(tmp_path):
    proc = run_cli(FAST_DIRAC)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["passed"] is True
