"""Batch verification CLI.

Every verb draws its random inputs from one seeded generator, runs a finite
computation, emits a report (JSON by default, CSV where a tabular layout is
defined) and exits 0 when all checks pass, 1 when any check fails, 2 on
configuration errors and 3 on internal errors. Flags override the optional
JSON config file, which in turn overrides built-in defaults; config keys
equal the flag names without the leading dashes (``n-draws`` may be spelled
``n_draws``). Flags, config keys, defaults and checks come from one table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import __version__
from .config_space import RAPIDITY_MAX, TopMetric, lorentz_from_angles, \
    sample_point
from .dirac import EXTREME_SCALES, MassScale, clifford_defect, \
    dispersion_root, mass_closure_defect, mass_spin_spectrum, \
    squared_dirac_matrix, top_spinor_matrix
from .dynamics import integrate_bundle, transport_check, velocity_field
from .fields import LinearField, draw_field
from .geometry import WeylGauge, conformal_transform, riemann_scalar_at, \
    weyl_scalar_at
from .hj import EMConfig, WaveInputs, draw_wave_inputs, linearization_check
from .lorentz_reps import Irrep, angular_laplacian_check, casimir_value, \
    commutator_defect, conjugation_defect, d_matrix, reps_up_to_dim, \
    vector_intertwiner
from .report import build_report, check_at_least, check_close, dump_report, \
    trajectory_rows, write_csv, SPECTRUM_COLUMNS, TRAJECTORY_COLUMNS

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL_ERROR = 3


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# parameters: each declared once with its flag parser and typed check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """``parse``: flag text to value (``None``: a switch). ``check``: a value
    from a flag or a config file to the value used, or raise unless ``need``."""

    parse: Callable[[str], object] | None
    check: Callable[[object], object]
    need: str
    choices: tuple | None = None
    metavar: str | None = None
    repeat: bool = False


def _finite(v, positive: bool = False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(v)
    if not math.isfinite(float(v)) or (positive and v <= 0):
        raise ValueError(v)
    return float(v)


def _int_from(low: int, need: str) -> Kind:
    def check(v) -> int:
        if type(v) is not int or v < low:
            raise ValueError(v)
        return v
    return Kind(int, check, need)


def _one_of(*choices) -> Kind:
    def check(v):
        if type(v) is not type(choices[0]) or v not in choices:
            raise ValueError(v)
        return v
    return Kind(type(choices[0]), check, " or ".join(map(str, choices)),
                choices=choices)


def _numbers(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


def _vector(v) -> tuple[float, float, float]:
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise TypeError(v)
    return tuple(_finite(x) for x in v)


def _of_type(cls):
    def check(v):
        if type(v) is not cls:
            raise TypeError(v)
        return v
    return check


def _writable_path(v) -> str:
    """A writable file, or a new file in a writable directory; checked
    before any computation, nothing is created."""
    path = _of_type(str)(v)
    target = path if os.path.exists(path) \
        else os.path.dirname(os.path.abspath(path))
    if not path or os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ValueError(v)
    return path


def _parse_rep(text: str) -> Irrep:
    def half(s: str) -> float:
        s = s.strip()
        if "/" in s:
            num, den = s.split("/")
            return float(num) / float(den)
        return float(s)

    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"bad representation label {text!r}; use 'u,v'")
    try:
        return Irrep(half(parts[0]), half(parts[1]))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"bad representation label {text!r}: {exc}")


def _rep_labels(v):
    labels = [v] if isinstance(v, str) else v
    if not isinstance(labels, list) \
            or not all(isinstance(s, str) for s in labels):
        raise TypeError(v)
    for label in labels:
        _parse_rep(label)
    return v


REAL = Kind(float, _finite, "a finite number")
AT_LEAST_TWO = _int_from(2, "an integer >= 2")
POSITIVE = Kind(float, lambda v: _finite(v, positive=True),
                "a finite positive number")
VECTOR = Kind(_numbers, _vector, "three finite numbers", metavar="x,y,z")
SWITCH = Kind(None, _of_type(bool), "true or false")
OUT_PATH = Kind(str, _writable_path, "a writable file path")
REPS = Kind(str, _rep_labels, "a 'u,v' label or a list of them",
            metavar="u,v", repeat=True)


@dataclass(frozen=True)
class Param:
    """Flag ``--name`` and config key ``name``; null only if the default is.
    ``in_file``: a config-file key; ``echo``: in the payload's config echo."""

    name: str
    kind: Kind
    default: object
    help: str
    in_file: bool = True
    echo: bool = True

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def check(self, value):
        if value is None and self.default is None:
            return None
        try:
            return self.kind.check(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{self.flag} must be {self.kind.need}; "
                              f"got {value!r}") from None


SEED = Param("seed", _int_from(0, "a non-negative integer"), 0,
             "random seed driving every draw of the run")
N_DRAWS = Param("n_draws", _int_from(1, "a positive integer"), 10,
                "number of random draws (points, fields or configs)")
TOL = Param("tol", POSITIVE, None,
            "override the tolerance of every check in this verb")
# the output path is plumbing, not an input of the computation; keeping it
# out of the payload preserves byte-identity across --out choices
OUT = Param("out", OUT_PATH, None, "output path (default stdout)",
            echo=False)
FORMAT = Param("format", _one_of("json", "csv"), "json", "report format")
A = Param("a", POSITIVE, 1.0, "internal length scale")
STEP = Param("h", POSITIVE, 1e-3, "stencil step")
ORDER = Param("order", _one_of(2, 4), 4, "stencil order")
H_FIELD = Param("H", VECTOR, None, "constant magnetic field "
                "(verify-dirac: drawn per draw by default)")
E_FIELD = Param("E", VECTOR, None, "constant electric field "
                "(verify-dirac: drawn per draw by default)")
KAPPA = Param("kappa", REAL, 2.0, "group-direction coupling of the potential")
MASS = Param("mass", POSITIVE, 1.0,
             "particle mass (spectrum: derive the length scale from it)")
COUNTERTERM = Param("counterterm", SWITCH, False,
                    "apply the field-invariant counterterm in the gap check")
DS = Param("ds", POSITIVE, 0.01, "integration step")
STEPS = Param("steps", N_DRAWS.kind, 200, "steps per trajectory")
SECTIONS = Param("sections", AT_LEAST_TWO, 5,
                 "number of flux cross-sections")
SPREAD = Param("spread", POSITIVE, 0.05, "radius of the bundle seed ball")
REP = Param("rep", REPS, None, "representation label, repeatable (default: "
                               "all with dimension at most 9)")


def _tol(cfg: dict, default: float) -> float:
    return cfg["tol"] if cfg.get("tol") is not None else default


# ---------------------------------------------------------------------------
# verb runners: each returns (checks, records, csv table or None)
# (worst cases use np.max / np.maximum: a NaN residual propagates, where
# the builtin max can drop it and pass the check)
# ---------------------------------------------------------------------------


def _run_verify_curvature(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    metric = TopMetric(cfg["a"])
    expected = metric.riemann_scalar()
    rel_errors = []
    records = []
    for _ in range(cfg["n_draws"]):
        q = sample_point(rng, boost_bound=RAPIDITY_MAX)
        r = riemann_scalar_at(metric, q, h=cfg["h"], order=cfg["order"])
        rel = abs(r - expected) / abs(expected)
        rel_errors.append(rel)
        records.append({"point": list(q), "r_scalar": r, "rel_error": rel})
    checks = [
        check_close("curvature_max_rel_error", np.max(rel_errors), 0.0,
                    _tol(cfg, 1e-3)),
        check_close("curvature_mean_rel_error",
                    float(np.mean(rel_errors)), 0.0, _tol(cfg, 1e-4)),
    ]
    return checks, records, None


def _run_verify_weyl(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    metric = TopMetric(cfg["a"])
    diffs = []
    records = []
    for _ in range(cfg["n_draws"]):
        gauge = WeylGauge.from_log(draw_field(rng, 10))
        q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
        r = metric.riemann_scalar()
        line1 = weyl_scalar_at(metric, gauge, q, h=cfg["h"], order=cfg["order"],
                               form="phi", r_scalar=r)
        line2 = weyl_scalar_at(metric, gauge, q, h=cfg["h"], order=cfg["order"],
                               form="chi", r_scalar=r)
        rel = abs(line1 - line2) / max(abs(line1), abs(line2), 1.0)
        diffs.append(rel)
        records.append({"point": list(q), "phi_form": line1, "chi_form": line2,
                        "rel_diff": rel})

    # conformal weight: rho * R_W(rho g, chi sqrt(rho)) = R_W(g, chi)
    weight_errs = []
    for _ in range(2):
        gauge = WeylGauge.from_log(draw_field(rng, 10))
        log_rho = draw_field(rng, 10, amp_scale=0.5)
        q = sample_point(rng, rot_scale=1.0, boost_bound=1.0)
        base = weyl_scalar_at(metric, gauge, q, h=cfg["h"], order=cfg["order"],
                              r_scalar=metric.riemann_scalar())
        new_metric, new_gauge = conformal_transform(metric, gauge, log_rho)
        moved = weyl_scalar_at(new_metric, new_gauge, q, h=cfg["h"],
                               order=cfg["order"])
        rho0 = float(np.exp(log_rho(q)))
        weight_errs.append(abs(rho0 * moved - base) / max(abs(base), 1.0))

    checks = [
        check_close("weyl_forms_max_rel_diff", np.max(diffs), 0.0,
                    _tol(cfg, 1e-6)),
        check_close("weyl_conformal_weight_max_rel", np.max(weight_errs), 0.0,
                    _tol(cfg, 1e-5)),
    ]
    return checks, records, None


def _run_verify_linearization(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    metric = TopMetric(cfg["a"])
    r = metric.riemann_scalar()
    em_zero = EMConfig.zero(kappa=cfg["kappa"])
    em_full = EMConfig(e_field=cfg["E"], h_field=cfg["H"], kappa=cfg["kappa"])

    free_defects, em_defects, control_defects = [], [], []
    records = []
    for i in range(cfg["n_draws"]):
        fields = draw_wave_inputs(rng)
        q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
        for em, bucket, tag in ((em_zero, free_defects, False),
                                (em_full, em_defects, True)):
            defect, hj_res, div_res = linearization_check(
                fields, em, metric, q, r_scalar=r, h=cfg["h"],
                order=cfg["order"])
            bucket.append(abs(defect))
            records.append({
                "seed": cfg["seed"], "point": list(q), "hj_res": hj_res,
                "div_res": div_res, "defect_re": defect.real,
                "defect_im": defect.imag, "em": tag,
            })
        if i < 10:
            control, _, _ = linearization_check(
                fields, em_zero, metric, q, xi2=0.25, r_scalar=r,
                h=cfg["h"], order=cfg["order"])
            control_defects.append(abs(control))

    checks = [
        check_close("linearization_max_defect_free", np.max(free_defects), 0.0,
                    _tol(cfg, 1e-6)),
        check_close("linearization_max_defect_em", np.max(em_defects), 0.0,
                    _tol(cfg, 1e-6)),
        check_at_least("linearization_control_min_defect",
                       np.min(control_defects), 1e-2),
    ]
    return checks, records, None


def _run_verify_reps(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    reps = reps_up_to_dim(9)
    thetas = [np.concatenate([rng.uniform(-1.2, 1.2, 3),
                              rng.uniform(-1.2, 1.2, 3)])
              for _ in range(cfg["n_draws"])]

    comm_defect = np.max([commutator_defect(rep) for rep in reps])
    conj_defect = np.max([conjugation_defect(rep, theta)
                          for rep in reps for theta in thetas])

    casimir_rel = 0.0
    for rep in (Irrep(0, 0.5), Irrep(0.5, 0.5)):
        expected = -casimir_value(rep) / cfg["a"] ** 2
        for theta in thetas:
            ratio = angular_laplacian_check(rep, theta, a=cfg["a"],
                                            order=cfg["order"])
            dev = float(np.max(np.abs(ratio - expected * np.eye(rep.dim))))
            casimir_rel = np.maximum(casimir_rel, dev / abs(expected))

    x, sigma_min = vector_intertwiner()
    fresh = np.array([0.5, 0.1, -0.4, 0.3, -0.2, 0.6])
    resid = float(np.max(np.abs(
        d_matrix(Irrep(0.5, 0.5), fresh) @ x - x @ lorentz_from_angles(fresh))))

    checks = [
        check_close("reps_commutator_max_defect", comm_defect, 0.0,
                    _tol(cfg, 1e-12)),
        check_close("reps_conjugation_max_defect", conj_defect, 0.0,
                    _tol(cfg, 1e-10)),
        check_close("reps_laplacian_casimir_max_rel", casimir_rel, 0.0,
                    _tol(cfg, 1e-3)),
        check_close("reps_intertwiner_nullspace_sigma", sigma_min, 0.0,
                    _tol(cfg, 1e-10)),
        check_close("reps_intertwiner_fresh_residual", resid, 0.0,
                    _tol(cfg, 1e-8)),
    ]
    records = [{"reps_checked": [r.label() for r in reps]}]
    return checks, records, None


def _run_verify_dirac(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    scale = MassScale(cfg["mass"])
    a = scale.a

    gap_defect = 0.0
    ct_defect = 0.0
    records = []
    for _ in range(cfg["n_draws"]):
        h_field = np.array(cfg["H"]) if cfg["H"] is not None \
            else rng.uniform(-1.0, 1.0, 3)
        e_field = np.array(cfg["E"]) if cfg["E"] is not None \
            else rng.uniform(-1.0, 1.0, 3)
        em = EMConfig(e_field=e_field, h_field=h_field, kappa=cfg["kappa"])
        p = rng.uniform(-1.0, 1.0, 4)
        x = rng.uniform(-1.0, 1.0, 4)

        m18 = top_spinor_matrix(p, em, scale, x=x,
                                counterterm=bool(cfg["counterterm"]))
        m19 = squared_dirac_matrix(p, em, scale.mass, x=x)
        gap_expected = 0.0 if cfg["counterterm"] \
            else (em.e_charge * a) ** 2 * em.invariant_h2_e2()
        gap = float(np.max(np.abs(m18 - m19 - gap_expected * np.eye(4))))
        gap_defect = np.maximum(gap_defect, gap)

        m18_ct = top_spinor_matrix(p, em, scale, x=x, counterterm=True)
        ct = float(np.max(np.abs(m18_ct - m19)))
        ct_defect = np.maximum(ct_defect, ct)
        records.append({"H": list(h_field), "E": list(e_field),
                        "p": list(p), "gap_defect": gap,
                        "counterterm_defect": ct})

    p_spatial = rng.uniform(-1.0, 1.0, 3)
    root = dispersion_root(p_spatial, scale)
    root_exact = float(np.sqrt(p_spatial @ p_spatial + scale.mass ** 2))
    disp_rel = abs(root - root_exact) / root_exact

    checks = [
        check_close("dirac_clifford_max_defect", clifford_defect(), 0.0,
                    _tol(cfg, 1e-12)),
        check_close("dirac_gap_max_defect", gap_defect, 0.0, _tol(cfg, 1e-10)),
        check_close("dirac_counterterm_max_defect", ct_defect, 0.0,
                    _tol(cfg, 1e-12)),
        check_close("dirac_dispersion_rel_error", disp_rel, 0.0, _tol(cfg, 1e-8)),
        check_close("dirac_mass_closure_defect", mass_closure_defect(), 0.0,
                    _tol(cfg, 1e-14)),
    ]
    return checks, records, None


def _plane_wave_bundle_inputs(cfg: dict, rng: np.random.Generator):
    """Timelike plane-wave data: exact solution family of the linear system."""
    p_spatial = rng.uniform(-0.8, 0.8, 3)
    mu = rng.uniform(0.5, 1.5)
    p0 = -float(np.sqrt(p_spatial @ p_spatial + mu ** 2))
    coeffs = np.zeros(10)
    coeffs[0] = p0
    coeffs[1:4] = p_spatial
    fields = WaveInputs(s_field=LinearField(coeffs), gauge=WeylGauge.unit())
    q0 = np.concatenate([rng.uniform(-0.5, 0.5, 4),
                         rng.uniform(-0.8, 0.8, 3),
                         rng.uniform(-0.8, 0.8, 3)])
    return fields, q0


def _run_trace(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    metric = TopMetric(cfg["a"])
    em = EMConfig(e_field=cfg["E"], h_field=cfg["H"], kappa=cfg["kappa"])
    fields, q0 = _plane_wave_bundle_inputs(cfg, rng)
    bundle = integrate_bundle(fields, em, metric, q0, rng,
                              n_traj=cfg["n_draws"], spread=cfg["spread"],
                              ds=cfg["ds"], n_steps=cfg["steps"],
                              h=cfg["h"], order=cfg["order"])
    if cfg["format"] == "csv":
        return [], None, (TRAJECTORY_COLUMNS, trajectory_rows(bundle))

    rep = transport_check(fields, em, metric, bundle,
                          n_sections=cfg["sections"], h=cfg["h"],
                          order=cfg["order"])
    v0, norm2 = velocity_field(fields, em, metric, q0, h=cfg["h"],
                               order=cfg["order"])
    g0 = metric.matrix(q0)
    norm_defect = abs(abs(float(v0 @ g0 @ v0)) - 1.0)

    checks = [
        check_close("trace_max_divergence", rep.max_divergence, 0.0,
                    _tol(cfg, 1e-6)),
        check_close("trace_flux_drift", rep.flux_drift, 0.0, _tol(cfg, 1e-6)),
        check_close("trace_velocity_norm_defect", norm_defect, 0.0,
                    _tol(cfg, 1e-10)),
        check_at_least("trace_min_pairwise_distance", rep.min_distance, 1e-6),
    ]
    records = [{
        "n_truncated": rep.n_truncated,
        "section_flux": rep.section_flux,
        "timelike": bool(norm2 < 0),
        "samples_per_trajectory": [t.n_samples for t in bundle],
    }]
    return checks, records, None


def _run_spectrum(cfg: dict):
    if cfg["rep"] is not None:
        labels = cfg["rep"] if isinstance(cfg["rep"], list) else [cfg["rep"]]
        reps = [_parse_rep(lbl) for lbl in labels]
    else:
        reps = reps_up_to_dim(9)
    if cfg["a"] is not None:
        a = cfg["a"]
    elif cfg["mass"] is not None:
        a = MassScale(cfg["mass"]).a
    else:
        a = 1.0
    records = mass_spin_spectrum(reps, a)
    n_nonfinite = sum(not math.isfinite(r["m2"]) for r in records)
    checks = [
        check_close("spectrum_mass_closure_defect", mass_closure_defect(),
                    0.0, _tol(cfg, 1e-14)),
        # a count, not a residual: --tol does not reach it
        check_close("spectrum_nonfinite_m2_count", n_nonfinite, 0.0, 0.0),
    ]
    rows = [[r["u"], r["v"], r["casimir"], r["m2"]] for r in records]
    return checks, records, (SPECTRUM_COLUMNS, rows)


# ---------------------------------------------------------------------------
# the verb table and the entry point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verb:
    help: str
    run: Callable[[dict], tuple]
    params: tuple[Param, ...]


_ZERO = (0.0, 0.0, 0.0)
_COMMON = (SEED, TOL, OUT, FORMAT)

VERBS: dict[str, Verb] = {
    "verify-curvature": Verb(
        "scalar curvature of the top metric against 6/a^2",
        _run_verify_curvature, (*_COMMON, replace(N_DRAWS, default=50), A,
                                replace(STEP, default=1e-2), ORDER)),
    "verify-weyl": Verb(
        "agreement of the two Weyl scalar forms and the conformal weight",
        _run_verify_weyl,
        (*_COMMON, replace(N_DRAWS, default=100), A, STEP, ORDER)),
    "verify-linearization": Verb(
        "exact equivalence of the nonlinear pair with the linear wave equation",
        _run_verify_linearization,
        (*_COMMON, replace(N_DRAWS, default=100), A, STEP, ORDER, KAPPA,
         replace(H_FIELD, default=(0.3, -0.2, 0.4)),
         replace(E_FIELD, default=(0.2, 0.1, -0.3)))),
    "verify-reps": Verb(
        "commutators, conjugation, Casimir eigenvalues and the vector "
        "equivalence",
        _run_verify_reps, (*_COMMON, replace(N_DRAWS, default=5), A, ORDER)),
    "verify-dirac": Verb(
        "reduced operator against the squared Dirac operator, dispersion "
        "and mass closure",
        _run_verify_dirac,
        (*_COMMON, N_DRAWS, MASS, KAPPA, H_FIELD, E_FIELD, COUNTERTERM)),
    "trace": Verb(
        "integrate a plane-wave trajectory bundle and report transport "
        "diagnostics",
        _run_trace,
        (SEED, TOL, OUT, replace(FORMAT, default="csv"),
         replace(N_DRAWS, kind=AT_LEAST_TWO, default=8), A, STEP, ORDER,
         KAPPA, replace(H_FIELD, default=_ZERO),
         replace(E_FIELD, default=_ZERO), DS, STEPS, SECTIONS, SPREAD)),
    "spectrum": Verb(
        "squared-mass spectrum over irreducible representations",
        _run_spectrum,
        (SEED, OUT, FORMAT, replace(TOL, in_file=False, echo=False),
         replace(A, default=None), replace(MASS, default=None), REP)),
}

CHECK_COLUMNS = ["name", "value", "expected", "tolerance", "pass"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqm-lab",
        description="Numerical verification of the conformal top construction: "
                    "curvature, Weyl scalar forms, exact linearization, "
                    "representation identities, the squared spin-1/2 operator, "
                    "and trajectory bundle transport.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        for param in verb.params:
            kind = param.kind
            if kind.parse is None:
                p.add_argument(param.flag, dest=param.name, default=None,
                               action="store_true", help=param.help)
            else:
                p.add_argument(param.flag, dest=param.name, default=None,
                               action="append" if kind.repeat else "store",
                               type=kind.parse, choices=kind.choices,
                               metavar=kind.metavar, help=param.help)
        p.add_argument("--config", default=None,
                       help="JSON file with defaults for any flag of this verb")
    return parser


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in file_cfg.items()}


def resolve_config(command: str, file_cfg: dict, flags: dict) -> dict:
    """Each parameter's flag value (``None``: not given), else its config
    key, else its default; every value given passes its parameter's check."""
    params = VERBS[command].params
    unknown = set(file_cfg) - {p.name for p in params if p.in_file}
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command}: {sorted(unknown)}")
    cfg = {p.name: p.check(file_cfg.get(p.name, p.default)) for p in params}
    cfg.update((p.name, p.check(flags[p.name])) for p in params
               if flags.get(p.name) is not None)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    verb = VERBS[args.command]
    try:
        cfg = resolve_config(args.command, _read_config(args.config),
                             vars(args))
        start = time.perf_counter()
        # extreme scales or steps make values non-finite; the checks report
        # them, so numpy does not warn
        with np.errstate(**EXTREME_SCALES):
            checks, records, table = verb.run(cfg)
        if cfg["format"] == "csv":
            if table is None:
                table = (CHECK_COLUMNS,
                         [[c.name, c.value, c.expected, c.tolerance,
                           int(c.passed)]
                          for c in sorted(checks, key=lambda c: c.name)])
            write_csv(*table, out=cfg["out"])
        else:
            echo = {p.name: cfg[p.name] for p in verb.params if p.echo}
            report = build_report(args.command, echo, checks, records,
                                  wall_time_s=time.perf_counter() - start)
            dump_report(report, out=cfg["out"])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    return EXIT_PASS if all(c.passed for c in checks) else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
