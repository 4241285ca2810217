"""Batch verification CLI.

Every verb draws its random inputs from one seeded generator, runs a finite
computation, emits a report (JSON by default, CSV where a tabular layout is
defined) and exits 0 when all checks pass, 1 when any check fails, and 2 on
configuration errors. Flags override the optional JSON config file, which
in turn overrides built-in defaults; config keys equal the flag names
without the leading dashes (``n-draws`` may be spelled ``n_draws``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .config_space import RAPIDITY_MAX, TopMetric, lorentz_from_angles, \
    sample_point
from .dirac import MassScale, clifford_defect, dispersion_root, \
    mass_closure_defect, mass_spin_spectrum, squared_dirac_matrix, \
    top_spinor_matrix
from .dynamics import integrate_bundle, transport_check, velocity_field
from .fields import LinearField, draw_field
from .geometry import WeylGauge, conformal_transform, riemann_scalar_at, \
    weyl_scalar_at
from .hj import EMConfig, WaveInputs, conformal_coupling, draw_wave_inputs, \
    linearization_check
from .lorentz_reps import Irrep, angular_laplacian_check, casimir_value, \
    commutator_defect, conjugation_defect, d_matrix, reps_up_to_dim, \
    vector_intertwiner
from .report import build_report, check_at_least, check_close, dump_report, \
    trajectory_rows, write_csv, SPECTRUM_COLUMNS, TRAJECTORY_COLUMNS

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

_DEFAULTS: dict[str, dict] = {
    "verify-curvature": {
        "seed": 0, "n_draws": 50, "a": 1.0, "h": 1e-2, "order": 4,
        "tol": None, "out": None, "format": "json",
    },
    "verify-weyl": {
        "seed": 0, "n_draws": 100, "a": 1.0, "h": 1e-3, "order": 4,
        "tol": None, "out": None, "format": "json",
    },
    "verify-linearization": {
        "seed": 0, "n_draws": 100, "a": 1.0, "h": 1e-3, "order": 4,
        "H": (0.3, -0.2, 0.4), "E": (0.2, 0.1, -0.3), "kappa": 2.0,
        "tol": None, "out": None, "format": "json",
    },
    "verify-reps": {
        "seed": 0, "n_draws": 5, "a": 1.0, "order": 4,
        "tol": None, "out": None, "format": "json",
    },
    "verify-dirac": {
        "seed": 0, "n_draws": 10, "mass": 1.0, "kappa": 2.0,
        "H": None, "E": None, "counterterm": False,
        "tol": None, "out": None, "format": "json",
    },
    "trace": {
        "seed": 0, "n_draws": 8, "a": 1.0, "h": 1e-3, "order": 4,
        "H": (0.0, 0.0, 0.0), "E": (0.0, 0.0, 0.0), "kappa": 2.0,
        "ds": 0.01, "steps": 200, "sections": 5, "spread": 0.05,
        "tol": None, "out": None, "format": "csv",
    },
    "spectrum": {
        "seed": 0, "a": None, "mass": None, "rep": None,
        "out": None, "format": "json",
    },
}


def _vec3(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return (x, y, z)


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
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad representation label {text!r}: {exc}")


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

    def add_common(p, with_draws=True):
        p.add_argument("--seed", type=int, default=None,
                       help="random seed driving every draw of the run")
        if with_draws:
            p.add_argument("--n-draws", dest="n_draws", type=int, default=None,
                           help="number of random draws (points, fields or configs)")
        p.add_argument("--tol", type=float, default=None,
                       help="override the tolerance of every check in this verb")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="report format")
        p.add_argument("--config", default=None,
                       help="JSON file with defaults for any flag of this verb")

    p = sub.add_parser("verify-curvature",
                       help="scalar curvature of the top metric against 6/a^2")
    add_common(p)
    p.add_argument("--a", type=float, default=None, help="internal length scale")
    p.add_argument("--h", type=float, default=None, help="stencil step")
    p.add_argument("--order", type=int, choices=(2, 4), default=None)

    p = sub.add_parser("verify-weyl",
                       help="agreement of the two Weyl scalar forms and the "
                            "conformal weight")
    add_common(p)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--order", type=int, choices=(2, 4), default=None)

    p = sub.add_parser("verify-linearization",
                       help="exact equivalence of the nonlinear pair with the "
                            "linear wave equation")
    add_common(p)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--order", type=int, choices=(2, 4), default=None)
    p.add_argument("--H", type=_vec3, default=None, metavar="x,y,z",
                   help="magnetic field for the coupled draws")
    p.add_argument("--E", type=_vec3, default=None, metavar="x,y,z",
                   help="electric field for the coupled draws")
    p.add_argument("--kappa", type=float, default=None,
                   help="group-direction coupling of the potential")

    p = sub.add_parser("verify-reps",
                       help="commutators, conjugation, Casimir eigenvalues and "
                            "the vector equivalence")
    add_common(p)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--order", type=int, choices=(2, 4), default=None)

    p = sub.add_parser("verify-dirac",
                       help="reduced operator against the squared Dirac "
                            "operator, dispersion and mass closure")
    add_common(p)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--H", type=_vec3, default=None, metavar="x,y,z",
                   help="fix the magnetic field instead of drawing it")
    p.add_argument("--E", type=_vec3, default=None, metavar="x,y,z",
                   help="fix the electric field instead of drawing it")
    p.add_argument("--counterterm", action="store_true", default=None,
                   help="apply the field-invariant counterterm in the gap check")

    p = sub.add_parser("trace",
                       help="integrate a plane-wave trajectory bundle and "
                            "report transport diagnostics")
    add_common(p)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--order", type=int, choices=(2, 4), default=None)
    p.add_argument("--H", type=_vec3, default=None, metavar="x,y,z")
    p.add_argument("--E", type=_vec3, default=None, metavar="x,y,z")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--ds", type=float, default=None, help="integration step")
    p.add_argument("--steps", type=int, default=None, help="steps per trajectory")
    p.add_argument("--sections", type=int, default=None,
                   help="number of flux cross-sections")
    p.add_argument("--spread", type=float, default=None,
                   help="radius of the bundle seed ball")

    p = sub.add_parser("spectrum",
                       help="squared-mass spectrum over irreducible representations")
    add_common(p, with_draws=False)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--mass", type=float, default=None,
                   help="derive the length scale from this mass")
    p.add_argument("--rep", action="append", default=None, metavar="u,v",
                   help="representation label, repeatable (default: all with "
                            "dimension at most 9)")

    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    defaults = dict(_DEFAULTS[args.command])
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        file_cfg = {str(k).replace("-", "_"): v for k, v in file_cfg.items()}
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown config keys for {args.command}: {sorted(unknown)}")

    cfg = {}
    for key, builtin in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = flag_val
        elif key in file_cfg:
            cfg[key] = file_cfg[key]
        else:
            cfg[key] = builtin

    for key in ("H", "E"):
        if cfg.get(key) is not None:
            vec = tuple(float(x) for x in cfg[key])
            if len(vec) != 3:
                raise ConfigError(f"--{key} needs three components")
            cfg[key] = vec
    _validate(args.command, cfg)
    return cfg


def _validate(command: str, cfg: dict) -> None:
    if "n_draws" in cfg and (type(cfg["n_draws"]) is not int
                             or cfg["n_draws"] < 1):
        raise ConfigError("--n-draws must be a positive integer")
    if "order" in cfg and cfg["order"] not in (2, 4):
        raise ConfigError("--order must be 2 or 4")
    if cfg.get("a") is not None and cfg["a"] <= 0:
        raise ConfigError("--a must be positive")
    if cfg.get("mass") is not None and cfg["mass"] <= 0:
        raise ConfigError("--mass must be positive")
    if cfg.get("tol") is not None and cfg["tol"] <= 0:
        raise ConfigError("--tol must be positive")
    if cfg.get("h") is not None and cfg["h"] <= 0:
        raise ConfigError("--h must be positive")
    if command == "trace":
        if cfg["ds"] <= 0 or cfg["steps"] < 1 or cfg["sections"] < 2:
            raise ConfigError("trace needs ds > 0, steps >= 1, sections >= 2")
        if cfg["spread"] <= 0:
            raise ConfigError("--spread must be positive")


def _tol(cfg: dict, default: float) -> float:
    return cfg["tol"] if cfg.get("tol") is not None else default


# ---------------------------------------------------------------------------
# verb runners: each returns (checks, records)
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
        check_close("curvature_max_rel_error", max(rel_errors), 0.0,
                    _tol(cfg, 1e-3)),
        check_close("curvature_mean_rel_error",
                    float(np.mean(rel_errors)), 0.0, _tol(cfg, 1e-4)),
    ]
    return checks, records


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
        new_metric, new_gauge = conformal_transform(
            metric, gauge, rho=lambda p: float(np.exp(log_rho(p))),
            log_rho=log_rho)
        moved = weyl_scalar_at(new_metric, new_gauge, q, h=cfg["h"],
                               order=cfg["order"])
        rho0 = float(np.exp(log_rho(q)))
        weight_errs.append(abs(rho0 * moved - base) / max(abs(base), 1.0))

    checks = [
        check_close("weyl_forms_max_rel_diff", max(diffs), 0.0, _tol(cfg, 1e-6)),
        check_close("weyl_conformal_weight_max_rel", max(weight_errs), 0.0,
                    _tol(cfg, 1e-5)),
    ]
    return checks, records


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
        check_close("linearization_max_defect_free", max(free_defects), 0.0,
                    _tol(cfg, 1e-6)),
        check_close("linearization_max_defect_em", max(em_defects), 0.0,
                    _tol(cfg, 1e-6)),
        check_at_least("linearization_control_min_defect",
                       min(control_defects), 1e-2),
    ]
    return checks, records


def _run_verify_reps(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    reps = reps_up_to_dim(9)
    thetas = [np.concatenate([rng.uniform(-1.2, 1.2, 3),
                              rng.uniform(-1.2, 1.2, 3)])
              for _ in range(cfg["n_draws"])]

    comm_defect = max(commutator_defect(rep) for rep in reps)
    conj_defect = max(conjugation_defect(rep, theta)
                      for rep in reps for theta in thetas)

    casimir_rel = 0.0
    for rep in (Irrep(0, 0.5), Irrep(0.5, 0.5)):
        expected = -casimir_value(rep) / cfg["a"] ** 2
        for theta in thetas:
            ratio = angular_laplacian_check(rep, theta, a=cfg["a"],
                                            order=cfg["order"])
            dev = float(np.max(np.abs(ratio - expected * np.eye(rep.dim))))
            casimir_rel = max(casimir_rel, dev / abs(expected))

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
    return checks, records


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
        m19 = squared_dirac_matrix(p, em, cfg["mass"], x=x)
        gap_expected = 0.0 if cfg["counterterm"] \
            else (em.e_charge * a) ** 2 * em.invariant_h2_e2()
        gap = float(np.max(np.abs(m18 - m19 - gap_expected * np.eye(4))))
        gap_defect = max(gap_defect, gap)

        m18_ct = top_spinor_matrix(p, em, scale, x=x, counterterm=True)
        ct = float(np.max(np.abs(m18_ct - m19)))
        ct_defect = max(ct_defect, ct)
        records.append({"H": list(h_field), "E": list(e_field), "p": list(p),
                        "gap_defect": gap, "counterterm_defect": ct})

    p_spatial = rng.uniform(-1.0, 1.0, 3)
    root = dispersion_root(p_spatial, scale)
    root_exact = float(np.sqrt(p_spatial @ p_spatial + cfg["mass"] ** 2))
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
    return checks, records


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
        return bundle, None, None

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
    return bundle, checks, records


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
    checks = [
        check_close("spectrum_mass_closure_defect", mass_closure_defect(),
                    0.0, 1e-14),
    ]
    return records, checks


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = _merge_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    start = time.perf_counter()
    try:
        if args.command == "trace":
            bundle, checks, records = _run_trace(cfg)
            if cfg["format"] == "csv":
                write_csv(TRAJECTORY_COLUMNS, trajectory_rows(bundle),
                          out=cfg["out"])
                return EXIT_PASS
        elif args.command == "spectrum":
            spec_records, checks = _run_spectrum(cfg)
            if cfg["format"] == "csv":
                rows = [[r["u"], r["v"], r["casimir"], r["m2"]]
                        for r in spec_records]
                write_csv(SPECTRUM_COLUMNS, rows, out=cfg["out"])
                return EXIT_PASS
            records = spec_records
        else:
            runner = {
                "verify-curvature": _run_verify_curvature,
                "verify-weyl": _run_verify_weyl,
                "verify-linearization": _run_verify_linearization,
                "verify-reps": _run_verify_reps,
                "verify-dirac": _run_verify_dirac,
            }[args.command]
            checks, records = runner(cfg)
            if cfg["format"] == "csv":
                rows = [[c.name, c.value, c.expected, c.tolerance,
                         int(c.passed)] for c in sorted(checks,
                                                        key=lambda c: c.name)]
                write_csv(["name", "value", "expected", "tolerance", "pass"],
                          rows, out=cfg["out"])
                return EXIT_PASS if all(c.passed for c in checks) \
                    else EXIT_CHECK_FAILURE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    wall = time.perf_counter() - start
    report = build_report(args.command, _echo(cfg), checks, records,
                          wall_time_s=wall)
    dump_report(report, out=cfg["out"])
    return EXIT_PASS if report["payload"]["passed"] else EXIT_CHECK_FAILURE


def _echo(cfg: dict) -> dict:
    # the output path is plumbing, not an input of the computation; keeping
    # it out of the payload preserves byte-identity across --out choices
    out = {}
    for key, val in cfg.items():
        if key == "out":
            continue
        if isinstance(val, tuple):
            out[key] = list(val)
        else:
            out[key] = val
    return out


if __name__ == "__main__":
    sys.exit(main())
