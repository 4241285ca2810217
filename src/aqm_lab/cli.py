"""Batch verification CLI.

Every verb draws its random inputs from one seeded generator, runs a finite
computation, emits a report (JSON by default, CSV where a tabular layout is
defined) and exits 0 when all checks pass, 1 when any check fails, 2 on
configuration errors and 3 on internal errors. Flags override the optional
JSON config file, which in turn overrides built-in defaults; config keys
equal the flag names without the leading dashes (``n-draws`` may be spelled
``n_draws``), each given once. Flags, config keys, defaults and checks come
from one table, ``VERBS``: ``main`` seeds the generator, and builds every
check record from the values a verb's runner returns and the verb's
``report.Check`` rows, which hold the pass rule.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
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
from .dynamics import integrate_trajectory, transport_check
from .fields import LinearField, draw_field
from .geometry import conformal_transform, riemann_scalar_at, weyl_scalar_at
from .hj import EMConfig, WaveInputs, conformal_coupling, draw_wave_inputs, \
    linearization_check
from .lorentz_reps import Irrep, angular_laplacian_check, casimir_value, \
    commutator_defect, conjugation_defect, d_matrix, reps_up_to_dim, \
    vector_intertwiner
from .report import Check, build_report, check_table, dump_report, \
    spectrum_table, trajectory_table, write_csv

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL_ERROR = 3


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A flag the parser rejects is a configuration error like any other:
    one ``error: ...`` line, without the usage. Subparsers inherit this."""

    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# parameters: each declared once with its flag parser and typed check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """``parse``: flag text to value. ``check``: a value from a flag or a
    config file to the value used, or raise unless ``need``."""

    parse: Callable[[str], object]
    check: Callable[[object], object]
    need: str
    choices: tuple | None = None
    metavar: str | None = None
    repeat: bool = False


class NoExactFloat(ValueError):
    """An integer that no float equals: an error, not a rounded value."""


def _finite(v, positive: bool = False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(v)
    if isinstance(v, int) and (abs(v) > sys.float_info.max or float(v) != v):
        raise NoExactFloat(v)
    if not math.isfinite(v) or (positive and v <= 0):
        raise ValueError(v)
    return float(v)


def _int_from(low: int, need: str, high: float = math.inf) -> Kind:
    def check(v) -> int:
        if type(v) is not int or not low <= v <= high:
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


def _writable_path(v) -> str:
    """A writable file, or a new file in a writable directory; checked
    before any computation, nothing is created."""
    if type(v) is not str:
        raise TypeError(v)
    target = v if os.path.exists(v) else os.path.dirname(os.path.abspath(v))
    if not v or os.path.isdir(v) or not os.access(target, os.W_OK):
        raise ValueError(v)
    return v


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
    if not isinstance(labels, list) or not labels \
            or not all(isinstance(s, str) for s in labels):
        raise TypeError(v)
    for label in labels:
        _parse_rep(label)
    return labels


REAL = Kind(float, _finite, "a finite number")
AT_LEAST_TWO = _int_from(2, "an integer >= 2")
POSITIVE = Kind(float, lambda v: _finite(v, positive=True),
                "a finite positive number")
VECTOR = Kind(_numbers, _vector, "three finite numbers", metavar="x,y,z")
OUT_PATH = Kind(str, _writable_path, "a writable file path")
REPS = Kind(str, _rep_labels, "a 'u,v' label or a list of them",
            metavar="u,v", repeat=True)


@dataclass(frozen=True)
class Param:
    """Flag ``--name`` and config key ``name``; null only if the default is.
    ``echo``: in the payload's config echo."""

    name: str
    kind: Kind
    default: object
    help: str
    echo: bool = True

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def check(self, value):
        if value is None and self.default is None:
            return None
        try:
            return self.kind.check(value)
        except (TypeError, ValueError, OverflowError) as exc:
            why = (f", and the integer {exc.args[0]} has no exact float value"
                   if isinstance(exc, NoExactFloat) else "")
            raise ConfigError(f"{self.flag} must be {self.kind.need}; "
                              f"got {value!r}{why}") from None


SEED = Param("seed", _int_from(0, "a non-negative integer"), 0,
             "random seed driving every draw of the run")
# draw and step counts size arrays and loops; a larger count is a
# configuration error, not an allocation that fails or exhausts memory
MAX_COUNT = 10**6
N_DRAWS = Param("n_draws", _int_from(1, f"a positive integer at most "
                                        f"{MAX_COUNT}", MAX_COUNT), 10,
                f"number of random draws (points, fields or configs), at "
                f"most {MAX_COUNT}")
TOL = Param("tol", POSITIVE, None, "override the tolerance of every "
            "residual check in this verb (not floors or counts)")
# the output path is plumbing, not an input of the computation; keeping it
# out of the payload preserves byte-identity across --out choices
OUT = Param("out", OUT_PATH, None, "output path (default stdout)",
            echo=False)
FORMAT = Param("format", _one_of("json", "csv"), "json", "report format")
A = Param("a", POSITIVE, 1.0, "internal length scale")
STEP = Param("h", POSITIVE, 1e-3, "stencil step")
# outer step of verify-curvature's stencil and of verify-weyl's moved R
CURVATURE_STEP = 1e-2
H_FIELD = Param("H", VECTOR, None, "constant magnetic field "
                "(verify-dirac: drawn per draw by default)")
E_FIELD = Param("E", VECTOR, None, "constant electric field "
                "(verify-dirac: drawn per draw by default)")
KAPPA = Param("kappa", REAL, 2.0, "group-direction coupling of the potential")
MASS = Param("mass", POSITIVE, 1.0,
             "particle mass (spectrum: derive the length scale from it)")
DS = Param("ds", POSITIVE, 0.01, "integration step")
# trace's bundle is one (steps + 1, n_draws, 10) array of trajectory
# points: each count is bounded, and so is the number of points, 160 MB of
# them at the bound
MAX_BUNDLE = 2 * 10**6
STEPS = Param("steps", N_DRAWS.kind, 200,
              f"steps per trajectory, at most {MAX_COUNT}, with n-draws x "
              f"(steps + 1) at most {MAX_BUNDLE}")
SECTIONS = Param("sections", AT_LEAST_TWO, 5,
                 "number of flux cross-sections")
# trace's plane-wave start draws its spatial momentum, its rotation angles
# and its boosts in +-START_RANGE, and the seed ball moves each boost by up
# to the spread: a ball wider than SPREAD_MAX can leave the rapidity domain
START_RANGE = 0.8
SPREAD_MAX = RAPIDITY_MAX - START_RANGE


def _spread(v) -> float:
    spread = _finite(v, positive=True)
    if spread > SPREAD_MAX:
        raise ValueError(v)
    return spread


SPREAD = Param("spread", Kind(float, _spread,
                              f"a finite positive number at most "
                              f"{SPREAD_MAX:g} (the rapidity bound "
                              f"{RAPIDITY_MAX:g} less the start point's "
                              f"boost range {START_RANGE:g})"),
               0.05, "radius of the bundle seed ball")
REP = Param("rep", REPS, None, "representation label, repeatable (default: "
                               "all with dimension at most 9)")


# ---------------------------------------------------------------------------
# verb runners: each takes (cfg, rng) and returns (values, records, csv table
# or None); values maps a check name to its per-draw values or to one number
# ---------------------------------------------------------------------------


def _run_verify_curvature(cfg: dict, rng: np.random.Generator):
    # the Minkowski block is constant, so the top metric's scalar curvature
    # is its group block's: each drawn point's angles are differentiated on
    # the 6-D group metric
    metric = TopMetric(cfg["a"])
    expected = metric.riemann_scalar()
    rel_errors, records = [], []
    for _ in range(cfg["n_draws"]):
        q = sample_point(rng, boost_bound=RAPIDITY_MAX)
        r = riemann_scalar_at(metric.group, q[4:], h=cfg["h"])
        rel = abs(r - expected) / abs(expected)
        rel_errors.append(rel)
        records.append({"point": list(q), "r_scalar": r, "rel_error": rel})
    return {"curvature_max_rel_error": rel_errors,
            "curvature_mean_rel_error": rel_errors}, records, None


def _run_verify_weyl(cfg: dict, rng: np.random.Generator):
    metric = TopMetric(cfg["a"])
    r, h = metric.riemann_scalar(), cfg["h"]
    diffs, records = [], []
    for _ in range(cfg["n_draws"]):
        log_chi = draw_field(rng, 10)
        q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
        line1 = weyl_scalar_at(metric, log_chi, q, h, form="phi", r_scalar=r)
        line2 = weyl_scalar_at(metric, log_chi, q, h, form="chi", r_scalar=r)
        rel = abs(line1 - line2) / max(abs(line1), abs(line2), 1.0)
        diffs.append(rel)
        records.append({"point": list(q), "phi_form": line1, "chi_form": line2,
                        "rel_diff": rel})

    # conformal weight: rho * R_W(rho g, chi sqrt(rho)) = R_W(g, chi)
    weight_errs = []
    for _ in range(2):
        log_chi = draw_field(rng, 10)
        log_rho = draw_field(rng, 10, amp_scale=0.5)
        q = sample_point(rng, rot_scale=1.0, boost_bound=1.0)
        base = weyl_scalar_at(metric, log_chi, q, h, form="phi", r_scalar=r)
        new_metric, new_log_chi = conformal_transform(metric, log_chi, log_rho)
        r_moved = riemann_scalar_at(new_metric, q, CURVATURE_STEP)
        moved = weyl_scalar_at(new_metric, new_log_chi, q, h, form="phi",
                               r_scalar=r_moved)
        rho0 = float(np.exp(log_rho(q)))
        weight_errs.append(abs(rho0 * moved - base) / max(abs(base), 1.0))

    return {"weyl_forms_max_rel_diff": diffs,
            "weyl_conformal_weight_max_rel": weight_errs}, records, None


def _run_verify_linearization(cfg: dict, rng: np.random.Generator):
    metric = TopMetric(cfg["a"])
    r = metric.riemann_scalar()
    # the free and the field-on check (rows) share one stencil pass, and so
    # do the conformal coupling and the wrong-coupling control (columns):
    # neither the potential nor the coupling enters the fields' stencils
    ems = (EMConfig.zero(),
           EMConfig(e_field=cfg["E"], h_field=cfg["H"], kappa=cfg["kappa"]))
    couplings = np.array([conformal_coupling(metric.dim) ** 2, 0.25])

    free_defects, em_defects, control_defects, records = [], [], [], []
    for i in range(cfg["n_draws"]):
        fields = draw_wave_inputs(rng)
        q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
        defects, hj_res, div_res = linearization_check(
            fields, ems, metric, q, r_scalar=r, xi2=couplings, h=cfg["h"])
        if i < 10:
            control = defects[0, 1]
            control_defects.append(np.hypot(control.real, control.imag))
        for row, bucket in enumerate((free_defects, em_defects)):
            defect = complex(defects[row, 0])
            # |defect| as the builtin abs, but inf where abs would raise
            bucket.append(np.hypot(defect.real, defect.imag))
            records.append({
                "seed": cfg["seed"], "point": list(q),
                "hj_res": float(hj_res[row, 0]),
                "div_res": float(div_res[row]), "defect_re": defect.real,
                "defect_im": defect.imag, "em": bool(row),
            })

    return {"linearization_max_defect_free": free_defects,
            "linearization_max_defect_em": em_defects,
            "linearization_control_min_defect": control_defects}, records, None


# verify-reps hands its draws to the stacked checks this many at a time, so
# its memory does not grow with --n-draws; a default run is one chunk. A
# chunk of any size gives the values of per-draw calls bitwise, and a
# Tier-1 test pins that.
REPS_CHUNK = 5
CASIMIR_REPS = (Irrep(0, 0.5), Irrep(0.5, 0.5))



def _run_verify_reps(cfg: dict, rng: np.random.Generator):
    reps = reps_up_to_dim(9)
    thetas = rng.uniform(-1.2, 1.2, (cfg["n_draws"], 6))
    chunks = np.split(thetas, range(REPS_CHUNK, len(thetas), REPS_CHUNK))

    # the two Casimir irreps share one stencil pass per chunk
    ratios = zip(*(angular_laplacian_check(CASIMIR_REPS, t, cfg["a"])
                   for t in chunks))
    casimir_rel = []
    for rep, ratio in zip(CASIMIR_REPS, ratios):
        expected = -casimir_value(rep) / np.float64(cfg["a"]) ** 2
        dev = np.max(np.abs(np.concatenate(ratio)
                            - expected * np.eye(rep.dim)), axis=(-2, -1))
        casimir_rel.append(dev / abs(expected))

    x, sigma_min = vector_intertwiner()
    fresh = np.array([0.5, 0.1, -0.4, 0.3, -0.2, 0.6])
    resid = np.abs(d_matrix(Irrep(0.5, 0.5), fresh) @ x
                   - x @ lorentz_from_angles(fresh))

    values = {
        "reps_commutator_max_defect": commutator_defect(reps),
        "reps_conjugation_max_defect": np.concatenate(
            [conjugation_defect(reps, t) for t in chunks], axis=-1),
        "reps_laplacian_casimir_max_rel": casimir_rel,
        "reps_intertwiner_nullspace_sigma": sigma_min,
        "reps_intertwiner_fresh_residual": resid,
    }
    return values, [{"reps_checked": [r.label() for r in reps]}], None


def _run_verify_dirac(cfg: dict, rng: np.random.Generator):
    scale = MassScale(cfg["mass"])
    gaps, counterterms, records = [], [], []
    for _ in range(cfg["n_draws"]):
        h_field = np.array(cfg["H"]) if cfg["H"] is not None \
            else rng.uniform(-1.0, 1.0, 3)
        e_field = np.array(cfg["E"]) if cfg["E"] is not None \
            else rng.uniform(-1.0, 1.0, 3)
        em = EMConfig(e_field=e_field, h_field=h_field, kappa=cfg["kappa"])
        p = rng.uniform(-1.0, 1.0, 4)
        x = rng.uniform(-1.0, 1.0, 4)

        m18 = top_spinor_matrix(p, em, scale, x=x)
        m19 = squared_dirac_matrix(p, em, scale.mass, x=x)
        gap_expected = scale.a ** 2 * em.invariant_h2_e2()
        gap = float(np.max(np.abs(m18 - m19 - gap_expected * np.eye(4))))
        gaps.append(gap)

        m18_ct = top_spinor_matrix(p, em, scale, x=x, counterterm=True)
        ct = float(np.max(np.abs(m18_ct - m19)))
        counterterms.append(ct)
        records.append({"H": list(h_field), "E": list(e_field),
                        "p": list(p), "gap_defect": gap,
                        "counterterm_defect": ct})

    p_spatial = rng.uniform(-1.0, 1.0, 3)
    root = dispersion_root(p_spatial, scale)
    root_exact = float(np.sqrt(p_spatial @ p_spatial + scale.mass ** 2))

    values = {
        "dirac_clifford_max_defect": clifford_defect(),
        "dirac_gap_max_defect": gaps,
        "dirac_counterterm_max_defect": counterterms,
        "dirac_dispersion_rel_error": abs(root - root_exact) / root_exact,
        "dirac_mass_closure_defect": mass_closure_defect(),
    }
    return values, records, None


def _plane_wave_bundle_inputs(rng: np.random.Generator, n_traj: int,
                              spread: float):
    """Timelike plane-wave data, an exact solution family of the linear
    system, and the bundle's starts: the drawn start point q0 first, then
    n_traj - 1 points seeded in a ball of radius ``spread`` around it."""
    p_spatial = rng.uniform(-START_RANGE, START_RANGE, 3)
    mu = rng.uniform(0.5, 1.5)
    p0 = -float(np.sqrt(p_spatial @ p_spatial + mu ** 2))
    coeffs = np.zeros(10)
    coeffs[0] = p0
    coeffs[1:4] = p_spatial
    # the unit gauge: a zero log chi
    fields = WaveInputs(LinearField(coeffs), LinearField(np.zeros(10)))
    q0 = np.concatenate([rng.uniform(-0.5, 0.5, 4),
                         rng.uniform(-START_RANGE, START_RANGE, 3),
                         rng.uniform(-START_RANGE, START_RANGE, 3)])
    ball = spread * rng.uniform(-1.0, 1.0, (n_traj - 1, 10))
    return fields, np.vstack([q0, q0 + ball])


def _run_trace(cfg: dict, rng: np.random.Generator):
    # the plane-wave bundle solves the field-free system only
    metric = TopMetric(cfg["a"])
    em = EMConfig.zero()
    fields, starts = _plane_wave_bundle_inputs(rng, cfg["n_draws"],
                                               cfg["spread"])
    bundle = integrate_trajectory(fields, em, metric, starts, cfg["ds"],
                                  cfg["steps"], cfg["h"])
    # the start point's velocity norm is row 0 of the start evaluation; both
    # formats compute every check, so a CSV run fails where a JSON run does
    # (a degenerate start, a bundle that never left its start points)
    v0 = bundle.start_velocity[0]
    g0 = metric.matrix(starts[0])
    rep = transport_check(fields, em, metric, bundle, cfg["sections"], cfg["h"])
    values = {"trace_velocity_norm_defect": abs(abs(float(v0 @ g0 @ v0)) - 1.0),
              "trace_max_divergence": rep.max_divergence,
              "trace_flux_drift": rep.flux_drift,
              "trace_min_pairwise_distance": rep.min_distance}
    if cfg["format"] == "csv":
        return values, None, trajectory_table(bundle, cfg["ds"])
    records = [{
        "n_truncated": rep.n_truncated,
        "section_flux": rep.section_flux,
        "timelike": bool(bundle.timelike[0]),
        "samples_per_trajectory": bundle.n_samples,
    }]
    return values, records, None


def _run_spectrum(cfg: dict, rng: np.random.Generator):
    if cfg["rep"] is not None:
        reps = [_parse_rep(lbl) for lbl in cfg["rep"]]
    else:
        reps = reps_up_to_dim(9)
    # --a and --mass exclude each other; with neither, a = 1
    a = (cfg["a"] or 1.0) if cfg["mass"] is None else MassScale(cfg["mass"]).a
    records = mass_spin_spectrum(reps, a)
    n_nonfinite = sum(not math.isfinite(r["m2"]) for r in records)
    values = {"spectrum_mass_closure_defect": mass_closure_defect(),
              "spectrum_nonfinite_m2_count": n_nonfinite}
    return values, records, spectrum_table(records)


# ---------------------------------------------------------------------------
# the verb table and the entry point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verb:
    """``run(cfg, rng) -> (values, records, csv table or None)``, its
    ``params``, and its ``checks``: ``run`` gives a value for every check,
    in every format, and each check makes one record. At most one of the
    ``exclusive`` parameters, whose defaults are None, may be given."""

    help: str
    run: Callable[[dict, np.random.Generator], tuple]
    params: tuple[Param, ...]
    checks: tuple[Check, ...]
    exclusive: tuple[Param, ...] = ()

    def check(self, values: dict, tol: float | None) -> list:
        names = {c.name for c in self.checks}
        if set(values) != names:
            raise RuntimeError(f"values for {sorted(values)}, "
                               f"check rows {sorted(names)}")
        return [c.record(values[c.name], tol) for c in self.checks]


_COMMON = (SEED, TOL, OUT, FORMAT)

VERBS: dict[str, Verb] = {
    "verify-curvature": Verb(
        "scalar curvature of the top metric against 6/a^2",
        _run_verify_curvature, (*_COMMON, replace(N_DRAWS, default=50), A,
                                replace(STEP, default=CURVATURE_STEP)),
        (Check("curvature_max_rel_error", 1e-3),
         Check("curvature_mean_rel_error", 1e-4, np.mean))),
    "verify-weyl": Verb(
        "agreement of the two Weyl scalar forms and the conformal weight",
        _run_verify_weyl,
        (*_COMMON, replace(N_DRAWS, default=100), A, STEP),
        (Check("weyl_forms_max_rel_diff", 1e-6),
         Check("weyl_conformal_weight_max_rel", 1e-5))),
    "verify-linearization": Verb(
        "exact equivalence of the nonlinear pair with the linear wave equation",
        _run_verify_linearization,
        (*_COMMON, replace(N_DRAWS, default=100), A, STEP, KAPPA,
         replace(H_FIELD, default=(0.3, -0.2, 0.4)),
         replace(E_FIELD, default=(0.2, 0.1, -0.3))),
        (Check("linearization_max_defect_free", 1e-6),
         Check("linearization_max_defect_em", 1e-6),
         Check("linearization_control_min_defect", 1e-2, np.min, floor=True))),
    "verify-reps": Verb(
        "commutators, conjugation, Casimir eigenvalues and the vector "
        "equivalence",
        _run_verify_reps, (*_COMMON, replace(N_DRAWS, default=5), A),
        (Check("reps_commutator_max_defect", 1e-12),
         Check("reps_conjugation_max_defect", 1e-10),
         Check("reps_laplacian_casimir_max_rel", 1e-3),
         Check("reps_intertwiner_nullspace_sigma", 1e-10),
         Check("reps_intertwiner_fresh_residual", 1e-8))),
    "verify-dirac": Verb(
        "reduced operator against the squared Dirac operator, dispersion "
        "and mass closure",
        _run_verify_dirac,
        (*_COMMON, N_DRAWS, MASS, KAPPA, H_FIELD, E_FIELD),
        (Check("dirac_clifford_max_defect", 1e-12),
         Check("dirac_gap_max_defect", 1e-10),
         Check("dirac_counterterm_max_defect", 1e-12),
         Check("dirac_dispersion_rel_error", 1e-8),
         Check("dirac_mass_closure_defect", 1e-14))),
    "trace": Verb(
        "integrate a plane-wave trajectory bundle and report transport "
        "diagnostics",
        _run_trace,
        (SEED, TOL, OUT, replace(FORMAT, default="csv"),
         replace(N_DRAWS, kind=_int_from(2, f"an integer from 2 to "
                                            f"{MAX_COUNT}", MAX_COUNT),
                 default=8), A, STEP, DS, STEPS, SECTIONS, SPREAD),
        (Check("trace_max_divergence", 1e-6),
         Check("trace_flux_drift", 1e-6),
         Check("trace_velocity_norm_defect", 1e-10),
         Check("trace_min_pairwise_distance", 1e-6, np.min, floor=True))),
    "spectrum": Verb(
        "squared-mass spectrum over irreducible representations",
        _run_spectrum,
        (*_COMMON, replace(A, default=None), replace(MASS, default=None),
         REP),
        (Check("spectrum_mass_closure_defect", 1e-14),
         Check("spectrum_nonfinite_m2_count", 0.0)),
        exclusive=(A, MASS)),
}

# every flag defaults to None, so one parser serves every ``main`` call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aqm-lab",
        description="Numerical verification of the conformal top construction: "
                    "curvature, Weyl scalar forms, exact linearization, "
                    "representation identities, the squared spin-1/2 operator, "
                    "and trajectory bundle transport.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in VERBS.items():
        # flags match exactly: --h is not --help, --n not --n-draws
        p = sub.add_parser(name, help=verb.help, allow_abbrev=False)
        for param in verb.params:
            kind = param.kind
            p.add_argument(param.flag, dest=param.name, default=None,
                           action="append" if kind.repeat else "store",
                           type=kind.parse, choices=kind.choices,
                           metavar=kind.metavar, help=param.help)
        p.add_argument("--config", default=None,
                       help="JSON file with defaults for any flag of this verb")
    return parser


def _distinct_keys(pairs: list[tuple[str, object]]) -> dict:
    """The config file's JSON objects, each key given once in either
    spelling: a repeated key would shadow a value that is never checked."""
    seen = {}
    for key, _ in pairs:
        name = key.replace("-", "_")
        if name in seen:
            raise ConfigError(f"config key {key!r} given twice (first as "
                              f"{seen[name]!r})")
        seen[name] = key
    return dict(pairs)


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            file_cfg = json.load(fh, object_pairs_hook=_distinct_keys)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return {k.replace("-", "_"): v for k, v in file_cfg.items()}


def resolve_config(command: str, file_cfg: dict, flags: dict) -> dict:
    """Each parameter's flag value (``None``: not given), else its config
    key, else its default; every value given passes its parameter's check,
    at most one of the verb's exclusive parameters is given, and a bundle
    holds at most MAX_BUNDLE points."""
    params = VERBS[command].params
    unknown = set(file_cfg) - {p.name for p in params}
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command}: {sorted(unknown)}")
    cfg = {p.name: p.check(file_cfg.get(p.name, p.default)) for p in params}
    cfg.update((p.name, p.check(flags[p.name])) for p in params
               if flags.get(p.name) is not None)
    given = [p.flag for p in VERBS[command].exclusive
             if cfg[p.name] is not None]
    if len(given) > 1:
        raise ConfigError(" and ".join(given) + " exclude each other")
    if "steps" in cfg and cfg["n_draws"] * (cfg["steps"] + 1) > MAX_BUNDLE:
        raise ConfigError(f"--n-draws x (--steps + 1) must be at most "
                          f"{MAX_BUNDLE} trajectory points; got "
                          f"{cfg['n_draws']} x {cfg['steps'] + 1}")
    return cfg


# glibc mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let freed array memory stay in the process for the next allocation.

    The batched stencils allocate and free arrays of 0.1-10 MB on every
    call. Under glibc's default thresholds such arrays are mapped and
    unmapped, or trimmed off the heap, and their pages are faulted in again
    on the next call: about 1 700 minor page faults per 4-draw
    verify-curvature run in a process that imported nothing else. Fixing the
    thresholds at the largest values glibc's own dynamic adjustment reaches
    keeps the pages for reuse. No-op where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    try:
        args = _build_parser().parse_args(argv)
        verb = VERBS[args.command]
        cfg = resolve_config(args.command, _read_config(args.config),
                             vars(args))
        start = time.perf_counter()
        # extreme scales or steps make values non-finite; the checks report
        # them, so numpy does not warn
        with np.errstate(**EXTREME_SCALES):
            values, records, table = verb.run(
                cfg, np.random.default_rng(cfg["seed"]))
            checks = verb.check(values, cfg["tol"])
        if cfg["format"] == "csv":
            write_csv(*(table or check_table(checks)), out=cfg["out"])
        else:
            echo = {p.name: cfg[p.name] for p in verb.params if p.echo}
            report = build_report(args.command, echo, checks, records,
                                  wall_time_s=time.perf_counter() - start)
            dump_report(report, out=cfg["out"])
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    return EXIT_PASS if all(c["pass"] for c in checks) else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
