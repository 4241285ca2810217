"""The independence the checks rest on, as call-graph tests.

Each row names the computation of one side of a check and the functions
that side must never reach, each by its module and name under ``aqm_lab``
(``hj.wave_operator``, ``config_space.GroupMetric.inverse``). The test
patches every module binding of each named function, or the method on its
class, with a guard and runs the whole check: a guard raises when it is
called while a side that forbids it is running, and records every other
call. A dynamic test is not fooled by an alias or an import under another
name.

The linearization identity (W psi)/psi = HJ residual - i chi^(n-2) div
holds only if the wave side and the Hamilton-Jacobi side are computed
apart. By design they share the values of the check's inputs, S, log chi,
the Killing fields and sqrt g, each evaluated once per point array by the
check's store, and the Laplace-Beltrami primitive; nothing one side derives
reaches the other.

The curvature check differentiates the group metric's ``matrix`` alone,
never its inverse or sqrt g closed forms, the Killing fields behind them,
or the closed-form R it is compared with. The Casimir check never reads
the Casimir value it is compared with. The two sides of the squared-Dirac
reduction share by design the symbol of Pi_mu Pi_nu on the plane wave;
the reduced side never reaches the gamma matrices, and the Dirac side
never reaches the spin coupling block, the Casimir value or the irrep
generators.

The Weyl scalar computes no curvature: its R is always its caller's
argument, so it reaches neither the closed-form R nor the finite-difference
Riemann scalar. Its two forms share by design the Laplace-Beltrami
primitive and the top metric's inverse. The Riemann scalar that the
conformal-weight check takes of the rescaled metric and passes in is, as
in the curvature check, a result of ``matrix`` alone: it never reaches the
top metric's inverse, sqrt g or closed-form R, or the Killing fields.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from aqm_lab import hj
from aqm_lab.cli import main
from aqm_lab.config_space import TopMetric, sample_point


@dataclass(frozen=True)
class Row:
    """``side`` never reaches a ``forbidden`` function, and reaches each
    ``shared`` one, which the other side reaches too."""

    side: str
    forbidden: tuple[str, ...]
    shared: tuple[str, ...]


# the functions are named by their hj binding. A psi made by wave_ansatz
# counts as wave_ansatz: the Hamilton-Jacobi side may not read the wave's
# field either
LINEARIZATION = (
    Row("hj.wave_operator",
        forbidden=("hj.raised_momentum", "hj.born_density", "hj.hj_residual",
                   "hj.divergence_residual", "hj.weyl_scalar_at"),
        shared=("hj.laplace_beltrami",)),
    Row("hj.hj_residual", forbidden=("hj.wave_ansatz", "hj.wave_operator"),
        shared=("hj.laplace_beltrami",)),
    Row("hj.divergence_residual",
        forbidden=("hj.wave_ansatz", "hj.wave_operator"), shared=()),
)
CURVATURE = (
    Row("geometry.riemann_scalar_at",
        forbidden=("config_space.GroupMetric.inverse",
                   "config_space.GroupMetric.sqrt_det",
                   "config_space.killing_vectors",
                   "config_space.TopMetric.riemann_scalar"),
        shared=()),
)
REPRESENTATIONS = (
    Row("lorentz_reps.angular_laplacian_check",
        forbidden=("lorentz_reps.casimir_value",), shared=()),
)
WEYL = (
    Row("geometry.weyl_scalar_at",
        forbidden=("config_space.TopMetric.riemann_scalar",
                   "geometry.riemann_scalar_at"),
        shared=("geometry.laplace_beltrami",
                "config_space.TopMetric.inverse")),
    Row("geometry.riemann_scalar_at",
        forbidden=("config_space.TopMetric.inverse",
                   "config_space.TopMetric.sqrt_det",
                   "config_space.killing_vectors",
                   "config_space.TopMetric.riemann_scalar"),
        shared=()),
)
SQUARED_DIRAC = (
    Row("dirac.top_spinor_matrix",
        forbidden=("dirac.gamma_matrices", "dirac.squared_dirac_matrix"),
        shared=("dirac.momentum_product_symbol",)),
    Row("dirac.squared_dirac_matrix",
        forbidden=("dirac.spin_coupling_matrix", "lorentz_reps.casimir_value",
                   "lorentz_reps.irrep_generators"),
        shared=("dirac.momentum_product_symbol",)),
)


def _patch_every_binding(monkeypatch, original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "aqm_lab"
                                  or name.startswith("aqm_lab.")):
            continue
        for attr, bound in list(vars(module).items()):
            if bound is original:
                monkeypatch.setattr(module, attr, replacement)


def _guard_rows(monkeypatch, rows) -> dict[str, set]:
    """Install the guards of ``rows``; returns, per side that has run, the
    names it has reached, filled as the check runs."""
    by_side = {row.side: row for row in rows}
    running: list[str] = []
    reached: dict[str, set] = {}

    def enter(name):
        # the innermost side that forbids the name is the one reported
        for side in reversed(running):
            if name in by_side[side].forbidden:
                raise AssertionError(f"{side} reached {name}")
            reached[side].add(name)

    def guarded(name, fn, makes_psi=False):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            enter(name)
            if name in by_side:
                running.append(name)
                reached.setdefault(name, set())
            try:
                out = fn(*args, **kwargs)
            finally:
                if name in by_side:
                    running.pop()
            return guarded(name, out) if makes_psi else out

        return call

    names = {n for row in rows
             for n in (row.side, *row.forbidden, *row.shared)}
    for name in names:
        module, *path = name.split(".")
        owner = importlib.import_module(f"aqm_lab.{module}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        original = getattr(owner, path[-1])
        replacement = guarded(name, original,
                              makes_psi=name == "hj.wave_ansatz")
        if isinstance(owner, type):
            monkeypatch.setattr(owner, path[-1], replacement)
        else:
            _patch_every_binding(monkeypatch, original, replacement)
    return reached


def _assert_rows_ran(rows, reached) -> None:
    """Every side ran and reached each function it shares."""
    assert set(reached) == {row.side for row in rows}
    for row in rows:
        assert set(row.shared) <= reached[row.side], row.side


@pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stack"])
def test_linearization_sides_reach_only_what_they_share(monkeypatch,
                                                        stacked):
    rng = np.random.default_rng(40)
    fields = hj.draw_wave_inputs(rng)
    q = sample_point(rng, rot_scale=1.5, boost_bound=1.5)
    em = hj.EMConfig(e_field=(0.2, 0.1, -0.3), h_field=(0.3, -0.2, 0.4))
    reached = _guard_rows(monkeypatch, LINEARIZATION)
    hj.linearization_check(fields, (hj.EMConfig.zero(), em) if stacked
                           else em, TopMetric(1.0), q, r_scalar=6.0,
                           xi2=(2.0 / 9.0, 0.25))
    _assert_rows_ran(LINEARIZATION, reached)
    # the wave side ran on psi, the other two on the momentum
    assert "hj.wave_ansatz" in reached["hj.wave_operator"]
    assert reached["hj.hj_residual"] >= {"hj.weyl_scalar_at",
                                         "hj.raised_momentum"}
    assert reached["hj.divergence_residual"] >= {"hj.raised_momentum",
                                                 "hj.born_density"}


@pytest.mark.parametrize("verb, rows", [
    ("verify-curvature", CURVATURE),
    ("verify-reps", REPRESENTATIONS),
    ("verify-dirac", SQUARED_DIRAC),
    ("verify-weyl", WEYL),
], ids=["curvature", "representations", "squared_dirac", "weyl"])
def test_verb_sides_reach_only_what_they_share(monkeypatch, tmp_path, verb,
                                               rows):
    reached = _guard_rows(monkeypatch, rows)
    assert main([verb, "--n-draws", "1", "--out",
                 str(tmp_path / "report.json")]) == 0
    _assert_rows_ran(rows, reached)
