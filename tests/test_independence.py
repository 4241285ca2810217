"""The independence the checks rest on, as call-graph tests.

Each row names the computation of one side of a check and the functions
that side must never reach. The test patches every module binding of each
named function with a guard and runs the whole check: a guard raises when
it is called while a side that forbids it is running, and records every
other call. A dynamic test is not fooled by an alias or an import under
another name.

The linearization identity (W psi)/psi = HJ residual - i chi^(n-2) div
holds only if the wave side and the Hamilton-Jacobi side are computed
apart. By design they share the values of the check's inputs, S, log chi,
the Killing fields and sqrt g, each evaluated once per point array by the
check's store, and the Laplace-Beltrami primitive; nothing one side derives
reaches the other.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from aqm_lab import hj
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
    Row("wave_operator",
        forbidden=("raised_momentum", "born_density", "hj_residual",
                   "divergence_residual", "weyl_scalar_at"),
        shared=("laplace_beltrami",)),
    Row("hj_residual", forbidden=("wave_ansatz", "wave_operator"),
        shared=("laplace_beltrami",)),
    Row("divergence_residual", forbidden=("wave_ansatz", "wave_operator"),
        shared=()),
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
    """Install the guards of ``rows``; returns, per side, the names it has
    reached, filled as the check runs."""
    by_side = {row.side: row for row in rows}
    running: list[str] = []
    reached = {row.side: set() for row in rows}

    def enter(name):
        for side in running:
            if name in by_side[side].forbidden:
                raise AssertionError(f"{side} reached {name}")
            reached[side].add(name)

    def guarded(name, fn, makes_psi=False):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            enter(name)
            if name in by_side:
                running.append(name)
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
        original = getattr(hj, name)
        _patch_every_binding(monkeypatch, original, guarded(
            name, original, makes_psi=name == "wave_ansatz"))
    return reached


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
    for row in LINEARIZATION:
        assert set(row.shared) <= reached[row.side], row.side
    # each side ran, the wave side on psi
    assert "wave_ansatz" in reached["wave_operator"]
    assert reached["hj_residual"] >= {"weyl_scalar_at", "raised_momentum"}
    assert reached["divergence_residual"] >= {"raised_momentum",
                                              "born_density"}
