"""Each stencil step, section count and scale is stated once, in the
``cli.VERBS`` row that runs it: the library takes them as arguments. A
default parameter of the library is a knob of ``tools/surface.py``, and
each one kept is read by a caller that relies on it."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "aqm_lab"

_spec = importlib.util.spec_from_file_location("surface",
                                               ROOT / "tools" / "surface.py")
surface = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(surface)

# every default of the library, each with the caller that reads it
ALLOWED = {
    # verify-curvature draws over the full rotation range, and
    # perfbench/test_tracing.py draws its curvature point with both
    "config_space.sample_point.rot_scale",
    "config_space.sample_point.boost_bound",
    # dispersion_root and verify-dirac's gap check run without it
    "dirac.top_spinor_matrix.counterterm",
    # the wave inputs and verify-weyl's gauges are drawn at unit amplitude
    "fields.draw_field.amp_scale",
    # the transport residual, the Weyl scalar and the Casimir check take
    # no gauge potential
    "geometry.covariant_divergence_at.potential",
    "geometry.laplace_beltrami.potential",
    # only the Casimir check steps the inner gradient apart from the outer
    "geometry.laplace_beltrami.h_inner",
    # the conformally moved metric has no closed-form R
    "geometry.weyl_scalar_at.r_scalar",
    # EMConfig.zero and perfbench/test_tracing.py give no coupling
    "hj.EMConfig.kappa",
    # perfbench/test_tracing.py runs it at the conformal coupling and the
    # default step
    "hj.linearization_check.xi2",
    "hj.linearization_check.h",
    # inert, and raises for any value but 4: perfbench/test_tracing.py still
    # passes order=4 (ROADMAP item 1 drops that, then the keyword)
    "geometry.riemann_scalar_at.order",
}


def library_knobs(src: Path) -> set:
    return {f"{path.stem}.{name}" for path in src.glob("*.py")
            if path.stem not in surface.NO_KNOBS
            for name in surface.knob_names(path.read_text())}


def test_every_library_default_is_allowed():
    assert library_knobs(SRC) == ALLOWED


def test_the_scan_names_each_default(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "def f(x, h=1e-3, *, order=4, skip=None):\n"
        "    def inner(q, n=2):\n        return q\n    return inner\n\n\n"
        "class Metric:\n    dim = 3\n\n"
        "    def __init__(self, a=1.0):\n        self.a = a\n\n\n"
        "@dataclass\nclass Config:\n    kappa: float = 2.0\n    e: float\n")
    (tmp_path / "cli.py").write_text("def main(argv=None):\n    pass\n")
    assert library_knobs(tmp_path) == {
        "a.f.h", "a.f.order", "a.f.skip", "a.f.inner.n",
        "a.Metric.__init__.a", "a.Config.kappa"}
    assert surface.knobs((tmp_path / "a.py").read_text()) == 6
