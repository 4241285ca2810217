"""Span tracing of aqm_lab's layers, installed from outside the package.

Each traced function is replaced by a wrapper that records one span per
call. The modules import each other's functions by name, so a function of
the package is replaced at every module binding that refers to it; a
method is replaced on its class; a foreign kernel (scipy's ``expm``) is
replaced only at the named module's binding, which attributes its calls to
the module that makes them. ``hj.psi`` is the closure returned by
``hj.wave_ansatz``: the factory is patched to hand out traced closures.

Spans are kept in memory, aggregated per name as (calls, total time, time
covered by child spans), and read out with ``take``. Leaving ``installed``
restores every binding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

PACKAGE = "aqm_lab"

# (module of the package, attribute path inside it); the span is named
# "<module>.<path>", with a trailing ".__call__" dropped
LAYERS: tuple[tuple[str, str], ...] = (
    ("cli", "main"),
    ("report", "build_report"),
    ("report", "dump_report"),
    ("config_space", "frame_coefficients"),
    ("config_space", "expm"),
    ("config_space", "TopMetric.matrix"),
    ("config_space", "TopMetric.inverse"),
    ("config_space", "TopMetric.sqrt_det"),
    ("config_space", "killing_vectors"),
    ("fd", "central_diff"),
    ("fd", "derivative_stack"),
    ("fields", "BandLimitedField.__call__"),
    ("fields", "LinearField.__call__"),
    ("geometry", "christoffel_at"),
    ("geometry", "riemann_scalar_at"),
    ("geometry", "covariant_divergence_at"),
    ("geometry", "weyl_scalar_at"),
    ("hj", "wave_operator"),
    ("hj", "hj_residual"),
    ("hj", "divergence_residual"),
    ("hj", "linearization_check"),
    ("hj", "momentum_covector"),
    ("hj", "EMConfig.potential"),
    ("lorentz_reps", "irrep_generators"),
    ("lorentz_reps", "d_matrix_inverse"),
    ("lorentz_reps", "angular_laplacian_check"),
    ("lorentz_reps", "conjugation_defect"),
    ("lorentz_reps", "expm"),
    ("dynamics", "velocity_field"),
    ("dynamics", "integrate_trajectory"),
    ("dynamics", "transport_check"),
)

# (span name of the returned closure, module, factory attribute)
CLOSURES: tuple[tuple[str, str, str], ...] = (
    ("hj.psi", "hj", "wave_ansatz"),
)


def _span_name(module: str, path: str) -> str:
    return f"{module}.{path.removesuffix('.__call__')}"


SPAN_NAMES = tuple(_span_name(module, path) for module, path in LAYERS) \
    + tuple(name for name, _, _ in CLOSURES)

_MARK = "_perfbench_span"


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _resolve(module: str, path: str) -> tuple[object, str]:
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Aggregating span recorder; ``installed`` may be entered again and again."""

    def __init__(self):
        self._stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self._open: list[float] = []   # child time covered so far, per open span
        self._undo: list[tuple[object, str, object, bool]] = []
        self.originals: dict[str, object] = {}

    def span(self, name: str, fn):
        """Wrap ``fn`` so every call records a span under ``name``."""
        stats = self._stats[name]
        open_spans = self._open
        clock = time.perf_counter
        self.originals.setdefault(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        setattr(traced, _MARK, name)
        return traced

    def take(self) -> dict[str, tuple[int, float, float]]:
        """Return {name: (calls, total_s, self_s)} since the last take, and reset."""
        out = {}
        for name, stats in self._stats.items():
            calls, total, child = stats
            out[name] = (calls, total, total - child)
            stats[:] = [0, 0.0, 0.0]
        return out

    def _patch(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def _patch_bindings(self, original, value) -> None:
        for module in _package_modules():
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    self._patch(module, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        assert_untraced()
        try:
            for module, path in LAYERS:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                wrapper = self.span(_span_name(module, path), original)
                foreign = not getattr(original, "__module__", "").startswith(PACKAGE)
                if isinstance(owner, type) or foreign:
                    self._patch(owner, attr, wrapper)
                else:
                    self._patch_bindings(original, wrapper)
            for name, module, attr in CLOSURES:
                factory = getattr(importlib.import_module(f"{PACKAGE}.{module}"),
                                  attr)
                self._patch_bindings(factory, self._closure_factory(name, factory))
            yield self
        finally:
            while self._undo:
                owner, attr, original, had_own = self._undo.pop()
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def _closure_factory(self, name: str, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.span(name, factory(*args, **kwargs))

        setattr(traced_factory, _MARK, name)
        return traced_factory


def assert_untraced() -> None:
    """Raise if any module or class binding of the package is a trace wrapper."""
    for module in _package_modules():
        for attr, value in vars(module).items():
            scopes = [(attr, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                scopes += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            for where, bound in scopes:
                if hasattr(bound, _MARK):
                    raise RuntimeError(
                        f"trace wrapper left installed at {module.__name__}.{where}")
