"""The benchmark tracer must resolve every layer it names in this package.

``perfbench/tracing.py`` wraps the package's functions by (module,
attribute) name; a renamed or deleted binding would otherwise surface only
in a traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


def test_tracer_resolves_every_layer_and_restores_bindings(tracing):
    import aqm_lab.cli  # noqa: F401  (imports every traced module)

    with tracing.Tracer().installed():
        pass
    tracing.assert_untraced()
