"""The benchmark's tracer patches radonlab functions by name.

A renamed or deleted function would silently read 0 on its per-layer
metric, so every name the tracer's tables rely on must still be a
function the tracer finds and wraps.  The tracer module is only
imported, never installed.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
NAMES = sorted(
    set(tracer.COUNTER_HOOKS) | tracer.ORACLES | tracer.GAUSS
    | tracer.QUAD_RULES | tracer.WRITERS
    | {f"{layer}.{name}" for layer, names in tracer.PRIVATE_BOUNDARIES.items()
       for name in names})
TRACED = set(tracer.Tracer().targets().values())


@pytest.mark.parametrize("name", NAMES)
def test_benchmark_name_is_a_traced_function(name):
    assert name in TRACED
