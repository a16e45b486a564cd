"""The benchmark reaches radonlab by name.

The tracer patches functions by name: a renamed or deleted function
would silently read 0 on its per-layer metric, so every name the
tracer's tables rely on must still be a function the tracer finds and
wraps.  The tracer module is only imported, never installed.

The workloads' library steps and the child runner call radonlab
directly: a deleted name would surface only as a failed benchmark run,
so every radonlab name they import or reach as an attribute must
resolve.  Both files are parsed, never run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


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


def _radonlab_names(path: Path) -> set[str]:
    """Dotted radonlab names that a file imports or reaches as an
    attribute of an imported radonlab name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a; `import a.b as c` binds c to a.b.
            imports = [(a.name, a.asname or a.name.split(".")[0],
                        a.name if a.asname else a.name.split(".")[0])
                       for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imports = [(f"{node.module}.{a.name}", a.asname or a.name,
                        f"{node.module}.{a.name}") for a in node.names]
        else:
            continue
        for name, local, target in imports:
            if name.split(".")[0] != "radonlab":
                continue
            names.add(name)
            # One meaning per local name, so attributes resolve unambiguously.
            assert bound.setdefault(local, target) == target, local
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            names.add(f"{bound[node.value.id]}.{node.attr}")
    return names


DIRECT = sorted((path.name, name)
                for path in (PERFBENCH / "workloads.py",
                             PERFBENCH / "child.py")
                for name in _radonlab_names(path))


def test_direct_names_are_collected():
    names = {name for _, name in DIRECT}
    assert {"radonlab.variation.jump_variation_check",
            "radonlab.variation.vr_exact_batch", "radonlab.cli.main",
            "radonlab.reporting.make_document"} <= names


@pytest.mark.parametrize("where,name", DIRECT,
                         ids=[f"{w}:{n}" for w, n in DIRECT])
def test_benchmark_direct_name_resolves(where, name):
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            # A submodule the package does not import by itself.
            obj = importlib.import_module(".".join(parts[:i]))
