"""Every evrac name the benchmark harness in `perfbench/` patches, imports or
reads still exists, so a refactor that deletes or renames one fails here in
seconds rather than in a traced benchmark run. The harness files are read,
never changed."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr_path) for module, attr_path, *_ in tracer.TARGETS]


def _used_names() -> list[tuple[str, str]]:
    """(module, name) for each name a harness file imports from evrac, and for
    each attribute it reads off an evrac module it imported."""
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "evrac":
                for alias in node.names:
                    value = getattr(importlib.import_module(node.module), alias.name, None)
                    if isinstance(value, types.ModuleType):
                        modules[alias.asname or alias.name] = value.__name__
                    else:
                        used.add((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                used.add((modules[node.value.id], node.attr))
    return sorted(used)


@pytest.mark.parametrize("module_name, attr_path", _traced_targets())
def test_traced_target_exists(module_name, attr_path):
    owner = importlib.import_module(module_name)
    *classes, attr = attr_path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    # The tracer patches a method in the class's own namespace.
    target = vars(owner).get(attr)
    assert callable(target), f"{module_name}.{attr_path} is gone"


def test_harness_names_exist():
    used = _used_names()
    assert ("evrac.reward", "reward_net_input_dim") in used
    missing = [f"{m}.{n}" for m, n in used if not hasattr(importlib.import_module(m), n)]
    assert not missing
