"""Every evrac name the benchmark harness in `perfbench/` patches, imports or
reads still exists, and its reads of single events from columns still work,
so a refactor that deletes or renames one fails here in seconds rather than
in a traced benchmark run. The harness files are read, never changed."""

import ast
import importlib
import importlib.util
import types
from datetime import timedelta, timezone
from pathlib import Path

import pytest

from conftest import T0, columns_of, make_event
from evrac.dataset import EPOCH, build_trajectories

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


def test_harness_reads_of_single_events():
    """The harness reads single events off a trajectory's columns: serve's
    request stream takes `events[0].driver_id` and `events[cut].start_time`,
    and `expected_eval_events` iterates the events for `.event_id`. Each read
    gives the columns' values, the start as a UTC datetime."""
    events = build_trajectories(columns_of([
        make_event(f"e{i}", f"d{i % 2}", f"cs{i % 3}", T0 + timedelta(hours=-5 * i, microseconds=7 * i))
        for i in range(9)]))["d1"].events
    assert events[0].driver_id == "d1" == events.drivers[events.driver[0]]
    for cut in range(len(events)):
        start = events[cut].start_time
        assert start.tzinfo is timezone.utc
        assert start == EPOCH + timedelta(microseconds=int(events.start_us[cut]))
    assert [e.event_id for e in events] == events.event_id.tolist() == ["e7", "e5", "e3", "e1"]
