import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import ptfprg

MODULES = ["ptfprg"] + [f"ptfprg.{m.name}"
                        for m in pkgutil.iter_modules(ptfprg.__path__)]

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def resolve(dotted):
    """Import the longest ptfprg module prefix of a dotted name, then getattr."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # the benchmark's tracer looks up every name in __all__
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", [])
               if not hasattr(mod, attr)]
    assert not missing, missing


def test_benchmark_tracer_hooks_resolve():
    # perfbench/tracer.py patches the package from outside; a renamed or
    # unexported name would silently drop a metric from the traced run
    tracer = load_tracer()
    for short in tracer.MODULES:
        assert hasattr(importlib.import_module(f"ptfprg.{short}"), "__all__")
    for full in set(tracer.UNTRACED) | set(tracer.COUNTERS):
        resolve(full)
        mod, _, attr = full.rpartition(".")
        if mod.count(".") == 1:  # a module function: wrapped through __all__
            assert attr in importlib.import_module(mod).__all__, full
    for short, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"ptfprg.{short}"), cls_name)
        assert attr in cls.__dict__, (cls_name, attr)
    # names the counters read: originals["ptfprg.x.f"] (kept for __all__
    # names only) and attributes of modules imported from ptfprg
    tree = ast.parse(TRACER_PATH.read_text())
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "ptfprg"
               for a in node.names}
    hooks = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "originals"
                and isinstance(node.slice, ast.Constant)):
            full = node.slice.value
            mod, _, attr = full.rpartition(".")
            assert attr in importlib.import_module(mod).__all__, full
            hooks.append(full)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            hooks.append(f"ptfprg.{node.value.id}.{node.attr}")
    assert hooks
    for full in hooks:
        resolve(full)
