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
SRC = Path(ptfprg.__file__).resolve().parent


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


def test_every_parameter_is_read():
    # a parameter its function never reads is a knob that does nothing; the
    # one exception is the battery's uniform check signature, check_*(cfg)
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            name = getattr(fn, "name", "<lambda>")
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}:{fn.lineno} {name}({p})" for p in params
                       if p not in read
                       and not (path.name == "battery.py"
                                and name.startswith("check_") and p == "cfg")]
    assert not unread, unread


def test_benchmark_tracer_hooks_resolve():
    # perfbench/tracer.py patches the package from outside; a renamed or
    # unexported name would silently drop a metric from the traced run
    tracer = load_tracer()
    for short in tracer.MODULES:
        assert hasattr(importlib.import_module(f"ptfprg.{short}"), "__all__")
    # UNTRACED only lists functions the tracer leaves unwrapped, by name, so
    # an entry whose function was deleted skips nothing: hermite.dominates
    # had no caller and is gone
    deleted = {"ptfprg.hermite.dominates"}
    for full in deleted:
        mod, _, attr = full.rpartition(".")
        assert not hasattr(importlib.import_module(mod), attr), full
    for full in (set(tracer.UNTRACED) - deleted) | set(tracer.COUNTERS):
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
