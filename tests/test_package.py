import importlib
import pkgutil

import pytest

import ptfprg

MODULES = ["ptfprg"] + [f"ptfprg.{m.name}"
                        for m in pkgutil.iter_modules(ptfprg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # the benchmark's tracer looks up every name in __all__
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", [])
               if not hasattr(mod, attr)]
    assert not missing, missing
