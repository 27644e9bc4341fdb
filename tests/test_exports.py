import importlib
import pkgutil

import pytest

import skewdyn

MODULES = ["skewdyn", *(f"skewdyn.{m.name}"
                        for m in pkgutil.iter_modules(skewdyn.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a stale __all__ entry breaks `from skewdyn.x import *`
    mod = importlib.import_module(name)
    public = [n for n in vars(mod) if not n.startswith("_")]
    assert [n for n in getattr(mod, "__all__", public)
            if not hasattr(mod, n)] == []
    exec(f"from {name} import *", {})
