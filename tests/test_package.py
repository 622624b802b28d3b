"""The package's public names: every exported name exists."""

import importlib
import pkgutil

import rieszlab


def test_every_exported_name_resolves():
    # a name deleted from a module but left in an __all__ would break star
    # imports and the package re-exports
    modules = [rieszlab] + [
        importlib.import_module(f"rieszlab.{info.name}")
        for info in pkgutil.iter_modules(rieszlab.__path__)
    ]
    for module in modules:
        missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
        assert missing == [], f"{module.__name__}: {missing}"
    namespace = {}
    exec("from rieszlab import *", namespace)
    assert set(rieszlab.__all__) <= set(namespace)
