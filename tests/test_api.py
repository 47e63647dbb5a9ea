"""The public names of each kstickets module.

Tools that wrap a module's public functions (such as the benchmark's tracer)
walk its `__all__` and fetch every entry with getattr, so a name left there
after its definition is gone breaks them.
"""

import importlib
import inspect
import pkgutil

import kstickets

CONSTANT_TYPES = (int, float, str, bytes, tuple, frozenset)


def test_public_names_resolve():
    checked = 0
    for info in pkgutil.iter_modules(kstickets.__path__):
        mod = importlib.import_module(f"kstickets.{info.name}")
        names = getattr(mod, "__all__", None)
        if names is None:
            continue
        assert len(set(names)) == len(names), f"{info.name}.__all__ repeats a name"
        for name in names:
            assert hasattr(mod, name), f"{info.name}.__all__ names missing {name!r}"
            value = getattr(mod, name)
            assert (
                inspect.isfunction(value) or inspect.isclass(value)
                or isinstance(value, CONSTANT_TYPES)
            ), f"{info.name}.{name} is a {type(value).__name__}"
            checked += 1
    assert checked > 0
