import importlib
import pkgutil

import randroot


def test_every_all_entry_resolves():
    modules = [randroot] + [
        importlib.import_module(f"randroot.{info.name}")
        for info in pkgutil.iter_modules(randroot.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
