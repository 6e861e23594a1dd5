"""Every public name of the package has one home module."""

import importlib
import pkgutil

import roadworks


def test_each_public_name_is_listed_once_by_the_module_that_defines_it():
    home = {}
    for info in pkgutil.iter_modules(roadworks.__path__):
        module = importlib.import_module(f"roadworks.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name not in home, f"{name} listed by {home.get(name)} and {info.name}"
            home[name] = info.name
            defined_in = getattr(module, name).__module__
            assert defined_in == module.__name__, f"{info.name} lists {name}, defined in {defined_in}"
    assert len(home) > 50
