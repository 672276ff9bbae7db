"""The package's public names: one list per module, and the package's the union."""

import importlib

import cubicunits

MODULES = ["cubics", "errors", "families", "masses", "precision", "ratios", "roots", "shapes", "units"]


def test_every_public_name_resolves():
    for name in cubicunits.__all__:
        assert hasattr(cubicunits, name), name


def test_package_exports_the_union_of_the_module_lists():
    union = set()
    for name in MODULES:
        union |= set(importlib.import_module(f"cubicunits.{name}").__all__)
    assert set(cubicunits.__all__) - {"__version__"} == union
    assert len(cubicunits.__all__) == len(set(cubicunits.__all__))


def test_each_module_lists_only_its_own_names():
    # a name imported from another module belongs to that module's list
    for name in MODULES:
        module = importlib.import_module(f"cubicunits.{name}")
        for public in module.__all__:
            assert getattr(module, public).__module__ == module.__name__, (name, public)
