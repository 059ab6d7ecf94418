"""The package namespace: each module's public names, declared once."""

import importlib

import intgarch

MODULES = ("exceptions", "intervals", "process", "simulate", "estimate", "forecast",
           "marketdata", "evaluate")


def test_package_exports_every_public_name_of_its_modules():
    # by import path: the package's `simulate` and `forecast` are functions
    modules = [importlib.import_module(f"intgarch.{name}") for name in MODULES]
    declared = ["__version__"] + [name for module in modules for name in module.__all__]
    assert sorted(intgarch.__all__) == sorted(declared)
    assert len(set(declared)) == len(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(intgarch, name) is getattr(module, name)
