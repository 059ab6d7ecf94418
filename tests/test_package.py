"""The package namespace: each module's public names, declared once."""

import importlib
import os
import pathlib
import re
import subprocess
import sys

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


def test_cli_import_loads_no_scipy_and_no_worker_pool():
    # a fresh interpreter: this one's test modules have imported both
    src = os.path.dirname(os.path.dirname(intgarch.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import intgarch.cli; "
            "print(*(m for m in ('scipy', 'multiprocessing', 'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_every_exported_name_has_a_user():
    # a user is a source line other than the name's own def/class line and its
    # __all__ entry, or a mention in README, the acceptance tests or the benchmark
    root = pathlib.Path(__file__).resolve().parents[1]
    src_lines = [line for path in sorted((root / "src" / "intgarch").glob("*.py"))
                 for line in path.read_text(encoding="utf-8").splitlines()]
    elsewhere = "\n".join(path.read_text(encoding="utf-8") for path in [
        root / "README.md", root / "tests" / "test_acceptance.py", *sorted((root / "perfbench").glob("*.py"))])
    unused = []
    for name in intgarch.__all__:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf'\s*(def|class) {name}\b|\s*"{name}",?\s*$|__all__ = ')
        used = word.search(elsewhere) or any(word.search(line) and not own.match(line) for line in src_lines)
        if name != "__version__" and not used:
            unused.append(name)
    assert not unused, f"exported, but used by no module, README, acceptance test or benchmark: {unused}"
