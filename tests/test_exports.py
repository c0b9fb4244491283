"""Every exported name resolves, so removals cannot leave dangling exports."""

import importlib

import rabi_lab

MODULES = ("eigensolve", "io", "model", "parity", "position", "sweeps")


def test_all_exports_resolve():
    missing = [name for name in rabi_lab.__all__ if not hasattr(rabi_lab, name)]
    for module_name in MODULES:
        module = importlib.import_module(f"rabi_lab.{module_name}")
        missing += [f"{module_name}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
