"""Every exported name and every name the benchmark tracer wraps resolves, so removals
cannot leave dangling exports."""

import importlib
import importlib.util
import sys
from pathlib import Path

import rabi_lab

MODULES = ("eigensolve", "io", "model", "parity", "position", "sweeps")


def test_all_exports_resolve():
    missing = [name for name in rabi_lab.__all__ if not hasattr(rabi_lab, name)]
    for module_name in MODULES:
        module = importlib.import_module(f"rabi_lab.{module_name}")
        missing += [f"{module_name}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # the benchmark's tracer wraps module globals by name; a traced run
    # crashes on one that a refactor renamed or removed
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in tracing.TARGETS
        if not hasattr(module, attr)
    ]
    assert missing == []
