"""Every exported name and every name the benchmark tracer wraps resolves, so removals
cannot leave dangling exports, and every exported name has a caller in the package."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import rabi_lab

MODULES = ("eigensolve", "io", "model", "parity", "position", "sweeps")
SRC = Path(__file__).resolve().parents[1] / "src" / "rabi_lab"


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


def _all_list(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return node.value
    return None


def test_every_export_has_a_caller_in_src():
    # public API that only tests call must go: each name in a module's
    # __all__ is read somewhere in src/ outside the __all__ lists, as a
    # name, an attribute, or a string (cli looks its sweeps up by name)
    exported, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        all_list = _all_list(tree)
        skip = set()
        if all_list is not None:
            skip = {id(node) for node in ast.walk(all_list)}
            if path.stem != "__init__":
                exported += [f"{path.stem}.{name}" for name in ast.literal_eval(all_list)]
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert [name for name in exported if name.split(".")[1] not in used] == []


def test_src_reads_no_environment():
    # a sweep's output and its process count come from its arguments alone,
    # so no module reads os.environ, os.environb or os.getenv
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv")
    ]
    assert reads == []


def test_only_eigensolve_reaches_the_lapack_solvers():
    # every eigensolve keeps its contract: no module but eigensolve.py
    # refers to scipy.linalg.eigh or eigh_tridiagonal, by attribute, name or import
    solvers = {"eigh", "eigh_tridiagonal"}
    refs = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "eigensolve.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in solvers)
        or (isinstance(node, ast.Name) and node.id in solvers)
        or (isinstance(node, ast.ImportFrom) and solvers & {alias.name for alias in node.names})
    ]
    assert refs == []


def test_only_sweeps_reaches_openblas():
    # one lookup of the mapped OpenBLAS libraries and one setter: no other
    # module imports ctypes or reads /proc/self/maps
    refs = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "sweeps.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and "ctypes" in {a.name.split(".")[0] for a in node.names})
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctypes")
        or (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "/proc/self/maps" in node.value)
    ]
    assert refs == []
