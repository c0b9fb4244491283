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
    # a sweep's output comes from its arguments alone, and its thread counts
    # from its arguments and scipy's OpenBLAS count as the process set it, so
    # no module reads os.environ, os.environb or os.getenv
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv")
    ]
    assert reads == []


def _names(node: ast.AST) -> list:
    """Dotted names a node refers to: an attribute, a name, or an import's module and names."""
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
    return []


def test_only_eigensolve_reaches_the_lapack_solvers():
    # every eigensolve keeps its contract: no module but eigensolve.py refers
    # to scipy.linalg.eigh, eigh_tridiagonal or the stebz_stein binding, and
    # no module but _blas.py to cython_lapack, by attribute, name or import
    owners = {"eigh": "eigensolve.py", "eigh_tridiagonal": "eigensolve.py",
              "stebz_stein": "eigensolve.py", "cython_lapack": "_blas.py"}
    refs = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if any(path.name != owners[part]
               for name in _names(node) for part in name.split(".") if part in owners)
    ]
    assert refs == []


def test_only_blas_reaches_openblas():
    # one lookup of the mapped OpenBLAS libraries and one setter: no other
    # module imports ctypes or reads /proc/self/maps
    refs = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "_blas.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and "ctypes" in {a.name.split(".")[0] for a in node.names})
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctypes")
        or (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "/proc/self/maps" in node.value)
    ]
    assert refs == []


def test_only_io_formats_cells():
    # one cell rule and one renderer: no module but io.py holds a 17-digit cell
    # format, as a %-template, a format() spec or an f-string spec
    refs = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "io.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value
    ]
    assert refs == []


def test_only_sweeps_starts_threads():
    # one thread pool per sweep, whatever sets its size: no module but
    # sweeps.py names ThreadPoolExecutor or threading.Thread, by attribute,
    # name or import, and src/ calls ThreadPoolExecutor(...) once, in _sweep
    refs, calls = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> innermost enclosing function; ast.walk visits outer ones first
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), function.name) for node in ast.walk(function))
        for node in ast.walk(tree):
            if path.name != "sweeps.py" and {"ThreadPoolExecutor", "Thread"} & set(_names(node)):
                refs.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Call) and "ThreadPoolExecutor" in _names(node.func):
                calls.append(f"{path.stem}.{owner.get(id(node), '<module>')}")
    assert refs == []
    assert calls == ["sweeps._sweep"]
