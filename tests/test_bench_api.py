"""The benchmark harness under ``bench/`` uses the public API by name: its
workloads import from ``mordrive`` and its tracer wraps each function
named in ``tracing.TARGETS``.  Both lists are read here with ``ast``, so
nothing from ``bench/`` is imported, and every name must still resolve.
"""
import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _importable(module: str, name: str) -> bool:
    """Whether ``from module import name`` succeeds."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_workload_imports_resolve():
    imported = [(node.module, alias.name)
                for node in ast.walk(_tree("workloads.py"))
                if isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "mordrive"
                for alias in node.names]
    assert ("mordrive", "closed_current_loop") in imported
    missing = [(module, name) for module, name in imported
               if not _importable(module, name)]
    assert not missing


def test_traced_functions_resolve():
    [targets] = [node.value for node in _tree("tracing.py").body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets
                      if isinstance(t, ast.Name)] == ["TARGETS"]]
    targets = ast.literal_eval(targets)
    assert "controller_design" in targets
    missing = [(module, name) for module, names in targets.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"mordrive.{module}"), name, None))]
    assert not missing
