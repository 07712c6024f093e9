"""The package imports only the standard library, and its top-level API is
the union of the modules' ``__all__`` lists."""

import ast
import importlib
import sys
from pathlib import Path

import cubicomb

SOURCE = Path(__file__).resolve().parents[1] / "src" / "cubicomb"


def test_package_imports_only_the_standard_library():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths, f"no modules found under {SOURCE}"
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside, outside


MODULES = ["complexes", "files", "generators", "macaulay", "report", "vectors", "verify"]


def test_top_level_api_is_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"cubicomb.{name}") for name in MODULES]
    expected = [name for module in modules for name in module.__all__]
    assert cubicomb.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(cubicomb, name) is getattr(module, name), name
    assert "cli" not in cubicomb.__all__
    from cubicomb import (  # noqa: F401  public in their modules, now at the top level
        CUBICAL_VERIFIERS,
        SIMPLICIAL_VERIFIERS,
        TOPOLOGY_TAGS,
        as_generated,
        to_document,
    )
