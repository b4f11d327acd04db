"""Every name a package module imports is used in that module."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "nilcert").glob("*.py"))


def unused_imports(tree):
    """The names bound by import statements (``from __future__`` aside)
    that no expression in the module reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os, sys\nfrom a.b import c as d\nsys.exit(d)\n")
    assert unused_imports(tree) == [(2, "os")]
