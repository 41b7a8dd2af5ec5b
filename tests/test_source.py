"""Source hygiene of the package: no module imports a name it never uses,
and none imports a private name of another."""

import ast
from pathlib import Path

import pytest

import alloclab

PACKAGE = sorted(Path(alloclab.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names that `source` binds by an import and never reads, sorted.
    A name read only in an annotation is read: with postponed annotations
    it is still parsed, though not evaluated."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import itertools, os.path\n"
        "from typing import Callable, Sequence as Seq\n"
        "def f(cells: Seq[int]) -> int:\n"
        "    return len(list(itertools.chain(cells)))\n"
    )
    assert unused_imports(source) == ["Callable", "os"]


def private_imports(source: str) -> list[str]:
    """The leading-underscore names that `source` imports from a module of
    the package, by a relative or an absolute import, sorted."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "alloclab")
        for alias in node.names
        if alias.name.startswith("_")
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.stem)
def test_no_private_name_is_imported_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_a_private_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "from functools import _lru_cache_wrapper\n"
        "from .rules import Rule, _memo as memo\n"
        "from alloclab.core import _trusted\n"
        "from . import _private\n"
    )
    assert private_imports(source) == ["_memo", "_private", "_trusted"]
