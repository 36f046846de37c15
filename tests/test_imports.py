"""Every name a package module imports is used in that module.

No linter ships with the package's dependencies, so this walks each
module's syntax tree with the standard library's ``ast``. A name counts
as used when it is read anywhere in the module, annotations included,
or listed in ``__all__``. Imports under ``if TYPE_CHECKING:`` and from
``__future__`` are not checked.
"""
import ast
from pathlib import Path

import pytest

import stlmc

MODULES = sorted(Path(stlmc.__file__).resolve().parent.glob("*.py"))


def _is_type_checking(node):
    """``if TYPE_CHECKING:`` or ``if typing.TYPE_CHECKING:``."""
    return getattr(node.test, "id", getattr(node.test, "attr", None)) == "TYPE_CHECKING"


def _imported_names(tree):
    """The names the module's import statements bind."""
    skipped = {id(child) for node in ast.walk(tree)
               if isinstance(node, ast.If) and _is_type_checking(node)
               for child in ast.walk(node)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _used_names(tree):
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        # quoted annotations hold their names in a string
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                     if isinstance(n, ast.Name)}
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def _unused_imports(source):
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted(_imported_names(tree) - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_sees_unused_and_exempt_imports():
    source = """
from __future__ import annotations
import math
import os.path
from typing import TYPE_CHECKING
from .a import used, unused, quoted, exported as alias
if TYPE_CHECKING:
    from .b import only_for_types
__all__ = ["alias"]
def f(x: "quoted") -> int:
    return used(x) + math.pi
"""
    assert _unused_imports(source) == ["os", "unused"]
