"""Every name a package module imports is used in that module, and every
private name the package defines is used somewhere in the package.

No linter ships with the package's dependencies, so this walks each
module's syntax tree with the standard library's ``ast``. A name counts
as used when it is read anywhere in the module, annotations included,
or listed in ``__all__``. Imports under ``if TYPE_CHECKING:`` and from
``__future__`` are not checked. A private name (one leading underscore,
not a dunder) defined at module level or as a method counts as used
when any package module reads it as a name or an attribute.
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


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """Private module-level names and private method names a module defines."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        if isinstance(node, ast.ClassDef):
            names |= {item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return {name for name in names if _is_private(name)}


def _read_names(tree):
    """Names and attribute names a module reads."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)})


def _unused_private_names(sources):
    trees = [ast.parse(source) for source in sources]
    read = set().union(*map(_read_names, trees))
    return sorted(set().union(*map(_private_definitions, trees)) - read)


def test_package_uses_every_private_name_it_defines():
    assert _unused_private_names([path.read_text() for path in MODULES]) == []


def test_checker_sees_unused_private_names():
    sources = ["""
_USED_CONST = 1
_UNUSED_CONST = 2
def _helper():
    return _USED_CONST
def _dead():
    pass
class Thing:
    def __init__(self):
        self._state = 0
    def _kernel(self):
        return _helper()
    def _stale(self):
        pass
""", """
from .a import Thing
def run(t: Thing):
    return t._kernel()
"""]
    assert _unused_private_names(sources) == ["_UNUSED_CONST", "_dead", "_stale"]
