"""Every name a package module imports is used in that module, every
private name the package defines is used somewhere in the package, and
every public name it exports is read by the package or the benchmark.

No linter ships with the package's dependencies, so this walks each
module's syntax tree with the standard library's ``ast``. A name counts
as used when it is read anywhere in the module, annotations included,
or listed in ``__all__``. Imports under ``if TYPE_CHECKING:`` and from
``__future__`` are not checked. A private name (one leading underscore,
not a dunder) defined at module level or as a method counts as used
when any package module reads it as a name or an attribute. A name in a
module's ``__all__`` counts as read when a package or ``bench/`` module
reads it outside its own definition, or when it is a user entry point
that only the tests and README call. A public method or property of a
public package class counts as read when a package or ``bench/`` module
reads an attribute of its name outside its own body, or when it is such
an entry point. Each entry point must itself name a definition: a name in
some module's ``__all__`` or a public ``Class.method`` of the package.
Only ``cli`` calls ``open`` or imports ``json``: the command line owns
every file format, and the other modules compute.
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


BENCH = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))
# public names and methods meant for users of the library, which no module reads
ENTRY_POINTS = {"perturbation_gap_check", "DiscretizedGenerator.to_chain"}


def _exported_names(tree):
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def _reads_outside_own_definition(tree):
    """Names a module reads, a top-level definition's reads of its own name left out."""
    return set().union(*(_read_names(node) - {getattr(node, "name", None)}
                         for node in tree.body))


def _unread_public_names(sources, readers=()):
    """Names in the ``__all__`` of ``sources`` that neither they nor ``readers`` read."""
    trees = [ast.parse(source) for source in sources]
    read = set().union(*map(_reads_outside_own_definition,
                            trees + [ast.parse(source) for source in readers]))
    return sorted(set().union(*map(_exported_names, trees)) - read - ENTRY_POINTS)


def test_package_reads_every_public_name_it_exports():
    assert _unread_public_names([path.read_text() for path in MODULES],
                                [path.read_text() for path in BENCH]) == []


def test_checker_sees_unread_public_names():
    sources = ["""
__all__ = ["Used", "helper", "recursive", "only_in_bench", "unread", "perturbation_gap_check"]
class Used:
    def copy(self):
        return Used()
def helper():
    return Used()
def recursive(n):
    return recursive(n - 1) if n else 0
def unread():
    pass
def perturbation_gap_check():
    pass
""", """
from .a import helper
def run():
    return helper()
"""]
    bench = ["import stlmc.a\nstlmc.a.only_in_bench()\n"]
    assert _unread_public_names(sources, bench) == ["recursive", "unread"]
    assert _unread_public_names(sources) == ["only_in_bench", "recursive", "unread"]


def _public_methods(tree):
    """``Class.method`` for every public method and property of a public top-level class."""
    return {f"{node.name}.{item.name}" for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")}


def _attribute_reads(node, own=None):
    """Attribute names read under ``node``, a function's reads of its own name left out."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        own = node.name
    reads = set().union(*(_attribute_reads(child, own) for child in ast.iter_child_nodes(node)))
    if (isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
            and node.attr != own):
        reads.add(node.attr)
    return reads


def _unread_public_methods(sources, readers=()):
    """Public methods of the classes in ``sources`` that neither they nor ``readers`` read."""
    trees = [ast.parse(source) for source in sources]
    read = set().union(*map(_attribute_reads, trees + [ast.parse(source) for source in readers]))
    return sorted(name for name in set().union(*map(_public_methods, trees))
                  if name.split(".")[1] not in read and name not in ENTRY_POINTS)


def test_package_reads_every_public_method_it_defines():
    assert _unread_public_methods([path.read_text() for path in MODULES],
                                  [path.read_text() for path in BENCH]) == []


def test_checker_sees_unread_public_methods():
    sources = ["""
class Thing:
    def used(self):
        return 1
    @property
    def size(self):
        return self.used()
    def recursive(self, n):
        return self.recursive(n - 1) if n else 0
    def only_in_bench(self):
        pass
    def unread(self):
        pass
    def _private(self):
        pass
class _Hidden:
    def unread_but_private_class(self):
        pass
class DiscretizedGenerator:
    def to_chain(self):
        pass
""", """
from .a import Thing
def run(t: Thing):
    return t.size
"""]
    bench = ["def go(thing):\n    thing.only_in_bench()\n"]
    assert _unread_public_methods(sources, bench) == ["Thing.recursive", "Thing.unread"]
    assert _unread_public_methods(sources) == ["Thing.only_in_bench", "Thing.recursive",
                                               "Thing.unread"]


def _stale_entry_points(sources, entry_points):
    """Entry points that name neither an ``__all__`` entry nor a public method of ``sources``."""
    trees = [ast.parse(source) for source in sources]
    defined = set().union(*map(_exported_names, trees), *map(_public_methods, trees))
    return sorted(set(entry_points) - defined)


def test_entry_points_name_package_definitions():
    assert _stale_entry_points([path.read_text() for path in MODULES], ENTRY_POINTS) == []


def test_checker_sees_stale_entry_points():
    sources = ["""
__all__ = ["load_estimates"]
def load_estimates():
    pass
class DiscretizedGenerator:
    def to_chain(self):
        pass
    def _private(self):
        pass
"""]
    entry_points = {"load_estimates", "DiscretizedGenerator.to_chain",
                    "DiscretizedGenerator._private", "perturbation_gap_check"}
    assert _stale_entry_points(sources, entry_points) == [
        "DiscretizedGenerator._private", "perturbation_gap_check"]


def _file_io(source):
    """``(line, "open")`` for every ``open`` call and ``(line, "json")`` for every
    ``json`` import in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", getattr(node.func, "attr", None)) == "open":
                found.append((node.lineno, "open"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "json") for alias in node.names
                      if alias.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found.append((node.lineno, "json"))
    return sorted(found)


def test_only_the_cli_reads_or_writes_files():
    assert [path.name for path in MODULES if _file_io(path.read_text())] == ["cli.py"]


def test_checker_sees_file_io():
    source = """
import json.decoder
from json import dumps
import numpy as np
from .a import jsonish
def f(path):
    with open(path) as fh:
        return fh.read()
def g(p):
    return p.open("w"), np.load(p), reopen(p), jsonish
"""
    assert _file_io(source) == [(2, "json"), (3, "json"), (7, "open"), (10, "open")]
