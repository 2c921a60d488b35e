"""No module of the package imports a name it never reads, and no private
helper of the package goes unread.

A stdlib stand-in for a linter's unused-import rule: each module's syntax
tree is walked, and every name an import binds must be read somewhere in
that module, as a name, the root of an attribute chain, or inside a string
annotation.  `from __future__` imports bind no name and are skipped.

The same walk, over all modules at once, stands in for a dead-code rule: a
private name (one leading underscore) that a module or one of its classes
defines must be read somewhere in the package outside its own definition,
as a name or as an attribute.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cwclifford"
MODULES = sorted(PACKAGE.glob("*.py"))


def _annotation_names(tree):
    """The names read by string annotations, which the tree holds as
    constants."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from (name.id for name in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(name, ast.Name))


def unused_imports(source):
    """(line, name) of every name bound by an import and never read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (alias.asname or alias.name)
                       .split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    read.update(_annotation_names(tree))
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from typing import Dict, List\n"
              "from .core import gp, grade, threshold\n"
              "def f(x: 'Dict[int, np.ndarray]') -> List:\n"
              "    return os.path.join(gp(x, x))\n")
    assert unused_imports(source) == [(5, "grade"), (5, "threshold")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _bound_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)


def _definitions(body):
    """(name, node) of every private name the statements of body define."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [name for target in node.targets
                     for name in _bound_names(target)]
        elif isinstance(node, ast.AnnAssign):
            names = list(_bound_names(node.target))
        else:
            continue
        yield from ((name, node) for name in names if _private(name))


def _reads(tree):
    """The names read in tree, as a name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            yield node.attr


def unread_private_names(sources):
    """(module, line, name) of every private module- or class-level name of
    the modules (a name -> source mapping) never read outside its own
    definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    dead = []
    for module, tree in trees.items():
        definitions = list(_definitions(tree.body))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                definitions += _definitions(node.body)
        for name, node in definitions:
            own = sum(read == name for read in _reads(node))
            if reads[name] == own:
                dead.append((module, node.lineno, name))
    return dead


def test_the_check_finds_an_unread_private_helper():
    sources = {
        "a.py": ("_LIMIT = 3\n_left, _right = 1, 2\n"
                 "def _used(x):\n    return x\n"
                 "def _recursive(x):\n    return _recursive(x - 1)\n"
                 "class A:\n    _slot = 1\n    _read = 2\n"
                 "    def _method(self):\n        return self._read\n"),
        "b.py": ("from a import _used, _LIMIT\n"
                 "def f():\n    return _used(_LIMIT) + _left\n"),
    }
    assert unread_private_names(sources) == [
        ("a.py", 2, "_right"), ("a.py", 5, "_recursive"),
        ("a.py", 8, "_slot"), ("a.py", 10, "_method")]


def test_package_reads_every_private_name_it_defines():
    assert unread_private_names(
        {path.name: path.read_text() for path in MODULES}) == []
