"""No module of the package imports a name it never reads.

A stdlib stand-in for a linter's unused-import rule: each module's syntax
tree is walked, and every name an import binds must be read somewhere in
that module, as a name, the root of an attribute chain, or inside a string
annotation.  `from __future__` imports bind no name and are skipped.
"""

import ast
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
