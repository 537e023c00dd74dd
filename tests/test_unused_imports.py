"""Every import in the package and the scripts is read somewhere in its
module: a stdlib ``ast`` stand-in for a linter's unused-import rule (F401).
An import whose line carries ``# noqa: F401`` is kept on purpose, such as a
re-export or a module name that a tracer wraps."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/subig/*.py"), *ROOT.glob("scripts/*.py")])
# a bare ``# noqa`` silences every rule, ``# noqa: E402, F401`` the ones it lists
NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:[,\s]+[A-Z]+[0-9]+)*))?", re.I)


def _kept(line: str) -> bool:
    """Whether the line's noqa comment covers F401."""
    m = NOQA.search(line)
    return m is not None and (m["codes"] is None or "F401" in m["codes"].upper())


def _read_names(tree: ast.AST) -> set:
    """Every name the module reads, those in string annotations and in
    ``__all__`` included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        for ann in filter(None, annotations):
            for c in ast.walk(ann):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    names |= _read_names(ast.parse(c.value, mode="eval"))
    return names


def unused_imports(source: str) -> list:
    """(line, name) of each name the source imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and not _kept(lines[alias.lineno - 1]):
                unused.append((alias.lineno, bound))
    return sorted(unused)


def test_the_check_finds_an_unused_import_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Set, Tuple  # noqa: F401\n"
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "import math  # noqa: E402\n"
        "import json  # noqa\n"
        "def f(x: 'np.ndarray') -> dataclass: return osp\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "field"), (7, "math")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
