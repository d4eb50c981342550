"""Each module keeps its private names to itself."""

import ast
from pathlib import Path

import csufs

PACKAGE = Path(csufs.__file__).resolve().parent


def private_imports(tree: ast.Module) -> list[str]:
    """`module.name` of every `_`-prefixed name imported from another csufs
    module; `__version__` from `_version` is the package's public version."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "csufs":
            continue
        if module.split(".")[-1] == "_version":
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = private_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            offenders[path.name] = names
    assert offenders == {}


def test_private_imports_sees_relative_and_absolute_forms():
    tree = ast.parse(
        "from .scoring import _prefix_selection, csufs\n"
        "from csufs.io import _atomic_write_text\n"
        "from ._version import __version__\n"
        "from os import _exit\n"
    )
    assert private_imports(tree) == ["scoring._prefix_selection", "csufs.io._atomic_write_text"]
