"""What csufs's modules import and call: each keeps its private names to
itself, only parts forks, and the CLI loads no stdlib module it has no use
for."""

import ast
import os
import subprocess
import sys
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
        "from csufs.io import _atomic_file\n"
        "from ._version import __version__\n"
        "from os import _exit\n"
    )
    assert private_imports(tree) == ["scoring._prefix_selection", "csufs.io._atomic_file"]


PROCESS_CALLS = {"fork", "_exit", "kill", "waitpid"}


def process_calls(tree: ast.Module) -> list[str]:
    """`os.name` of every call of os.fork, os._exit, os.kill or os.waitpid,
    and of every such name imported from os."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            value = node.func.value
            if isinstance(value, ast.Name) and value.id == "os" and node.func.attr in PROCESS_CALLS:
                found.append(f"os.{node.func.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{alias.name}" for alias in node.names if alias.name in PROCESS_CALLS]
    return found


def test_only_parts_forks_kills_or_reaps():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        calls = process_calls(ast.parse(path.read_text(encoding="utf-8")))
        if calls and path.name != "parts.py":
            offenders[path.name] = calls
    assert offenders == {}
    assert process_calls(ast.parse((PACKAGE / "parts.py").read_text(encoding="utf-8")))


def test_process_calls_sees_calls_and_imports():
    tree = ast.parse(
        "from os import _exit, pipe\n"
        "os.fork()\n"
        "pid, status = os.waitpid(pid, 0)\n"
        "os.getpid()\n"
        "other.kill(pid, 9)\n"
    )
    assert sorted(process_calls(tree)) == ["os._exit", "os.fork", "os.waitpid"]


def test_cli_import_loads_neither_secrets_nor_statistics():
    """Each costs a few ms of start-up and neither is needed: io names its
    temp files with os.urandom and bench takes medians with numpy."""
    probe = "import sys, csufs.cli; print(sorted({'secrets', 'statistics'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert out.stdout == "[]\n"
