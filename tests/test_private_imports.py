"""The package imports no private part of the standard library: no `sre_*`
module and no `_`-prefixed submodule of a stdlib package (such as
`re._parser`), whose layout may change in any Python release."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mtlab"
SRE_MODULES = {"sre_parse", "sre_compile", "sre_constants"}


def _private_module(name: str) -> bool:
    top, *rest = name.split(".")
    return top in sys.stdlib_module_names and (
        name in SRE_MODULES or any(part.startswith("_") for part in rest))


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ImportError:   # the parent is a plain module, so `name` is an attribute
        return False


def private_imports(source: str) -> list[str]:
    """Each private stdlib module the source imports, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if _private_module(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if _private_module(node.module):
                found.append(node.module)
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if _private_module(f"{node.module}.{alias.name}")
                      and _is_module(f"{node.module}.{alias.name}")]
    return found


@pytest.mark.parametrize("source, found", [
    ("from re import _parser as p", ["re._parser"]),
    ("import sre_parse", ["sre_parse"]),
    ("import re._parser", ["re._parser"]),
    ("from re._parser import parse", ["re._parser"]),
    ("from json import _default_decoder", []),   # a name, not a submodule
    ("from __future__ import annotations\nimport os.path\nfrom .memo import Memo", []),
    ("import numpy._core", []),   # not the standard library
])
def test_private_imports_finds_each_form(source, found):
    assert private_imports(source) == found


def test_package_imports_no_private_stdlib_module():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = {str(path.relative_to(PACKAGE)): private_imports(path.read_text(encoding="utf-8"))
             for path in files}
    assert {path: names for path, names in found.items() if names} == {}
