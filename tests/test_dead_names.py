"""Every name the package defines has a reader outside `tests/`: each
module-level function, class and assignment in `src/mtlab`, and each method,
property and annotated field of its classes, is referenced somewhere in
`src/mtlab` or `perfbench/`.

A reference is a name read (`Name`), an attribute read (`Attribute`), an
import alias, a keyword-argument name, or a string that is exactly one
identifier (such as a name that `getattr` or a patch table looks up).
A call `asdict(self)` in a class body reads each annotated field of that
class.  Strings in `__all__` and docstrings do not count, and neither does the
target of an assignment.  A module-level name counts any reference; a
class member counts only the forms that can reach a member (attributes,
keywords and strings), so a local variable of the same name does not
keep it alive.  The scan goes by name, not by type: a dead member that
shares its name with a live one elsewhere passes.  Dunders are skipped,
since operators reach them without naming them, so a dead `__getitem__`
or `__contains__` passes too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mtlab"
READERS = [PACKAGE, ROOT / "perfbench"]

# qualified name -> the reason it may stay unread; empty, and a new entry
# needs a reason a reader can check
EXCEPTIONS: dict[str, str] = {}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring nodes of the module, its classes and functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _all_strings(tree: ast.Module) -> set[int]:
    """The ids of the string nodes listed in a module-level `__all__`."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                found |= {id(n) for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return found


def _asdict_self(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "asdict" and len(node.args) == 1
            and isinstance(node.args[0], ast.Name) and node.args[0].id == "self")


def references(source: str) -> tuple[set[str], set[str]]:
    """(every name the source reads, the names it reads as a member).

    The second set holds attribute reads, keyword-argument names,
    identifier strings and the fields of a class that calls `asdict(self)`,
    the forms that reach a class member."""
    tree = ast.parse(source)
    skipped = _docstrings(tree) | _all_strings(tree)
    names: set[str] = set()
    members: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            members.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            members.add(node.arg)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in skipped):
            members.add(node.value)
        elif isinstance(node, ast.ClassDef) and any(map(_asdict_self, ast.walk(node))):
            members.update(f.target.id for f in node.body
                           if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name))
    return names | members, members


def _targets(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [n.id for t in node.targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _members(cls: ast.ClassDef) -> list[str]:
    """Methods, properties and annotated fields of a class, dunders excepted."""
    found = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append(node.target.id)
    return [name for name in found if not _dunder(name)]


def definitions(source: str, module: str) -> tuple[list[str], list[tuple[str, str]]]:
    """(module-level names, (qualified member, member name) pairs) the source defines."""
    tree = ast.parse(source)
    names, members = [], []
    for node in tree.body:
        names += [f"{module}.{name}" for name in _targets(node) if not _dunder(name)]
        if isinstance(node, ast.ClassDef):
            members += [(f"{module}.{node.name}.{name}", name) for name in _members(node)]
    return names, members


def dead_names(defined: dict[str, str], readers: list[str]) -> list[str]:
    """Qualified names defined in `defined` (module -> source) that no source
    in `readers` references."""
    names: set[str] = set()
    members: set[str] = set()
    for source in readers:
        read, read_as_member = references(source)
        names |= read
        members |= read_as_member
    dead = []
    for module, source in defined.items():
        top, attributes = definitions(source, module)
        dead += [q for q in top if q.rsplit(".", 1)[1] not in names]
        dead += [q for q, name in attributes if name not in members]
    return sorted(dead)


@pytest.mark.parametrize("source, dead", [
    ("def used(): pass\ndef unused(): pass\nused()", ["m.unused"]),
    ("X = 1\nY = X", ["m.Y"]),
    ('__all__ = ["f"]\ndef f(): pass', ["m.f"]),
    ('def f():\n    """f"""\n', ["m.f"]),
    ('def f(): pass\ngetattr(m, "f")', []),
    ('def f(): pass\nprint("f is here")', ["m.f"]),
    ("class C:\n    x: int\n    def m(self): pass\n    def __len__(self): return 0\nC()",
     ["m.C.m", "m.C.x"]),
    ("class C:\n    x: int\n    @property\n    def p(self): return 1\nC(x=1).p", []),
    ("class C:\n    def ids(self): pass\nC()\nids = [1]\nprint(ids)", ["m.C.ids"]),
    ("import m\nm.f()\ndef f(): pass\ndef g(): pass", ["m.g"]),
    ("from m import f as h\nh()\ndef f(): pass", []),
    ("class C:\n    x: int\n    def j(self): return asdict(self)\nC().j()", []),
    ("class C:\n    x: int\n    def j(self, o): return asdict(o)\nC().j(C())", ["m.C.x"]),
])
def test_dead_names_finds_each_form(source, dead):
    assert dead_names({"m": source}, [source]) == dead


def test_every_package_name_has_a_reader_outside_the_tests():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    defined = {}
    for path in files:
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        defined[module.removesuffix(".__init__")] = path.read_text(encoding="utf-8")
    readers = [path.read_text(encoding="utf-8")
               for root in READERS for path in sorted(root.rglob("*.py"))]
    dead = [name for name in dead_names(defined, readers) if name not in EXCEPTIONS]
    assert not dead, f"defined in src/mtlab but read only by tests, if at all: {dead}"
