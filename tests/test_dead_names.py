"""Every name the package defines has a reader outside `tests/`: each
module-level function, class and assignment in `src/mtlab`, and each method,
property and annotated field of its classes, is referenced somewhere in
`src/mtlab` or `perfbench/`.

A module-level name is resolved through imports: it is read by a `Name` in
its own module, by a `Name` bound to it with `from m import name`, or as
`alias.name` on a module that `import` or `from` binds; a package's
`from .m import name` passes the reads of `package.name` on to `m.name`.  A
name read in another module, or an attribute of some other value, does not
count, so a reader's own function of the same name keeps no package name
alive.  A string that is exactly one identifier (such as a name that
`getattr` or a patch table looks up) reads every module-level name it spells.
A class member is read by an attribute read (`Attribute`), a
keyword-argument name or an identifier string, and a call `asdict(self)` in
a class body reads each annotated field of that class; a local variable of
the same name does not keep a member alive.  Strings in `__all__` and
docstrings do not count, and neither does the target of an assignment.
Members go by name, not by type: a dead member that shares its name with a
live one elsewhere passes.  Dunders are skipped, since operators reach them
without naming them, so a dead `__getitem__` or `__contains__` passes too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mtlab"
PERFBENCH = ROOT / "perfbench"

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


def _bindings(tree: ast.Module, module: str, package: bool) -> dict[str, str]:
    """Each name an import binds in the module -> the qualified name it stands for."""
    bound = {}
    parts = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:   # `import a.b` binds `a`, `import a.b as c` binds `c`
                top = alias.name.partition(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:   # relative to the package, which a package module is itself
                base = ".".join(filter(None, [*parts[:len(parts) - node.level + package],
                                              node.module]))
            bound.update({alias.asname or alias.name: f"{base}.{alias.name}"
                          for alias in node.names})
    return bound


class _Namespace:
    """The modules of a source set and the names their imports bind."""

    def __init__(self, trees: dict[str, ast.Module]):
        packages = {module.rpartition(".")[0] for module in trees} - {""}
        self.modules = set(trees) | packages
        self.bindings = {module: _bindings(tree, module, module in packages)
                         for module, tree in trees.items()}

    def resolve(self, qualified: str) -> str:
        """The module or definition a qualified name stands for, through imports."""
        seen = set()
        while qualified not in self.modules and qualified not in seen:
            seen.add(qualified)
            module, _, name = qualified.rpartition(".")
            qualified = self.bindings.get(module, {}).get(name, qualified)
        return qualified


def references(tree: ast.Module, module: str,
               names: _Namespace) -> tuple[set[str], set[str], set[str]]:
    """(the qualified names the module reads, the names it reads as a member,
    its identifier strings).

    The member reads are attribute reads, keyword-argument names,
    identifier strings and the fields of a class that calls `asdict(self)`,
    the forms that reach a class member."""
    skipped = _docstrings(tree) | _all_strings(tree)
    qualified: set[str] = set()
    members: set[str] = set()
    strings: set[str] = set()

    def target(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return names.resolve(f"{module}.{node.id}")
        if isinstance(node, ast.Attribute):
            base = target(node.value)
            if base in names.modules:
                return names.resolve(f"{base}.{node.attr}")
        return None

    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store):
            qualified.add(target(node))
            if isinstance(node, ast.Attribute):
                members.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            members.add(node.arg)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in skipped):
            strings.add(node.value)
        elif isinstance(node, ast.ClassDef) and any(map(_asdict_self, ast.walk(node))):
            members.update(f.target.id for f in node.body
                           if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name))
    qualified.discard(None)
    return qualified, members | strings, strings


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


def dead_names(defined: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Qualified names defined in `defined` (module -> source) that no source
    in `readers` (module -> source) references."""
    trees = {module: ast.parse(source) for module, source in readers.items()}
    names = _Namespace(trees)
    qualified: set[str] = set()
    members: set[str] = set()
    strings: set[str] = set()
    for module, tree in trees.items():
        read, read_as_member, spelled = references(tree, module, names)
        qualified |= read
        members |= read_as_member
        strings |= spelled
    dead = []
    for module, source in defined.items():
        top, attributes = definitions(source, module)
        dead += [q for q in top if q not in qualified and q.rsplit(".", 1)[1] not in strings]
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
    assert dead_names({"m": source}, {"m": source}) == dead


@pytest.mark.parametrize("readers, dead", [
    ({"r": "def f(): pass\nf()"}, ["p.m.f"]),
    ({"r": "from p.m import f\nf()"}, []),
    ({"r": "from p.m import f"}, ["p.m.f"]),
    ({"r": "import p.m as k\nk.f()"}, []),
    ({"r": "import p.m\np.m.f()"}, []),
    ({"r": "def g(x): return x.f"}, ["p.m.f"]),
    ({"p": "from .m import f", "r": "import p\np.f()"}, []),
    ({"p": "from .m import f", "r": "from p import f as g\ng()"}, []),
    ({"p": "from .m import f"}, ["p.m.f"]),
    ({"p.n": "from .m import f\nf()"}, []),
    ({"p.n": "from . import m\nm.f()"}, []),
], ids=["own-function-of-the-name", "from-import", "imported-unread", "module-alias",
        "dotted-import", "attribute-of-a-value", "package-re-export", "from-package",
        "re-exported-unread", "relative-import", "relative-module"])
def test_dead_names_resolves_imports(readers, dead):
    defined = {"p.m": "def f(): pass"}
    assert dead_names(defined, defined | readers) == dead


def _modules(root: Path, top: Path) -> dict[str, str]:
    """Module name, relative to `top`, -> source of each file under `root`."""
    sources = {}
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(top).with_suffix("").parts)
        sources[module.removesuffix(".__init__")] = path.read_text(encoding="utf-8")
    return sources


def test_every_package_name_has_a_reader_outside_the_tests():
    defined = _modules(PACKAGE, PACKAGE.parent)
    assert defined
    readers = defined | _modules(PERFBENCH, PERFBENCH)
    dead = [name for name in dead_names(defined, readers) if name not in EXCEPTIONS]
    assert not dead, f"defined in src/mtlab but read only by tests, if at all: {dead}"
