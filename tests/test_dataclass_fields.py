"""Every field declared on a record of the package is read somewhere.

A record is a ``typing.NamedTuple`` subclass, whose fields are its
annotated names, or a class with ``__slots__``, whose fields are the
names the slots list.

A field that no code reads as an attribute only stores a value: a
report field that echoes an input, or restates an equality its producer
already raised on, fails here.  A slotted record's own ``__eq__`` reads
every field by construction, so its body does not count.  A field
counts as read when an attribute of that name is loaded (``x.name``) in
the module that defines the class or in a module of ``src/`` or
``tests/`` that names the class: imports it, calls it or writes it in an
annotation, or names a function or method of the package whose return
annotation names it, since such a module holds its instances without
spelling the class.  A load of the same name in a module that does
neither, such as ``args.seed`` in the CLI, is another object's attribute
and does not count.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amhedge"


def _fields_of(node: ast.ClassDef) -> list[str]:
    """The class's fields: a NamedTuple's annotated names, a slotted class's slots."""
    if any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple" for base in node.bases):
        return [stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return [slot.value for stmt in node.body if isinstance(stmt, ast.Assign)
            and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)
            for slot in getattr(stmt.value, "elts", ())]


def record_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) of each field of the source's records."""
    return [(node.name, name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) for name in _fields_of(node)]


def _walk(tree: ast.AST):
    """ast.walk without the bodies of __eq__ methods."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if not (isinstance(node, ast.FunctionDef) and node.name == "__eq__"):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def scan(source: str) -> tuple[set[str], set[str]]:
    """(names, reads) of a module: every identifier it names (variables,
    imported names, attribute names) and every attribute it loads, outside
    the bodies of __eq__ methods."""
    names: set[str] = set()
    reads: set[str] = set()
    for node in _walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return names, reads


def returned(source: str) -> dict[str, set[str]]:
    """Each function or method of the source with the names in its return annotation."""
    return {node.name: {n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(node.returns)
                        if isinstance(n, (ast.Name, ast.Attribute))}
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.returns is not None}


def reads_of(
    scans: dict[str, tuple[set[str], set[str]]], returns: dict[str, set[str]],
    home: str, cls: str,
) -> set[str]:
    """Attributes loaded in ``home``, the module defining cls, or in a
    module naming cls or a function of ``returns`` that returns it."""
    givers = {cls} | {f for f, classes in returns.items() if cls in classes}
    return set().union(*(reads for key, (names, reads) in scans.items()
                         if key == home or givers & names))


def _fields() -> list[tuple[str, str]]:
    return [(f"{path.stem}.{cls}", name) for path in sorted(PACKAGE.glob("*.py"))
            for cls, name in record_fields(path.read_text())]


@pytest.fixture(scope="module")
def scans() -> dict[str, tuple[set[str], set[str]]]:
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    return {str(path.relative_to(ROOT)): scan(path.read_text()) for path in sources}


@pytest.fixture(scope="module")
def returns() -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for path in PACKAGE.glob("*.py"):
        for name, classes in returned(path.read_text()).items():
            out.setdefault(name, set()).update(classes)
    return out


@pytest.mark.parametrize("owner, field", _fields())
def test_dataclass_field_is_read(scans, returns, owner, field):
    module, cls = owner.split(".")
    home = str((PACKAGE / f"{module}.py").relative_to(ROOT))
    assert field in reads_of(scans, returns, home, cls), f"{owner}.{field} is never read"


def test_checker_sees_fields_and_reads():
    source = (
        "import typing\n"
        "from typing import NamedTuple\n"
        "class A(NamedTuple):\n"
        "    x: int\n"
        "    y: tuple = ()\n"
        "    def f(self):\n"
        "        self.z = self.x\n"
        "class B(typing.NamedTuple):\n"
        "    w: int = 0\n"
        "class C:\n"
        "    v: int\n"
        "class D:\n"
        "    __slots__ = ('s', 't')\n"
        "    def __init__(self, s, t):\n"
        "        self.s, self.t = s, t\n"
        "    def __eq__(self, other):\n"
        "        return (self.s, self.u) == (other.s, other.u)\n"
        "class E:\n"
        "    __slots__ = ()\n"
    )
    assert record_fields(source) == [("A", "x"), ("A", "y"), ("B", "w"), ("D", "s"), ("D", "t")]
    names, reads = scan(source)
    # the reads of __eq__ do not count
    assert reads == {"NamedTuple", "x"}
    assert {"typing", "NamedTuple", "self", "x", "z", "s", "t"} <= names
    assert "u" not in names


def test_a_read_counts_only_where_the_class_is_named():
    # G.seed is loaded only as args.seed in a module that names neither G
    # nor a function returning it, which a check by attribute name alone
    # takes for a read of G.seed
    gen = ("from typing import NamedTuple\n"
           "class G(NamedTuple):\n"
           "    seed: int\n"
           "    model: str\n"
           "    laws: dict\n"
           "def draw() -> G:\n"
           "    return G(1, 'm', {})\n")
    scans = {
        "gen.py": scan(gen),
        "cli.py": scan("def run(args):\n"
                       "    return args.seed\n"),
        "use.py": scan("from gen import G\n"
                       "def model_of(g: G):\n"
                       "    return g.model\n"),
        "other.py": scan("import gen\n"
                         "laws = gen.draw().laws\n"),
    }
    returns = returned(gen)
    assert returns == {"draw": {"G"}}
    assert "seed" in set().union(*(reads for _, reads in scans.values()))
    assert reads_of(scans, returns, "gen.py", "G") == {"model", "draw", "laws"}
    # the defining module counts without naming its own class in a read
    scans["gen.py"] = scan("def seed_of(g):\n    return g.seed\n")
    assert "seed" in reads_of(scans, returns, "gen.py", "G")
