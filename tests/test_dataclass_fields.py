"""Every field declared on a dataclass of the package is read somewhere.

A field that no code reads as an attribute only stores a value: a
report field that echoes an input, or restates an equality its producer
already raised on, fails here.  A field counts as read when some module
of ``src/`` or ``tests/`` loads an attribute of that name (``x.name``),
whatever the object; the check is by name, so it cannot miss a read.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amhedge"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def dataclass_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) of each annotated field of the source's dataclasses."""
    return [(node.name, stmt.target.id)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def attributes_read(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _fields() -> list[tuple[str, str]]:
    return [(f"{path.stem}.{cls}", name) for path in sorted(PACKAGE.glob("*.py"))
            for cls, name in dataclass_fields(path.read_text())]


@pytest.fixture(scope="module")
def read() -> set[str]:
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    return set().union(*(attributes_read(path.read_text()) for path in sources))


@pytest.mark.parametrize("owner, field", _fields())
def test_dataclass_field_is_read(read, owner, field):
    assert field in read, f"{owner}.{field} is never read"


def test_checker_sees_fields_and_reads():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: list = field(default_factory=list)\n"
        "    def f(self):\n"
        "        self.z = self.x\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    w: int = 0\n"
        "class C:\n"
        "    v: int\n"
    )
    assert dataclass_fields(source) == [("A", "x"), ("A", "y"), ("B", "w")]
    assert attributes_read(source) == {"dataclass", "x"}
