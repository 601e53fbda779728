"""Every top-level import of the package is used by its module, the
package's modules import each other without a cycle, the request path
reaches no oracle module, and no command loads dataclasses or inspect.

A deletion that leaves an import behind fails here.  A name counts as
used when the module reads it (a bare name, the base of an attribute,
or a name inside a quoted annotation) or lists it in ``__all__``.  The
import graph counts every relative import, function-local ones too, so
neither a cycle nor an oracle import can hide inside a function body.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import binomial_short_put_dict

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "amhedge"

# what price and ftap run, and what only verify and the tests reach; cli
# is the one module in neither (verify's campaign is one of its commands)
REQUEST_PATH = ("errors", "rationals", "market", "enlarged", "lp", "hedging", "measures", "robust")
ORACLE_MODULES = ("campaign", "divisible", "mapper", "oracles", "strategies")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                         if isinstance(n, ast.Name)}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_top_level_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_checker_sees_unused_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Sequence, Iterator\n"
        "from .x import kept, exported, quoted\n"
        "__all__ = ['exported']\n"
        "def f(a: 'quoted') -> Sequence[int]:\n"
        "    return kept(os.sep)\n"
    )
    assert unused_imports(source) == [(2, "osp"), (3, "Iterator")]


def package_imports(source: str) -> set[str]:
    """Sibling modules named by any relative import of the source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
    return found


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the graph as a closed walk, or [] if it has none."""
    state: dict[str, str] = {}
    stack: list[str] = []

    def visit(mod: str) -> list[str]:
        state[mod] = "open"
        stack.append(mod)
        for dep in sorted(graph.get(mod, ())):
            if state.get(dep) == "open":
                return stack[stack.index(dep):] + [dep]
            if dep not in state and (cycle := visit(dep)):
                return cycle
        state[mod] = "done"
        stack.pop()
        return []

    for mod in sorted(graph):
        if mod not in state and (cycle := visit(mod)):
            return cycle
    return []


def test_package_import_graph_has_no_cycle():
    graph = {p.stem: package_imports(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert import_cycle(graph) == []


def test_cycle_finder_sees_function_local_imports():
    a = "from .b import f\n"
    b = "def f():\n    from .a import g\n    return g\n"
    graph = {"a": package_imports(a), "b": package_imports(b)}
    assert graph == {"a": {"b"}, "b": {"a"}}
    assert import_cycle(graph) == ["a", "b", "a"]
    assert import_cycle({"a": {"b"}, "b": set()}) == []


def _graph() -> dict[str, set[str]]:
    return {p.stem: package_imports(p.read_text()) for p in PACKAGE.glob("*.py")}


def reachable(graph: dict[str, set[str]], start) -> set[str]:
    """Every module an import chain from ``start`` reaches, ``start`` included."""
    seen: set[str] = set()
    stack = list(start)
    while stack:
        mod = stack.pop()
        if mod not in seen:
            seen.add(mod)
            stack.extend(graph.get(mod, ()))
    return seen


def test_request_path_reaches_no_oracle_module():
    graph = _graph()
    assert set(graph) == {*REQUEST_PATH, *ORACLE_MODULES, "cli"}
    assert reachable(graph, REQUEST_PATH) & set(ORACLE_MODULES) == set()


def test_importing_the_request_path_loads_no_oracle_module():
    script = ("import importlib, sys\n"
              f"for name in {REQUEST_PATH!r}:\n"
              "    importlib.import_module('amhedge.' + name)\n"
              f"print(sorted(m for m in {ORACLE_MODULES!r} if 'amhedge.' + m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.stdout == "[]\n", proc.stderr


def test_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    # both cost start-up time on every command: dataclasses with the inspect
    # it imports, and the methods it writes for each record at import
    model = tmp_path / "model.json"
    model.write_text(json.dumps(binomial_short_put_dict()))
    argvs = [[*command, "--model", str(model), "--out", str(tmp_path / f"{i}.json")]
             for i, command in enumerate((["price", "--side", "sub"], ["price", "--side", "super"],
                                          ["ftap"], ["enlarge-dump", "--side", "super"]))]
    loaded = "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    script = ("import sys\n"
              "from amhedge.cli import main\n"
              f"print([main(argv) for argv in {argvs!r}])\n" + loaded)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    bare, run = (subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                                text=True, timeout=60, env=env)
                 for code in ("import sys\n" + loaded, script))
    assert run.stdout == f"[0, 0, 0, 0]\n{bare.stdout}", run.stderr + bare.stderr


def test_reachable_follows_chains():
    graph = {"a": {"b"}, "b": {"c"}, "c": set(), "d": {"a"}}
    assert reachable(graph, ["a"]) == {"a", "b", "c"}
    assert reachable(graph, ["c"]) == {"c"}
