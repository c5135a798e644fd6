"""The program leaves no cyclic garbage: a run frees all it made by
reference counting, without the cyclic collector.

A nested function that calls itself, or a sibling nested function, holds
itself through its closure cell, so each call of its enclosing function
leaves a cycle.  The static guard finds such closures on every path; the
runtime test checks that whole CLI runs leave no cycle of any kind.

A ratchet sits beside them: the module-level functions that recurse may
only be those in RECURSIVE, so no new traversal depends on the
interpreter's recursion limit."""

import ast
import gc
from pathlib import Path

import pytest

from lambdalab import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lambdalab"
MODULES = sorted(PACKAGE.rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _recursive_closures(path: Path) -> list[str]:
    """"line outer.inner" for each def nested in a function that names
    itself or another def nested in the same function."""
    found = set()
    for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(outer, FUNCTIONS):
            continue
        nested = [n for n in ast.walk(outer) if isinstance(n, FUNCTIONS) and n is not outer]
        names = {n.name for n in nested}
        for inner in nested:
            if any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(inner)):
                found.add((inner.lineno, f"{outer.name}.{inner.name}"))
    return [f"{line} {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_nested_def_recurses(path):
    assert _recursive_closures(path) == []


def test_guard_flags_self_and_mutual_recursion(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def walk(t):\n"
        "    def go(n):\n"
        "        return [go(c) for c in n]\n"
        "    return go(t)\n"
        "\n"
        "def parse(s):\n"
        "    def term():\n"
        "        return atom()\n"
        "    def atom():\n"
        "        return term() if s else None\n"
        "    def leaf():\n"
        "        return s\n"
        "    return term()\n"
    )
    assert _recursive_closures(module) == ["2 walk.go", "7 parse.term", "9 parse.atom"]


# The module-level functions that still recurse, as "module.function".
# Each is a traversal to be made a loop; the list may only shrink.
RECURSIVE = {
    "terms.render",
    "terms._canonical",
    "terms._substitute",
    "terms._shift",
    "terms._beta",
    "terms._contract",
    "terms._reducts",
    "terms._gen",
}


def _recursive_functions(paths) -> set[str]:
    """The module-level functions of the modules at paths that lie on a
    cycle of direct calls, following calls by name to the functions of the
    same module and to those imported from a sibling module."""
    calls = {}  # "module.function" -> the "module.name"s it calls
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        scope = {}  # a name bound at module level -> "module.name"
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                scope[node.name] = f"{path.stem}.{node.name}"
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    scope[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                calls[scope[node.name]] = {
                    scope[n.func.id]
                    for n in ast.walk(node)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in scope
                }
    found = set()
    for start in calls:  # start is on a cycle iff it is reachable from its callees
        seen, stack = set(), list(calls[start])
        while stack and start not in seen:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack += calls.get(name, ())
        if start in seen:
            found.add(start)
    return found


def test_no_new_recursive_function():
    assert _recursive_functions(MODULES) <= RECURSIVE


def test_ratchet_flags_self_mutual_and_cross_module_recursion(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import down\n"
        "def walk(t):\n"
        "    return [walk(c) for c in t]\n"
        "def even(n):\n"
        "    return n == 0 or odd(n - 1)\n"
        "def odd(n):\n"
        "    return n != 0 and even(n - 1)\n"
        "def up(n):\n"
        "    return down(n)\n"
        "def loop(t):\n"
        "    return len(t)\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import up\n"
        "def down(n):\n"
        "    return up(n - 1) if n else 0\n"
    )
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert _recursive_functions(paths) == {"a.walk", "a.even", "a.odd", "a.up", "b.down"}


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", r"(\x.x x) ((\y.y) z)", "--eps", "1/3"),
        ("analyze", r"(\x.x x x x x x x x) ((\z.z) ((\z.z) ((\z.z) y)))", "--eps", "4/7",
         "--format", "json"),
        ("analyze", r"(\w.c) ((\x.x x) (\y.y (\z.y z)))", "--eps", "2/7"),
        ("analyze", r"(\f.\y.f (f y)) (\x.\y.x y)", "--eps", "1/2"),  # renames y to y1
        ("montecarlo", "example2", "--eps", "1/2"),
        ("reduce", "Mn:3", "--strategy", "peps:1/2"),
        ("sweep", "Mn:3"),
        ("laws", "--suite", "core", "--count", "20"),
        # the outputs of cli._json, which stays because json.dumps(indent=2) leaves cycles
        ("montecarlo", "example2", "--eps", "1/2", "--format", "json"),
        ("sweep", "Mn:3", "--format", "json"),
        ("laws", "--suite", "core", "--count", "20", "--format", "json"),
    ],
    ids=[
        "analyze-literal", "analyze-dup-json", "analyze-multi-state", "analyze-renaming",
        "montecarlo", "reduce-peps", "sweep", "laws-core",
        "montecarlo-json", "sweep-json", "laws-core-json",
    ],
)
def test_cli_run_leaves_no_cyclic_garbage(capsys, argv):
    cli.build_parser()  # built once per process; argparse's own cycles are made here
    gc.collect()
    gc.disable()
    try:
        code = cli.main(list(argv))
        capsys.readouterr()
        assert code == cli.EXIT_OK
        assert gc.collect() == 0
    finally:
        gc.enable()
