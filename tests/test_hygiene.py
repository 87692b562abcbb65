"""Source hygiene of `src/desbal`, read with `ast`: no module imports a name
it never uses, and no function takes a parameter it never reads."""

import ast
from pathlib import Path

import pytest

import desbal

MODULES = sorted(Path(desbal.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_read(node) -> set:
    """Every bare name `node` refers to, at any depth."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _tree(path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = _names_read(tree)
    assert not {name: line for name, line in bound.items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameter(path):
    unused = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = set().union(*(_names_read(statement) for statement in node.body))
        unused += [f"{node.name}({name}) line {node.lineno}" for name in params
                   if name not in ("self", "cls") and name not in read]
    assert not unused
