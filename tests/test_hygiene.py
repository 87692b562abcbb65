"""Source hygiene of `src/desbal`, read with `ast`: no module imports a name
it never uses, no function takes a parameter it never reads, no function
imports anything but the one deferred scipy.spatial import, and only
`selection._queries` builds a `Query`."""

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


def _owned(node, owner=None):
    """(enclosing function or None, node) of every node below `node`."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _owned(child, child.name if is_function else owner)


def _function_imports(tree):
    """(enclosing function, source) of every import inside a function body."""
    return [(owner, ast.unparse(node)) for owner, node in _owned(tree)
            if owner and isinstance(node, (ast.Import, ast.ImportFrom))]


def test_only_scipy_spatial_is_imported_inside_a_function():
    """Every import sits at its module's top but `data._distances`' lazy one of
    scipy.spatial, which keeps scipy.spatial unloaded until a distance is taken."""
    found = [(path.name, *imported) for path in MODULES
             for imported in _function_imports(_tree(path))]
    assert found == [
        ("data.py", "_distances", "from scipy.spatial.distance import cdist as _cdist")]


def test_only_selection_queries_builds_a_query():
    """One way to build a `Query`: every call of `Query`, by name or as an
    attribute, sits in `selection._queries`."""
    found = [(path.name, owner) for path in MODULES for owner, node in _owned(_tree(path))
             if isinstance(node, ast.Call) and "Query" in (getattr(node.func, "id", None),
                                                          getattr(node.func, "attr", None))]
    assert found == [("selection.py", "_queries")]
