import ast
from pathlib import Path

import openbooks


def test_package_has_no_assert_statements():
    # invariant checks must survive python -O, which strips assert
    package = Path(openbooks.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_diagram_module_touches_diagram_internals():
    # diagram.py owns the edge format, the id index, the adjacency, the
    # chain walk and the move bookkeeping; every other module uses its
    # public API
    package = Path(openbooks.__file__).resolve().parent
    private = {"_index", "_adjacency", "_chain", "_trusted", "__dict__", "_canonical_edges"}
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "diagram.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} import {a.name}"
                          for a in node.names if a.name in private]
    assert found == []
