import ast
import importlib
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
    # chain walk, the move bookkeeping and the fold messages a tree carries
    # from move to move; every other module uses its public API
    package = Path(openbooks.__file__).resolve().parent
    private = {"_index", "_adjacency", "_chain", "_trusted", "__dict__", "_canonical_edges",
               "_messages", "_Fold", "_refold", "_move_region"}
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


def test_exact_division_is_called_only_by_the_elimination_kernel():
    # every fraction-free division of linalg.py goes through its one
    # elimination, _pivots, so a second elimination routine cannot creep
    # back in beside it
    linalg = Path(openbooks.__file__).resolve().parent / "linalg.py"
    callers = [
        f"{getattr(top, 'name', type(top).__name__)}:{node.lineno}"
        for top in ast.parse(linalg.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_exact_div"
    ]
    assert callers and all(c.startswith("_pivots:") for c in callers), callers


def test_benchmark_trace_layers_resolve():
    # perfbench/tracer.py swaps these (module, attribute) entry points for
    # span wrappers; a renamed or deleted one breaks --trace 1.  The file is
    # read, not imported, so the benchmark side stays untouched.
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    [layers] = [
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    missing = []
    for _, modname, attr in layers:
        module = importlib.import_module(modname)
        if "." in attr:  # Class.method: a classmethod in the class body
            cls_name, meth = attr.split(".")
            ok = isinstance(vars(getattr(module, cls_name, object)).get(meth), classmethod)
        else:
            ok = callable(getattr(module, attr, None))
        if not ok:
            missing.append(f"{modname}.{attr}")
    assert len(layers) > 20
    assert missing == []
