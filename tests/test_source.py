import ast
import importlib
import json
import re
import types
from pathlib import Path

import mutants
import openbooks
from openbooks import linalg
from openbooks.contact import expand_to_unit_coefficients, presentation_for, smooth_diagram
from openbooks.d3 import census_size_formula, tight_census
from openbooks.kirby import reduce_family_diagram, replay
from openbooks.lens import LensSpace
from openbooks.serialize import canonical_dumps, canonical_line


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
    # diagram.py owns the edge format, the vertices by id, the adjacency,
    # the chain walk, the move bookkeeping with a script's working state and
    # the fold messages a tree carries from move to move; every other module
    # uses its public API
    package = Path(openbooks.__file__).resolve().parent
    private = {"_by_id", "_adjacency", "_chain", "__dict__", "_source", "_h1", "_messages",
               "_Fold", "_region", "_own", "_copied", "_fold", "_records", "_ratios",
               "_changed", "_ratio"}
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


def test_package_has_no_floating_point():
    # every framing, coefficient and invariant is exact: no float literal, no
    # float() or round() call and no math function that returns a float
    package = Path(openbooks.__file__).resolve().parent
    float_math = {"sqrt", "log", "log2", "log10", "exp", "fsum"}
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("float", "round")):
                found.append(f"{path.name}:{node.lineno} {node.func.id}()")
            elif (isinstance(node, ast.Attribute) and node.attr in float_math
                  and isinstance(node.value, ast.Name) and node.value.id == "math"):
                found.append(f"{path.name}:{node.lineno} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{path.name}:{node.lineno} import {a.name}"
                          for a in node.names if a.name in float_math]
    assert found == []


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _int_calls(node, scope=None):
    """(innermost enclosing function name, call source) of each int(...) call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "int":
            yield scope, ast.unparse(child)
        yield from _int_calls(child, child.name if isinstance(child, _FUNCTIONS) else scope)


def test_no_int_call_truncates():
    # int() truncates 2.5 and 3/2 and reads True as 1, so the package calls
    # it only on values known to be exact integers: a framing after its +-1
    # check, and an exact multiple of a common denominator.  cli.py parses
    # argv text with it.
    allowed = {("blow_down", "int(v.framing)"), ("symmetric_rows", "int(x * scale)")}
    package = Path(openbooks.__file__).resolve().parent
    found = [
        f"{path.name}:{scope} {call}"
        for path in sorted(package.glob("*.py")) if path.name != "cli.py"
        for scope, call in _int_calls(ast.parse(path.read_text(encoding="utf-8")))
        if (scope, call) not in allowed
    ]
    assert found == []


def _nested_functions(outer):
    """The functions defined in the scope of `outer`, not in deeper ones."""
    todo = list(ast.iter_child_nodes(outer))
    while todo:
        node = todo.pop()
        if isinstance(node, _FUNCTIONS):
            yield node
        elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_no_nested_function_refers_to_itself_or_a_sibling():
    # a nested function that names itself or another function nested in the
    # same scope closes over the cell that holds that function: a reference
    # cycle, left behind on every call for the cycle collector.  This also
    # covers the paths the runtime garbage test does not run, such as the CLI.
    package = Path(openbooks.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(outer, _FUNCTIONS):
                continue
            nested = list(_nested_functions(outer))
            names = {fn.name for fn in nested}
            for fn in nested:
                refs = names & {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
                if refs:
                    found.append(f"{path.name}:{fn.lineno} {outer.name}.{fn.name} -> {sorted(refs)}")
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


def _tracer():
    """perfbench/tracer.py as a module, compiled from its text, so nothing
    is written beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    module = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_benchmark_trace_counters_read_attributes_that_exist():
    # each counter and maximum of perfbench/tracer.py reads the arguments
    # and the result of one traced call; run each on a real call of its
    # layer, so deleting an attribute one reads fails here, not only in a
    # --trace 1 run.  A counter with no call below is a KeyError.
    tracer = _tracer()
    h, k = 2, 2
    start = presentation_for(h, k)
    reduced = reduce_family_diagram(h, k)
    moves = json.loads(canonical_dumps(reduced.to_jsonable()))["moves"]
    replay_args = (smooth_diagram(start), moves)
    space = LensSpace(12, 5)
    matrix = [[-2, 1], [1, -3]]
    calls = {  # span name -> (args, result, the value it must count)
        "contact.expand_to_unit_coefficients":
            ((start,), expand_to_unit_coefficients(start), h + k + 1),
        "kirby.reduce_family_diagram": ((h, k), reduced, h + 9),
        "kirby.replay": (replay_args, replay(*replay_args), len(reduced.move_log)),
        "d3.tight_census": ((space,), tight_census(space), census_size_formula(space)),
        "serialize": (({"a": 1},), canonical_line({"a": 1}), len('{"a":1}')),
        "linalg.det": ((matrix,), linalg.det(matrix), 2),
    }
    got, want = {}, {}
    for name, (_, read) in {**tracer.COUNTERS, **tracer.MAXIMA}.items():
        args, result, want[name] = calls[name]
        got[name] = read(args, result)
    assert got and got == want


def _docstrings(tree):
    """The docstring nodes of a module and of each function and class in it."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef) + _FUNCTIONS)
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def test_every_definition_in_the_package_has_a_caller():
    # a function, method or class of src/ that nothing in src/ or perfbench/
    # names is dead or test-only code; tests keep their helpers in tests/.
    # A name counts as a name, an attribute, an import alias (the package's
    # exports included) or a word of a string constant such as the
    # tracer's LAYERS; a docstring is prose and does not count.
    package = Path(openbooks.__file__).resolve().parent
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    defined, named = [], set()
    for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        prose = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef,) + _FUNCTIONS) and path.parent == package:
                defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update({node.name.rpartition(".")[2], node.asname})
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in prose):
                named.update(re.findall(r"\w+", node.value))
    found = [f"{where} {name}" for name, where in defined
             if name not in named and not (name.startswith("__") and name.endswith("__"))]
    assert found == []


def test_every_mutant_anchor_occurs_once_and_its_tests_exist():
    # tests/mutants.py edits each anchor in place, so an anchor that a
    # refactor moved or duplicated must be updated with it; a test id that
    # names no test would let its mutant read as killed by a usage error
    root = Path(__file__).resolve().parents[1]
    tests = {}
    found = []
    for mutant in mutants.MUTANTS:
        count = mutants.source_path(mutant).read_text(encoding="utf-8").count(mutant.anchor)
        if count != 1:
            found.append(f"{mutant.name}: anchor occurs {count} times")
        if not mutant.tests:
            found.append(f"{mutant.name}: no test kills it")
        for test in mutant.tests:
            path, _, name = test.partition("::")
            if path not in tests:
                tree = ast.parse((root / path).read_text(encoding="utf-8"))
                tests[path] = {node.name for node in tree.body if isinstance(node, _FUNCTIONS)}
            if name not in tests[path]:
                found.append(f"{mutant.name}: no test {test}")
    assert len(mutants.MUTANTS) >= 8
    assert found == []
