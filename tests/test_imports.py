import ast
import os
import subprocess
import sys
from pathlib import Path

import fastslow

SRC = Path(fastslow.__file__).parent


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by imports that no expression in the module reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    found = {p.name: unused_imports(ast.parse(p.read_text()))
             for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def caught_names(tree: ast.Module) -> set[str]:
    """Names that an except clause of the module catches, alone or in a tuple."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for n in ast.walk(node.type):
                if isinstance(n, (ast.Name, ast.Attribute)):
                    names.add(n.id if isinstance(n, ast.Name) else n.attr)
    return names


def test_every_exception_class_is_caught_by_name():
    """A class in fastslow.exceptions earns its place by a caller that handles
    it apart from its base: a broken precondition is a ValueError, and a
    numerical failure that nobody catches by name is a FastSlowError."""
    root = SRC.parents[1]
    defined = [node.name for node in ast.parse((SRC / "exceptions.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    caught = set().union(*(caught_names(ast.parse(p.read_text())) for d in ("src", "perfbench")
                           for p in sorted((root / d).rglob("*.py"))))
    assert [name for name in defined if name not in caught] == []


def float_mod_one(tree: ast.Module) -> list[int]:
    """Lines that reduce mod 1 with np.mod/np.remainder or %, instead of systems.torus."""

    def is_one(node) -> bool:
        return isinstance(node, ast.Constant) and not isinstance(node.value, bool) \
            and node.value == 1

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and len(node.args) == 2 and is_one(node.args[1]):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else \
                getattr(node.func, "id", None)
            if name in ("mod", "remainder", "fmod"):
                lines.append(node.lineno)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod) \
                and is_one(node.right if isinstance(node, ast.BinOp) else node.value):
            lines.append(node.lineno)
    return lines


def test_torus_is_the_only_mod_one_reduction():
    found = {p.name: float_mod_one(ast.parse(p.read_text()))
             for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def is_click_command(node) -> bool:
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
               and dec.func.attr == "command" for dec in node.decorator_list)


def uncalled_public_names(trees: dict[str, ast.Module]) -> list[str]:
    """Public top-level functions and classes that no module reads by name
    outside their own definition; click commands are called by click."""
    reads = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") or is_click_command(node):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(n.id == node.name and not (m == name and id(n) in inside)
                       for m, n in reads):
                found.append(f"{name}:{node.name}")
    return found


def private_definitions(tree: ast.Module):
    """(node, label) for each private module-level function or class and each
    private method; dunder methods are called by Python."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((item, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, ast.FunctionDef))


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Private definitions that no module reads, by name or as an attribute,
    outside the definition itself."""
    reads = [(name, node, node.id if isinstance(node, ast.Name) else node.attr)
             for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    found = []
    for name, tree in trees.items():
        for node, label in private_definitions(tree):
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(read == node.name and not (m == name and id(n) in inside)
                       for m, n, read in reads):
                found.append(f"{name}:{label}")
    return found


def test_every_public_name_has_a_caller():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert uncalled_public_names(trees) == []
    assert unread_private_names(trees) == []


def unread_public_methods(trees: dict[str, ast.Module],
                          readers: list[ast.Module]) -> list[str]:
    """Public methods and properties of public classes that no reader reads as
    an attribute outside the method itself; dunder methods are called by Python.
    A staticmethod is read only as ClassName.method, so that json.loads does
    not count as a reader of a class's loads."""
    reads = [node for tree in readers for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    found = []
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                    continue
                static = any(getattr(dec, "id", None) == "staticmethod"
                             for dec in item.decorator_list)
                inside = {id(n) for n in ast.walk(item)}
                if not any(n.attr == item.name and id(n) not in inside
                           and (not static or getattr(n.value, "id", None) == cls.name)
                           for n in reads):
                    found.append(f"{name}:{cls.name}.{item.name}")
    return found


def test_every_public_method_has_a_reader():
    root = SRC.parents[1]
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    readers = [*trees.values(), *(ast.parse(p.read_text())
                                  for p in sorted((root / "perfbench").rglob("*.py")))]
    assert unread_public_methods(trees, readers) == []


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(callable name, parameter, position or -1 if keyword-only) for every
    defaulted parameter of a public top-level function, a public method or an
    __init__ (named after its class); self and cls take no position."""
    found = []

    def collect(fn, name, bound):
        args = fn.args
        positional = (args.posonlyargs + args.args)[bound:]
        for pos, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                  start=len(positional) - len(args.defaults)):
            found.append((name, arg.arg, pos))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((name, arg.arg, -1))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            collect(node, node.name, 0)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(getattr(dec, "id", None) == "staticmethod"
                             for dec in item.decorator_list)
                if item.name == "__init__":
                    collect(item, node.name, 1)
                elif not item.name.startswith("_"):
                    collect(item, item.name, 0 if static else 1)
    return found


def passes(call: ast.Call, param: str, pos: int) -> bool:
    """Whether a call passes the parameter: by keyword, by position, or
    possibly through *args or **kwargs."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if pos < 0:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > pos


def unset_defaults(defining: list[ast.Module], calling: list[ast.Module]) -> list[str]:
    """Defaulted parameters that no call passes. A call x.call(fn, *args, **kw),
    the benchmark's timed forwarder, counts as the call fn(*args, **kw)."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in calling:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr == "call" \
                    and node.args and not isinstance(node.args[0], ast.Starred):
                node = ast.Call(func=node.args[0], args=node.args[1:], keywords=node.keywords)
            name = node.func.attr if isinstance(node.func, ast.Attribute) else \
                getattr(node.func, "id", None)
            calls.setdefault(name, []).append(node)
    return [f"{name}({param})" for tree in defining
            for name, param, pos in defaulted_parameters(tree)
            if not any(passes(c, param, pos) for c in calls.get(name, []))]


def test_every_parameter_default_is_set_by_a_caller():
    """A default that only the tests set is a dial nothing turns: the tests
    do not count as callers, and they monkeypatch a module constant instead."""
    root = SRC.parents[1]
    defining = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    calling = [ast.parse(p.read_text()) for d in ("src", "perfbench")
               for p in sorted((root / d).rglob("*.py"))]
    assert unset_defaults(defining, calling) == []


HEAVY_SCIPY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.special",
               "scipy.linalg")


def loaded_modules(code: str) -> list[str]:
    """Names in sys.modules after running code in a fresh interpreter that
    imports fastslow from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    res = subprocess.run([sys.executable, "-c",
                          "import sys\n" + code + "\nprint('\\n'.join(sys.modules))"],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


IMPORT_ALL = ("import importlib, pkgutil, fastslow\n"
              "for m in pkgutil.iter_modules(fastslow.__path__):\n"
              "    importlib.import_module('fastslow.' + m.name)\n")


def test_no_module_loads_a_heavy_scipy_subpackage():
    """Importing every fastslow module, cli included, leaves these scipy
    subpackages unloaded: each costs process start-up and none is used.
    Nor does it load scipy.sparse, which ulam imports on its first matrix build."""
    loaded = loaded_modules(IMPORT_ALL)
    assert "fastslow.cli" in loaded
    assert [m for m in loaded if m.startswith(HEAVY_SCIPY + ("scipy.sparse",))] == []


def test_matrix_free_ensemble_leaves_scipy_sparse_unloaded():
    """An ensemble and its reports on closed-form providers build no transfer
    matrix, so they never load scipy.sparse, whatever else the process imports."""
    loaded = loaded_modules(IMPORT_ALL + """import numpy as np
from fastslow.experiments import clt_test, default_out_times, martingale_residual, \\
    observable_library, run_ensemble
from fastslow.limits import covariance_evolve, solve_averaged
from fastslow.standard_pairs import constant_pair
from fastslow.systems import fixture
ot = default_out_times(1.0, 9)
avg = solve_averaged(lambda th: np.zeros(1), [0.25], 1.0)
cov = covariance_evolve(avg, lambda th: np.array([[0.5]]), lambda th: np.array([[0.0]]), 1.0,
                        out_times=ot)
ens = run_ensemble(fixture("LIN"), constant_pair([0.25], 0.2, 0.3, 1e-3), 1e-3, 64, 1.0, ot,
                   7, avg)
clt_test(ens, cov)
martingale_residual(ens, observable_library(1)[0], [], 0.5, 1.0, cov)""")
    assert [m for m in loaded if m.startswith("scipy.sparse")] == []


def test_first_matrix_build_loads_scipy_sparse():
    loaded = loaded_modules("""from fastslow.ulam import ulam_operator
from fastslow.systems import fixture
assert 'scipy.sparse' not in sys.modules
ulam_operator(fixture("LIN"), [0.0], 64)""")
    assert "scipy.sparse" in loaded
