import ast
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
