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
