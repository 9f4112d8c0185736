"""Every function, method and class defined in src/ is used by the program.

A definition counts as used when a name, an attribute or an import in
src/curvemul or perfbench refers to it; tests do not count, so a helper
that only its own unit test calls fails here.  Attributes are matched by
name alone, so this cannot tell two methods of the same name apart.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_src_definition_is_referenced():
    files = sorted((ROOT / "src" / "curvemul").glob("*.py"))
    defined = []
    used = set()
    for path in files + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if path in files and not dunder:
                    defined.append(f"{path.name}:{node.lineno} {node.name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert files and defined
    assert [d for d in defined if d.split()[-1] not in used] == []
