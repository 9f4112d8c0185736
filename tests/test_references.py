"""Every function, method and class defined in src/ is used by the program,
and every name the benchmark reads from src/ exists.

A definition counts as used when a name, an attribute or an import in
src/curvemul or perfbench refers to it; tests do not count, so a helper
that only its own unit test calls fails here.  Attributes are matched by
name alone, so this cannot tell two methods of the same name apart.

perfbench reaches the program through `common.Program`, one attribute per
module, and replays a product from the compiled multiplier's attributes;
a name it reads that src/ no longer has fails here, not only in the
benchmark's own checks.
"""

import ast
import importlib
import re
from pathlib import Path

from curvemul import tools
from curvemul.engine import compile_instance

ROOT = Path(__file__).resolve().parents[1]
# p.<module>.<name>, program.<module>.<name> (also self.program...) and
# Program().<module>.<name>, as perfbench spells its reads from src/
READ = re.compile(r"\b(?:p|program|Program\(\))\.(\w+)\.(\w+)")


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


def test_names_perfbench_reads_exist():
    package = ROOT / "src" / "curvemul"
    read = {
        match.groups()
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for match in READ.finditer(path.read_text(encoding="utf-8"))
        if (package / f"{match[1]}.py").is_file()
    }
    assert ("engine", "compile_instance") in read and ("linalg", "mat_vec") in read
    missing = [f"{module}.{name}" for module, name in sorted(read)
               if not hasattr(importlib.import_module(f"curvemul.{module}"), name)]
    assert missing == []


def test_bundled_multipliers_have_what_perfbench_replays():
    for name in tools.bundled_instance_names():
        compiled = compile_instance(tools.load_bundled(name))
        for attr in ("T", "T_x", "T_y", "T_inv_top", "plan", "places"):
            assert hasattr(compiled, attr), (name, attr)
        assert callable(compiled.plan.hadamard), name
