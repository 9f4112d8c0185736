"""Every function, method and class defined in src/ is used by the program,
every name the benchmark reads from src/ exists, and src/ imports only the
standard library.

A definition counts as used when a name, an attribute or an import in
src/curvemul or perfbench refers to it; tests do not count, so a helper
that only its own unit test calls fails here.  Attributes are matched by
name alone, so this cannot tell two methods of the same name apart.

perfbench reaches the program through `common.Program`, one attribute per
module, and replays a product from the compiled multiplier's attributes;
a name it reads that src/ no longer has fails here, not only in the
benchmark's own checks.  Its traced pass checks that replay against
`multiply`, so the replay's steps must still compose to the product.

Every mutant of `tests/mutants.py` must still apply, and the tests it names
must exist, so a stale mutant fails here on every Python version tier-1 runs.
"""

import ast
import importlib
import itertools
import random
import re
import sys
from pathlib import Path

from curvemul import tools
from curvemul.linalg import mat_vec
import mutants
from reference import basis_pairs, bundled

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
    assert ("engine", "compile_instance") in read
    missing = [f"{module}.{name}" for module, name in sorted(read)
               if not hasattr(importlib.import_module(f"curvemul.{module}"), name)]
    assert missing == []


def test_bundled_multipliers_have_what_perfbench_replays():
    for name in tools.bundled_instance_names():
        compiled = bundled(name)[1]
        for attr in ("T", "T_x", "T_y", "T_inv_top", "plan", "places"):
            assert hasattr(compiled, attr), (name, attr)
        assert callable(compiled.plan.hadamard), name


def test_perfbench_replay_equals_multiply():
    # perfbench replays a product as mat_vec on T_x and T_y, the plan's
    # componentwise product, mat_vec on T_inv_top and step 4's XOR; on seeded
    # pairs and the n^2 basis pairs that gives what `multiply` returns
    rng = random.Random(22)
    for name in tools.bundled_instance_names():
        compiled = bundled(name)[1]
        n, q = compiled.spec.n, compiled.spec.field.order
        seeded = [[[rng.randrange(q) for _ in range(n)] for _ in range(2)] for _ in range(50)]
        for x, y in itertools.chain(basis_pairs(n), seeded):
            had = compiled.plan.hadamard(mat_vec(compiled.T_x, x), mat_vec(compiled.T_y, y))
            w = mat_vec(compiled.T_inv_top, had)
            z = tuple([w[0]] + [w[j] ^ w[n + j - 1] for j in range(1, n)])
            assert z == compiled.multiply(x, y)[0], (name, x, y)


def test_src_imports_only_the_standard_library():
    imported = set()
    for path in sorted((ROOT / "src" / "curvemul").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and "__future__" in imported
    assert sorted(imported - set(sys.stdlib_module_names) - {"curvemul"}) == []


def test_every_mutant_applies_and_names_tests_that_exist():
    assert len(mutants.MUTANTS) == len({m.name for m in mutants.MUTANTS})
    assert [fault for m in mutants.MUTANTS for fault in mutants.faults(m)] == []
