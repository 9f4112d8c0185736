"""Mutation check of the product path, its tables and certificates, compile and verify.

Copies src/ and tests/ to a temporary directory and runs every test named
below once on the unmutated copy, which must pass.  Then, for each mutant, it
applies one text substitution to one source file (its old text must occur there
exactly once), runs the mutant's tests, which must fail, and restores the file.
A mutant whose tests pass survives, and the run exits 1.  Any other exit of
pytest is a kill: 1 a failed test; 4 a test module that no longer imports, as
test_engine compiles the bundled files at import and compile's own basis-pair
certificate refuses a wrong builder.  The unmutated run proves every named test
exists, so a 4 is never a misspelt test.

Standard library only (the tests it runs need pytest); tier-1 does not collect
it.  Run from anywhere as `python tests/mutants.py`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE = "src/curvemul/engine.py"
KERNELS = "src/curvemul/kernels.py"
TOOLS = "src/curvemul/tools.py"
TOOLS_TESTS = "tests/test_tools.py::test_verify_instance_bilinear_certificate_"
OPERANDS_TEST = "tests/test_engine.py::test_multiply_rejects_bad_operands"

Mutant = namedtuple("Mutant", "name path old new tests")

MUTANTS = [
    Mutant("drop the half check", ENGINE,
           "bytes([q - 1 << s]) * lanes", "bytes([255]) * lanes",
           [TOOLS_TESTS + "names_a_unit_entry_in_the_wrong_half"]),
    Mutant("drop the above-lanes check", ENGINE,
           'if unit & ~int.from_bytes(in_lanes, "little"):',
           'if unit & ~int.from_bytes(in_lanes, "little") & 256**lanes - 1:',
           [TOOLS_TESTS + "names_a_wrong_step3_multiple"]),
    Mutant("check only unit entries", ENGINE,
           "for i, entry in enumerate(table):",
           "for i, entry in [(1 << k * j, table[1 << k * j]) for j in range(len(digits))]:",
           [TOOLS_TESTS + "names_a_wrong_window_entry"]),
    Mutant("skip step-3 windows", ENGINE,
           "for step, c, lanes, shifts, tables in steps:",
           "for step, c, lanes, shifts, tables in steps[:1]:",
           [TOOLS_TESTS + "names_a_wrong_step3_multiple"]),
    Mutant("skip the halves check", ENGINE,
           "(range(2) if plan.kernel_steps else ())", "()",
           [TOOLS_TESTS + "names_a_wrong_halves_byte"]),
    Mutant("skip step 2's table check", ENGINE,
           "if len(step2) != 256 or step2[i] != mul(i & q - 1, i >> k):", "if False:",
           [TOOLS_TESTS + "names_a_wrong_step2_entry"]),
    Mutant("fold with row n+i", ENGINE,
           "r[n + i - 1]", "r[n + i]",
           ["tests/test_engine.py::test_step3_windows_are_the_multiples_of_t_inv_top"]),
    Mutant("build step 1 from unshifted T_y columns", ENGINE,
           "[m << k for m in multiples] for multiples in T_y.columns",
           "[m for m in multiples] for multiples in T_y.columns",
           ["tests/test_engine.py::test_step1_columns_are_the_multiples_of_t_x_and_t_y"]),
    Mutant("drop the operand range mask", ENGINE,
           " and not v & self._high", "",
           [OPERANDS_TEST]),
    Mutant("accept any operand type", ENGINE,
           "type(xy) in (list, tuple) and ", "",
           [OPERANDS_TEST]),
    Mutant("drop the exact-int check", ENGINE,
           "marshal.dumps(xy := x + y, 2)", "xy = x + y",
           [OPERANDS_TEST]),
    Mutant("pack one digit too far", ENGINE,
           "(8 - k) * (c - 1)", "(8 - k) * c",
           ["tests/test_engine.py::test_packing_puts_c_digits_in_a_byte"]),
    Mutant("drop compile's basis-pair certificate", ENGINE,
           "if wrong := compiled.wrong_basis_pairs():", "if wrong := []:",
           ["tests/test_tools.py::test_hidden_pole_corpus_is_refused_or_multiplies_right"]),
    Mutant("keep a place that does not raise the rank", ENGINE,
           "if basis.add_packed(block):", "if basis.add_packed(block) or True:",
           ["tests/test_engine.py::test_selection_skips_a_dependent_place_before_the_last"]),
    Mutant("compile k above 4", ENGINE,
           "if spec.field.k > PAIR_K:", "if False:",
           ["tests/test_engine.py::test_compile_refuses_k_above_4_before_evaluating_a_place"]),
    Mutant("accept a candidate on the divisors' support", ENGINE,
           'yield _rule("support-disjoint", hit is None,', 'yield _rule("support-disjoint", True,',
           ["tests/test_engine.py::test_candidate_rejection_named"]),
    Mutant("accept a reducible candidate modulus", ENGINE,
           'yield _rule("candidates-residue-irreducible", rabin(field, p.residue.modulus),',
           'yield _rule("candidates-residue-irreducible", True,',
           ["tests/test_tools.py::test_reducible_candidate_modulus_named"]),
    Mutant("report one bilinear product per slot", ENGINE,
           "step2_bilinear=plan.advertised_cost,", "step2_bilinear=plan.total,",
           ["tests/test_engine.py::test_op_report_exact"]),
    Mutant("verify without the table check", TOOLS,
           "fault = compiled.table_fault()", "fault = None",
           [TOOLS_TESTS + "names_a_wrong_window_entry"]),
    Mutant("verify without the basis pairs", TOOLS,
           "not (wrong or fault)", "not fault",
           [TOOLS_TESTS + "catches_a_consistent_wrong_column"]),
    Mutant("schoolbook products at kernel places", KERNELS,
           "mul_d2 if d == 2 else mul_d4", "ExtField.mul",
           ["tests/test_engine.py::test_a_product_runs_its_counted_multiplications"]),
]


def run_tests(copy: Path, tests: list[str]) -> int:
    """pytest's exit code on `tests` in the copy, its src/ first on the path; no
    bytecode is cached, so a mutant of the same length and mtime is never stale."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    for m in MUTANTS:
        found = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if found != 1:
            print(f"mutant {m.name!r}: its old text occurs {found} times in {m.path}")
            return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        all_tests = sorted({t for m in MUTANTS for t in m.tests})
        if run_tests(copy, all_tests) != 0:
            print("the unmutated copy fails its tests")
            return 1
        print(f"unmutated copy passes {len(all_tests)} test functions")
        survived = []
        for m in MUTANTS:
            path = copy / m.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            code = run_tests(copy, m.tests)
            path.write_text(original, encoding="utf-8")
            print(f"{'killed' if code else 'SURVIVED'} (exit {code}): {m.name}")
            if not code:
                survived.append(m.name)
    print(f"{len(MUTANTS) - len(survived)}/{len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
