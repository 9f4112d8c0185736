"""Mutation check of the product path, its tables and certificates, load, compile and verify,
and of the residue field's fixed maps.

Every mutant's old text must occur exactly once in its file and every test it
names must be defined in the file it names (`faults`; tier-1 checks this too,
in tests/test_references.py), or the run exits 2 naming the mutant.  Then it
copies src/ and tests/ to a temporary directory and runs every named test once
on the unmutated copy, which must pass.  For each mutant it applies the one
text substitution, runs the mutant's tests and restores the file.  The mutant
is killed only if pytest exits 1, a test that ran and failed.  An exit of 0 (it
survived), of anything else (a test module that no longer imports, no test
collected, an internal error: no named test ran to the end) or no exit within
TIMEOUT seconds (a mutant that loops) fails the run, which exits 1 and names
the mutant.

Standard library only (the tests it runs need pytest); tier-1 does not collect
it.  Run from anywhere as `python tests/mutants.py`.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CURVE = "src/curvemul/curve.py"
ENGINE = "src/curvemul/engine.py"
GALOIS = "src/curvemul/galois.py"
KERNELS = "src/curvemul/kernels.py"
TOOLS = "src/curvemul/tools.py"
TOOLS_TESTS = "tests/test_tools.py::test_verify_instance_bilinear_certificate_"
OPERANDS_TEST = "tests/test_engine.py::test_multiply_rejects_bad_operands"

TIMEOUT = 120  # seconds one pytest run may take; each takes a few here

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
    Mutant("skip step 2's table check", ENGINE,
           "if len(step2) != 256 or step2[i] != mul(i & q - 1, i >> k):", "if False:",
           [TOOLS_TESTS + "names_a_wrong_step2_entry"]),
    Mutant("fold with row n+i", ENGINE,
           "r[n + i - 1]", "r[n + i]",
           ["tests/test_engine.py::test_bilinear_certificate"]),
    Mutant("build step 1 from unshifted T_y columns", ENGINE,
           "[m << k for m in multiples] for multiples in T_y.columns",
           "[m for m in multiples] for multiples in T_y.columns",
           ["tests/test_engine.py::test_bilinear_certificate"]),
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
           "karatsuba2 if d == 2 else karatsuba4",
           "lambda t, fold, a, p, o, e=ext: p.__setitem__(slice(o, o + e.d), bytes(e.mul(*zip("
           "*[(b & e.base.order - 1, b >> e.base.k) for b in a[o : o + e.d]]))))",
           ["tests/test_engine.py::test_a_product_runs_its_counted_multiplications"]),
    Mutant("degree-2 middle form from a0 alone", KERNELS,
           "t[a[o] ^ a[o + 1]]", "t[a[o]]",
           ["tests/test_kernels.py::test_mul_d2_exhaustive_against_schoolbook"]),
    Mutant("degree-4 mid-middle form from s0 alone", KERNELS,
           "t[s0 ^ s1]", "t[s0]",
           ["tests/test_kernels.py::test_mul_d4_exhaustive_f2"]),
    Mutant("a Horner pass per place, not per fibre", CURVE,
           "if key not in self._passes:", "if True:",
           ["tests/test_engine.py::test_one_horner_pass_per_fibre"]),
    Mutant("a Rabin test per place, not per modulus", ENGINE,
           "rabin = lru_cache(maxsize=None)(is_irreducible)", "rabin = is_irreducible",
           ["tests/test_tools.py::test_each_modulus_tested_once_per_load"]),
    Mutant("repack the basis on every run of checks", ENGINE,
           "if self.family is None:", "if True:",
           ["tests/test_engine.py::test_compile_packs_the_basis_once"]),
    # a t-step that reads another lane breaks GF(4)'s own Rabin test, so the
    # package would not import and no test could run; this one is right over F_2
    Mutant("a t-step reads one bit of the top lane", GALOIS,
           "step[v >> width]", "step[v >> width & 1]",
           ["tests/test_galois.py::test_lane_apply_matches_ext_mul"]),
    Mutant("sum one Frobenius conjugate too few in the trace", GALOIS,
           "for _ in range(ext.d - 1):", "for _ in range(ext.d - 2):",
           ["tests/test_galois.py::test_absolute_trace_properties"]),
    Mutant("the generation test checks x only", CURVE,
           "if xy == start:", "if xy[0] == start[0]:",
           ["tests/test_curve.py::test_generates_residue"]),
]


def faults(m: Mutant) -> list[str]:
    """What makes mutant m stale: its old text not occurring exactly once in its
    file, or a test it names (path::function) not defined at the top of that file."""
    out, found = [], (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
    if found != 1:
        out.append(f"mutant {m.name!r}: its old text occurs {found} times in {m.path}")
    for test in m.tests:
        path, _, function = test.partition("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        if not any(isinstance(node, ast.FunctionDef) and node.name == function
                   for node in tree.body):
            out.append(f"mutant {m.name!r}: {path} defines no test {function}")
    return out


def run_tests(copy: Path, tests: list[str]) -> int | None:
    """pytest's exit code on `tests` in the copy, its src/ first on the path, or
    None if it has not exited after TIMEOUT seconds (it is then killed); no
    bytecode is cached, so a mutant of the same length and mtime is never stale."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    stale = [fault for m in MUTANTS for fault in faults(m)]
    if stale:
        print("\n".join(stale))
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
        missed = []
        for m in MUTANTS:
            path = copy / m.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            code = run_tests(copy, m.tests)
            path.write_text(original, encoding="utf-8")
            verdict = {1: "killed", 0: "SURVIVED", None: f"TIMED OUT after {TIMEOUT} s"}.get(
                code, "NO TEST RAN TO A FAILURE")
            print(f"{verdict} (exit {code}): {m.name}")
            if code != 1:
                missed.append(m.name)
    print(f"{len(MUTANTS) - len(missed)}/{len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    if missed:
        print("not killed by a failing test: " + "; ".join(missed))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
