import functools
import gc
import hashlib
import itertools
import json
import operator
import random
import re
import types
from array import array
from enum import IntEnum
from fractions import Fraction

import pytest

from curvemul import curve, engine, linalg, tools
from curvemul.curve import (
    AffinePlace,
    InfinitePlace,
    PackedFamily,
    PlaceEvaluator,
    branch_series,
    series_inv,
    series_mul,
)
from curvemul.engine import (
    InstanceError,
    InstanceSpec,
    OpReport,
    aggregate_bound,
    compile_instance,
    reference_mul,
    verify_good_basis,
)
from curvemul.galois import F2, F4, F16, BinaryField, ExtField, Lanes
from curvemul.linalg import invert, rank
from reference import basis_pairs, bundled, counting_field, horner, random_operand

NAMES = ("f16_13", "f4_5", "f2_5")


class _Bundled(dict):
    """Part `i` of `bundled(name)` at key `name`, so nothing loads at import; a test
    that patches set-up reads what it needs before patching."""

    def __init__(self, i):
        super().__init__()
        self.i = i

    def __missing__(self, name):
        return bundled(name)[self.i]


SPECS, COMPILED = _Bundled(0), _Bundled(1)

# exact per-multiplication scalar/bilinear counts for the three instances
EXPECTED_COUNTS = {
    "f16_13": (702, 27, 675),
    "f4_5": (110, 12, 99),
    "f2_5": (110, 18, 99),
}


def test_reference_mul_basics():
    q = (1, 0, 0, 1, 0, 1)  # x^5 + x^3 + 1
    x = (1, 0, 1, 1, 0)
    assert reference_mul(F2, q, x, (1, 0, 0, 0, 0)) == x
    assert reference_mul(F2, q, x, (0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0)
    # b^4 * (b^2 + b^3) = b^6 + b^7, reduced with b^5 = b^3 + 1
    assert reference_mul(F2, q, (0, 0, 0, 0, 1), (0, 0, 1, 1, 0)) == (1, 1, 1, 1, 1)


def test_published_first_examples():
    got, _ = COMPILED["f16_13"].multiply(
        [2, 1] + [0] * 11, [1, 2, 2] + [0] * 10
    )
    assert list(got) == [2, 5, 6, 2] + [0] * 9
    got, _ = COMPILED["f4_5"].multiply([2, 1, 0, 0, 0], [1, 2, 2, 0, 0])
    assert list(got) == [2, 2, 1, 2, 0]
    got, _ = COMPILED["f2_5"].multiply([1, 1, 0, 0, 0], [1, 1, 1, 0, 0])
    assert list(got) == [1, 0, 0, 1, 0]


def test_oracle_equivalence_random():
    for name in NAMES:
        spec, compiled = SPECS[name], COMPILED[name]
        rng = random.Random(f"oracle/{name}")  # a str seed is not salted per process
        for _ in range(200):
            x = random_operand(rng, spec)
            y = random_operand(rng, spec)
            want = reference_mul(spec.field, spec.q_modulus, x, y)
            got, _ = compiled.multiply(x, y)
            assert got == want


def test_bilinear_certificate():
    # every table a product reads holds what field.mul gives (`table_fault`: steps
    # 1 and 3 F_q-linear, step 2 a * b), so multiply is F_q-bilinear, as
    # reference_mul is; agreeing on the n^2 basis pairs (169/25/25) then makes
    # them agree on all q^(2n) pairs, given the base-field table that
    # test_fe_mul_against_oracle_exhaustive checks in full
    for name, field in (("f16_13", F16), ("f4_5", F4), ("f2_5", F2)):
        spec, compiled = SPECS[name], COMPILED[name]
        assert spec.field == field
        assert compiled.table_fault() is None, name
        for x, y in basis_pairs(spec.n):
            assert compiled.multiply(x, y)[0] == reference_mul(field, spec.q_modulus, x, y)


def test_commutativity():
    for name in NAMES:
        spec, compiled = SPECS[name], COMPILED[name]
        rng = random.Random(91)
        for _ in range(50):
            x = random_operand(rng, spec)
            y = random_operand(rng, spec)
            assert compiled.multiply(x, y)[0] == compiled.multiply(y, x)[0]


def test_identity_and_absorbing():
    for name in NAMES:
        spec, compiled = SPECS[name], COMPILED[name]
        one = [1] + [0] * (spec.n - 1)
        zero = [0] * spec.n
        rng = random.Random(17)
        for _ in range(20):
            x = random_operand(rng, spec)
            assert list(compiled.multiply(x, one)[0]) == x
            assert compiled.multiply(x, zero)[0] == tuple(zero)


def test_bilinearity_in_first_argument():
    spec, compiled = SPECS["f4_5"], COMPILED["f4_5"]
    rng = random.Random(5)
    for _ in range(25):
        x1 = random_operand(rng, spec)
        x2 = random_operand(rng, spec)
        y = random_operand(rng, spec)
        xs = [a ^ b for a, b in zip(x1, x2)]
        z1 = compiled.multiply(x1, y)[0]
        z2 = compiled.multiply(x2, y)[0]
        zs = compiled.multiply(xs, y)[0]
        assert zs == tuple(a ^ b for a, b in zip(z1, z2))


def test_op_report_exact():
    for name in NAMES:
        spec, compiled = SPECS[name], COMPILED[name]
        n, g = spec.n, spec.g
        rng = random.Random(3)
        x = random_operand(rng, spec)
        y = random_operand(rng, spec)
        _, report = compiled.multiply(x, y)
        want = EXPECTED_COUNTS[name]
        assert (report.step1_scalar, report.step2_bilinear, report.step3_scalar) == want
        assert report.step1_scalar == 2 * n * (2 * n + g - 1)
        assert report.step3_scalar == (2 * n - 1) * (2 * n + g - 1)
        assert report.total == sum(want)
        assert compiled.expected_report == report
        assert report is compiled.report  # fixed at compile time
        assert OpReport.expected(n, g, compiled.place_degrees) == report


def test_multiply_runs_place_by_place(monkeypatch):
    # building a multiplier and its products call no mat-vec, the replay-only
    # step, and the products are the oracle's
    def banned(*args, **kwargs):
        raise AssertionError("multiply called a replay-only step")

    multipliers = {name: COMPILED[name] for name in NAMES}  # built before the ban
    monkeypatch.setattr(engine, "mat_vec", banned, raising=False)
    monkeypatch.setattr(linalg, "mat_vec", banned)
    for name in NAMES:
        spec, c = SPECS[name], multipliers[name]
        compiled = engine.CompiledMultiplier(spec, c.places, c.T.packed, c.T_inv_top.packed)
        rng = random.Random(8)
        for _ in range(5):
            x, y = random_operand(rng, spec), random_operand(rng, spec)
            assert compiled.multiply(x, y)[0] == reference_mul(spec.field, spec.q_modulus, x, y)
        one = [1] + [0] * (spec.n - 1)
        assert compiled.multiply(one, one)[0] == tuple(one)


def test_a_product_runs_its_counted_multiplications():
    # the multiplier rebuilt over a copy of its base field whose product table
    # and pair table count their reads.  Each bilinear product is one read of
    # step 2's pair table, which `table_fault` certifies: one per slot by its
    # `translate`, which the count does not see, and the rest as subscripts at
    # the kernel places, 1 per degree-2 place and 5 per degree-4 place.  So
    # every product, whatever its operands, subscripts that table
    # `step2_bilinear` less the slots (0 / 1 / 7) and reads no entry of the
    # product table (fold rows are bound when the multiplier is built), so it
    # makes no `field.mul` call
    for name in NAMES:
        spec, c = SPECS[name], COMPILED[name]
        residues = [p.residue if p.degree > 1 else None for p in c.places]
        field, residues = counting_field(spec.field, residues)
        places = [types.SimpleNamespace(degree=1 if e is None else e.d, residue=e) for e in residues]
        bare = types.SimpleNamespace(field=field, n=spec.n, size=spec.size)
        counted = engine.CompiledMultiplier(bare, places, c.T.packed, c.T_inv_top.packed)
        reads = c.report.step2_bilinear - counted.plan.total
        assert reads == {"f16_13": 0, "f4_5": 1, "f2_5": 7}[name]
        rng = random.Random(34)
        for _ in range(50):
            x, y = random_operand(rng, spec), random_operand(rng, spec)
            want = reference_mul(spec.field, spec.q_modulus, x, y)
            field.rows.lookups = field.pair_table.lookups = 0
            assert counted.multiply(x, y)[0] == want, name
            assert (field.rows.lookups, field.pair_table.lookups) == (0, reads), (name, x, y)


def test_column_tables_take_one_pass_over_the_product_table_each(monkeypatch):
    # freezing the multiplier builds three tables of column multiples
    # (`Matrix.columns`): of T_x, of T_y, and of the n-row fold of
    # T_inv_top's rows that is steps 3 and 4, and neither T's nor
    # T_inv_top's.  Each table packs its transpose as one lane vector and
    # takes its q multiples from one `Lanes.multiples`, one `translate` per
    # row of the field's product table (`field.rows`): no lane scale and no
    # field.mul, and no pass per column or per a.  The windows are XORs of
    # those multiples, with no pass of their own
    passes, built = [], []

    class Rows(tuple):
        def __iter__(self):
            passes.append(len(self))
            return tuple.__iter__(self)

    def banned(*args):
        raise AssertionError("per-entry arithmetic while freezing the multiplier")

    def multiples(lanes, v):
        built.append(lanes.count)
        return real_multiples(lanes, v)

    real_multiples = Lanes.multiples
    multipliers = {name: COMPILED[name] for name in NAMES}  # built before the bans
    monkeypatch.setattr(Lanes, "scale", banned)
    monkeypatch.setattr(Lanes, "multiples", multiples)
    monkeypatch.setattr(BinaryField, "mul", banned)
    for name in NAMES:
        c, field, n, size = multipliers[name], SPECS[name].field, SPECS[name].n, SPECS[name].size
        monkeypatch.setattr(field, "rows", Rows(field.rows))
        passes.clear()
        built.clear()
        frozen = engine.CompiledMultiplier(c.spec, c.places, c.T.packed, c.T_inv_top.packed)
        assert passes == [field.order] * 3, name
        # one transpose each, of T_x, T_y (size x n) and the fold (n x size), none of T's size
        assert built == [size * n] * 3, name
        assert frozen.step1.tables == c.step1.tables
        assert frozen.step3.tables == c.step3.tables
        assert frozen.T._columns is None and frozen.T_inv_top._columns is None, name
        assert frozen.T_x._columns is not None and frozen.T_y._columns is not None, name


def _windows_by_definition(columns, c, k):
    # entry i of window w: the XOR over j of column c*w + j's multiple at
    # digit j of i, the k bits from k*j
    out = []
    for w in range(0, len(columns), c):
        group = columns[w : w + c]
        table = []
        for i in range((1 << k) ** len(group)):
            entry = 0
            for j, multiples in enumerate(group):
                entry ^= multiples[(i >> k * j) & ((1 << k) - 1)]
            table.append(entry)
        out.append(tuple(table))
    return tuple(out)


def test_windows_xor_their_digits_multiples():
    rng = random.Random(27)
    for k in (1, 2, 3, 4):
        columns = [tuple(rng.randrange(1 << 40) for _ in range(1 << k)) for _ in range(7)]
        assert linalg.windows(columns, 1) == tuple(columns)  # c = 1: the columns
        for c in range(2, 8 // k + 1):
            assert linalg.windows(columns, c) == _windows_by_definition(columns, c, k), (k, c)


def test_straight_line_xors_one_entry_per_table():
    # for 1..40 seeded tables, the generated function is the XOR of one entry
    # per table; an index one short or one long raises, never a shorter XOR;
    # and its code reads no global but the tables t0, t1, ... and holds no
    # constant but None
    rng = random.Random(28)
    for count in range(1, 41):
        tables = tuple(tuple(rng.randrange(1 << 64) for _ in range(rng.choice((2, 16, 256))))
                       for _ in range(count))
        f = linalg.straight_line(tables)
        assert f.tables is tables
        for _ in range(20):
            index = [rng.randrange(len(t)) for t in tables]
            assert f(index) == functools.reduce(operator.xor, map(operator.getitem, tables, index))
            assert f(bytes(index)) == f(tuple(index)) == f(index)
        for wrong in (index[:-1], index + [0]):
            with pytest.raises(ValueError):
                f(wrong)
        assert f.__code__.co_names == tuple(f"t{j}" for j in range(count))
        assert set(f.__code__.co_consts) <= {None}


def test_windows_are_the_tables_the_product_reads():
    # `set_windows` regenerates `step1` and `step3` from the windows it is
    # given, and a product reads those: with either step's windows zeroed 1 * 1
    # is 0, and on copies of the compiled windows a product is
    # `step3(plan.step2(step1(v)))`, v the checked x ‖ y packed one coordinate
    # per byte, on every basis pair and seeded pairs
    for name in NAMES:
        c, spec = COMPILED[name], SPECS[name]
        frozen = engine.CompiledMultiplier(c.spec, c.places, c.T.packed, c.T_inv_top.packed)
        one = [1] + [0] * (spec.n - 1)
        zeros1, zeros3 = (tuple((0,) * len(w) for w in t)
                          for t in (c.step1.tables, c.step3.tables))
        for windows in ((zeros1, c.step3.tables), (c.step1.tables, zeros3)):
            frozen.set_windows(*windows)
            assert frozen.multiply(one, one)[0] == (0,) * spec.n, name
        frozen.set_windows(*(tuple(map(tuple, t)) for t in (c.step1.tables, c.step3.tables)))
        rng = random.Random(3)
        pairs = basis_pairs(spec.n)
        pairs += [(random_operand(rng, spec), random_operand(rng, spec)) for _ in range(20)]
        for x, y in pairs:
            v = int.from_bytes(bytes(x + y), "little")
            z = frozen.step3(frozen.plan.step2(frozen.step1(v)))
            assert frozen.multiply(x, y)[0] == z == reference_mul(spec.field, spec.q_modulus, x, y)


def _multiplier_on(field, residues):
    """A multiplier whose plan has these residues in slot order (None for a
    degree-1 place), on made-up rows: enough to run its step 2, not a product."""
    places = [types.SimpleNamespace(degree=1 if ext is None else ext.d, residue=ext)
              for ext in residues]
    size = sum(p.degree for p in places)
    spec = types.SimpleNamespace(field=field, n=(size + 1) // 2, size=size)
    return engine.CompiledMultiplier(spec, places, list(range(1, size + 1)), [1] * size)


def test_step2_is_the_plans_step2():
    # a product's step 2 is its plan's `step2`, which returns its one
    # `translate` when every place is rational and runs the Karatsuba cores
    # otherwise: both give each place's product in its residue field, for
    # every pair byte a | b << k (a, b in F_q) in every slot, on the bundled
    # plans and on k = 3 plans (the one `test_step2_with_k_3` builds, and one
    # with rational places only)
    F8 = BinaryField(3, 0b1011)
    E64 = ExtField(F8, (1, 1, 1))
    multipliers = [COMPILED[name] for name in NAMES]
    multipliers += [_multiplier_on(F8, [None, E64]), _multiplier_on(F8, [None] * 3)]
    kernel_places = [any(p.degree > 1 for p in c.places) for c in multipliers]
    assert kernel_places == [False, True, True, True, False]
    rng = random.Random(32)
    for c in multipliers:
        field, plan = c.spec.field, c.plan
        q, k = field.order, field.k
        slots = [rng.sample(range(q << k), q << k) for _ in range(plan.total)]
        for pairs in map(bytes, zip(*slots)):  # each slot sees every pair byte once
            xs, ys = [a & q - 1 for a in pairs], [a >> k for a in pairs]
            want, offset = [], 0
            for p in c.places:
                end = offset + p.degree
                if p.degree == 1:
                    want.append(field.mul(xs[offset], ys[offset]))
                else:
                    want += p.residue.mul(tuple(xs[offset:end]), tuple(ys[offset:end]))
                offset = end
            assert list(plan.step2(pairs)) == want, (field, pairs)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_packing_puts_c_digits_in_a_byte(k):
    # (v * m >> t).to_bytes(L)[::c] against the shift-or form: byte i of the
    # result ORs digits c*i + j of v (one per byte, below 2^k) at bits k*j,
    # for every length L in 1..40 and c = 8 // k
    c, rng = 8 // k, random.Random(k)
    m, t = engine.packing(k, c)
    for length in range(1, 41):
        for _ in range(20):
            digits = [rng.randrange(1 << k) for _ in range(length)]
            v = int.from_bytes(bytes(digits), "little")
            want = bytes(sum(d << k * j for j, d in enumerate(digits[i : i + c]))
                         for i in range(0, length, c))
            assert (v * m >> t).to_bytes(length, "little")[::c] == want, (k, length, digits)


def test_generated_source_holds_no_instance_text():
    # place labels and the instance name rewritten to hold quotes and a
    # newline: compile generates the same steps, code object for code object,
    # whose constants are ints, None and 'little' and whose globals are the
    # windows and the int and bytes calls, so no instance string reaches them
    for name in NAMES:
        doc = json.loads(tools.bundled_instance_path(name).read_text(encoding="utf-8"))
        for i, place in enumerate(doc["places"]):
            place["label"] = f"P{i}')\n\"\"\"\nraise SystemExit('{i}\""
        compiled = compile_instance(tools.instance_from_document(doc, "a'b\"\nc"))
        assert "\n" in compiled.places[0].label
        for step in ("step1", "step3"):
            code = getattr(compiled, step).__code__
            assert code == getattr(COMPILED[name], step).__code__, (name, step)
            assert all(c is None or c == "little" or type(c) is int for c in code.co_consts)
            assert all(re.fullmatch(r"t\d+|to_bytes|from_bytes|int|tuple", g)
                       for g in code.co_names), (name, step)


def test_compile_and_multiply_leave_no_cyclic_garbage():
    # the generated steps' namespaces do not hold the functions, so a dropped
    # multiplier is freed by reference counting: no collection finds a cycle
    gc.collect()
    gc.disable()
    try:
        for name in NAMES:
            spec = SPECS[name]
            rng = random.Random(5)
            for _ in range(5):
                compiled = compile_instance(spec)
                x, y = random_operand(rng, spec), random_operand(rng, spec)
                assert compiled.multiply(x, y)[0] == reference_mul(spec.field, spec.q_modulus, x, y)
        del compiled
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("budget, choices", [
    (0, {"f16_13": ((1, 1), (416, 432)), "f4_5": ((1, 1), (40, 44)),
         "f2_5": ((1, 1), (20, 22))}),
    (600, {"f16_13": ((1, 1), (416, 432)), "f4_5": ((4, 1), (528, 44)),
           "f2_5": ((8, 8), (260, 264))}),
    (None, {"f16_13": ((2, 1), (3328, 432)), "f4_5": ((4, 4), (528, 576)),
            "f2_5": ((8, 8), (260, 264))}),
], ids=["budget-0", "budget-600", "default"])
def test_table_budget_picks_the_windows(monkeypatch, budget, choices):
    # step 1 takes c = 8 // k if its windows fit in TABLE_BUDGET, step 3 if
    # both fit, else c = 1 (f16_13's step-3 windows would add 3344 entries);
    # the stored entries of each step are pinned, and every product still
    # equals the oracle's: all 1024 pairs on f2_5, seeded pairs on the others
    assert engine.TABLE_BUDGET == 4096
    multipliers = {name: COMPILED[name] for name in NAMES}  # built before the budget changes
    if budget is not None:
        monkeypatch.setattr(engine, "TABLE_BUDGET", budget)
    rng = random.Random(27)
    for name in NAMES:
        spec, c = SPECS[name], multipliers[name]
        frozen = engine.CompiledMultiplier(spec, c.places, c.T.packed, c.T_inv_top.packed)
        sizes = tuple(sum(map(len, t)) for t in (frozen.step1.tables, frozen.step3.tables))
        assert (frozen.widths, sizes) == choices[name], name
        if name == "f2_5":
            pairs = itertools.product(itertools.product(range(2), repeat=5), repeat=2)
        else:
            pairs = [(random_operand(rng, spec), random_operand(rng, spec)) for _ in range(200)]
        for x, y in pairs:
            want = reference_mul(spec.field, spec.q_modulus, x, y)
            assert frozen.multiply(x, y) == (want, frozen.report), (name, x, y)


def test_records_repr_equality_and_immutability():
    report = COMPILED["f16_13"].report
    assert repr(report) == "OpReport(step1_scalar=702, step2_bilinear=27, step3_scalar=675)"
    check = engine.CheckResult("compile", True)
    assert repr(check) == "CheckResult(name='compile', ok=True, detail='', advisory=False)"
    assert check == engine.CheckResult(name="compile", ok=True, detail="", advisory=False)
    assert OpReport(1, 2, 3) == OpReport(step1_scalar=1, step2_bilinear=2, step3_scalar=3)
    for name in NAMES:
        assert COMPILED[name].report == COMPILED[name].expected_report
    with pytest.raises(AttributeError):
        report.step1_scalar = 0
    with pytest.raises(AttributeError):
        check.ok = False
    assert report.step1_scalar == 702 and check.ok


def test_op_report_constant_across_inputs():
    compiled = COMPILED["f2_5"]
    _, r1 = compiled.multiply([1, 0, 1, 1, 0], [0, 1, 1, 0, 1])
    _, r2 = compiled.multiply([0, 0, 0, 0, 0], [1, 1, 1, 1, 1])
    assert r1 == r2


def test_aggregate_bound_values():
    assert aggregate_bound(13, 2, 1) == 1420
    assert aggregate_bound(5, 2, 2) == 236
    assert aggregate_bound(5, 2, 4) == 251
    assert aggregate_bound(5, 2, 2) == Fraction(236, 1)
    for name in NAMES:
        spec, compiled = SPECS[name], COMPILED[name]
        bound = aggregate_bound(spec.n, spec.g, max(compiled.place_degrees))
        assert compiled.expected_report.total <= bound


def test_selected_places_are_deterministic():
    # frozen selections; f4_5 and f2_5 each evaluate and reject one candidate
    # (Q_1, R_1) whose rows do not raise rank(T) by its degree
    assert [p.label for p in COMPILED["f16_13"].places] == [
        f"P_{i}" for i in range(2, 29)
    ]
    assert [p.label for p in COMPILED["f4_5"].places] == [
        "P_inf_1", "P_inf_2", "P_3", "P_4", "P_5", "P_6", "P_7", "P_8", "P_9", "Q_2",
    ]
    assert [p.label for p in COMPILED["f2_5"].places] == [
        "P_inf_1", "P_inf_2", "P_3", "Q_1", "Q_2", "R_2",
    ]


# sha256 prefixes of bytes(T.entries), bytes(T_inv_top.entries) and the
# comma-joined selected labels, as compiled before set-up became one pass
SETUP_DIGESTS = {
    "f16_13": (
        "df67a324c0482afaed81018a43d58d64",
        "f7ace838d8a9a5b13b343548e17adf98",
        "464237850ca709014b02c6df90751e0c",
    ),
    "f4_5": (
        "5538273580e4cd27c57d540077cd8093",
        "219ada4d5b557f6d7dd2aaf242561144",
        "e3c560d23dce0666a487a354ae88be96",
    ),
    "f2_5": (
        "14923575cc2166d66c23a25715f5ef9f",
        "23dda9b35e2043b27c81dfdee3cc5c39",
        "7a82e8dfcbb9ff3a2f4a6d7c6815ce68",
    ),
}


def test_setup_is_bit_identical():
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:32]

    for name in NAMES:
        compiled = COMPILED[name]
        got = (
            digest(bytes(compiled.T.entries)),
            digest(bytes(compiled.T_inv_top.entries)),
            digest(",".join(p.label for p in compiled.places).encode()),
        )
        assert got == SETUP_DIGESTS[name], name


def test_operands_embed_on_the_columns_of_t():
    # the embedding pinned on the matrices themselves: x on columns 0..n-1
    # of T, y on columns 0, n..2n-2, and T_inv_top the first 2n-1 rows of
    # T's inverse; each matrix's entries are its packed rows, unpacked
    def columns(m, js):
        return [m.entries[i * m.cols + j] for i in range(m.rows) for j in js]

    for name in NAMES:
        c, n = COMPILED[name], SPECS[name].n
        T = c.T
        assert (c.T_x.cols, c.T_y.cols, c.T_inv_top.cols) == (n, n, T.cols)
        assert list(c.T_x.entries) == columns(T, range(n))
        assert list(c.T_y.entries) == columns(T, [0, *range(n, 2 * n - 1)])
        assert c.T_inv_top.entries == invert(T).entries[: (2 * n - 1) * T.cols]
        for m in (T, c.T_x, c.T_y, c.T_inv_top):
            lanes = Lanes(m.field, m.cols)
            assert [v for r in m.packed for v in lanes.unpack(r, m.cols)] == list(m.entries)
            assert all(r >> 8 * m.cols == 0 for r in m.packed), name


def horner_value(curve, f, place):
    """Reference: f's value at a place, one polynomial at a time.

    Affine places use Horner's rule in the residue field; places over
    infinity expand f in s = 1/x at a generous fixed precision.
    """
    if isinstance(place, AffinePlace):
        res, alpha = place.residue, place.x_img
        num = res.add(
            res.mul(horner(res, f.ay, alpha), place.y_img),
            horner(res, f.b, alpha),
        )
        return list(res.mul(num, res.inv(horner(res, f.den, alpha))))
    field = curve.field
    m = max(len(f.ay), len(f.b), 1) - 1
    prec = m + len(f.den) + 16
    a_shift, b_shift = [0] * prec, [0] * prec
    for i, c in enumerate(f.ay):
        a_shift[m - i] = c
    for i, c in enumerate(f.b):
        b_shift[m - i] = c
    num = series_mul(field, a_shift, branch_series(curve, place.branch_y0, prec), prec)
    num = [u ^ v for u, v in zip(num, b_shift)]
    g = series_mul(field, num, series_inv(field, list(reversed(f.den)), prec), prec)
    pivot = m - (len(f.den) - 1)
    if pivot < 0:
        return [0]
    assert not any(g[:pivot]), "no basis function has a pole at a candidate"
    return [g[pivot]]


def test_evaluator_matches_horner_reference():
    for name in NAMES:
        spec = SPECS[name]
        for place in (spec.q_place,) + spec.candidate_places:
            at_place = PlaceEvaluator(place, PackedFamily(spec.curve, spec.basis))
            for idx, f in enumerate(spec.basis):
                want = horner_value(spec.curve, f, place)
                assert at_place.value(idx) == want, (name, place.label, idx)


def test_compile_refuses_k_above_4_before_evaluating_a_place(monkeypatch):
    # a product packs x's and y's values at a slot into one byte, so the base
    # field needs 2k <= 8; a stand-in spec over GF(2^5) (f2_5's data with the
    # field swapped after validation) is refused first, with no place evaluated
    built = []

    class Counting(PlaceEvaluator):
        __slots__ = ()

        def __init__(self, place, family):
            built.append(place)
            super().__init__(place, family)

    spec, f2_5 = tools.load_bundled("f2_5"), SPECS["f2_5"]
    monkeypatch.setattr(engine, "PlaceEvaluator", Counting)
    spec.field = BinaryField(5, 0b100101)  # w^5 + w^2 + 1
    with pytest.raises(InstanceError, match=r"^products need 2k <= 8 .*; k = 5$"):
        compile_instance(spec)
    assert built == []
    compile_instance(f2_5)  # the count sees an evaluation when there is one
    assert built


def test_each_candidate_evaluated_at_most_once(monkeypatch):
    # f4_5 and f2_5 each reject one evaluated candidate during compile
    built = []

    class Counting(PlaceEvaluator):
        __slots__ = ()

        def __init__(self, place, family):
            built.append(place.label)
            super().__init__(place, family)

    specs = {name: SPECS[name] for name in NAMES}  # loaded before the count
    monkeypatch.setattr(engine, "PlaceEvaluator", Counting)
    for name, swapped in (("f4_5", "Q_1"), ("f2_5", "R_1")):
        built.clear()
        compiled = compile_instance(specs[name])
        assert sorted(built) == sorted(
            ["Q", swapped] + [p.label for p in compiled.places]
        ), name


def test_compile_packs_the_basis_once(monkeypatch):
    # one packing per instance from load through compile and verify: the
    # loader's place checks, the good-basis check at Q and every candidate
    # read it, and Q's y-image takes none
    built = []
    real_init = curve.PackedPolys.__init__

    def counting_init(self, field, polys):
        built.append(len(polys))
        real_init(self, field, polys)

    monkeypatch.setattr(curve.PackedPolys, "__init__", counting_init)
    for name in NAMES:
        built.clear()
        spec = tools.load_bundled(name)
        compile_instance(spec)
        verify_good_basis(spec)
        tools.verify_instance(spec)
        # ay, b, den of each basis function, then rhs_num, rhs_den, D1, D2
        assert built == [3 * spec.size + 4], name


def test_one_horner_pass_per_fibre(monkeypatch):
    # one pass per (residue modulus, x-image) from load through compile and
    # verify, Q's included: the loader's place checks make them and the rest
    # read them.  The two places over one x-image share one: f16_13's Q and
    # 32 candidates lie over 17 keys, and compile evaluates Q and 27
    # rational places over 14 x-images
    passes, evaluated = [], []
    real_pass = curve.PackedPolys._horner

    def counting_pass(self, res, x_img):
        passes.append((res.modulus, x_img))
        return real_pass(self, res, x_img)

    class Counting(PlaceEvaluator):
        __slots__ = ()

        def __init__(self, place, family):
            evaluated.append(place)
            super().__init__(place, family)

    monkeypatch.setattr(curve.PackedPolys, "_horner", counting_pass)
    monkeypatch.setattr(engine, "PlaceEvaluator", Counting)
    for name, affine, fibres, keys in (
        ("f16_13", 28, 15, 17), ("f4_5", 10, 6, 7), ("f2_5", 6, 5, 5),
    ):
        passes.clear()
        evaluated.clear()
        spec = tools.load_bundled(name)
        loaded = list(passes)
        compile_instance(spec)
        places = [p for p in evaluated if isinstance(p, AffinePlace)]
        verify_good_basis(spec)
        tools.verify_instance(spec)
        assert places[0] is spec.q_place
        assert len(places) == affine, name
        assert len({(p.residue.modulus, p.x_img) for p in places}) == fibres, name
        everywhere = {
            (p.residue.modulus, p.x_img)
            for p in (spec.q_place,) + spec.candidate_places
            if isinstance(p, AffinePlace)
        }
        assert len(everywhere) == keys, name
        assert passes == loaded, name  # compile and verify run none of their own
        assert sorted(passes) == sorted(everywhere), name
        assert passes.count((spec.q_modulus, spec.q_place.x_img)) == 1, name


def test_den_vanishing_candidate_named():
    spec = SPECS["f2_5"]
    res = ExtField(spec.field, spec.d1_den)
    bad = AffinePlace(res, res.gen(), res.zero(), "BAD")
    tampered = InstanceSpec(
        "tampered", spec.field, spec.curve, spec.n, spec.q_place,
        spec.d1_den, spec.d2_den, spec.basis, spec.candidate_places,
    )
    # validation rejects such a candidate, so put it in after the fact
    tampered.candidate_places = (bad,) + spec.candidate_places
    with pytest.raises(InstanceError, match=r"f_\d+ has a pole at place BAD: .*collision"):
        compile_instance(tampered)


def with_candidates(spec, candidates):
    return InstanceSpec(
        "pool", spec.field, spec.curve, spec.n, spec.q_place,
        spec.d1_den, spec.d2_den, spec.basis, candidates,
    )


def test_selection_skips_a_dependent_place_before_the_last():
    # without P_inf_1, R_1 is dependent on the places before it and P_4 comes
    # after it; swapping only the last selected place cannot find this set
    spec = SPECS["f2_5"]
    compiled = compile_instance(with_candidates(
        spec, [p for p in spec.candidate_places if p.label != "P_inf_1"]
    ))
    assert [p.label for p in compiled.places] == [
        "P_inf_2", "P_3", "Q_1", "Q_2", "R_2", "P_4",
    ]
    report = compiled.report
    assert (report.step1_scalar, report.step2_bilinear, report.step3_scalar) == (110, 18, 99)
    assert rank(compiled.T) == spec.size
    for x, y in basis_pairs(spec.n):
        assert compiled.multiply(x, y)[0] == reference_mul(spec.field, spec.q_modulus, x, y)


def test_selection_short_of_full_rank_fails():
    spec = SPECS["f2_5"]
    pool = sorted(spec.candidate_places, key=lambda p: p.label != "R_1")
    assert pool[0].label == "R_1"
    with pytest.raises(InstanceError, match="reach only rank 10 of the required 11"):
        compile_instance(with_candidates(spec, pool))


def test_rank_certificate():
    for name, want in (("f16_13", 27), ("f4_5", 11), ("f2_5", 11)):
        compiled = COMPILED[name]
        assert rank(compiled.T) == want
        assert sum(compiled.place_degrees) == want


def test_injectivity_flag_is_advisory_only():
    # none of the bundled instances satisfy the sufficient degree-sum
    # condition; correctness rests on the rank certificate instead
    for name in NAMES:
        assert not COMPILED[name].meets_injectivity_bound


def test_good_basis_report_all_ok():
    for name in NAMES:
        checks = verify_good_basis(SPECS[name])
        assert len(checks) == SPECS[name].size
        assert all(c.ok for c in checks)


def test_tampered_basis_rejected():
    spec = SPECS["f2_5"]
    tampered = list(spec.basis)
    tampered[1], tampered[2] = tampered[2], tampered[1]
    bad = InstanceSpec(
        "tampered", spec.field, spec.curve, spec.n, spec.q_place,
        spec.d1_den, spec.d2_den, tampered, spec.candidate_places,
    )
    with pytest.raises(InstanceError, match="good-basis"):
        compile_instance(bad)


def _f2_5_swapped(spec):
    basis = list(spec.basis)
    basis[1], basis[2] = basis[2], basis[1]
    return basis


def _f2_5_pole(spec):
    # the modulus of Q vanishes at Q
    return list(spec.basis[:-1]) + [curve.CurveFunction(spec.field, (), (1,), spec.q_modulus)]


def _f16_13_dense_and_pole(spec):
    basis = list(spec.basis)
    basis[13] = curve.CurveFunction(spec.field, (), (1,), spec.basis[1].den)
    basis[26] = curve.CurveFunction(spec.field, (), (1,), spec.q_modulus)
    return basis


POLE_AT_Q = "pole at Q: denominator vanishes at place 'Q' (support collision)"


@pytest.mark.parametrize(
    "name, build, failures",
    [
        ("f2_5", _f2_5_swapped, [
            ("f_2", "eval at Q = [0, 0, 1, 0, 0], want [0, 1, 0, 0, 0]"),
            ("f_3", "eval at Q = [0, 1, 0, 0, 0], want [0, 0, 1, 0, 0]"),
        ]),
        ("f2_5", _f2_5_pole, [("f_11", POLE_AT_Q)]),
        ("f16_13", _f16_13_dense_and_pole, [
            ("f_14", "eval at Q = [13, 6, 0, 0, 1, 3, 12, 2, 3, 5, 4, 4, 13], "
                     "want [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]"),
            ("f_27", POLE_AT_Q),
        ]),
    ],
    ids=["f2_5-swapped", "f2_5-pole", "f16_13-dense-and-pole"],
)
def test_good_basis_failure_details(name, build, failures):
    spec = SPECS[name]
    bad = InstanceSpec(
        "tampered", spec.field, spec.curve, spec.n, spec.q_place,
        spec.d1_den, spec.d2_den, build(spec), spec.candidate_places,
    )
    checks = verify_good_basis(bad)
    assert [c.name for c in checks] == [f"f_{j}" for j in range(1, spec.size + 1)]
    assert [(c.name, c.detail) for c in checks if not c.ok] == failures
    assert all(c.detail == "" for c in checks if c.ok)
    first, detail = failures[0]
    with pytest.raises(InstanceError) as caught:
        compile_instance(bad)
    assert str(caught.value) == f"good-basis check failed at {first}: {detail}"


def test_good_basis_zero_over_zero_is_a_pole():
    # numerator and denominator both vanish at Q: no value there, even though
    # the numerator matches 0 times the denominator
    spec = SPECS["f2_5"]
    basis = list(spec.basis[:-1]) + [
        curve.CurveFunction(spec.field, spec.q_modulus, (), spec.q_modulus)
    ]
    bad = InstanceSpec(
        "tampered", spec.field, spec.curve, spec.n, spec.q_place,
        spec.d1_den, spec.d2_den, basis, spec.candidate_places,
    )
    assert [(c.name, c.detail) for c in verify_good_basis(bad) if not c.ok] == [
        ("f_11", POLE_AT_Q)
    ]


def test_duplicate_candidate_rejected():
    spec = SPECS["f2_5"]
    with pytest.raises(InstanceError, match="duplicates"):
        InstanceSpec(
            "dup", spec.field, spec.curve, spec.n, spec.q_place,
            spec.d1_den, spec.d2_den, spec.basis,
            list(spec.candidate_places) + [spec.candidate_places[0]],
        )


def rebuilt(spec, **changes):
    """spec's data with some fields replaced, validated again on the way in."""
    parts = dict(
        name="tampered", field=spec.field, curve=spec.curve, n=spec.n,
        q_place=spec.q_place, d1_den=spec.d1_den, d2_den=spec.d2_den,
        basis=spec.basis, candidate_places=spec.candidate_places,
    )
    parts.update(changes)
    return InstanceSpec(**parts)


def with_extra_candidate(spec, place):
    return rebuilt(spec, candidate_places=spec.candidate_places + (place,))


def wrong_base():
    res = ExtField(F4, (0, 1))
    return with_extra_candidate(SPECS["f2_5"], AffinePlace(res, [0], [0], "W"))


def no_kernel():
    res = ExtField(F2, (1, 1, 0, 1))  # degree 3
    return with_extra_candidate(SPECS["f2_5"], AffinePlace(res, res.gen(), res.zero(), "W"))


def coincides_with_q():
    # Q_2's presentation as a degree-2 Q: Q_1 has the same residue modulus
    spec = SPECS["f2_5"]
    q2 = next(p for p in spec.candidate_places if p.label == "Q_2")
    return rebuilt(spec, n=2, q_place=q2, basis=spec.basis[:5])


def off_curve():
    res = ExtField(F2, (1, 1))  # x = 1, where rhs = 1 and y^2 + y = 0
    return with_extra_candidate(SPECS["f2_5"], AffinePlace(res, [1], [0], "W"))


def not_generating():
    res = ExtField(F2, (1, 1, 1))  # x = y = 0 lie in F_2, on the curve
    return with_extra_candidate(SPECS["f2_5"], AffinePlace(res, [0, 0], [0, 0], "W"))


def meets_support(which):
    # Q_2's x-image is a root of x^2 + x + 1; make that D1 or D2
    return rebuilt(SPECS["f2_5"], **{which: (1, 1, 1)})


def duplicate():
    spec = SPECS["f2_5"]
    return with_extra_candidate(spec, spec.candidate_places[2])


def no_split_at_infinity():
    return with_extra_candidate(SPECS["f16_13"], InfinitePlace(0, "W"))


def q_off_curve():
    spec = SPECS["f2_5"]
    res = spec.q_place.residue
    q = AffinePlace(res, res.gen(), res.add(spec.q_place.y_img, res.gen()), "Q")
    return rebuilt(spec, q_place=q)


@pytest.mark.parametrize(
    "build, message",
    [
        (wrong_base, "candidate W has a residue field over the wrong base"),
        (no_kernel, "candidate W has degree 3, no kernel available"),
        (coincides_with_q, "candidate Q_1 coincides with Q"),
        (off_curve, "candidate W does not lie on the curve"),
        (not_generating, "candidate W does not generate its residue field"),
        (lambda: meets_support("d1_den"), "candidate Q_2 meets the support of D1"),
        (lambda: meets_support("d2_den"), "candidate Q_2 meets the support of D2"),
        (duplicate, "candidate P_3 duplicates an earlier place"),
        (
            no_split_at_infinity,
            "candidate W: the curve has no split places over x=infinity",
        ),
        (q_off_curve, "place Q does not lie on the curve"),
    ],
    ids=[
        "wrong-base", "no-kernel", "coincides-with-Q", "off-curve",
        "not-generating", "meets-D1", "meets-D2", "duplicate",
        "no-split-at-infinity", "Q-off-curve",
    ],
)
def test_candidate_rejection_named(build, message):
    with pytest.raises(InstanceError) as exc:
        build()
    assert str(exc.value) == message


def swapped_f1(spec):
    return rebuilt(spec, basis=(spec.basis[1], spec.basis[0]) + spec.basis[2:])


def dup_of_third(spec):
    return with_extra_candidate(spec, spec.candidate_places[2])


@pytest.mark.parametrize(
    "build, message",
    [
        (swapped_f1, "f_1 must be the constant function 1"),
        (lambda s: rebuilt(s, d2_den=s.d1_den), "D1 and D2 denominators must be distinct"),
        (lambda s: rebuilt(s, d2_den=s.q_modulus), "D1/D2 denominators must avoid the modulus of Q"),
        (dup_of_third, "candidate P_4 duplicates an earlier place"),
    ],
    ids=["f1-not-one", "D1-equals-D2", "D2-equals-Q", "duplicate"],
)
def test_cheap_faults_rejected_before_packing(monkeypatch, build, message):
    # a fault that a linear scan finds costs no packing, Horner pass, Rabin
    # test or generation test: those rules run after every cheap one
    calls = []
    real_init, real_pass = curve.PackedPolys.__init__, curve.PackedPolys._horner

    def counting_init(self, field, polys):
        calls.append("pack")
        real_init(self, field, polys)

    def counting_pass(self, res, x_img):
        calls.append("horner")
        return real_pass(self, res, x_img)

    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    spec = SPECS["f16_13"]  # loaded before the count
    monkeypatch.setattr(curve.PackedPolys, "__init__", counting_init)
    monkeypatch.setattr(curve.PackedPolys, "_horner", counting_pass)
    monkeypatch.setattr(engine, "is_irreducible", counted("rabin", engine.is_irreducible))
    monkeypatch.setattr(engine, "generates_residue", counted("gen", engine.generates_residue))
    with pytest.raises(InstanceError) as exc:
        build(spec)
    assert str(exc.value) == message
    assert calls == []


def test_equal_denominators_rejected():
    spec = SPECS["f2_5"]
    with pytest.raises(InstanceError, match="distinct"):
        InstanceSpec(
            "same-d", spec.field, spec.curve, spec.n, spec.q_place,
            spec.d1_den, spec.d1_den, spec.basis, spec.candidate_places,
        )


def test_q_presentation_must_use_residue_generator():
    spec = SPECS["f2_5"]
    res = spec.q_place.residue
    shifted = AffinePlace(
        res, res.add(res.gen(), res.one()), spec.q_place.y_img, "Q'"
    )
    with pytest.raises(InstanceError, match="residue generator"):
        InstanceSpec(
            "bad-q", spec.field, spec.curve, spec.n, shifted,
            spec.d1_den, spec.d2_den, spec.basis, spec.candidate_places,
        )


def test_too_few_candidates_fail_at_compile():
    spec = SPECS["f2_5"]
    starved = InstanceSpec(
        "starved", spec.field, spec.curve, spec.n, spec.q_place,
        spec.d1_den, spec.d2_den, spec.basis, spec.candidate_places[:3],
    )
    with pytest.raises(InstanceError, match="reach only"):
        compile_instance(starved)


class Index:
    """Not an int, but usable as one through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"{type(self).__name__}({self.value})"


class EqualIndex(Index):
    """An Index that also equals its value, as a numpy integer does."""

    def __eq__(self, other):
        return self.value == other

    def __hash__(self):
        return hash(self.value)


def test_multiply_rejects_bad_operands():
    # step 1 packs the coordinates into window indices, where a coordinate of
    # q or more would carry its high bits into the next digit and give a
    # wrong product: only this guard stops it
    for name in NAMES:
        spec, compiled = SPECS[name], COMPILED[name]
        n, q, zero = spec.n, spec.field.order, [0] * spec.n
        with pytest.raises(ValueError) as exc:
            compiled.multiply([1, 0], zero)
        assert str(exc.value) == f"operand must have {n} coordinates, got 2"
        with pytest.raises(ValueError) as exc:
            compiled.multiply(zero, [1] * (n + 1))
        assert str(exc.value) == f"operand must have {n} coordinates, got {n + 1}"
        # q+1, 2q-1 and 255 pass bytes(): only the lane mask stops them, where a
        # bit from k up would spill into the next coordinate's window digit
        for bad in (-1, q, q + 1, 2 * q - 1, 255, 1.0, "1", None, 2**70):
            operand = [1] * (n - 1) + [bad]
            for x, y in ((operand, zero), (zero, operand)):
                with pytest.raises(ValueError) as exc:
                    compiled.multiply(x, y)
                assert str(exc.value) == f"{bad!r} is not an element of {spec.field!r}"
        # two bad coordinates mid-operand: the message names the first one
        for first, second in ((q, -1), (2**70, "1"), (-1, None)):
            operand = [1] * n
            operand[n // 2 - 1], operand[n // 2] = first, second
            for x, y in ((operand, zero), (zero, operand)):
                with pytest.raises(ValueError) as exc:
                    compiled.multiply(x, y)
                assert str(exc.value) == f"{first!r} is not an element of {spec.field!r}"
        # both operands bad: the message names x's coordinate
        for x_bad, y_bad in ((q, -1), ("1", q), (-1, 2**70)):
            with pytest.raises(ValueError) as exc:
                compiled.multiply([x_bad] + zero[1:], [y_bad] + zero[1:])
            assert str(exc.value) == f"{x_bad!r} is not an element of {spec.field!r}"
        # an object that is no int but has __index__, which bytes() would
        # take, is rejected like any other non-int, in either operand, also
        # when it equals its index (so no check by equality lets it through)
        for index_one in (Index(1), EqualIndex(1)):
            for x, y in (([index_one] + zero[1:], zero), (zero, [index_one] + zero[1:])):
                with pytest.raises(ValueError) as exc:
                    compiled.multiply(x, y)
                assert str(exc.value) == f"{index_one!r} is not an element of {spec.field!r}"
        rng = random.Random(n)
        # a tuple x with a list y cannot be concatenated: the exact checks run,
        # and the product is the same
        for _ in range(5):
            x, y = random_operand(rng, spec), random_operand(rng, spec)
            want = (reference_mul(spec.field, spec.q_modulus, x, y), compiled.report)
            assert compiled.multiply(tuple(x), y) == compiled.multiply(x, tuple(y)) == want
            assert compiled.multiply(x, y) == want
        # bools are ints: True and False multiply as 1 and 0
        for _ in range(5):
            bits = [rng.randrange(2) for _ in range(n)]
            y = random_operand(rng, spec)
            flags = [bool(b) for b in bits]
            assert compiled.multiply(flags, y) == compiled.multiply(bits, y)
            assert compiled.multiply(y, flags) == compiled.multiply(y, bits)
            assert compiled.multiply(flags, flags) == compiled.multiply(bits, bits)
        # coordinates of an int subclass multiply exactly like plain ints
        Coord = IntEnum("Coord", [(f"C{v}", v) for v in range(q)])
        for _ in range(5):
            x, y = random_operand(rng, spec), random_operand(rng, spec)
            want = reference_mul(spec.field, spec.q_modulus, x, y)
            got = compiled.multiply([Coord(v) for v in x], [Coord(v) for v in y])
            assert got == compiled.multiply(x, y) == (want, compiled.report)
        # operands given as bytes, bytearray or array('B') multiply like lists,
        # and so does array('H'), whose buffer holds two bytes per coordinate
        kinds = (bytes, bytearray, functools.partial(array, "B"), functools.partial(array, "H"))
        for _ in range(5):
            x, y = random_operand(rng, spec), random_operand(rng, spec)
            want = compiled.multiply(x, y)
            for kind in kinds:
                assert compiled.multiply(kind(x), kind(y)) == want, kind
        # x = 1 + t^(n-2) and y = 0 as 2-byte items: read one byte per
        # coordinate, x's bytes 0 and 2n-4 would be x = 1 and a nonzero y
        x, y = array("H", [1] + zero[1:]), array("H", zero)
        x[n - 2] = 1
        assert compiled.multiply(x, y) == (tuple(zero), compiled.report)
    # the message as a user reads it, for f2_5's field
    with pytest.raises(ValueError, match=r"^-1 is not an element of GF\(2\^1; 0b10\)$"):
        COMPILED["f2_5"].multiply([0, 0, 0, 0, -1], [0] * 5)
