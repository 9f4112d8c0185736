import functools
import itertools
import random

import pytest

from curvemul import tools
from curvemul.engine import compile_instance
from curvemul.galois import F2, F4, BinaryField, ExtField, is_irreducible
from curvemul.kernels import (
    KERNEL_COST,
    BilinearCounter,
    KernelPlan,
    mul_d1,
    mul_d2,
    mul_d4,
)
from reference import counting_field, ext_elements

E4 = ExtField(F2, (1, 1, 1))  # F_4 over F_2
E16 = ExtField(F4, (2, 1, 1))  # F_16 over F_4
E16B = ExtField(F2, (1, 0, 0, 1, 1))  # F_16 over F_2, t^4+t^3+1
E16C = ExtField(F2, (1, 1, 0, 0, 1))  # F_16 over F_2, t^4+t+1
COMPILED = {name: compile_instance(tools.load_bundled(name))
            for name in ("f16_13", "f4_5", "f2_5")}
PLANS = {name: compiled.plan for name, compiled in COMPILED.items()}


def residues_of(compiled):
    """The residue fields of the selected places in slot order, None at a
    degree-1 place."""
    return [p.residue if p.degree > 1 else None for p in compiled.places]


def residue_fields(name, d):
    """The degree-d residue fields of the places a bundled instance selects."""
    return [ext for ext in residues_of(COMPILED[name]) if ext is not None and ext.d == d]


def test_kernel_cost_table():
    assert KERNEL_COST == {1: 1, 2: 3, 4: 9}


def test_mul_d1():
    c = BilinearCounter()
    assert mul_d1(F4, 2, 2, c) == 3
    assert mul_d1(F4, 0, 3, c) == 0
    assert c.bilinear_mults == 2
    assert mul_d1(F4, 2, 2) == 3  # the counter is optional


def test_mul_d2_exhaustive_against_schoolbook():
    bundled = residue_fields("f2_5", 2) + residue_fields("f4_5", 2)
    assert len(bundled) == 3
    for ext in (E4, E16, *bundled):
        for u in ext_elements(ext):
            for v in ext_elements(ext):
                c = BilinearCounter()
                assert mul_d2(ext, u, v, c) == ext.mul(u, v)
                assert c.bilinear_mults == 3


def test_mul_d2_example():
    # t * t = t + a in F_4[t]/(t^2 + t + a)
    c = BilinearCounter()
    assert mul_d2(E16, (0, 1), (0, 1), c) == (2, 1)


def test_mul_d4_random_against_schoolbook():
    rng = random.Random(4242)
    exts = [E16B, E16C]
    # plus the first irreducible monic quartic over F_4
    quartic = next(
        (m0, m1, m2, m3, 1)
        for m0 in range(4)
        for m1 in range(4)
        for m2 in range(4)
        for m3 in range(4)
        if m0 and is_irreducible(F4, (m0, m1, m2, m3, 1))
    )
    exts.append(ExtField(F4, quartic))
    for ext in exts:
        q = ext.base.order
        for _ in range(10_000 // len(exts)):
            u = tuple(rng.randrange(q) for _ in range(4))
            v = tuple(rng.randrange(q) for _ in range(4))
            c = BilinearCounter()
            assert mul_d4(ext, u, v, c) == ext.mul(u, v)
            assert c.bilinear_mults == 9


def test_mul_d4_exhaustive_f2():
    (bundled,) = residue_fields("f2_5", 4)
    for ext in (E16B, bundled):
        c = BilinearCounter()
        for u in ext_elements(ext):
            for v in ext_elements(ext):
                assert mul_d4(ext, u, v, c) == ext.mul(u, v)
        assert c.bilinear_mults == 9 * 256


@pytest.mark.parametrize("name", sorted(PLANS))
def test_step2_table_lookups_at_run_time(name):
    # each operand-by-operand product is one outer lookup in the product
    # table, so the lookups are the 1/3/9 multiplications themselves; the
    # fold rows were bound at compile time and do not show.  A schoolbook
    # kernel would take 4/16, plus its reduction.  A rational place's product
    # is an entry a | b << k of the plan's flat table, which `mul_d1` filled
    # with one lookup per entry when the plan was built: a run looks up only
    # the kernels' products, and the rational slots' come from that table.
    field, residues = counting_field(PLANS[name].field, residues_of(COMPILED[name]))
    plan, table = KernelPlan(field, residues), field.table
    q, k = field.order, field.k
    assert table.lookups == q * q
    for slot, ext in enumerate(residues):
        if ext is None:
            pairs = itertools.product(range(q), repeat=2)
            run = lambda a, b: mul_d1(plan.field, a, b)  # noqa: E731
        else:
            pairs = itertools.product(ext_elements(ext), repeat=2)
            run = functools.partial(mul_d2 if ext.d == 2 else mul_d4, ext)
        for a, b in pairs:
            table.lookups = 0
            got = run(a, b)
            assert table.lookups == KERNEL_COST[1 if ext is None else ext.d], (slot, a, b)
            assert ext is not None or plan.table[a | b << k] == got, (slot, a, b)
    rational = residues.count(None)
    rng = random.Random(5)
    for _ in range(50):
        zv = [rng.randrange(q) for _ in range(plan.total)]
        tv = [rng.randrange(q) for _ in range(plan.total)]
        table.lookups = 0
        c = BilinearCounter()
        plan.hadamard(zv, tv, c)
        assert table.lookups + rational == c.bilinear_mults == plan.advertised_cost


def test_counts_do_not_depend_on_values():
    c = BilinearCounter()
    mul_d2(E4, (0, 0), (0, 0), c)
    mul_d4(E16B, (0, 0, 0, 0), (1, 0, 0, 0), c)
    mul_d1(F2, 0, 0, c)
    assert c.bilinear_mults == 3 + 9 + 1


def test_degree_guards():
    c = BilinearCounter()
    with pytest.raises(ValueError):
        mul_d2(E16B, (0, 0, 0, 0), (0, 0, 0, 0), c)
    with pytest.raises(ValueError):
        mul_d4(E4, (0, 0), (0, 0), c)


def test_kernel_plan_tiling():
    plan = KernelPlan(F2, [None, None, E4, E16B])
    assert plan.total == 8
    assert plan.advertised_cost == 1 + 1 + 3 + 9
    with pytest.raises(ValueError):
        KernelPlan(F2, [E16])  # residue base is F_4, not F_2
    with pytest.raises(ValueError, match="k <= 4 bits; k = 5"):
        KernelPlan(BinaryField(5, 0b100101), [None])  # two elements overflow a byte


def test_kernel_plan_hadamard():
    rng = random.Random(11)
    plan = KernelPlan(F2, [None, E4, E16B])
    for _ in range(200):
        zv = [rng.randrange(2) for _ in range(7)]
        tv = [rng.randrange(2) for _ in range(7)]
        c = BilinearCounter()
        out = plan.hadamard(zv, tv, c)
        assert c.bilinear_mults == plan.advertised_cost == 13
        assert out[0] == F2.mul(zv[0], tv[0])
        assert tuple(out[1:3]) == E4.mul(tuple(zv[1:3]), tuple(tv[1:3]))
        assert tuple(out[3:7]) == E16B.mul(tuple(zv[3:7]), tuple(tv[3:7]))
        assert plan.hadamard(zv, tv) == out
    with pytest.raises(ValueError):
        plan.hadamard([0] * 6, [0] * 7, BilinearCounter())


@pytest.mark.parametrize("name", ["f16_13", "f4_5", "f2_5"])
def test_hadamard_runs_step2_on_the_pair_bytes(monkeypatch, name):
    # `hadamard` has no step-2 code of its own: it calls `step2` once, on the
    # pair bytes a | b << k of its checked vectors, and lists what it returns
    plan, calls = PLANS[name], []
    real = KernelPlan.step2
    monkeypatch.setattr(KernelPlan, "step2", lambda p, a: calls.append(a) or real(p, a))
    rng, q, k = random.Random(31), plan.field.order, plan.field.k
    zv = [rng.randrange(q) for _ in range(plan.total)]
    tv = [rng.randrange(q) for _ in range(plan.total)]
    pairs = bytes([a | b << k for a, b in zip(zv, tv)])
    assert plan.hadamard(zv, tv) == list(real(plan, pairs))
    assert calls == [pairs]


@pytest.mark.parametrize("name", ["f16_13", "f2_5"])
def test_hadamard_matches_kernels_slot_by_slot(name):
    # f16_13's plan is all degree-1 slots, f2_5's mixes degrees 1, 2 and 4;
    # the counter moves by the plan's cost once per call
    plan, residues = PLANS[name], residues_of(COMPILED[name])
    degrees = [1 if ext is None else ext.d for ext in residues]
    assert set(degrees) == ({1} if name == "f16_13" else {1, 2, 4})
    rng = random.Random(len(name))
    q = plan.field.order
    for _ in range(100):
        zv = [rng.randrange(q) for _ in range(plan.total)]
        tv = [rng.randrange(q) for _ in range(plan.total)]
        want = []
        for offset, ext in zip(itertools.accumulate(degrees, initial=0), residues):
            if ext is None:
                want.append(mul_d1(plan.field, zv[offset], tv[offset]))
            else:
                kernel = mul_d2 if ext.d == 2 else mul_d4
                end = offset + ext.d
                want += kernel(ext, zv[offset:end], tv[offset:end])
        c = BilinearCounter()
        assert plan.hadamard(zv, tv, c) == want == plan.hadamard(zv, tv)
        assert c.bilinear_mults == plan.advertised_cost == sum(KERNEL_COST[d] for d in degrees)
        plan.hadamard(zv, tv, c)
        assert c.bilinear_mults == 2 * plan.advertised_cost


@pytest.mark.parametrize("bad", [-1, 4])
@pytest.mark.parametrize("slot", [0, 1, 2])  # a rational slot, then the degree-2 place's two
def test_hadamard_refuses_a_coordinate_outside_the_field(slot, bad):
    # a coordinate below 0 or from q up, in either vector, is no element of
    # F_4: it raises, and the counter is left as it was
    plan = KernelPlan(F4, [None, E16])
    for side in (0, 1):
        vectors = [[1, 2, 3], [2, 3, 1]]
        vectors[side][slot] = bad
        c = BilinearCounter()
        with pytest.raises(ValueError, match="is not an element of"):
            plan.hadamard(*vectors, c)
        assert c.bilinear_mults == 0
    assert plan.hadamard([1, 2, 3], [2, 3, 1]) == [F4.mul(1, 2), *E16.mul((2, 3), (3, 1))]


def test_step2_with_k_3():
    # no bundled instance is over GF(8), so k = 3's pair bytes (x's value in
    # bits 0..2, y's in bits 3..5) run here: every pair at a rational slot and
    # every pair at a degree-2 place, through `step2` as a product runs it
    # and through `hadamard`
    F8 = BinaryField(3, 0b1011)
    assert is_irreducible(F8, (1, 1, 1))  # t^2 + t + 1 has no root in F_8
    E64 = ExtField(F8, (1, 1, 1))
    plan = KernelPlan(F8, [None, E64])
    assert (plan.total, plan.advertised_cost) == (3, 1 + 3)
    place_pairs = list(itertools.product(ext_elements(E64), repeat=2))
    assert len(place_pairs) == 4096
    for i, (u, v) in enumerate(place_pairs):
        a, b = divmod(i % 64, 8)
        pairs = bytes([a | b << 3, u[0] | v[0] << 3, u[1] | v[1] << 3])
        products = plan.step2(pairs)
        want = [F8.mul(a, b), *E64.mul(u, v)]
        assert list(products) == want == plan.hadamard([a, *u], [b, *v]), (a, b, u, v)
