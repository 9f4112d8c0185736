import itertools
import random

import pytest

from curvemul.galois import F2, F4, ExtField, is_irreducible
from curvemul.kernels import (
    KERNEL_COST,
    BilinearCounter,
    KernelPlan,
    mul_d1,
    mul_d2,
    mul_d4,
)

E4 = ExtField(F2, (1, 1, 1))  # F_4 over F_2
E16 = ExtField(F4, (2, 1, 1))  # F_16 over F_4
E16B = ExtField(F2, (1, 0, 0, 1, 1))  # F_16 over F_2, t^4+t^3+1
E16C = ExtField(F2, (1, 1, 0, 0, 1))  # F_16 over F_2, t^4+t+1


def ext_elements(ext):
    """All q^d elements of ext, coordinate 0 varying fastest."""
    for coords in itertools.product(range(ext.base.order), repeat=ext.d):
        yield coords[::-1]


def test_kernel_cost_table():
    assert KERNEL_COST == {1: 1, 2: 3, 4: 9}


def test_mul_d1():
    c = BilinearCounter()
    assert mul_d1(F4, 2, 2, c) == 3
    assert mul_d1(F4, 0, 3, c) == 0
    assert c.bilinear_mults == 2
    assert mul_d1(F4, 2, 2) == 3  # the counter is optional


def test_mul_d2_exhaustive_against_schoolbook():
    for ext in (E4, E16):
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
    c = BilinearCounter()
    for u in ext_elements(E16B):
        for v in ext_elements(E16B):
            assert mul_d4(E16B, u, v, c) == E16B.mul(u, v)
    assert c.bilinear_mults == 9 * 256


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
    plan = KernelPlan(F2, [(0, None), (1, None), (2, E4), (4, E16B)])
    assert plan.total == 8
    assert plan.advertised_cost == 1 + 1 + 3 + 9
    with pytest.raises(ValueError):
        KernelPlan(F2, [(0, None), (2, E4)])  # gap at offset 1
    with pytest.raises(ValueError):
        KernelPlan(F2, [(0, E16)])  # residue base is F_4, not F_2


def test_kernel_plan_hadamard():
    rng = random.Random(11)
    plan = KernelPlan(F2, [(0, None), (1, E4), (3, E16B)])
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
