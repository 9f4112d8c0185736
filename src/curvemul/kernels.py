"""Bilinear multiplication kernels for residue fields of degree 1, 2, 4.

Each kernel is a fixed straight-line program: the number of bilinear
(operand-by-operand) base-field multiplications it performs is a constant of
the kernel — 1, 3, and 9 respectively (`KERNEL_COST`) — independent of the
operand values; the engine reads its step-2 count from them.  Each is one
read of the base field's `pair_table` (entry a | b << k is a * b).
`KernelPlan.step2` is step 2 for the places in slot order: one `translate` of
the pair bytes through it, then a Karatsuba core per place of degree 2 or 4,
whose forms (a0 ^ a1, ...) are XORs of pair bytes, read in the same table.
A product runs it, so do `hadamard`, for the benchmark's replay, and
`mul_d2`/`mul_d4` on one place.  An optional `BilinearCounter` tallies the
multiplications.  The high convolution coefficients fold in through rows of
the product table fixed per residue field (`ExtField.fold_rows`, warmed by
`KernelPlan`): multiplications by constants of the field, never counted.
"""

from __future__ import annotations

from collections.abc import Sequence

from .galois import PAIR_K, BinaryField, ExtField

KERNEL_COST = {1: 1, 2: 3, 4: 9}


class BilinearCounter:
    __slots__ = ("bilinear_mults",)

    def __init__(self) -> None:
        self.bilinear_mults = 0

    def __repr__(self) -> str:
        return f"BilinearCounter(bilinear_mults={self.bilinear_mults})"


def mul_d1(field: BinaryField, a: int, b: int, counter: BilinearCounter | None = None) -> int:
    if counter is not None:
        counter.bilinear_mults += 1
    return field.rows[a][b]


def karatsuba2(t: bytes, fold: tuple, a: bytes, p: bytearray, o: int) -> None:
    """Karatsuba at a degree-2 place, in place on slots o, o+1 of the pair bytes a
    and their products p through t (a0*b0, a1*b1).  A XOR of pair bytes XORs both
    halves, so the middle product is one more read of t; t^2 folds in."""
    ((r0, r1),) = fold
    p0, p2 = p[o], p[o + 1]
    p[o], p[o + 1] = p0 ^ r0[p2], t[a[o] ^ a[o + 1]] ^ p0 ^ p2 ^ r1[p2]


def karatsuba4(t: bytes, fold: tuple, a: bytes, p: bytearray, o: int) -> None:
    """Two-level Karatsuba at a degree-4 place, slots o..o+3, as `karatsuba2`.
    The products lo, hi, mid of the halves take 3 each, 4 of them already in p;
    the convolution is lo + (mid - lo - hi) t^2 + hi t^4, and its t^4, t^5, t^6 fold in."""
    (r40, r41, r42, r43), (r50, r51, r52, r53), (r60, r61, r62, r63) = fold
    a0, a1, a2, a3 = a[o : o + 4]
    l0, l2, h0, h2 = p[o : o + 4]
    l1 = t[a0 ^ a1] ^ l0 ^ l2
    h1 = t[a2 ^ a3] ^ h0 ^ h2
    s0, s1 = a0 ^ a2, a1 ^ a3
    m0, m2 = t[s0], t[s1]
    m1 = t[s0 ^ s1] ^ m0 ^ m2
    c2, c3, c4 = l2 ^ m0 ^ l0 ^ h0, m1 ^ l1 ^ h1, m2 ^ l2 ^ h2 ^ h0
    p[o : o + 4] = (
        l0 ^ r40[c4] ^ r50[h1] ^ r60[h2],
        l1 ^ r41[c4] ^ r51[h1] ^ r61[h2],
        c2 ^ r42[c4] ^ r52[h1] ^ r62[h2],
        c3 ^ r43[c4] ^ r53[h1] ^ r63[h2],
    )


def mul_d2(
    ext: ExtField, u: Sequence[int], v: Sequence[int], counter: BilinearCounter | None = None
) -> tuple:
    """Karatsuba product in a degree-2 residue field: 3 bilinear mults."""
    if ext.d != 2:
        raise ValueError("mul_d2 needs a degree-2 extension")
    return tuple(KernelPlan(ext.base, [ext]).hadamard(u, v, counter))


def mul_d4(
    ext: ExtField, u: Sequence[int], v: Sequence[int], counter: BilinearCounter | None = None
) -> tuple:
    """Two-level Karatsuba in a degree-4 residue field: 9 bilinear mults."""
    if ext.d != 4:
        raise ValueError("mul_d4 needs a degree-4 extension")
    return tuple(KernelPlan(ext.base, [ext]).hadamard(u, v, counter))


class KernelPlan:
    """Step 2 for the places in slot order: None for a degree-1 place (one
    base-field slot), otherwise its residue ExtField, whose degree picks the
    Karatsuba core and the number of slots.  A slot's pair byte holds x's value in
    bits 0..k-1 and y's in the next k (k <= PAIR_K): `step2` multiplies every slot
    as if rational, by one `translate` through `table` (the field's `pair_table`),
    then each place of degree 2 or 4 by its core (`kernel_steps`, bound here).
    """

    __slots__ = ("field", "total", "advertised_cost", "table", "kernel_steps")

    def __init__(self, field: BinaryField, residues: Sequence[ExtField | None]):
        if field.pair_table is None:
            raise ValueError(f"a pair byte holds two elements of k <= {PAIR_K} bits; k = {field.k}")
        self.field, self.table = field, field.pair_table
        offset = cost = 0
        kernel_steps = []
        for ext in residues:
            d = 1 if ext is None else ext.d
            if d not in KERNEL_COST:
                raise ValueError(f"no kernel for residue degree {d}")
            if ext is not None:
                if ext.base != field:
                    raise ValueError("residue field has the wrong base")
                kernel_steps.append((karatsuba2 if d == 2 else karatsuba4, ext.fold_rows(), offset))
            offset += d
            cost += KERNEL_COST[d]
        self.total = offset
        self.advertised_cost = cost  # bilinear multiplications per `hadamard` call
        self.kernel_steps = tuple(kernel_steps)

    def step2(self, pairs: bytes) -> bytes | bytearray:
        """Every slot's product from its pair byte: one `translate` through `table`,
        the whole step if every place is rational, then each place of degree 2 or 4
        finished by its core."""
        products = pairs.translate(table := self.table)
        if self.kernel_steps:
            products = bytearray(products)
            for core, fold, offset in self.kernel_steps:
                core(table, fold, pairs, products, offset)
        return products

    def hadamard(
        self, zv: Sequence[int], tv: Sequence[int], counter: BilinearCounter | None = None
    ) -> list[int]:
        """Step 2 alone, as a product runs it, on two checked coordinate vectors over
        F_q; a counter is advanced by `advertised_cost` once per call."""
        if len(zv) != self.total or len(tv) != self.total:
            raise ValueError("coordinate vectors do not match the plan size")
        check, k = self.field.check, self.field.k
        pairs = bytes([check(a) | check(b) << k for a, b in zip(zv, tv)])
        if counter is not None:
            counter.bilinear_mults += self.advertised_cost
        return list(self.step2(pairs))
