"""Bilinear multiplication kernels for residue fields of degree 1, 2, 4.

Each kernel is a fixed straight-line program: the number of bilinear
(operand-by-operand) base-field multiplications it performs is a constant of
the kernel — 1, 3, and 9 respectively (`KERNEL_COST`) — independent of the
operand values; the engine reads its step-2 count from them.  Each is one
lookup in the base field's product table.  `KernelPlan` holds step 2 for the
places in slot order: a flat table of degree-1 products filled by `mul_d1`,
read by one `translate`, then `run_kernels` at the places of degree 2 or 4.
A product runs the two, and so does `hadamard`, for the benchmark's replay.
An optional `BilinearCounter` tallies the multiplications: each kernel
advances it by its own cost, `hadamard` by the plan's cost once per call.
The high convolution coefficients fold in through rows of that table fixed
per residue field (`ExtField.fold_rows`, warmed by `KernelPlan`):
multiplications by constants of the field, F_q-linear, never counted.
"""

from __future__ import annotations

from collections.abc import Sequence

from .galois import BinaryField, ExtField

KERNEL_COST = {1: 1, 2: 3, 4: 9}
PAIR_K = 4  # the largest k whose two elements share a byte, 2k <= 8


class BilinearCounter:
    __slots__ = ("bilinear_mults",)

    def __init__(self) -> None:
        self.bilinear_mults = 0

    def __repr__(self) -> str:
        return f"BilinearCounter(bilinear_mults={self.bilinear_mults})"


def mul_d1(field: BinaryField, a: int, b: int, counter: BilinearCounter | None = None) -> int:
    if counter is not None:
        counter.bilinear_mults += 1
    return field.table[a][b]


def mul_d2(
    ext: ExtField, u: Sequence[int], v: Sequence[int], counter: BilinearCounter | None = None
) -> tuple:
    """Karatsuba product in a degree-2 residue field: 3 bilinear mults."""
    if ext.d != 2:
        raise ValueError("mul_d2 needs a degree-2 extension")
    if counter is not None:
        counter.bilinear_mults += 3
    t = ext.base.table
    ((r0, r1),) = ext.fold_rows()
    (a0, a1), (b0, b1) = u, v
    p0, p2 = t[a0][b0], t[a1][b1]
    return p0 ^ r0[p2], t[a0 ^ a1][b0 ^ b1] ^ p0 ^ p2 ^ r1[p2]


def mul_d4(
    ext: ExtField, u: Sequence[int], v: Sequence[int], counter: BilinearCounter | None = None
) -> tuple:
    """Two-level Karatsuba in a degree-4 residue field: 9 bilinear mults.
    The products lo, hi, mid of the halves take 3 each; the convolution is
    lo + (mid - lo - hi) t^2 + hi t^4, and its t^4, t^5, t^6 fold in."""
    if ext.d != 4:
        raise ValueError("mul_d4 needs a degree-4 extension")
    if counter is not None:
        counter.bilinear_mults += 9
    t = ext.base.table
    (r40, r41, r42, r43), (r50, r51, r52, r53), (r60, r61, r62, r63) = ext.fold_rows()
    (a0, a1, a2, a3), (b0, b1, b2, b3) = u, v
    l0, l2 = t[a0][b0], t[a1][b1]
    l1 = t[a0 ^ a1][b0 ^ b1] ^ l0 ^ l2
    h0, h2 = t[a2][b2], t[a3][b3]
    h1 = t[a2 ^ a3][b2 ^ b3] ^ h0 ^ h2
    s0, s1, w0, w1 = a0 ^ a2, a1 ^ a3, b0 ^ b2, b1 ^ b3
    m0, m2 = t[s0][w0], t[s1][w1]
    m1 = t[s0 ^ s1][w0 ^ w1] ^ m0 ^ m2
    c2, c3, c4 = l2 ^ m0 ^ l0 ^ h0, m1 ^ l1 ^ h1, m2 ^ l2 ^ h2 ^ h0
    return (
        l0 ^ r40[c4] ^ r50[h1] ^ r60[h2],
        l1 ^ r41[c4] ^ r51[h1] ^ r61[h2],
        c2 ^ r42[c4] ^ r52[h1] ^ r62[h2],
        c3 ^ r43[c4] ^ r53[h1] ^ r63[h2],
    )


class KernelPlan:
    """Step 2 for the places in slot order: None for a degree-1 place (one
    base-field slot), otherwise its residue ExtField, whose degree picks the
    kernel and the number of slots.  A slot's pair byte holds x's value in bits
    0..k-1 and y's in the next k (k <= PAIR_K): one `translate` through `table`
    (entry a | b << k is a * b) multiplies every slot as if rational, and
    `run_kernels` redoes the places of degree 2 or 4 (`kernel_steps`).
    """

    __slots__ = ("field", "total", "advertised_cost", "table", "halves", "kernel_steps")

    def __init__(self, field: BinaryField, residues: Sequence[ExtField | None]):
        k, q = field.k, field.order
        if k > PAIR_K:
            raise ValueError(f"a pair byte holds two elements of k <= {PAIR_K} bits; k = {k}")
        self.field = field
        offset = cost = 0
        kernel_steps = []
        for ext in residues:
            d = 1 if ext is None else ext.d
            if d not in KERNEL_COST:
                raise ValueError(f"no kernel for residue degree {d}")
            if ext is not None:
                if ext.base != field:
                    raise ValueError("residue field has the wrong base")
                ext.fold_rows()  # built here, not on the first product
                kernel_steps.append((slice(offset, offset + d), ext, mul_d2 if d == 2 else mul_d4))
            offset += d
            cost += KERNEL_COST[d]
        self.total = offset
        self.advertised_cost = cost  # bilinear multiplications per `hadamard` call
        self.kernel_steps = tuple(kernel_steps)
        self.table = bytes([mul_d1(field, i % q, i >> k) for i in range(q * q)]).ljust(256, b"\0")
        # byte i's x value, i mod q, and y value, (i >> k) mod q, if a kernel reads them
        self.halves = [bytes([i >> s & q - 1 for i in range(256)]) for s in (0, k) if kernel_steps]

    def run_kernels(self, pairs: bytes, products: bytes) -> bytearray:
        """`products` with the slots of each place of degree 2 or 4 redone by its kernel."""
        xs, ys = map(pairs.translate, self.halves)
        products = bytearray(products)
        for slots, ext, kernel in self.kernel_steps:
            products[slots] = kernel(ext, xs[slots], ys[slots])
        return products

    def hadamard(
        self, zv: Sequence[int], tv: Sequence[int], counter: BilinearCounter | None = None
    ) -> list[int]:
        """Step 2 alone, as a product runs it, on two coordinate vectors over F_q;
        a counter is advanced by `advertised_cost` once per call."""
        if len(zv) != self.total or len(tv) != self.total:
            raise ValueError("coordinate vectors do not match the plan size")
        check, k = self.field.check, self.field.k
        pairs = bytes([check(a) | check(b) << k for a, b in zip(zv, tv)])
        if counter is not None:
            counter.bilinear_mults += self.advertised_cost
        products = pairs.translate(self.table)
        if self.kernel_steps:
            products = self.run_kernels(pairs, products)
        return list(products)
