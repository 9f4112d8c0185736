"""Bilinear multiplication kernels for residue fields of degree 1, 2, 4.

Each kernel is a fixed straight-line program: the number of bilinear
(operand-by-operand) base-field multiplications it performs is a constant of
the kernel — 1, 3, and 9 respectively (`KERNEL_COST`) — independent of the
operand values; the engine reads its step-2 count from them.  An optional
`BilinearCounter` tallies the multiplications actually performed.
Multiplications by modulus coefficients during reduction are multiplications
by constants of the instance and are never counted.
"""

from __future__ import annotations

from collections.abc import Sequence

from .galois import BinaryField, ExtField

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
    return field.mul(a, b)


def _kara2(base: BinaryField, a0, a1, b0, b1, counter: BilinearCounter | None):
    """(a0 + a1 t)(b0 + b1 t) as 3 coefficients, using 3 multiplications."""
    if counter is not None:
        counter.bilinear_mults += 3
    p0 = base.mul(a0, b0)
    p2 = base.mul(a1, b1)
    pm = base.mul(a0 ^ a1, b0 ^ b1)
    return p0, pm ^ p0 ^ p2, p2


def mul_d2(
    ext: ExtField, u: Sequence[int], v: Sequence[int], counter: BilinearCounter | None = None
) -> tuple:
    """Karatsuba product in a degree-2 residue field: 3 bilinear mults."""
    if ext.d != 2:
        raise ValueError("mul_d2 needs a degree-2 extension")
    c0, c1, c2 = _kara2(ext.base, u[0], u[1], v[0], v[1], counter)
    return ext.reduce([c0, c1, c2])


def mul_d4(
    ext: ExtField, u: Sequence[int], v: Sequence[int], counter: BilinearCounter | None = None
) -> tuple:
    """Two-level Karatsuba in a degree-4 residue field: 9 bilinear mults."""
    if ext.d != 4:
        raise ValueError("mul_d4 needs a degree-4 extension")
    base = ext.base
    lo = _kara2(base, u[0], u[1], v[0], v[1], counter)
    hi = _kara2(base, u[2], u[3], v[2], v[3], counter)
    mid = _kara2(base, u[0] ^ u[2], u[1] ^ u[3], v[0] ^ v[2], v[1] ^ v[3], counter)
    cross = tuple(m ^ a ^ b for m, a, b in zip(mid, lo, hi))
    conv = [lo[0], lo[1], lo[2] ^ cross[0], cross[1], cross[2] ^ hi[0], hi[1], hi[2]]
    return ext.reduce(conv)


class KernelPlan:
    """Kernel dispatch for a sequence of residue-field groups.

    Groups are (offset, ext) pairs: ext is None for degree-1 groups (plain
    base-field slots), otherwise the residue ExtField whose degree picks the
    kernel.  Offsets partition range(total) without gaps or overlaps.
    """

    __slots__ = ("field", "groups", "total")

    def __init__(self, field: BinaryField, groups: Sequence[tuple]):
        self.field = field
        cursor = 0
        checked = []
        for offset, ext in groups:
            if offset != cursor:
                raise ValueError("kernel groups must tile the coordinate range")
            d = 1 if ext is None else ext.d
            if d not in KERNEL_COST:
                raise ValueError(f"no kernel for residue degree {d}")
            if ext is not None and ext.base != field:
                raise ValueError("residue field has the wrong base")
            checked.append((offset, ext))
            cursor += d
        self.groups = tuple(checked)
        self.total = cursor

    @property
    def advertised_cost(self) -> int:
        """Bilinear multiplications one `hadamard` call performs."""
        return sum(KERNEL_COST[1 if ext is None else ext.d] for _, ext in self.groups)

    def hadamard(
        self, zv: Sequence[int], tv: Sequence[int], counter: BilinearCounter | None = None
    ) -> list[int]:
        """Componentwise product of two coordinate vectors, group by group."""
        if len(zv) != self.total or len(tv) != self.total:
            raise ValueError("coordinate vectors do not match the plan size")
        out = [0] * self.total
        for offset, ext in self.groups:
            if ext is None:
                out[offset] = mul_d1(self.field, zv[offset], tv[offset], counter)
            elif ext.d == 2:
                out[offset : offset + 2] = mul_d2(
                    ext, zv[offset : offset + 2], tv[offset : offset + 2], counter
                )
            else:
                out[offset : offset + 4] = mul_d4(
                    ext, zv[offset : offset + 4], tv[offset : offset + 4], counter
                )
        return out
