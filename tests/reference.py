"""Reference helpers the test modules share: one copy of each.

Not collected by pytest (no test_ prefix); a test module imports it by name,
as pytest puts this directory on the path.
"""

import itertools

from curvemul.galois import BinaryField, ExtField


def ext_elements(ext):
    """All q^d elements of ext, coordinate 0 varying fastest."""
    for coords in itertools.product(range(ext.base.order), repeat=ext.d):
        yield coords[::-1]


def horner(res, f, z):
    """f(z) for a base-field polynomial f and z in the residue field res."""
    acc = res.zero()
    for c in reversed(f):
        acc = res.mul(acc, z)
        acc = (acc[0] ^ c,) + acc[1:]
    return acc


class RowCountingTable(tuple):
    """A product table that counts its outer-row lookups: ``table[a][b]``
    is one lookup, a row bound ahead of time (``row[c]``) is none."""

    def __new__(cls, rows):
        table = super().__new__(cls, rows)
        table.lookups = 0
        return table

    def __getitem__(self, a):
        self.lookups += 1
        return tuple.__getitem__(self, a)


class CountingBytes(bytes):
    """A pair table that counts its subscripts: ``table[i]`` is one read.  A
    `translate` through it reads the buffer, one entry per byte, and counts none."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return bytes.__getitem__(self, i)


def counting_field(field, residues):
    """A fresh copy of `field` whose product table and pair table count
    (`RowCountingTable`, `CountingBytes`), and `residues` (None at a degree-1
    place) rebuilt over it with their fold rows warmed; both counts are 0 when
    it returns."""
    copy = BinaryField(field.k, field.modulus)
    copy.table = RowCountingTable(copy.table)
    copy.pair_table = CountingBytes(copy.pair_table)
    rebuilt = [None if ext is None else ExtField(copy, ext.modulus) for ext in residues]
    for ext in filter(None, rebuilt):
        ext.fold_rows()
    copy.table.lookups = 0
    return copy, rebuilt
