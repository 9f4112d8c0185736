"""Reference helpers the test modules share: one copy of each.

Not collected by pytest (no test_ prefix); a test module imports it by name,
as pytest puts this directory on the path.
"""

import functools
import itertools

from curvemul import tools
from curvemul.engine import compile_instance
from curvemul.galois import BinaryField, ExtField


@functools.cache
def bundled(name):
    """(spec, compiled) of bundled instance `name`, loaded and compiled on first use
    and shared by every test after: read them, never change them.  A test that
    corrupts a multiplier or counts set-up work builds its own, and one that patches
    set-up calls this first."""
    spec = tools.load_bundled(name)
    return spec, compile_instance(spec)


def unit_vectors(n):
    """The coordinates of 1, t, ..., t^(n-1)."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def basis_pairs(n):
    """The n^2 pairs (t^i, t^j), i then j: agreeing on them, two F_q-bilinear
    products agree everywhere."""
    return list(itertools.product(unit_vectors(n), repeat=2))


def random_operand(rng, spec):
    """n coordinates drawn from `rng`, each in F_q."""
    return [rng.randrange(spec.field.order) for _ in range(spec.n)]


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
    """A product table that counts its outer-row lookups: ``rows[a][b]`` is one
    lookup, a row bound ahead of time (``row[c]``) is none."""

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
    """A fresh copy of `field` whose product table `rows` and pair table count
    (`RowCountingTable`, `CountingBytes`), and `residues` (None at a degree-1
    place) rebuilt over it with their fold rows warmed; both counts are 0 when
    it returns."""
    copy = BinaryField(field.k, field.modulus)
    copy.rows = RowCountingTable(copy.rows)
    copy.pair_table = CountingBytes(copy.pair_table)
    rebuilt = [None if ext is None else ExtField(copy, ext.modulus) for ext in residues]
    for ext in filter(None, rebuilt):
        ext.fold_rows()
    copy.rows.lookups = 0
    return copy, rebuilt
