"""Reference helpers the test modules share: one copy of each.

Not collected by pytest (no test_ prefix); a test module imports it by name,
as pytest puts this directory on the path.
"""

import functools
import itertools
import types

from curvemul import engine, galois, tools
from curvemul.curve import PackedPolys
from curvemul.engine import compile_instance
from curvemul.galois import BinaryField, ExtField, Lanes


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


class SetupWork(types.SimpleNamespace):
    """What set-up did while `setup_work` counted, one list per kind, in call order:
    rabin, Rabin's tests as (field, modulus), GF(2^k)'s own over GF(2) included;
    packings, `PackedPolys` built, as polynomial counts; horner, Horner passes as
    (residue modulus, x-image); places and generation, the places engine evaluated
    (`PlaceEvaluator`) or ran `generates_residue` on; inverses, `ExtField.inv`
    calls as moduli; multiples, scale and apply, `Lanes` calls as lane counts; mul,
    `BinaryField.mul` calls as (a, b); rows, passes over a field's product table
    `rows`, as its length."""

    def clear(self):
        for calls in vars(self).values():
            calls.clear()


def _counted(calls, real, record):
    """`real`, appending record(*args) to `calls` first at each call."""
    return lambda *args: calls.append(record(*args)) or real(*args)


def setup_work(monkeypatch):
    """Count set-up's work until the test ends: each counted name is wrapped once,
    where the program looks it up, and the returned `SetupWork` gains an entry per
    call.  This is the one place tests count set-up: no test module patches a name
    it wraps (tests/test_references.py checks this)."""
    kinds = "rabin packings horner places generation inverses multiples scale apply mul rows"
    work = SetupWork(**{kind: [] for kind in kinds.split()})
    rabin = _counted(work.rabin, galois.is_irreducible, lambda field, p: (field, tuple(p)))
    monkeypatch.setattr(galois, "is_irreducible", rabin)
    monkeypatch.setattr(engine, "is_irreducible", rabin)
    monkeypatch.setattr(PackedPolys, "__init__", _counted(
        work.packings, PackedPolys.__init__, lambda packed, field, polys: len(polys)))
    monkeypatch.setattr(PackedPolys, "_horner", _counted(
        work.horner, PackedPolys._horner, lambda packed, res, x_img: (res.modulus, x_img)))
    monkeypatch.setattr(engine, "PlaceEvaluator", _counted(
        work.places, engine.PlaceEvaluator, lambda place, family: place))
    monkeypatch.setattr(engine, "generates_residue", _counted(
        work.generation, engine.generates_residue, lambda place: place))
    monkeypatch.setattr(ExtField, "inv", _counted(
        work.inverses, ExtField.inv, lambda ext, u: ext.modulus))
    for name in ("multiples", "scale", "apply"):
        monkeypatch.setattr(Lanes, name, _counted(
            getattr(work, name), getattr(Lanes, name), lambda lanes, *args: lanes.count))
    monkeypatch.setattr(BinaryField, "mul", _counted(
        work.mul, BinaryField.mul, lambda field, a, b: (a, b)))

    class Rows(tuple):
        def __iter__(self):
            work.rows.append(len(self))
            return tuple.__iter__(self)

    slot = BinaryField.rows  # each read of field.rows is a Rows of the stored table
    monkeypatch.setattr(BinaryField, "rows", property(
        lambda field: Rows(slot.__get__(field)), slot.__set__))
    return work
