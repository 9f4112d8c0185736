"""Arithmetic in binary fields GF(2^k), univariate polynomials over them, and
polynomial-quotient extensions GF(q^d).

Representation conventions, used throughout the package:

* An element of GF(2^k) is a plain int in range(2**k): bit ``i`` is the
  coefficient of ``w**i``, where ``w`` is the residue of the generator modulo
  the field's defining polynomial.  There are no wrapper objects; all
  operations live on the `BinaryField` instance, so every call site names the
  field it works in.
* A polynomial over a field is a tuple of such ints, index ``j`` holding the
  coefficient of ``x**j``, with no trailing zeros.  The zero polynomial is the
  empty tuple.  `poly_mul` is the one schoolbook convolution: `ExtField.mul`
  reduces its result through `poly_mod` and `curve.series_mul` truncates it.
  `poly_divmod` is the one polynomial remainder loop; the kernels reduce
  through rows fixed per residue field instead (`ExtField.fold_rows`).
* An element of an extension GF(q^d) = F_q[t]/(m) is a length-``d`` tuple of
  base-field ints: coordinates in the basis (1, t, ..., t**(d-1)).
* A lane vector (`Lanes`) packs many elements of GF(2^k) into one int, one
  per byte, so that scaling all of them by one constant is one
  `bytes.translate` instead of one `mul` per element.  All of set-up runs on
  these: Rabin's irreducibility test (an element of F_q[x]/(p) is one lane
  vector), the candidate checks and place evaluation (polynomials evaluated
  together in one Horner pass), and row reduction; the product reads the
  same byte lanes.  An extension field keeps its two fixed F_q-linear maps
  on them, each built once: multiplication by t, the steps of `ladder`, and
  the q-power map (`ExtField.frobenius`), which Rabin's test,
  `curve.generates_residue` and `absolute_trace` read.

The module-level fields `F2`, `F4` (w^2+w+1) and `F16` (w^4+w+1) cover every
base field the bundled multiplier instances use.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import reduce
from operator import getitem, xor

Poly = tuple  # tuple of base-field ints, little-endian, no trailing zeros
ZERO_POLY: Poly = ()
NEG_INF = float("-inf")
MAX_K = 8  # largest base-field degree: one element per byte, a product table of 2^16 entries
PAIR_K = 4  # the largest k whose two elements share a byte, 2k <= 8


class BinaryField:
    """GF(2^k) presented as F_2[w]/(modulus), for 1 <= k <= MAX_K.

    ``modulus`` is the defining polynomial as a bitmask (bit i = coeff of w^i),
    monic of degree k and irreducible over F_2.  The product table ``rows[a][b]`` = a * b
    (row a is 256 bytes, 0 from q on, for `translate`) and the inverse table read off
    it are built once here, so `mul` and `inv` are lookups; that is what caps k.
    For k <= PAIR_K, `pair_table` holds a * b at byte a | b << k, for `translate`.
    """

    __slots__ = ("k", "modulus", "order", "rows", "pair_table", "_inverses", "_hash")

    def __init__(self, k: int, modulus: int):
        if not 1 <= k <= MAX_K:
            raise ValueError(f"field degree must be between 1 and {MAX_K}")
        if modulus >> k != 1 or modulus < 0:
            raise ValueError("modulus must be monic of degree k")
        self.k = k
        self.modulus = modulus
        self.order = 1 << k
        self._hash = hash((k, modulus))
        # degree-1 bit-polynomials are always irreducible; higher degrees get
        # the real test (which needs F2, constructed through this fast path)
        if k > 1 and not is_irreducible(F2, tuple([modulus >> i & 1 for i in range(k + 1)])):
            raise ValueError("modulus must be irreducible over F_2")
        # row a by F_2-linearity in b: a * b is the XOR of the a * w^i over the
        # set bits i of b, and a * w^(i+1) is a * w^i shifted, with w^k folded
        # back in as modulus - w^k
        rows = []
        for a in range(self.order):
            row = [0]
            for _ in range(k):
                row += [r ^ a for r in row]
                a <<= 1
                a ^= modulus if a >> k else 0
            rows.append(bytes(row).ljust(256, b"\0"))
        self.rows = rows = tuple(rows)
        # every nonzero row holds exactly one 1; entry 0 is unused
        self._inverses = (0,) + tuple([row.index(1) for row in rows[1:]])
        q = self.order  # entries a | b << k, a < q, are row b's first q bytes
        self.pair_table = b"".join([r[:q] for r in rows]).ljust(256, b"\0") if k <= PAIR_K else None

    def check(self, v: int) -> int:
        """Validate a raw int as an element of this field and return it."""
        if not isinstance(v, int) or not 0 <= v < self.order:
            raise ValueError(f"{v!r} is not an element of {self!r}")
        return v

    def mul(self, a: int, b: int) -> int:
        """Product of two elements; a and b are taken on trust, unchecked."""
        return self.rows[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inverses[a]

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryField) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GF(2^{self.k}; {self.modulus:#b})"


class Lanes:
    """Vectors of up to `count` elements of one BinaryField packed into one
    int, one per byte: lane i is byte i, lane 0 lowest.

    Addition is XOR of the ints.  `scale` multiplies every lane by one
    constant c in one `bytes.translate` through the field's row c (`rows`),
    and `multiples` builds a vector's q multiples as q of them.  Values are
    taken on trust, as by `BinaryField.mul`.
    """

    __slots__ = ("field", "count", "_full")

    def __init__(self, field: BinaryField, count: int):
        self.field = field
        self.count = count
        self._full = (1 << 8 * count) - 1  # lanes 0..count-1

    def pack(self, values: Sequence[int]) -> int:
        """The lane vector holding values[i] in lane i."""
        return int.from_bytes(bytes(values), "little")

    def scale(self, c: int, v: int) -> int:
        """Lanes 0..count-1 of v, each times the constant c."""
        if c < 2:
            return v & self._full if c else 0
        lanes = (v & self._full).to_bytes(self.count, "little")
        return int.from_bytes(lanes.translate(self.field.rows[c]), "little")

    def multiples(self, v: int) -> list[int]:
        """Entry c is `scale(c, v)`: one `translate` per row of the field."""
        lanes = (v & self._full).to_bytes(self.count, "little")
        return [int.from_bytes(lanes.translate(row), "little") for row in self.field.rows]

    def apply(
        self, linear_map: Sequence[Sequence[tuple]], vectors: Sequence[int]
    ) -> list[int]:
        """The lane vectors out[r] = sum of c * vectors[s] over the pairs
        (r, c) in linear_map[s]: a fixed d x d matrix over the field, given
        by its nonzero entries column by column (see `ExtField.mul_map`),
        applied to d coordinate vectors at once.  Entries 1 cost one XOR,
        and each vector is cut into bytes once for all its rows."""
        if len(linear_map) == 1:  # degree 1, most places: one scale
            (column,) = linear_map
            return [self.scale(column[0][1], vectors[0]) if column else 0]
        rows, count = self.field.rows, self.count
        out = [0] * len(linear_map)
        for column, v in zip(linear_map, vectors):
            lanes = None
            for r, c in column:
                if c == 1:
                    out[r] ^= v
                    continue
                if lanes is None:
                    lanes = v.to_bytes(count, "little")
                out[r] ^= int.from_bytes(lanes.translate(rows[c]), "little")
        return out


# ---------------------------------------------------------------------------
# polynomials over a BinaryField


def poly_from_coeffs(field: BinaryField, coeffs: Iterable[int]) -> Poly:
    """Build a polynomial tuple, validating and trimming trailing zeros."""
    c = [field.check(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(p: Poly):
    """Degree of p; the zero polynomial has degree -inf."""
    return len(p) - 1 if p else NEG_INF


def poly_is_monic(p: Poly) -> bool:
    return bool(p) and p[-1] == 1


def poly_add(field: BinaryField, f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    s = list(f)
    for i, c in enumerate(g):
        s[i] ^= c
    while s and s[-1] == 0:
        s.pop()
    return tuple(s)


def poly_scale(field: BinaryField, c: int, f: Poly) -> Poly:
    if c == 0:
        return ZERO_POLY
    return tuple(field.mul(c, a) for a in f)


def poly_mul(field: BinaryField, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ZERO_POLY
    out = [0] * (len(f) + len(g) - 1)
    mul = field.mul
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] ^= mul(a, b)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_divmod(field: BinaryField, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = len(g) - 1
    lead_inv = field.inv(g[-1])
    q = [0] * max(len(f) - dg, 0)
    mul = field.mul
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c == 0:
            continue
        c = mul(c, lead_inv)
        q[i - dg] = c
        for j, b in enumerate(g):
            if b:
                r[i - dg + j] ^= mul(c, b)
    while r and r[-1] == 0:
        r.pop()
    return tuple(q), tuple(r)


def poly_mod(field: BinaryField, f: Poly, g: Poly) -> Poly:
    return poly_divmod(field, f, g)[1]


def poly_gcd(field: BinaryField, f: Poly, g: Poly) -> Poly:
    """Monic gcd."""
    while g:
        f, g = g, poly_mod(field, f, g)
    if f and f[-1] != 1:
        f = poly_scale(field, field.inv(f[-1]), f)
    return f


def is_irreducible(field: BinaryField, p: Poly) -> bool:
    """Rabin's test for a monic polynomial over GF(2^k), of degree m.

    p is irreducible iff x^(q^m) = x mod p and gcd(x^(q^(m/r)) - x, p) = 1
    for every prime r dividing m.  The x^(q^i) mod p are i applications to x
    of the q-power map of the ring F_q[x]/(p) (`ExtField.frobenius`), where an
    element is one lane vector, lane j the coefficient of x^j.

    Non-monic or constant input is rejected as a usage error.
    """
    if not poly_is_monic(p) or len(p) < 2:
        raise ValueError("irreducibility test needs a monic polynomial of degree >= 1")
    m = len(p) - 1
    if m == 1:
        return True
    ring = ExtField.unproven(field, p)
    primes = [r for r in range(2, m + 1) if m % r == 0 and all(r % s for s in range(2, r))]
    gcd_steps = {m // r for r in primes}
    x = v = 1 << 8  # x itself: 1 in lane 1
    for i in range(1, m + 1):
        v = ring.frobenius(v)
        if i in gcd_steps:
            xi = poly_from_coeffs(field, (v ^ x).to_bytes(m, "little"))
            if poly_gcd(field, xi, ring.modulus) != (1,):
                return False
    return v == x


# ---------------------------------------------------------------------------
# extension fields GF(q^d) = F_q[t]/(modulus)


class ExtField:
    """GF(q^d) as base[t]/(modulus); elements are length-d coordinate tuples."""

    __slots__ = ("base", "modulus", "d", "order", "_hash", "_fold", "_step", "_frob")

    def __init__(self, base: BinaryField, modulus: Poly):
        self._take(base, modulus)
        if not is_irreducible(base, self.modulus):
            raise ValueError("extension modulus must be irreducible")

    @classmethod
    def unproven(cls, base: BinaryField, modulus: Poly) -> "ExtField":
        """`ExtField(base, modulus)` minus Rabin's test, for `InstanceSpec.checks`
        to prove; until then `inv` may meet a non-unit."""
        ext = cls.__new__(cls)
        ext._take(base, modulus)
        return ext

    def _take(self, base: BinaryField, modulus: Poly) -> None:
        modulus = poly_from_coeffs(base, modulus)
        if not poly_is_monic(modulus) or len(modulus) < 2:
            raise ValueError("extension modulus must be monic of degree >= 1")
        self.base, self.modulus, self.d = base, modulus, len(modulus) - 1
        self.order = base.order**self.d
        self._hash = hash((base, modulus))
        self._fold = self._step = self._frob = None  # each built on first use

    def zero(self) -> tuple:
        return (0,) * self.d

    def one(self) -> tuple:
        return (1,) + (0,) * (self.d - 1)

    def gen(self) -> tuple:
        """The residue class of t: its remainder mod the modulus."""
        return self.from_poly((0, 1))

    def from_poly(self, p: Poly) -> tuple:
        """The residue class of the polynomial p in t, as coordinates: its
        remainder by the modulus (`poly_mod`), padded."""
        return self._padded(poly_mod(self.base, p, self.modulus))

    def _padded(self, r: Poly) -> tuple:
        """A polynomial of degree < d as its d coordinates."""
        return r + (0,) * (self.d - len(r))

    def from_coords(self, coords: Sequence[int]) -> tuple:
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(coords)}")
        return tuple(self.base.check(c) for c in coords)

    def add(self, u: tuple, v: tuple) -> tuple:
        return tuple(a ^ b for a, b in zip(u, v))

    def mul(self, u: tuple, v: tuple) -> tuple:
        """Schoolbook product: the convolution `poly_mul`, then its remainder
        by the modulus through `poly_mod` (`from_poly`).

        The reference multiplication the counted kernels are tested against:
        at most d*d base-field multiplications, plus reduction, whose
        multiplications are by modulus coefficients, constants of the field,
        which the operation counts never include.
        """
        return self.from_poly(poly_mul(self.base, u, v))

    def _times_t(self, v: int, times: int = 1) -> int:
        """The lane vector v of an element (lane j its coordinate of t^j) times
        t^times, one t at a time: a shift by one lane, the top lane c folded
        back in as c * (t^d mod the modulus), read off that vector's
        `Lanes.multiples`, built once."""
        if self._step is None:
            lanes = Lanes(self.base, self.d)  # t^d = modulus - t^d, char 2
            self._step = lanes.multiples(lanes.pack(self.modulus[:-1]))
        step, width = self._step, 8 * self.d
        full = (1 << width) - 1
        for _ in range(times):
            v <<= 8
            v = (v & full) ^ step[v >> width]
        return v

    def frobenius(self, v: int) -> int:
        """The lane vector of u^q, v that of u.  The q-power map is F_q-linear
        with columns t^(qj) (Berlekamp's Q-matrix), each t^q (`_times_t`) times
        the one before and kept as its `Lanes.multiples`, built once:
        applying it is d lookups, lane j's value into column j's, XORed."""
        if self._frob is None:
            lanes, power = Lanes(self.base, self.d), 1
            columns = [lanes.multiples(power)]
            for _ in range(self.d - 1):
                power = self._times_t(power, self.base.order)
                columns.append(lanes.multiples(power))
            self._frob = columns
        return reduce(xor, map(getitem, self._frob, v.to_bytes(self.d, "little")))

    def ladder(self, z: tuple) -> list[tuple]:
        """z * t^s for s = 0 .. d-1, as coordinate tuples: d - 1 `_times_t`."""
        v, cols = int.from_bytes(bytes(z), "little"), [tuple(z)]
        for _ in range(self.d - 1):
            v = self._times_t(v)
            cols.append(tuple(v.to_bytes(self.d, "little")))
        return cols

    def fold_rows(self) -> tuple:
        """Reduction by the modulus as fixed data, built once: entry j - d,
        j = d .. 2d-2, holds per coordinate r the product-table row (as q ints)
        at coordinate r of t^j mod the modulus, so a coefficient c at t^j adds
        row[c] to coordinate r (a zero coordinate gives the zero row)."""
        if self._fold is None:
            rows, q = self.base.rows, self.base.order
            # t^d = modulus - t^d, and `ladder` walks on to t^(2d-2)
            powers = self.ladder(self.modulus[:-1])[: self.d - 1]
            self._fold = tuple([tuple([tuple(rows[c][:q]) for c in col]) for col in powers])
        return self._fold

    def mul_map(self, z: tuple) -> list:
        """Multiplication by z as a linear map on coordinates, for
        `Lanes.apply`: entry s lists the pairs (r, c), c != 0, where c is
        coordinate r of z * t^s (`ladder`)."""
        # list comprehensions, not tuple() of generators: those grow their
        # result by resizing, and on this path raised the peak memory
        return [[(r, c) for r, c in enumerate(col) if c] for col in self.ladder(z)]

    def inv(self, u: tuple) -> tuple:
        """Extended Euclid on the modulus and u, carrying only u's cofactor:
        s * u = r mod the modulus for every remainder r.  For a unit u (any
        u != 0 if the modulus is irreducible) they reach a nonzero constant c,
        and u^-1 = s / c; otherwise they reach 0: ZeroDivisionError."""
        base = self.base
        if self.d == 1:
            return (base.inv(u[0]),)
        r0, r1 = self.modulus, poly_from_coeffs(base, u)
        s0, s1 = ZERO_POLY, (1,)
        while len(r1) > 1:
            q, r = poly_divmod(base, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_add(base, s0, poly_mul(base, q, s1))
        if not r1:
            raise ZeroDivisionError("inverse of a non-unit")
        return self._padded(poly_scale(base, base.inv(r1[0]), s1))

    def __eq__(self, other) -> bool:
        same = isinstance(other, ExtField) and self.base == other.base
        return same and self.modulus == other.modulus

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ExtField({self.base!r}, deg {self.d})"


F2 = BinaryField(1, 0b10)
F4 = BinaryField(2, 0b111)  # w^2 + w + 1
F16 = BinaryField(4, 0b10011)  # w^4 + w + 1


def absolute_trace(ext: ExtField, z: tuple) -> int:
    """Trace of z down to F_2, 0 or 1: the sum of its d conjugates over F_q
    (`ExtField.frobenius`), an element c of F_q, then c's trace over F_2,
    c + c^2 + ... + c^(2^(k-1)).
    """
    v = c = int.from_bytes(bytes(z), "little")
    for _ in range(ext.d - 1):
        v = ext.frobenius(v)
        c ^= v
    assert c < ext.base.order, "trace to F_q must land in F_q"
    trace = c
    for _ in range(ext.base.k - 1):
        c = ext.base.mul(c, c)
        trace ^= c
    return trace
