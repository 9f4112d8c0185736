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
  empty tuple.
* An element of an extension GF(q^d) = F_q[t]/(m) is a length-``d`` tuple of
  base-field ints: coordinates in the basis (1, t, ..., t**(d-1)).

The module-level fields `F2`, `F4` (w^2+w+1) and `F16` (w^4+w+1) cover every
base field the bundled multiplier instances use.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

Poly = tuple  # tuple of base-field ints, little-endian, no trailing zeros
ZERO_POLY: Poly = ()
NEG_INF = float("-inf")
MAX_K = 8  # largest base-field degree: a product table of at most 2^16 entries


class BinaryField:
    """GF(2^k) presented as F_2[w]/(modulus), for 1 <= k <= MAX_K.

    ``modulus`` is the defining polynomial as a bitmask (bit i = coeff of w^i),
    monic of degree k and irreducible over F_2.  The q*q product table is
    built once here, so `mul` is a lookup; that is what caps k.
    """

    __slots__ = ("k", "modulus", "order", "_table")

    def __init__(self, k: int, modulus: int):
        if not 1 <= k <= MAX_K:
            raise ValueError(f"field degree must be between 1 and {MAX_K}")
        if modulus >> k != 1 or modulus < 0:
            raise ValueError("modulus must be monic of degree k")
        self.k = k
        self.modulus = modulus
        self.order = 1 << k
        # degree-1 bit-polynomials are always irreducible; higher degrees get
        # the real test (which needs F2, constructed through this fast path)
        if k > 1 and not is_irreducible(F2, _bits_to_poly(modulus)):
            raise ValueError("modulus must be irreducible over F_2")
        q = self.order
        self._table = tuple(
            tuple(self._reduce(_bits_mul(a, b)) for b in range(q)) for a in range(q)
        )

    def check(self, v: int) -> int:
        """Validate a raw int as an element of this field and return it."""
        if not isinstance(v, int) or not 0 <= v < self.order:
            raise ValueError(f"{v!r} is not an element of {self!r}")
        return v

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Product of two elements; a and b are taken on trust, unchecked."""
        return self._table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if a == 1:
            return 1
        # extended Euclid on bit-polynomials: u*a + _*modulus = gcd = 1
        r0, r1 = self.modulus, a
        s0, s1 = 0, 1
        while r1:
            q, r = _bits_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 ^ _bits_mul(q, s1)
        assert r0 == 1, "modulus is irreducible, gcd must be 1"
        return self._reduce(s0)

    def _reduce(self, bits: int) -> int:
        m, top = self.modulus, self.modulus.bit_length()
        while bits.bit_length() >= top:
            bits ^= m << (bits.bit_length() - top)
        return bits

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryField)
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.k, self.modulus))

    def __repr__(self) -> str:
        return f"GF(2^{self.k}; {self.modulus:#b})"


def _bits_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _bits_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _bits_to_poly(bits: int) -> Poly:
    return tuple((bits >> i) & 1 for i in range(bits.bit_length()))


# ---------------------------------------------------------------------------
# polynomials over a BinaryField (or any object with add/mul/inv/check)


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


def poly_extgcd(field: BinaryField, f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, u, v) with u*f + v*g = d, d the monic gcd."""
    r0, r1 = f, g
    s0, s1 = (1,), ZERO_POLY
    t0, t1 = ZERO_POLY, (1,)
    while r1:
        q, r = poly_divmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(field, s0, poly_mul(field, q, s1))
        t0, t1 = t1, poly_add(field, t0, poly_mul(field, q, t1))
    if r0 and r0[-1] != 1:
        c = field.inv(r0[-1])
        r0 = poly_scale(field, c, r0)
        s0 = poly_scale(field, c, s0)
        t0 = poly_scale(field, c, t0)
    return r0, s0, t0


def poly_pow_mod(field: BinaryField, f: Poly, e: int, m: Poly) -> Poly:
    if e < 0:
        raise ValueError("negative exponent")
    r: Poly = (1,)
    f = poly_mod(field, f, m)
    while e:
        if e & 1:
            r = poly_mod(field, poly_mul(field, r, f), m)
        f = poly_mod(field, poly_mul(field, f, f), m)
        e >>= 1
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(field: BinaryField, p: Poly) -> bool:
    """Rabin's test for a monic polynomial over GF(2^k), of degree m.

    p is irreducible iff x^(q^m) = x mod p and gcd(x^(q^(m/r)) - x, p) = 1
    for every prime r dividing m.  The q-power map a -> a^q is F_q-linear on
    F_q[x]/(p), with the residues (x^q)^j mod p as its columns (Berlekamp's
    Q-matrix); applying that matrix m times to x yields every x^(q^i) mod p
    in one pass of m*m base-field multiplications per step, with no
    exponentiation to the power q^m.

    Non-monic or constant input is rejected as a usage error.
    """
    if not poly_is_monic(p) or len(p) < 2:
        raise ValueError("irreducibility test needs a monic polynomial of degree >= 1")
    m = len(p) - 1
    if m == 1:
        return True
    x: Poly = (0, 1)
    xq = poly_pow_mod(field, x, field.order, p)
    columns = [(1,)]
    for _ in range(m - 1):
        columns.append(poly_mod(field, poly_mul(field, columns[-1], xq), p))
    gcd_steps = {m // r for r in _prime_factors(m)}
    mul = field.mul
    v = [0, 1] + [0] * (m - 2)  # coordinates of x^(q^i), i = 0 so far
    for i in range(1, m + 1):
        w = [0] * m
        for a, col in zip(v, columns):
            if a:
                for r, c in enumerate(col):
                    w[r] ^= mul(a, c)
        v = w
        if i in gcd_steps:
            xi = poly_from_coeffs(field, v)
            if poly_gcd(field, poly_add(field, xi, x), p) != (1,):
                return False
    return v == [0, 1] + [0] * (m - 2)


F2 = BinaryField(1, 0b10)
F4 = BinaryField(2, 0b111)  # w^2 + w + 1
F16 = BinaryField(4, 0b10011)  # w^4 + w + 1


# ---------------------------------------------------------------------------
# extension fields GF(q^d) = F_q[t]/(modulus)


class ExtField:
    """GF(q^d) as base[t]/(modulus); elements are length-d coordinate tuples."""

    __slots__ = ("base", "modulus", "d", "order")

    def __init__(self, base: BinaryField, modulus: Poly):
        modulus = poly_from_coeffs(base, modulus)
        if not poly_is_monic(modulus) or len(modulus) < 2:
            raise ValueError("extension modulus must be monic of degree >= 1")
        if not is_irreducible(base, modulus):
            raise ValueError("extension modulus must be irreducible")
        self.base = base
        self.modulus = modulus
        self.d = len(modulus) - 1
        self.order = base.order**self.d

    def zero(self) -> tuple:
        return (0,) * self.d

    def one(self) -> tuple:
        return (1,) + (0,) * (self.d - 1)

    def gen(self) -> tuple:
        """The residue class of t."""
        if self.d == 1:
            return (self.modulus[0],)  # t = m0 in characteristic 2
        return (0, 1) + (0,) * (self.d - 2)

    def from_coords(self, coords: Sequence[int]) -> tuple:
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(coords)}")
        return tuple(self.base.check(c) for c in coords)

    def add(self, u: tuple, v: tuple) -> tuple:
        return tuple(a ^ b for a, b in zip(u, v))

    def mul(self, u: tuple, v: tuple) -> tuple:
        """Schoolbook product: full convolution, then `reduce`.

        This is the reference multiplication the counted kernels are tested
        against; it performs d*d base-field multiplications plus reduction.
        """
        mul = self.base.mul
        conv = [0] * (2 * self.d - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        conv[i + j] ^= mul(a, b)
        return self.reduce(conv)

    def reduce(self, conv: list[int]) -> tuple:
        """Remainder of a coefficient list (lowest degree first, at most 2d-1
        entries) by the monic modulus, as coordinates.  Overwrites ``conv``.

        Its multiplications are by modulus coefficients, constants of the
        field, which the operation counts never include.
        """
        d = self.d
        m = self.modulus
        mul = self.base.mul
        for i in range(len(conv) - 1, d - 1, -1):
            c = conv[i]
            if c:
                for j in range(d):
                    if m[j]:
                        conv[i - d + j] ^= mul(c, m[j])
        return tuple(conv[:d])

    def inv(self, u: tuple) -> tuple:
        up = self._to_poly(u)
        if not up:
            raise ZeroDivisionError("inverse of 0")
        d, s, _ = poly_extgcd(self.base, up, self.modulus)
        assert d == (1,), "modulus is irreducible, gcd must be 1"
        return self._from_poly(s)

    def pow(self, u: tuple, e: int) -> tuple:
        if e < 0:
            return self.pow(self.inv(u), -e)
        r = self.one()
        while e:
            if e & 1:
                r = self.mul(r, u)
            u = self.mul(u, u)
            e >>= 1
        return r

    def _to_poly(self, u: tuple) -> Poly:
        c = list(u)
        while c and c[-1] == 0:
            c.pop()
        return tuple(c)

    def _from_poly(self, p: Poly) -> tuple:
        return tuple(p) + (0,) * (self.d - len(p))

    def elements(self) -> Iterator[tuple]:
        """All q^d elements; intended for small fields in exhaustive tests."""
        q, d = self.base.order, self.d
        for idx in range(q**d):
            coords = []
            for _ in range(d):
                coords.append(idx % q)
                idx //= q
            yield tuple(coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtField)
            and self.base == other.base
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.base, self.modulus))

    def __repr__(self) -> str:
        return f"ExtField({self.base!r}, deg {self.d})"


def poly_eval_ext(ext: ExtField, f: Poly, z: tuple) -> tuple:
    """Evaluate a base-field polynomial at an extension element (Horner)."""
    acc = ext.zero()
    for c in reversed(f):
        acc = ext.mul(acc, z)
        if c:
            acc = (acc[0] ^ c,) + acc[1:]
    return acc


def absolute_trace(ext: ExtField, z: tuple) -> int:
    """Trace of z down to F_2: the sum of all 2-power Frobenius conjugates.

    Returns 0 or 1. The total degree over F_2 is base.k * d.
    """
    total = ext.base.k * ext.d
    acc = ext.zero()
    cur = z
    for _ in range(total):
        acc = ext.add(acc, cur)
        cur = ext.mul(cur, cur)
    if acc == ext.zero():
        return 0
    assert acc == ext.one(), "absolute trace must land in F_2"
    return 1
