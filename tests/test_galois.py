import functools
import itertools
import random

import pytest

from curvemul.galois import (
    F2,
    F4,
    F16,
    BinaryField,
    ExtField,
    Lanes,
    ZERO_POLY,
    absolute_trace,
    is_irreducible,
    poly_add,
    poly_degree,
    poly_divmod,
    poly_from_coeffs,
    poly_gcd,
    poly_mod,
    poly_mul,
)
from reference import ext_elements


def slow_mul(a, b, modulus, k):
    """Oracle: multiply bit-polynomials coefficient list style, reduce mod modulus."""
    prod = [0] * (2 * k)
    for i in range(k):
        for j in range(k):
            prod[i + j] ^= ((a >> i) & 1) & ((b >> j) & 1)
    for i in range(2 * k - 1, k - 1, -1):
        if prod[i]:
            prod[i] = 0
            for j in range(k + 1):
                if (modulus >> j) & 1:
                    prod[i - k + j] ^= 1
    return sum(c << i for i, c in enumerate(prod[:k]))


# powers of the generator a=w in F_16/(w^4+w+1), frozen from the oracle:
# a^4 = a+1, then each step multiplies by a
F16_POWERS = (1, 2, 4, 8, 3, 6, 12, 11, 5, 10, 7, 14, 15, 13, 9)


def test_f16_generator_powers_match_oracle():
    acc = 1
    got = []
    for _ in range(15):
        got.append(acc)
        acc = slow_mul(acc, 2, 0b10011, 4)
    assert tuple(got) == F16_POWERS
    assert acc == 1  # multiplicative order 15


def test_fe_mul_against_oracle_exhaustive():
    for field in (F2, F4, F16):
        for a in range(field.order):
            for b in range(field.order):
                assert field.mul(a, b) == slow_mul(a, b, field.modulus, field.k)


def _bits_mul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _reduce(bits, modulus):
    top = modulus.bit_length()
    while bits.bit_length() >= top:
        bits ^= modulus << (bits.bit_length() - top)
    return bits


@pytest.mark.parametrize("k", range(1, 9))
def test_product_table_matches_bit_loop(k):
    # every modulus of degree k <= 4, the first one for larger k; each
    # product multiplied as bit polynomials and reduced on its own
    fields = []
    for low in range(1 << k):
        try:
            fields.append(BinaryField(k, 1 << k | low))
        except ValueError:
            continue
        if k > 4:
            break
    assert fields
    for field in fields:
        for a in range(field.order):
            want = [_reduce(_bits_mul(a, b), field.modulus) for b in range(field.order)]
            assert [field.mul(a, b) for b in range(field.order)] == want, (field, a)


def test_fe_mul_examples():
    # a * a^3 = a^4 = w + 1
    assert F16.mul(2, 8) == 0b0011
    assert F4.mul(2, 2) == 3  # a^2 = a + 1
    assert F4.mul(2, 3) == 1  # a * a^2 = a^3 = 1


def test_field_axioms_random():
    rng = random.Random(12345)
    for field in (F4, F16):
        for _ in range(400):
            a = rng.randrange(field.order)
            b = rng.randrange(field.order)
            c = rng.randrange(field.order)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)
            assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
            assert field.mul(a, 1) == a


def test_fe_inv():
    assert F4.inv(2) == 3  # a^-1 = a^2 = a+1
    assert F16.inv(6) == 7  # (a^5)^-1 = a^10
    f256 = BinaryField(8, 0b100011011)  # w^8+w^4+w^3+w+1
    assert f256.inv(0x53) == 0xCA
    for field in (F2, F4, F16, f256):
        for a in range(1, field.order):
            assert field.mul(a, field.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            field.inv(0)


F8 = BinaryField(3, 0b1011)  # w^3+w+1
F256 = BinaryField(8, 0b100011011)  # w^8+w^4+w^3+w+1
LANE_FIELDS = pytest.mark.parametrize(
    "field", [F2, F4, F8, F16, F256], ids=lambda f: f"F{f.order}"
)


@LANE_FIELDS
def test_lane_scale_exhaustive(field):
    q = field.order
    values = list(range(field.order))
    every = Lanes(field, q)
    packed = every.pack(values)
    pair = Lanes(field, 2)
    for c in range(field.order):
        # every value beside its neighbours; equality of the packed ints also
        # rules out a carry across lanes or bits past the last lane
        assert every.scale(c, packed) == every.pack([field.mul(c, v) for v in values])
        for v in values:
            # every value in the top lane, under the largest value
            got = pair.scale(c, pair.pack([q - 1, v]))
            assert got == pair.pack([field.mul(c, q - 1), field.mul(c, v)]), (c, v)


@LANE_FIELDS
def test_lane_scale_keeps_count_lanes_for_every_constant(field):
    # the result has `count` lanes whatever c is, also at c = 0 and c = 1
    assert Lanes(F4, 2).scale(1, 1 << 16) == 0
    rng = random.Random(field.k)
    lanes = Lanes(field, 3)
    full = (1 << 8 * 3) - 1
    for _ in range(10):
        low = [rng.randrange(field.order) for _ in range(3)]
        high = [rng.randrange(1, field.order) for _ in range(4)]
        v = int.from_bytes(bytes(low + high), "little")
        assert v > full  # high lanes set, from byte 3 up, each below q
        for c in range(field.order):
            assert lanes.scale(c, v) == lanes.scale(c, v & full), c
        # the table of multiples is the scales themselves, entry by entry
        assert lanes.multiples(v) == [lanes.scale(c, v) for c in range(field.order)]


@LANE_FIELDS
def test_lane_pack_round_trip(field):
    rng = random.Random(field.k)
    for count in (0, 1, 2, 7, 40):
        lanes = Lanes(field, count)
        for _ in range(20):
            values = [rng.randrange(field.order) for _ in range(count)]
            packed = lanes.pack(values)
            assert packed < 1 << 8 * count
            assert list(packed.to_bytes(count, "little")) == values
            raw = int.from_bytes(bytes([rng.randrange(field.order) for _ in range(count)]),
                                 "little")
            assert lanes.pack(raw.to_bytes(count, "little")) == raw


@pytest.mark.parametrize(
    "base,modulus",
    [
        (F2, (1, 1, 0, 0, 1)),
        (F4, (1, 1, 0, 1)),
        (F16, (8, 1, 1)),
        (F16, (9, 12, 5, 14, 4, 11, 0, 11, 15, 1, 14, 6, 12, 1)),  # f16_13's Q
        (F256, (2, 1)),
        (F8, (1, 1, 1)),
        (F256, (32, 1, 1)),
    ],
    ids=["F2-deg4", "F4-deg3", "F16-deg2", "F16-deg13", "F256-deg1", "F8-deg2", "F256-deg2"],
)
def test_lane_apply_matches_ext_mul(base, modulus):
    ext = ExtField(base, modulus)
    rng = random.Random(len(modulus))
    count = 9
    lanes = Lanes(base, count)
    for _ in range(15):
        z = tuple(rng.randrange(base.order) for _ in range(ext.d))
        us = [tuple(rng.randrange(base.order) for _ in range(ext.d)) for _ in range(count)]
        coords = [lanes.pack([u[r] for u in us]) for r in range(ext.d)]
        out = lanes.apply(ext.mul_map(z), coords)
        got = list(zip(*(o.to_bytes(count, "little") for o in out)))
        assert got == [ext.mul(z, u) for u in us]
        ladder = [z]
        for _ in range(ext.d - 1):
            ladder.append(ext.mul(ladder[-1], ext.gen()))
        assert ext.ladder(z) == ladder
    if ext.order <= 256:  # the lane ladder against the tuple recurrence, on every element
        for z in ext_elements(ext):
            assert ext.ladder(z) == tuple_ladder(ext, z), z


def tuple_ladder(ext, z):
    """Reference: z * t^s for s < d by the tuple recurrence the ladder ran
    before lanes: each is the one before shifted, plus its top coordinate
    times the modulus."""
    cols = [tuple(z)]
    for _ in range(ext.d - 1):
        top, shifted = cols[-1][-1], (0,) + cols[-1][:-1]
        cols.append(tuple(a ^ ext.base.mul(top, b) for a, b in zip(shifted, ext.modulus)))
    return cols


def test_field_spec_validation():
    with pytest.raises(ValueError):
        BinaryField(2, 0b101)  # w^2+1 = (w+1)^2 reducible
    with pytest.raises(ValueError):
        BinaryField(3, 0b111)  # degree mismatch
    with pytest.raises(ValueError, match="between 1 and 8"):
        BinaryField(9, 0b1000010001)  # w^9+w^4+1 is irreducible; k is over the cap
    with pytest.raises(ValueError):
        F16.check(16)
    with pytest.raises(ValueError):
        F16.check(-1)
    assert F16.check(15) == 15


def test_poly_basics():
    f = poly_from_coeffs(F4, [1, 0, 3, 0, 0])
    assert f == (1, 0, 3)
    assert poly_degree(f) == 2
    assert poly_degree(ZERO_POLY) == float("-inf")
    assert poly_add(F4, f, f) == ZERO_POLY
    assert poly_mul(F4, f, ZERO_POLY) == ZERO_POLY


def test_poly_mul_example():
    # (x + a)(x + a^2) = x^2 + (a + a^2) x + a^3 = x^2 + x + 1 over F_4
    assert poly_mul(F4, (2, 1), (3, 1)) == (1, 1, 1)


def test_poly_divmod_example():
    # x^5 = 1 * (x^5 + x^3 + 1) + (x^3 + 1) over F_2
    q, r = poly_divmod(F2, (0, 0, 0, 0, 0, 1), (1, 0, 0, 1, 0, 1))
    assert q == (1,)
    assert r == (1, 0, 0, 1)


def test_poly_divmod_roundtrip_random():
    rng = random.Random(99)
    for field in (F2, F16):
        for _ in range(300):
            f = poly_from_coeffs(
                field, [rng.randrange(field.order) for _ in range(rng.randrange(9))]
            )
            g = poly_from_coeffs(
                field,
                [rng.randrange(field.order) for _ in range(rng.randrange(1, 5))],
            )
            if not g:
                continue
            q, r = poly_divmod(field, f, g)
            assert poly_add(field, poly_mul(field, q, g), r) == f
            assert poly_degree(r) < poly_degree(g)


def test_poly_gcd():
    # gcd((x+1)^2 * (x^2+x+1), (x+1) * x) = x+1 over F_2
    f = poly_mul(F2, poly_mul(F2, (1, 1), (1, 1)), (1, 1, 1))
    g = poly_mul(F2, (1, 1), (0, 1))
    assert poly_gcd(F2, f, g) == (1, 1)


def test_is_irreducible():
    assert is_irreducible(F2, (1, 1, 1))  # w^2+w+1
    assert is_irreducible(F2, (1, 1, 0, 0, 1))  # w^4+w+1
    assert not is_irreducible(F2, (1, 0, 1))  # (w+1)^2
    assert is_irreducible(F2, (1, 0, 0, 1, 0, 1))  # x^5+x^3+1
    assert not is_irreducible(F2, (1, 1, 1, 1))  # has root 1
    assert is_irreducible(F4, (2, 1, 1))  # x^2+x+a has no root in F_4
    assert not is_irreducible(F16, (3, 1, 1))  # x^2+x+a^4 = (x+a)(x+a^4)
    with pytest.raises(ValueError):
        is_irreducible(F2, (1, 1, 0))  # trailing zero means non-monic input
    with pytest.raises(ValueError):
        is_irreducible(F4, (2, 2))


def test_is_irreducible_degree2_exhaustive_f2():
    # only irreducible monic quadratic over F_2 is w^2+w+1
    irr = [
        (c0, c1) for c0 in (0, 1) for c1 in (0, 1) if is_irreducible(F2, (c0, c1, 1))
    ]
    assert irr == [(1, 1)]


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize(
    "field, top", [(F2, 8), (F4, 4), (F8, 3), (F16, 2)], ids=["F2", "F4", "F8", "F16"]
)
def test_is_irreducible_counts_match_necklace_formula(field, top):
    # monic irreducibles of degree m over F_q: (1/m) sum_{d | m} mu(d) q^(m/d)
    q = field.order
    for m in range(1, top + 1):
        want = sum(mobius(d) * q ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
        got = sum(
            is_irreducible(field, low + (1,))
            for low in itertools.product(range(q), repeat=m)
        )
        assert got == want, (q, m)


def tuple_rabin(field, p):
    """Reference: Rabin's test on tuple polynomials, as it ran before the
    lane version.  x^q mod p by square-and-multiply, the Frobenius matrix's
    columns (x^q)^j mod p, then m matrix-vector products from x."""
    m = len(p) - 1
    if m == 1:
        return True
    x = (0, 1)
    xq, power, e = (1,), x, field.order
    while e:
        if e & 1:
            xq = poly_mod(field, poly_mul(field, xq, power), p)
        power = poly_mod(field, poly_mul(field, power, power), p)
        e >>= 1
    columns = [(1,)]
    for _ in range(m - 1):
        columns.append(poly_mod(field, poly_mul(field, columns[-1], xq), p))
    primes = [r for r in range(2, m + 1) if m % r == 0 and all(r % s for s in range(2, r))]
    gcd_steps = {m // r for r in primes}
    v = [0, 1] + [0] * (m - 2)
    for i in range(1, m + 1):
        w = [0] * m
        for a, col in zip(v, columns):
            if a:
                for r, c in enumerate(col):
                    w[r] ^= field.mul(a, c)
        v = w
        if i in gcd_steps:
            xi = poly_from_coeffs(field, v)
            if poly_gcd(field, poly_add(field, xi, x), p) != (1,):
                return False
    return v == [0, 1] + [0] * (m - 2)


@pytest.mark.parametrize(
    "field, top", [(F2, 9), (F4, 5), (F8, 3), (F16, 3)], ids=["F2", "F4", "F8", "F16"]
)
def test_is_irreducible_matches_tuple_reference(field, top):
    for m in range(1, top + 1):
        for low in itertools.product(range(field.order), repeat=m):
            p = low + (1,)
            assert is_irreducible(field, p) == tuple_rabin(field, p), p


def test_is_irreducible_matches_tuple_reference_gf256():
    rng = random.Random(256)
    verdicts = []
    for _ in range(300):
        m = rng.randrange(2, 7)
        p = tuple(rng.randrange(256) for _ in range(m)) + (1,)
        verdicts.append(is_irreducible(F256, p))
        assert verdicts[-1] == tuple_rabin(F256, p), p
    assert 0 < sum(verdicts) < 300


F32 = ExtField(F2, (1, 0, 0, 1, 0, 1))  # F_2[t]/(t^5+t^3+1)


def test_ext_coords_roundtrip():
    b = F32.gen()
    assert F32.from_coords([0, 1, 0, 0, 0]) == b
    assert F32.from_coords(list(b)) == b
    with pytest.raises(ValueError):
        F32.from_coords([0, 1])
    with pytest.raises(ValueError):
        F32.from_coords([0, 1, 0, 0, 2])
    assert ExtField(F4, (3, 1)).gen() == (3,)  # t = -3 = 3 in characteristic 2


def test_ext_mul_example():
    # (1 + b)(1 + b + b^2) = 1 + b^3, no reduction needed
    u = F32.from_coords([1, 1, 0, 0, 0])
    v = F32.from_coords([1, 1, 1, 0, 0])
    assert F32.mul(u, v) == F32.from_coords([1, 0, 0, 1, 0])


def test_ext_mul_reduction():
    # b^4 * b = b^5 = b^3 + 1 in F_2[t]/(t^5+t^3+1)
    b4 = F32.from_coords([0, 0, 0, 0, 1])
    b = F32.gen()
    assert F32.mul(b4, b) == F32.from_coords([1, 0, 0, 1, 0])


def test_frobenius_matches_repeated_mul():
    # the lane q-power map applied i times against u^(q^i), each q-th power
    # q - 1 products by ExtField.mul; every element where there are at most
    # 256, a few of f16_13's Q field
    rng = random.Random(13)
    q_field = ExtField(F16, (9, 12, 5, 14, 4, 11, 0, 11, 15, 1, 14, 6, 12, 1))
    for ext in (F32, ExtField(F4, (2, 1, 1)), ExtField(F16, (8, 1, 1)), q_field):
        if ext.order <= 256:
            elements = list(ext_elements(ext))
        else:
            elements = [tuple(rng.randrange(ext.base.order) for _ in range(ext.d)) for _ in range(4)]
        for u in elements:
            v, power = int.from_bytes(bytes(u), "little"), u
            for i in range(1, ext.d + 1):
                v = ext.frobenius(v)
                power = functools.reduce(ext.mul, [power] * ext.base.order)
                assert tuple(v.to_bytes(ext.d, "little")) == power, (u, i)
            assert power == u  # u^(q^d) = u


def test_ext_inv():
    assert F32.inv(F32.one()) == F32.one()
    for u in ext_elements(F32):
        if u == F32.zero():
            with pytest.raises(ZeroDivisionError):
                F32.inv(u)
        else:
            assert F32.mul(u, F32.inv(u)) == F32.one()


def test_ext_over_f4():
    # F_16 as F_4[t]/(t^2+t+a)
    E = ExtField(F4, (2, 1, 1))
    assert E.order == 16
    t = E.gen()
    assert E.mul(t, t) == E.add(t, E.from_coords([2, 0]))  # t^2 = t + a
    for u in ext_elements(E):
        if u != E.zero():
            assert E.mul(u, E.inv(u)) == E.one()
    # multiplicative order of the full group is 15
    seen = set()
    z = E.from_coords([2, 1])
    cur = E.one()
    for _ in range(15):
        cur = E.mul(cur, z)
        seen.add(cur)
    assert cur == E.one() and len(seen) == 15


def test_absolute_trace_f32():
    assert absolute_trace(F32, F32.one()) == 1  # 5 odd repetitions of 1
    assert absolute_trace(F32, F32.zero()) == 0
    values = [absolute_trace(F32, u) for u in ext_elements(F32)]
    assert values.count(0) == 16 and values.count(1) == 16


def test_absolute_trace_properties():
    rng = random.Random(7)
    E = ExtField(F4, (2, 1, 1))
    for ext in (F32, E):
        for _ in range(60):
            u = tuple(rng.randrange(ext.base.order) for _ in range(ext.d))
            v = tuple(rng.randrange(ext.base.order) for _ in range(ext.d))
            tu, tv = absolute_trace(ext, u), absolute_trace(ext, v)
            # additive, and invariant under Frobenius
            assert absolute_trace(ext, ext.add(u, v)) == tu ^ tv
            assert absolute_trace(ext, ext.mul(u, u)) == tu
        # every element against the sum of its k * d repeated squarings
        for u in ext_elements(ext):
            acc, cur = ext.zero(), u
            for _ in range(ext.base.k * ext.d):
                acc, cur = ext.add(acc, cur), ext.mul(cur, cur)
            assert acc in (ext.zero(), ext.one()), u
            assert absolute_trace(ext, u) == acc[0], u


def test_ext_spec_validation():
    with pytest.raises(ValueError):
        ExtField(F2, (1, 0, 1))  # reducible
    with pytest.raises(ValueError):
        ExtField(F4, (1, 2))  # non-monic


def test_unproven_field_skips_only_rabins_test():
    # (t+1)^2 over F2: ExtField rejects it; the unproven path builds the ring,
    # in which t+1 has no inverse and t (t*t = 1) has one
    with pytest.raises(ValueError, match="irreducible"):
        ExtField(F2, (1, 0, 1))
    ring = ExtField.unproven(F2, (1, 0, 1, 0))
    assert ring.modulus == (1, 0, 1) and ring.d == 2
    assert ring == ExtField.unproven(F2, (1, 0, 1))
    with pytest.raises(ZeroDivisionError):
        ring.inv((1, 1))
    assert ring.inv((0, 1)) == (0, 1)
    with pytest.raises(ValueError, match="monic"):
        ExtField.unproven(F4, (1, 2))


def test_field_hash_and_equality():
    # each hash is fixed when the field is built, with the values it always had
    assert hash(BinaryField(2, 0b111)) == hash(F4) == hash((2, 0b111))
    assert BinaryField(2, 0b111) == F4 != F16
    ext = ExtField(F2, (1, 1, 1))
    same = ExtField.unproven(BinaryField(1, 0b10), (1, 1, 1, 0))
    assert ext == same != ExtField(F2, (1, 1, 0, 0, 1))
    assert hash(ext) == hash(same) == hash((F2, (1, 1, 1)))
    assert len({F4, BinaryField(2, 0b111), ext, same}) == 2


@pytest.mark.parametrize(
    "base, modulus", [(F2, (1, 1, 1)), (F4, (2, 1, 1)), (F2, (1, 0, 0, 1, 1)), (F16, (2, 1))]
)
def test_fold_rows_hold_the_reduced_powers_of_t(base, modulus):
    ext = ExtField(base, modulus)
    rows = ext.fold_rows()
    assert len(rows) == ext.d - 1 and ext.fold_rows() is rows  # built once
    for j, row in enumerate(rows, start=ext.d):
        power = ext.from_poly((0,) * j + (1,))
        assert row == tuple(tuple(base.mul(c, v) for v in range(base.order)) for c in power)
