import itertools
import random

import pytest

from curvemul.galois import (
    F2,
    F4,
    F16,
    BinaryField,
    ExtField,
    ZERO_POLY,
    absolute_trace,
    is_irreducible,
    poly_add,
    poly_degree,
    poly_divmod,
    poly_eval_ext,
    poly_extgcd,
    poly_from_coeffs,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_pow_mod,
)


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
        for a in field.elements():
            for b in field.elements():
                assert field.mul(a, b) == slow_mul(a, b, field.modulus, field.k)


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
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )
            assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
            assert field.add(a, a) == 0
            assert field.mul(a, 1) == a


def test_fe_inv():
    assert F4.inv(2) == 3  # a^-1 = a^2 = a+1
    assert F16.inv(6) == 7  # (a^5)^-1 = a^10
    for field in (F2, F4, F16):
        for a in range(1, field.order):
            assert field.mul(a, field.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F16.inv(0)


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


def test_poly_gcd_and_extgcd():
    # gcd((x+1)^2 * (x^2+x+1), (x+1) * x) = x+1 over F_2
    f = poly_mul(F2, poly_mul(F2, (1, 1), (1, 1)), (1, 1, 1))
    g = poly_mul(F2, (1, 1), (0, 1))
    assert poly_gcd(F2, f, g) == (1, 1)
    d, u, v = poly_extgcd(F2, f, g)
    assert d == (1, 1)
    assert poly_add(F2, poly_mul(F2, u, f), poly_mul(F2, v, g)) == d


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


@pytest.mark.parametrize("field, top", [(F2, 8), (F4, 4), (F16, 2)], ids=["F2", "F4", "F16"])
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


def test_poly_pow_mod():
    m = (1, 0, 0, 1, 0, 1)  # x^5+x^3+1
    # x^32 mod m must equal x (Frobenius fixes nothing below full degree... x^(2^5)=x)
    assert poly_pow_mod(F2, (0, 1), 32, m) == (0, 1)
    assert poly_pow_mod(F2, (0, 1), 2, m) == (0, 0, 1)


F32 = ExtField(F2, (1, 0, 0, 1, 0, 1))  # F_2[t]/(t^5+t^3+1)


def test_ext_coords_roundtrip():
    b = F32.gen()
    assert F32.from_coords([0, 1, 0, 0, 0]) == b
    assert F32.from_coords(list(b)) == b
    with pytest.raises(ValueError):
        F32.from_coords([0, 1])
    with pytest.raises(ValueError):
        F32.from_coords([0, 1, 0, 0, 2])


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


def test_ext_pow_ladder_matches_repeated_mul():
    acc = F32.one()
    for i in range(40):
        assert F32.pow(F32.gen(), i) == acc
        acc = F32.mul(acc, F32.gen())


def test_ext_inv():
    assert F32.inv(F32.one()) == F32.one()
    for u in F32.elements():
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
    for u in E.elements():
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


def test_poly_eval_ext():
    # x^5 + x^3 + 1 vanishes at b by construction
    assert poly_eval_ext(F32, (1, 0, 0, 1, 0, 1), F32.gen()) == F32.zero()
    # constant polynomial
    assert poly_eval_ext(F32, (1,), F32.gen()) == F32.one()
    assert poly_eval_ext(F32, ZERO_POLY, F32.gen()) == F32.zero()


def test_absolute_trace_f32():
    assert absolute_trace(F32, F32.one()) == 1  # 5 odd repetitions of 1
    assert absolute_trace(F32, F32.zero()) == 0
    values = [absolute_trace(F32, u) for u in F32.elements()]
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


def test_ext_spec_validation():
    with pytest.raises(ValueError):
        ExtField(F2, (1, 0, 1))  # reducible
    with pytest.raises(ValueError):
        ExtField(F4, (1, 2))  # non-monic
