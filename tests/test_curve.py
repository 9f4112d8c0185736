import random
import re

import pytest

import itertools

from curvemul.galois import (
    F2,
    F4,
    F16,
    ExtField,
    Lanes,
    is_irreducible,
    poly_add,
    poly_from_coeffs,
    poly_mul,
)
from curvemul.curve import (
    AffinePlace,
    Curve,
    CurveFunction,
    InfinitePlace,
    PackedFamily,
    PackedPolys,
    PlaceEvaluationError,
    PlaceEvaluator,
    beta_from_ideal,
    branch_series,
    evaluate,
    generates_residue,
    rhs_series,
    series_inv,
    series_mul,
)


def on_curve_check(curve, place):
    return PackedFamily(curve, ()).check(place)[0]


def ext_elements(res):
    """All q^d elements of res, coordinate 0 varying fastest."""
    for coords in itertools.product(range(res.base.order), repeat=res.d):
        yield coords[::-1]


def horner(res, f, z):
    """Reference: f(z) for a base-field polynomial f and z in res."""
    acc = res.zero()
    for c in reversed(f):
        acc = res.mul(acc, z)
        acc = (acc[0] ^ c,) + acc[1:]
    return acc


# y^2 + y = x^5 over F_16
C16 = Curve(F16, [0, 0, 0, 0, 0, 1], [1], 2)
# y^2 + y = x / (x^3 + x + 1) over F_2 and over F_4
C2 = Curve(F2, [0, 1], [1, 1, 0, 1], 2)
C4 = Curve(F4, [0, 1], [1, 1, 0, 1], 2)


def rational_points(curve):
    """Oracle: brute-force affine rational points."""
    pts = []
    for x in range(curve.field.order):
        den = 0
        for i, c in enumerate(reversed(curve.rhs_den)):
            den = curve.field.mul(den, x) ^ c
        if den == 0:
            continue
        num = 0
        for i, c in enumerate(reversed(curve.rhs_num)):
            num = curve.field.mul(num, x) ^ c
        rhs = curve.field.mul(num, curve.field.inv(den))
        for y in range(curve.field.order):
            if curve.field.mul(y, y) ^ y == rhs:
                pts.append((x, y))
    return pts


def place_at(curve, x, y, label=""):
    res = ExtField(curve.field, (x, 1) if x else (0, 1))  # t + x, so t -> x
    return AffinePlace(res, [x], [y], label)


def mul_reps(curve, f, g):
    """Oracle: product of two function representatives via y^2 = y + rhs."""
    fld = curve.field
    aa = poly_mul(fld, f.ay, g.ay)
    cross = poly_add(fld, poly_mul(fld, f.ay, g.b), poly_mul(fld, g.ay, f.b))
    bb = poly_mul(fld, f.b, g.b)
    ay = poly_mul(fld, poly_add(fld, aa, cross), curve.rhs_den)
    b = poly_add(
        fld,
        poly_mul(fld, bb, curve.rhs_den),
        poly_mul(fld, aa, curve.rhs_num),
    )
    den = poly_mul(fld, poly_mul(fld, f.den, g.den), curve.rhs_den)
    return CurveFunction(fld, ay, b, den)


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve(F2, [], [1], 2)
    with pytest.raises(ValueError):
        Curve(F2, [0, 1], [0, 1, 1], 2)  # common factor x... gcd(x, x^2+x) != 1
    with pytest.raises(ValueError):
        Curve(F2, [0, 1], [1, 1, 0, 1], -1)


def test_on_curve_check_rational_points():
    for curve in (C16, C2, C4):
        pts = rational_points(curve)
        for x, y in pts:
            assert on_curve_check(curve, place_at(curve, x, y))
        # and every off-curve pair fails
        bad = 0
        for x in range(curve.field.order):
            for y in range(curve.field.order):
                p = place_at(curve, x, y)
                if (x, y) not in pts:
                    if on_curve_check(curve, p):
                        bad += 1
        assert bad == 0


def test_rational_point_counts():
    # the degree-5 curve over F_16 has 32 affine rational points, the
    # x/(x^3+x+1) curve has 2 over F_2 and 8 over F_4
    assert len(rational_points(C16)) == 32
    assert len(rational_points(C2)) == 2
    assert len(rational_points(C4)) == 8


def test_on_curve_check_infinite():
    assert on_curve_check(C2, InfinitePlace(0))
    assert on_curve_check(C2, InfinitePlace(1))
    # x^5 has a pole at infinity: no split rational places there
    assert not on_curve_check(C16, InfinitePlace(0))


def quadratic_fibres(curve):
    """Oracle: for every irreducible monic quadratic x-modulus, brute-force the
    y-roots of the curve equation in the degree-2 residue field."""
    out = []
    q = curve.field.order
    for m0 in range(q):
        for m1 in range(q):
            if not is_irreducible(curve.field, (m0, m1, 1)):
                continue
            res = ExtField(curve.field, (m0, m1, 1))
            den = horner(res, curve.rhs_den, res.gen())
            if den == res.zero():
                continue
            rhs = res.mul(horner(res, curve.rhs_num, res.gen()), res.inv(den))
            roots = [y for y in ext_elements(res) if res.add(res.mul(y, y), y) == rhs]
            out.append((res, roots))
    return out


def test_on_curve_check_degree2():
    fibres = quadratic_fibres(C4)
    assert len(fibres) == 6  # monic irreducible quadratics over F_4
    split = [(res, roots) for res, roots in fibres if roots]
    for res, roots in fibres:
        assert len(roots) in (0, 2)  # fibres split completely or not at all
        for y in roots:
            p = AffinePlace(res, res.gen(), y)
            assert on_curve_check(C4, p)
        for y in ext_elements(res):
            if y not in roots:
                p = AffinePlace(res, res.gen(), y)
                assert not on_curve_check(C4, p)
    assert len(split) == 2  # four degree-2 places, two per split modulus


def test_generates_residue():
    res = ExtField(F2, (1, 1, 1))
    assert generates_residue(AffinePlace(res, [0, 1], [1, 1]))
    # both images inside the prime field: stuck in a proper subfield
    assert not generates_residue(AffinePlace(res, [1, 0], [1, 0]))
    assert generates_residue(place_at(C2, 0, 0))  # degree 1, trivially
    # an x-image equal to the generator t generates whatever y is, which is
    # why validate does not test Q
    for res in (ExtField(F2, (1, 1, 0, 0, 1)), ExtField(F4, (2, 1, 1))):
        for y in ext_elements(res):
            assert generates_residue(AffinePlace(res, res.gen(), y))


def test_eval_affine_basic():
    # f = ((x^3+x+1) y + x^6+x^4+1) / (x^6+x^5+x^4+x+1) on the F_2 curve,
    # evaluated at the two rational points x=0
    f = CurveFunction(F2, [1, 1, 0, 1], [1, 0, 0, 0, 1, 0, 1], [1, 1, 0, 0, 1, 1, 1])
    p3 = place_at(C2, 0, 0, "P3")
    p4 = place_at(C2, 0, 1, "P4")
    assert evaluate(C2, f, p3) == [1]
    assert evaluate(C2, f, p4) == [0]


def test_eval_affine_pole():
    f = CurveFunction(F2, [], [1], [0, 1])  # 1/x
    with pytest.raises(PlaceEvaluationError, match="support collision"):
        evaluate(C2, f, place_at(C2, 0, 0))
    # 1/x is fine away from x=0
    pts = [p for p in rational_points(C4) if p[0] != 0]
    x, y = pts[0]
    assert evaluate(C4, f, place_at(C4, x, y)) == [F4.inv(x)]


def test_series_helpers():
    # 1/(1+s) = 1+s+s^2+... over F_2
    assert series_inv(F2, [1, 1], 6) == [1, 1, 1, 1, 1, 1]
    assert series_mul(F2, [1, 1], [1, 1, 1, 1, 1, 1], 6) == [1, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        series_inv(F2, [0, 1], 4)


def test_rhs_series_starts_at_valuation_two():
    c = rhs_series(C2, 8)
    # x/(x^3+x+1) = s^2 * 1/(1+s^2+s^3) = s^2 + s^4 + s^5 + s^6 + ...
    assert c == [0, 0, 1, 0, 1, 1, 1, 0]
    with pytest.raises(PlaceEvaluationError):
        rhs_series(C16, 8)


def test_branch_series_residual():
    for curve in (C2, C4):
        prec = 40
        c = rhs_series(curve, prec)
        for y0 in (0, 1):
            y = branch_series(curve, y0, prec)
            assert y[0] == y0
            resid = series_mul(curve.field, y, y, prec)
            for k in range(prec):
                resid[k] ^= y[k] ^ c[k]
            assert resid == [0] * prec
    # the two branches differ exactly by the constant 1
    y0 = branch_series(C2, 0, 20)
    y1 = branch_series(C2, 1, 20)
    assert y1[0] == 1 and y0[1:] == y1[1:]


def test_eval_infinite_constants_and_vanishing():
    one = CurveFunction(F2, [], [1], [1])
    inv_x = CurveFunction(F2, [], [1], [0, 1])
    for y0 in (0, 1):
        p = InfinitePlace(y0)
        assert evaluate(C2, one, p) == [1]
        assert evaluate(C2, inv_x, p) == [0]


def test_eval_infinite_y_branches():
    f_y = CurveFunction(F2, [1], [], [1])
    assert evaluate(C2, f_y, InfinitePlace(0)) == [0]
    assert evaluate(C2, f_y, InfinitePlace(1)) == [1]
    # ((x^3+x+1) y + x^2) / x^3 -> y0 + 0 at infinity
    g = CurveFunction(F2, [1, 1, 0, 1], [0, 0, 1], [0, 0, 0, 1])
    assert evaluate(C2, g, InfinitePlace(0)) == [0]
    assert evaluate(C2, g, InfinitePlace(1)) == [1]


def test_eval_infinite_pole_detection():
    f_x = CurveFunction(F2, [], [0, 1], [1])
    with pytest.raises(PlaceEvaluationError, match="function has a pole"):
        evaluate(C2, f_x, InfinitePlace(0))
    # y has a pole of order 2g+1 at the ramified infinite place of C16
    with pytest.raises(PlaceEvaluationError, match="no split rational places"):
        evaluate(C16, CurveFunction(F16, [], [1], [1]), InfinitePlace(0))


def test_eval_multiplicative_at_places():
    rng = random.Random(2024)
    pts = rational_points(C4)
    places = [InfinitePlace(0), InfinitePlace(1), place_at(C4, *pts[-1])]
    for _ in range(120):
        def rand_fn():
            ay = [rng.randrange(4) for _ in range(rng.randrange(3))]
            b = [rng.randrange(4) for _ in range(rng.randrange(4))]
            den = [rng.randrange(4) for _ in range(rng.randrange(3))] + [1]
            return CurveFunction(F4, ay, b, den)

        f, g = rand_fn(), rand_fn()
        fg = mul_reps(C4, f, g)
        for p in places:
            try:
                vf, vg = evaluate(C4, f, p), evaluate(C4, g, p)
            except PlaceEvaluationError:
                continue
            try:
                vfg = evaluate(C4, fg, p)
            except PlaceEvaluationError:
                continue
            assert vfg == [F4.mul(vf[0], vg[0])]


def test_eval_additive_at_degree2_place():
    rng = random.Random(7)
    res, roots = next(f for f in quadratic_fibres(C4) if f[1])
    p = AffinePlace(res, res.gen(), roots[0])
    for _ in range(60):
        ay1, ay2 = ([rng.randrange(4) for _ in range(3)] for _ in range(2))
        b1, b2 = ([rng.randrange(4) for _ in range(4)] for _ in range(2))
        f = CurveFunction(F4, ay1, b1, [1])
        g = CurveFunction(F4, ay2, b2, [1])
        s = CurveFunction(
            F4, poly_add(F4, f.ay, g.ay), poly_add(F4, f.b, g.b), [1]
        )
        assert evaluate(C4, s, p) == list(
            res.add(evaluate(C4, f, p), evaluate(C4, g, p))
        )


def test_beta_from_ideal():
    res = ExtField(F2, (1, 1, 0, 0, 1))  # F_16 over F_2
    t = res.gen()
    # y presented as (x^2+1)/x: value t^2+1 times inv(t)
    got = beta_from_ideal(res, (1, 0, 1), (0, 1))
    want = res.mul(res.add(res.mul(t, t), res.one()), res.inv(t))
    assert got == want
    with pytest.raises(PlaceEvaluationError):
        beta_from_ideal(res, (1,), (1, 1, 0, 0, 1))  # denominator = modulus -> 0


def test_curve_function_validation():
    with pytest.raises(ValueError):
        CurveFunction(F2, [1], [1], [])
    assert CurveFunction(F4, [], [1], [1]).is_constant_one()
    assert not CurveFunction(F4, [], [2], [1]).is_constant_one()
    assert CurveFunction(F4, [], [2], [2]).is_constant_one()


def _first_irreducible(base, d):
    for low in itertools.product(range(base.order), repeat=d):
        if low[0] and is_irreducible(base, low + (1,)):  # x divides the rest
            return low + (1,)


@pytest.mark.parametrize(
    "base, d",
    [(base, d) for base in (F2, F4, F16) for d in (1, 2, 4)],
    ids=lambda v: f"F{v.order}" if hasattr(v, "order") else f"d{v}",
)
def test_folded_horner_matches_plain_horner(base, d, monkeypatch):
    # polynomials long enough that columns fold into columns that fold again;
    # every x of F_(q^d) up to 16 elements, seeded ones beyond (F16^4 has
    # 65536, more than any packing here has columns, so nothing folds there)
    res = ExtField(base, _first_irreducible(base, d))
    rng = random.Random(res.order)
    length = 2 * res.order + 3 if res.order <= 256 else 40
    polys = [
        poly_from_coeffs(base, [rng.randrange(base.order) for _ in range(length)]),
        poly_from_coeffs(base, [rng.randrange(base.order) for _ in range(length // 2)]),
        poly_from_coeffs(base, [0] * (length - 1) + [1]),  # x^(length - 1)
    ]
    packed = PackedPolys(base, polys)
    if res.order <= 16:
        xs = list(ext_elements(res))
    else:
        xs = [res.zero(), res.one()] + [
            tuple([rng.randrange(base.order) for _ in range(d)]) for _ in range(32)
        ]
    for x in xs:
        want = [horner(res, p, x) for p in polys]
        acc = packed.horner(res, x)
        assert [packed.lane(acc, j) for j in range(len(polys))] == want, x
    # a pass takes one Horner step per folded column but the top one
    steps = []
    real_apply = Lanes.apply
    monkeypatch.setattr(Lanes, "apply", lambda *a: steps.append(1) or real_apply(*a))
    PackedPolys(base, polys).horner(res, xs[-1])
    assert len(steps) == min(length, res.order) - 1


def series_at_infinity(curve, f, place):
    """Reference: f's value at a place over infinity by series division in
    s = 1/x, or None where f has a pole there.  With m = max(deg ay, deg b)
    and pivot = m - deg den, s^m (ay(1/s) y(s) + b(1/s)) / (s^deg den
    den(1/s)) is s^pivot f, so its coefficients below s^pivot must vanish
    and the one at s^pivot is the value."""
    field = curve.field
    m = max(len(f.ay), len(f.b), 1) - 1
    pivot = m - (len(f.den) - 1)
    if pivot < 0:
        return 0
    prec = pivot + 1
    a_shift = [0] * prec
    for i, c in enumerate(f.ay):
        if m - i < prec:
            a_shift[m - i] = c
    num = series_mul(field, a_shift, branch_series(curve, place.branch_y0, prec), prec)
    for i, c in enumerate(f.b):
        if m - i < prec:
            num[m - i] ^= c
    g = series_mul(field, num, series_inv(field, list(reversed(f.den)), prec), prec)
    return None if any(g[:pivot]) else g[pivot]


def random_family_at_infinity(rng, curve):
    """Functions on `curve` whose denominators repeat, mostly non-monic:
    random ones (some with poles over infinity), ones with deg ay > deg den
    made regular on one branch by cancelling b against ay * y there, and a
    pair sharing a denominator of which only one has a pole."""
    field = curve.field
    q = field.order

    def poly(length):
        return [rng.randrange(q) for _ in range(length)]

    dens = [poly(rng.randrange(4)) + [rng.randrange(1, q)] for _ in range(rng.randrange(1, 4))]
    functions = []
    for _ in range(rng.randrange(1, 7)):
        den = rng.choice(dens)
        kind = rng.randrange(3)
        if kind == 0:
            ay, b = poly(rng.randrange(len(den) + 2)), poly(rng.randrange(len(den) + 2))
        else:
            # coefficient of x^e in ay * y + b is b_e + sum_k y_k ay_(e+k)
            top = len(den) + rng.randrange(1, 4)  # deg ay = top - 1 > deg den
            ay = poly(top - 1) + [rng.randrange(1, q)]
            y = branch_series(curve, rng.randrange(2), top)
            b = poly(len(den))
            for e in range(len(den), top):
                c = 0
                for k in range(top - e):
                    c ^= field.mul(y[k], ay[e + k])
                b.append(c)
            if kind == 2:
                b[rng.randrange(len(b))] ^= rng.randrange(q)
        functions.append(CurveFunction(field, ay, b, den))
    den = rng.choice(dens)
    shared = [
        CurveFunction(field, [], [0] * len(den) + [1], den),  # pole of order 1
        CurveFunction(field, [], poly(len(den)), den),
    ]
    at = rng.randrange(len(functions) + 1)
    functions[at:at] = shared if rng.randrange(2) else shared[::-1]
    return functions


def test_values_at_infinity_match_series_division():
    places = (InfinitePlace(0, "P_inf_1"), InfinitePlace(1))
    for field in (F2, F4, F16):
        curve = Curve(field, [0, 1], [1, 1, 0, 1], 2)
        rng = random.Random(field.order)
        poles = 0
        for _ in range(40):
            functions = random_family_at_infinity(rng, curve)
            family = PackedFamily(curve, functions)
            for place in places:
                message = f"function has a pole at {place.label or place!r}"
                want = [series_at_infinity(curve, f, place) for f in functions]
                at = PlaceEvaluator(curve, place, family)
                for j, v in enumerate(want):
                    if v is None:
                        poles += 1
                        with pytest.raises(PlaceEvaluationError) as err:
                            at.value(j)
                        assert str(err.value) == message
                        assert err.value.index == j
                    else:
                        assert at.value(j) == [v], (field, place, j)
                # the one-function case
                if want[0] is None:
                    with pytest.raises(PlaceEvaluationError, match="^" + re.escape(message)):
                        evaluate(curve, functions[0], place)
                else:
                    assert evaluate(curve, functions[0], place) == [want[0]]
                at = PlaceEvaluator(curve, place, family)
                if None in want:
                    with pytest.raises(PlaceEvaluationError) as err:
                        at.rows()
                    assert str(err.value) == message
                    assert err.value.index == want.index(None)
                else:
                    assert at.rows() == [family.lanes.pack(want)]
        assert poles > 100, field
