import random

import pytest

from curvemul.galois import (
    F2,
    F4,
    F16,
    ExtField,
    is_irreducible,
    poly_add,
    poly_eval_ext,
    poly_from_coeffs,
    poly_mul,
)
from curvemul.curve import (
    AffinePlace,
    Curve,
    CurveFunction,
    InfinitePlace,
    PlaceEvaluationError,
    beta_from_ideal,
    branch_series,
    evaluate,
    generates_residue,
    on_curve_check,
    rhs_series,
    series_inv,
    series_mul,
)

# y^2 + y = x^5 over F_16
C16 = Curve(F16, [0, 0, 0, 0, 0, 1], [1], 2)
# y^2 + y = x / (x^3 + x + 1) over F_2 and over F_4
C2 = Curve(F2, [0, 1], [1, 1, 0, 1], 2)
C4 = Curve(F4, [0, 1], [1, 1, 0, 1], 2)


def rational_points(curve):
    """Oracle: brute-force affine rational points."""
    pts = []
    for x in curve.field.elements():
        den = 0
        for i, c in enumerate(reversed(curve.rhs_den)):
            den = curve.field.mul(den, x) ^ c
        if den == 0:
            continue
        num = 0
        for i, c in enumerate(reversed(curve.rhs_num)):
            num = curve.field.mul(num, x) ^ c
        rhs = curve.field.mul(num, curve.field.inv(den))
        for y in curve.field.elements():
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
        for x in curve.field.elements():
            for y in curve.field.elements():
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
            den = poly_eval_ext(res, curve.rhs_den, res.gen())
            if den == res.zero():
                continue
            rhs = res.mul(poly_eval_ext(res, curve.rhs_num, res.gen()), res.inv(den))
            roots = [y for y in res.elements() if res.add(res.mul(y, y), y) == rhs]
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
        for y in res.elements():
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
    one = CurveFunction.constant_one(F2)
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
        evaluate(C16, CurveFunction.constant_one(F16), InfinitePlace(0))


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
    assert CurveFunction.constant_one(F4).is_constant_one()
    assert not CurveFunction(F4, [], [2], [1]).is_constant_one()
    assert CurveFunction(F4, [], [2], [2]).is_constant_one()
