import hashlib
import random
from fractions import Fraction

import pytest

from curvemul import engine, tools
from curvemul.curve import (
    AffinePlace,
    PlaceEvaluator,
    branch_series,
    series_inv,
    series_mul,
)
from curvemul.engine import (
    InstanceError,
    InstanceSpec,
    OpReport,
    aggregate_bound,
    compile_instance,
    reference_mul,
    verify_good_basis,
)
from curvemul.galois import F2, F4, F16, ExtField, poly_eval_ext
from curvemul.linalg import rank

NAMES = ("f16_13", "f4_5", "f2_5")
SPECS = {name: tools.load_bundled(name) for name in NAMES}
COMPILED = {name: compile_instance(spec) for name, spec in SPECS.items()}

# exact per-multiplication scalar/bilinear counts for the three instances
EXPECTED_COUNTS = {
    "f16_13": (702, 27, 675),
    "f4_5": (110, 12, 99),
    "f2_5": (110, 18, 99),
}


def random_operand(rng, spec):
    return [rng.randrange(spec.field.order) for _ in range(spec.n)]


def test_reference_mul_basics():
    q = (1, 0, 0, 1, 0, 1)  # x^5 + x^3 + 1
    x = (1, 0, 1, 1, 0)
    assert reference_mul(F2, q, x, (1, 0, 0, 0, 0)) == x
    assert reference_mul(F2, q, x, (0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0)
    # b^4 * (b^2 + b^3) = b^6 + b^7, reduced with b^5 = b^3 + 1
    assert reference_mul(F2, q, (0, 0, 0, 0, 1), (0, 0, 1, 1, 0)) == (1, 1, 1, 1, 1)


def test_published_first_examples():
    got, _ = COMPILED["f16_13"].multiply(
        [2, 1] + [0] * 11, [1, 2, 2] + [0] * 10
    )
    assert list(got) == [2, 5, 6, 2] + [0] * 9
    got, _ = COMPILED["f4_5"].multiply([2, 1, 0, 0, 0], [1, 2, 2, 0, 0])
    assert list(got) == [2, 2, 1, 2, 0]
    got, _ = COMPILED["f2_5"].multiply([1, 1, 0, 0, 0], [1, 1, 1, 0, 0])
    assert list(got) == [1, 0, 0, 1, 0]


def test_oracle_equivalence_random():
    for name in NAMES:
        spec, compiled = SPECS[name], COMPILED[name]
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(200):
            x = random_operand(rng, spec)
            y = random_operand(rng, spec)
            want = reference_mul(spec.field, spec.q_modulus, x, y)
            got, _ = compiled.multiply(x, y)
            assert got == want


def test_bilinear_certificate():
    # multiply and reference_mul are both F_q-bilinear, so agreeing on the n^2
    # basis pairs (169/25/25) makes them agree on all q^(2n) pairs, given the
    # base-field table that test_fe_mul_against_oracle_exhaustive checks in full
    for name, field in (("f16_13", F16), ("f4_5", F4), ("f2_5", F2)):
        spec, compiled = SPECS[name], COMPILED[name]
        assert spec.field == field
        units = [[int(i == j) for j in range(spec.n)] for i in range(spec.n)]
        for x in units:
            for y in units:
                want = reference_mul(field, spec.q_modulus, x, y)
                assert compiled.multiply(x, y)[0] == want


def test_commutativity():
    for name in NAMES:
        spec, compiled = SPECS[name], COMPILED[name]
        rng = random.Random(91)
        for _ in range(50):
            x = random_operand(rng, spec)
            y = random_operand(rng, spec)
            assert compiled.multiply(x, y)[0] == compiled.multiply(y, x)[0]


def test_identity_and_absorbing():
    for name in NAMES:
        spec, compiled = SPECS[name], COMPILED[name]
        one = [1] + [0] * (spec.n - 1)
        zero = [0] * spec.n
        rng = random.Random(17)
        for _ in range(20):
            x = random_operand(rng, spec)
            assert list(compiled.multiply(x, one)[0]) == x
            assert compiled.multiply(x, zero)[0] == tuple(zero)


def test_bilinearity_in_first_argument():
    spec, compiled = SPECS["f4_5"], COMPILED["f4_5"]
    rng = random.Random(5)
    for _ in range(25):
        x1 = random_operand(rng, spec)
        x2 = random_operand(rng, spec)
        y = random_operand(rng, spec)
        xs = [a ^ b for a, b in zip(x1, x2)]
        z1 = compiled.multiply(x1, y)[0]
        z2 = compiled.multiply(x2, y)[0]
        zs = compiled.multiply(xs, y)[0]
        assert zs == tuple(a ^ b for a, b in zip(z1, z2))


def test_op_report_exact():
    for name in NAMES:
        spec, compiled = SPECS[name], COMPILED[name]
        n, g = spec.n, spec.g
        rng = random.Random(3)
        x = random_operand(rng, spec)
        y = random_operand(rng, spec)
        _, report = compiled.multiply(x, y)
        want = EXPECTED_COUNTS[name]
        assert (report.step1_scalar, report.step2_bilinear, report.step3_scalar) == want
        assert report.step1_scalar == 2 * n * (2 * n + g - 1)
        assert report.step3_scalar == (2 * n - 1) * (2 * n + g - 1)
        assert report.total == sum(want)
        assert compiled.expected_report == report
        assert report is compiled.report  # fixed at compile time
        assert OpReport.expected(n, g, compiled.place_degrees) == report


def test_op_report_constant_across_inputs():
    compiled = COMPILED["f2_5"]
    _, r1 = compiled.multiply([1, 0, 1, 1, 0], [0, 1, 1, 0, 1])
    _, r2 = compiled.multiply([0, 0, 0, 0, 0], [1, 1, 1, 1, 1])
    assert r1 == r2


def test_aggregate_bound_values():
    assert aggregate_bound(13, 2, 1) == 1420
    assert aggregate_bound(5, 2, 2) == 236
    assert aggregate_bound(5, 2, 4) == 251
    assert aggregate_bound(5, 2, 2) == Fraction(236, 1)
    for name in NAMES:
        spec, compiled = SPECS[name], COMPILED[name]
        bound = aggregate_bound(spec.n, spec.g, max(compiled.place_degrees))
        assert compiled.expected_report.total <= bound


def test_selected_places_are_deterministic():
    # frozen selections; f4_5 and f2_5 both exercise the same-degree fallback
    assert [p.label for p in COMPILED["f16_13"].places] == [
        f"P_{i}" for i in range(2, 29)
    ]
    assert [p.label for p in COMPILED["f4_5"].places] == [
        "P_inf_1", "P_inf_2", "P_3", "P_4", "P_5", "P_6", "P_7", "P_8", "P_9", "Q_2",
    ]
    assert [p.label for p in COMPILED["f2_5"].places] == [
        "P_inf_1", "P_inf_2", "P_3", "Q_1", "Q_2", "R_2",
    ]


# sha256 prefixes of bytes(T.entries), bytes(T_inv_top.entries) and the
# comma-joined selected labels, as compiled before set-up became one pass
SETUP_DIGESTS = {
    "f16_13": (
        "df67a324c0482afaed81018a43d58d64",
        "f7ace838d8a9a5b13b343548e17adf98",
        "464237850ca709014b02c6df90751e0c",
    ),
    "f4_5": (
        "5538273580e4cd27c57d540077cd8093",
        "219ada4d5b557f6d7dd2aaf242561144",
        "e3c560d23dce0666a487a354ae88be96",
    ),
    "f2_5": (
        "14923575cc2166d66c23a25715f5ef9f",
        "23dda9b35e2043b27c81dfdee3cc5c39",
        "7a82e8dfcbb9ff3a2f4a6d7c6815ce68",
    ),
}


def test_setup_is_bit_identical():
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:32]

    for name in NAMES:
        compiled = COMPILED[name]
        got = (
            digest(bytes(compiled.T.entries)),
            digest(bytes(compiled.T_inv_top.entries)),
            digest(",".join(p.label for p in compiled.places).encode()),
        )
        assert got == SETUP_DIGESTS[name], name


def horner_value(curve, f, place):
    """Reference: f's value at a place, one polynomial at a time.

    Affine places use Horner's rule in the residue field; places over
    infinity expand f in s = 1/x at a generous fixed precision.
    """
    if isinstance(place, AffinePlace):
        res, alpha = place.residue, place.x_img
        num = res.add(
            res.mul(poly_eval_ext(res, f.ay, alpha), place.y_img),
            poly_eval_ext(res, f.b, alpha),
        )
        return list(res.mul(num, res.inv(poly_eval_ext(res, f.den, alpha))))
    field = curve.field
    m = max(len(f.ay), len(f.b), 1) - 1
    prec = m + len(f.den) + 16
    a_shift, b_shift = [0] * prec, [0] * prec
    for i, c in enumerate(f.ay):
        a_shift[m - i] = c
    for i, c in enumerate(f.b):
        b_shift[m - i] = c
    num = series_mul(field, a_shift, branch_series(curve, place.branch_y0, prec), prec)
    num = [u ^ v for u, v in zip(num, b_shift)]
    g = series_mul(field, num, series_inv(field, list(reversed(f.den)), prec), prec)
    pivot = m - (len(f.den) - 1)
    if pivot < 0:
        return [0]
    assert not any(g[:pivot]), "no basis function has a pole at a candidate"
    return [g[pivot]]


def test_evaluator_matches_horner_reference():
    for name in NAMES:
        spec = SPECS[name]
        for place in (spec.q_place,) + spec.candidate_places:
            at_place = PlaceEvaluator(spec.curve, place, spec.basis)
            for idx, f in enumerate(spec.basis):
                want = horner_value(spec.curve, f, place)
                assert at_place.value(idx) == want, (name, place.label, idx)


def test_each_candidate_evaluated_at_most_once(monkeypatch):
    # f4_5 and f2_5 both swap their last place once during compile
    built = []

    class Counting(PlaceEvaluator):
        __slots__ = ()

        def __init__(self, curve, place, functions):
            built.append(place.label)
            super().__init__(curve, place, functions)

    monkeypatch.setattr(engine, "PlaceEvaluator", Counting)
    for name, swapped in (("f4_5", "Q_1"), ("f2_5", "R_1")):
        built.clear()
        compiled = compile_instance(SPECS[name])
        assert sorted(built) == sorted(
            ["Q", swapped] + [p.label for p in compiled.places]
        ), name


def test_den_vanishing_candidate_named():
    spec = SPECS["f2_5"]
    res = ExtField(spec.field, spec.d1_den)
    bad = AffinePlace(res, res.gen(), res.zero(), "BAD")
    tampered = InstanceSpec(
        "tampered", spec.field, spec.curve, spec.n, spec.q_place,
        spec.d1_den, spec.d2_den, spec.basis, spec.candidate_places,
    )
    # validation rejects such a candidate, so put it in after the fact
    tampered.candidate_places = (bad,) + spec.candidate_places
    with pytest.raises(InstanceError, match=r"f_\d+ has a pole at place BAD: .*collision"):
        compile_instance(tampered)


def test_rank_certificate():
    for name, want in (("f16_13", 27), ("f4_5", 11), ("f2_5", 11)):
        compiled = COMPILED[name]
        assert rank(compiled.T) == want
        assert sum(compiled.place_degrees) == want


def test_injectivity_flag_is_advisory_only():
    # none of the bundled instances satisfy the sufficient degree-sum
    # condition; correctness rests on the rank certificate instead
    for name in NAMES:
        assert not COMPILED[name].meets_injectivity_bound


def test_good_basis_report_all_ok():
    for name in NAMES:
        checks = verify_good_basis(SPECS[name])
        assert len(checks) == SPECS[name].size
        assert all(c.ok for c in checks)


def test_tampered_basis_rejected():
    spec = SPECS["f2_5"]
    tampered = list(spec.basis)
    tampered[1], tampered[2] = tampered[2], tampered[1]
    bad = InstanceSpec(
        "tampered", spec.field, spec.curve, spec.n, spec.q_place,
        spec.d1_den, spec.d2_den, tampered, spec.candidate_places,
    )
    with pytest.raises(InstanceError, match="good-basis"):
        compile_instance(bad)


def test_duplicate_candidate_rejected():
    spec = SPECS["f2_5"]
    with pytest.raises(InstanceError, match="duplicates"):
        InstanceSpec(
            "dup", spec.field, spec.curve, spec.n, spec.q_place,
            spec.d1_den, spec.d2_den, spec.basis,
            list(spec.candidate_places) + [spec.candidate_places[0]],
        )


def test_equal_denominators_rejected():
    spec = SPECS["f2_5"]
    with pytest.raises(InstanceError, match="distinct"):
        InstanceSpec(
            "same-d", spec.field, spec.curve, spec.n, spec.q_place,
            spec.d1_den, spec.d1_den, spec.basis, spec.candidate_places,
        )


def test_q_presentation_must_use_residue_generator():
    spec = SPECS["f2_5"]
    res = spec.q_place.residue
    shifted = AffinePlace(
        res, res.add(res.gen(), res.one()), spec.q_place.y_img, "Q'"
    )
    with pytest.raises(InstanceError, match="residue generator"):
        InstanceSpec(
            "bad-q", spec.field, spec.curve, spec.n, shifted,
            spec.d1_den, spec.d2_den, spec.basis, spec.candidate_places,
        )


def test_too_few_candidates_fail_at_compile():
    spec = SPECS["f2_5"]
    starved = InstanceSpec(
        "starved", spec.field, spec.curve, spec.n, spec.q_place,
        spec.d1_den, spec.d2_den, spec.basis, spec.candidate_places[:3],
    )
    with pytest.raises(InstanceError, match="reach only"):
        compile_instance(starved)


def test_multiply_rejects_bad_operands():
    spec, compiled = SPECS["f4_5"], COMPILED["f4_5"]
    with pytest.raises(ValueError):
        compiled.multiply([1, 2], [0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        compiled.multiply([0, 0, 0, 0, 0], [0, 0, 0, 0, 4])
