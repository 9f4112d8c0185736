import argparse
import copy
import json
import random
import re

import pytest

from curvemul import cli, engine, galois, tools
from curvemul.curve import PlaceEvaluationError
from curvemul.engine import InstanceError, InstanceSpec, compile_instance
from curvemul.galois import F2, F4, is_irreducible

F2_5_PATH = tools.bundled_instance_path("f2_5")
F4_5_PATH = tools.bundled_instance_path("f4_5")
F16_13_PATH = tools.bundled_instance_path("f16_13")
BASE_DOC = json.loads(F2_5_PATH.read_text(encoding="utf-8"))


def doc_copy():
    return copy.deepcopy(BASE_DOC)


# ---------------------------------------------------------------------------
# loading


def test_bundled_names():
    assert tools.bundled_instance_names() == ["f16_13", "f2_5", "f4_5"]
    with pytest.raises(tools.InstanceFileError, match="available"):
        tools.bundled_instance_path("f3_7")


def test_load_bundled_shapes():
    for name, order, n in (("f16_13", 16, 13), ("f4_5", 4, 5), ("f2_5", 2, 5)):
        spec = tools.load_bundled(name)
        assert isinstance(spec, InstanceSpec)
        assert spec.name == name
        assert spec.field.order == order
        assert spec.n == n
        assert spec.g == 2
        assert len(spec.basis) == 2 * n + 1


def test_load_missing_file(tmp_path):
    with pytest.raises(tools.InstanceFileError, match="cannot read"):
        tools.load_instance(tmp_path / "nope.json")


def test_load_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(tools.InstanceFileError, match="not valid JSON"):
        tools.load_instance(p)
    p.write_bytes(b"\xff{}")  # not UTF-8
    with pytest.raises(tools.InstanceFileError, match="cannot read"):
        tools.load_instance(p)


def test_deeply_nested_json_is_a_file_error(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    with pytest.raises(tools.InstanceFileError, match="not valid JSON"):
        tools.load_instance(p)
    assert cli.main(["verify", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_overlong_integer_literal_is_a_file_error(tmp_path):
    # past the int/str conversion limit (4300 digits by default)
    text = F2_5_PATH.read_text(encoding="utf-8")
    text = re.sub(r'"genus": \d+', '"genus": ' + "1" * 5000, text, count=1)
    assert "1" * 5000 in text
    p = tmp_path / "long.json"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(tools.InstanceFileError, match="not valid JSON"):
        tools.load_instance(p)


def test_missing_key_named():
    doc = doc_copy()
    del doc["n"]
    with pytest.raises(tools.InstanceFileError, match="missing key 'n'"):
        tools.instance_from_document(doc)


def test_negative_coefficient_rejected():
    doc = doc_copy()
    doc["Q"]["modulus"][0] = -1
    with pytest.raises(tools.InstanceFileError, match="non-negative"):
        tools.instance_from_document(doc)


def test_basis_length_invariant_named():
    doc = doc_copy()
    doc["basis"] = doc["basis"][:-1]
    with pytest.raises(InstanceError, match=r"2n\+g-1 = 11.*got 10"):
        tools.instance_from_document(doc)


def test_reducible_q_modulus_rejected():
    doc = doc_copy()
    doc["Q"]["modulus"] = [0, 0, 0, 0, 0, 1]  # x^5
    with pytest.raises(InstanceError, match="Q.modulus"):
        tools.instance_from_document(doc)


def test_declared_degree_must_match_residue():
    doc = doc_copy()
    for pdoc in doc["places"]:
        if pdoc["kind"] == "affine":
            pdoc["degree"] += 1
            break
    with pytest.raises(tools.InstanceFileError, match="disagrees"):
        tools.instance_from_document(doc)


def test_modulus_degrees_checked_before_rabin(monkeypatch):
    # Rabin's test on a degree-2039 modulus (an 8 KB document) can take most
    # of a second; its degree alone rejects it, with validate's messages
    tested = []
    real = galois.is_irreducible

    def counting(field, p):
        tested.append(len(p) - 1)
        return real(field, p)

    monkeypatch.setattr(galois, "is_irreducible", counting)
    monkeypatch.setattr(engine, "is_irreducible", counting)
    big = [1, 1] + [0] * 2037 + [1]
    base = json.loads(F4_5_PATH.read_text(encoding="utf-8"))
    i = next(i for i, p in enumerate(base["places"]) if p["kind"] == "affine")
    label = base["places"][i]["label"]
    cases = [
        ({("places", i, "residue_modulus"): big}, tools.InstanceFileError,
         f"{label}: declared degree {base['places'][i]['degree']} disagrees "
         "with the residue modulus of degree 2039"),
        ({("places", i, "residue_modulus"): big, ("places", i, "degree"): 2039},
         InstanceError, f"candidate {label} has degree 2039, no kernel available"),
        ({("Q", "modulus"): big}, InstanceError,
         "place Q must have residue degree n over the base field"),
        # a constant modulus is still reported as such
        ({("places", i, "residue_modulus"): [1]}, InstanceError,
         f"{label}: extension modulus must be monic of degree >= 1"),
    ]
    for changes, error, message in cases:
        doc = copy.deepcopy(base)
        for path, value in changes.items():
            _set(doc, path, value)
        tested.clear()
        with pytest.raises(error) as exc:
            tools.instance_from_document(doc)
        assert str(exc.value) == message
        assert max(tested, default=0) < 2039


def test_unknown_place_kind_rejected():
    doc = doc_copy()
    doc["places"][0]["kind"] = "ramified"
    with pytest.raises(tools.InstanceFileError, match="'affine' or 'infinite'"):
        tools.instance_from_document(doc)


def test_field_element_out_of_range():
    doc = doc_copy()
    doc["basis"][1]["ay"][0] = 2  # not a GF(2) value
    with pytest.raises(InstanceError, match="basis\\[1\\]"):
        tools.instance_from_document(doc)


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "path, value, match",
    [
        (("places", 3, "x_img", 0), 5, r"places\[3\]\.x_img: 5 is not an element"),
        (("places", 3, "y_img", 0), 5, r"places\[3\]\.y_img: 5 is not an element"),
        (("d1_modulus", 0), 5, "d1_modulus: 5 is not an element"),
        (("d2_modulus", 0), 5, "d2_modulus: 5 is not an element"),
        (("Q", "y_num", 0), 5, r"Q\.y_num: 5 is not an element"),
        (("field",), {"k": 9, "modulus_bits": 0b1000010001}, "field: .*between 1 and 8"),
    ],
    ids=["x_img", "y_img", "d1_modulus", "d2_modulus", "Q.y_num", "field-degree-cap"],
)
def test_out_of_range_value_named(path, value, match):
    doc = doc_copy()
    _set(doc, path, value)
    with pytest.raises(InstanceError, match=match):
        tools.instance_from_document(doc)


@pytest.mark.parametrize(
    "path, where",
    [
        (("field", "k"), "field.k"),
        (("n",), "n"),
        (("curve", "genus"), "curve.genus"),
        (("places", 2, "degree"), r"places\[2\]\.degree"),
    ],
    ids=["field.k", "n", "curve.genus", "places[2].degree"],
)
def test_boolean_for_integer_key_rejected(path, where):
    doc = doc_copy()
    _set(doc, path, True)
    with pytest.raises(tools.InstanceFileError, match=f"key '{where}' has the wrong type"):
        tools.instance_from_document(doc)


def _int_leaves(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _int_leaves(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _int_leaves(child, path + (i,))
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path


def test_mutated_documents_raise_only_loader_errors():
    # seeded and bounded: 400 copies of f2_5.json, one integer leaf changed in each
    leaves = list(_int_leaves(BASE_DOC))
    rng = random.Random(2024)
    for _ in range(400):
        doc = doc_copy()
        path = rng.choice(leaves)
        value = rng.choice([-1, 0, 1, 2, 3, 5, 16, 255, 2**16])
        _set(doc, path, value)
        try:
            tools.instance_from_document(doc)
        except (tools.InstanceFileError, InstanceError):
            pass
        except Exception as e:
            pytest.fail(f"{path} = {value}: {e!r}")


def test_each_modulus_tested_once_per_load(monkeypatch):
    # f4_5 has 12 affine places over 6 distinct residue moduli, f2_5 7 over 3
    tested = []
    real = galois.is_irreducible

    def counting(field, p):
        tested.append((field, tuple(p)))
        return real(field, p)

    monkeypatch.setattr(galois, "is_irreducible", counting)
    monkeypatch.setattr(engine, "is_irreducible", counting)
    for name, distinct in (("f16_13", 16), ("f4_5", 6), ("f2_5", 3)):
        tested.clear()
        spec = tools.load_bundled(name)
        moduli = {p.residue.modulus for p in spec.candidate_places if hasattr(p, "residue")}
        assert len(moduli) == distinct
        assert len(tested) == len(set(tested)), name
        # Q, D1, D2 and each candidate modulus; the base field's own modulus
        # is tested over F2 when k > 1
        want = {spec.q_modulus, spec.d1_den, spec.d2_den} | moduli
        assert {p for field, p in tested if field == spec.field} == want, name


def test_round_trip_document_equals_file():
    spec = tools.instance_from_document(doc_copy(), name="f2_5")
    other = tools.load_instance(F2_5_PATH)
    assert spec.q_modulus == other.q_modulus
    assert spec.basis == other.basis
    assert [p.label for p in spec.candidate_places] == [
        p.label for p in other.candidate_places
    ]


# ---------------------------------------------------------------------------
# splitting test and search


def test_check_total_split_known_values():
    curve = tools.load_bundled("f2_5").curve
    assert tools.check_total_split(curve, (1, 0, 0, 1, 0, 1))  # x^5+x^3+1
    assert not tools.check_total_split(curve, (1, 0, 1, 0, 0, 1))  # x^5+x^2+1
    # the rhs denominator itself: fibre is not split, signalled as an error
    with pytest.raises(PlaceEvaluationError):
        tools.check_total_split(curve, (1, 1, 0, 1))
    # reducible input is a usage error
    with pytest.raises(ValueError):
        tools.check_total_split(curve, (0, 0, 1))


def _horner(res, f, z):
    acc = res.zero()
    for c in reversed(f):
        acc = res.mul(acc, z)
        acc = (acc[0] ^ c,) + acc[1:]
    return acc


def _split_reference(curve, qpoly):
    """check_total_split by Horner evaluation at the generator b and the
    trace as a sum of the squares b^(2^i)."""
    res = galois.ExtField(curve.field, galois.poly_from_coeffs(curve.field, qpoly))
    b = res.gen()
    den = _horner(res, curve.rhs_den, b)
    if den == res.zero():
        raise PlaceEvaluationError(
            "curve denominator vanishes at a root of the candidate polynomial"
        )
    val = res.mul(_horner(res, curve.rhs_num, b), res.inv(den))
    trace = res.zero()
    for _ in range(curve.field.k * res.d):
        trace = res.add(trace, val)
        val = res.mul(val, val)
    return trace == res.zero()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def test_check_total_split_matches_reference_on_every_small_polynomial():
    # every monic polynomial of degree 1 .. top over each bundled curve's field
    cases, kinds = 0, set()
    for name, top in (("f2_5", 8), ("f4_5", 4), ("f16_13", 2)):
        curve = tools.load_bundled(name).curve
        for degree in range(1, top + 1):
            for p in tools._all_monic(curve.field, degree):
                got = _outcome(tools.check_total_split, curve, p)
                assert got == _outcome(_split_reference, curve, p), (name, p)
                cases += 1
                kinds.add(got if isinstance(got, bool) else got[0])
    assert cases == 510 + 340 + 272
    assert kinds == {True, False, ValueError, PlaceEvaluationError}


def test_split_search_exhaustive_degree_5():
    curve = tools.load_bundled("f2_5").curve
    found = tools.split_search(curve, 5, trials=0)
    assert (1, 0, 0, 1, 0, 1) in found
    assert found == [(1, 0, 0, 1, 0, 1), (1, 1, 1, 1, 0, 1)]
    for p in found:
        assert is_irreducible(F2, p)
        assert tools.check_total_split(curve, p)


def test_split_search_sampling_is_seeded():
    curve = tools.load_bundled("f4_5").curve
    a = tools.split_search(curve, 3, trials=200, seed=11)
    b = tools.split_search(curve, 3, trials=200, seed=11)
    assert a == b
    assert a, "expected at least one degree-3 splitting polynomial"
    for p in a:
        assert len(p) == 4 and p[-1] == 1
        assert is_irreducible(F4, p)
        assert tools.check_total_split(curve, p)


def test_split_search_tests_each_candidate_once(monkeypatch):
    # Rabin's test runs once per distinct candidate, where check_total_split
    # builds the residue field; the found list is what testing
    # irreducibility first and the split second gives
    real = galois.is_irreducible
    for name, degree, trials in (("f4_5", 5, 300), ("f2_5", 8, 0)):
        curve = tools.load_bundled(name).curve
        tested = []

        def counting(field, p):
            tested.append(p)
            return real(field, p)

        monkeypatch.setattr(galois, "is_irreducible", counting)
        monkeypatch.setattr(tools, "is_irreducible", counting)
        found = tools.split_search(curve, degree, trials)
        monkeypatch.undo()
        assert len(tested) == len(set(tested)), name
        if curve.field.order == 2:
            assert len(tested) == 2**degree  # every monic polynomial, once

        def splits(p):
            try:
                return tools.check_total_split(curve, p)
            except PlaceEvaluationError:
                return False

        assert found == [p for p in tested if real(curve.field, p) and splits(p)], name


def test_split_search_rejects_bad_degree():
    curve = tools.load_bundled("f2_5").curve
    with pytest.raises(ValueError):
        tools.split_search(curve, 0, trials=10)


# ---------------------------------------------------------------------------
# verification, selftest, bench


def test_verify_instance_passes_for_bundled():
    for name in tools.bundled_instance_names():
        report = tools.verify_instance(tools.load_bundled(name))
        assert report.ok
        lines = report.lines()
        assert lines[-1].startswith(f"PASS {name}")
        assert any("evaluation-rank" in l for l in lines)
        assert any("[note] degree-sum-injectivity" in l for l in lines)


def test_verify_instance_reports_compile_failure():
    spec = tools.load_bundled("f2_5")
    tampered = list(spec.basis)
    tampered[1], tampered[2] = tampered[2], tampered[1]
    bad = InstanceSpec(
        "swapped", spec.field, spec.curve, spec.n, spec.q_place,
        spec.d1_den, spec.d2_den, tampered, spec.candidate_places,
    )
    report = tools.verify_instance(bad)
    assert not report.ok
    lines = report.lines()
    assert any(l.startswith("[FAIL] good-basis-ladder") for l in lines)
    assert lines[-1].startswith("FAIL swapped")


def test_selftest_passes():
    compiled = compile_instance(tools.load_bundled("f2_5"))
    result = tools.selftest(compiled, trials=50, seed=1)
    assert result.ok
    assert result.trials == 50
    assert result.failures == 0
    assert result.first_failure is None
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            tools.selftest(compiled, trials=trials)


def test_bench_reports_constant_counts():
    compiled = compile_instance(tools.load_bundled("f4_5"))
    result = tools.bench(compiled, reps=5, seed=3)
    assert result.reps == 5
    assert result.median_seconds > 0
    assert result.report == compiled.expected_report
    with pytest.raises(ValueError):
        tools.bench(compiled, reps=0)


# ---------------------------------------------------------------------------
# text formats


def test_parse_vector():
    assert tools.parse_vector(F4, "2,1,0,0,0", 5) == [2, 1, 0, 0, 0]
    assert tools.parse_vector(F4, " 2 , 1 ,0,0, 0", 5) == [2, 1, 0, 0, 0]
    with pytest.raises(ValueError, match="expected 5"):
        tools.parse_vector(F4, "2,1,0", 5)
    with pytest.raises(ValueError, match="outside GF\\(4\\)"):
        tools.parse_vector(F4, "2,1,0,0,4", 5)
    # past int()'s 4300-digit limit: the count, not the digits
    with pytest.raises(ValueError, match="^value of 5000 digits is outside GF\\(4\\)$"):
        tools.parse_vector(F4, "2,1,0,0," + "9" * 5000, 5)
    assert tools.parse_vector(F4, "2,1,0,0," + "0" * 5000 + "3", 5) == [2, 1, 0, 0, 3]
    # the count is of the digits past the leading zeros, which the check reads
    with pytest.raises(ValueError, match="^value of 3 digits is outside GF\\(16\\)$"):
        tools.parse_vector(galois.F16, "0000123", 1)
    # int() would take each of these: a sign, a digit separator, a
    # non-ASCII digit
    for bad in ("t", "+3", "-1", "1_0", "\u0661", ""):
        with pytest.raises(ValueError, match="not a decimal integer"):
            tools.parse_vector(F4, f"2,1,0,0,{bad}", 5)


def test_format_vector_round_trip():
    v = [2, 2, 1, 2, 0]
    assert tools.format_vector(v) == "2,2,1,2,0"
    assert tools.parse_vector(F4, tools.format_vector(v), 5) == v


def test_poly_text():
    assert tools.poly_text(F2, (1, 0, 0, 1, 0, 1)) == "x^5 + x^3 + 1"
    assert tools.poly_text(F4, (2, 1)) == "x + 2"
    assert tools.poly_text(F4, (0, 3)) == "3*x"
    assert tools.poly_text(F2, ()) == "0"
    assert tools.poly_text(F2, (1,)) == "1"


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_ok(capsys):
    assert cli.main(["verify", str(F2_5_PATH)]) == 0
    out = capsys.readouterr().out
    assert "PASS f2_5" in out
    assert "[ ok ] evaluation-rank" in out


def test_cli_verify_failure_exit_code(tmp_path, capsys):
    doc = doc_copy()
    doc["basis"][1], doc["basis"][2] = doc["basis"][2], doc["basis"][1]
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] good-basis-ladder" in out
    assert "FAIL swapped" in out


def test_cli_mul_published_example(capsys):
    code = cli.main(["mul", str(F4_5_PATH), "--x", "2,1,0,0,0", "--y", "1,2,2,0,0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2,2,1,2,0"


def test_cli_mul_identity(capsys):
    x = "3,0,7,1,0,0,0,0,0,0,0,0,9"
    code = cli.main(["mul", str(F16_13_PATH), "--x", x, "--y", "1,0,0,0,0,0,0,0,0,0,0,0,0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == x


def test_cli_selftest(capsys):
    code = cli.main(["selftest", str(F2_5_PATH), "--trials", "25", "--seed", "9"])
    assert code == 0
    assert "25/25 products match the oracle" in capsys.readouterr().out


def test_cli_counts(capsys):
    assert cli.main(["counts", str(F2_5_PATH)]) == 0
    out = capsys.readouterr().out
    assert "step1_scalar   = 110" in out
    assert "step2_bilinear = 18" in out
    assert "step3_scalar   = 99" in out
    assert "bound 251" in out


def test_cli_bench(capsys):
    assert cli.main(["bench", str(F4_5_PATH), "--reps", "3"]) == 0
    out = capsys.readouterr().out
    assert "110 + 12 + 99 = 221" in out
    assert re.search(r"^setup: load \d+\.\d ms, compile \d+\.\d ms$", out, re.M)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_selftest_rejects_nonpositive_trials(trials, capsys):
    assert cli.main(["selftest", str(F2_5_PATH), "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "error: trials must be >= 1" in captured.err
    assert "match the oracle" not in captured.out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_split_search_rejects_nonpositive_trials(trials, capsys):
    # f4_5 samples; f2_5 at degree 3 is scanned exhaustively, where
    # split_search itself ignores trials
    for path in (F4_5_PATH, F2_5_PATH):
        code = cli.main(["split-search", str(path), "--degree", "3", "--trials", trials])
        assert code == 2, path
        captured = capsys.readouterr()
        assert "error: trials must be >= 1" in captured.err
        assert "splitting polynomial(s)" not in captured.out


def test_cli_split_search(capsys):
    code = cli.main(["split-search", str(F2_5_PATH), "--degree", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "x^5 + x^3 + 1  coeffs 1,0,0,1,0,1" in out
    assert "2 splitting polynomial(s) of degree 5" in out


def test_cli_error_paths(tmp_path, capsys):
    assert cli.main(["verify", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["mul", str(F4_5_PATH), "--x", "9,0,0,0,0", "--y", "1,0,0,0,0"]) == 2
    assert "outside GF(4)" in capsys.readouterr().err
    assert cli.main(["mul", str(F4_5_PATH), "--x", "1,0", "--y", "1,0,0,0,0"]) == 2
    assert "expected 5" in capsys.readouterr().err
    assert cli.main(["mul", str(F4_5_PATH), "--x", "0," + "9" * 5000 + ",0,0,0",
                     "--y", "1,0,0,0,0"]) == 2
    err = capsys.readouterr().err
    assert "value of 5000 digits is outside GF(4)" in err and "9999" not in err
    code = cli.main(["mul", str(F4_5_PATH), "--x", "1,0,0,0,0", "--y", "1,0,1,0,\u0661"])
    assert code == 2
    captured = capsys.readouterr()
    assert "is not a decimal integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("x, y, message", [
    ("1,0", "1", "error: expected 13 comma-separated values, got 2"),
    ("1" + ",0" * 11 + ",16", "1" + ",0" * 12, "error: value 16 is outside GF(16)"),
    ("1" + ",0" * 12, "1" + ",0" * 11 + ",x", "error: 'x' is not a decimal integer"),
], ids=["length", "range", "digits"])
def test_cli_mul_rejects_operands_before_compiling(monkeypatch, capsys, x, y, message):
    def no_compile(spec):
        raise AssertionError("a malformed operand must not pay for compiling")

    monkeypatch.setattr(cli, "compile_instance", no_compile)
    assert cli.main(["mul", str(F16_13_PATH), "--x", x, "--y", y]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == message
    assert captured.out == ""


def test_cli_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["split-search", str(F2_5_PATH)])  # --degree is required
    assert exc.value.code == 2


# one valid argv per command; parsing alone never opens the file
CLI_ARGV = {
    "verify": ["verify", "f.json"],
    "mul": ["mul", "f.json", "--x", "1,0", "--y", "0,1"],
    "selftest": ["selftest", "f.json", "--trials", "3", "--seed", "5"],
    "bench": ["bench", "f.json", "--reps", "2"],
    "counts": ["counts", "f.json"],
    "split-search": ["split-search", "f.json", "--degree", "4", "--seed", "1"],
}


def test_cli_one_subparser_parses_as_the_full_parser(monkeypatch):
    assert list(CLI_ARGV) == list(cli._COMMANDS)
    seen = []
    for name, (help_text, _, arguments) in cli._COMMANDS.items():
        monkeypatch.setitem(
            cli._COMMANDS, name, (help_text, lambda args: seen.append(args) or 0, arguments)
        )
    for name, argv in CLI_ARGV.items():
        assert cli.main(argv) == 0
        assert seen.pop() == cli._build_parser().parse_args(argv), name


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_one_subparser_prints_as_the_full_parser(monkeypatch, capsys):
    cases = [["--help"], [], ["nope"]]
    for name, argv in CLI_ARGV.items():
        cases += [[name, "--help"], [name], argv + ["extra"]]  # [name]: no file
    cases += [CLI_ARGV["mul"][:4], CLI_ARGV["split-search"][:2]]  # no --y, no --degree
    lazy = [run_cli(argv, capsys) for argv in cases]
    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda names: real())
    full = [run_cli(argv, capsys) for argv in cases]
    for argv, got, want in zip(cases, lazy, full):
        assert got == want, argv
        assert got[0] in (0, 2) and (got[1] or got[2]), argv
    _, _, err = lazy[cases.index(CLI_ARGV["mul"] + ["extra"])]
    assert "usage: curvemul [-h] {verify,mul,selftest,bench,counts,split-search} ..." in err
    assert "curvemul: error: unrecognized arguments: extra" in err


def test_cli_mul_builds_one_subparser(monkeypatch, capsys):
    built = []
    real = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert cli.main(["mul", str(F4_5_PATH), "--x", "2,1,0,0,0", "--y", "1,2,2,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "2,2,1,2,0"
    assert built == ["mul"]
