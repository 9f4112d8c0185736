import argparse
import copy
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from curvemul import cli, engine, galois, tools
from curvemul.curve import AffinePlace, PlaceEvaluationError
from curvemul.engine import InstanceError, InstanceSpec, compile_instance
from curvemul.galois import F2, F4, ExtField, is_irreducible
from reference import basis_pairs, bundled, horner, setup_work

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
    # of a second; its degree, or the basis length, rejects it first, with
    # validate's messages
    work = setup_work(monkeypatch)
    big = [1, 1] + [0] * 2037 + [1]
    base = json.loads(F4_5_PATH.read_text(encoding="utf-8"))
    i = next(i for i, p in enumerate(base["places"]) if p["kind"] == "affine")
    label = base["places"][i]["label"]
    cases = [
        ({("places", i, "residue_modulus"): big}, tools.InstanceFileError,
         f"{label}: declared degree {base['places'][i]['degree']} disagrees "
         "with the residue modulus of degree 2039"),
        # the kernel rule is InstanceSpec's, so the schema's coordinate count,
        # the other fault here, is found first
        ({("places", i, "residue_modulus"): big, ("places", i, "degree"): 2039},
         tools.InstanceFileError, f"{label}: x_img and y_img must have 2039 coordinates"),
        ({("Q", "modulus"): big}, InstanceError,
         "place Q must have residue degree n over the base field"),
        # n matches Q's modulus, but f4_5 has 11 basis functions, not 4079
        ({("n",): 2039, ("Q", "modulus"): big}, InstanceError,
         "basis must have 2n+g-1 = 4079 functions, got 11"),
        # a constant modulus is still reported as such
        ({("places", i, "residue_modulus"): [1]}, InstanceError,
         f"{label}: extension modulus must be monic of degree >= 1"),
    ]
    for changes, error, message in cases:
        doc = copy.deepcopy(base)
        for path, value in changes.items():
            _set(doc, path, value)
        work.clear()
        with pytest.raises(error) as exc:
            tools.instance_from_document(doc)
        assert str(exc.value) == message
        assert max([len(p) - 1 for _, p in work.rabin], default=0) < 2039


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
    "path, value, error, message",
    [
        (("Q", "y_num", 0), 5, ValueError, "Q.y_num: 5 is not an element of GF(2^1; 0b10)"),
        (("field",), {"k": 9, "modulus_bits": 0b1000010001}, ValueError,
         "field: field degree must be between 1 and 8"),
        (("curve", "rhs_num"), [], ValueError,
         "curve: curve right-hand side must be a nonzero rational function"),
        (("Q", "modulus"), [1], ValueError,
         "Q.modulus: extension modulus must be monic of degree >= 1"),
        (("basis", 1, "den"), [], ValueError, "basis[1]: function denominator must be nonzero"),
        (("places", 2, "residue_modulus"), [1], ValueError,
         "P_3: extension modulus must be monic of degree >= 1"),
        (("places", 0, "branch_y0"), 2, ValueError,
         "P_inf_1: branch value of y at infinity must be 0 or 1"),
        (("Q", "y_den"), [1, 0, 0, 1, 0, 1], PlaceEvaluationError,
         "Q: y-presentation denominator vanishes at the place"),
    ],
    ids=["element", "field", "curve", "Q.modulus", "basis", "residue", "branch", "Q.y-image"],
)
def test_loader_translation_sites_pinned(path, value, error, message):
    # each site where the loader turns a builder's error into an InstanceError
    # naming where it failed: the exact text, and the original as the cause
    doc = doc_copy()
    _set(doc, path, value)
    with pytest.raises(InstanceError) as exc:
        tools.instance_from_document(doc)
    assert type(exc.value) is InstanceError
    assert str(exc.value) == message
    assert type(exc.value.__cause__) is error


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


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaves(child, path + (i,))
    elif isinstance(node, (int, str)) and not isinstance(node, bool):
        yield path


def test_mutated_documents_raise_only_loader_errors():
    # seeded and bounded: 400 copies of f2_5.json, one integer or string leaf
    # (a place's kind or label) changed in each; verify runs on every copy
    # that loads, and a report is the only outcome
    leaves = list(_leaves(BASE_DOC))
    strings = [p for p in leaves if p[-1] in ("kind", "label")]  # 18 of 355 leaves
    rng = random.Random(2024)
    values = [-1, 0, 1, 2, 3, 5, 16, 255, 2**16, "", "affine", "infinite", "P_3"]
    for _ in range(400):
        doc = doc_copy()
        path = rng.choice(strings if rng.random() < 0.25 else leaves)
        value = rng.choice(values)
        _set(doc, path, value)
        try:
            spec = tools.instance_from_document(doc)
        except (tools.InstanceFileError, InstanceError):
            continue
        except Exception as e:
            pytest.fail(f"{path} = {value!r}: {e!r}")
        try:
            tools.verify_instance(spec)
        except Exception as e:
            pytest.fail(f"verify with {path} = {value!r}: {e!r}")


def _nodes(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nodes(child, path + (key,))


def _deep(depth):
    node = 0
    for _ in range(depth):
        node = [node]
    return node


_MUTATIONS = {  # what replaces the chosen node, or deletes it (None)
    "type-swap": ["P_1", "", 1.5, None, True, False, [], {}, [1, 0], {"k": 2}],
    "delete": [None],
    "huge-int": [10**400, -(10**400), 2**64, 2**63 - 1, 2**4096 - 1],
    "nan": [float("nan"), float("inf"), float("-inf"), -0.0],
    "nest": ["wrap-list", "wrap-dict", "deep"],
}


def _mutated(doc, paths, rng):
    """doc with one seeded structured mutation at one of its node `paths`
    (the root first), copying only the containers on the way, and a label."""
    kind = rng.choice(list(_MUTATIONS))
    path = rng.choice(paths[1:] if kind == "delete" else paths)
    value = rng.choice(_MUTATIONS[kind])

    def rebuilt(node, rest):
        if not rest:
            if value == "wrap-list":
                return [node]
            if value == "wrap-dict":
                return {"value": node}
            return _deep(rng.choice((50, 900))) if value == "deep" else value
        node, (key, *rest) = type(node)(node), rest
        if rest or kind != "delete":
            node[key] = rebuilt(node[key], rest)
        else:
            del node[key]
        return node

    return rebuilt(doc, path), f"{kind} at {path}"


def test_structured_mutations_raise_only_loader_errors():
    # about 1000 seeded mutations of the three bundled documents, each one
    # type swap, deleted key or element, huge int, NaN or infinity, or extra
    # nesting at a random node: load and compile raise only the two
    # documented errors, whatever the mutation reaches
    docs = {name: json.loads(tools.bundled_instance_path(name).read_text(encoding="utf-8"))
            for name in tools.bundled_instance_names()}
    paths = {name: list(_nodes(doc)) for name, doc in docs.items()}
    rng = random.Random(15)
    outcomes = {"refused": 0, "compiled": 0}
    for name in list(docs) * 334:
        doc, label = _mutated(docs[name], paths[name], rng)
        try:
            compile_instance(tools.instance_from_document(doc, name))
            outcomes["compiled"] += 1
        except (tools.InstanceFileError, InstanceError):
            outcomes["refused"] += 1
        except Exception as e:
            pytest.fail(f"{name}, {label}: {e!r}")
    assert outcomes["refused"] > 900 and outcomes["compiled"] > 0, outcomes


def test_each_modulus_tested_once_per_load(monkeypatch):
    # f4_5 has 12 affine places over 6 distinct residue moduli, f2_5 7 over 3
    work = setup_work(monkeypatch)
    for name, distinct in (("f16_13", 16), ("f4_5", 6), ("f2_5", 3)):
        work.clear()
        spec = tools.load_bundled(name)
        moduli = {p.residue.modulus for p in spec.candidate_places if hasattr(p, "residue")}
        assert len(moduli) == distinct
        assert len(work.rabin) == len(set(work.rabin)), name
        # Q, D1, D2 and each candidate modulus; the base field's own modulus
        # is tested over F2 when k > 1
        want = {spec.q_modulus, spec.d1_den, spec.d2_den} | moduli
        assert {p for field, p in work.rabin if field == spec.field} == want, name
    # R_2's residue modulus again, with a trailing zero: still one field, one test
    doc = doc_copy()
    doc["places"][6]["residue_modulus"].append(0)
    work.clear()
    tools.instance_from_document(doc)
    assert len(work.rabin) == len(set(work.rabin))


def _swap_f1(doc):
    doc["basis"][0], doc["basis"][1] = doc["basis"][1], doc["basis"][0]
    return "f_1 must be the constant function 1"


def _d2_is_d1(doc):
    doc["d2_modulus"] = doc["d1_modulus"]
    return "D1 and D2 denominators must be distinct"


def _d2_is_q(doc):
    doc["d2_modulus"] = doc["Q"]["modulus"]
    return "D1/D2 denominators must avoid the modulus of Q"


def _duplicate_place(doc):
    doc["places"].append(copy.deepcopy(doc["places"][2]))
    return f"candidate {doc['places'][2]['label']} duplicates an earlier place"


def _degree_3_place(doc):
    # x^3 + x + 1 is irreducible over GF(2), GF(4) and GF(16); no kernel has degree 3
    doc["places"].append({"kind": "affine", "degree": 3, "residue_modulus": [1, 1, 0, 1],
                          "x_img": [0, 1, 0], "y_img": [0, 0, 0], "label": "W"})
    return "candidate W has degree 3, no kernel available"


def _basis_one_short(doc):
    size = len(doc["basis"])
    doc["basis"].pop()
    return f"basis must have 2n+g-1 = {size} functions, got {size - 1}"


CHEAP_FAULTS = [_swap_f1, _d2_is_d1, _d2_is_q, _duplicate_place, _degree_3_place,
                _basis_one_short]
CHEAP_FAULT_IDS = ["f1-not-one", "D1-equals-D2", "D2-equals-Q", "duplicate", "no-kernel",
                   "basis-short"]


def _rejected_cheaply(monkeypatch, name, doc, fault):
    """Break `fault`'s rule in doc, a copy of bundled file `name`; load it, which must
    raise that rule's message with no Rabin test over the field (building GF(2^k)
    tests its modulus over GF(2)), packing, Horner pass or generation test.  Returns
    the bundled spec and the moduli of the `ExtField.inv` calls made."""
    message = fault(doc)
    spec = bundled(name)[0]
    work = setup_work(monkeypatch)
    with pytest.raises(InstanceError) as exc:
        tools.instance_from_document(doc)
    assert str(exc.value) == message
    rabin = [p for field, p in work.rabin if field == spec.field]
    assert (rabin, work.packings, work.horner, work.generation) == ([], [], [], [])
    return spec, work.inverses


@pytest.mark.parametrize("name", ["f16_13", "f4_5", "f2_5"])
@pytest.mark.parametrize("fault", CHEAP_FAULTS, ids=CHEAP_FAULT_IDS)
def test_cheap_faults_rejected_before_rabin_on_load(monkeypatch, name, fault):
    # a document that breaks one rule linear in the data gets the constructor's
    # message (the loader builds its InstanceSpec) with no Rabin test over its
    # field, packing, Horner pass or generation test
    doc = json.loads(tools.bundled_instance_path(name).read_text(encoding="utf-8"))
    spec, inverses = _rejected_cheaply(monkeypatch, name, doc, fault)
    # one inverse, modulo Q (degree n): Q's y-image in beta_from_ideal.  The
    # loader must build Q before InstanceSpec can run its rules, so this one
    # runs first; shape_checks precede it, so a short basis costs none
    assert len(spec.q_modulus) == spec.n + 1
    assert inverses == ([] if fault is _basis_one_short else [spec.q_modulus])


LONG = 10**4  # coefficients in an inflated polynomial


def _long_poly(rng, k, coeffs):
    """coeffs followed by drawn coefficients up to LONG in all, the last 1."""
    return coeffs + [rng.getrandbits(k) for _ in range(LONG - len(coeffs) - 1)] + [1]


def _long_basis_poly(rng, doc):
    # not f_1, which a longer polynomial would make fail its own rule, and not
    # the last function, which a fault pops
    bdoc = doc["basis"][rng.randrange(1, len(doc["basis"]) - 1)]
    key = rng.choice(("ay", "b", "den"))
    bdoc[key] = _long_poly(rng, doc["field"]["k"], bdoc[key])


def _long_q_y_num(rng, doc):
    doc["Q"]["y_num"] = _long_poly(rng, doc["field"]["k"], doc["Q"]["y_num"])


def _many_candidates(rng, doc):
    # 500 distinct affine candidates of kernel degrees, each at a drawn
    # position; their moduli may be reducible, which only Rabin's test sees
    k, places = doc["field"]["k"], doc["places"]
    seen = {(tuple(p["residue_modulus"]), tuple(p["x_img"]), tuple(p["y_img"]))
            for p in places if p["kind"] == "affine"}
    for i in range(500):
        while True:
            d = rng.choice((1, 2, 4))
            modulus, x_img, y_img = ([rng.getrandbits(k) for _ in range(d)] for _ in range(3))
            key = (tuple(modulus + [1]), tuple(x_img), tuple(y_img))
            if key not in seen:
                break
        seen.add(key)
        places.insert(rng.randrange(len(places) + 1), {
            "kind": "affine", "degree": d, "residue_modulus": modulus + [1],
            "x_img": x_img, "y_img": y_img, "label": f"X_{i}"})


@pytest.mark.parametrize("name", ["f16_13", "f4_5", "f2_5"])
@pytest.mark.parametrize("fault", CHEAP_FAULTS, ids=CHEAP_FAULT_IDS)
@pytest.mark.parametrize("inflate", [_long_basis_poly, _long_q_y_num, _many_candidates],
                         ids=["long-basis-poly", "long-Q-y_num", "500-candidates"])
def test_seeded_corpus_rejected_before_expensive_work(monkeypatch, name, fault, inflate):
    # each entry: a bundled file with one expensive field inflated (drawn
    # with a fixed seed) and one cheap rule broken.  The loader's work up to
    # the rejection is counted, not timed: no Rabin test over the field, no
    # Horner pass, no generation test, and at most Q's one inverse
    doc = json.loads(tools.bundled_instance_path(name).read_text(encoding="utf-8"))
    inflate(random.Random(f"{name}/{fault.__name__}/{inflate.__name__}"), doc)
    spec, inverses = _rejected_cheaply(monkeypatch, name, doc, fault)
    assert inverses in ([], [spec.q_modulus])


def test_reducible_candidate_modulus_named():
    # the loader builds the field unproven; InstanceSpec's rule names it
    doc = doc_copy()
    i = next(i for i, p in enumerate(doc["places"]) if p.get("degree") == 2)
    doc["places"][i]["residue_modulus"] = [1, 0, 1]  # (x + 1)^2
    with pytest.raises(InstanceError) as exc:
        tools.instance_from_document(doc)
    assert str(exc.value) == f"{doc['places'][i]['label']}: extension modulus must be irreducible"


def test_q_denominator_without_inverse_is_an_instance_error():
    # Q's modulus (x^3 + x + 1)(x^2 + x + 1) is reducible, and Q's y_den
    # x^3 + x + 1 has no inverse modulo it: the y-image, computed before
    # Rabin's test, reports it
    doc = doc_copy()
    assert doc["Q"]["y_den"] == [1, 1, 0, 1]
    doc["Q"]["modulus"] = [1, 0, 0, 0, 1, 1]
    with pytest.raises(InstanceError) as exc:
        tools.instance_from_document(doc)
    assert str(exc.value) == "Q: y-presentation denominator vanishes at the place"


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
    curve = bundled("f2_5")[0].curve
    assert tools.check_total_split(curve, (1, 0, 0, 1, 0, 1))  # x^5+x^3+1
    assert not tools.check_total_split(curve, (1, 0, 1, 0, 0, 1))  # x^5+x^2+1
    # the rhs denominator itself: fibre is not split, signalled as an error
    with pytest.raises(PlaceEvaluationError):
        tools.check_total_split(curve, (1, 1, 0, 1))
    # reducible input is a usage error
    with pytest.raises(ValueError):
        tools.check_total_split(curve, (0, 0, 1))


def _split_reference(curve, qpoly):
    """check_total_split by Horner evaluation at the generator b and the
    trace as a sum of the squares b^(2^i)."""
    res = galois.ExtField(curve.field, galois.poly_from_coeffs(curve.field, qpoly))
    b = res.gen()
    den = horner(res, curve.rhs_den, b)
    if den == res.zero():
        raise PlaceEvaluationError(
            "curve denominator vanishes at a root of the candidate polynomial"
        )
    val = res.mul(horner(res, curve.rhs_num, b), res.inv(den))
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
        curve = bundled(name)[0].curve
        for degree in range(1, top + 1):
            for p in tools._all_monic(curve.field, degree):
                got = _outcome(tools.check_total_split, curve, p)
                assert got == _outcome(_split_reference, curve, p), (name, p)
                cases += 1
                kinds.add(got if isinstance(got, bool) else got[0])
    assert cases == 510 + 340 + 272
    assert kinds == {True, False, ValueError, PlaceEvaluationError}


def test_split_search_exhaustive_degree_5():
    curve = bundled("f2_5")[0].curve
    found = tools.split_search(curve, 5, trials=0)
    assert (1, 0, 0, 1, 0, 1) in found
    assert found == [(1, 0, 0, 1, 0, 1), (1, 1, 1, 1, 0, 1)]
    for p in found:
        assert is_irreducible(F2, p)
        assert tools.check_total_split(curve, p)


def test_split_search_sampling_is_seeded():
    curve = bundled("f4_5")[0].curve
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
    work = setup_work(monkeypatch)
    for name, degree, trials in (("f4_5", 5, 300), ("f2_5", 8, 0)):
        curve = bundled(name)[0].curve
        work.clear()
        found = tools.split_search(curve, degree, trials)
        tested = [p for _, p in work.rabin]
        assert len(tested) == len(set(tested)), name
        if curve.field.order == 2:
            assert len(tested) == 2**degree  # every monic polynomial, once

        def splits(p):
            try:
                return tools.check_total_split(curve, p)
            except PlaceEvaluationError:
                return False

        assert found == [p for p in tested if is_irreducible(curve.field, p) and splits(p)], name


def test_split_search_rejects_bad_degree():
    curve = bundled("f2_5")[0].curve
    with pytest.raises(ValueError):
        tools.split_search(curve, 0, trials=10)


# ---------------------------------------------------------------------------
# verification, selftest, bench


def test_verify_instance_passes_for_bundled():
    for name in tools.bundled_instance_names():
        spec = bundled(name)[0]
        report = tools.verify_instance(spec)
        assert report.ok
        lines = report.lines()
        assert lines[-1].startswith(f"PASS {name}")
        assert any("evaluation-rank" in l for l in lines)
        pairs = spec.n**2  # 169/25/25
        assert f"[ ok ] bilinear-certificate — {pairs}/{pairs} basis pairs match" in lines[-4]
        assert any("[note] degree-sum-injectivity" in l for l in lines)
        # one line per rule of the constructor, in its order
        names = [re.match(r"\[(?: ok |note|FAIL)\] (\S+)", l).group(1) for l in lines[:-1]]
        rules = list(dict.fromkeys(c.name for c in spec.checks()))
        assert [n for n in names if n in rules] == rules


def test_verify_instance_reports_compile_failure():
    spec = bundled("f2_5")[0]
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


def test_verify_instance_bilinear_certificate_names_a_wrong_pair():
    # f2_5 with f_2 and f_6 swapped: both take the value t at Q, so load, the
    # ladder and rank(T) pass, but the basis pairs whose product reads them
    # differ; compile's certificate refuses the multiplier, and the compile
    # line names the first of them as t^i · t^j
    report = tools.verify_instance(tools.instance_from_document(_swapped(BASE_DOC, 1, 5), "f2_5"))
    assert not report.ok and report.checks[-1].name == "compile"
    assert not any(c.name == "bilinear-certificate" for c in report.checks)
    match = re.fullmatch(r"\[FAIL\] compile — bilinear certificate: t\^(\d) · t\^(\d) = "
                         r"\[.*\], want \[.*\] \((\d+) of 25 basis pairs differ\)",
                         report.lines()[-2])
    assert match and 0 < int(match[3]) < 25, report.lines()[-2]


def _with_basis_coeffs(doc, f, key, coeffs):
    """doc with coefficient list `key` of basis function f replaced, copying
    only the containers on the way."""
    basis = list(doc["basis"])
    basis[f] = {**basis[f], key: coeffs}
    return {**doc, "basis": basis}


def _hidden_pole(doc, f, key):
    """doc with basis function f's denominator times the D1 or D2 modulus
    (`key`).  f_10 and f_11 are completion functions, 0 at Q, so the good-basis
    ladder still holds and every place is still evaluated; only the products
    go wrong."""
    field = galois.BinaryField(doc["field"]["k"], doc["field"]["modulus_bits"])
    den = galois.poly_mul(field, galois.poly_from_coeffs(field, doc["basis"][f]["den"]),
                          galois.poly_from_coeffs(field, doc[key]))
    return _with_basis_coeffs(doc, f, "den", list(den))


def _basis_flips(doc, count, rng):
    """`count` seeded copies of doc, each with one coefficient of one basis
    function (or one past its top) XORed with a nonzero element."""
    q = 1 << doc["field"]["k"]
    for _ in range(count):
        f, key = rng.randrange(len(doc["basis"])), rng.choice(("ay", "b", "den"))
        coeffs = doc["basis"][f][key] + [0]
        coeffs[rng.randrange(len(coeffs))] ^= rng.randrange(1, q)
        yield _with_basis_coeffs(doc, f, key, coeffs), f"f_{f + 1}.{key} = {coeffs}"


def _times_poly(doc, f, p):
    """doc with basis function f's numerator, ay and b, times the polynomial
    p in x: the function times p, its zero at Q kept, new poles over x = ∞."""
    field = galois.BinaryField(doc["field"]["k"], doc["field"]["modulus_bits"])
    p = galois.poly_from_coeffs(field, p)
    for key in ("ay", "b"):
        coeffs = galois.poly_mul(field, galois.poly_from_coeffs(field, doc["basis"][f][key]), p)
        doc = _with_basis_coeffs(doc, f, key, list(coeffs))
    return doc


def _swapped(doc, i, j):
    """doc with basis functions i and j swapped."""
    basis = list(doc["basis"])
    basis[i], basis[j] = basis[j], basis[i]
    return {**doc, "basis": basis}


def test_hidden_pole_corpus_is_refused_or_multiplies_right():
    # the four f4_5 files whose f_10 or f_11 has its denominator times the D1
    # or D2 modulus pass load, the good-basis check and the rank certificate,
    # and only the basis-pair certificate refuses them; the same on f2_5;
    # f_10 or f_11 (completion functions) times x, x + 1 or x^2 + 1; each of
    # f_2..f_5 (the D1 block) swapped with each of f_6..f_9 (the D2 block);
    # and seeded single-coefficient flips of f2_5's and f4_5's basis
    # functions, a flip drawn twice loaded once: each input is refused by load
    # or compile with the documented errors, or else matches the oracle on all
    # n^2 basis pairs and 200 seeded pairs.  The two unchanged documents
    # compile, so that check runs
    docs = {name: json.loads(tools.bundled_instance_path(name).read_text(encoding="utf-8"))
            for name in ("f4_5", "f2_5")}
    corpus = [(name, doc, "unchanged") for name, doc in docs.items()]
    corpus += [(name, _hidden_pole(doc, f, key), f"f_{f + 1}.den * {key}") for name, doc
               in docs.items() for f in (9, 10) for key in ("d1_modulus", "d2_modulus")]
    corpus += [(name, _times_poly(doc, f, p), f"f_{f + 1} * {p}")
               for name, doc in docs.items() for f in (9, 10) for p in ([0, 1], [1, 1], [1, 0, 1])]
    corpus += [(name, _swapped(doc, i, j), f"f_{i + 1} <-> f_{j + 1}")
               for name, doc in docs.items() for i in range(1, 5) for j in range(5, 9)]
    rng = random.Random(14)
    flips = {(name, label): doc for name in docs for doc, label in _basis_flips(docs[name], 150, rng)}
    corpus += [(name, doc, label) for (name, label), doc in flips.items()]
    assert len({(name, label) for name, _, label in corpus}) == len(corpus)  # no label repeats
    refusals, checked = {}, []
    for name, doc, label in corpus:
        try:
            compiled = compile_instance(tools.instance_from_document(doc, name))
        except (tools.InstanceFileError, InstanceError) as e:
            refusals[name, label] = str(e)
            continue
        spec = compiled.spec
        pairs = [*basis_pairs(spec.n), *tools._random_pairs(spec, 200, seed=14)]
        for x, y in pairs:
            want = engine.reference_mul(spec.field, spec.q_modulus, x, y)
            assert compiled.multiply(x, y)[0] == want, (name, label, x, y)
        checked.append((name, label, len(pairs)))
    # 2 of the 294 entries (54 built, 240 distinct flips) compiled, each checked on its
    # 25 basis pairs and 200 seeded pairs
    assert len(corpus) == 294
    assert checked == [("f4_5", "unchanged", 225), ("f2_5", "unchanged", 225)]
    certified = [key for key, message in refusals.items()
                 if message.startswith("bilinear certificate: t^")]
    hidden = [(name, f"f_{f}.den * d{d}_modulus") for name in ("f4_5", "f2_5")
              for f in (10, 11) for d in (1, 2)]
    assert set(hidden) <= set(refusals)
    assert set(hidden[:4]) <= set(certified)  # f4_5's four, by the certificate alone
    assert len(certified) > len(hidden[:4]), certified  # and beyond the four
    # f_i and f_(i+4) take the same value t^(i-1) at Q: swapped, they pass load,
    # the ladder and rank(T), and only the certificate refuses them
    same_at_q = [(name, f"f_{i} <-> f_{i + 4}") for name in docs for i in range(2, 6)]
    assert set(same_at_q) <= set(certified)


def _certificate(monkeypatch, name, change):
    # verify `name` with `change` applied to the multiplier compile returns:
    # the report and its bilinear-certificate line
    real = tools.compile_instance

    def corrupted(spec):
        compiled = real(spec)
        change(compiled)
        return compiled

    monkeypatch.setattr(tools, "compile_instance", corrupted)
    report = tools.verify_instance(tools.load_bundled(name))
    return report, next(c for c in report.checks if c.name == "bilinear-certificate")


def _xor_into_windows(step, w, bits):
    # a change that XORs bits[i] into entry i of window w of step 1 or 3,
    # regenerating the step from the changed windows
    def change(compiled):
        both = [compiled.step1.tables, compiled.step3.tables]
        tables = [list(t) for t in both[step == "step-3"]]
        tables[w] = [e ^ bits.get(i, 0) for i, e in enumerate(tables[w])]
        both[step == "step-3"] = tuple(tuple(t) for t in tables)
        compiled.set_windows(*both)
    return change


@pytest.mark.parametrize(
    "name, step, w, i",
    [("f4_5", "step-1", 1, 5), ("f4_5", "step-3", 2, 63), ("f2_5", "step-3", 0, 200),
     ("f16_13", "step-1", 12, 255)],
)
def test_verify_instance_bilinear_certificate_names_a_wrong_window_entry(
    monkeypatch, name, step, w, i
):
    # one window entry off by one bit, every other entry intact: the window
    # is then no XOR of its digits' multiples, and the check names the step,
    # the window and the entry
    report, cert = _certificate(monkeypatch, name, _xor_into_windows(step, w, {i: 1}))
    assert not report.ok and not cert.ok
    assert cert.detail.startswith(
        f"{step} window {w} entry {i} is not the XOR of its digits' multiples; "), cert.detail


NOT_XOR = "is not the XOR of its digits' multiples"


@pytest.mark.parametrize(
    "a, lane, entry, fault",
    [(3, 0, 3, NOT_XOR), (3, 5, 3, NOT_XOR), (1, 5, 1, "is not 5 lanes of 2 bits from bit 0"),
     (1, 0, 2, NOT_XOR)],
    ids=["in-lanes", "above-lanes", "multiple-1-above-lanes", "multiple-1-in-lanes"],
)
def test_verify_instance_bilinear_certificate_names_a_wrong_step3_multiple(
    monkeypatch, a, lane, entry, fault
):
    # entry a of f4_5's step-3 window 1, a times its column 4 (digit 0, steps 3
    # and 4), off by one bit: steps 3 and 4 are then not F_q-linear, yet all 25
    # basis pairs still match, so only the table check sees it.  A bit in lane
    # 5, above f4_5's n = 5 lanes, changes no product; on the unit entry
    # (a = 1) it is off the step's lanes.  The unit entry off inside its lanes
    # is consistent by itself, so the check names entry 2, twice the unit,
    # which no longer agrees with it
    change = _xor_into_windows("step-3", 1, {a: 1 << 8 * lane})
    report, cert = _certificate(monkeypatch, "f4_5", change)
    assert not report.ok and not cert.ok
    assert cert.detail == (
        f"step-3 window 1 entry {entry} {fault}; 25/25 basis pairs match the polynomial oracle")


@pytest.mark.parametrize("digit", ["x_digit", "y_digit"])
@pytest.mark.parametrize(
    "a, lane",
    [(3, 0), (3, 11), (1, 11)],
    ids=["in-lanes", "above-lanes", "multiple-1-above-lanes"],
)
def test_verify_instance_bilinear_certificate_names_a_wrong_step1_multiple(
    monkeypatch, digit, a, lane
):
    # f4_5's step-1 entry a times x's column 2 (window 0, digit 2) or y's
    # column 2 (window 1, digit 3) off by the digit's own low bit of one lane:
    # step 1 is then not F_q-linear.  The basis pairs read only unit entries,
    # and a bit in lane 11, above f4_5's 2n+g-1 = 11 lanes, is read by no
    # place, so all 25 pairs still match and only the table check sees it
    w, j, shift = (0, 2, 0) if digit == "x_digit" else (1, 3, 2)
    i = a << 2 * j
    change = _xor_into_windows("step-1", w, {i: 1 << 8 * lane + shift})
    report, cert = _certificate(monkeypatch, "f4_5", change)
    assert not report.ok and not cert.ok
    fault = NOT_XOR if a > 1 else f"is not 11 lanes of 2 bits from bit {shift}"
    assert cert.detail == (
        f"step-1 window {w} entry {i} {fault}; 25/25 basis pairs match the polynomial oracle")


@pytest.mark.parametrize("w, i, bit, shift", [(0, 4, 2, 0), (1, 64, 0, 2)], ids=["x", "y"])
def test_verify_instance_bilinear_certificate_names_a_unit_entry_in_the_wrong_half(
    monkeypatch, w, i, bit, shift
):
    # f4_5's unit entry of x's column 1 with a bit k up, in y's half of its
    # pair byte, or of y's column 2 with a bit in x's half: within the step's
    # lanes but off its digit's, so step 1 is not bilinear, and the check
    # names the entry
    report, cert = _certificate(monkeypatch, "f4_5", _xor_into_windows("step-1", w, {i: 1 << bit}))
    assert not report.ok and not cert.ok
    assert cert.detail.startswith(
        f"step-1 window {w} entry {i} is not 11 lanes of 2 bits from bit {shift}; "), cert.detail


@pytest.mark.parametrize("name", ["f16_13", "f4_5", "f2_5"])
def test_verify_instance_bilinear_certificate_names_a_wrong_step2_entry(monkeypatch, name):
    # one entry a | b << k of the table the product's step 2 reads off by one
    # bit: the check on the table, which reads all q^2 entries against
    # field.mul, names it.  Every product reads `plan.table` at each call
    a, b = 1, 1

    def change(compiled):
        table = bytearray(compiled.plan.table)
        table[a | b << compiled.spec.field.k] ^= 1
        compiled.plan.table = bytes(table)

    report, cert = _certificate(monkeypatch, name, change)
    assert not report.ok and not cert.ok
    entry = a | b << bundled(name)[0].field.k
    assert cert.detail.startswith(f"step-2 table entry {entry} is not {a} times {b}; "), cert.detail
    assert "[FAIL] bilinear-certificate — step-2 table entry" in "\n".join(report.lines())


# (half, byte, value): f4_5's step 2 reading x's value (half 0) or y's (half 1)
# of pair byte i as `value`; none gives the right product, since the other
# half of each of these pair bytes is not 0
WRONG_HALVES = [
    (0, 4, 1), (0, 4, 2), (0, 4, 3), (0, 13, 0), (0, 13, 2), (0, 13, 3), (0, 6, 0), (0, 6, 1),
    (0, 6, 3), (1, 13, 0), (1, 13, 1), (1, 13, 2), (1, 6, 0), (1, 6, 2), (1, 6, 3),
]


@pytest.mark.parametrize("h, i, value", WRONG_HALVES)
def test_verify_instance_bilinear_certificate_names_a_wrong_halves_byte(monkeypatch, h, i, value):
    # the Karatsuba cores at f4_5's degree-2 places read each pair byte's
    # halves only through step 2's table, so a wrong half at pair byte i is
    # entry i holding the product of the byte with that half set to `value`:
    # the table check names the entry, and the basis pairs see it too
    a, b = i & 3, i >> 2
    wrong = (value, b) if h == 0 else (a, value)

    def change(compiled):
        table = compiled.plan.table
        entry = compiled.spec.field.mul(*wrong)
        assert entry != table[i]
        compiled.plan.table = table[:i] + bytes([entry]) + table[i + 1 :]

    report, cert = _certificate(monkeypatch, "f4_5", change)
    assert not report.ok and not cert.ok
    match = re.fullmatch(rf"step-2 table entry {i} is not {a} times {b}; (\d+)/25 basis pairs "
                         r"match the polynomial oracle; first failure x=\[.*\] y=\[.*\]",
                         cert.detail)
    assert match and int(match[1]) < 25, cert.detail


def test_certificate_names_every_single_byte_step2_corruption():
    # every wrong value at every entry a | b << k of the table step 2 reads, on
    # both bundled files with kernel places, whose Karatsuba cores read it too:
    # the table check names each, and each also makes a basis pair wrong
    for name in ("f4_5", "f2_5"):
        compiled = compile_instance(tools.load_bundled(name))
        field, table = compiled.spec.field, compiled.plan.table
        q, k = field.order, field.k
        assert compiled.table_fault() is None
        for i in range(q * q):
            for value in set(range(q)) - {table[i]}:
                compiled.plan.table = table[:i] + bytes([value]) + table[i + 1 :]
                want = f"step-2 table entry {i} is not {i & q - 1} times {i >> k}"
                assert compiled.table_fault() == want, (name, i, value)
                assert compiled.wrong_basis_pairs(), (name, i, value)
        compiled.plan.table = table


def test_verify_instance_bilinear_certificate_catches_a_consistent_wrong_column(monkeypatch):
    # every entry of f4_5's step-3 window 1 shifted by d times the same lane-0
    # vector, d its digit 0 (column 4): a consistent wrong column, so the
    # windows are F_q-linear and their checks pass, and only the basis pairs
    # can tell; the certificate counts them and names the first that differs
    mul = galois.F4.mul
    report, cert = _certificate(monkeypatch, "f4_5", _xor_into_windows(
        "step-3", 1, {i: mul(i & 3, 1) for i in range(256)}))
    assert not report.ok and not cert.ok
    match = re.fullmatch(r"(\d+)/25 basis pairs match the polynomial oracle; "
                         r"first failure x=\[.*\] y=\[.*\]", cert.detail)
    assert match and int(match[1]) < 25, cert.detail


def _verify_with_extra_candidate(place):
    # appended after load, so only verify_instance's own candidate loop sees it
    spec = tools.load_bundled("f2_5")
    spec.candidate_places = spec.candidate_places + (place,)
    report = tools.verify_instance(spec)
    return {c.name: c.ok for c in report.checks}, report


def test_verify_instance_checks_the_last_candidate_on_curve():
    # over x = 1, y^2 + y = x / (x^3 + x + 1) = 1 has no root in F2
    off_curve = AffinePlace(ExtField(F2, (1, 1)), (1,), (0,), "off")
    checks, report = _verify_with_extra_candidate(off_curve)
    assert not checks["candidates-on-curve"]
    assert checks["support-disjoint"]
    assert not report.ok


def test_verify_instance_checks_the_last_candidate_support():
    # x-image t, a root of D1 = x^6 + x^5 + x^4 + x + 1; the y-image solves
    # y^2 + y = rhs(t) there, so the place lies on the curve
    res = ExtField(F2, (1, 1, 0, 0, 1, 1, 1))
    on_d1 = AffinePlace(res, res.gen(), (0, 0, 1, 1, 1, 0), "over-D1")
    checks, report = _verify_with_extra_candidate(on_d1)
    assert checks["candidates-on-curve"]
    assert not checks["support-disjoint"]
    assert not report.ok


def test_verify_instance_checks_the_last_candidate_is_new():
    checks, report = _verify_with_extra_candidate(bundled("f2_5")[0].candidate_places[2])
    assert not report.ok
    assert not checks["candidates-distinct"]
    assert checks["candidates-on-curve"] and checks["support-disjoint"]
    assert "[FAIL] candidates-distinct — candidate P_3 duplicates an earlier place" in report.lines()


def test_verify_instance_checks_the_last_candidate_generates():
    # x = y = 0 lie in F_2, on the curve, so they generate no field of degree 2
    res = ExtField(F2, (1, 1, 1))
    checks, report = _verify_with_extra_candidate(AffinePlace(res, [0, 0], [0, 0], "W"))
    assert not report.ok
    assert not checks["candidates-generate-residue"]
    assert checks["candidates-on-curve"] and checks["candidates-distinct"]


@pytest.mark.parametrize("place, failure", [
    # P_3's coefficients over GF(4): neither a duplicate of P_3 nor a place
    # whose curve equation is read over f2_5's GF(2)
    (AffinePlace(ExtField(F4, (0, 1)), (0,), (0,), "P_3"),
     "candidates-base-field — candidate P_3 has a residue field over the wrong base"),
    # (t + 1)^2: no field, so no curve or generation test either
    (AffinePlace(ExtField.unproven(F2, (1, 0, 1)), (1, 0), (0, 0), "W"),
     "candidates-residue-irreducible — W: extension modulus must be irreducible"),
], ids=["wrong-base", "reducible"])
def test_verify_instance_reports_a_non_place_candidate_once(place, failure):
    checks, report = _verify_with_extra_candidate(place)
    assert [l for l in report.lines() if l.startswith("[FAIL]")] == [f"[FAIL] {failure}"]


def test_selftest_passes():
    compiled = bundled("f2_5")[1]
    result = tools.selftest(compiled, trials=50, seed=1)
    assert result.ok
    assert result.trials == 50
    assert result.failures == 0
    assert result.first_failure is None
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            tools.selftest(compiled, trials=trials)


def test_selftest_and_spot_check_report_the_first_mismatch_in_draw_order(monkeypatch):
    # a multiplier wrong exactly when x[0] = 1: selftest draws x, then y, per
    # trial, counts every mismatch and keeps the first; verify's spot check
    # is the same draw with 25 trials from seed 2024
    compiled = bundled("f2_5")[1]
    honest = engine.CompiledMultiplier.multiply

    def wrong_where_x0_is_one(self, x, y):
        z, report = honest(self, x, y)
        return (z[0] ^ x[0],) + z[1:], report

    monkeypatch.setattr(engine.CompiledMultiplier, "multiply", wrong_where_x0_is_one)
    monkeypatch.setattr(tools, "compile_instance", lambda spec: compiled)

    def drawn(trials, seed):
        rng = random.Random(seed)
        pairs = [([rng.randrange(2) for _ in range(5)], [rng.randrange(2) for _ in range(5)])
                 for _ in range(trials)]
        bad = [(x, y) for x, y in pairs if x[0] == 1]
        x, y = bad[0]
        want = engine.reference_mul(F2, compiled.spec.q_modulus, x, y)
        return len(bad), (tuple(x), tuple(y), want, (want[0] ^ 1,) + want[1:])

    result = tools.selftest(compiled, trials=40, seed=5)
    assert (result.failures, result.first_failure) == drawn(40, 5)
    _, (x, y, want, got) = drawn(25, 2024)
    report = tools.verify_instance(compiled.spec)
    spot = next(c for c in report.checks if c.name == "oracle-spot-check")
    assert not spot.ok
    assert spot.detail == f"x={list(x)} y={list(y)} want={list(want)} got={list(got)}"


def test_bench_reports_constant_counts():
    compiled = bundled("f4_5")[1]
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
    assert tools.poly_text((1, 0, 0, 1, 0, 1)) == "x^5 + x^3 + 1"
    assert tools.poly_text((2, 1)) == "x + 2"
    assert tools.poly_text((0, 3)) == "3*x"
    assert tools.poly_text(()) == "0"
    assert tools.poly_text((1,)) == "1"


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


def test_cli_refuses_the_hidden_pole_file(capsys):
    # tests/data/f4_5_hidden_pole.json is f4_5.json with f_11's denominator
    # times the D1 modulus: it loads, and compile's certificate refuses it, so
    # mul prints no product (the steps give 1,0,1,2,0 for t · t^2, not t^3)
    # and exits 2, and verify's compile line fails with the pair
    path = Path(__file__).with_name("data") / "f4_5_hidden_pole.json"
    doc = json.loads(F4_5_PATH.read_text(encoding="utf-8"))
    assert json.loads(path.read_text(encoding="utf-8")) == _hidden_pole(doc, 10, "d1_modulus")
    assert cli.main(["mul", str(path), "--x", "0,1,0,0,0", "--y", "0,0,1,0,0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bilinear certificate: t^1 · t^2 = [1, 0, 1, 2, 0]")
    assert cli.main(["verify", str(path)]) == 1
    assert "[FAIL] compile — bilinear certificate: t^1 · t^2" in capsys.readouterr().out


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
    doc = doc_copy()
    doc["places"][2]["label"] = 7
    numbered = tmp_path / "numbered.json"
    numbered.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(numbered)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert "key 'places[2].label' has the wrong type" in captured.err


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


def test_cli_imports_only_the_stdlib_it_runs():
    # a fresh interpreter without site, this checkout's src/ first on the path
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import curvemul.cli; "
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
    )
    heavy = ["dataclasses", "inspect", "typing", "importlib.resources"]
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src), *heavy],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []


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
