"""Instance files, bundled data, verification reports, and search helpers.

An instance file is a UTF-8 JSON document:

    {
      "field":  {"k": 4, "modulus_bits": 19},
      "curve":  {"rhs_num": [...], "rhs_den": [...], "genus": 2},
      "n":      13,
      "Q":      {"modulus": [...], "y_num": [...], "y_den": [...]},
      "d1_modulus": [...],
      "d2_modulus": [...],
      "basis":  [{"ay": [...], "b": [...], "den": [...]}, ...],
      "places": [{"kind": "affine", "degree": 1, "residue_modulus": [...],
                  "x_img": [...], "y_img": [...], "label": "P_4"},
                 {"kind": "infinite", "degree": 1, "branch_y0": 0,
                  "label": "P_inf_1"}, ...]
    }

Polynomial coefficients are arrays of non-negative integers < 2^k, listed
from the constant term up; bit i of each integer is the coefficient of w^i
in the base-field representation.  The place Q is always presented with x
mapping to the residue-class generator t, so only its y-image (as a
fraction y_num(t)/y_den(t)) is stored.  A place's optional label is a string.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import time
from collections import namedtuple
from collections.abc import Sequence
from pathlib import Path

from .curve import (
    AffinePlace,
    Curve,
    CurveFunction,
    InfinitePlace,
    PlaceEvaluationError,
    beta_from_ideal,
)
from .engine import (
    CheckResult,
    CompiledMultiplier,
    InstanceError,
    InstanceSpec,
    aggregate_bound,
    compile_instance,
    raise_first_failure,
    reference_mul,
    shape_checks,
    verify_good_basis,
)
from .galois import (
    BinaryField,
    ExtField,
    Poly,
    absolute_trace,
    poly_degree,
    poly_from_coeffs,
)
from .linalg import rank


class InstanceFileError(Exception):
    """The file is not a readable instance document (I/O, JSON, or schema)."""


# ---------------------------------------------------------------------------
# loading


def _get(doc, key: str, types, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise InstanceFileError(f"missing key '{where}{key}'")
    value = doc[key]
    # JSON true/false parse as bool, which Python counts as an int
    if not isinstance(value, types) or (isinstance(value, bool) and types is int):
        raise InstanceFileError(f"key '{where}{key}' has the wrong type")
    return value


def _coeffs(doc, key: str, where: str) -> list[int]:
    value = _get(doc, key, list, where)
    for c in value:
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise InstanceFileError(
                f"key '{where}{key}' must be an array of non-negative integers"
            )
    return value


def _built(where: str, build, *args):
    """build(*args), the loader's one translation of a builder's error: a
    ValueError or PlaceEvaluationError it raises becomes an InstanceError
    reading "<where>: <its message>", with it as the cause."""
    try:
        return build(*args)
    except (ValueError, PlaceEvaluationError) as e:
        raise InstanceError(f"{where}: {e}") from e


def _elements(field: BinaryField, doc, key: str, where: str) -> list[int]:
    """Like `_coeffs`, but every value must also be an element of ``field``."""
    value = _coeffs(doc, key, where)
    return _built(f"{where}{key}", lambda: [field.check(c) for c in value])


def instance_from_document(doc, name: str = "instance") -> InstanceSpec:
    """Build a validated InstanceSpec from a parsed JSON document.

    Raises InstanceFileError for structural problems and InstanceError for
    semantic ones (`InstanceSpec.checks`), always naming the first failed one.
    """
    fdoc = _get(doc, "field", dict, "")
    k = _get(fdoc, "k", int, "field.")
    modulus_bits = _get(fdoc, "modulus_bits", int, "field.")
    field = _built("field", BinaryField, k, modulus_bits)

    cdoc = _get(doc, "curve", dict, "")
    curve = _built("curve", Curve, field, _coeffs(cdoc, "rhs_num", "curve."),
                   _coeffs(cdoc, "rhs_den", "curve."), _get(cdoc, "genus", int, "curve."))

    n = _get(doc, "n", int, "")
    qdoc = _get(doc, "Q", dict, "")
    bdocs = _get(doc, "basis", list, "")
    # residue fields are built unproven: InstanceSpec proves them after its linear rules
    q_res = _built("Q.modulus", ExtField.unproven, field, _elements(field, qdoc, "modulus", "Q."))
    # Q's y-image inverse costs degree^2, so the shape and Q's degree go first
    raise_first_failure(shape_checks(n, curve.genus, len(bdocs), field, q_res))
    q_y = _built("Q", beta_from_ideal, q_res,
                 poly_from_coeffs(field, _elements(field, qdoc, "y_num", "Q.")),
                 poly_from_coeffs(field, _elements(field, qdoc, "y_den", "Q.")))
    q_place = AffinePlace(q_res, q_res.gen(), q_y, label="Q")

    basis = []
    for i, bdoc in enumerate(bdocs):
        where = f"basis[{i}]."
        basis.append(_built(f"basis[{i}]", CurveFunction, field, _coeffs(bdoc, "ay", where),
                            _coeffs(bdoc, "b", where), _coeffs(bdoc, "den", where)))

    places = []
    for i, pdoc in enumerate(_get(doc, "places", list, "")):
        where = f"places[{i}]."
        kind = _get(pdoc, "kind", str, where)
        label = (_get(pdoc, "label", str, where) if "label" in pdoc else "") or f"places[{i}]"
        declared = _get(pdoc, "degree", int, where)
        if kind == "affine":
            res = _built(label, ExtField.unproven, field, _coeffs(pdoc, "residue_modulus", where))
            if declared != res.d:
                raise InstanceFileError(
                    f"{label}: declared degree {declared} disagrees with the "
                    f"residue modulus of degree {res.d}"
                )
            x_img = _elements(field, pdoc, "x_img", where)
            y_img = _elements(field, pdoc, "y_img", where)
            if len(x_img) != res.d or len(y_img) != res.d:
                raise InstanceFileError(
                    f"{label}: x_img and y_img must have {res.d} coordinates"
                )
            places.append(AffinePlace(res, tuple(x_img), tuple(y_img), label))
        elif kind == "infinite":
            if declared != 1:
                raise InstanceFileError(f"{label}: infinite places have degree 1")
            branch = _get(pdoc, "branch_y0", int, where)
            places.append(_built(label, InfinitePlace, branch, label))
        else:
            raise InstanceFileError(
                f"key '{where}kind' must be 'affine' or 'infinite'"
            )

    return InstanceSpec(
        name,
        field,
        curve,
        n,
        q_place,
        _elements(field, doc, "d1_modulus", ""),
        _elements(field, doc, "d2_modulus", ""),
        basis,
        places,
    )


def load_instance(path) -> InstanceSpec:
    """Load and validate an instance file; see the module docstring for the
    document layout.  InstanceFileError covers I/O, JSON, and schema faults;
    InstanceError covers semantic ones."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InstanceFileError(f"cannot read {path}: {e}") from e
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # besides JSONDecodeError: ValueError for an integer literal past the
        # int/str conversion limit, RecursionError for too deep nesting
        raise InstanceFileError(f"{path}: not valid JSON: {e}") from e
    return instance_from_document(doc, name=path.stem)


_INSTANCES = Path(__file__).with_name("instances")


def bundled_instance_names() -> list[str]:
    return sorted(p.stem for p in _INSTANCES.glob("*.json"))


def bundled_instance_path(name: str) -> Path:
    """Filesystem path of a bundled instance ('f16_13', 'f4_5', 'f2_5')."""
    if name.endswith(".json"):
        name = name[:-5]
    path = _INSTANCES / f"{name}.json"
    if not path.is_file():
        raise InstanceFileError(
            f"no bundled instance '{name}' (available: "
            + ", ".join(bundled_instance_names())
            + ")"
        )
    return path


def load_bundled(name: str) -> InstanceSpec:
    return load_instance(bundled_instance_path(name))


# ---------------------------------------------------------------------------
# place-splitting test and search


def check_total_split(curve: Curve, qpoly) -> bool:
    """True iff the place of F_q(x) cut out by the monic irreducible qpoly
    splits into two distinct places of the same degree on the curve.

    For y^2 + y = rhs this is the additive Hilbert-90 criterion: with b the
    root t of qpoly in F_q[t]/(qpoly), the fibre splits iff the absolute
    trace of rhs(b) is 0, read off remainders (`curve.beta_from_ideal`).
    Raises ValueError when qpoly is not monic irreducible (building its
    residue field runs Rabin's test), and PlaceEvaluationError when
    rhs_den(b) = 0 (the fibre is then ramified or polar, not split).
    """
    res = ExtField(curve.field, poly_from_coeffs(curve.field, qpoly))
    try:
        val = beta_from_ideal(res, curve.rhs_num, curve.rhs_den)
    except PlaceEvaluationError:
        raise PlaceEvaluationError(
            "curve denominator vanishes at a root of the candidate polynomial"
        ) from None
    return absolute_trace(res, val) == 0


def _all_monic(field: BinaryField, degree: int):
    for lower in itertools.product(range(field.order), repeat=degree):
        yield poly_from_coeffs(field, list(lower) + [1])


def split_search(curve: Curve, degree: int, trials: int, seed: int = 0) -> list[Poly]:
    """Monic irreducible polynomials of the given degree whose place splits
    on the curve.  Deterministic for a fixed seed; may return an empty list.

    Over GF(2) at degree <= 8 the whole space is scanned and `trials` is
    ignored; otherwise `trials` >= 1 random monic polynomials are drawn and
    rejection-tested, like the usual draw-until-irreducible setup step.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    field = curve.field

    def accept(p: Poly) -> bool:
        # check_total_split's residue field runs the one irreducibility test
        try:
            return check_total_split(curve, p)
        except (ValueError, PlaceEvaluationError):
            return False

    if field.order == 2 and degree <= 8:
        return [p for p in _all_monic(field, degree) if accept(p)]

    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    found: list[Poly] = []
    seen: set[Poly] = set()
    for _ in range(trials):
        p = poly_from_coeffs(
            field, [rng.randrange(field.order) for _ in range(degree)] + [1]
        )
        if p in seen:
            continue
        seen.add(p)
        if accept(p):
            found.append(p)
    return found


# ---------------------------------------------------------------------------
# verification report


class VerifyReport(namedtuple("VerifyReport", "instance checks")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks if not c.advisory)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            if c.advisory:
                tag = "note"
            else:
                tag = " ok " if c.ok else "FAIL"
            text = f"[{tag}] {c.name}"
            if c.detail:
                text += f" — {c.detail}"
            out.append(text)
        hard = [c for c in self.checks if not c.advisory]
        passed = sum(1 for c in hard if c.ok)
        verdict = "PASS" if self.ok else "FAIL"
        out.append(f"{verdict} {self.instance} ({passed}/{len(hard)} checks)")
        return out


def verify_instance(spec: InstanceSpec) -> VerifyReport:
    """Re-run every rule of `InstanceSpec.checks` on a loaded instance and
    compile it.

    The loader already rejects broken data outright; this produces the
    per-rule evidence trail, one line per rule name (a rule on candidates
    shows its first failing candidate), plus compile-time facts (selected
    places, rank certificate, operation counts, oracle spot-checks), and the
    bilinear certificate: the product's steps against t^(i+j) mod Q on all n^2
    pairs (t^i, t^j) of basis vectors (`wrong_basis_pairs`, which compile also
    runs).  That suffices, as step 2 is F_q-bilinear when each entry
    a | b << k of the table it reads is a * b and each byte of the kernels'
    `halves` its x or y value, and steps 1, 3 and 4 (lookups in windows) are
    F_q-linear when each window entry is the XOR of d times its digits' unit
    entries, each unit within its step's lanes; the certificate checks all of
    them first (`CompiledMultiplier.table_fault`), and two bilinear maps that
    agree on the basis pairs agree everywhere.
    """
    rules: dict = {}  # one line per rule name, a candidate rule's at its first failure
    for c in spec.checks():
        if rules.setdefault(c.name, c).ok and not c.ok:
            rules[c.name] = c
    ladder = verify_good_basis(spec)
    bad = [c for c in ladder if not c.ok]
    ladder_detail = f"{len(ladder) - len(bad)}/{len(ladder)} basis functions match at Q"
    if bad:
        ladder_detail += f"; first failure {bad[0].name}: {bad[0].detail}"
    checks = [*rules.values(), CheckResult("good-basis-ladder", not bad, ladder_detail)]
    try:
        compiled = compile_instance(spec)
    except InstanceError as e:
        return VerifyReport(spec.name, (*checks, CheckResult("compile", False, str(e))))
    rep, got_rank = compiled.report, rank(compiled.T)
    bound = aggregate_bound(spec.n, spec.g, max(compiled.place_degrees))
    result = selftest(compiled, 25, seed=2024)
    fault = compiled.table_fault()
    wrong = compiled.wrong_basis_pairs()
    cert = f"{spec.n**2 - len(wrong)}/{spec.n**2} basis pairs match the polynomial oracle"
    if wrong:
        unit = [[int(i == j) for j in range(spec.n)] for i in range(spec.n)]
        cert += f"; first failure x={unit[wrong[0][0]]} y={unit[wrong[0][1]]}"
    if fault:
        cert = f"{fault}; {cert}"
    spot = f"{result.trials} random products against the polynomial oracle"
    if not result.ok:
        x, y, want, got = result.first_failure
        spot = f"x={list(x)} y={list(y)} want={list(want)} got={list(got)}"
    checks += [
        CheckResult("compile", True, "selected " + ", ".join(p.label for p in compiled.places)),
        CheckResult("evaluation-rank", got_rank == spec.size,
                    f"rank(T) = {got_rank}, required {spec.size}"),
        CheckResult("operation-counts", rep == compiled.expected_report,
                    f"step1={rep.step1_scalar} step2={rep.step2_bilinear} "
                    f"step3={rep.step3_scalar}"),
        CheckResult("aggregate-bound", rep.total <= bound, f"total {rep.total} <= {bound}"),
        CheckResult("bilinear-certificate", not (wrong or fault), cert),
        CheckResult("oracle-spot-check", result.ok, spot),
        CheckResult("degree-sum-injectivity", compiled.meets_injectivity_bound,
                    "sufficient condition sum(degrees) > 2n+2g-2; the rank "
                    "certificate above is what guarantees injectivity", advisory=True),
    ]
    return VerifyReport(spec.name, tuple(checks))


# ---------------------------------------------------------------------------
# selftest / bench


class SelftestResult(namedtuple("SelftestResult", "trials failures first_failure")):
    __slots__ = ()  # first_failure is (x, y, expected, got), or None

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _random_pairs(spec: InstanceSpec, count: int, seed: int):
    """`count` seeded operand pairs (x, y) of random coordinate lists, drawn
    lazily, x before y."""
    rng, q, n = random.Random(seed), spec.field.order, spec.n
    return (([rng.randrange(q) for _ in range(n)], [rng.randrange(q) for _ in range(n)])
            for _ in range(count))


def selftest(compiled: CompiledMultiplier, trials: int = 1000, seed: int = 42):
    """Compare multiply against the polynomial oracle on seeded random pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spec, wrong = compiled.spec, []
    for x, y in _random_pairs(spec, trials, seed):
        got, _ = compiled.multiply(x, y)
        want = reference_mul(spec.field, spec.q_modulus, x, y)
        if got != want:
            wrong.append((tuple(x), tuple(y), want, got))
    return SelftestResult(trials, len(wrong), wrong[0] if wrong else None)


# report is the constant OpReport
BenchResult = namedtuple("BenchResult", "reps median_seconds mean_seconds report")


def bench(compiled: CompiledMultiplier, reps: int = 50, seed: int = 7) -> BenchResult:
    """Median/mean wall time of one product over seeded random inputs."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    pairs = list(_random_pairs(compiled.spec, reps, seed))
    times = []
    for x, y in pairs:
        start = time.perf_counter()
        compiled.multiply(x, y)
        times.append(time.perf_counter() - start)
    return BenchResult(reps, statistics.median(times), statistics.fmean(times), compiled.report)


# ---------------------------------------------------------------------------
# text formats


def parse_vector(field: BinaryField, text: str, n: int) -> list[int]:
    """Comma-separated decimal base-field values, lowest coordinate first;
    each is ASCII digits only, with surrounding blanks allowed."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated values, got {len(parts)}")
    out = []
    for p in parts:
        # int() alone would also take a sign, '_' separators and non-ASCII digits
        if not (p.isascii() and p.isdigit()):
            raise ValueError(f"'{p}' is not a decimal integer")
        digits = p.lstrip("0") or "0"
        # too long to be below q, and maybe past int()'s 4300-digit limit
        if len(digits) > len(str(field.order - 1)):
            raise ValueError(f"value of {len(digits)} digits is outside GF({field.order})")
        v = int(digits)
        if v >= field.order:
            raise ValueError(f"value {v} is outside GF({field.order})")
        out.append(v)
    return out


def format_vector(v: Sequence[int]) -> str:
    return ",".join(str(c) for c in v)


def poly_text(p: Poly) -> str:
    """Human-readable rendering, highest-degree term first."""
    if not p:
        return "0"
    terms = []
    for j in range(poly_degree(p), -1, -1):
        c = p[j]
        if c == 0:
            continue
        if j == 0:
            terms.append(str(c))
        else:
            power = "x" if j == 1 else f"x^{j}"
            terms.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(terms)
