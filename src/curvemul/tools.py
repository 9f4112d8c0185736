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
fraction y_num(t)/y_den(t)) is stored.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Sequence

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
    reference_mul,
    verify_good_basis,
)
from .galois import (
    BinaryField,
    ExtField,
    Poly,
    absolute_trace,
    is_irreducible,
    poly_degree,
    poly_from_coeffs,
)
from .kernels import KERNEL_COST
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


def _elements(field: BinaryField, doc, key: str, where: str) -> list[int]:
    """Like `_coeffs`, but every value must also be an element of ``field``."""
    value = _coeffs(doc, key, where)
    try:
        for c in value:
            field.check(c)
    except ValueError as e:
        raise InstanceError(f"{where}{key}: {e}") from e
    return value


def instance_from_document(doc, name: str = "instance") -> InstanceSpec:
    """Build a validated InstanceSpec from a parsed JSON document.

    Raises InstanceFileError for structural problems and InstanceError for
    semantic ones, always naming the first failed invariant.
    """
    fdoc = _get(doc, "field", dict, "")
    k = _get(fdoc, "k", int, "field.")
    modulus_bits = _get(fdoc, "modulus_bits", int, "field.")
    try:
        field = BinaryField(k, modulus_bits)
    except ValueError as e:
        raise InstanceError(f"field: {e}") from e

    cdoc = _get(doc, "curve", dict, "")
    try:
        curve = Curve(
            field,
            _coeffs(cdoc, "rhs_num", "curve."),
            _coeffs(cdoc, "rhs_den", "curve."),
            _get(cdoc, "genus", int, "curve."),
        )
    except ValueError as e:
        raise InstanceError(f"curve: {e}") from e

    # degrees before Rabin's test (it costs more than degree^2), as validate words them
    n = _get(doc, "n", int, "")
    qdoc = _get(doc, "Q", dict, "")
    q_modulus = _elements(field, qdoc, "modulus", "Q.")
    if poly_degree(poly_from_coeffs(field, q_modulus)) != n:
        raise InstanceError("place Q must have residue degree n over the base field")
    try:
        q_res = ExtField(field, q_modulus)
    except ValueError as e:
        raise InstanceError(f"Q.modulus: {e}") from e
    try:
        q_y = beta_from_ideal(
            q_res,
            poly_from_coeffs(field, _elements(field, qdoc, "y_num", "Q.")),
            poly_from_coeffs(field, _elements(field, qdoc, "y_den", "Q.")),
        )
    except PlaceEvaluationError as e:
        raise InstanceError(f"Q: {e}") from e
    q_place = AffinePlace(q_res, q_res.gen(), q_y, label="Q")

    basis = []
    for i, bdoc in enumerate(_get(doc, "basis", list, "")):
        where = f"basis[{i}]."
        try:
            basis.append(
                CurveFunction(
                    field,
                    _coeffs(bdoc, "ay", where),
                    _coeffs(bdoc, "b", where),
                    _coeffs(bdoc, "den", where),
                )
            )
        except ValueError as e:
            raise InstanceError(f"basis[{i}]: {e}") from e

    places = []
    residues: dict = {}  # one ExtField, so one irreducibility test, per modulus
    for i, pdoc in enumerate(_get(doc, "places", list, "")):
        where = f"places[{i}]."
        kind = _get(pdoc, "kind", str, where)
        label = pdoc.get("label") or f"places[{i}]"
        declared = _get(pdoc, "degree", int, where)
        if kind == "affine":
            modulus = tuple(_coeffs(pdoc, "residue_modulus", where))
            try:
                degree = len(poly_from_coeffs(field, modulus)) - 1
                if declared != degree > 0:
                    raise InstanceFileError(
                        f"{label}: declared degree {declared} disagrees with the "
                        f"residue modulus of degree {degree}"
                    )
                if declared not in KERNEL_COST:
                    raise InstanceError(
                        f"candidate {label} has degree {declared}, no kernel available"
                    )
                res = residues.get(modulus)
                if res is None:
                    res = residues[modulus] = ExtField(field, modulus)
            except ValueError as e:
                raise InstanceError(f"{label}: {e}") from e
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
            try:
                places.append(InfinitePlace(branch, label))
            except ValueError as e:
                raise InstanceError(f"{label}: {e}") from e
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


def bundled_instance_names() -> list[str]:
    root = resources.files(__package__) / "instances"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_instance_path(name: str) -> Path:
    """Filesystem path of a bundled instance ('f16_13', 'f4_5', 'f2_5')."""
    if name.endswith(".json"):
        name = name[:-5]
    target = resources.files(__package__) / "instances" / f"{name}.json"
    path = Path(str(target))
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


@dataclass(frozen=True)
class VerifyReport:
    instance: str
    checks: tuple

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


def verify_instance(
    spec: InstanceSpec, spot_checks: int = 25, seed: int = 2024
) -> VerifyReport:
    """Re-run every structural check on a loaded instance and compile it.

    The loader already rejects broken data outright; this produces the
    per-check evidence trail, plus compile-time facts (selected places,
    rank certificate, operation counts, oracle spot-checks).
    """
    checks: list[CheckResult] = []
    add = checks.append
    field = spec.field

    for name, p, detail in (
        ("q-modulus", spec.q_modulus, f"degree {spec.n} over GF({field.order})"),
        ("d1-denominator", spec.d1_den, poly_text(field, spec.d1_den)),
        ("d2-denominator", spec.d2_den, poly_text(field, spec.d2_den)),
    ):
        add(CheckResult(f"{name}-irreducible", is_irreducible(field, p), detail))
    # the loader's checks, on its passes: on the curve, off the supports of D1, D2
    add(CheckResult("q-on-curve", spec.family.check(spec.q_place)[0]))
    results = [spec.family.check(p) for p in spec.candidate_places]
    add(
        CheckResult(
            "candidates-on-curve",
            all(on_curve for on_curve, _ in results),
            f"{len(spec.candidate_places)} candidate places",
        )
    )
    add(
        CheckResult(
            "support-disjoint",
            not any(any(meets) for _, meets in results),
            "no candidate place meets the pole divisors",
        )
    )

    ladder = verify_good_basis(spec)
    bad = [c for c in ladder if not c.ok]
    detail = f"{len(ladder) - len(bad)}/{len(ladder)} basis functions match at Q"
    if bad:
        detail += f"; first failure {bad[0].name}: {bad[0].detail}"
    add(CheckResult("good-basis-ladder", not bad, detail))

    try:
        compiled = compile_instance(spec)
    except InstanceError as e:
        add(CheckResult("compile", False, str(e)))
        return VerifyReport(spec.name, tuple(checks))
    add(
        CheckResult(
            "compile",
            True,
            "selected " + ", ".join(f"{p.label}" for p in compiled.places),
        )
    )
    got_rank = rank(compiled.T)
    add(
        CheckResult(
            "evaluation-rank",
            got_rank == spec.size,
            f"rank(T) = {got_rank}, required {spec.size}",
        )
    )

    rng = random.Random(seed)

    def rand_vec() -> list[int]:
        return [rng.randrange(field.order) for _ in range(spec.n)]

    z, rep = compiled.multiply(rand_vec(), rand_vec())
    exp = compiled.expected_report
    add(
        CheckResult(
            "operation-counts",
            rep == exp,
            f"step1={rep.step1_scalar} step2={rep.step2_bilinear} "
            f"step3={rep.step3_scalar}",
        )
    )
    bound = aggregate_bound(spec.n, spec.g, max(compiled.place_degrees))
    add(
        CheckResult(
            "aggregate-bound",
            Fraction(rep.total) <= bound,
            f"total {rep.total} <= {bound}",
        )
    )

    mismatch = None
    for _ in range(spot_checks):
        x, y = rand_vec(), rand_vec()
        got, _ = compiled.multiply(x, y)
        want = reference_mul(field, spec.q_modulus, x, y)
        if got != want:
            mismatch = (x, y, want, got)
            break
    add(
        CheckResult(
            "oracle-spot-check",
            mismatch is None,
            f"{spot_checks} random products against the polynomial oracle"
            if mismatch is None
            else f"x={mismatch[0]} y={mismatch[1]} want={list(mismatch[2])} "
            f"got={list(mismatch[3])}",
        )
    )
    add(
        CheckResult(
            "degree-sum-injectivity",
            compiled.meets_injectivity_bound,
            "sufficient condition sum(degrees) > 2n+2g-2; the rank "
            "certificate above is what guarantees injectivity",
            advisory=True,
        )
    )
    return VerifyReport(spec.name, tuple(checks))


# ---------------------------------------------------------------------------
# selftest / bench


@dataclass(frozen=True)
class SelftestResult:
    trials: int
    failures: int
    first_failure: tuple | None  # (x, y, expected, got)

    @property
    def ok(self) -> bool:
        return self.failures == 0


def selftest(compiled: CompiledMultiplier, trials: int = 1000, seed: int = 42):
    """Compare multiply against the polynomial oracle on seeded random pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spec = compiled.spec
    rng = random.Random(seed)
    failures = 0
    first = None
    for _ in range(trials):
        x = [rng.randrange(spec.field.order) for _ in range(spec.n)]
        y = [rng.randrange(spec.field.order) for _ in range(spec.n)]
        got, _ = compiled.multiply(x, y)
        want = reference_mul(spec.field, spec.q_modulus, x, y)
        if got != want:
            failures += 1
            if first is None:
                first = (tuple(x), tuple(y), want, got)
    return SelftestResult(trials, failures, first)


@dataclass(frozen=True)
class BenchResult:
    reps: int
    median_seconds: float
    mean_seconds: float
    report: object  # the constant OpReport


def bench(compiled: CompiledMultiplier, reps: int = 50, seed: int = 7) -> BenchResult:
    """Median/mean wall time of one product over seeded random inputs."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    spec = compiled.spec
    rng = random.Random(seed)
    pairs = [
        (
            [rng.randrange(spec.field.order) for _ in range(spec.n)],
            [rng.randrange(spec.field.order) for _ in range(spec.n)],
        )
        for _ in range(reps)
    ]
    times = []
    report = None
    for x, y in pairs:
        start = time.perf_counter()
        _, report = compiled.multiply(x, y)
        times.append(time.perf_counter() - start)
    return BenchResult(reps, statistics.median(times), statistics.fmean(times), report)


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


def poly_text(field: BinaryField, p: Poly, var: str = "x") -> str:
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
            power = var if j == 1 else f"{var}^{j}"
            terms.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(terms)
