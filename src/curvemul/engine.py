"""Validation, compilation, and execution of curve-based multipliers.

An instance bundles: a base field F_q; an extension degree n; a genus-g
curve; a degree-n place Q whose residue field is the target F_{q^n}; a
"good basis" f_1..f_{2n+g-1} of function representatives; and an ordered
pool of candidate evaluation places.  Compilation selects places greedily
until their degrees sum to 2n+g-1, builds the evaluation matrix T (one row
block per place, one column per basis function), certifies rank(T) =
2n+g-1 by inverting T, and freezes the straight-line schedule together with
its operation report, which is read off the shapes of what it schedules.

Set-up is one pass: the basis is evaluated at each place by one
`PlaceEvaluator` (one power table, one inverse per distinct denominator),
each candidate place is evaluated at most once even when a singular T
forces a swap, and the one Gauss-Jordan inversion that yields T^-1 is also
the rank certificate.

One product of x, y in F_{q^n} (length-n coordinate tuples over F_q) runs:

1. two matrix-vector products through the n live columns of T each —
   2n(2n+g-1) base-field multiplications, independent of the inputs;
2. one componentwise product in the selected residue fields — the only
   bilinear step, costing the sum of kernel costs (1, 3 or 9 per place);
3. the first 2n-1 rows of inverse(T) applied to the componentwise
   product — (2n-1)(2n+g-1) multiplications;
4. an addition-only recombination of the 2n-1 interpolation coordinates.

Why only n live columns in step 1: the basis is built so that x embeds on
f_1..f_n and y on f_1, f_{n+1}..f_{2n-1}; all other embedded coordinates
are structurally zero, so their columns are never scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .curve import (
    AffinePlace,
    Curve,
    CurveFunction,
    InfinitePlace,
    PlaceEvaluationError,
    PlaceEvaluator,
    generates_residue,
    on_curve_check,
)
from .galois import (
    BinaryField,
    Poly,
    is_irreducible,
    poly_eval_ext,
    poly_from_coeffs,
    poly_is_monic,
    poly_mod,
    poly_mul,
)
from .kernels import KERNEL_COST, KernelPlan
from .linalg import Matrix, SingularMatrixError, invert, mat_vec


class InstanceError(Exception):
    """Instance data violates a build invariant; the message names it."""


@dataclass(frozen=True)
class OpReport:
    """Exact base-field multiplication counts for one product."""

    step1_scalar: int
    step2_bilinear: int
    step3_scalar: int

    @property
    def total(self) -> int:
        return self.step1_scalar + self.step2_bilinear + self.step3_scalar

    @classmethod
    def expected(cls, n: int, g: int, place_degrees: Sequence[int]) -> "OpReport":
        size = 2 * n + g - 1
        return cls(
            step1_scalar=2 * n * size,
            step2_bilinear=sum(KERNEL_COST[d] for d in place_degrees),
            step3_scalar=(2 * n - 1) * size,
        )


def aggregate_bound(n: int, g: int, r: int) -> Fraction:
    """Closed-form bound on the total multiplications of one product,
    where r is the largest evaluation-place degree in use."""
    sup = max(Fraction(KERNEL_COST[i], i) for i in KERNEL_COST if i <= r)
    return 8 * n * n + n * (4 * g - 5) + (2 * n + 2 * g - 2 + r) * sup


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    advisory: bool = False


class InstanceSpec:
    """Validated data bundle for one multiplier instance."""

    __slots__ = (
        "name",
        "field",
        "curve",
        "n",
        "q_place",
        "q_modulus",
        "d1_den",
        "d2_den",
        "basis",
        "candidate_places",
    )

    def __init__(
        self,
        name: str,
        field: BinaryField,
        curve: Curve,
        n: int,
        q_place: AffinePlace,
        d1_den,
        d2_den,
        basis: Sequence[CurveFunction],
        candidate_places: Sequence,
    ):
        self.name = name
        self.field = field
        self.curve = curve
        self.n = n
        self.q_place = q_place
        self.q_modulus = q_place.residue.modulus
        self.d1_den = poly_from_coeffs(field, d1_den)
        self.d2_den = poly_from_coeffs(field, d2_den)
        self.basis = tuple(basis)
        self.candidate_places = tuple(candidate_places)
        self.validate()

    @property
    def g(self) -> int:
        return self.curve.genus

    @property
    def size(self) -> int:
        return 2 * self.n + self.g - 1

    def validate(self) -> None:
        n, g = self.n, self.curve.genus
        if not isinstance(n, int) or n < 2:
            raise InstanceError("extension degree n must be an integer >= 2")
        if g < 1:
            raise InstanceError("curve genus must be >= 1")
        if self.curve.field != self.field:
            raise InstanceError("curve is defined over a different base field")
        qp = self.q_place
        if qp.residue.base != self.field or qp.degree != n:
            raise InstanceError("place Q must have residue degree n over the base field")
        if qp.x_img != qp.residue.gen():
            # operand coordinates are powers of the x-image, which must be the
            # residue generator for the polynomial reference product to agree
            raise InstanceError("Q must be presented with x mapping to the residue generator")
        if not on_curve_check(self.curve, qp):
            raise InstanceError("place Q does not lie on the curve")
        if not generates_residue(qp):
            raise InstanceError("x,y images at Q do not generate the residue field")
        for label, d in (("D1", self.d1_den), ("D2", self.d2_den)):
            if not poly_is_monic(d) or len(d) < 2:
                raise InstanceError(f"{label} denominator must be monic of degree >= 1")
            if not is_irreducible(self.field, d):
                raise InstanceError(f"{label} denominator must be irreducible")
        if self.d1_den == self.d2_den:
            raise InstanceError("D1 and D2 denominators must be distinct")
        if self.d1_den == self.q_modulus or self.d2_den == self.q_modulus:
            raise InstanceError("D1/D2 denominators must avoid the modulus of Q")
        if len(self.basis) != self.size:
            raise InstanceError(
                f"basis must have 2n+g-1 = {self.size} functions, got {len(self.basis)}"
            )
        if not self.basis[0].is_constant_one():
            raise InstanceError("f_1 must be the constant function 1")
        self._validate_candidates()

    def _validate_candidates(self) -> None:
        seen = set()
        for p in self.candidate_places:
            if isinstance(p, AffinePlace):
                if p.residue.base != self.field:
                    raise InstanceError(
                        f"candidate {p.label} has a residue field over the wrong base"
                    )
                if p.degree not in KERNEL_COST:
                    raise InstanceError(
                        f"candidate {p.label} has degree {p.degree}, no kernel available"
                    )
                if p.residue.modulus == self.q_modulus:
                    raise InstanceError(f"candidate {p.label} coincides with Q")
                if not on_curve_check(self.curve, p):
                    raise InstanceError(f"candidate {p.label} does not lie on the curve")
                if not generates_residue(p):
                    raise InstanceError(
                        f"candidate {p.label} does not generate its residue field"
                    )
                for dlabel, den in (("D1", self.d1_den), ("D2", self.d2_den)):
                    if poly_eval_ext(p.residue, den, p.x_img) == p.residue.zero():
                        raise InstanceError(
                            f"candidate {p.label} meets the support of {dlabel}"
                        )
                key = (p.residue.modulus, p.x_img, p.y_img)
            elif isinstance(p, InfinitePlace):
                if not on_curve_check(self.curve, p):
                    raise InstanceError(
                        f"candidate {p.label}: the curve has no split places over x=infinity"
                    )
                key = ("inf", p.branch_y0)
            else:
                raise InstanceError(f"candidate {p!r} is not a place")
            if key in seen:
                raise InstanceError(f"candidate {p.label} duplicates an earlier place")
            seen.add(key)


def _check_operand(spec: InstanceSpec, v: Sequence[int]) -> None:
    if len(v) != spec.n:
        raise ValueError(f"operand must have {spec.n} coordinates, got {len(v)}")
    for c in v:
        spec.field.check(c)


def reference_mul(
    field: BinaryField, q_modulus: Poly, x: Sequence[int], y: Sequence[int]
) -> tuple:
    """Oracle product in F_q[t]/(Q): schoolbook convolution and reduction.

    q_modulus is taken on trust (monic irreducible of degree n); the loader
    validates it once per instance.
    """
    n = len(q_modulus) - 1
    if len(x) != n or len(y) != n:
        raise ValueError(f"operands must have {n} coordinates")
    fx = poly_from_coeffs(field, x)
    fy = poly_from_coeffs(field, y)
    prod = poly_mod(field, poly_mul(field, fx, fy), q_modulus)
    return tuple(prod) + (0,) * (n - len(prod))


def verify_good_basis(spec: InstanceSpec) -> list[CheckResult]:
    """Check eval at Q of every basis function against the required ladder:

    f_1 -> 1, f_j -> alpha^(j-1) for j <= n, f_j -> alpha^(j-n) for
    n < j <= 2n-1, and 0 for the g completion functions at the end,
    where alpha is the image of x at Q.
    """
    res = spec.q_place.residue
    alpha = spec.q_place.x_img
    n = spec.n
    ladder = [res.one()]
    for _ in range(n - 1):
        ladder.append(res.mul(ladder[-1], alpha))
    at_q = PlaceEvaluator(spec.curve, spec.q_place, spec.basis)
    results = []
    for idx in range(len(spec.basis)):
        j = idx + 1
        if j <= n:
            want = ladder[j - 1]
        elif j <= 2 * n - 1:
            want = ladder[j - n]
        else:
            want = res.zero()
        try:
            got = tuple(at_q.value(idx))
        except PlaceEvaluationError as e:
            results.append(CheckResult(f"f_{j}", False, f"pole at Q: {e}"))
            continue
        ok = got == want
        detail = "" if ok else f"eval at Q = {list(got)}, want {list(want)}"
        results.append(CheckResult(f"f_{j}", ok, detail))
    return results


class CompiledMultiplier:
    """Frozen straight-line multiplier for one instance."""

    __slots__ = ("spec", "places", "T", "T_x", "T_y", "T_inv_top", "plan", "report")

    def __init__(self, spec, places, T, T_x, T_y, T_inv_top, plan):
        self.spec = spec
        self.places = places
        self.T = T
        self.T_x = T_x
        self.T_y = T_y
        self.T_inv_top = T_inv_top
        self.plan = plan
        # every product schedules one multiplication per entry of the three
        # matrices and the plan's kernels, whatever the operand values
        self.report = OpReport(
            step1_scalar=T_x.rows * T_x.cols + T_y.rows * T_y.cols,
            step2_bilinear=plan.advertised_cost,
            step3_scalar=T_inv_top.rows * T_inv_top.cols,
        )

    @property
    def place_degrees(self) -> list[int]:
        return [p.degree for p in self.places]

    @property
    def expected_report(self) -> OpReport:
        return OpReport.expected(self.spec.n, self.spec.g, self.place_degrees)

    @property
    def meets_injectivity_bound(self) -> bool:
        """Advisory only: the sufficient condition sum(degrees) > 2n+2g-2.

        The rank certificate is what actually guarantees injectivity; this
        flag is false for all bundled instances.
        """
        s = self.spec
        return sum(self.place_degrees) > 2 * s.n + 2 * s.g - 2

    def multiply(self, x: Sequence[int], y: Sequence[int]):
        """Product of x and y in F_{q^n}, plus the exact operation report."""
        spec = self.spec
        _check_operand(spec, x)
        _check_operand(spec, y)
        n = spec.n
        zv = mat_vec(self.T_x, x)
        tv = mat_vec(self.T_y, y)
        had = self.plan.hadamard(zv, tv)
        w = mat_vec(self.T_inv_top, had)
        z = [w[0]] + [w[j] ^ w[n + j - 1] for j in range(1, n)]
        return tuple(z), self.report


def _evaluation_rows(spec: InstanceSpec, place) -> list[list[int]]:
    at_place = PlaceEvaluator(spec.curve, place, spec.basis)
    blocks = []
    for idx in range(len(spec.basis)):
        try:
            blocks.append(at_place.value(idx))
        except PlaceEvaluationError as e:
            raise InstanceError(
                f"basis function f_{idx + 1} has a pole at place {place.label}: {e}"
            ) from e
    return [[blocks[j][r] for j in range(len(blocks))] for r in range(place.degree)]


def _greedy_selection(spec: InstanceSpec) -> list[int]:
    target = spec.size
    chosen: list[int] = []
    total = 0
    for idx, p in enumerate(spec.candidate_places):
        if total + p.degree <= target:
            chosen.append(idx)
            total += p.degree
            if total == target:
                return chosen
    raise InstanceError(
        f"candidate degrees reach only {total} of the required {target}"
    )


def _next_same_degree(spec: InstanceSpec, last: int) -> int:
    degree = spec.candidate_places[last].degree
    for i in range(last + 1, len(spec.candidate_places)):
        if spec.candidate_places[i].degree == degree:
            return i
    raise InstanceError(
        "no full-rank place selection reachable (same-degree fallback exhausted)"
    )


def compile_instance(spec: InstanceSpec) -> CompiledMultiplier:
    """Select places, build T, certify it invertible, and freeze the multiplier.

    Each candidate place is evaluated at most once: its row block is kept by
    candidate index across attempts.  One Gauss-Jordan inversion per attempt
    is the rank certificate; a singular T triggers the swap below.
    """
    for check in verify_good_basis(spec):
        if not check.ok:
            raise InstanceError(f"good-basis check failed at {check.name}: {check.detail}")

    row_blocks: dict[int, list[list[int]]] = {}
    chosen = _greedy_selection(spec)
    while True:
        for i in chosen:
            if i not in row_blocks:
                row_blocks[i] = _evaluation_rows(spec, spec.candidate_places[i])
        T = Matrix.from_rows(spec.field, [row for i in chosen for row in row_blocks[i]])
        try:
            T_inv = invert(T)
            break
        except SingularMatrixError:
            # evaluation vectors are dependent: retry with the last place
            # swapped for the next candidate of the same degree
            chosen[-1] = _next_same_degree(spec, chosen[-1])

    places = [spec.candidate_places[i] for i in chosen]
    n = spec.n
    T_inv_top = Matrix.from_rows(
        spec.field, [list(T_inv.row(i)) for i in range(2 * n - 1)]
    )
    # the one place that fixes how operands embed (see the module docstring)
    T_x = T.take_columns(list(range(n)))
    T_y = T.take_columns([0] + list(range(n, 2 * n - 1)))

    groups = []
    offset = 0
    for p in places:
        groups.append((offset, p.residue if isinstance(p, AffinePlace) and p.degree > 1 else None))
        offset += p.degree
    plan = KernelPlan(spec.field, groups)

    return CompiledMultiplier(spec, tuple(places), T, T_x, T_y, T_inv_top, plan)
