"""Validation, compilation, and execution of curve-based multipliers.

An instance bundles: a base field F_q; an extension degree n; a genus-g
curve; a degree-n place Q whose residue field is the target F_{q^n}; a
"good basis" f_1..f_{2n+g-1} of function representatives; and an ordered
pool of candidate evaluation places.  Compilation walks the pool once, in
order, keeping each place whose evaluation rows raise the rank of the
evaluation matrix T (one row block per place, one column per basis function)
by the place's degree, until rank(T) = 2n+g-1; it then freezes the
straight-line schedule together with its operation report, which is read off
the shapes of what it schedules.

Set-up runs on packed GF(2^k) lanes (`galois.Lanes`) and does each piece of
work once.  Validation packs the basis, rhs_num, rhs_den, D1 and D2 once
(`InstanceSpec.family`, a `curve.PackedFamily`) and runs one folded Horner
pass per x-image of Q and the candidates; its place checks, the good-basis
check, compilation and `tools.verify_instance` read those passes.  Q's
ladder is checked without a division, as ay(t)*beta + b(t) = t^s * den(t).
Each candidate is evaluated at most once (`curve.PlaceEvaluator`: one
inverse per distinct denominator), and its packed rows go straight into the
one elimination (`linalg.RowBasis`) that selects the places, certifies T and
yields T^-1; only accepted rows are unpacked, into T, and no matrix compile
builds checks its entries.

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
    PackedFamily,
    PlaceEvaluationError,
    PlaceEvaluator,
    generates_residue,
)
from .galois import (
    BinaryField,
    Poly,
    is_irreducible,
    poly_from_coeffs,
    poly_is_monic,
    poly_mod,
    poly_mul,
)
from .kernels import KERNEL_COST, KernelPlan
from .linalg import Matrix, RowBasis, mat_vec


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
        "family",
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
            # operands are polynomials in the x-image, so it must be t for reference_mul
            # to agree; t generates F_q[t]/(m), so Q needs no generates_residue check
            raise InstanceError("Q must be presented with x mapping to the residue generator")
        # the basis, rhs_num, rhs_den, D1 and D2 packed once: the place checks
        # here, the good-basis check and compile read its passes (`family`)
        self.family = PackedFamily(self.curve, self.basis, (self.d1_den, self.d2_den))
        if not self.family.check(qp)[0]:
            raise InstanceError("place Q does not lie on the curve")
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
                on_curve, meets = self.family.check(p)
                if not on_curve:
                    raise InstanceError(f"candidate {p.label} does not lie on the curve")
                if not generates_residue(p):
                    raise InstanceError(
                        f"candidate {p.label} does not generate its residue field"
                    )
                for dlabel, hit in zip(("D1", "D2"), meets):
                    if hit:
                        raise InstanceError(
                            f"candidate {p.label} meets the support of {dlabel}"
                        )
                key = (p.residue.modulus, p.x_img, p.y_img)
            elif isinstance(p, InfinitePlace):
                if not self.family.check(p)[0]:
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
    n = spec.n
    at_q = PlaceEvaluator(spec.curve, spec.q_place, spec.family)
    # alpha is the residue generator t (`validate` insists), so the ladder
    # wants t^s, s < n, or zero for s = -1
    powers = [j - 1 if j <= n else j - n if j <= 2 * n - 1 else -1
              for j in range(1, len(spec.basis) + 1)]
    results = []
    for idx, (s, ok) in enumerate(zip(powers, at_q.takes_powers(powers))):
        detail = ""
        if not ok:  # only a failing function is divided out, for an exact detail
            want = [int(i == s) for i in range(n)]
            try:
                detail = f"eval at Q = {at_q.value(idx)}, want {want}"
            except PlaceEvaluationError as e:
                detail = f"pole at Q: {e}"
        results.append(CheckResult(f"f_{idx + 1}", ok, detail))
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


def compile_instance(spec: InstanceSpec) -> CompiledMultiplier:
    """Select places, build T, certify it invertible, and freeze the multiplier.

    One pass over the candidates in order: a candidate whose degree still
    fits is evaluated once and kept only if its rows raise rank(T) by its
    degree.  The selection stops at rank 2n+g-1, where the same elimination
    has certified T and recorded T^-1.  The rows stay packed from evaluation
    through elimination; only the accepted ones are unpacked, into T.
    """
    for check in verify_good_basis(spec):
        if not check.ok:
            raise InstanceError(f"good-basis check failed at {check.name}: {check.detail}")

    target = spec.size
    basis = RowBasis(spec.field, target)
    places = []
    rows: list[int] = []
    for p in spec.candidate_places:
        if basis.rank + p.degree > target:
            continue
        at_place = PlaceEvaluator(spec.curve, p, spec.family)
        try:
            block = at_place.rows()
        except PlaceEvaluationError as e:
            raise InstanceError(
                f"basis function f_{e.index + 1} has a pole at place {p.label}: {e}"
            ) from e
        if basis.add_packed(block):
            places.append(p)
            rows.extend(block)
            if basis.rank == target:
                break
    else:
        raise InstanceError(
            f"candidate places reach only rank {basis.rank} of the required {target}"
        )

    # built from field arithmetic, so no matrix below checks its entries
    n, top = spec.n, 2 * spec.n - 1
    T = Matrix.from_packed(spec.field, target, rows)
    T_inv_top = Matrix.trusted(spec.field, top, target, basis.inverse().entries[: top * target])
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
