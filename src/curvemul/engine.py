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

Set-up runs on byte lanes (`galois.Lanes`), as the product does, and does
each piece of work once.  Validation is one ordered list of rules
(`InstanceSpec.checks`), the only place that knows them: the constructor
raises the first that fails and `tools.verify_instance` reports them all.
The rules linear in the data run first; then Rabin's test on Q's and the
candidates' residue moduli; then the basis, rhs_num, rhs_den, D1 and D2 are
packed once (`family`) and one folded Horner pass runs per x-image, which
the place checks, the good-basis check and compilation read.  Q's ladder is
checked without a division, as ay(t)*beta + b(t) = t^s * den(t).  Each
candidate is evaluated at most once (`curve.PlaceEvaluator`: one inverse per
distinct denominator), and its packed rows go straight into the one
elimination (`linalg.RowBasis`) that selects the places, certifies T and
yields T^-1; the accepted rows are T's packed rows, T_x and T_y are lane
slices of them, and no matrix compile builds checks its entries.

One product of x, y in F_{q^n} (length-n coordinate tuples over F_q) runs
in byte lanes, lane i byte i of an int: `step3(step2(step1(v)))`, v the int
of x ‖ y, which `multiply` and compile's basis-pair certificate run.
`step1` and `step3` are generated at compile time (`linalg.straight_line`),
each one XOR expression of lookups in windows of c columns of multiples
(`linalg.windows` of `Matrix.columns`), its index packed c coordinates to a
byte; `TABLE_BUDGET` sets c (8 // k or 1).

1. x and y evaluated at every place through T_x and T_y, one lookup per c
   coordinates of x ‖ y (y's multiples k bits up): 2n(2n+g-1) products by
   constants in all by the paper's convention;
2. at each place, the product of the two values in its residue field — the
   only bilinear step, costing the kernel's 1, 3 or 9 — by `KernelPlan.step2`:
   one `translate` of all slots' pair bytes through its table (the whole step
   if every place is rational), then kernels at the places of degree 2 or 4,
   folding reduction in through fixed product-table rows, so never counted;
3. the columns of the first 2n-1 rows of inverse(T) applied to the products —
   (2n-1)(2n+g-1) multiplications in all by the paper's convention;
4. an addition-only recombination of the 2n-1 interpolation coordinates
   into n, folded at compile time into T_inv_top's rows (row n+i-1 XORed into
   row i), so the two are one lookup per c slots, XORed into the product's n bytes.

Why only n live columns in step 1: the basis is built so that x embeds on
f_1..f_n and y on f_1, f_{n+1}..f_{2n-1}; all other embedded coordinates
are structurally zero, so their columns are never scheduled.
"""

from __future__ import annotations

import marshal
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache

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
from .kernels import KERNEL_COST, PAIR_K, KernelPlan
from .linalg import Matrix, RowBasis, straight_line, windows

TABLE_BUDGET = 4096  # window entries a multiplier stores for steps 1 and 3 together


def packing(k: int, c: int) -> tuple[int, int]:
    """m, t such that `(v * m >> t).to_bytes(L, "little")[::c]` packs v's bytes, each
    below 2^k, c to a byte, k bits each: v's c shifted copies share no bit."""
    return sum(1 << (8 - k) * s for s in range(c)), (8 - k) * (c - 1)


class InstanceError(Exception):
    """Instance data violates a build invariant; the message names it."""


class OpReport(namedtuple("OpReport", "step1_scalar step2_bilinear step3_scalar")):
    """Exact base-field multiplication counts for one product."""

    __slots__ = ()

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


CheckResult = namedtuple("CheckResult", "name ok detail advisory", defaults=("", False))


@lru_cache(maxsize=None)
def _passed(name: str) -> CheckResult:
    return CheckResult(name, True)


def _rule(name: str, ok: bool, message: str) -> CheckResult:
    """One rule's result; the InstanceError message is its detail if it fails.
    A pass is one shared record per name: a load yields hundreds of them."""
    return _passed(name) if ok else CheckResult(name, False, message)


def raise_first_failure(results: Iterable[CheckResult]) -> None:
    """Raise the first failed rule's message as an InstanceError; with lazy
    `results`, the rules after it never run."""
    for check in results:
        if not check.ok:
            raise InstanceError(check.detail)


def shape_checks(n, g: int, basis_size: int, field, q_residue) -> Iterator[CheckResult]:
    """n, genus, basis length, Q's degree: free, so first (in the loader, before Q's y-image)."""
    yield _rule("extension-degree", isinstance(n, int) and n >= 2,
                "extension degree n must be an integer >= 2")
    yield _rule("genus", g >= 1, "curve genus must be >= 1")
    size = 2 * n + g - 1
    yield _rule("basis-length", basis_size == size,
                f"basis must have 2n+g-1 = {size} functions, got {basis_size}")
    yield _rule("q-residue-degree", q_residue.base == field and q_residue.d == n,
                "place Q must have residue degree n over the base field")


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
        self.family = None  # packed by the first run of `checks`
        self.validate()

    @property
    def g(self) -> int:
        return self.curve.genus

    @property
    def size(self) -> int:
        return 2 * self.n + self.g - 1

    def validate(self) -> None:
        raise_first_failure(self.checks())

    def checks(self) -> Iterator[CheckResult]:
        """Every rule the instance must satisfy, lazily and in the order
        `validate` raises them: one result per rule, and per candidate for the
        rules on candidates.  A candidate that is no place over `field` (a
        non-place, another base, a reducible modulus) drops out at that rule.

        The rules linear in the data come first; then Rabin's test, once per
        modulus, on Q's and the candidates' residue fields, which the loader
        builds unproven; then `family` packs the basis, rhs_num, rhs_den, D1
        and D2 once, for the place checks, the good-basis check and compile."""
        field, qp = self.field, self.q_place
        yield from shape_checks(self.n, self.curve.genus, len(self.basis), field, qp.residue)
        yield _rule("curve-field", self.curve.field == field,
                    "curve is defined over a different base field")
        # operands are polynomials in the x-image, so it must be t for reference_mul
        # to agree; t generates F_q[t]/(m), so Q needs no generates_residue check
        yield _rule("q-x-is-generator", qp.x_img == qp.residue.gen(),
                    "Q must be presented with x mapping to the residue generator")
        dens = [(label, d, poly_is_monic(d) and len(d) >= 2)
                for label, d in (("d1", self.d1_den), ("d2", self.d2_den))]
        for label, d, monic in dens:
            yield _rule(f"{label}-denominator-monic", monic,
                        f"{label.upper()} denominator must be monic of degree >= 1")
        yield _rule("denominators-distinct", self.d1_den != self.d2_den,
                    "D1 and D2 denominators must be distinct")
        yield _rule("denominators-avoid-q", self.q_modulus not in (self.d1_den, self.d2_den),
                    "D1/D2 denominators must avoid the modulus of Q")
        yield _rule("f1-is-one", self.basis[0].is_constant_one(),
                    "f_1 must be the constant function 1")

        places, seen = [], set()
        for p in self.candidate_places:
            is_place = isinstance(p, (AffinePlace, InfinitePlace))
            yield _rule("candidates-are-places", is_place, f"candidate {p!r} is not a place")
            if not is_place:
                continue
            if isinstance(p, AffinePlace):
                yield _rule("candidates-base-field", p.residue.base == field,
                            f"candidate {p.label} has a residue field over the wrong base")
                if p.residue.base != field:  # Rabin's test over `field` would misread it
                    continue
                yield _rule("candidates-have-kernels", p.degree in KERNEL_COST,
                            f"candidate {p.label} has degree {p.degree}, no kernel available")
                yield _rule("candidates-avoid-q", p.residue.modulus != self.q_modulus,
                            f"candidate {p.label} coincides with Q")
                key = (p.residue, p.x_img, p.y_img)
            else:
                key = ("inf", p.branch_y0)
            yield _rule("candidates-distinct", key not in seen,
                        f"candidate {p.label} duplicates an earlier place")
            seen.add(key)
            places.append(p)

        rabin = lru_cache(maxsize=None)(is_irreducible)  # one test per modulus
        ok = rabin(qp.residue.base, self.q_modulus)
        yield CheckResult("q-modulus-irreducible", ok, f"degree {qp.degree} over GF({field.order})"
                          if ok else "Q.modulus: extension modulus must be irreducible")
        for p in places:
            if isinstance(p, AffinePlace):
                yield _rule("candidates-residue-irreducible", rabin(field, p.residue.modulus),
                            f"{p.label}: extension modulus must be irreducible")
        places = [p for p in places if p.degree == 1 or rabin(field, p.residue.modulus)]

        if self.family is None:
            self.family = PackedFamily(self.curve, self.basis, (self.d1_den, self.d2_den))
        check = self.family.check
        yield _rule("q-on-curve", check(qp)[0], "place Q does not lie on the curve")
        for label, d, monic in dens:  # Rabin's test takes monic input only
            yield _rule(f"{label}-denominator-irreducible", monic and rabin(field, d),
                        f"{label.upper()} denominator must be irreducible")
        for p in places:
            on_curve, meets = check(p)
            if isinstance(p, InfinitePlace):
                yield _rule("candidates-on-curve", on_curve,
                            f"candidate {p.label}: the curve has no split places over x=infinity")
                continue
            yield _rule("candidates-on-curve", on_curve,
                        f"candidate {p.label} does not lie on the curve")
            yield _rule("candidates-generate-residue", generates_residue(p),
                        f"candidate {p.label} does not generate its residue field")
            hit = next((d for d, m in zip(("D1", "D2"), meets) if m), None)
            yield _rule("support-disjoint", hit is None,
                        f"candidate {p.label} meets the support of {hit}")


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
    at_q = PlaceEvaluator(spec.q_place, spec.family)
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
    """Frozen straight-line multiplier for one instance: every table a product
    reads, and its report, built from the selected places and T's and T^-1's rows.
    A product is `step3(step2(step1(v)))`, v the checked x ‖ y.  `step1` is generated
    from windows of T_x's and T_y's column multiples, y's k bits up; `step2` is
    `plan.step2`, or with no kernel place just its `translate` through `plan.table`;
    and `step3`, steps 3 and 4, from windows of the column multiples of T_inv_top's
    rows with step 4 folded in.  `set_windows` generates steps 1 and 3, and each
    one's `tables` are the very windows it reads, which `table_fault` checks against
    their definition; `widths` holds each step's c; all is in byte lanes."""

    __slots__ = ("spec", "places", "T", "T_x", "T_y", "T_inv_top", "plan", "report", "widths",
                 "step1", "step2", "step3", "_high")

    def __init__(self, spec, places, rows, inverse_rows):
        field, n, size = spec.field, spec.n, spec.size
        self.spec = spec
        self.places = tuple(places)
        self.T = Matrix(field, size, rows)
        self.T_inv_top = top = Matrix(field, size, r := inverse_rows[: 2 * n - 1])
        # the one place that fixes how operands embed (see the module docstring): x on
        # lanes 0..n-1 of each row, y on lane 0 and lanes n..2n-2 moved down to 1..n-1
        k, low = field.k, (1 << 8 * n) - 1
        self.T_x = T_x = Matrix(field, n, [r & low for r in rows])
        self.T_y = T_y = Matrix(field, n, [(r & 255) ^ (((r >> 8 * n) << 8) & low) for r in rows])
        self.plan = plan = KernelPlan(field, [p.residue if p.degree > 1 else None for p in places])
        # with no kernel place, step 2 is the plan's one `translate`, without its method call
        self.step2 = plan.step2 if plan.kernel_steps else lambda a, t=plan.table: a.translate(t)
        # the paper's count: one multiplication per entry of the three matrices
        # (step 3's looked up below) and the plan's kernels, whatever the values
        self.report = OpReport(
            step1_scalar=T_x.rows * T_x.cols + T_y.rows * T_y.cols,
            step2_bilinear=plan.advertised_cost,
            step3_scalar=top.rows * top.cols,
        )
        # step 4 folded into T_inv_top's rows once: row n+i-1 XORed into row i, 0 < i < n
        fold = Matrix(field, size, [r[0]] + [r[i] ^ r[n + i - 1] for i in range(1, n)])
        # step 1's windows: x's columns then y's k bits up, so lookups XOR to step 2's pairs
        c, q = 8 // k, field.order
        entries = lambda m, w: sum(q ** min(w, m - i) for i in range(0, m, w))  # noqa: E731
        c1 = c if entries(2 * n, c) <= TABLE_BUDGET else 1
        c3 = c if entries(2 * n, c1) + entries(size, c) <= TABLE_BUDGET else 1
        self.widths = c1, c3
        shifted = tuple([m << k for m in multiples] for multiples in T_y.columns)
        self.set_windows(windows(T_x.columns + shifted, c1), windows(fold.columns, c3))
        self._high = int.from_bytes(bytes([256 - q]) * 2 * n, "little")  # bits k..7 of 2n lanes

    def set_windows(self, tables1, tables3) -> None:
        """`step1` and `step3` as straight-line lookups in these windows, constants written in."""
        n, size, k, (c1, c3) = self.spec.n, self.spec.size, self.spec.field.k, self.widths
        pack = "({} * {} >> {}).to_bytes({}, 'little')[::{}]"  # an int, its packing, length, c
        # step 1, one lookup per c1 coordinates of v; no place reads above its lanes
        self.step1 = straight_line(tables1, pack.format("a", *packing(k, c1), 2 * n, c1),
                                   f"(({{}}) & {256**size - 1:#x}).to_bytes({size}, 'little')")
        # steps 3 and 4: every product is below q, so c3 of them pack into a byte like v's
        index = pack.format("int.from_bytes(a, 'little')", *packing(k, c3), size, c3)
        self.step3 = straight_line(tables3, index if c3 > 1 else "a",
                                   f"tuple((({{}}) & {256**n - 1:#x}).to_bytes({n}, 'little'))")

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
        n = self.spec.n
        try:  # in C: marshal refuses int subclasses and __index__ objects, from_bytes ints from
            # 256 up and reads a buffer (array('H')) raw, so list or tuple; the mask refuses q up
            marshal.dumps(xy := x + y, 2)
            v = int.from_bytes(xy, "little")
            ok = type(xy) in (list, tuple) and len(x) == len(y) == n and not v & self._high
        except (TypeError, ValueError):
            ok = False
        if not ok:  # the exact checks, x's then y's: its length, then each coordinate
            checked = b""
            for u in (x, y):
                if len(u) != n:
                    raise ValueError(f"operand must have {n} coordinates, got {len(u)}")
                checked += bytes(map(self.spec.field.check, u))
            v = int.from_bytes(checked, "little")
        return self.step3(self.step2(self.step1(v))), self.report

    def wrong_basis_pairs(self) -> list[tuple]:
        """The basis pairs (t^i, t^j) whose product by the three steps is not
        t^(i+j) mod Q, in order, each as (i, j, want, got).  Once every stored table
        holds what field arithmetic gives (`verify` checks them), the product is
        F_q-bilinear, so no such pair means every product is right."""
        n, res = self.spec.n, self.spec.q_place.residue
        powers = res.ladder(res.one()) + res.ladder(res.ladder(res.gen())[-1])  # t^0..t^(2n-1)
        products = [(i, j, self.step3(self.step2(self.step1(1 << 8 * i | 1 << 8 * (n + j)))))
                    for i in range(n) for j in range(n)]  # x = t^i in byte i, y = t^j in byte n+j
        return [(i, j, powers[i + j], got) for i, j, got in products if got != powers[i + j]]

    def table_fault(self) -> str | None:
        """The first entry a product reads that `field.mul` does not give, or None: a window
        not q^digits long, a unit (index 1 << k*j) off its lanes of k bits (y's k up), an entry
        not the XOR of d times each digit d's unit, a step-2 entry a | b << k not a * b, or a
        kernel plan's `halves` byte i not i & q-1 (x's) or i >> k & q-1 (y's)."""
        field, n, size, plan = self.spec.field, self.spec.n, self.spec.size, self.plan
        q, k, mul = field.order, field.k, field.mul
        steps = (("step-1", self.widths[0], size, [0] * n + [k] * n, self.step1.tables),
                 ("step-3", self.widths[1], n, [0] * size, self.step3.tables))
        for step, c, lanes, shifts, tables in steps:  # shifts: each digit's, column by column
            if len(tables) != -(-len(shifts) // c):
                return f"{step} has {len(tables)} windows, not {-(-len(shifts) // c)}"
            for w, table in enumerate(tables):
                digits, multiples = shifts[c * w : c * w + c], []  # [j][d]: d times unit j
                if len(table) != q ** len(digits):
                    return f"{step} window {w} has {len(table)} entries, not {q ** len(digits)}"
                for j, s in enumerate(digits):
                    unit, in_lanes = table[1 << k * j], bytes([q - 1 << s]) * lanes
                    if unit & ~int.from_bytes(in_lanes, "little"):
                        return (f"{step} window {w} entry {1 << k * j} is not {lanes} lanes of "
                                f"{k} bits from bit {s}")
                    units = [u >> s for u in unit.to_bytes(lanes, "little")]
                    multiples.append([int.from_bytes(bytes([mul(d, u) << s for u in units]),
                                                     "little") for d in range(q)])
                for i, entry in enumerate(table):
                    for j, by_digit in enumerate(multiples):  # what is left is entry's fault
                        entry ^= by_digit[i >> k * j & q - 1]
                    if entry:
                        return (f"{step} window {w} entry {i} is not the XOR of its digits' "
                                "multiples")
        step2 = plan.table if plan.kernel_steps else self.step2(bytes(range(256)))
        for i in range(q << k):
            if len(step2) != 256 or step2[i] != mul(i & q - 1, i >> k):
                return f"step-2 table entry {i} is not {i & q - 1} times {i >> k}"
        for h, i in [(h, i) for h in (range(2) if plan.kernel_steps else ()) for i in range(256)]:
            if len(plan.halves[h]) != 256 or plan.halves[h][i] != i >> k * h & q - 1:
                return f"step-2 halves {h} entry {i} is not {i >> k * h & q - 1}"
        return None


def compile_instance(spec: InstanceSpec) -> CompiledMultiplier:
    """Select places, build T, certify it invertible, and freeze the multiplier.

    One pass over the candidates in order: a candidate whose degree still
    fits is evaluated once and kept only if its rows raise rank(T) by its
    degree.  The selection stops at rank 2n+g-1, where the same elimination
    has certified T and recorded T^-1.  The rows stay packed from evaluation
    through elimination; the accepted ones are T's, and `CompiledMultiplier`
    builds the product from them and T^-1's rows.  k > PAIR_K is refused first,
    and a multiplier with a wrong basis pair (`wrong_basis_pairs`) last.
    """
    if spec.field.k > PAIR_K:
        raise InstanceError(f"products need 2k <= 8 (two elements per byte); k = {spec.field.k}")
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
        at_place = PlaceEvaluator(p, spec.family)
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

    compiled = CompiledMultiplier(spec, places, rows, basis.inverse_rows())
    if wrong := compiled.wrong_basis_pairs():
        i, j, want, got = wrong[0]
        raise InstanceError(f"bilinear certificate: t^{i} · t^{j} = {list(got)}, want {list(want)} "
                            f"({len(wrong)} of {spec.n**2} basis pairs differ)")
    return compiled
