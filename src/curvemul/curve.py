"""Hyperelliptic curve models y^2 + y = rhs_num(x)/rhs_den(x) over GF(2^k),
their places, and evaluation of y-linear function representatives.

A function is carried as (ay(x)*y + b(x)) / den(x).  Places come in two
kinds: affine places, presented by an explicit residue field F_q[t]/(m)
together with the images of x and y in it; and places over x = infinity,
presented by the branch value y(infinity) in {0, 1} of y's expansion in the
local parameter s = 1/x (`branch_series`).

`PlaceEvaluator` evaluates a whole family of functions (a basis), packed
once in GF(2^k) lanes (`PackedFamily`), at one place, and every place takes
one path: numerator lane vectors, then one inverse per distinct
denominator, taken only when a value is asked for.  At an affine place of
degree d the numerators come from one Horner pass over the x-image, on
columns folded by x^(q^d) = x and shared by the two places over that
x-image.  Over infinity a function's numerator is c_(deg den), where c_e =
b_e + sum_k y_k ay_(e+k) is the coefficient of x^e in ay(x)*y + b(x): one
combination of the packed columns; it is regular there iff c_e = 0 for
every e > deg den, and y_k for k <= deg ay - deg den read those c_e
exactly.  `evaluate` is the one-function case.  The same packing
carries the curve's rhs_num and rhs_den and the supports a place must
avoid, so one pass per x-image also serves the place checks
(`PackedFamily.check`).
"""

from __future__ import annotations

from typing import Sequence

from .galois import (
    BinaryField,
    ExtField,
    Lanes,
    Poly,
    ZERO_POLY,
    poly_degree,
    poly_from_coeffs,
    poly_gcd,
    poly_mul,
    _prime_factors,
)


class PlaceEvaluationError(Exception):
    """Raised when a function has a pole at the requested place; `index` is
    the function's position in its family, where it has one."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class Curve:
    __slots__ = ("field", "rhs_num", "rhs_den", "genus")

    def __init__(self, field: BinaryField, rhs_num, rhs_den, genus: int):
        self.field = field
        self.rhs_num = poly_from_coeffs(field, rhs_num)
        self.rhs_den = poly_from_coeffs(field, rhs_den)
        if not self.rhs_num or not self.rhs_den:
            raise ValueError("curve right-hand side must be a nonzero rational function")
        if poly_gcd(field, self.rhs_num, self.rhs_den) != (1,):
            raise ValueError("curve right-hand side must be in lowest terms")
        if not isinstance(genus, int) or genus < 0:
            raise ValueError("genus must be a nonnegative integer")
        self.genus = genus

    def __repr__(self) -> str:
        return f"Curve(y^2+y=({self.rhs_num})/({self.rhs_den}) over {self.field!r})"


class CurveFunction:
    """(ay(x) * y + b(x)) / den(x) on a curve."""

    __slots__ = ("ay", "b", "den")

    def __init__(self, field: BinaryField, ay, b, den):
        self.ay = poly_from_coeffs(field, ay)
        self.b = poly_from_coeffs(field, b)
        self.den = poly_from_coeffs(field, den)
        if not self.den:
            raise ValueError("function denominator must be nonzero")

    def is_constant_one(self) -> bool:
        return self.ay == ZERO_POLY and self.b == self.den

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CurveFunction)
            and self.ay == other.ay
            and self.b == other.b
            and self.den == other.den
        )

    def __repr__(self) -> str:
        return f"CurveFunction(ay={self.ay}, b={self.b}, den={self.den})"


class AffinePlace:
    """A closed point with residue field F_q[t]/(m), given by x, y images."""

    __slots__ = ("residue", "x_img", "y_img", "label")

    def __init__(self, residue: ExtField, x_img, y_img, label: str = ""):
        self.residue = residue
        self.x_img = residue.from_coords(x_img)
        self.y_img = residue.from_coords(y_img)
        self.label = label

    @property
    def degree(self) -> int:
        return self.residue.d

    def __repr__(self) -> str:
        return f"AffinePlace({self.label or 'unnamed'}, deg {self.degree})"


class InfinitePlace:
    """A rational place over x = infinity, tagged by the branch value of y."""

    __slots__ = ("branch_y0", "label")

    degree = 1

    def __init__(self, branch_y0: int, label: str = ""):
        if branch_y0 not in (0, 1):
            raise ValueError("branch value of y at infinity must be 0 or 1")
        self.branch_y0 = branch_y0
        self.label = label

    def __repr__(self) -> str:
        return f"InfinitePlace({self.label or 'unnamed'}, y->{self.branch_y0})"


# ---------------------------------------------------------------------------
# power series in the local parameter s = 1/x   (lists of ints, index = power)


def series_mul(field: BinaryField, a, b, prec: int) -> list[int]:
    return (list(poly_mul(field, a[:prec], b[:prec])) + [0] * prec)[:prec]


def series_inv(field: BinaryField, a, prec: int) -> list[int]:
    """Multiplicative inverse of a power series with a[0] != 0."""
    if not a or a[0] == 0:
        raise ValueError("series is not invertible (zero constant term)")
    mul = field.mul
    lead = field.inv(a[0])
    out = [lead] + [0] * (prec - 1)
    for k in range(1, prec):
        acc = 0
        for i in range(1, min(k, len(a) - 1) + 1):
            if a[i]:
                acc ^= mul(a[i], out[k - i])
        out[k] = mul(lead, acc)
    return out


def rhs_series(curve: Curve, prec: int) -> list[int]:
    """Expansion of rhs_num(x)/rhs_den(x) in s = 1/x; must vanish at s = 0."""
    shift = int(poly_degree(curve.rhs_den)) - int(poly_degree(curve.rhs_num))
    if shift <= 0:
        raise PlaceEvaluationError(
            "curve equation has no split rational places over x = infinity"
        )
    rn = list(reversed(curve.rhs_num))
    rd = list(reversed(curve.rhs_den))
    c = series_mul(curve.field, rn, series_inv(curve.field, rd, prec), prec)
    return ([0] * shift + c)[:prec]


def branch_series(curve: Curve, branch_y0: int, prec: int) -> list[int]:
    """Coefficients of the y-branch with y(0) = branch_y0 solving y^2 + y = c.

    In characteristic 2 the square contributes (y_{k/2})^2 at even k only, so
    the coefficients resolve one by one from c.
    """
    if branch_y0 not in (0, 1):
        raise ValueError("branch value must be 0 or 1")
    c = rhs_series(curve, prec)
    mul = curve.field.mul
    y = [0] * prec
    y[0] = branch_y0
    for k in range(1, prec):
        if k % 2:
            y[k] = c[k]
        else:
            h = y[k // 2]
            y[k] = c[k] ^ mul(h, h)
    return y


# ---------------------------------------------------------------------------
# evaluation


class PackedPolys:
    """Polynomials over one field packed as lane columns (`galois.Lanes`):
    lane i holds polynomial i, column j the coefficients of x^j.  Packing
    does not depend on the point, so one packing serves every place; it
    keeps what places share, the columns folded for each residue field size
    and the Horner pass at each x-image, for as long as it lives."""

    __slots__ = ("lanes", "columns", "_folded", "_passes")

    def __init__(self, field: BinaryField, polys: Sequence[Poly]):
        self.lanes = Lanes(field, len(polys))
        top = max([1] + [len(p) for p in polys])
        padded = [p + (0,) * (top - len(p)) for p in polys]
        self.columns = [self.lanes.pack(col) for col in zip(*padded)]
        self._folded: dict = {}
        self._passes: dict = {}

    def horner(self, res: ExtField, x_img: tuple) -> list[int]:
        """Every polynomial's value at x_img in the residue field res, as d
        coordinate lane vectors: lane i of vector r is coordinate r of the
        value of polynomial i.  Run once per residue modulus and x-image (the
        two places over one x-image share it), so do not mutate the result."""
        key = (res.modulus, x_img)
        if key not in self._passes:
            self._passes[key] = self._horner(res, x_img)
        return self._passes[key]

    def _horner(self, res: ExtField, x_img: tuple) -> list[int]:
        """One Horner pass, multiplying by x_img as its d x d matrix over F_q,
        on the columns reduced mod x^(q^d) - x: every element of F_(q^d) is a
        root, so column j >= q^d folds into column j - (q^d - 1), once per d."""
        size = res.order
        columns = self._folded.get(size)
        if columns is None:
            columns = self._folded[size] = list(self.columns)
            while len(columns) > size:
                top = columns.pop()
                columns[len(columns) - size + 1] ^= top
        x_times, apply = res.mul_map(x_img), self.lanes.apply
        acc = [columns[-1]] + [0] * (res.d - 1)
        for column in reversed(columns[:-1]):
            acc = apply(x_times, acc)
            acc[0] ^= column
        return acc

    def lane(self, vectors: Sequence[int], j: int) -> tuple:
        """Lane j of coordinate lane vectors: the j-th polynomial's value."""
        k, mask = self.lanes.field.k, self.lanes.field.order - 1
        return tuple([(a >> (k * j)) & mask for a in vectors])


class PackedFamily(PackedPolys):
    """A curve's family of F functions (a basis) and the polynomials its
    place checks read, as `PackedPolys`: lanes 0..F-1 hold the functions'
    ay, F..2F-1 their b and 2F..3F-1 their den, then come rhs_num, rhs_den
    and the `supports` (such as the denominators of D1 and D2).  One family
    is built per instance and serves its place checks and the
    `PlaceEvaluator` of every place, so each x-image costs one Horner pass."""

    __slots__ = ("curve", "functions", "dens", "_none")

    def __init__(
        self, curve: Curve, functions: Sequence[CurveFunction], supports: Sequence[Poly] = ()
    ):
        self.curve = curve
        self.functions = tuple(functions)
        super().__init__(
            curve.field,
            [f.ay for f in self.functions]
            + [f.b for f in self.functions]
            + [f.den for f in self.functions]
            + [curve.rhs_num, curve.rhs_den, *supports],
        )
        self._none = (False,) * len(supports)
        # each distinct denominator: the functions sharing it, and the lane
        # mask that selects them
        by_den: dict = {}
        for j, f in enumerate(self.functions):
            by_den.setdefault(f.den, []).append(j)
        k, lane = curve.field.k, curve.field.order - 1
        self.dens = [
            (idx, sum([lane << (k * j) for j in idx])) for idx in by_den.values()
        ]

    def check(self, place) -> tuple[bool, Sequence[bool]]:
        """Whether the place lies on the curve, and for each support whether
        it vanishes at the place (a place over infinity meets none).

        Over infinity the fibre splits iff rhs vanishes there, i.e. deg
        rhs_den > deg rhs_num (`rhs_series`).  At an affine place, once
        rhs_den(x) != 0, y^2 + y = rhs_num(x)/rhs_den(x) is tested without an
        inverse, as (y^2 + y) * rhs_den(x) = rhs_num(x).
        """
        curve = self.curve
        if isinstance(place, InfinitePlace):
            return len(curve.rhs_den) > len(curve.rhs_num), self._none
        if not isinstance(place, AffinePlace):
            raise TypeError(f"not a place: {place!r}")
        res = place.residue
        if res.base != curve.field:
            return False, self._none
        acc = self.horner(res, place.x_img)
        num, den, *supports = [
            self.lane(acc, j) for j in range(3 * len(self.functions), self.lanes.count)
        ]
        y = place.y_img
        on_curve = any(den) and res.mul(res.add(res.mul(y, y), y), den) == num
        return on_curve, [not any(v) for v in supports]


class PlaceEvaluator:
    """Values of a `PackedFamily` of functions at one place.

    Every place yields numerator lane vectors, one per coordinate of its
    residue field, and one divisor per distinct denominator.  The first
    `rows` or `value` inverts each nonzero divisor once and applies it, as a
    matrix, to the numerators sharing it; `takes_powers` does not divide.

    At an affine place of degree d the family's Horner pass at the x-image
    gives d coordinate lane vectors: the ay lanes times the y-image (a d x d
    matrix over F_q) plus the b lanes are the numerators, and the den lanes
    the divisors; a divisor 0 is a pole of every function sharing it.

    A place over x = infinity has residue field F_q.  With s = 1/x and the
    branch y = sum_k y_k s^k (`branch_series`), the coefficient of x^e in
    ay(x)*y + b(x) is c_e = b_e + sum_k y_k ay_(e+k): the b column e plus the
    ay columns e+k scaled by y_k.  As den = lead(den) x^deg(den) (1 + O(s)),
    a function is regular there iff c_e = 0 for every e > deg den, and its
    value is c_(deg den) / lead(den), that numerator over that divisor.
    Poles are per function: functions sharing a denominator can differ here.
    For e >= deg den the sum stops at k = deg ay - deg den, so y_0 .. y_K, K
    the family's largest deg ay - deg den, make every c_e read exact.

    Build one per place and drop it; one family serves every place.
    """

    __slots__ = ("place", "_family", "_res", "_num", "_dens", "_rows", "_poles")

    def __init__(self, curve: Curve, place, family: PackedFamily):
        self.place = place
        self._family = family
        self._rows = None
        self._poles: set = set()
        width = curve.field.k * len(family.functions)
        block = (1 << width) - 1  # the F lanes of one of the ay, b, den blocks
        lanes, lane = family.lanes, family.lane
        if isinstance(place, AffinePlace):
            self._res = res = place.residue
            acc = family.horner(res, place.x_img)
            num = lanes.apply(res.mul_map(place.y_img), [a & block for a in acc])
            self._num = [u ^ ((a >> width) & block) for u, a in zip(num, acc)]
            dens = [a >> (2 * width) for a in acc]
            self._dens = [lane(dens, idx[0]) for idx, _ in family.dens]
        elif isinstance(place, InfinitePlace):
            self._res = ExtField(curve.field, (0, 1))  # F_q as F_q[t]/(t)
            top = max([0] + [len(f.ay) - len(f.den) for f in family.functions])
            c = [(col >> width) & block for col in family.columns]  # the b lanes
            for k, y in enumerate(branch_series(curve, place.branch_y0, top + 1)):
                for e, col in enumerate(family.columns[k:]):
                    c[e] ^= lanes.scale(y, col & block)
            self._num, self._dens = [0], []
            for idx, mask in family.dens:
                den = family.functions[idx[0]].den
                self._num[0] ^= c[len(den) - 1] & mask
                above = 0  # lane j is nonzero iff some c_e, e > deg den, is: a pole
                for ce in c[len(den):]:
                    above |= ce & mask
                if above:
                    self._poles.update([j for j in idx if any(lane((above,), j))])
                self._dens.append((den[-1],))
        else:
            raise TypeError(f"not a place: {place!r}")

    def value(self, j: int) -> list[int]:
        """Coordinates of the j-th function's value, as `degree` base-field
        ints; raises PlaceEvaluationError when it has a pole here."""
        return list(self._family.lane(self._divided((j,)), j))

    def rows(self) -> list[int]:
        """All values as `degree` coordinate lane vectors: lane j of vector r
        is coordinate r of the j-th function's value, so vector r is row r of
        the place's block of evaluation rows, packed.  Raises
        PlaceEvaluationError for the first function with a pole here."""
        return self._divided(range(len(self._family.functions)))

    def takes_powers(self, powers: Sequence[int]) -> list[bool]:
        """Whether the j-th function's value here is t^s, s = powers[j] <
        degree and t the residue generator, or 0 where s < 0: divisor != 0
        and num_j = t^s * divisor, read off one `ExtField.ladder` per
        distinct denominator, with no division."""
        res, lane = self._res, self._family.lane
        zero = res.zero()
        out = [False] * len(powers)
        for (idx, _), den in zip(self._family.dens, self._dens):
            if any(den):
                ladder = res.ladder(den)
                for j in idx:
                    s = powers[j]
                    out[j] = lane(self._num, j) == (ladder[s] if s >= 0 else zero)
        return out

    def _divided(self, wanted: Sequence[int]) -> list[int]:
        """The values as lane vectors, divided out on the first call; raises
        PlaceEvaluationError for the first function in `wanted` with a pole
        here."""
        if self._rows is None:
            res, lanes = self._res, self._family.lanes
            out = [0] * res.d
            for (idx, mask), den in zip(self._family.dens, self._dens):
                if not any(den):
                    self._poles.update(idx)
                    continue
                part = lanes.apply(res.mul_map(res.inv(den)), [u & mask for u in self._num])
                out = [o ^ p for o, p in zip(out, part)]
            self._rows = out
        for j in wanted:
            if j in self._poles:
                where = repr(self.place.label or self.place)
                if isinstance(self.place, InfinitePlace):
                    raise PlaceEvaluationError(f"function has a pole at {where}", j)
                raise PlaceEvaluationError(
                    f"denominator vanishes at place {where} (support collision)", j)
        return self._rows


def evaluate(curve: Curve, f: CurveFunction, place) -> list[int]:
    """Coordinates of f's value at a place, as `degree` base-field ints."""
    return PlaceEvaluator(curve, place, PackedFamily(curve, (f,))).value(0)


# ---------------------------------------------------------------------------
# place validity


def generates_residue(place: AffinePlace) -> bool:
    """Whether x_img and y_img generate the residue field as an algebra.

    They fail exactly when both lie in a common proper subfield, i.e. both
    are fixed by the Frobenius of some maximal subfield.
    """
    res = place.residue
    d = res.d
    if d == 1:
        return True
    q = res.base.order
    for p in _prime_factors(d):
        e = q ** (d // p)
        if res.pow(place.x_img, e) == place.x_img and res.pow(place.y_img, e) == place.y_img:
            return False
    return True


def beta_from_ideal(res: ExtField, y_num: Poly, y_den: Poly) -> tuple:
    """y_num(t)/y_den(t) at the residue generator t = x mod m, where a
    polynomial's value is its remainder mod m: the image of y at a place
    presented as y = y_num(x)/y_den(x) with x-image t (the usual F_q[x]/(m)),
    and the rhs(b) of `tools.check_total_split`."""
    num, den = [res.reduce(list(p) + [0] * res.d) for p in (y_num, y_den)]
    if not any(den):
        raise PlaceEvaluationError("y-presentation denominator vanishes at the place")
    return res.mul(num, res.inv(den))
