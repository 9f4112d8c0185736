"""Hyperelliptic curve models y^2 + y = rhs_num(x)/rhs_den(x) over GF(2^k),
their places, and evaluation of y-linear function representatives.

A function is carried as (ay(x)*y + b(x)) / den(x).  Places come in two
kinds: affine places, presented by an explicit residue field F_q[t]/(m)
together with the images of x and y in it; and places over x = infinity,
presented by the branch value y(infinity) in {0, 1}.  Evaluation at the
latter goes through power-series expansion in the local parameter s = 1/x.

`PlaceEvaluator` evaluates a whole family of functions (a basis) at one
place, computing once what the family shares: the powers of the x-image, the
value of each distinct polynomial, one inverse per distinct denominator, and
the y-branch series.  `evaluate` is its one-function case.
"""

from __future__ import annotations

from functools import reduce
from operator import xor
from typing import Sequence

from .galois import (
    BinaryField,
    ExtField,
    Poly,
    ZERO_POLY,
    poly_degree,
    poly_eval_ext,
    poly_from_coeffs,
    poly_gcd,
    _prime_factors,
)


class PlaceEvaluationError(Exception):
    """Raised when a function has a pole at the requested place."""


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

    @classmethod
    def constant_one(cls, field: BinaryField) -> "CurveFunction":
        return cls(field, ZERO_POLY, (1,), (1,))

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
    out = [0] * prec
    mul = field.mul
    for i, ai in enumerate(a[:prec]):
        if ai:
            for j, bj in enumerate(b[: prec - i]):
                if bj:
                    out[i + j] ^= mul(ai, bj)
    return out


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


class PlaceEvaluator:
    """Values of a fixed family of functions at one place, sharing the work
    the family repeats.

    At an affine place the powers of the x-image are tabulated once, up to
    the highest degree in the family; each distinct polynomial is then one
    linear combination of that table, formed once, and each distinct
    denominator costs one residue-field inversion.  At a place over
    x = infinity the y-branch is expanded once in the local parameter
    s = 1/x, to the largest precision the family needs, and each distinct
    denominator is inverted as a series once.

    The tables live on the object only; build one per place and drop it.
    """

    __slots__ = ("curve", "place", "functions", "_columns", "_branch", "_values", "_inverses")

    def __init__(self, curve: Curve, place, functions: Sequence[CurveFunction]):
        self.curve = curve
        self.place = place
        self.functions = tuple(functions)
        self._values: dict = {}
        self._inverses: dict = {}
        if isinstance(place, AffinePlace):
            res = place.residue
            top = max(len(p) for f in self.functions for p in (f.ay, f.b, f.den))
            powers = [res.one()]
            for _ in range(top - 1):
                powers.append(res.mul(powers[-1], place.x_img))
            # column r holds coordinate r of x_img^0, x_img^1, ...
            self._columns = tuple(zip(*powers))
        elif isinstance(place, InfinitePlace):
            prec = max(0, max(_pivot(f) for f in self.functions)) + 1
            self._branch = branch_series(curve, place.branch_y0, prec)
        else:
            raise TypeError(f"not a place: {place!r}")

    def value(self, j: int) -> list[int]:
        """Coordinates of the j-th function's value, as `degree` base-field
        ints; raises PlaceEvaluationError when it has a pole here."""
        f = self.functions[j]
        if isinstance(self.place, AffinePlace):
            return list(self._affine(f))
        return [self._at_infinity(f)]

    def _affine(self, f: CurveFunction) -> tuple:
        res = self.place.residue
        inv = self._inverses.get(f.den)
        if inv is None:
            dv = self._poly(f.den)
            if dv == res.zero():
                raise PlaceEvaluationError(
                    f"denominator vanishes at place {self.place.label or self.place!r} "
                    "(support collision)"
                )
            inv = self._inverses[f.den] = res.inv(dv)
        nv = self._poly(f.b)
        if f.ay:
            nv = res.add(res.mul(self._poly(f.ay), self.place.y_img), nv)
        return res.mul(nv, inv)

    def _poly(self, p: Poly) -> tuple:
        """p(x-image), as the combination sum_i p_i * x_img^i of the table."""
        v = self._values.get(p)
        if v is None:
            mul = self.curve.field.mul
            v = self._values[p] = tuple(
                reduce(xor, map(mul, p, column), 0) for column in self._columns
            )
        return v

    def _at_infinity(self, f: CurveFunction) -> int:
        """Writes f in s = 1/x and reads off the constant coefficient; any
        nonzero coefficient at a negative power is a pole."""
        m = max(len(f.ay), len(f.b), 1) - 1
        pivot = _pivot(f)
        if pivot < 0:
            # f vanishes to order deg(den) - m at the place
            return 0
        field = self.curve.field
        prec = pivot + 1
        # s^m * (ay(1/s) y(s) + b(1/s)), exact up to s^pivot
        a_shift = [0] * prec
        for i, c in enumerate(f.ay):
            if m - i < prec:
                a_shift[m - i] = c
        num = series_mul(field, a_shift, self._branch, prec)
        for i, c in enumerate(f.b):
            if m - i < prec:
                num[m - i] ^= c
        # f * s^pivot = num / reversed(den); den's leading coeff is nonzero
        inv = self._inverses.get(f.den)
        if inv is None:
            inv = self._inverses[f.den] = series_inv(
                field, list(reversed(f.den)), len(self._branch)
            )
        g = series_mul(field, num, inv, prec)
        if any(g[:pivot]):
            raise PlaceEvaluationError(
                f"function has a pole at {self.place.label or self.place!r}"
            )
        return g[pivot]


def _pivot(f: CurveFunction) -> int:
    """The power of s = 1/x whose coefficient is f's value at infinity:
    max(deg ay, deg b) - deg den."""
    return max(len(f.ay), len(f.b), 1) - len(f.den)


def evaluate(curve: Curve, f: CurveFunction, place) -> list[int]:
    """Coordinates of f's value at a place, as `degree` base-field ints."""
    return PlaceEvaluator(curve, place, (f,)).value(0)


# ---------------------------------------------------------------------------
# place validity


def on_curve_check(curve: Curve, place) -> bool:
    """Whether the place's data satisfies the curve equation."""
    if isinstance(place, InfinitePlace):
        try:
            c = rhs_series(curve, 2)
        except PlaceEvaluationError:
            return False
        return c[0] == 0
    if not isinstance(place, AffinePlace):
        raise TypeError(f"not a place: {place!r}")
    res = place.residue
    if res.base != curve.field:
        return False
    dv = poly_eval_ext(res, curve.rhs_den, place.x_img)
    if dv == res.zero():
        return False
    rhs = res.mul(poly_eval_ext(res, curve.rhs_num, place.x_img), res.inv(dv))
    y = place.y_img
    return res.add(res.mul(y, y), y) == rhs


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


def beta_from_ideal(
    res: ExtField, y_num: Poly, y_den: Poly, x_img: tuple | None = None
) -> tuple:
    """Image of y in a residue field presented as y = y_num(x)/y_den(x).

    With no explicit x_img the residue generator t itself is the x-image,
    which is the usual presentation F_q[x]/(m), t = x mod m.
    """
    if x_img is None:
        x_img = res.gen()
    dv = poly_eval_ext(res, y_den, x_img)
    if dv == res.zero():
        raise PlaceEvaluationError("y-presentation denominator vanishes at the place")
    return res.mul(poly_eval_ext(res, y_num, x_img), res.inv(dv))
