"""Concrete computable valued fields.

Four families are supported, each giving exact arithmetic, an exact
valuation, residue and lift maps, and a choice function (a right inverse
of the valuation on the nonnegative value group):

* ``Qp(p)``           -- rationals with the p-adic valuation,
* ``Fqt(q)``          -- rational functions over GF(q), t-adic,
* ``FpPerf(p)``       -- the perfect closure GF(p)(t^(1/p^oo)), t-adic,
* ``Fpct(p)``         -- rational functions over GF(p)(c), t-adic
                         (imperfect residue field GF(p)(c)).

``Fqt`` and ``Fpct`` are one construction, ``TadicField``: B(t) with the
t-adic valuation for a coefficient field B that is also the residue
field.  B = GF(q) is perfect and B = GF(p)(c) is not, which is exactly
what the Frobenius criterion on gr(K) tells apart.

Elements are plain data: ``Fraction`` for Qp, ``RF`` pairs for the
t-adic families, and ``PerfElem`` (a level plus an RF in u = t^(1/p^k))
for the perfect closure.  Perfect-closure elements are normalized to the
minimal level.  Every descriptor also implements the generic Field
protocol over its own elements, so the polynomial toolbox applies
uniformly.

Default choice functions are the multiplicative ones (p^gamma, t^gamma);
a descriptor may carry a finite override table, which is what produces
nontrivial twists in the graded ring.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd
from typing import Dict

from . import fpoly
from .errors import (InvertZero, MixedFields, NegativeExponent, NegativeValue,
                     NotInValueGroup)
from .ffield import Field, GFp, GFq
from .ratfunc import RF, RatFuncField
from .values import INFINITY, Q, Value, ValueGroup, is_inf


@dataclass(frozen=True)
class PerfElem:
    """Element of GF(p)(t^(1/p^oo)) at level k, i.e. a rational function
    in u = t^(1/p^k).  Level is minimal: num and den are not both
    polynomials in u^p unless k = 0."""

    level: int
    rf: RF


class ValuedField(Field):
    kind: str
    p: int  # residue characteristic
    value_group: ValueGroup
    residue_field: Field

    def __init__(self):
        self.choice_overrides: Dict[Fraction, object] = {}

    # -- valuation interface -------------------------------------------------

    def valuate(self, a) -> Value:
        raise NotImplementedError

    def residue(self, a):
        raise NotImplementedError

    def lift(self, r):
        raise NotImplementedError

    def canonical_unit(self, w: Fraction):
        """The default multiplicative section of the valuation (any w in vK)."""
        raise NotImplementedError

    def choice(self, gamma: Value):
        """The choice function epsilon, honoring overrides; gamma >= 0 in vK."""
        if is_inf(gamma):
            raise NotInValueGroup("epsilon is undefined at infinity")
        gamma = Q(gamma)
        if gamma < 0:
            raise NegativeExponent(f"epsilon undefined at negative {gamma}")
        if not self.value_group.contains(gamma) and gamma != 0:
            raise NotInValueGroup(f"{gamma} is not in {self.value_group}")
        if gamma in self.choice_overrides:
            return self.choice_overrides[gamma]
        return self.canonical_unit(gamma)

    def with_choice_overrides(self, table: Dict[Fraction, object]) -> "ValuedField":
        """Copy of this descriptor with finitely many epsilon values replaced."""
        other = self._clone()
        for gamma, elt in table.items():
            gamma = Q(gamma)
            if gamma == 0:
                if not self.eq(elt, self.one()):
                    raise ValueError("epsilon(0) must be 1")
                continue
            if self.valuate(elt) != gamma:
                raise ValueError(f"override at {gamma} has wrong valuation")
            other.choice_overrides[gamma] = elt
        return other

    def _clone(self) -> "ValuedField":
        # descriptors are immutable apart from the override table, which
        # starts empty in the copy
        other = copy.copy(self)
        other.choice_overrides = {}
        return other

    def residue_perfect(self):
        """("PERFECT", None) or ("IMPERFECT", witness residue element)."""
        raise NotImplementedError

    def accepts(self, a) -> bool:
        """Structural check that ``a`` looks like one of our elements."""
        raise NotImplementedError

    def descriptor_str(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.descriptor_str()


class QpField(ValuedField):
    """Rationals with the p-adic valuation.  Elements are Fractions."""

    kind = "Qp"

    def __init__(self, p: int):
        super().__init__()
        GFp(p)  # primality check
        self.p = p
        self.char = 0
        self.value_group = ValueGroup(Q(1), None)
        self.residue_field = GFp(p)

    _ZERO = Q(0)
    _ONE = Q(1)

    def zero(self):
        return self._ZERO

    def one(self):
        return self._ONE

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise InvertZero("division by zero in Qp")
        return self._ONE / a

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return Q(n)

    def valuate(self, a) -> Value:
        a = Q(a)
        if a == 0:
            return INFINITY
        v = 0
        num, den = a.numerator, a.denominator
        while num % self.p == 0:
            num //= self.p
            v += 1
        while den % self.p == 0:
            den //= self.p
            v -= 1
        return Q(v)

    def residue(self, a):
        a = Q(a)
        v = self.valuate(a)
        if is_inf(v):
            return 0
        if v < 0:
            raise NegativeValue(f"v({a}) = {v} < 0")
        if v > 0:
            return 0
        num = a.numerator % self.p
        den = a.denominator % self.p
        return num * pow(den, -1, self.p) % self.p

    def lift(self, r):
        return Q(r % self.p)

    def canonical_unit(self, w):
        w = Q(w)
        if w.denominator != 1:
            raise NotInValueGroup(f"{w} is not in Z")
        return Q(self.p) ** w.numerator

    def residue_perfect(self):
        return "PERFECT", None

    def pth_root(self, a):
        raise ArithmeticError("Qp has characteristic zero")

    def accepts(self, a):
        return isinstance(a, (Fraction, int))

    def elem_str(self, a):
        a = Q(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    @property
    def key(self):
        return ("Qp", self.p)

    def descriptor_str(self):
        return f"Qp({self.p})"


class TadicField(ValuedField):
    """B(t) with the t-adic valuation, for a coefficient field B that is
    also the residue field.  Elements are RF over B."""

    def __init__(self, B: Field):
        super().__init__()
        self.coeff_field = B
        self.p = B.char
        self.char = B.char
        self.rff = RatFuncField(B, "t")
        self.value_group = ValueGroup(Q(1), None)
        self.residue_field = B

    def zero(self):
        return self.rff.zero()

    def one(self):
        return self.rff.one()

    def add(self, a, b):
        return self.rff.add(a, b)

    def neg(self, a):
        return self.rff.neg(a)

    def mul(self, a, b):
        return self.rff.mul(a, b)

    def inv(self, a):
        if self.rff.is_zero(a):
            raise InvertZero(f"division by zero in {self.descriptor_str()}")
        return self.rff.inv(a)

    def eq(self, a, b):
        return self.rff.eq(a, b)

    def is_zero(self, a):
        return self.rff.is_zero(a)

    def from_int(self, n):
        return self.rff.from_int(n)

    def t(self):
        return self.rff.var()

    def valuate(self, a) -> Value:
        k = self.rff.ord_var(a)
        return INFINITY if k is None else Q(k)

    def residue(self, a):
        v = self.valuate(a)
        if is_inf(v):
            return self.coeff_field.zero()
        if v < 0:
            raise NegativeValue(f"t-adic value {v} < 0")
        return self.rff.residue_at_zero(a)

    def lift(self, r):
        return self.rff.make(fpoly.const(self.coeff_field, r), (self.coeff_field.one(),))

    def canonical_unit(self, w):
        w = Q(w)
        if w.denominator != 1:
            raise NotInValueGroup(f"{w} is not in Z")
        k = w.numerator
        one = self.coeff_field.one()
        zero = self.coeff_field.zero()
        tk = (zero,) * abs(k) + (one,)
        if k >= 0:
            return self.rff.make(tk, (one,))
        return self.rff.make((one,), tk)

    def residue_perfect(self):
        # a finite residue field is perfect; GF(p)(c) is not, c has no p-th root
        B = self.coeff_field
        if B.order is not None:
            return "PERFECT", None
        return "IMPERFECT", B.var()

    def pth_root(self, a):
        r = self.rff.pth_root(a)
        if r is None:
            raise ArithmeticError(f"element is not a p-th power in {self.descriptor_str()}")
        return r

    def accepts(self, a):
        return isinstance(a, RF) and _rf_over(self.coeff_field, a)

    def elem_str(self, a):
        return self.rff.elem_str(a)


class FqtField(TadicField):
    """GF(q)(t) with the t-adic valuation; residue field GF(q)."""

    kind = "Fqt"

    def __init__(self, q: int):
        super().__init__(GFq(q))
        self.q = q

    @property
    def key(self):
        return ("Fqt", self.q)

    def descriptor_str(self):
        return f"Fq({self.q},t)"


class FpPerfField(ValuedField):
    """The perfect closure GF(p)(t^(1/p^oo)), t-adic.

    An element lives at a finite level k as a rational function in
    u = t^(1/p^k); arithmetic promotes to a common level and then
    renormalizes to the minimal level.
    """

    kind = "FpPerf"

    def __init__(self, p: int):
        super().__init__()
        self.coeff_field = GFp(p)
        self.p = p
        self.char = p
        self.rff = RatFuncField(self.coeff_field, "u")
        self.value_group = ValueGroup(Q(1), p)
        self.residue_field = self.coeff_field

    # -- level bookkeeping ---------------------------------------------------

    def _normalize(self, k: int, a: RF) -> PerfElem:
        # u -> u^(1/p) applies while every nonzero exponent is divisible by
        # p: that is v_p of the gcd of the exponents, capped at k
        p = self.p
        while k > 0:
            g = gcd(*compress(range(len(a.num)), a.num),
                    *compress(range(len(a.den)), a.den))
            drop = 0
            while drop < k and g % p == 0:
                g //= p
                drop += 1
            if drop == 0:
                break
            step = p ** drop
            a = self.rff.make(a.num[::step], a.den[::step])
            k -= drop
        return PerfElem(k, a)

    def _promote(self, e: PerfElem, k: int) -> RF:
        if k < e.level:
            raise ValueError("cannot demote a perfect-closure element")
        if k == e.level:
            return e.rf
        step = self.p ** (k - e.level)

        def up(cc):
            if not cc:
                return ()
            out = [0] * ((len(cc) - 1) * step + 1)
            out[::step] = cc
            return tuple(out)

        return RF(up(e.rf.num), up(e.rf.den))

    def _binop(self, a: PerfElem, b: PerfElem, op) -> PerfElem:
        k = max(a.level, b.level)
        ra = self._promote(a, k)
        rb = self._promote(b, k)
        return self._normalize(k, op(ra, rb))

    def zero(self):
        return PerfElem(0, self.rff.zero())

    def one(self):
        return PerfElem(0, self.rff.one())

    def t(self):
        return PerfElem(0, self.rff.var())

    def add(self, a, b):
        return self._binop(a, b, self.rff.add)

    def neg(self, a):
        return PerfElem(a.level, self.rff.neg(a.rf))

    def mul(self, a, b):
        return self._binop(a, b, self.rff.mul)

    def inv(self, a):
        if self.rff.is_zero(a.rf):
            raise InvertZero("division by zero in the perfect closure")
        return PerfElem(a.level, self.rff.inv(a.rf))

    def eq(self, a, b):
        k = max(a.level, b.level)
        return self.rff.eq(self._promote(a, k), self._promote(b, k))

    def is_zero(self, a):
        return self.rff.is_zero(a.rf)

    def from_int(self, n):
        return PerfElem(0, self.rff.from_int(n))

    def valuate(self, a) -> Value:
        k = self.rff.ord_var(a.rf)
        if k is None:
            return INFINITY
        return Q(k, self.p ** a.level)

    def residue(self, a):
        v = self.valuate(a)
        if is_inf(v):
            return self.coeff_field.zero()
        if v < 0:
            raise NegativeValue(f"t-adic value {v} < 0")
        return self.rff.residue_at_zero(a.rf)

    def lift(self, r):
        return PerfElem(0, self.rff.make(fpoly.const(self.coeff_field, r),
                                         (self.coeff_field.one(),)))

    def canonical_unit(self, w):
        w = Q(w)
        if not self.value_group.contains(w) and w != 0:
            raise NotInValueGroup(f"{w} is not in Z[1/{self.p}]")
        k = 0
        while (w * self.p ** k).denominator != 1:
            k += 1
        a = (w * self.p ** k).numerator
        one = self.coeff_field.one()
        zero = self.coeff_field.zero()
        ua = (zero,) * abs(a) + (one,)
        if a >= 0:
            rf = self.rff.make(ua, (one,))
        else:
            rf = self.rff.make((one,), ua)
        return self._normalize(k, rf)

    def residue_perfect(self):
        return "PERFECT", None

    def pth_root(self, a):
        # t^(1/p^k) always has p-th roots: just raise the level.
        return self._normalize(a.level + 1, a.rf)

    def accepts(self, a):
        return isinstance(a, PerfElem) and _rf_over(self.coeff_field, a.rf)

    def elem_str(self, a):
        B = self.coeff_field
        den = self.p ** a.level

        def side(cc):
            parts = []
            for i in range(len(cc) - 1, -1, -1):
                c = cc[i]
                if B.is_zero(c):
                    continue
                e = Q(i, den)
                if e == 0:
                    parts.append(B.elem_str(c))
                    continue
                es = f"t^({e.numerator}/{e.denominator})" if e.denominator != 1 else (
                    "t" if e == 1 else f"t^{e.numerator}")
                cs = B.elem_str(c)
                parts.append(es if cs == "1" else f"{cs}*{es}")
            return " + ".join(parts) if parts else "0"

        ns = side(a.rf.num)
        if fpoly.eq(B, a.rf.den, (B.one(),)):
            return ns
        ds = side(a.rf.den)
        if " + " in ns:
            ns = f"({ns})"
        if " + " in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    @property
    def key(self):
        return ("FpPerf", self.p)

    def descriptor_str(self):
        return f"FpPerf({self.p},t)"


class FpctField(TadicField):
    """GF(p)(c)(t) with the t-adic valuation; residue field GF(p)(c)."""

    kind = "Fpct"

    def __init__(self, p: int):
        super().__init__(RatFuncField(GFp(p), "c"))

    def c(self):
        B = self.coeff_field
        return self.rff.make(fpoly.const(B, B.var()), (B.one(),))

    @property
    def key(self):
        return ("Fpct", self.p)

    def descriptor_str(self):
        return f"FpC({self.p},c,t)"


def _rf_over(B: Field, a: RF) -> bool:
    if isinstance(B, GFp):
        return all(isinstance(c, int) and 0 <= c < B.p for c in a.num + a.den)
    if isinstance(B, RatFuncField):
        return all(isinstance(c, RF) for c in a.num + a.den)
    return all(isinstance(c, tuple) for c in a.num + a.den)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

ADD, MUL, NEG, INV = "ADD", "MUL", "NEG", "INV"


def field_arith(K: ValuedField, op: str, a, b=None):
    """Exact field arithmetic behind a structural element check.

    The MIXED_FIELDS check is structural: it rejects elements whose data
    shape does not match the descriptor (a Qp rational fed to a t-adic
    field, mismatched coefficient ranges, and so on).  Descriptors whose
    elements share a literal representation (for example Qp(2) and Qp(3),
    which both act on plain rationals) are not distinguished.
    """
    for x in (a, b):
        if x is not None and not K.accepts(x):
            raise MixedFields(f"element {x!r} does not belong to {K.descriptor_str()}")
    if op == ADD:
        return K.add(a, b)
    if op == MUL:
        return K.mul(a, b)
    if op == NEG:
        return K.neg(a)
    if op == INV:
        return K.inv(a)
    raise ValueError(f"unknown op {op}")


def value_group_p_divisible(G: ValueGroup, p: int):
    """("YES", None) or ("NO", witness) for p-divisibility of G."""
    ok, witness = G.p_divisible(p)
    return ("YES", None) if ok else ("NO", witness)
