"""Concrete computable valued fields.

Four families are supported, each giving exact arithmetic, an exact
valuation, residue and lift maps, and a choice function (a right inverse
of the valuation on the nonnegative value group):

* ``Qp(p)``           -- rationals with the p-adic valuation,
* ``Fqt(q)``          -- rational functions over GF(q), t-adic,
* ``FpPerf(p)``       -- the perfect closure GF(p)(t^(1/p^oo)), t-adic,
* ``Fpct(p)``         -- rational functions over GF(p)(c), t-adic
                         (imperfect residue field GF(p)(c)).

The rules every family shares -- residues, canonical units, inverses,
p-th-root refusals and descriptors -- are written once, in
``ValuedField``; a family supplies its valuation, its arithmetic and four
small hooks.

``Fqt`` and ``Fpct`` are one construction, ``TadicField``: the rational
function field B(t) (a RatFuncField) with the t-adic valuation on top,
for a coefficient field B that is also the residue field.  B = GF(q) is
perfect and B = GF(p)(c) is not, which is exactly what the Frobenius
criterion on gr(K) tells apart.

Elements are plain data: for Qp an ``int`` when integral, else a
``Fraction``; ``RF`` pairs for the t-adic families; and ``PerfElem`` for
the perfect closure: the minimal level k plus, when the reduced
denominator is a monomial, the sorted (exponent, coefficient) terms of a
Laurent polynomial in u = t^(1/p^k), and otherwise a dense RF in u.
Every descriptor also implements the generic Field protocol over its own
elements, so the polynomial toolbox applies uniformly.

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
from typing import Dict, Optional

from . import fpoly
from .errors import (InvertZero, MixedFields, NegativeExponent, NegativeValue,
                     NotInValueGroup)
from .ffield import Field, GFp, GFq, TableField
from .ratfunc import RF, RatFuncField
from .values import INFINITY, Q, Value, ValueGroup, is_inf, term_str, value_str


@dataclass(frozen=True)
class PerfElem:
    """Element of GF(p)(t^(1/p^oo)) at its minimal level k, written in
    u = t^(1/p^k); the level is minimal when k = 0 or some exponent in u
    is prime to p.

    An element whose reduced denominator is a monomial c*u^m is stored
    sparse: ``terms`` holds its nonzero terms as (exponent, coefficient)
    pairs sorted by exponent, with the denominator folded into negative
    (Laurent) exponents and coefficients ints in 1..p-1; zero has no
    terms.  Any other element keeps the dense rational function in u as
    ``rf``, with ``terms`` empty.  Both forms are canonical, so equal
    elements compare equal with ``==``."""

    level: int
    terms: tuple = ()
    rf: Optional[RF] = None


class ValuedField(Field):
    """The contract every family keeps.

    A family supplies ``valuate``, its element arithmetic, ``lift``,
    ``accepts`` and four hooks:

    * ``_unit_residue(a)``: the residue of a, for v(a) = 0;
    * ``_unit(w)``: the canonical unit p^w or t^w, for w in vK;
    * ``_inv(a)``: the inverse of a, for a != 0;
    * ``_pth_root(a)``: the p-th root of a, or None when there is none
      (positive characteristic only).

    It declares its descriptor as ``name`` and ``args`` (the integer
    argument, then fixed variable names: "Fq" and "q,t" for Fq(4,t)).
    The rules built on these, and the errors they raise, live here once.
    """

    kind: str
    name: str
    args: str
    p: int  # residue characteristic
    value_group: ValueGroup
    residue_field: Field

    def __init__(self, n: int):
        self.n = n  # the integer argument of the descriptor
        self.key = (self.kind, n)
        self.choice_overrides: Dict[Fraction, object] = {}

    # -- valuation interface -------------------------------------------------

    def residue(self, a):
        v = self.valuate(a)
        if v < 0:
            raise NegativeValue(f"v({self.elem_str(a)}) = {v} < 0")
        if v:  # v > 0, INFINITY included
            return self.residue_field.zero()
        return self._unit_residue(a)

    def canonical_unit(self, w):
        """The default multiplicative section of the valuation (any w in vK)."""
        if not self.value_group.contains(w):
            raise NotInValueGroup(f"{w} is not in {self.value_group}")
        return self._unit(w)

    def inv(self, a):
        if self.is_zero(a):
            raise InvertZero(f"division by zero in {self.descriptor_str()}")
        return self._inv(a)

    def pth_root(self, a):
        if not self.char:
            raise ArithmeticError(f"{self.descriptor_str()} has characteristic zero")
        r = self._pth_root(a)
        if r is None:
            raise ArithmeticError(f"element is not a p-th power in {self.descriptor_str()}")
        return r

    def choice(self, gamma: Value):
        """The choice function epsilon, honoring overrides; gamma >= 0 in vK."""
        if is_inf(gamma):
            raise NotInValueGroup("epsilon is undefined at infinity")
        gamma = Q(gamma)
        if gamma < 0:
            raise NegativeExponent(f"epsilon undefined at negative {gamma}")
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
        """("PERFECT", None) or ("IMPERFECT", witness residue element): a
        finite residue field is perfect, and the one infinite residue
        field here, GF(p)(c), is not (c has no p-th root)."""
        if self.residue_field.order is not None:
            return "PERFECT", None
        return "IMPERFECT", self.residue_field.var()

    def descriptor_str(self) -> str:
        variables = self.args.split(",")[1:]
        return f"{self.name}({','.join([str(self.n), *variables])})"

    def __repr__(self):
        return self.descriptor_str()


class QpField(ValuedField):
    """Rationals with the p-adic valuation.  Elements are ints when
    integral, else Fractions; an int and a Fraction of equal value compare
    and hash alike, so results of arithmetic need no normalizing."""

    kind, name, args = "Qp", "Qp", "p"

    def __init__(self, p: int):
        super().__init__(p)
        GFp(p)  # primality check
        self.p = p
        self.char = 0
        self.value_group = ValueGroup(Q(1), None)
        self.residue_field = GFp(p)

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def _inv(self, a):
        num, den = a.numerator, a.denominator
        if num < 0:
            num, den = -num, -den
        return den if num == 1 else Q(den, num)

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n

    def valuate(self, a) -> Value:
        num, den = a.numerator, a.denominator
        if num == 0:
            return INFINITY
        p = self.p
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v

    def _unit_residue(self, a):
        p = self.p
        return a.numerator % p * pow(a.denominator % p, -1, p) % p

    def lift(self, r):
        return r % self.p

    def _unit(self, w):
        n = w.numerator
        return self.p ** n if n >= 0 else Q(1, self.p ** -n)

    def accepts(self, a):
        # type(a) is int, so that True cannot pass as 1
        return type(a) is int or isinstance(a, Fraction)

    # an int or a Fraction prints as its value
    elem_str = staticmethod(value_str)


class TadicField(ValuedField, RatFuncField):
    """B(t) with the t-adic valuation, for a coefficient field B that is
    also the residue field.  Elements are RF over B: the arithmetic is
    that of RatFuncField(B, "t"), with the valuation on top."""

    def __init__(self, B: Field, n: int):
        ValuedField.__init__(self, n)
        RatFuncField.__init__(self, B, "t")
        self.coeff_field = B
        self.p = B.char
        self.value_group = ValueGroup(Q(1), None)
        self.residue_field = B

    t = RatFuncField.var
    _inv = RatFuncField.inv
    _pth_root = RatFuncField.pth_root
    _unit_residue = RatFuncField.residue_at_zero

    def valuate(self, a) -> Value:
        k = self.ord_var(a)
        return INFINITY if k is None else k

    def lift(self, r):
        return self.make(fpoly.const(self.coeff_field, r), (self.coeff_field.one(),))

    def _unit(self, w):
        k = w.numerator
        one = self.coeff_field.one()
        zero = self.coeff_field.zero()
        tk = (zero,) * abs(k) + (one,)
        if k >= 0:
            return self.make(tk, (one,))
        return self.make((one,), tk)

    def accepts(self, a):
        return isinstance(a, RF) and _rf_over(self.coeff_field, a)


class FqtField(TadicField):
    """GF(q)(t) with the t-adic valuation; residue field GF(q)."""

    kind, name, args = "Fqt", "Fq", "q,t"

    def __init__(self, q: int):
        super().__init__(GFq(q), q)


class FpPerfField(ValuedField):
    """The perfect closure GF(p)(t^(1/p^oo)), t-adic.

    An element lives at its minimal level k in u = t^(1/p^k) (see
    PerfElem).  Sparse operands combine their terms at the larger level,
    and the result drops to its minimal level: the cost follows the
    number of nonzero terms, not the degree in u.  An operation with a
    dense operand promotes both to dense rational functions in u, runs
    the RatFuncField arithmetic and turns the result back into terms
    when its reduced denominator is a monomial.
    """

    kind, name, args = "FpPerf", "FpPerf", "p,t"

    def __init__(self, p: int):
        super().__init__(p)
        self.coeff_field = GFp(p)
        self.p = p
        self.char = p
        self.rff = RatFuncField(self.coeff_field, "u")
        self.value_group = ValueGroup(Q(1), p)
        self.residue_field = self.coeff_field
        self._zero = PerfElem(0)
        self._one = PerfElem(0, ((0, 1),))

    # -- level bookkeeping ---------------------------------------------------

    def _drop(self, k: int, g: int) -> int:
        """How many levels an element at level k can drop when g is the gcd
        of its exponents in u: u -> u^(1/p) applies while every exponent is
        divisible by p, so v_p(g) capped at k (all k for g = 0, a constant)."""
        drop = 0
        while drop < k and g % self.p == 0:
            g //= self.p
            drop += 1
        return drop

    def _sparse(self, k: int, terms: tuple) -> PerfElem:
        """The element with these sorted nonzero terms in u = t^(1/p^k)."""
        drop = self._drop(k, gcd(*[e for e, _ in terms])) if k else 0
        if drop:
            step = self.p ** drop
            terms = tuple([(e // step, c) for e, c in terms])
        return PerfElem(k - drop, terms)

    def _from_rf(self, k: int, a: RF) -> PerfElem:
        """The element a, a reduced rational function in u = t^(1/p^k)."""
        num, den = a.num, a.den
        if not any(den[:-1]):
            # the monic denominator is u^m: fold it into the exponents
            m = len(den) - 1
            return self._sparse(k, tuple([(i - m, c) for i, c in enumerate(num) if c]))
        drop = self._drop(k, gcd(*compress(range(len(num)), num),
                                 *compress(range(len(den)), den))) if k else 0
        if drop:
            step = self.p ** drop
            a = RF(num[::step], den[::step])
        return PerfElem(k - drop, rf=a)

    def _dense(self, e: PerfElem, k: int) -> RF:
        """e as a reduced rational function in u = t^(1/p^k), k >= e.level."""
        step = self.p ** (k - e.level)
        if e.rf is not None:
            if step == 1:
                return e.rf
            return RF(_stretch(e.rf.num, step), _stretch(e.rf.den, step))
        if not e.terms:
            return self.rff.zero()
        m = min(e.terms[0][0], 0)
        num = [0] * ((e.terms[-1][0] - m) * step + 1)
        for x, c in e.terms:
            num[(x - m) * step] = c
        return RF(tuple(num), (0,) * (-m * step) + (1,))

    def _terms_at(self, e: PerfElem, k: int):
        """The terms of sparse e in u = t^(1/p^k), k >= e.level."""
        if e.level == k:
            return e.terms
        step = self.p ** (k - e.level)
        return [(x * step, c) for x, c in e.terms]

    def _binop(self, a: PerfElem, b: PerfElem, combine, dense_op) -> PerfElem:
        k = max(a.level, b.level)
        if a.rf is None and b.rf is None:
            d = combine(self._terms_at(a, k), self._terms_at(b, k))
            p = self.p
            terms = []
            for e in sorted(d):
                c = d[e] % p
                if c:
                    terms.append((e, c))
            return self._sparse(k, tuple(terms))
        return self._from_rf(k, dense_op(self._dense(a, k), self._dense(b, k)))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def t(self):
        return PerfElem(0, ((1, 1),))

    def add(self, a, b):
        if self.is_zero(a):
            return b
        if self.is_zero(b):
            return a
        return self._binop(a, b, _add_terms, self.rff.add)

    def neg(self, a):
        if a.rf is not None:
            return PerfElem(a.level, rf=self.rff.neg(a.rf))
        p = self.p
        return PerfElem(a.level, tuple([(e, p - c) for e, c in a.terms]))

    def mul(self, a, b):
        return self._binop(a, b, _mul_terms, self.rff.mul)

    def _inv(self, a):
        if a.rf is None and len(a.terms) == 1:
            (e, c), = a.terms
            return PerfElem(a.level, ((-e, pow(c, -1, self.p)),))
        return self._from_rf(a.level, self.rff.inv(self._dense(a, a.level)))

    def eq(self, a, b):
        # both forms are canonical
        return a == b

    def is_zero(self, a):
        return not a.terms and a.rf is None

    def from_int(self, n):
        n %= self.p
        return PerfElem(0, ((0, n),)) if n else self._zero

    def valuate(self, a) -> Value:
        # the value e / p^level of the lowest exponent e in u
        if a.rf is not None:
            e = self.rff.ord_var(a.rf)
        elif a.terms:
            e = a.terms[0][0]
        else:
            return INFINITY
        den = self.p ** a.level
        return e // den if e % den == 0 else Q(e, den)

    def _unit_residue(self, a):
        if a.rf is not None:
            return self.rff.residue_at_zero(a.rf)
        return a.terms[0][1]

    def lift(self, r):
        return self.from_int(r)

    def _unit(self, w):
        k, den = 0, w.denominator
        while den > 1:
            den //= self.p
            k += 1
        return PerfElem(k, ((w.numerator, 1),))

    def _pth_root(self, a):
        # t^(1/p^k) always has p-th roots: the same exponents one level up
        if a.rf is not None:
            return self._from_rf(a.level + 1, a.rf)
        return self._sparse(a.level + 1, a.terms)

    def accepts(self, a):
        # the shape, then the canonical form that eq relies on
        if not isinstance(a, PerfElem) or not isinstance(a.level, int) or a.level < 0:
            return False
        if a.rf is None:
            return _terms_over(self.p, a.terms) and self._sparse(a.level, a.terms) == a
        B, rf = self.coeff_field, a.rf
        if a.terms != () or not isinstance(rf, RF) or not _rf_over(B, rf):
            return False
        if not rf.den or fpoly.norm(B, rf.num) != rf.num or fpoly.norm(B, rf.den) != rf.den:
            return False
        return self._from_rf(a.level, self.rff.make(rf.num, rf.den)) == a

    def elem_str(self, a):
        if a.rf is not None:
            num = [(i, c) for i, c in enumerate(a.rf.num) if c]
            den = [(i, c) for i, c in enumerate(a.rf.den) if c]
        else:
            # printed as a polynomial over u^(-m), m the lowest exponent if negative
            m = min(a.terms[0][0], 0) if a.terms else 0
            num = [(e - m, c) for e, c in a.terms]
            den = [(-m, 1)]
        u = self.p ** a.level

        def side_str(terms):
            # exponents of u = t^(1/p^level), printed highest first in t
            parts = [term_str(str(c), "t", Q(i, u)) for i, c in reversed(terms)]
            return " + ".join(parts) or "0"
        ns = side_str(num)
        if den == [(0, 1)]:
            return ns
        ds = side_str(den)
        if " + " in ns:
            ns = f"({ns})"
        if " + " in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"


def _add_terms(s, t) -> dict:
    d = dict(s)
    for e, c in t:
        d[e] = d.get(e, 0) + c
    return d


def _mul_terms(s, t) -> dict:
    d = {}
    for e1, c1 in s:
        for e2, c2 in t:
            e = e1 + e2
            d[e] = d.get(e, 0) + c1 * c2
    return d


def _stretch(cc: tuple, step: int) -> tuple:
    """cc(u^step): the coefficient of u^i moves to u^(i*step)."""
    out = [0] * ((len(cc) - 1) * step + 1)
    out[::step] = cc
    return tuple(out)


def _terms_over(p: int, terms) -> bool:
    """Sorted (exponent, coefficient) pairs: strictly increasing int
    exponents and int coefficients in 1..p-1."""
    if not isinstance(terms, tuple):
        return False
    prev = None
    for term in terms:
        if not (isinstance(term, tuple) and len(term) == 2):
            return False
        e, c = term
        if not (isinstance(e, int) and isinstance(c, int) and 0 < c < p):
            return False
        if prev is not None and e <= prev:
            return False
        prev = e
    return True


class FpctField(TadicField):
    """GF(p)(c)(t) with the t-adic valuation; residue field GF(p)(c)."""

    kind, name, args = "Fpct", "FpC", "p,c,t"

    def __init__(self, p: int):
        super().__init__(RatFuncField(GFp(p), "c"), p)

    def c(self):
        B = self.coeff_field
        return self.make(fpoly.const(B, B.var()), (B.one(),))


def _rf_over(B: Field, a: RF) -> bool:
    if isinstance(B, (GFp, TableField)):
        # int codes: residues mod p, or GF(q) elements below q
        return all(isinstance(c, int) and 0 <= c < B.order for c in a.num + a.den)
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

