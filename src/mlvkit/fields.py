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
``ValuedField``; a family supplies its arithmetic and four small hooks:
``initial`` (the value of a nonzero element and the residue of its
quotient by p^w or t^w, read off its lowest term), ``_unit``, ``_inv``
and ``_pth_root``.  The valuation is read off ``initial``.

``Fqt`` and ``Fpct`` are one construction, ``TadicField``: the rational
function field B(t) (a RatFuncField) with the t-adic valuation on top,
for a coefficient field B that is also the residue field.  B = GF(q) is
perfect and B = GF(p)(c) is not, which is exactly what the Frobenius
criterion on gr(K) tells apart.

Elements are plain canonical data, so equality is ``==`` (the rule of
ffield.Field): for Qp an ``int`` when integral, else a ``Fraction``
(equal values compare equal across the two); reduced ``RF`` records with
a monic denominator for the t-adic families; and ``PerfElem`` for the
perfect closure: the minimal level k plus, when the reduced denominator
is a monomial, the sorted (exponent, coefficient) terms of a Laurent
polynomial in u = t^(1/p^k), and otherwise a dense RF in u.  Each
family's ``accepts`` checks this canonical form, and ``field_arith``
calls it on every operand.  Every descriptor also implements the generic
Field protocol over its own elements, so the polynomial toolbox applies
uniformly.

Default choice functions are the multiplicative ones (p^gamma, t^gamma);
a descriptor may carry a finite override table, which is what produces
nontrivial twists in the graded ring.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from itertools import compress
from math import comb, gcd
from typing import Dict, NamedTuple, Optional

from . import fpoly
from .errors import (InvertZero, MixedFields, NegativeExponent, NegativeValue,
                     NotInValueGroup)
from .ffield import Field, GFp, GFq
from .ratfunc import RF, RatFuncField
from .values import (INFINITY, Q, Value, ValueGroup, is_inf, ratio, split_p, term_str,
                     value_str)


class PerfElem(NamedTuple):
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

    A family supplies its element arithmetic, ``lift``, ``accepts`` and
    four hooks:

    * ``initial(a)``: (b, w) with w = v(a) and b the residue of a / p^w
      (or a / t^w), for a != 0, read off the lowest term of a without
      forming the quotient;
    * ``_unit(w)``: the canonical unit p^w or t^w, for w in vK;
    * ``_inv(a)``: the inverse of a, for a != 0;
    * ``_pth_root(a)``: the p-th root of a, or None when there is none
      (positive characteristic only).

    ``term(r, w)``, the element lift(r) * U(w) of residue r and value w
    (zero when r = 0), is that product by default; a family may build it
    directly, with the same check of w.

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

    def valuate(self, a) -> Value:
        return INFINITY if self.is_zero(a) else self.initial(a)[1]

    def residue(self, a):
        if self.is_zero(a):
            return self.residue_field.zero()
        b, v = self.initial(a)
        if v < 0:
            raise NegativeValue(f"v({self.elem_str(a)}) = {v} < 0")
        return self.residue_field.zero() if v else b

    def canonical_unit(self, w):
        """The default multiplicative section of the valuation (any w in vK)."""
        if not self.value_group.contains(w):
            raise self._outside(w)
        return self._unit(w)

    def _outside(self, w) -> NotInValueGroup:
        return NotInValueGroup(f"{w} is not in {self.value_group}")

    def term(self, r, w):
        """lift(r) * U(w) for a residue r and w in vK: the coefficient of a
        depth-zero homogeneous lift and of a moved centre."""
        return self.mul(self.lift(r), self.canonical_unit(w))

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

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n

    def initial(self, a):
        # p stripped from numerator and denominator once; an integral
        # element, as in every corpus call, has no denominator to strip
        p = self.p
        v, num = split_p(a.numerator, p)
        if a.denominator == 1:
            return num % p, v
        w, den = split_p(a.denominator, p)
        return num * pow(den, -1, p) % p, v - w

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
    initial = RatFuncField.lowest_term

    def valuate(self, a) -> Value:
        # the orders of numerator and denominator, without the division of
        # their lowest coefficients that initial makes
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
        return _canonical_rf(self, a)


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
        divisible by p, so v_p(g) capped at k (all k for g = 0, a constant).
        A g prime to p is told apart first: every call of a perfect_closure
        benchmark round has one, and calling split_p for it made the call
        2.5 times as slow."""
        if not g:
            return k
        return min(split_p(g, self.p)[0], k) if g % self.p == 0 else 0

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
            return self._sparse(k, _reduced(d, self.p))
        return self._from_rf(k, dense_op(self._dense(a, k), self._dense(b, k)))

    def sparse_taylor_shift(self, f, a) -> Optional[list]:
        """The coefficients of f in powers of (x - a), as for
        ``fpoly.taylor_shift``, when a and every coefficient of f are
        sparse; None when one is dense.  Output i is the sum over j >= i
        of binom(j, i) * f_j * a^(j-i): its terms are summed at one level,
        the largest among the operands, and normalized once.  The powers
        of a one-term a = c*u^e are the terms (j*e, c^j mod p), with no
        product.  An output that no f_j with j > i reaches (binom(j, i) = 0
        mod p or f_j = 0 for each) is f_i, already canonical: it is
        passed through as it is."""
        if a.rf is not None or any(c.rf is not None for c in f):
            return None
        p, n = self.p, len(f)
        k = max([a.level] + [c.level for c in f])
        fs = [self._terms_at(c, k) for c in f]
        at = self._terms_at(a, k)
        if len(at) == 1:
            (e, c), = at
            powers = [((j * e, pow(c, j, p)),) for j in range(n)]
        else:
            powers = [((0, 1),)]  # a^j at level k
            for _ in range(n - 1):
                powers.append(_reduced(_mul_terms(powers[-1], at), p))
        out = []
        for i in range(n):
            d: Dict[int, int] = {}
            for j in range(i + 1, n):
                b = comb(j, i) % p
                if not b or not fs[j]:
                    continue
                for e1, c1 in fs[j]:
                    c1 *= b
                    for e2, c2 in powers[j - i]:
                        e = e1 + e2
                        d[e] = d.get(e, 0) + c1 * c2
            if not d:
                out.append(f[i])
                continue
            for e1, c1 in fs[i]:
                d[e1] = d.get(e1, 0) + c1
            out.append(self._sparse(k, _reduced(d, p)))
        return out

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
        p = self.p
        if p == 2:  # -a = a in characteristic 2
            return a
        if a.rf is not None:
            return PerfElem(a.level, rf=self.rff.neg(a.rf))
        return PerfElem(a.level, tuple([(e, p - c) for e, c in a.terms]))

    def mul(self, a, b):
        return self._binop(a, b, _mul_terms, self.rff.mul)

    def _inv(self, a):
        if a.rf is None and len(a.terms) == 1:
            (e, c), = a.terms
            return PerfElem(a.level, ((-e, pow(c, -1, self.p)),))
        return self._from_rf(a.level, self.rff.inv(self._dense(a, a.level)))

    def is_zero(self, a):
        return not a.terms and a.rf is None

    def from_int(self, n):
        n %= self.p
        return PerfElem(0, ((0, n),)) if n else self._zero

    def initial(self, a):
        # the value e / p^level of the lowest exponent e in u, and its
        # coefficient: the first sparse term, or the lowest terms of the rf
        if a.rf is not None:
            b, e = self.rff.lowest_term(a.rf)
        else:
            e, b = a.terms[0]
        return b, ratio(e, self.p ** a.level)

    def lift(self, r):
        return self.from_int(r)

    def _unit(self, w):
        # w is in Z[1/p]: its denominator is p^k, k the level
        return PerfElem(split_p(w.denominator, self.p)[0], ((w.numerator, 1),))

    def term(self, r, w):
        # one term r * u^num in u = t^(1/p^level), w = num / p^level
        level, rest = (0, 0) if w is INFINITY else split_p(w.denominator, self.p)
        if rest != 1:
            raise self._outside(w)
        r %= self.p
        return PerfElem(level, ((w.numerator, r),)) if r else self._zero

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
        return (a.terms == () and _canonical_rf(self.rff, a.rf)
                and self._from_rf(a.level, a.rf) == a)

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
            # exponents of u = t^(1/p^level), printed highest first in t,
            # each i/u reduced by gcd(i, u) (a Fraction costs more per term)
            parts = []
            for i, c in reversed(terms):
                g = gcd(i, u)
                parts.append(term_str(str(c), "t", i // g, u // g))
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


def _reduced(d: dict, p: int) -> tuple:
    """The sorted nonzero terms of {exponent: coefficient}, mod p."""
    terms = []
    for e in sorted(d):
        c = d[e] % p
        if c:
            terms.append((e, c))
    return tuple(terms)


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


def _canonical_rf(R: RatFuncField, a) -> bool:
    """a is the canonical data of an element of R = B(v): an RF of tuples
    of canonical B elements with no trailing zeros, gcd-reduced, with a
    monic denominator (``make`` returns it unchanged)."""
    if not (isinstance(a, RF) and isinstance(a.num, tuple) and isinstance(a.den, tuple)
            and a.den):
        return False
    B = R.base
    if isinstance(B, RatFuncField):
        coeffs_ok = all(_canonical_rf(B, c) for c in a.num + a.den)
    else:
        coeffs_ok = all(_finite_elem(B, c) for c in a.num + a.den)
    return (coeffs_ok and fpoly.norm(B, a.num) == a.num and fpoly.norm(B, a.den) == a.den
            and R.make(a.num, a.den) == a)


def _finite_elem(B: Field, c) -> bool:
    """c is the canonical data of an element of GF(p) or of an extension:
    an int in [0, p), or a tuple of at most B.degree base elements without
    trailing zeros."""
    if isinstance(B, GFp):
        return isinstance(c, int) and 0 <= c < B.p
    return (isinstance(c, tuple) and len(c) <= B.degree and not (c and B.base.is_zero(c[-1]))
            and all(_finite_elem(B.base, d) for d in c))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

ADD, MUL, NEG, INV = "ADD", "MUL", "NEG", "INV"


def field_arith(K: ValuedField, op: str, a, b=None):
    """Exact field arithmetic behind a structural element check.

    The MIXED_FIELDS check is structural: it rejects elements whose data
    is not the canonical data of an element of the descriptor (a Qp
    rational fed to a t-adic field, mismatched coefficient ranges, an
    unreduced rational function, and so on), since ``eq`` compares data
    with ``==``.  Descriptors whose elements share a literal
    representation (for example Qp(2) and Qp(3), which both act on plain
    rationals) are not distinguished.
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

