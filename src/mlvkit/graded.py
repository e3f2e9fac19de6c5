"""The graded ring of a valued field as a twisted semigroup ring.

gr(O_K) is modeled as the ring of finite sums sum b_i * T^(gamma_i) with
b_i in the residue field and gamma_i in the nonnegative value group,
where T^g * T^g' = twist(g, g') * T^(g+g') and the twist comes from the
descriptor's choice function.  With the default multiplicative choice
functions the twist is identically 1; override tables make it visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import NegativeValue, NotInValueGroup
from .fields import ValuedField
from .values import Q, is_inf, value_str


@dataclass(frozen=True)
class GradedTerm:
    """One homogeneous component: coeff * T^exp.  The zero term is (0, 0)."""

    coeff: object  # residue field element
    exp: Fraction


class SemigroupRingElement:
    """Finite sum of graded terms; exponents pairwise distinct, coeffs nonzero."""

    __slots__ = ("terms",)

    def __init__(self, terms: Tuple[Tuple[Fraction, object], ...]):
        self.terms = terms  # sorted by exponent, normalized by the constructor fns

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, SemigroupRingElement) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"SemigroupRingElement({self.terms!r})"


def element(K: ValuedField, pairs) -> SemigroupRingElement:
    """Build an element from (exponent, coeff) pairs, combining and normalizing."""
    R = K.residue_field
    acc: Dict[Fraction, object] = {}
    for exp, c in pairs:
        exp = Q(exp)
        if exp < 0:
            raise NegativeValue("semigroup ring exponents must be >= 0")
        if exp != 0 and not K.value_group.contains(exp):
            raise NotInValueGroup(f"exponent {exp} is not in {K.value_group}")
        if exp in acc:
            acc[exp] = R.add(acc[exp], c)
        else:
            acc[exp] = c
    items = tuple(sorted(((e, c) for e, c in acc.items() if not R.is_zero(c)),
                         key=lambda t: t[0]))
    return SemigroupRingElement(items)


def zero_element(K: ValuedField) -> SemigroupRingElement:
    return SemigroupRingElement(())


def from_term(K: ValuedField, term: GradedTerm) -> SemigroupRingElement:
    if K.residue_field.is_zero(term.coeff):
        return zero_element(K)
    return element(K, [(term.exp, term.coeff)])


class TwistTable:
    """Memoized twist(g, g') = residue(eps(g) eps(g') / eps(g+g'))."""

    def __init__(self, K: ValuedField):
        self.K = K
        self._cache: Dict[Tuple[Fraction, Fraction], object] = {}

    def twist(self, g: Fraction, gp: Fraction):
        g, gp = Q(g), Q(gp)
        if g > gp:
            g, gp = gp, g  # symmetric
        key = (g, gp)
        if key not in self._cache:
            K = self.K
            num = K.mul(K.choice(g), K.choice(gp))
            val = K.div(num, K.choice(g + gp))
            r = K.residue(val)
            if K.residue_field.is_zero(r):
                raise ArithmeticError("twist must be a unit")
            self._cache[key] = r
        return self._cache[key]


def initial_form(K: ValuedField, a) -> GradedTerm:
    """Image of a under gr(O_K) ~ Kv[T^(vK>=0)]: (a / eps(v(a)))v * T^v(a)."""
    v = K.valuate(a)
    if is_inf(v):
        return GradedTerm(K.residue_field.zero(), Q(0))
    if v < 0:
        raise NegativeValue(f"v(a) = {v} < 0")
    c = K.residue(K.div(a, K.choice(v)))
    return GradedTerm(c, v)


def add(K: ValuedField, x: SemigroupRingElement, y: SemigroupRingElement) -> SemigroupRingElement:
    return element(K, list(x.terms) + list(y.terms))


def twisted_mul(K: ValuedField, x: SemigroupRingElement, y: SemigroupRingElement,
                table: Optional[TwistTable] = None) -> SemigroupRingElement:
    table = table or TwistTable(K)
    R = K.residue_field
    pairs = []
    for ex, cx in x.terms:
        for ey, cy in y.terms:
            c = R.mul(R.mul(cx, cy), table.twist(ex, ey))
            pairs.append((ex + ey, c))
    return element(K, pairs)


def term_pow(K: ValuedField, term: GradedTerm, n: int,
             table: Optional[TwistTable] = None) -> GradedTerm:
    """n-fold twisted power of a single term: (b T^g)^n = b^n tau T^(ng)
    with tau the product of twist(ig, g) over i = 1..n-1."""
    table = table or TwistTable(K)
    R = K.residue_field
    if R.is_zero(term.coeff):
        return GradedTerm(R.zero(), Q(0))
    tau = R.one()
    for i in range(1, n):
        tau = R.mul(tau, table.twist(i * term.exp, term.exp))
    return GradedTerm(R.mul(R.pow(term.coeff, n), tau), n * term.exp)


def frobenius(K: ValuedField, x: SemigroupRingElement,
              table: Optional[TwistTable] = None) -> SemigroupRingElement:
    """x -> x^p.  Termwise: cross terms vanish in characteristic p because
    addition is coordinatewise and exponents stay distinct under scaling."""
    p = K.p
    if p <= 0:
        raise ArithmeticError("Frobenius requires positive residue characteristic")
    table = table or TwistTable(K)
    pairs = []
    for exp, c in x.terms:
        t = term_pow(K, GradedTerm(c, exp), p, table)
        pairs.append((t.exp, t.coeff))
    return element(K, pairs)


def check_psi_homomorphism(K: ValuedField, samples: List[Tuple[object, object]],
                           table: Optional[TwistTable] = None) -> List[dict]:
    """Check initial_form(ab) = initial_form(a) x initial_form(b); returns failures."""
    table = table or TwistTable(K)
    failures = []
    for a, b in samples:
        lhs = from_term(K, initial_form(K, K.mul(a, b)))
        rhs = twisted_mul(K, from_term(K, initial_form(K, a)),
                          from_term(K, initial_form(K, b)), table)
        if lhs != rhs:
            failures.append({"a": K.elem_str(a), "b": K.elem_str(b)})
    return failures


def frobenius_surjective(K: ValuedField):
    """("YES", None) or ("NO", ("VALUE_WITNESS", gamma) | ("RESIDUE_WITNESS", r)).

    Surjectivity holds iff the nonnegative value group is p-divisible and
    the residue field is perfect.  When both conditions fail, the residue
    witness is reported (it is the deeper obstruction).
    """
    perf, rwitness = K.residue_perfect()
    if perf == "IMPERFECT":
        return "NO", ("RESIDUE_WITNESS", rwitness)
    divisible, witness = K.value_group.p_divisible(K.p)
    if not divisible:
        return "NO", ("VALUE_WITNESS", witness)
    return "YES", None


@dataclass(frozen=True)
class NoRoot:
    reason: str


def pth_root(K: ValuedField, term: GradedTerm, table: Optional[TwistTable] = None):
    """A graded term whose Frobenius equals ``term``, or NoRoot."""
    R = K.residue_field
    p = K.p
    if R.is_zero(term.coeff):
        return GradedTerm(R.zero(), Q(0))
    exp = Q(term.exp, p)
    if not (exp == 0 or K.value_group.contains(exp)):
        return NoRoot(f"exponent {value_str(term.exp)}/{p} not in the value group")
    table = table or TwistTable(K)
    # (b' T^exp)^p = b'^p * tau * T^(p exp) with tau the accumulated twist
    tau = term_pow(K, GradedTerm(R.one(), exp), p, table).coeff
    target = R.div(term.coeff, tau)
    try:
        root = R.pth_root(target)
    except NotImplementedError:  # pragma: no cover
        root = None
    if root is None:
        return NoRoot(f"coefficient {R.elem_str(target)} has no p-th root in the residue field")
    return GradedTerm(root, exp)


def element_str(K: ValuedField, x: SemigroupRingElement) -> str:
    if x.is_zero():
        return "0"
    R = K.residue_field
    parts = []
    for exp, c in x.terms:
        cs = R.elem_str(c)
        if exp == 0:
            parts.append(cs)
            continue
        es = "T" if exp == 1 else (
            f"T^{exp.numerator}" if exp.denominator == 1
            else f"T^({exp.numerator}/{exp.denominator})")
        parts.append(es if cs == "1" else f"{cs}*{es}")
    return " + ".join(parts)
