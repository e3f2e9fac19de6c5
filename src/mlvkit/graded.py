"""The graded ring of a valued field as a twisted semigroup ring.

gr(O_K) is modeled as the ring of finite sums sum b_i * T^(gamma_i) with
b_i in the residue field and gamma_i in the nonnegative value group,
where T^g * T^g' = twist(g, g') * T^(g+g') and the twist comes from the
descriptor's choice function.  With the default multiplicative choice
functions the twist is identically 1; override tables make it visible.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Tuple

from .errors import NegativeValue, NotInValueGroup
from .fields import ValuedField
from .values import Frozen, Q, term_str, value_str


class SemigroupRingElement:
    """Finite sum of terms b * T^g; exponents pairwise distinct, coeffs nonzero."""

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
        if not K.value_group.contains(exp):
            raise NotInValueGroup(f"exponent {exp} is not in {K.value_group}")
        if exp in acc:
            acc[exp] = R.add(acc[exp], c)
        else:
            acc[exp] = c
    items = tuple(sorted(((e, c) for e, c in acc.items() if not R.is_zero(c)),
                         key=lambda t: t[0]))
    return SemigroupRingElement(items)


def twist(K: ValuedField, g: Fraction, gp: Fraction):
    """twist(g, g') = residue(eps(g) eps(g') / eps(g+g')), a unit."""
    r = K.residue(K.div(K.mul(K.choice(g), K.choice(gp)), K.choice(g + gp)))
    if K.residue_field.is_zero(r):
        raise ArithmeticError("twist must be a unit")
    return r


def initial_form(K: ValuedField, a) -> SemigroupRingElement:
    """Image of a under gr(O_K) ~ Kv[T^(vK>=0)]: (a / eps(v(a)))v * T^v(a).

    Without an override at v(a), eps(v(a)) is the canonical unit and the
    coefficient is the one ``K.initial`` reads off the lowest term of a."""
    if K.is_zero(a):
        return SemigroupRingElement(())
    b, v = K.initial(a)
    if v < 0:
        raise NegativeValue(f"v(a) = {v} < 0")
    if v in K.choice_overrides:
        b = K.residue(K.div(a, K.choice(v)))
    return element(K, [(v, b)])


def add(K: ValuedField, x: SemigroupRingElement, y: SemigroupRingElement) -> SemigroupRingElement:
    return element(K, list(x.terms) + list(y.terms))


def twisted_mul(K: ValuedField, x: SemigroupRingElement,
                y: SemigroupRingElement) -> SemigroupRingElement:
    R = K.residue_field
    # without overrides the choice function is multiplicative, so every
    # twist is 1
    twisted = bool(K.choice_overrides)
    # a sum of two exponents that element() checked is again a nonnegative
    # exponent in the value group: the products are collected as they are,
    # keyed by int numerators over the common denominator L
    L = lcm(*[e.denominator for e, _ in x.terms + y.terms])
    ys = [(ey.numerator * (L // ey.denominator), ey, cy) for ey, cy in y.terms]
    acc: Dict[int, object] = {}
    for ex, cx in x.terms:
        kx = ex.numerator * (L // ex.denominator)
        for ky, ey, cy in ys:
            c = R.mul(cx, cy)
            if twisted:
                c = R.mul(c, twist(K, ex, ey))
            k = kx + ky
            acc[k] = R.add(acc[k], c) if k in acc else c
    return SemigroupRingElement(tuple([(Q(k, L), acc[k]) for k in sorted(acc)
                                       if not R.is_zero(acc[k])]))


def _pow_twist(K: ValuedField, g: Fraction, n: int):
    """tau with (T^g)^n = tau * T^(ng): the product of twist(ig, g), i = 1..n-1
    (1 without overrides, as in ``twisted_mul``)."""
    R = K.residue_field
    tau = R.one()
    if not K.choice_overrides:
        return tau
    for i in range(1, n):
        tau = R.mul(tau, twist(K, i * g, g))
    return tau


def frobenius(K: ValuedField, x: SemigroupRingElement) -> SemigroupRingElement:
    """x -> x^p.  Termwise: cross terms vanish in characteristic p because
    addition is coordinatewise and exponents stay distinct under scaling."""
    p = K.p
    if p <= 0:
        raise ArithmeticError("Frobenius requires positive residue characteristic")
    R = K.residue_field
    # p*exp stays in the value group and keeps the exponents distinct and
    # sorted; c^p * tau is a unit times a nonzero c
    return SemigroupRingElement(tuple([(p * exp, R.mul(R.pow(c, p), _pow_twist(K, exp, p)))
                                       for exp, c in x.terms]))


def check_psi_homomorphism(K: ValuedField,
                           samples: List[Tuple[object, object]]) -> List[dict]:
    """Check initial_form(ab) = initial_form(a) x initial_form(b); returns failures."""
    failures = []
    for a, b in samples:
        lhs = initial_form(K, K.mul(a, b))
        rhs = twisted_mul(K, initial_form(K, a), initial_form(K, b))
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


class NoRoot(Frozen):
    """Why x has no p-th root.  It stands in for a root, so it is neither
    iterable nor sized."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        object.__setattr__(self, "reason", reason)


def pth_root(K: ValuedField, x: SemigroupRingElement):
    """An element whose Frobenius is x, or NoRoot.  Frobenius acts term by
    term, so the root is taken term by term."""
    R = K.residue_field
    p = K.p
    pairs = []
    for e, c in x.terms:
        exp = Q(e, p)
        if not K.value_group.contains(exp):
            return NoRoot(f"exponent {value_str(e)}/{p} not in the value group")
        # (b' T^exp)^p = b'^p * tau * T^(p exp) with tau the accumulated twist
        target = R.div(c, _pow_twist(K, exp, p))
        root = R.pth_root(target)
        if root is None:
            return NoRoot(f"coefficient {R.elem_str(target)} has no p-th root in the residue field")
        pairs.append((exp, root))
    return element(K, pairs)


def element_str(K: ValuedField, x: SemigroupRingElement) -> str:
    if x.is_zero():
        return "0"
    R = K.residue_field
    return " + ".join([term_str(R.elem_str(c), "T", exp.numerator, exp.denominator)
                       for exp, c in x.terms])
