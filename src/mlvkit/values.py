"""Exact valuation values (rationals plus infinity) and rank-1 value groups.

A finite value is a plain ``int`` when it is integral and a
``fractions.Fraction`` when it is not; no value is ever a float.  The
valuations of every field, ``vadd``, ``vmul`` and the Newton-polygon
slopes keep that rule, so the common integral case runs on int
arithmetic.  An int and a Fraction of equal value compare and hash
alike, so an integral Fraction (a caller's input, or a difference formed
with ``-``) mixes freely with them.  A single shared ``INFINITY``
sentinel is adjoined: it absorbs addition and dominates every rational
in comparisons, so ``min()`` / ``sorted()`` work directly on mixed lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Union

Q = Fraction


class _Infinity:
    """Top element adjoined to the rational value group (singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("mlvkit-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate infinity")


INFINITY = _Infinity()

Value = Union[int, Fraction, _Infinity]


def is_inf(v: Value) -> bool:
    return v is INFINITY


def vadd(a: Value, b: Value) -> Value:
    if a is INFINITY or b is INFINITY:
        return INFINITY
    s = a + b
    if type(s) is int or s.denominator != 1:
        return s
    return s.numerator


def vmul(n: int, g: Value) -> Value:
    """n*g for an integer n >= 0; 0 * INFINITY is 0 by convention."""
    if n == 0:
        return 0
    if g is INFINITY:
        return INFINITY
    if type(g) is int:
        return n * g
    # built from ints, not by the reflected int * Fraction operator; g is
    # reduced, so n*g is integral exactly when its denominator divides n
    den = g.denominator
    if n % den == 0:
        return n // den * g.numerator
    return Q(n * g.numerator, den)


def value_str(v: Value) -> str:
    if v is INFINITY:
        return "inf"
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def term_str(cs: str, var: str, e: Fraction) -> str:
    """The term c*var^e, given the printed coefficient cs: var, var^n or
    var^(a/b), without the coefficient when it is 1 and without the
    variable when e = 0."""
    if e == 0:
        return cs
    if e.denominator != 1:
        vs = f"{var}^({e.numerator}/{e.denominator})"
    else:
        vs = var if e == 1 else f"{var}^{e.numerator}"
    return vs if cs == "1" else f"{cs}*{vs}"


def value_from_str(s: str) -> Value:
    s = s.strip()
    if s in ("inf", "+inf", "oo", "infinity"):
        return INFINITY
    return Q(s)


def _strip_p(n: int, p: int) -> int:
    n = abs(n)
    while n % p == 0:
        n //= p
    return n


@dataclass(frozen=True)
class ValueGroup:
    """A rank-1 value group: either gen*Z or gen*Z[1/p].

    Hull generators are normalized to be p-free in numerator and
    denominator, since gen*Z[1/p] only depends on the p-free part.
    """

    gen: Fraction
    hull: Optional[int] = None  # prime p for gen*Z[1/p], None for gen*Z

    def __post_init__(self):
        g = self.gen
        if type(g) is not Q:  # an int generator: keep gen / m exact
            g = Q(g)
        if g <= 0:
            raise ValueError("value group generator must be positive")
        if self.hull is not None:
            g = Q(_strip_p(g.numerator, self.hull),
                  _strip_p(g.denominator, self.hull))
        object.__setattr__(self, "gen", g)

    def _order_mod(self, v: Union[int, Fraction]) -> int:
        """Smallest e >= 1 with e*v in the group: the reduced denominator of
        v/gen (p-free for a hull), computed in ints."""
        num = v.numerator * self.gen.denominator
        den = v.denominator * self.gen.numerator
        den //= gcd(num, den)
        return den if self.hull is None else _strip_p(den, self.hull)

    def contains(self, v: Value) -> bool:
        return v is not INFINITY and self._order_mod(v) == 1

    def ram_index(self, gamma: Value) -> int:
        """Smallest e >= 1 with e*gamma in the group."""
        return 1 if gamma is INFINITY else self._order_mod(gamma)

    def join(self, gammas: Iterable[Value]) -> "ValueGroup":
        """Group generated by self and finitely many rational values.

        gen*Z + x*Z = (gen/d)*Z for the reduced denominator d of x/gen
        (p-free for a hull), so one lcm of those denominators suffices.
        """
        m = 1
        for x in gammas:
            if is_inf(x):
                raise ValueError("cannot join infinity into a value group")
            den = self._order_mod(x)
            m = m * den // gcd(m, den)
        return self if m == 1 else ValueGroup(self.gen / m, self.hull)

    def index_over(self, sub: "ValueGroup") -> int:
        """(self : sub) for a finite-index subgroup of the same kind."""
        if self.hull != sub.hull:
            raise ValueError("groups of different kinds have no finite index")
        r = sub.gen / self.gen
        if r.denominator != 1:
            raise ValueError(f"{sub} is not a subgroup of {self}")
        return r.numerator

    def p_divisible(self, p: int):
        """(True, None) if the group is p-divisible, else (False, witness)."""
        if self.hull is not None and self.hull == p:
            return True, None
        return False, self.gen

    def __str__(self):
        base = value_str(self.gen)
        if self.hull is None:
            return f"({base})Z"
        return f"({base})Z[1/{self.hull}]"
