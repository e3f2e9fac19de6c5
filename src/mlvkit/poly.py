"""Univariate polynomials over a valued field, with phi-expansions.

A thin immutable wrapper over the generic fpoly toolbox; the coefficient
field is the ValuedField descriptor itself.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from . import fpoly
from .errors import ConstantBase, DivByZero, NonMonicBase
from .fields import ValuedField


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: ValuedField, coeffs: Iterable):
        self.field = field
        self.coeffs = fpoly.norm(field, tuple(coeffs))

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_ints(K: ValuedField, ints: Sequence[int]) -> "Poly":
        return Poly(K, [K.from_int(n) for n in ints])

    @staticmethod
    def x(K: ValuedField) -> "Poly":
        return Poly(K, (K.zero(), K.one()))

    @staticmethod
    def const(K: ValuedField, a) -> "Poly":
        return Poly(K, (a,))

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 marks the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return fpoly.is_monic(self.field, self.coeffs)

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero()

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field.key == other.field.key
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.key, self.coeffs))

    # -- arithmetic -------------------------------------------------------------

    def _wrap(self, cc) -> "Poly":
        p = Poly.__new__(Poly)
        p.field = self.field
        p.coeffs = cc
        return p

    def __add__(self, other: "Poly") -> "Poly":
        return self._wrap(fpoly.add(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self._wrap(fpoly.sub(self.field, self.coeffs, other.coeffs))

    def __neg__(self) -> "Poly":
        return self._wrap(fpoly.neg(self.field, self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        return self._wrap(fpoly.mul(self.field, self.coeffs, other.coeffs))

    def __pow__(self, n: int) -> "Poly":
        return self._wrap(fpoly.pow_(self.field, self.coeffs, n))

    def scale(self, a) -> "Poly":
        return self._wrap(fpoly.smul(self.field, a, self.coeffs))

    def divmod(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        if other.is_zero():
            raise DivByZero("polynomial division by zero")
        q, r = fpoly.divmod_(self.field, self.coeffs, other.coeffs)
        return self._wrap(q), self._wrap(r)

    def mod(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def derivative(self) -> "Poly":
        return self._wrap(fpoly.deriv(self.field, self.coeffs))

    def evaluate(self, a):
        return fpoly.evaluate(self.field, self.coeffs, a)

    def taylor_coeffs(self, a) -> List:
        """Coefficients of self in powers of (x - a), as field elements."""
        return list(fpoly.taylor_shift(self.field, self.coeffs, a))

    def __repr__(self):
        return self.to_str()

    def to_str(self, var: str = "x") -> str:
        return fpoly.to_str(self.field, self.coeffs, var)


def phi_expansion(f: Poly, phi: Poly) -> Tuple[Poly, ...]:
    """The unique f = sum f_k phi^k with deg f_k < deg phi."""
    if phi.degree < 1:
        raise ConstantBase("expansion base must be nonconstant")
    if not phi.is_monic():
        raise NonMonicBase("expansion base must be monic")
    if f.is_zero():
        return ()
    out: List[Poly] = []
    cur = f
    # each quotient here has degree >= 0, so the last coefficient is nonzero
    while cur.degree >= phi.degree:
        cur, r = cur.divmod(phi)
        out.append(r)
    out.append(cur)
    return tuple(out)


def hasse_derivative(f: Poly, i: int) -> Poly:
    """i-th Hasse derivative; satisfies f(x+h) = sum_i D_i f(x) h^i."""
    if i < 0:
        raise ValueError("Hasse derivative index must be nonnegative")
    return Poly(f.field, fpoly.hasse(f.field, f.coeffs, i))

