"""Rational function fields Frac(F[var]) over an arbitrary coefficient field.

Elements are RF records (num, den) of fpoly tuples, in canonical form:
gcd-reduced, with a monic denominator, so equal elements have equal data
(the rule of ffield.Field) and a polynomial has den = (1,).  RatFuncField
implements the same Field protocol as the finite fields, so it can serve
as a coefficient field itself (this is how F_p(c)(t) is built), and it is
the base class of the t-adic valued fields.  Sums and products of two
polynomials are polynomials, and skip the reduction of ``make``.
"""

from __future__ import annotations

from typing import Optional

from . import fpoly
from .ffield import Field, poly_pth_root
from .values import Frozen


class RF(Frozen):
    """A rational function num/den; equality and hash are those of the
    pair.  Not a tuple, so that no RF passes the GF(q) element test.
    Immutable: zero() and one() are shared, and RFs are dict keys."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: tuple):
        _set_num(self, num)
        _set_den(self, den)

    # Frozen's, written out for the arithmetic's hot path
    def __eq__(self, other):
        if other.__class__ is RF:
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))


# the slot setters, bound once: __init__ stores past the refusing __setattr__
_set_num, _set_den = RF.num.__set__, RF.den.__set__


class RatFuncField(Field):
    def __init__(self, base: Field, varname: str):
        self.base = base
        self.varname = varname
        self.char = base.char
        self.order = None
        self._den1 = (base.one(),)
        self._zero = RF((), self._den1)
        self._one = RF(self._den1, self._den1)

    def make(self, num, den) -> RF:
        B = self.base
        if fpoly.is_zero(den):
            raise ZeroDivisionError("zero denominator in rational function")
        if fpoly.is_zero(num):
            return self._zero
        if fpoly.deg(num) > 0 and fpoly.deg(den) > 0:
            g = fpoly.gcd_(B, num, den)
            if fpoly.deg(g) > 0:
                num = fpoly.divmod_(B, num, g)[0]
                den = fpoly.divmod_(B, den, g)[0]
        if B.is_one(den[-1]):
            return RF(tuple(num), tuple(den))
        c = B.inv(den[-1])
        return RF(fpoly.smul(B, c, num), fpoly.smul(B, c, den))

    def from_poly(self, num) -> RF:
        return self.make(num, (self.base.one(),))

    def var(self) -> RF:
        return self.from_poly(fpoly.x(self.base))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def add(self, a: RF, b: RF):
        B = self.base
        den1 = self._den1
        if a.den == den1 and b.den == den1:
            return RF(fpoly.add(B, a.num, b.num), den1)
        num = fpoly.add(B, fpoly.mul(B, a.num, b.den), fpoly.mul(B, b.num, a.den))
        return self.make(num, fpoly.mul(B, a.den, b.den))

    def neg(self, a: RF):
        return RF(fpoly.neg(self.base, a.num), a.den)

    def mul(self, a: RF, b: RF):
        B = self.base
        den1 = self._den1
        if a.den == den1 and b.den == den1:
            return RF(fpoly.mul(B, a.num, b.num), den1)
        return self.make(fpoly.mul(B, a.num, b.num), fpoly.mul(B, a.den, b.den))

    def inv(self, a: RF):
        if fpoly.is_zero(a.num):
            raise ZeroDivisionError("inverse of zero rational function")
        return self.make(a.den, a.num)

    def is_zero(self, a: RF):
        return fpoly.is_zero(a.num)

    def from_int(self, n: int):
        return RF(fpoly.const(self.base, self.base.from_int(n)), self._den1)

    def ord_var(self, a: RF) -> Optional[int]:
        """Order of vanishing at var = 0 (None for the zero element)."""
        if fpoly.is_zero(a.num):
            return None
        return fpoly.low_deg(self.base, a.num) - fpoly.low_deg(self.base, a.den)

    def lowest_term(self, a: RF):
        """(c, k) with a = c * var^k + (higher powers of var), for a != 0:
        the lowest coefficients of numerator and denominator, divided."""
        B = self.base
        kn = fpoly.low_deg(B, a.num)
        kd = fpoly.low_deg(B, a.den)
        c, d = a.num[kn], a.den[kd]
        return (c if B.is_one(d) else B.div(c, d)), kn - kd

    def derivative(self, a: RF) -> RF:
        """d/dvar of a = n/d: (n'd - nd') / d^2."""
        B = self.base
        n, d = a.num, a.den
        return self.make(fpoly.sub(B, fpoly.mul(B, fpoly.deriv(B, n), d),
                                   fpoly.mul(B, n, fpoly.deriv(B, d))), fpoly.mul(B, d, d))

    def pth_root(self, a: RF):
        """p-th root when it exists in the field, else None.

        f(v) is a p-th power iff both numerator and denominator only
        involve exponents divisible by p, with coefficients that are p-th
        powers in the base (always, over a perfect base).
        """
        p = self.char
        if p == 0:
            raise ArithmeticError("pth_root in characteristic zero")
        if fpoly.is_zero(a.num):
            return self.zero()
        B = self.base
        if any(not B.is_zero(c) for cc in (a.num, a.den) for i, c in enumerate(cc) if i % p):
            return None
        rn, rd = poly_pth_root(B, a.num), poly_pth_root(B, a.den)
        if rn is None or rd is None:
            return None
        return self.make(rn, rd)

    def elem_str(self, a: RF) -> str:
        B = self.base
        ns = fpoly.to_str(B, a.num, self.varname)
        if a.den == self._den1:
            return ns
        ds = fpoly.to_str(B, a.den, self.varname)
        if any(op in ns[1:] for op in "+-") or " " in ns:
            ns = f"({ns})"
        if any(op in ds[1:] for op in "+-") or " " in ds or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"Frac({self.base!r}[{self.varname}])"

