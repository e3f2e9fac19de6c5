"""Dense univariate polynomial helpers over an arbitrary coefficient field.

Polynomials are tuples of field elements with no trailing zeros; () is the
zero polynomial.  Every function takes the coefficient field object ``F``
first; ``F`` must provide zero/one/add/sub/mul/neg/inv/is_zero/from_int
(see ffield.Field) over canonical element data, so two polynomials are
equal exactly when their tuples are (``==``).  The same toolbox serves
finite fields, rational function fields and the valued base fields.
"""

from __future__ import annotations

from functools import partial
from itertools import compress, count
from math import comb
from typing import Sequence, Tuple

# ffield and fields import this module; only ffield.GFp and
# fields.FpPerfField are read, and only at call time
from . import ffield, fields

Coeffs = Tuple  # tuple of field elements


def norm(F, cc) -> Coeffs:
    if type(F) is ffield.GFp:
        if not cc or cc[-1]:
            return tuple(cc)
        # canonical ints: the last truthy entry is the last nonzero one
        return tuple(cc[:next(compress(count(len(cc), -1), reversed(cc)), 0)])
    cc = list(cc)
    while cc and F.is_zero(cc[-1]):
        cc.pop()
    return tuple(cc)


def const(F, a) -> Coeffs:
    return () if F.is_zero(a) else (a,)


def from_ints(F, ints: Sequence[int]) -> Coeffs:
    return norm(F, [F.from_int(n) for n in ints])


def x(F) -> Coeffs:
    return (F.zero(), F.one())


def deg(f: Coeffs) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(f) - 1


def is_zero(f: Coeffs) -> bool:
    return not f


def low_deg(F, f) -> int:
    """Exponent of the lowest nonzero term."""
    if type(F) is ffield.GFp:
        k = next(compress(count(), f), None)
        if k is not None:
            return k
    else:
        for k, c in enumerate(f):
            if not F.is_zero(c):
                return k
    raise ValueError("zero polynomial has no valuation")


def is_monic(F, f) -> bool:
    return bool(f) and f[-1] == F.one()


def add(F, f, g) -> Coeffs:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    if type(F) is ffield.GFp:
        p = F.p
        for i, b in _terms(g):
            out[i] = (out[i] + b) % p
        return norm(F, out)
    for i, b in enumerate(g):
        out[i] = F.add(out[i], b)
    return norm(F, out)


def neg(F, f) -> Coeffs:
    if type(F) is ffield.GFp:
        p = F.p
        out = [0] * len(f)
        for i, a in _terms(f):
            out[i] = p - a
        return tuple(out)
    return tuple(F.neg(a) for a in f)


def sub(F, f, g) -> Coeffs:
    return add(F, f, neg(F, g))


def smul(F, a, f) -> Coeffs:
    if F.is_zero(a):
        return ()
    return norm(F, [F.mul(a, b) for b in f])


def mul(F, f, g) -> Coeffs:
    if not f or not g:
        return ()
    if type(F) is ffield.GFp:
        return _mul_gfp(F, f, g)
    gi = [(j, b) for j, b in enumerate(g) if not F.is_zero(b)]
    out = [F.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if F.is_zero(a):
            continue
        for j, b in gi:
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return norm(F, out)


def _mul_gfp(F, f, g) -> Coeffs:
    """Product over GF(p): ints in [0, p), products summed, one reduction each."""
    p = F.p
    if len(g) == 1:
        f, g = g, f
    if len(f) == 1:
        # most products in rational-function arithmetic have a constant side
        a = f[0]
        return tuple(g) if a == 1 else tuple([a * b % p for b in g])
    fi = _terms(f)
    gi = _terms(g)
    out = [0] * (len(f) + len(g) - 1)
    for i, a in fi:
        for j, b in gi:
            out[i + j] += a * b
    if len(fi) * len(gi) < len(out):
        # sparse: reduce only the exponents that products reached
        for k in {i + j for i, _ in fi for j, _ in gi}:
            out[k] %= p
        return norm(F, out)
    return norm(F, [c % p for c in out])


def divmod_(F, f, g) -> Tuple[Coeffs, Coeffs]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return (), norm(F, f)
    if type(F) is ffield.GFp:
        return _divmod_gfp(F, f, g)
    # a monic divisor (nearly every key and modulus) needs no inverse
    gl_inv = None if g[-1] == F.one() else F.inv(g[-1])
    dg = len(g) - 1
    # the leading term is left out: it only cancels the term popped below
    gi = [(i, b) for i, b in enumerate(g[:-1]) if not F.is_zero(b)]
    r = list(f)
    q = [F.zero()] * (len(f) - dg)
    while len(r) > dg:
        c = r.pop()
        if F.is_zero(c):
            continue
        if gl_inv is not None:
            c = F.mul(c, gl_inv)
        k = len(r) - dg
        q[k] = c
        for i, b in gi:
            r[k + i] = F.sub(r[k + i], F.mul(c, b))
    return norm(F, q), norm(F, r)


def _divmod_gfp(F, f, g) -> Tuple[Coeffs, Coeffs]:
    """Division over GF(p); remainder entries are reduced only when read."""
    p = F.p
    dg = len(g) - 1
    gl_inv = pow(g[-1], -1, p)
    gi = _terms(g[:-1])
    r = list(f)
    q = [0] * (len(f) - dg)
    for k in range(len(f) - 1 - dg, -1, -1):
        c = r[k + dg] % p
        if c:
            c = c * gl_inv % p
            q[k] = c
            for i, b in gi:
                r[k + i] -= c * b
    return norm(F, q), norm(F, [c % p for c in r[:dg]])


def _terms(cc) -> list:
    """(exponent, coefficient) of the nonzero canonical GF(p) ints in cc."""
    # compress skips the zeros in C; the mostly-zero tuples are those of
    # dense perfect-closure elements (denominator no monomial), stretched
    # from u to u^(p^k) when they meet an element of a higher level
    return [(i, cc[i]) for i in compress(range(len(cc)), cc)]


class PolyRing:
    """F[T] as a coefficient ring for the ring functions of this module
    (const, x, add, neg, mul, pow_, evaluate): a polynomial in S over F[T]
    is a tuple of F[T] tuples, and coefficient products keep the paths above."""

    def __init__(self, F):
        self.F = F

    def zero(self) -> Coeffs:
        return ()

    def one(self) -> Coeffs:
        return (self.F.one(),)

    def is_zero(self, f) -> bool:
        return not f

    def add(self, f, g) -> Coeffs:
        return add(self.F, f, g)

    def neg(self, f) -> Coeffs:
        return neg(self.F, f)

    def mul(self, f, g) -> Coeffs:
        return mul(self.F, f, g)


def mod(F, f, g) -> Coeffs:
    return divmod_(F, f, g)[1]


def monic(F, f) -> Coeffs:
    """f divided by its leading coefficient; a monic f is returned as it
    is, since the inverse over a tower without tables is an xgcd."""
    if not f or F.is_one(f[-1]):
        return f
    return smul(F, F.inv(f[-1]), f)


def gcd_(F, f, g) -> Coeffs:
    """The monic gcd of f and g, by Euclid's algorithm; 1 at once when
    either is a nonzero constant (g' of an Artin-Schreier g, say)."""
    if len(f) == 1 or len(g) == 1:
        return (F.one(),)
    while g:
        f, g = g, mod(F, f, g)
    return monic(F, f)


def xgcd(F, f, g):
    """(d, s, t) with s*f + t*g = d, d monic gcd."""
    r0, r1 = f, g
    s0, s1 = const(F, F.one()), ()
    t0, t1 = (), const(F, F.one())
    while r1:
        q, r = divmod_(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(F, s0, mul(F, q, s1))
        t0, t1 = t1, sub(F, t0, mul(F, q, t1))
    if not r0:
        return (), s0, t0
    c = F.inv(r0[-1])
    return smul(F, c, r0), smul(F, c, s0), smul(F, c, t0)


def square_and_multiply(product, a, n: int):
    """a^n for n >= 1 under ``product``, left to right from the top bit of
    n: bit_length(n) - 1 squarings and popcount(n) - 1 products by a."""
    out = a
    for bit in bin(n)[3:]:
        out = product(out, out)
        if bit == "1":
            out = product(out, a)
    return out


def pow_(F, f, n: int) -> Coeffs:
    """f^n by square-and-multiply."""
    if n <= 0:
        return const(F, F.one())
    return square_and_multiply(partial(mul, F), f, n)


def powmod(F, f, n: int, m) -> Coeffs:
    """f^n mod m, with one reduction after each product."""
    if n <= 0:
        return mod(F, const(F, F.one()), m)
    return square_and_multiply(lambda a, b: mod(F, mul(F, a, b), m), mod(F, f, m), n)


def deriv(F, f) -> Coeffs:
    return norm(F, [F.mul(F.from_int(k), f[k]) for k in range(1, len(f))])


def hasse(F, f, i: int) -> Coeffs:
    """i-th Hasse derivative: x^k maps to binom(k, i) x^(k-i)."""
    if i == 0:
        return tuple(f)
    out = []
    for k in range(i, len(f)):
        out.append(F.mul(F.from_int(comb(k, i)), f[k]))
    return norm(F, out)


def evaluate(F, f, a):
    """f(a) by Horner's rule, starting from the leading coefficient."""
    if not f:
        return F.zero()
    acc = f[-1]
    for i in range(len(f) - 2, -1, -1):
        acc = F.add(F.mul(acc, a), f[i])
    return acc


def taylor_shift(F, f, a) -> Coeffs:
    """Coefficients of f in powers of (x - a), by repeated synthetic division.

    Pass i divides cc[i:] by (x - a) in place by Horner's rule from the
    leading coefficient: the remainder lands in cc[i], the quotient above it.
    Over the perfect closure, sparse operands take the field's one-pass
    kernel instead (``FpPerfField.sparse_taylor_shift``).
    """
    if F.is_zero(a):
        return norm(F, f)
    if type(F) is fields.FpPerfField:
        cc = F.sparse_taylor_shift(f, a)
        if cc is not None:
            return norm(F, cc)
    cc = list(f)
    top = len(cc) - 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            cc[j] = F.add(F.mul(cc[j + 1], a), cc[j])
    return norm(F, cc)


def to_str(F, f, var: str = "x") -> str:
    if not f:
        return "0"
    parts = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if F.is_zero(c):
            continue
        cs = F.elem_str(c)
        if k == 0:
            parts.append(cs)
        else:
            xk = var if k == 1 else f"{var}^{k}"
            if cs == "1":
                parts.append(xk)
            elif cs == "-1":
                parts.append(f"-{xk}")
            else:
                if any(op in cs[1:] for op in "+-") or "/" in cs or " " in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{xk}")
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out
