"""Finite fields GF(p) and extensions GF(p)[z]/(m), with factorization.

Field objects implement a small uniform protocol (zero/one/add/sub/mul/
neg/inv/div/eq/is_zero/from_int/elem_str plus char and order) over plain
element data: integers for prime fields, coefficient tuples for
extensions.  Extensions over extensions give the residue-field towers
that inductive valuations build.  ``GFq(q)`` for q = p^m, m >= 2, up to
TABLE_CAP is a ``TableField`` instead: its elements are int codes whose
base-p digits are the coefficients of the ExtField element, and its
arithmetic reads log tables.

Extension moduli searched here are deterministic: the monic irreducible
of the requested degree whose coefficient vector is smallest in the
base-p integer encoding (constant coefficient least significant).
"""

from __future__ import annotations

import random
from functools import cache
from itertools import repeat
from typing import List, Optional, Tuple

from . import fpoly


class Field:
    """Abstract coefficient field over hashable element data."""

    char: int = 0
    order: Optional[int] = None  # None for infinite fields

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def eq(self, a, b) -> bool:
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero())

    def is_one(self, a) -> bool:
        return self.eq(a, self.one())

    def from_int(self, n: int):
        raise NotImplementedError

    def pow(self, a, n: int):
        """a^n by square-and-multiply."""
        if n < 0:
            return self.pow(self.inv(a), -n)
        if n == 0:
            return self.one()
        return fpoly.square_and_multiply(self.mul, a, n)

    def pth_root(self, a):
        """Inverse of Frobenius where available; None if no root exists."""
        raise NotImplementedError

    def elem_str(self, a) -> str:
        raise NotImplementedError


class GFp(Field):
    """Prime field; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.order = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, -1, self.p)

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def is_zero(self, a):
        # elements are canonical representatives in [0, p)
        return a == 0 or a % self.p == 0

    def is_one(self, a):
        return a == 1

    def from_int(self, n):
        return n % self.p

    def pth_root(self, a):
        return a % self.p  # Frobenius is the identity on GF(p)

    def elem_str(self, a):
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"


class ExtField(Field):
    """base[z]/(modulus); elements are coefficient tuples over base.

    The modulus is a monic irreducible tuple over ``base``.  Works for
    towers: base may itself be an ExtField.
    """

    def __init__(self, base: Field, modulus: tuple, varname: str = "z"):
        if not fpoly.is_monic(base, modulus) or fpoly.deg(modulus) < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = tuple(modulus)
        self.degree = fpoly.deg(modulus)
        self.varname = varname
        self.char = base.char
        self.order = None if base.order is None else base.order ** self.degree

    def _red(self, cc) -> tuple:
        return fpoly.mod(self.base, cc, self.modulus)

    def zero(self):
        return ()

    def one(self):
        return (self.base.one(),)

    def gen(self):
        return self._red(fpoly.x(self.base))

    def embed(self, a):
        """Embed a base-field element as a constant."""
        return fpoly.const(self.base, a)

    def add(self, a, b):
        return fpoly.add(self.base, a, b)

    def neg(self, a):
        return fpoly.neg(self.base, a)

    def mul(self, a, b):
        return self._red(fpoly.mul(self.base, a, b))

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in extension field")
        d, s, _ = fpoly.xgcd(self.base, a, self.modulus)
        if fpoly.deg(d) != 0:
            raise ArithmeticError("modulus not irreducible")
        return self._red(fpoly.smul(self.base, self.base.inv(d[0]), s))

    def eq(self, a, b):
        return fpoly.eq(self.base, a, b)

    def is_zero(self, a):
        return not a

    def from_int(self, n):
        return fpoly.const(self.base, self.base.from_int(n))

    def pth_root(self, a):
        # |F| = p^s, so the inverse of Frobenius is x -> x^(p^(s-1)).
        s = _p_power_exponent(self.order, self.char)
        return self.pow(a, self.char ** (s - 1))

    def elem_str(self, a):
        return fpoly.to_str(self.base, a, self.varname)

    def __repr__(self):
        if self.order is not None:
            return f"GF({self.order})[{self.varname}]"
        return f"{self.base!r}[{self.varname}]/(...)"


TABLE_CAP = 256  # the largest order q = p^m, m >= 2, that GFq tabulates


class TableField(Field):
    """GF(p)[z]/(modulus) for a small order q = p^m, m >= 2, on int codes.

    The element c_0 + c_1 z + ... + c_(m-1) z^(m-1) of
    ``ExtField(GFp(p), modulus, varname)`` is the int sum c_i p^i in
    [0, q); zero is 0 and one is 1.  Products, inverses, quotients,
    negatives and p-th roots add or scale discrete logarithms to
    a primitive element g.  A sum is XOR for p = 2; for odd p it is the
    Zech logarithm g^a + g^b = g^(a + Z(b - a)) with 1 + g^k = g^Z(k)
    (Lidl-Niederreiter, Finite Fields, section 9.2).
    """

    def __init__(self, p: int, m: int, varname: str = "z"):
        self.base = GFp(p)
        self.modulus = find_irreducible(p, m)
        self.degree = m
        self.varname = varname
        self.char = p
        self.order = p ** m
        self._n = self.order - 1
        self._exp, self._log, self._zech = _log_tables(p, m)

    def digits(self, a: int) -> tuple:
        """The coefficient tuple of a in ExtField(GFp(p), modulus)."""
        return _digits(a, self.char)

    def from_digits(self, cc) -> int:
        """The code of the element with coefficient tuple cc."""
        return _code(cc, self.char)

    def zero(self):
        return 0

    def one(self):
        return 1

    def gen(self):
        return self.char  # z

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        # a negative difference indexes from the end: Z(k) = Z(k + q - 1)
        z = self._zech[log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a):
        # -1 = g^((q-1)/2) for odd p
        return self._exp[self._log[a] + self._n // 2] if a else 0

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in extension field")
        return self._exp[self._n - self._log[a]]

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("inverse of zero in extension field")
        return self._exp[self._log[a] - self._log[b] + self._n] if a else 0

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return not a

    def is_one(self, a):
        return a == 1

    def from_int(self, n):
        return n % self.char

    def pth_root(self, a):
        # the inverse of Frobenius is a -> a^(q/p)
        return self._exp[self._log[a] * (self.order // self.char) % self._n] if a else 0

    def elem_str(self, a):
        return fpoly.to_str(self.base, self.digits(a), self.varname)

    def __repr__(self):
        return f"GF({self.order})[{self.varname}]"


class _Char2TableField(TableField):
    """A TableField of characteristic 2: a sum is the XOR of the codes."""

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a


@cache
def _log_tables(p: int, m: int):
    """(exp, log, zech) of GF(p^m) on TableField codes, for a primitive g.

    exp has 2(q - 1) entries, exp[k] = g^k, so that a sum or difference of
    two logarithms (plus q - 1) needs no reduction; log[a] is the
    logarithm of a != 0.  For odd p, zech[k] is the logarithm of 1 + g^k,
    None where that sum is zero; for p = 2 zech is None."""
    q = p ** m
    n = q - 1
    E = ExtField(GFp(p), find_irreducible(p, m))
    # candidates by code from z = p up; the constants below p lie in GF(p)*
    g = next(g for g in map(_digits, range(p, q), repeat(p)) if _is_primitive(E, g, n))
    exp, a = [], E.one()
    for _ in range(n):
        exp.append(_code(a, p))
        a = E.mul(a, g)
    log = [0] * q
    for k, c in enumerate(exp):
        log[c] = k
    zech = None
    if p != 2:
        # 1 + c adds 1 to the constant digit of c
        zech = [log[c1] if c1 else None for c1 in (c - c % p + (c + 1) % p for c in exp)]
    return exp + exp, log, zech


def _digits(c: int, p: int) -> tuple:
    """The base-p digits of c >= 0, least significant first, no trailing 0."""
    out = []
    while c:
        c, d = divmod(c, p)
        out.append(d)
    return tuple(out)


def _code(cc, p: int) -> int:
    c = 0
    for d in reversed(cc):
        c = c * p + d
    return c


def _is_primitive(E: Field, g, n: int) -> bool:
    """g generates the multiplicative group of order n: g^(n/r) != 1 for
    every prime r dividing n."""
    r, k = 2, n
    while k > 1:
        if k % r == 0:
            if E.is_one(E.pow(g, n // r)):
                return False
            while k % r == 0:
                k //= r
        r += 1
    return True


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % d == 0:
            return n == d
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _p_power_exponent(q: int, p: int) -> int:
    s = 0
    while q > 1:
        if q % p:
            raise ValueError("field order is not a power of the characteristic")
        q //= p
        s += 1
    return s


def is_irreducible(F: Field, f: tuple) -> bool:
    """Ben-Or test over a finite field F of order q.

    A reducible f of degree n has an irreducible factor of some degree
    k <= n/2, and that factor divides both f and x^(q^k) - x.  So f is
    irreducible iff gcd(x^(q^k) - x, f) = 1 for k = 1..n/2; the loop stops
    at the first k with a common factor, which for most reducible inputs
    comes early.  Exact for any f, squarefree or not.
    """
    n = fpoly.deg(f)
    if n <= 0:
        return False
    # the first piece has degree n only when no k <= n/2 found a factor;
    # its factor g may be all of f (all factors of one degree) even then
    return next(_distinct_degree(F, f))[1] == n


def _distinct_degree(F: Field, f: tuple):
    """The distinct-degree pieces (g, d) of f, deg f >= 1, by increasing d:
    g = gcd(x^(q^d) - x, v) for the cofactor v of the earlier pieces,
    skipping trivial g.  Once 2d exceeds deg v, the last piece is (v, deg v),
    irreducible.  For squarefree f, g is the product of the irreducible
    factors of degree d."""
    q = F.order
    x = fpoly.x(F)
    h = x  # x mod v while deg v >= 2, the only case in which h is used
    v = f
    d = 0
    while fpoly.deg(v) > 0:
        d += 1
        if 2 * d > fpoly.deg(v):
            yield v, fpoly.deg(v)
            return
        h = fpoly.powmod(F, h, q, v)
        g = fpoly.gcd_(F, fpoly.sub(F, h, x), v)
        if fpoly.deg(g) > 0:
            yield g, d
            v = fpoly.divmod_(F, v, g)[0]
            h = fpoly.mod(F, h, v)


@cache
def find_irreducible(p: int, degree: int) -> tuple:
    """Deterministic monic irreducible of given degree over GF(p).

    Scans coefficient vectors in increasing base-p integer encoding.  The
    first p codes are the binomials x^degree + c; by Lidl-Niederreiter,
    Thm 3.75, one of them is irreducible iff every prime dividing the
    degree divides p - 1, and 4 | p - 1 when 4 | degree.  Otherwise the scan
    skips them, which keeps large p fast and every result the same.  The
    scan is deterministic, so each (p, degree) is searched once per process.
    """
    F = GFp(p)
    if degree == 1:
        return (0, 1)
    n, r, binomials = degree, 2, degree % 4 != 0 or (p - 1) % 4 == 0
    while n > 1:
        if n % r == 0:
            binomials = binomials and (p - 1) % r == 0
            n //= r
        else:
            r += 1
    for code in range(0 if binomials else p, p ** degree):
        cc = []
        c = code
        for _ in range(degree):
            cc.append(c % p)
            c //= p
        f = tuple(cc) + (1,)
        if is_irreducible(F, f):
            return f
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def GFq(q: int, varname: str = "g") -> Field:
    """The field with q = p^m elements under the deterministic modulus:
    GFp for m = 1, a TableField up to TABLE_CAP, an ExtField above it."""
    p, m = _split_prime_power(q)
    if m == 1:
        return GFp(p)
    if q <= TABLE_CAP:
        return (_Char2TableField if p == 2 else TableField)(p, m, varname)
    return ExtField(GFp(p), find_irreducible(p, m), varname)


def _split_prime_power(q: int) -> Tuple[int, int]:
    """(p, m) with q = p^m.  For each m the integer m-th root of q is the
    only candidate p, so the cost grows with the bits of q, not with p."""
    for m in range(1, q.bit_length()):
        p = _iroot(q, m)
        if p ** m == q and _is_prime(p):
            return p, m
    raise ValueError(f"{q} is not a prime power")


def _iroot(n: int, m: int) -> int:
    """floor(n^(1/m)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // m)
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


# ---------------------------------------------------------------------------
# Factorization over finite fields (squarefree / distinct-degree / Cantor-
# Zassenhaus), deterministic via a seed derived from the input.
# ---------------------------------------------------------------------------


def _encode(F: Field, f: tuple) -> int:
    """Stable integer encoding of a polynomial for RNG seeding; a TableField
    element encodes as its coefficient tuple, as in the ExtField."""
    parts = []

    def enc(field, a):
        if isinstance(field, GFp):
            parts.append(a)
            return
        parts.append(-1)
        for c in field.digits(a) if isinstance(field, TableField) else a:
            enc(field.base, c)
        parts.append(-2)

    for c in f:
        enc(F, c)
    h = 0
    for v in parts:
        h = (h * 1000003 + (v + 7)) % (2 ** 61 - 1)
    return h


def poly_pth_root(F: Field, f: tuple) -> Optional[tuple]:
    """p-th root of f = g(x)^p (valid when f is a polynomial in x^p); None
    when some coefficient has no p-th root in F (F not perfect)."""
    p = F.char
    out = []
    for k in range(0, len(f), p):
        r = F.pth_root(f[k])
        if r is None:
            return None
        out.append(r)
    return fpoly.norm(F, out)


def squarefree_decomposition(F: Field, f: tuple) -> List[Tuple[tuple, int]]:
    """[(g_i, m_i)] with f = prod g_i^m_i, each g_i squarefree, over finite F."""
    p = F.char
    out: List[Tuple[tuple, int]] = []

    def rec(g: tuple, mult: int):
        if fpoly.deg(g) <= 0:
            return
        d = fpoly.deriv(F, g)
        if fpoly.is_zero(d):
            rec(poly_pth_root(F, g), mult * p)
            return
        c = fpoly.gcd_(F, g, d)
        w = fpoly.divmod_(F, g, c)[0]
        # w is the squarefree part through multiplicity counting
        i = 1
        while fpoly.deg(w) > 0:
            y = fpoly.gcd_(F, w, c)
            z = fpoly.divmod_(F, w, y)[0]
            if fpoly.deg(z) > 0:
                out.append((z, mult * i))
            w = y
            c = fpoly.divmod_(F, c, y)[0]
            i += 1
        # what is left of c is the part whose factor multiplicities are
        # divisible by p; its own recursion extracts the p-th root
        if fpoly.deg(c) > 0:
            rec(c, mult)

    rec(fpoly.monic(F, f), 1)
    return out


def _equal_degree_split(F: Field, f: tuple, d: int, rng: random.Random) -> tuple:
    """One nontrivial monic factor of squarefree f whose factors all have degree d."""
    q = F.order
    n = fpoly.deg(f)
    p = F.char
    s = _p_power_exponent(q, p)
    while True:
        r = fpoly.norm(F, [_random_elem(F, rng) for _ in range(n)])
        if fpoly.deg(r) < 1:
            continue
        g = fpoly.gcd_(F, r, f)
        if 0 < fpoly.deg(g) < n:
            return g
        if p == 2:
            # trace map into GF(2)
            t = fpoly.mod(F, r, f)
            acc = t
            for _ in range(s * d - 1):
                t = fpoly.powmod(F, t, 2, f)
                acc = fpoly.add(F, acc, t)
            g = fpoly.gcd_(F, acc, f)
        else:
            h = fpoly.powmod(F, r, (q ** d - 1) // 2, f)
            g = fpoly.gcd_(F, fpoly.sub(F, h, fpoly.const(F, F.one())), f)
        if 0 < fpoly.deg(g) < n:
            return g


def _random_elem(F: Field, rng: random.Random):
    if isinstance(F, GFp):
        return rng.randrange(F.p)
    cc = [_random_elem(F.base, rng) for _ in range(F.degree)]
    if isinstance(F, TableField):
        return F.from_digits(cc)
    return fpoly.norm(F.base, cc)


def factor_monic(F: Field, f: tuple) -> List[Tuple[tuple, int]]:
    """Irreducible factorization over a finite field, sorted deterministically.

    Returns [(g, multiplicity)] with monic irreducible g.  A linear f is
    its own factorization.  Equal-degree splits draw from one stream seeded
    by f, built at the first split.
    """
    if F.order is None:
        raise ValueError("factorization requires a finite coefficient field")
    f = fpoly.monic(F, f)
    if fpoly.deg(f) == 1:
        return [(f, 1)]
    rng = None
    result: List[Tuple[tuple, int]] = []
    for sf, mult in squarefree_decomposition(F, f):
        for g, d in _distinct_degree(F, sf):
            # split the degree-d part completely
            stack = [g]
            while stack:
                cur = stack.pop()
                if fpoly.deg(cur) == d:
                    result.append((cur, mult))
                    continue
                if rng is None:
                    rng = random.Random(_encode(F, f) ^ 0x5EED)
                piece = _equal_degree_split(F, cur, d, rng)
                stack.append(piece)
                stack.append(fpoly.divmod_(F, cur, piece)[0])
    result.sort(key=lambda t: _encode(F, t[0]))
    # merge duplicates (can arise when squarefree parts repeat a factor)
    merged: List[Tuple[tuple, int]] = []
    for g, m in result:
        if merged and fpoly.eq(F, merged[-1][0], g):
            merged[-1] = (g, merged[-1][1] + m)
        else:
            merged.append((g, m))
    return merged
