"""Finite fields GF(p) and extensions GF(p)[z]/(m), with factorization.

Field objects implement a small uniform protocol (zero/one/add/sub/mul/
neg/inv/div/eq/is_zero/from_int/elem_str plus char and order) over plain
canonical element data (see Field): integers for prime fields,
coefficient tuples for extensions.  Extensions over extensions give the
residue-field towers that inductive valuations build.  An extension of
GF(p) of order at most TABLE_CAP computes on log tables keyed by its
coefficient tuples.

Extension moduli searched here are deterministic: the monic irreducible
of the requested degree whose coefficient vector is smallest in the
base-p integer encoding (constant coefficient least significant).
"""

from __future__ import annotations

import random
from functools import cache, partial
from itertools import product
from typing import List, Optional, Tuple

from . import fpoly
from .values import split_p


class Field:
    """Abstract coefficient field over hashable element data.

    Element data is canonical: each element has exactly one data value,
    so ``eq`` is ``==`` here, once, and data can key dicts and sets.  GF(p)
    keeps ints in [0, p), an extension the reduced coefficient tuple with
    no trailing zeros, a rational function field the gcd-reduced RF with a
    monic denominator (ratfunc), and the valued fields their own canonical
    forms (fields).  Arithmetic keeps the rule; ``accepts`` on each valued
    field checks it where outside data enters (``fields.field_arith``).
    """

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
        return a == b

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def is_one(self, a) -> bool:
        return a == self.one()

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

    def is_zero(self, a):
        return a == 0

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


TABLE_CAP = 256  # the largest order q = p^m, m >= 2, of an ExtField on log tables
# the largest p such that factor_monic finds roots over GF(p) by
# evaluation at every element (see factor_monic)
SCAN_CAP = 61


class ExtField(Field):
    """base[z]/(modulus); elements are coefficient tuples over base.

    The modulus is a monic irreducible tuple over ``base``.  Works for
    towers: base may itself be an ExtField.  Over base exactly GFp, with
    degree >= 2 and order q <= TABLE_CAP, products, inverses, quotients,
    negatives and p-th roots add or scale discrete logarithms to a
    primitive element g, and a sum is the Zech logarithm
    g^a + g^b = g^(a + Z(b - a)) with 1 + g^k = g^Z(k) (Lidl-Niederreiter,
    Finite Fields, section 9.2); the tables are keyed by the same tuples.
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
        self._one = (base.one(),)
        self._log = None
        if type(base) is GFp and self.degree >= 2 and self.order <= TABLE_CAP:
            tables = _log_tables(base.p, self.modulus)
            if tables is not None:
                self._exp, self._log, self._zech = tables
                self._n = self.order - 1
                # -1 = g^((q-1)/2) for odd p, and -1 = 1 = g^0 for p = 2
                self._neg_log = self._n // 2 if self.char != 2 else 0

    def _red(self, cc) -> tuple:
        return fpoly.mod(self.base, cc, self.modulus)

    def zero(self):
        return ()

    def one(self):
        return self._one

    def gen(self):
        return self._red(fpoly.x(self.base))

    def embed(self, a):
        """Embed a base-field element as a constant."""
        return fpoly.const(self.base, a)

    def add(self, a, b):
        log = self._log
        if log is None:
            return fpoly.add(self.base, a, b)
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        # a negative difference indexes from the end: Z(k) = Z(k + q - 1)
        z = self._zech[log[b] - la]
        return () if z is None else self._exp[la + z]

    def neg(self, a):
        if self._log is None:
            return fpoly.neg(self.base, a)
        return self._exp[self._log[a] + self._neg_log] if a else ()

    def mul(self, a, b):
        log = self._log
        if log is None:
            return self._red(fpoly.mul(self.base, a, b))
        return self._exp[log[a] + log[b]] if a and b else ()

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in extension field")
        if self._log is not None:
            return self._exp[self._n - self._log[a]]
        d, s, _ = fpoly.xgcd(self.base, a, self.modulus)
        if fpoly.deg(d) != 0:
            raise ArithmeticError("modulus not irreducible")
        return self._red(fpoly.smul(self.base, self.base.inv(d[0]), s))

    def div(self, a, b):
        log = self._log
        if log is None:
            return self.mul(a, self.inv(b))
        if not b:
            raise ZeroDivisionError("inverse of zero in extension field")
        return self._exp[log[a] - log[b] + self._n] if a else ()

    def is_zero(self, a):
        return not a

    def from_int(self, n):
        return fpoly.const(self.base, self.base.from_int(n))

    def pth_root(self, a):
        # a^q = a, so the inverse of Frobenius is a -> a^(q/p)
        if self._log is not None:
            return self._exp[self._log[a] * (self.order // self.char) % self._n] if a else ()
        return self.pow(a, self.order // self.char)

    def elem_str(self, a):
        return fpoly.to_str(self.base, a, self.varname)

    def __repr__(self):
        if self.order is not None:
            return f"GF({self.order})[{self.varname}]"
        return f"{self.base!r}[{self.varname}]/(...)"


@cache
def _log_tables(p: int, modulus: tuple):
    """(exp, log, zech) of GF(p)[z]/(modulus) for a primitive g, or None
    when no element has q - 1 distinct nonzero powers (a reducible modulus).

    exp has 2(q - 1) entries, exp[k] = g^k, so that a sum or difference of
    two logarithms (plus q - 1) needs no reduction; log maps each nonzero
    element to its logarithm; zech[k] is the logarithm of 1 + g^k, None
    where that sum is zero.  Built by polynomial arithmetic, once per
    (p, modulus) in each process."""
    F = GFp(p)
    m = len(modulus) - 1
    n = p ** m - 1
    # in the order of the base-p code of the coefficients: 0, the constants, z, ...
    candidates = (fpoly.norm(F, cc[::-1]) for cc in product(range(p), repeat=m))
    log = next((log for log in map(partial(_powers, F, modulus), candidates)
                if len(log) == n), None)
    if log is None:
        return None
    exp = list(log)
    zech = [log.get(fpoly.add(F, (1,), c)) for c in exp]
    return exp + exp, log, zech


def _powers(F: Field, modulus: tuple, g: tuple) -> dict:
    """{g^k mod modulus: k} for k = 0, 1, ... up to the first power that is
    zero or repeated.  Only a primitive element of a field has q - 1 of
    them, so a reducible modulus gets no tables."""
    log, a = {}, (1,)
    while a and a not in log:
        log[a] = len(log)
        a = fpoly.mod(F, fpoly.mul(F, a, g), modulus)
    return log


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % d == 0:
            return n == d
    s, d = split_p(n - 1, 2)
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
    GFp for m = 1, an ExtField over GFp otherwise."""
    p, m = _split_prime_power(q)
    if m == 1:
        return GFp(p)
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
# Factorization over finite fields: roots by evaluation over GF(p) for
# p <= SCAN_CAP, then squarefree / distinct-degree / Cantor-Zassenhaus,
# deterministic via a seed derived from the input.
# ---------------------------------------------------------------------------


def _encode(F: Field, f: tuple) -> int:
    """Stable integer encoding of a polynomial for RNG seeding."""
    parts = []

    def enc(field, a):
        if isinstance(field, GFp):
            parts.append(a)
            return
        parts.append(-1)
        for c in a:
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
        if fpoly.deg(c) == 0:
            # g is squarefree: the loop below would only divide by 1
            out.append((g, mult))
            return
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
    s = split_p(q, p)[0]
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
    """An element of the finite field F from one randrange(p) per GF(p)
    coordinate, lowest first, depth first through a tower; an extension
    directly over GF(p) draws its coordinates in one list."""
    if isinstance(F, GFp):
        return rng.randrange(F.p)
    base = F.base
    if isinstance(base, GFp):
        randrange, p = rng.randrange, base.p
        return fpoly.norm(base, [randrange(p) for _ in range(F.degree)])
    return fpoly.norm(base, [_random_elem(base, rng) for _ in range(F.degree)])


def _divide_linear(p: int, f: tuple, r: int) -> tuple:
    """(q, f(r)) with f = (x - r) * q + f(r) over GF(p), for f != 0:
    synthetic division, Horner's rule from the leading coefficient."""
    acc, out = 0, []
    for c in reversed(f):
        acc = (acc * r + c) % p
        out.append(acc)
    rem = out.pop()
    return tuple(reversed(out)), rem


def factor_monic(F: Field, f: tuple) -> List[Tuple[tuple, int]]:
    """Irreducible factorization over a finite field, sorted deterministically.

    Returns [(g, multiplicity)] with monic irreducible g.  A linear f is
    its own factorization, and a constant has none.  Over GF(p) with
    p <= SCAN_CAP, each root r of f is found by evaluation and x - r
    divided out as often as it divides; the cofactor then has no linear
    factor, so of degree 2 or 3 it is irreducible (Lidl-Niederreiter,
    Finite Fields) and no random stream is drawn.  A rootless cofactor of
    degree >= 4, and any f over another field, goes through squarefree
    decomposition, distinct-degree pieces and Cantor-Zassenhaus
    equal-degree splits, which draw from one stream seeded by the
    polynomial they factor, built at the first split.

    SCAN_CAP = 61 is a measured crossover (CHANGES.md): on seeded random
    monic inputs of degree 2 to 5, in each of three runs, the scan beat
    the general path by at least 5 % at every degree up to GF(61); over
    GF(67) its margin at degree 5 fell to 1 % in one run, and over GF(73)
    it lost there.  On a rootless input of degree 4 or 5 the scan is work
    the general path repeats, about 5 % of the call over GF(5) and 15-25 %
    over GF(61).
    """
    if F.order is None:
        raise ValueError("factorization requires a finite coefficient field")
    f = fpoly.monic(F, f)
    if fpoly.deg(f) <= 1:
        return [(f, 1)] if fpoly.deg(f) == 1 else []
    result: List[Tuple[tuple, int]] = []
    scanned = type(F) is GFp and F.p <= SCAN_CAP
    if scanned:
        p = F.p
        for r in range(p):
            q, rem = _divide_linear(p, f, r)
            mult = 0
            while rem == 0:
                f, mult = q, mult + 1
                q, rem = _divide_linear(p, f, r)
            if mult:
                result.append((((-r) % p, 1), mult))
                if fpoly.deg(f) <= 1:
                    break
    if scanned and fpoly.deg(f) <= 3:
        # linear (the scan stopped early) or with no root: irreducible
        if fpoly.deg(f) > 0:
            result.append((f, 1))
    else:
        rng = None
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
    # the roots and the squarefree parts are pairwise coprime, so no
    # factor appears twice
    result.sort(key=lambda t: _encode(F, t[0]))
    return result
