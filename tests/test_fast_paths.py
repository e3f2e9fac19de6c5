"""Differential properties of the sparse arithmetic paths and early exits.

``RatFuncField.make`` cancels v^k directly when one side is a monomial,
``fpoly`` runs plain int loops over the nonzero terms when the field is
exactly ``GFp``, and ``FpPerfField`` combines the sparse Laurent terms of
its elements, falling back to dense rational functions in u only for a
denominator that is not a monomial.
``phi_expansion`` takes its last coefficient without dividing, ``divmod_``
returns at once for a shorter dividend and skips the inverse of a monic
divisor's leading coefficient, and ``taylor_shift`` at 0 is the identity.
The engine expands g at a new degree-one key by Taylor-shifting the
expansion it holds at the old centre, ``QpField`` keeps integral elements
as ints, and ``factor_monic`` returns a linear input at once, building
no random stream.  ``InductiveValuation.evaluate``
hands inputs of lower degree than the key to the previous stage and
reduces once modulo the key at a terminal stage, and ``truncation_eval``
reduces once modulo a base of infinite value.  Each is compared here with
the general algorithm it stands in for.  ``fpoly.evaluate`` and
``taylor_shift`` run Horner's rule from the leading coefficient (checked
against naive sums and by rebuilding f), and depth-zero stages skip their
trivial twists (checked by lifting graded reductions back).  Each field's
``initial`` reads value and residue off the lowest term (checked against
the residue of the quotient by p^w or t^w), a depth-zero lift is one
Taylor shift (checked against the sum of Poly powers it replaced), a
linear key at a depth-zero stage with e = 1 is built without the shift
(checked against the lift-and-shift route), and an exploration factors
each residual polynomial once.
"""

import random
from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import FPPERF2, FPPERF3, FQ2T, FQ3T, QP2, QP3, QP5
from mlvkit import fpoly
from mlvkit.engine import TERMINATED, _new_values, mac_lane_chains
from mlvkit.errors import MixedFields, NegativeValue, NonMonicBase
from mlvkit.ffield import GFp, GFq, factor_monic, is_irreducible
from mlvkit.fields import ADD, INV, MUL, FpPerfField, PerfElem, QpField, field_arith
from mlvkit.indval import InductiveValuation, truncation_eval
from mlvkit.parsing import parse_field, parse_poly
from mlvkit.poly import Poly, phi_expansion
from mlvkit.ratfunc import RF, RatFuncField
from mlvkit.values import INFINITY, vadd, vmul


class GenericGFp(GFp):
    """GF(p) through the generic Field protocol: the same int elements,
    but not of the exact type GFp, so fpoly takes its generic loops."""


BASES = [GFp(2), GFp(3), GFp(5), GFq(4), RatFuncField(GFp(2), "c")]
PRIMES = [2, 3, 5, 7, 10007]


def element(B, n: int):
    """A base-field element indexed by n >= 0; n = 0 gives zero."""
    if isinstance(B, GFp):
        return B.from_int(n)
    if B.order is not None:
        # GF(q): the element whose coefficient of gen^i is base-p digit i of n
        n %= B.order
        acc, power = B.zero(), B.one()
        for _ in range(B.degree):
            n, d = divmod(n, B.char)
            acc = B.add(acc, B.mul(B.from_int(d), power))
            power = B.mul(power, B.gen())
        return acc
    num = fpoly.from_ints(B.base, [(n >> i) & 1 for i in range(3)])
    return B.make(num, fpoly.from_ints(B.base, [1] + [(n >> i) & 1 for i in range(3, 6)]))


def nonzero(B, n: int):
    e = element(B, n)
    return e if not B.is_zero(e) else B.one()


@st.composite
def sparse_polys(draw, B, max_exp=60):
    """Nonzero polynomials with a few terms spread over a long range."""
    terms = draw(st.dictionaries(st.integers(0, max_exp), st.integers(0, 63),
                                 min_size=1, max_size=6))
    top = max(terms)
    cc = [B.zero()] * (top + 1)
    for k, n in terms.items():
        cc[k] = element(B, n)
    cc[top] = nonzero(B, terms[top])
    return tuple(cc)


def euclid_make(B, num, den) -> RF:
    """Reduce num/den by the Euclidean gcd and make den monic."""
    ref = GenericGFp(B.p) if type(B) is GFp else B
    g = fpoly.gcd_(ref, num, den)
    num = fpoly.divmod_(ref, num, g)[0]
    den = fpoly.divmod_(ref, den, g)[0]
    c = B.inv(den[-1])
    return RF(fpoly.smul(ref, c, num), fpoly.smul(ref, c, den))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_make_with_a_monomial_side_equals_euclid(data):
    for B in BASES:
        R = RatFuncField(B, "v")
        # the Euclidean reference over GF(2)(c) grows fast with the degree
        small = isinstance(B, RatFuncField)
        k = data.draw(st.integers(0, 12 if small else 40))
        mono = (B.zero(),) * k + (nonzero(B, data.draw(st.integers(1, 63))),)
        other = data.draw(sparse_polys(B, max_exp=12 if small else 60))
        assert R.make(mono, other) == euclid_make(B, mono, other)
        assert R.make(other, mono) == euclid_make(B, other, mono)


def gfp_polys(p):
    dense = st.lists(st.integers(0, p - 1), max_size=12).map(
        lambda cc: fpoly.norm(GFp(p), cc))
    constants = st.integers(1, p - 1).map(lambda a: (a,))
    return st.one_of(dense, constants, sparse_polys(GFp(p), max_exp=200), st.just(()))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), gfp_polys(p), gfp_polys(p))))
def test_gfp_int_loops_equal_the_generic_loops(case):
    p, f, g = case
    F, ref = GFp(p), GenericGFp(p)
    assert fpoly.mul(F, f, g) == fpoly.mul(ref, f, g)
    assert fpoly.add(F, f, g) == fpoly.add(ref, f, g)
    assert fpoly.neg(F, f) == fpoly.neg(ref, f)
    assert fpoly.sub(F, f, g) == fpoly.sub(ref, f, g)
    if g:
        assert fpoly.divmod_(F, f, g) == fpoly.divmod_(ref, f, g)
        assert fpoly.divmod_(F, fpoly.mul(F, f, g), g) == (f, ())


def stretch(cc, s: int) -> tuple:
    """cc(v^s): the coefficient of v^i moves to v^(i*s)."""
    if not cc:
        return ()
    out = [0] * ((len(cc) - 1) * s + 1)
    for i, c in enumerate(cc):
        out[i * s] = c
    return tuple(out)


def is_monomial(cc) -> bool:
    return sum(1 for c in cc if c) == 1


class DensePerf:
    """The perfect closure with every element a pair (k, a): a dense
    reduced rational function a in u = t^(1/p^k) at the minimal level k.
    Arithmetic promotes to the common level by stretching, runs the
    RatFuncField operation and drops levels one at a time."""

    def __init__(self, p: int):
        self.p = p
        self.rff = RatFuncField(GFp(p), "u")

    def normalize(self, k: int, a: RF):
        """Drop one level at a time while all exponents are divisible by p."""
        p = self.p
        while k > 0:
            if any(c for cc in (a.num, a.den) for i, c in enumerate(cc) if i % p):
                break
            a = self.rff.make(a.num[::p], a.den[::p])
            k -= 1
        return k, a

    def promote(self, a, k: int) -> RF:
        level, rf = a
        s = self.p ** (k - level)
        return RF(stretch(rf.num, s), stretch(rf.den, s))

    def binop(self, a, b, op):
        k = max(a[0], b[0])
        return self.normalize(k, op(self.promote(a, k), self.promote(b, k)))

    def add(self, a, b):
        return self.binop(a, b, self.rff.add)

    def mul(self, a, b):
        return self.binop(a, b, self.rff.mul)

    def neg(self, a):
        return a[0], self.rff.neg(a[1])

    def inv(self, a):
        return a[0], self.rff.inv(a[1])

    def eq(self, a, b):
        k = max(a[0], b[0])
        return self.promote(a, k) == self.promote(b, k)

    def valuate(self, a):
        k = self.rff.ord_var(a[1])
        return INFINITY if k is None else Q(k, self.p ** a[0])

    def pth_root(self, a):
        return self.normalize(a[0] + 1, a[1])

    def canonical_unit(self, w: Q):
        k = 0
        while (w * self.p ** k).denominator != 1:
            k += 1
        n = (w * self.p ** k).numerator
        mono = (0,) * abs(n) + (1,)
        rf = self.rff.make(mono, (1,)) if n >= 0 else self.rff.make((1,), mono)
        return self.normalize(k, rf)

    def elem_str(self, a):
        level, rf = a
        den = self.p ** level

        def side(cc):
            parts = []
            for i in range(len(cc) - 1, -1, -1):
                c = cc[i]
                if c == 0:
                    continue
                e = Q(i, den)
                if e == 0:
                    parts.append(str(c))
                    continue
                es = f"t^({e.numerator}/{e.denominator})" if e.denominator != 1 else (
                    "t" if e == 1 else f"t^{e.numerator}")
                parts.append(es if c == 1 else f"{c}*{es}")
            return " + ".join(parts) if parts else "0"

        ns = side(rf.num)
        if rf.den == (1,):
            return ns
        ds = side(rf.den)
        if " + " in ns:
            ns = f"({ns})"
        if " + " in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(0, 4), st.integers(0, 3),
    sparse_polys(GFp(p), 12), sparse_polys(GFp(p), 12))))
def test_perf_levels_equal_the_levelwise_algorithm(case):
    p, k, j, num, den = case
    K = FpPerfField(p)
    # exponents divisible by p^j, so up to j levels (capped at k) can drop
    a = K.rff.make(stretch(num, p ** j), stretch(den, p ** j))
    e = K._from_rf(k, a)
    assert (e.level, K._dense(e, e.level)) == DensePerf(p).normalize(k, a)
    # sparse exactly when the reduced denominator is a monomial
    assert (e.rf is None) == is_monomial(a.den)
    for level in range(e.level, e.level + 3):
        assert K._from_rf(level, K._dense(e, level)) == e
        if e.rf is None:
            assert K._sparse(level, tuple(K._terms_at(e, level))) == e


@st.composite
def perf_pairs(draw, p):
    """(level, num, den): a quotient of polynomials in u = t^(1/p^level)
    whose exponents may all share a power of p, and whose denominator is
    1, a monomial (negative exponents) or anything (the dense form)."""
    level = draw(st.integers(0, 4))
    s = p ** draw(st.integers(0, 2))
    num = draw(st.one_of(sparse_polys(GFp(p), 12), st.just(())))
    den = draw(st.one_of(
        st.just((1,)),
        st.tuples(st.integers(0, 9), st.integers(1, p - 1)).map(
            lambda kc: (0,) * kc[0] + (kc[1],)),
        sparse_polys(GFp(p), 6)))
    return level, stretch(num, s), stretch(den, s)


def build(K, level, num, den):
    """num/den through the public arithmetic of K, term by term."""
    def poly(cc):
        acc = K.zero()
        for i, c in enumerate(cc):
            if c:
                acc = K.add(acc, K.mul(K.from_int(c), K.canonical_unit(Q(i, K.p ** level))))
        return acc
    return K.div(poly(num), poly(den))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
    st.just(p), perf_pairs(p), perf_pairs(p),
    st.integers(-20, 20), st.integers(0, 4))))
def test_perf_arithmetic_equals_the_dense_reference(case):
    p, x, y, n, j = case
    K, R = FpPerfField(p), DensePerf(p)

    def ref(level, num, den):
        return R.normalize(level, R.rff.make(num, den))

    def same(e, r):
        # the canonical forms agree: minimal level, reduced rational
        # function, and sparse exactly when the denominator is a monomial
        assert (e.level, K._dense(e, e.level)) == r
        assert (e.rf is None) == is_monomial(r[1].den)
        assert K.elem_str(e) == R.elem_str(r)
        assert K.valuate(e) == R.valuate(r)
        v = R.valuate(r)
        if v is INFINITY or v > 0:
            assert K.residue(e) == 0
        elif v == 0:
            # a reduced unit at u = 0: both constant terms are nonzero
            num, den = r[1].num, r[1].den
            assert K.residue(e) == num[0] * pow(den[0], -1, p) % p
        else:
            with pytest.raises(NegativeValue):
                K.residue(e)

    a, ra = build(K, *x), ref(*x)
    b, rb = build(K, *y), ref(*y)
    for e, r in ((a, ra), (b, rb)):
        same(e, r)
        same(K.neg(e), R.neg(r))
        same(K.pth_root(e), R.pth_root(r))
        if not K.is_zero(e):
            same(K.inv(e), R.inv(r))
    same(K.add(a, b), R.add(ra, rb))
    same(K.mul(a, b), R.mul(ra, rb))
    same(K.sub(a, a), R.add(ra, R.neg(ra)))
    assert K.eq(a, b) == R.eq(ra, rb)
    assert K.eq(K.add(a, b), K.add(b, a))
    w = Q(n, p ** j)
    same(K.canonical_unit(w), R.canonical_unit(w))


@pytest.mark.parametrize("bad", [
    PerfElem(0, ((0, 0),)), PerfElem(0, ((0, 1), (1, 2))), PerfElem(0, ((1, 1), (0, 1))),
    PerfElem(0, ((0, 1), (0, 1))), PerfElem(0, ((Q(1, 2), 1),)), PerfElem(0, ((0, 1, 1),)),
    PerfElem(0, [(0, 1)]),
    # not canonical: a level that can drop, a dense monomial denominator,
    # a dense fraction that is not reduced, a dense zero
    PerfElem(1, ((2, 1),)), PerfElem(0, rf=RF((1,), (0, 1))),
    PerfElem(0, rf=RF((1, 1), (1, 0, 1))), PerfElem(0, rf=RF((), (1, 1)))],
    ids=repr)
def test_malformed_perf_elements_are_mixed_fields(bad):
    K = FpPerfField(2)
    for op, args in ((ADD, (bad, K.one())), (MUL, (K.t(), bad)), (INV, (bad,))):
        with pytest.raises(MixedFields):
            field_arith(K, op, *args)
    for good in (K.t(), K.inv(K.add(K.one(), K.t())), K.canonical_unit(Q(-3, 4))):
        assert field_arith(K, ADD, good, K.zero()) == good


# ---------------------------------------------------------------------------
# Early exits on the phi-expansion path
# ---------------------------------------------------------------------------

VALUED = [parse_field(d) for d in ("Qp(2)", "Fq(4,t)", "FpPerf(2,t)", "FpC(2,c,t)")]


def second_generator(K):
    """An element independent of the uniformizer: 3, a GF(q) generator
    (2 over GF(p)), t^(1/p) and c respectively."""
    if K.kind == "Qp":
        return K.from_int(3)
    if K.kind == "Fqt":
        R = K.residue_field
        return K.lift(R.gen() if R.order != R.char else R.from_int(2))
    if K.kind == "FpPerf":
        return K.canonical_unit(Q(1, K.p))
    return K.c()


def valued_element(K, d):
    """(d0 + d1*w + d2*u) / (1 + d3*u) with u = canonical_unit(1) and w the
    second generator; the denominator never vanishes."""
    u, w = K.canonical_unit(Q(1)), second_generator(K)
    num = K.add(K.add(K.from_int(d[0]), K.mul(K.from_int(d[1]), w)),
                K.mul(K.from_int(d[2]), u))
    return K.div(num, K.add(K.one(), K.mul(K.from_int(d[3]), u)))


def valued_coeffs(K, max_len):
    digits = st.tuples(*[st.integers(-3, 3)] * 4)
    return st.lists(digits, max_size=max_len).map(
        lambda ds: tuple(valued_element(K, d) for d in ds))


def strip(F, cc) -> tuple:
    cc = list(cc)
    while cc and F.is_zero(cc[-1]):
        cc.pop()
    return tuple(cc)


def ref_divmod(F, f, g):
    """Schoolbook long division: invert the leading coefficient and update
    every term of the divisor, including the one that cancels."""
    inv = F.inv(g[-1])
    r = list(f)
    q = [F.zero()] * max(0, len(f) - len(g) + 1)
    while len(r) >= len(g):
        c = F.mul(r[-1], inv)
        k = len(r) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            r[k + i] = F.sub(r[k + i], F.mul(c, b))
        r = list(strip(F, r))
    return strip(F, q), tuple(r)


def ref_taylor(F, f, a) -> tuple:
    """Coefficients of f in powers of (x - a) by repeated synthetic division."""
    cc = list(f)
    out = []
    while cc:
        q = []
        acc = F.zero()
        for c in reversed(cc):
            acc = F.add(F.mul(acc, a), c)
            q.append(acc)
        out.append(q.pop())
        cc = list(reversed(q))
    return strip(F, out)


def same(F, f, g) -> bool:
    return len(f) == len(g) and all(F.eq(a, b) for a, b in zip(f, g))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_phi_expansion_equals_repeated_division(data):
    for K in VALUED:
        f = Poly(K, data.draw(valued_coeffs(K, 9)))
        low = data.draw(valued_coeffs(K, 3))
        phi = Poly(K, low + (K.zero(),) * data.draw(st.integers(0, 2)) + (K.one(),))
        if phi.degree < 1:
            phi = Poly(K, (K.zero(), K.one()))
        ref = []
        cur = f.coeffs
        while cur:
            cur, r = ref_divmod(K, cur, phi.coeffs)
            ref.append(r)
        exp = phi_expansion(f, phi)
        assert len(exp) == len(ref)
        assert all(same(K, c.coeffs, r) for c, r in zip(exp, ref))
        assert sum((c * phi ** k for k, c in enumerate(exp)), Poly(K, ())) == f


def division_cases():
    """(field, coefficient strategy) pairs that take the generic loops."""
    small = st.integers(0, 63)
    gf = [(B, st.lists(small, max_size=8).map(
        lambda ns, B=B: tuple(element(B, n) for n in ns)))
        for B in (GenericGFp(5), GFq(4), RatFuncField(GFp(2), "c"))]
    qp = QpField(3)
    fracs = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                     max_size=8).map(tuple)
    exact = GFp(5)
    ints = st.lists(st.integers(0, 4), max_size=8).map(tuple)
    return gf + [(qp, fracs), (exact, ints)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_divmod_by_monic_and_non_monic_equals_long_division(data):
    for F, coeffs in division_cases():
        f = strip(F, data.draw(coeffs))
        g = strip(F, data.draw(coeffs))
        if not g:
            continue
        monic = fpoly.smul(F, F.inv(g[-1]), g)
        for d in (g, monic):
            q, r = fpoly.divmod_(F, f, d)
            q0, r0 = ref_divmod(F, f, d)
            assert same(F, q, q0) and same(F, r, r0)
            if len(f) < len(d):
                assert q == () and same(F, r, f)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_taylor_shift_equals_synthetic_division(data):
    for K in VALUED:
        f = strip(K, data.draw(valued_coeffs(K, 8)))
        a = valued_element(K, data.draw(st.tuples(*[st.integers(-3, 3)] * 4)))
        for centre in (K.zero(), a):
            assert same(K, fpoly.taylor_shift(K, f, centre), ref_taylor(K, f, centre))


@given(st.fractions(), st.fractions())
@example(Q(0), Q(1, 3))
def test_qp_sub_equals_add_of_negation(a, b):
    K = QpField(2)
    assert K.sub(a, b) == K.add(a, K.neg(b))


# ---------------------------------------------------------------------------
# The engine's degree-one shift, int Qp elements, linear factorizations
# ---------------------------------------------------------------------------

CORPUS_FIELDS = [parse_field(d) for d in ("Qp(2)", "Qp(3)", "Qp(5)", "Fq(2,t)",
                                          "Fq(3,t)", "FpPerf(2,t)", "FpPerf(3,t)")]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_taylor_shift_of_an_expansion_equals_the_expansion_at_the_new_centre(data):
    digits = st.tuples(*[st.integers(-3, 3)] * 4)
    for K in CORPUS_FIELDS:
        g = Poly(K, data.draw(valued_coeffs(K, 5)) + (K.one(),))
        a = valued_element(K, data.draw(digits))
        if data.draw(st.booleans()):
            # one term lift(r) * epsilon(w), as key_from_residual makes it
            r = K.residue_field.from_int(data.draw(st.integers(1, K.p - 1)))
            level = data.draw(st.integers(0, 2)) if K.kind == "FpPerf" else 0
            w = Q(data.draw(st.integers(-2, 4)), K.p ** level)
            delta = K.mul(K.lift(r), K.canonical_unit(w))
        else:
            delta = valued_element(K, data.draw(digits))
        key = Poly(K, (K.neg(K.add(a, delta)), K.one()))
        exp = phi_expansion(g, key)
        shifted = fpoly.taylor_shift(K, fpoly.taylor_shift(K, g.coeffs, a), delta)
        assert len(shifted) == len(exp) == g.degree + 1
        assert all(K.eq(c, e[0]) for c, e in zip(shifted, exp))
        # the engine's depth-zero path gives the same expansion
        node = InductiveValuation.depth_zero(K, a, Q(data.draw(st.integers(0, 3))))
        assert _new_values(node, g, key)[1] == list(exp)


def qp_numbers():
    return st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), qp_numbers(), qp_numbers())
@example(2, 1, -1)
@example(3, Q(-1), Q(1, 3))
def test_qp_int_elements_agree_with_fractions(p, a, b):
    K = QpField(p)
    fa, fb = Q(a), Q(b)
    for got, want in ((K.add(a, b), fa + fb), (K.sub(a, b), fa - fb),
                      (K.mul(a, b), fa * fb), (K.neg(a), -fa)):
        assert got == want and hash(got) == hash(want)
        assert K.elem_str(got) == K.elem_str(want)
        assert K.valuate(got) == K.valuate(want)
    assert K.valuate(a) == K.valuate(fa)
    assert K.elem_str(a) == K.elem_str(fa)
    if K.valuate(fa) >= 0:
        assert K.residue(a) == K.residue(fa)
    if fa:
        inv = K.inv(a)
        assert inv == 1 / fa and K.inv(fa) == inv
        assert (type(inv) is int) == ((1 / fa).denominator == 1)


@pytest.mark.parametrize("p", PRIMES)
def test_qp_integral_constructors_return_ints(p):
    K = QpField(p)
    assert type(K.zero()) is int and type(K.one()) is int
    for n in (-7, 0, 1, p, 10**20):
        assert type(K.from_int(n)) is int and K.from_int(n) == n
    for r in range(p if p < 10 else 10):
        assert type(K.lift(r)) is int and K.residue(K.lift(r)) == r
    for n in range(4):
        assert type(K.canonical_unit(Q(n))) is int
    assert K.canonical_unit(Q(-1)) == Q(1, p)


def test_qp_refuses_a_bool():
    K = QpField(2)
    assert K.accepts(1) and K.accepts(Q(1, 2)) and not K.accepts(True)
    with pytest.raises(MixedFields):
        field_arith(K, ADD, True, 1)


def test_a_linear_input_is_its_own_factorization(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no random stream for a linear input")
    monkeypatch.setattr(random, "Random", refuse)
    for F in (GFp(2), GFp(3), GFq(4), GFq(9)):
        for f in ((F.one(), F.one()), (F.zero(), F.from_int(2) if F.char > 2 else F.one())):
            assert factor_monic(F, f) == [(fpoly.monic(F, f), 1)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_factor_monic_of_small_inputs_multiplies_back(data):
    for F in (GFp(2), GFp(3), GFq(4), GFq(9)):
        cc = data.draw(st.lists(st.integers(0, F.order - 1), min_size=1, max_size=7))
        f = fpoly.norm(F, [element(F, n) for n in cc])
        if not f:
            continue
        acc = (F.one(),)
        factors = factor_monic(F, f)
        for g, mult in factors:
            assert fpoly.is_monic(F, g) and is_irreducible(F, g)
            acc = fpoly.mul(F, acc, fpoly.pow_(F, g, mult))
        assert acc == fpoly.monic(F, f)
        # each irreducible appears once, with its full multiplicity
        assert len({g for g, _ in factors}) == len(factors)


# chains of the corpus polynomials, plus a few deeper ones; the Fq(2,t)
# polynomials are read over Fq(4,t)
CHAIN_INPUTS = {
    "Qp(2)": QP2 + ["(x^2-2)^2-8", "(((x^2-2)^2-8)^2-128)^2-2^15"],
    "Fq(4,t)": FQ2T + ["(x^2+t)^2+t^3*x"],
    "FpPerf(2,t)": FPPERF2,
}


# every corpus field, for the lift/reduction round trip: a residue field
# larger than GF(2) lets the twists of a stage differ from 1
ALL_CHAIN_INPUTS = dict(CHAIN_INPUTS, **{
    "Qp(3)": QP3, "Qp(5)": QP5, "Fq(3,t)": FQ3T, "FpPerf(3,t)": FPPERF3})


@lru_cache(maxsize=None)
def chain_branches(desc):
    K = parse_field(desc)
    out = []
    for s in ALL_CHAIN_INPUTS[desc]:
        g = parse_poly(s, K)
        out += [(g, b) for b in mac_lane_chains(K, g, max_limit_probes=3).branches]
    return K, tuple(out)


def ref_evaluate(stage, f):
    """min_k v(f_k) + k*gamma over the full expansion, recursively."""
    if f.is_zero():
        return INFINITY
    if stage.prev is None:
        K = stage.K
        terms = [(k, K.valuate(c)) for k, c in enumerate(f.taylor_coeffs(stage.center))
                 if not K.is_zero(c)]
    else:
        terms = [(k, ref_evaluate(stage.prev, c))
                 for k, c in enumerate(phi_expansion(f, stage.phi)) if not c.is_zero()]
    return min(vadd(v, vmul(k, stage.gamma)) for k, v in terms)


def ref_truncation(nu, q, f):
    """min_k nu(f_k) + k*nu(q) over the full q-expansion."""
    vq = nu(q)
    vals = [vadd(nu(c), vmul(k, vq))
            for k, c in enumerate(phi_expansion(f, q)) if not c.is_zero()]
    return min(vals) if vals else INFINITY


def draw_poly(data, K, lo, hi):
    """A polynomial with lo..hi coefficients (the top ones may vanish)."""
    digits = st.tuples(*[st.integers(-3, 3)] * 4)
    ds = data.draw(st.lists(digits, min_size=lo, max_size=hi))
    return Poly(K, tuple(valued_element(K, d) for d in ds))


@pytest.mark.parametrize("desc", list(CHAIN_INPUTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_evaluate_equals_the_full_expansion_at_every_stage(desc, data):
    K, branches = chain_branches(desc)
    g, b = data.draw(st.sampled_from(branches))
    stages = b.chain.stages()
    stage = data.draw(st.sampled_from(stages))
    m = stage.degree
    below = draw_poly(data, K, 0, m)
    above = draw_poly(data, K, m + 1, 3 * m + 2)
    for f in (below, above, stage.phi * below, g * below):
        assert stage.evaluate(f) == ref_evaluate(stage, f)
    if stage.is_terminal() and not below.is_zero():
        assert stage.evaluate(stage.phi * above) is INFINITY


@pytest.mark.parametrize("desc", list(CHAIN_INPUTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_truncation_eval_equals_the_full_expansion(desc, data):
    K, branches = chain_branches(desc)
    g, b = data.draw(st.sampled_from([(g, b) for g, b in branches if b.status == TERMINATED]))
    nu = b.chain.evaluate
    assert nu(g) is INFINITY
    f = draw_poly(data, K, 1, 3 * g.degree + 1)
    for q in [st_.phi for st_ in b.chain.stages()]:
        assert truncation_eval(nu, q, f) == ref_truncation(nu, q, f)
    h = draw_poly(data, K, 1, g.degree + 1)
    if not h.is_zero():
        assert truncation_eval(nu, g, g * h) is INFINITY
        assert ref_truncation(nu, g, g * h) is INFINITY
    with pytest.raises(NonMonicBase):
        truncation_eval(nu, g * Poly.const(K, K.canonical_unit(Q(1))), f)


# ---------------------------------------------------------------------------
# Horner from the leading coefficient; trivial twists at depth zero
# ---------------------------------------------------------------------------

HORNER_FIELDS = [GFp(5), GFq(4)] + [parse_field(d) for d in ("Qp(3)", "Fq(3,t)", "FpPerf(2,t)")]


def horner_element(F, d):
    """An element of a finite or valued field from four small ints."""
    if F.order is not None:
        return element(F, sum(abs(x) << (2 * i) for i, x in enumerate(d)))
    return valued_element(F, d)


def naive_value(F, f, a):
    """sum f_i a^i, with every power of a built by repeated products."""
    acc, power = F.zero(), F.one()
    for c in f:
        acc = F.add(acc, F.mul(c, power))
        power = F.mul(power, a)
    return acc


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_taylor_shift_reconstructs_and_evaluate_is_the_naive_sum(data):
    digits = st.tuples(*[st.integers(-3, 3)] * 4)
    for F in HORNER_FIELDS:
        drawn = data.draw(st.lists(digits, max_size=7))
        f = strip(F, tuple(horner_element(F, d) for d in drawn))
        a = horner_element(F, data.draw(digits))
        const = (F.one(),) if not f else f[:1]
        for g in (f, (), strip(F, const)):
            for centre in (F.zero(), a):
                cc = fpoly.taylor_shift(F, g, centre)
                # sum c_k (x - a)^k gives back g
                line = fpoly.norm(F, (F.neg(centre), F.one()))
                back, power = (), (F.one(),)
                for c in cc:
                    back = fpoly.add(F, back, fpoly.smul(F, c, power))
                    power = fpoly.mul(F, power, line)
                assert same(F, back, g)
                value = fpoly.evaluate(F, g, centre)
                assert F.eq(value, naive_value(F, g, centre))
                assert F.eq(value, cc[0] if cc else F.zero())


@lru_cache(maxsize=None)
def chain_stages(desc, depth_zero):
    """The stages of finite value of the corpus chains, at depth zero or
    above.  A terminal stage [mu; phi, oo] gives [mu; phi, mu(phi) + d] for
    d = 1, 1/3 and the value of mu's own key: the last makes the twists of
    the new stage nontrivial when mu ramifies."""
    K, branches = chain_branches(desc)
    out = []
    for _, b in branches:
        for s in b.chain.stages():
            if s.is_terminal() and s.prev is not None:
                mu = s.prev
                grown = [mu.augment(s.phi, mu(s.phi) + d)
                         for d in {Q(1), Q(1, 3), abs(mu.gamma)} if d]
            else:
                grown = [s]
            out += [g for g in grown
                    if not g.is_terminal() and (g.prev is None) == depth_zero]
    return K, out


@pytest.mark.parametrize("desc", list(ALL_CHAIN_INPUTS))
@pytest.mark.parametrize("depth_zero", [True, False], ids=["depth0", "deeper"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lift_homog_inverts_graded_reduction(desc, depth_zero, data):
    K, stages = chain_stages(desc, depth_zero)
    stage = data.draw(st.sampled_from(stages))
    f = draw_poly(data, K, 1, 3 * stage.degree + 2)
    gr = stage.graded_reduction(f)
    if gr.value is INFINITY:
        return
    lift = stage._lift_homog(gr.H, gr.i0, gr.w0)
    assert stage.evaluate(lift) == gr.value
    assert stage.graded_reduction(lift) == gr


# ---------------------------------------------------------------------------
# Initial terms read off the lowest term; depth-zero lifts in one Taylor
# shift; one factorization per residual polynomial and exploration
# ---------------------------------------------------------------------------

HOOK_FIELDS = [parse_field(d) for d in (
    "Qp(2)", "Qp(5)", "Fq(2,t)", "Fq(3,t)", "Fq(4,t)", "Fq(9,t)", "FpC(2,c,t)",
    "FpC(3,c,t)", "FpPerf(2,t)", "FpPerf(3,t)")]


def ref_value(K, a):
    """v(a) without K.initial: p divided out one factor at a time over Qp,
    else the orders at 0 of numerator and denominator (of the dense form
    in u = t^(1/p^level) over the perfect closure)."""
    if K.kind == "Qp":
        a, v = Q(a), 0
        while a.numerator % K.p == 0:
            a, v = a / K.p, v + 1
        while a.denominator % K.p == 0:
            a, v = a * K.p, v - 1
        return v
    if K.kind == "FpPerf":
        rf = K._dense(a, a.level)
        return Q(fpoly.low_deg(K.coeff_field, rf.num) - fpoly.low_deg(K.coeff_field, rf.den),
                 K.p ** a.level)
    return fpoly.low_deg(K.coeff_field, a.num) - fpoly.low_deg(K.coeff_field, a.den)


def ref_unit_residue(K, u):
    """The residue of a unit u without K.initial: its value at 0, where
    both constant terms of a reduced unit are nonzero."""
    if K.kind == "Qp":
        u = Q(u)
        return u.numerator * pow(u.denominator, -1, K.p) % K.p
    if K.kind == "FpPerf":
        rf = K._dense(u, u.level)
        return rf.num[0] * pow(rf.den[0], -1, K.p) % K.p
    return K.coeff_field.div(u.num[0], u.den[0])


def hook_elements(K, data):
    """Nonzero elements with values of both signs: valued_element times
    p^k or t^k; over the perfect closure also t^(k/p^2), with sparse and
    dense forms above level 0; over Qp also plain ints and Fractions."""
    digits = data.draw(st.tuples(*[st.integers(-3, 3)] * 4))
    a = valued_element(K, digits)
    a = K.one() if K.is_zero(a) else a
    level = 2 if K.kind == "FpPerf" else 0
    out = [K.mul(a, K.canonical_unit(Q(data.draw(st.integers(-9, 9)), K.p ** level)))]
    if K.kind == "Qp":
        out.append(data.draw(st.integers(1, 10**6)) * data.draw(st.sampled_from([1, -1])))
        out.append(data.draw(st.fractions(max_denominator=10**4).filter(lambda x: x != 0)))
    if K.kind == "FpPerf":
        # 1/(1 + t^(1/p)) * t^(-1/p^2) is dense at level 2, t^(3/4) + t^(5/4) sparse
        out.append(K.div(K.canonical_unit(Q(-1, K.p ** 2)),
                         K.add(K.one(), K.canonical_unit(Q(1, K.p)))))
        out.append(K.add(K.canonical_unit(Q(3, K.p ** 2)), K.canonical_unit(Q(5, K.p ** 2))))
        assert [(e.level, e.rf is None) for e in out[-2:]] == [(2, False), (2, True)]
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_initial_equals_the_residue_of_the_quotient(data):
    for K in HOOK_FIELDS:
        R = K.residue_field
        for a in hook_elements(K, data):
            w = ref_value(K, a)
            b, v = K.initial(a)
            assert v == w and (type(v) is int) == (Q(w).denominator == 1)
            assert R.eq(b, ref_unit_residue(K, K.div(a, K.canonical_unit(w))))
            if w >= 0:
                assert R.eq(K.residue(a), b if w == 0 else R.zero())


def poly_sum_lift(stage, H, i0, w0):
    """The depth-zero lift as the general machinery built it: the sum of
    lift(h) * p^w (or t^w) * phi^k, k = i0 + mpow*e, over Poly powers."""
    K = stage.K
    out = Poly(K, ())
    for mpow, h in enumerate(H):
        if stage.kappa.is_zero(h):
            continue
        k = i0 + mpow * stage.e_rel
        unit = K.canonical_unit(w0 - vmul(mpow * stage.e_rel, stage.gamma))
        out = out + Poly.const(K, K.mul(K.lift(h), unit)) * stage.phi ** k
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_depth_zero_lift_equals_the_poly_sum_lift(data):
    digits = st.tuples(*[st.integers(-3, 3)] * 4)
    for K in CORPUS_FIELDS:
        R = K.residue_field
        centre = valued_element(K, data.draw(digits))
        level = 1 if K.kind == "FpPerf" else 0
        # e_rel = den of gamma (prime to p over the perfect closure) up to 3
        gamma = Q(data.draw(st.integers(-4, 6)), data.draw(st.integers(1, 3)) * K.p ** level)
        stage = InductiveValuation.depth_zero(K, centre, gamma)
        H = [R.from_int(n) for n in data.draw(st.lists(st.integers(0, R.order - 1),
                                                        min_size=1, max_size=4))]
        i0 = data.draw(st.integers(0, stage.e_rel - 1))
        w0 = Q(data.draw(st.integers(-3, 3)))
        assert stage._lift_homog(H, i0, w0) == poly_sum_lift(stage, H, i0, w0)
        # keys: a monic residual of degree 1 to 3 lifts to degree deg * e
        rbar = tuple(H[:3]) + (R.one(),)
        key = stage.key_from_residual(rbar)
        assert key == poly_sum_lift(stage, rbar, 0, vmul(len(rbar) - 1, vmul(stage.e_rel, gamma)))
        assert key.degree == (len(rbar) - 1) * stage.e_rel


def test_depth_zero_lift_of_a_ramified_key_with_an_inert_residual():
    # e_rel = 2 and deg rbar = 2: y^2 + y + 1 over GF(2) lifts to the
    # quartic (x - 3)^4 + 2*(x - 3)^2 + 4 at centre 3 over Qp(2)
    K = QpField(2)
    stage = InductiveValuation.depth_zero(K, 3, Q(1, 2))
    key = stage.key_from_residual((1, 1, 1))
    assert key == poly_sum_lift(stage, (1, 1, 1), 0, Q(2))
    y = Poly(K, (-3, 1))
    assert key == y ** 4 + Poly.const(K, 2) * y ** 2 + Poly.const(K, 4)


def lift_and_shift_key(stage, rbar):
    """A linear key as the general depth-zero route builds it: the
    homogeneous lift lift(h_k) * U(w0 - k*gamma) of rbar in powers of
    (x - a), then one Taylor shift by -a into powers of x."""
    K = stage.K
    w0 = stage.gamma
    cc = [K.zero() if stage.kappa.is_zero(h)
          else K.mul(K.lift(h), K.canonical_unit(w0 - vmul(k, stage.gamma)))
          for k, h in enumerate(rbar)]
    return Poly(K, fpoly.taylor_shift(K, cc, K.neg(stage.center)))


def linear_key_stages():
    """(K, depth-zero stages with e = 1): those of the chains of every
    corpus field, and stages at Fraction centres over Qp, over the GF(q)
    tables of Fq(4,t) and Fq(9,t), and at dense perfect-closure centres
    such as 1/(1+t)."""
    out = []
    for desc in ALL_CHAIN_INPUTS:
        K, stages = chain_stages(desc, True)
        out.append((K, [s for s in stages if s.e_rel == 1]))
    extra = {"Qp(2)": (["1/3", "-5/7", "3/4"], [-1, 0, 2]),
             "Qp(3)": (["1/5", "7/9"], [-2, 1, 3]),
             "Fq(4,t)": (["1/(1+t)", "t+1/t"], [-1, 1, 2]),
             "Fq(9,t)": (["0", "1/(1+t)", "t^2+2/t"], [-1, 0, 1, 3]),
             "FpPerf(2,t)": (["1/(1+t)", "t^(1/2)/(1+t)", "t^(3/4)"], [-1, Q(1, 2), Q(3, 4), 2]),
             "FpPerf(3,t)": (["1/(1+t)", "t^(1/3)+1/t"], [-1, Q(1, 3), 1])}
    for desc, (centres, gammas) in extra.items():
        K = parse_field(desc)
        out.append((K, [InductiveValuation.depth_zero(K, parse_poly(c, K)[0], Q(gamma))
                        for c in centres for gamma in gammas]))
    return out


def test_a_linear_key_is_built_directly():
    """key_from_residual(y + r) at a depth-zero stage with e = 1 equals
    the lift-and-shift route coefficient by coefficient, with the same
    element types (an int or a Fraction over Qp), for every residue r of
    a prime field and of GF(4) and for five of GF(9); its seeded value
    is gamma, which a memo-free evaluation confirms."""
    seen = set()
    for K, stages in linear_key_stages():
        R = K.residue_field
        residues = [R.from_int(0)] + [R.from_int(n) for n in range(1, R.char)]
        if R.order != R.char:
            residues += [R.gen(), R.add(R.gen(), R.one())]
        for stage in stages:
            seen.add((K.kind, R.order,
                      stage.center if K.kind == "Qp" else K.elem_str(stage.center)))
            for r in residues:
                rbar = (r, R.one())
                key = stage.key_from_residual(rbar)
                want = lift_and_shift_key(stage, rbar)
                assert key == want and key.degree == 1, (stage.center, stage.gamma, r)
                assert [type(c) for c in key.coeffs] == [type(c) for c in want.coeffs]
                assert stage._eval_cache[key.coeffs] == stage.gamma
                assert ref_evaluate(stage, key) == stage.gamma
    # Qp Fraction centres, GF(4) and GF(9) residues, dense FpPerf centres
    assert ("Qp", 2, Q(1, 3)) in seen and ("FpPerf", 2, "1/(t + 1)") in seen
    assert {order for _, order, _ in seen} >= {2, 3, 4, 5, 9}


def test_one_factorization_per_residual_polynomial(monkeypatch):
    import mlvkit.engine as engine
    calls, steps = [], []
    real_factor, real_step = engine.factor_monic, engine._step

    def factor(F, f):
        calls.append((F, f))
        return real_factor(F, f)

    def step(g, state, factorizations):
        node = state.node
        steps.append((node.kappa, node.graded_reduction(g).H))
        return real_step(g, state, factorizations)

    monkeypatch.setattr(engine, "factor_monic", factor)
    monkeypatch.setattr(engine, "_step", step)
    K = FpPerfField(2)
    g = parse_poly("x^2+x+1/t", K)
    report = mac_lane_chains(K, g, max_limit_probes=10)
    # the ladder meets (y + 1)^2 at every probe, and factors it once
    assert len(steps) > len(set(steps)) and len(calls) == len(set(steps))
    assert set(calls) == set(steps)
    first = list(calls)
    calls.clear()
    mac_lane_chains(K, g, max_limit_probes=10)
    assert calls == first  # nothing is kept from the earlier exploration
    # a scan reads the report's probes: it neither steps nor factors
    calls.clear()
    steps.clear()
    scan = engine.psi_m_scan(report, 0, 1, probe_budget=12)
    assert len(scan.evidence) == 10 and calls == [] and steps == []
