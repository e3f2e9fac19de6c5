"""Differential properties of the sparse arithmetic paths.

``RatFuncField.make`` cancels v^k directly when one side is a monomial,
``fpoly`` runs plain int loops over the nonzero terms when the field is
exactly ``GFp``, and ``FpPerfField`` moves between levels with slices.
Each is compared here with the general algorithm it stands in for.
"""

from hypothesis import given, settings, strategies as st

from mlvkit import fpoly
from mlvkit.ffield import ExtField, GFp, GFq
from mlvkit.fields import FpPerfField, PerfElem
from mlvkit.ratfunc import RF, RatFuncField


class GenericGFp(GFp):
    """GF(p) through the generic Field protocol: the same int elements,
    but not of the exact type GFp, so fpoly takes its generic loops."""


BASES = [GFp(2), GFp(3), GFp(5), GFq(4), RatFuncField(GFp(2), "c")]
PRIMES = [2, 3, 5, 7, 10007]


def element(B, n: int):
    """A base-field element indexed by n >= 0; n = 0 gives zero."""
    if isinstance(B, GFp):
        return B.from_int(n)
    if isinstance(B, ExtField):
        n %= B.order
        return fpoly.from_ints(B.base, [(n // B.base.p ** i) % B.base.p
                                        for i in range(B.degree)])
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
        k = data.draw(st.integers(0, 40))
        mono = (B.zero(),) * k + (nonzero(B, data.draw(st.integers(1, 63))),)
        other = data.draw(sparse_polys(B))
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


def levelwise_normalize(K: FpPerfField, k: int, a: RF) -> PerfElem:
    """Drop one level at a time while all exponents are divisible by p."""
    p = K.p
    while k > 0:
        if any(c for cc in (a.num, a.den) for i, c in enumerate(cc) if i % p):
            break
        a = K.rff.make(a.num[::p], a.den[::p])
        k -= 1
    return PerfElem(k, a)


def stretch(cc, s: int) -> tuple:
    """cc(v^s): the coefficient of v^i moves to v^(i*s)."""
    out = [0] * ((len(cc) - 1) * s + 1)
    for i, c in enumerate(cc):
        out[i * s] = c
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(0, 4), st.integers(0, 3),
    sparse_polys(GFp(p), 12), sparse_polys(GFp(p), 12))))
def test_perf_levels_equal_the_levelwise_algorithm(case):
    p, k, j, num, den = case
    K = FpPerfField(p)
    # exponents divisible by p^j, so up to j levels (capped at k) can drop
    a = K.rff.make(stretch(num, p ** j), stretch(den, p ** j))
    e = K._normalize(k, a)
    assert e == levelwise_normalize(K, k, a)
    for level in range(e.level, e.level + 3):
        assert K._normalize(level, K._promote(e, level)) == e
