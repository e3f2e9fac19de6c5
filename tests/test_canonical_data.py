"""Canonical element data: each element of every field family has exactly
one data value, so equality is ``==`` on the data (ffield.Field).

For each family, results of add, sub, mul, neg and inv pass the family's
canonical-form check (``accepts`` on a valued field, ``_finite_elem`` on
a finite one), the field laws hold by ``==``, and ``eq`` agrees with an
independent reference: cross-multiplication for rational functions and
(a - b) mod p for GF(p).  At the ``field_arith`` boundary, the t-adic
fields refuse data that is not canonical.
"""

import copy
import pickle
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from mlvkit import fpoly
from mlvkit.errors import MixedFields
from mlvkit.ffield import ExtField, GFp, GFq, _random_elem
from mlvkit.fields import (ADD, MUL, FpctField, FpPerfField, FqtField, QpField, _finite_elem,
                           field_arith)
from mlvkit.ratfunc import RF, RatFuncField


def element(B, rng):
    return rational_function(B, rng) if isinstance(B, RatFuncField) else _random_elem(B, rng)


def poly(B, rng, lo, hi) -> tuple:
    return fpoly.norm(B, [element(B, rng) for _ in range(rng.randint(lo, hi))])


def rational_function(R: RatFuncField, rng):
    """num/den over R = B(v); den is 1 half the time, so both the
    polynomial paths and the general ones run."""
    B = R.base
    num = poly(B, rng, 1, 3)
    den = poly(B, rng, 2, 3) if rng.random() < 0.5 else ()
    return R.make(num, den or (B.one(),))


def perf_sparse(K, rng):
    """A sum of up to three c * t^(e/p^k): sparse terms."""
    a = K.zero()
    for _ in range(rng.randrange(4)):
        w = Q(rng.randrange(-4, 5), K.p ** rng.randrange(3))
        a = K.add(a, K.mul(K.from_int(rng.randrange(1, K.p)), K.canonical_unit(w)))
    return a


def perf_dense(K, rng):
    """A sparse element over 1 + (a sparse element of positive value): dense
    unless the quotient happens to reduce."""
    b = K.mul(perf_sparse(K, rng), K.canonical_unit(Q(5)))
    if K.is_zero(b):
        b = K.t()
    return K.div(perf_sparse(K, rng), K.add(K.one(), b))


def qp_number(K, rng):
    return K.div(K.from_int(rng.randrange(-50, 51)), K.from_int(rng.randrange(1, 60)))


def finite(F):
    return F, (lambda a: _finite_elem(F, a)), (lambda rng: _random_elem(F, rng))


def valued(K, draw):
    return K, K.accepts, (lambda rng: draw(K, rng))


FQT = FqtField(9)
PERF = FpPerfField(3)

# name -> (field, canonical-form check, element from an rng)
FAMILIES = {
    "GF(5)": finite(GFp(5)),
    "GF(9) tabled": finite(GFq(9)),
    "GF(289) untabled": finite(GFq(289)),
    "GF(16) over GF(4)": finite(ExtField(GFq(4), ((0, 1), (1,), (1,)))),
    "Fq(9,t)": valued(FQT, rational_function),
    "FpC(3,c,t)": valued(FpctField(3), rational_function),
    "FpPerf(3,t) sparse": valued(PERF, perf_sparse),
    "FpPerf(3,t) dense": valued(PERF, perf_dense),
    "Qp(3)": valued(QpField(3), qp_number),
}


def reference_eq(F, a, b) -> bool:
    """Equality without ``==`` on F's data: (a - b) mod p over GF(p),
    cross-multiplication over B(v), the coordinates over an extension."""
    if isinstance(F, GFp):
        return (a - b) % F.p == 0
    if isinstance(F, RatFuncField):
        B = F.base
        return coefficients_eq(B, fpoly.mul(B, a.num, b.den), fpoly.mul(B, b.num, a.den))
    return coefficients_eq(F.base, a, b)


def coefficients_eq(B, f, g) -> bool:
    n = max(len(f), len(g))
    zeros = (B.zero(),) * n
    return all(reference_eq(B, x, y) for x, y in zip(f + zeros[len(f):], g + zeros[len(g):]))


@pytest.mark.parametrize("name", list(FAMILIES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_operations_keep_canonical_data(name, seed):
    F, canonical, draw = FAMILIES[name]
    rng = random.Random(seed)
    a, b, c = draw(rng), draw(rng), draw(rng)
    assert canonical(a) and canonical(b) and canonical(c)
    results = [F.add(a, b), F.sub(a, b), F.mul(a, b), F.neg(a)]
    if not F.is_zero(a):
        results.append(F.inv(a))
    for r in results:
        assert canonical(r), (name, a, b, r)
    # the field laws hold on the data itself
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.sub(F.add(a, b), b) == a
    if not F.is_zero(a):
        assert F.mul(a, F.inv(a)) == F.one()
    # eq agrees with the reference, on a random pair and on equal pairs
    # reached by different routes
    pairs = [(a, b), (a, F.sub(F.add(a, b), b))]
    if not F.is_zero(c):
        pairs.append((F.div(F.mul(a, c), c), a))
    # Qp's eq is Fraction equality itself; a PerfElem has no second form here
    if not isinstance(F, (QpField, FpPerfField)):
        for x, y in pairs:
            assert F.eq(x, y) == reference_eq(F, x, y)
            assert (hash(x) == hash(y)) or not F.eq(x, y)


def test_eq_tells_rational_functions_with_one_numerator_apart():
    K = FQT
    t = K.t()
    a, b = K.inv(t), K.inv(K.add(K.one(), t))
    assert a.num == b.num and not K.eq(a, b) and not reference_eq(K, a, b)
    assert K.eq(a, K.inv(t)) and hash(a) == hash(K.inv(t))


@pytest.mark.parametrize("K", [FqtField(3), FpctField(3)], ids=repr)
def test_products_with_a_polynomial_are_reduced(K):
    t = K.t()
    u = K.add(K.one(), t)
    assert K.mul(t, K.inv(t)) == K.one()
    assert K.mul(K.inv(u), u) == K.one()
    for r in (K.mul(t, u), K.mul(t, K.inv(u)), K.mul(u, K.div(t, u)), K.add(t, K.inv(t))):
        assert K.accepts(r), r
    assert K.mul(u, K.div(t, u)) == t


def test_tadic_fields_refuse_data_that_is_not_canonical():
    K = FqtField(3)
    assert K.accepts(K.div(K.t(), K.add(K.one(), K.t())))
    # t/t, a non-monic denominator, a trailing zero in the numerator
    for bad in (RF((0, 1), (0, 1)), RF((2,), (2,)), RF((1, 0), (1,))):
        assert not K.accepts(bad)
        with pytest.raises(MixedFields):
            field_arith(K, ADD, bad, K.one())
    C = FpctField(3)
    B = C.coeff_field  # GF(3)(c)
    c = B.var()
    assert C.accepts(C.div(C.c(), C.t()))
    # c/c, a denominator 2 over GF(3)(c), an unreduced coefficient c/c
    for bad in (RF((c,), (c,)), RF((c,), (B.from_int(2),)),
                RF((RF((0, 1), (0, 1)),), (B.one(),))):
        assert not C.accepts(bad)
        with pytest.raises(MixedFields):
            field_arith(C, MUL, bad, C.one())


def test_shared_zero_and_one_cannot_be_changed():
    K = FqtField(3)
    zero, one = K.zero(), K.one()
    t = K.t()
    for op, a, b in ((ADD, t, zero), (MUL, t, one), (ADD, one, K.neg(one)), (MUL, t, K.inv(t))):
        field_arith(K, op, a, b)
    assert zero == RF((), (1,)) and one == RF((1,), (1,))
    for attr in ("num", "den"):
        with pytest.raises(AttributeError):
            setattr(one, attr, (2,))
        with pytest.raises(AttributeError):
            delattr(zero, attr)
    assert zero == RF((), (1,)) and one == RF((1,), (1,))
    # copies and pickles rebuild the record through its constructor
    u = K.div(t, K.add(one, t))
    for clone in (copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
        assert clone == u and hash(clone) == hash(u)
