"""GF(q) on log tables against GF(q) by polynomial arithmetic.

An ExtField over exactly GFp of order q <= TABLE_CAP computes on
exp/log/Zech tables keyed by its coefficient tuples.  The reference is
the same modulus over GenericGFp, a GFp subclass: it gets no tables, and
fpoly takes its generic loops over it.  Every operation, the printed
form, the factorization seed and the random draws must agree.
"""

import itertools
import random

import pytest

from mlvkit import fpoly
from mlvkit.errors import MixedFields
from mlvkit.ffield import (TABLE_CAP, ExtField, GFp, GFq, _encode, _random_elem, factor_monic,
                           is_irreducible)
from mlvkit.fields import ADD, MUL, FqtField, field_arith
from mlvkit.ratfunc import RF
from test_fast_paths import GenericGFp

ORDERS = [q for q in (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 243, 256) if q <= TABLE_CAP]


def pair(q):
    T = GFq(q, "w")
    return T, ExtField(GenericGFp(T.char), T.modulus, "w")


def elements(F):
    return [fpoly.norm(F.base, cc) for cc in itertools.product(range(F.char), repeat=F.degree)]


def has_tables(F) -> bool:
    return getattr(F, "_log", None) is not None


@pytest.mark.parametrize("q", ORDERS)
def test_every_operation_equals_the_extension_field(q):
    T, E = pair(q)
    assert has_tables(T) and not has_tables(E)
    assert (repr(T), T.order, T.char, T.degree) == (repr(E), E.order, E.char, E.degree)
    assert (T.zero(), T.one(), T.gen()) == (E.zero(), E.one(), E.gen())
    elems = elements(T)
    assert len(set(elems)) == q
    inv = [E.inv(b) if b else None for b in elems]
    for i, a in enumerate(elems):
        assert T.neg(a) == E.neg(a)
        assert T.pth_root(a) == E.pth_root(a)
        assert T.elem_str(a) == E.elem_str(a)
        assert T.from_int(i) == E.from_int(i)
        assert T.is_one(a) == E.is_one(a) and T.is_zero(a) == E.is_zero(a)
        if a:
            assert T.inv(a) == inv[i]
        for j, b in enumerate(elems):
            assert T.add(a, b) == E.add(a, b)
            assert T.sub(a, b) == E.sub(a, b)
            assert T.mul(a, b) == E.mul(a, b)
            assert T.eq(a, b) == (i == j)
            if b:
                # Field.div is the product by the inverse
                assert T.div(a, b) == E.mul(a, inv[j])
    for F in (T, E):
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero())
        with pytest.raises(ZeroDivisionError):
            F.div(F.one(), F.zero())


@pytest.mark.parametrize("q", [4, 8, 9, 27, 256])
def test_encoding_factors_and_draws_equal_the_extension_field(q):
    """_encode seeds the equal-degree splits and orders the factors, and
    _random_elem samples stable-value's c_i: both see the same tuples."""
    T, E = pair(q)
    elems = elements(T)
    rng = random.Random(q)
    for _ in range(40):
        f = tuple(rng.choice(elems) for _ in range(rng.randrange(1, 7))) + (T.one(),)
        assert _encode(T, f) == _encode(E, f)
        assert factor_monic(T, f) == factor_monic(E, f)
    for seed in range(50):
        r1, r2 = random.Random(seed), random.Random(seed)
        assert _random_elem(T, r1) == _random_elem(E, r2)
        assert r1.random() == r2.random()


def test_the_cap_chooses_the_representation():
    assert has_tables(GFq(TABLE_CAP))
    # 289 = 17^2 is the first order above the cap with m >= 2
    assert not any(has_tables(GFq(q)) for q in (289, 2 ** 16, 3 ** 16))
    assert type(GFq(257)) is GFp
    # a residue tower over GF(p) below the cap: GF(8) = GF(2)[z]/(z^3+z+1)
    assert has_tables(ExtField(GFp(2), (1, 1, 0, 1)))
    # GF(16) = GF(4)[y]/(y^2+y+z) is a tower over GF(4), not over GFp
    assert not has_tables(ExtField(GFq(4), ((0, 1), (1,), (1,))))


def test_a_reducible_modulus_gets_no_tables():
    # x^2 + 1 = (x + 1)^2 over GF(2): 1 + z is not invertible
    R = ExtField(GFp(2), (1, 0, 1))
    assert not has_tables(R)
    assert R.mul((1, 1), (1, 1)) == ()
    with pytest.raises(ArithmeticError):
        R.inv((1, 1))
    for p, m in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        F = GFp(p)
        for cc in itertools.product(range(p), repeat=m):
            modulus = cc + (1,)
            assert has_tables(ExtField(F, modulus)) == is_irreducible(F, modulus), modulus


@pytest.mark.parametrize("q", [4, 9])
def test_fqt_refuses_tuples_and_codes_beyond_q(q):
    K = FqtField(q)
    B = K.coeff_field
    p = B.char
    one = K.one()
    top = K.make(((p - 1, p - 1),), (B.one(),))
    assert field_arith(K, ADD, top, one) == K.make((B.add((p - 1, p - 1), B.one()),), (B.one(),))
    # an int, an entry outside [0, p), a tuple longer than the degree, a trailing zero
    for c in (1, (p,), (0, 0, 1), (1, 0)):
        for bad in (RF((c,), (B.one(),)), RF((B.one(),), (c,))):
            with pytest.raises(MixedFields) as exc:
                field_arith(K, MUL, bad, one)
            assert exc.value.code == "MIXED_FIELDS"
