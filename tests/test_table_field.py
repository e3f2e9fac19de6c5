"""GF(q) on log tables against GF(p)[z]/(m) on coefficient tuples.

A TableField element is an int code whose base-p digit i is the
coefficient of z^i in the ExtField element over the same modulus, so
``digits`` maps one representation onto the other.  Every operation, the
printed form, the factorization seed and the random draws must agree.
"""

import random

import pytest

from mlvkit import fpoly
from mlvkit.errors import MixedFields
from mlvkit.ffield import (TABLE_CAP, ExtField, GFp, GFq, TableField, _encode,
                           _random_elem, factor_monic)
from mlvkit.fields import ADD, MUL, FqtField, field_arith
from mlvkit.ratfunc import RF

ORDERS = [q for q in (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 243, 256) if q <= TABLE_CAP]


def pair(q):
    T = GFq(q, "w")
    return T, ExtField(GFp(T.char), T.modulus, "w")


@pytest.mark.parametrize("q", ORDERS)
def test_every_operation_equals_the_extension_field(q):
    T, E = pair(q)
    assert isinstance(T, TableField)
    assert (repr(T), T.order, T.char, T.degree) == (repr(E), E.order, E.char, E.degree)
    tup = [T.digits(a) for a in range(q)]
    code = {cc: a for a, cc in enumerate(tup)}
    # the digits are a bijection onto the reduced ExtField elements
    assert len(code) == q and all(fpoly.norm(E.base, cc) == cc for cc in tup)
    assert all(T.from_digits(cc) == a for a, cc in enumerate(tup))
    assert (T.zero(), T.one(), T.gen()) == (code[E.zero()], code[E.one()], code[E.gen()])
    inv = [None] + [E.inv(tup[b]) for b in range(1, q)]
    for a, A in enumerate(tup):
        assert T.neg(a) == code[E.neg(A)]
        assert T.pth_root(a) == code[E.pth_root(A)]
        assert T.elem_str(a) == E.elem_str(A)
        assert T.from_int(a) == code[E.from_int(a)]
        if a:
            assert T.inv(a) == code[inv[a]]
        for b, B in enumerate(tup):
            assert T.add(a, b) == code[E.add(A, B)]
            assert T.sub(a, b) == code[E.sub(A, B)]
            assert T.mul(a, b) == code[E.mul(A, B)]
            if b:
                # Field.div is the product by the inverse
                assert T.div(a, b) == code[E.mul(A, inv[b])]
    for F in (T, E):
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero())
        with pytest.raises(ZeroDivisionError):
            F.div(F.one(), F.zero())


@pytest.mark.parametrize("q", [4, 8, 9, 27, 256])
def test_encoding_factors_and_draws_equal_the_extension_field(q):
    """_encode seeds the equal-degree splits and orders the factors, and
    _random_elem samples stable-value's c_i: both see the same digits."""
    T, E = pair(q)
    rng = random.Random(q)
    for _ in range(40):
        f = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 7))) + (1,)
        F = tuple(T.digits(c) for c in f)
        assert _encode(T, f) == _encode(E, F)
        assert [(tuple(T.digits(c) for c in g), m) for g, m in factor_monic(T, f)] == \
            factor_monic(E, F)
    for seed in range(50):
        r1, r2 = random.Random(seed), random.Random(seed)
        assert T.digits(_random_elem(T, r1)) == _random_elem(E, r2)
        assert r1.random() == r2.random()


def test_the_cap_chooses_the_representation():
    assert isinstance(GFq(TABLE_CAP), TableField)
    # 289 = 17^2 is the first order above the cap with m >= 2
    assert not any(isinstance(GFq(q), TableField) for q in (289, 2 ** 16, 3 ** 16))
    assert isinstance(GFq(289), ExtField)
    assert type(GFq(257)) is GFp


@pytest.mark.parametrize("q", [4, 9])
def test_fqt_refuses_tuples_and_codes_beyond_q(q):
    K = FqtField(q)
    one = K.one()
    top = K.make((q - 1,), (1,))
    assert field_arith(K, ADD, top, one) == K.make((K.coeff_field.add(q - 1, 1),), (1,))
    for bad in (RF((q,), (1,)), RF(((0, 1),), (1,)), RF((1,), ((1,),))):
        with pytest.raises(MixedFields) as exc:
            field_arith(K, MUL, bad, one)
        assert exc.value.code == "MIXED_FIELDS"
