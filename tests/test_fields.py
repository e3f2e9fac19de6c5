import random
import re
from fractions import Fraction as Q

import pytest

from mlvkit.errors import InvertZero, MixedFields, NegativeValue
from mlvkit.fields import (ADD, INV, MUL, FpPerfField, FpctField, FqtField,
                           QpField, field_arith)
from mlvkit.values import is_inf, vadd


def stable_seed(K):
    return sum(i * ord(c) for i, c in enumerate(repr(K.key))) & 0xFFFF


def all_fields():
    return [QpField(2), QpField(5), FqtField(3), FqtField(4),
            FpPerfField(2), FpPerfField(3), FpctField(2), FpctField(3)]


def random_element(K, rng, size=3):
    """A random nonzero-ish element built from field generators."""
    kind = K.kind
    if kind == "Qp":
        return Q(rng.randrange(-40, 41), rng.randrange(1, 30))
    acc = K.zero()
    t = K.t()
    for i in range(rng.randrange(1, size)):
        c = K.from_int(rng.randrange(0, K.p if kind != "Fqt" else 9))
        term = K.mul(c, K.pow(t, rng.randrange(0, 3)))
        if kind == "Fpct" and rng.random() < 0.3:
            term = K.mul(term, K.c())
        acc = K.add(acc, term)
    if rng.random() < 0.25:
        den = K.add(K.one(), K.mul(K.from_int(rng.randrange(0, K.p)), t))
        acc = K.div(acc, den)
    if kind == "FpPerf" and rng.random() < 0.5:
        acc = K.add(acc, K.canonical_unit(Q(rng.randrange(1, 8), K.p ** rng.randrange(1, 3))))
    return acc


# -- spec examples ----------------------------------------------------------


def test_field_arith_examples():
    K = QpField(2)
    assert field_arith(K, MUL, Q(3, 4), Q(2, 3)) == Q(1, 2)
    P = FpPerfField(2)
    half = P.canonical_unit(Q(1, 2))
    prod = field_arith(P, MUL, half, half)
    assert prod.level == 0 and P.eq(prod, P.t())
    F = FqtField(3)
    t = F.t()
    s = field_arith(F, ADD, F.inv(t), t)
    assert F.elem_str(s) == "(t^2 + 1)/t"


def test_valuate_examples():
    assert QpField(2).valuate(Q(12)) == Q(2)
    P = FpPerfField(3)
    e = P.add(P.canonical_unit(Q(1, 9)), P.t())
    assert P.valuate(e) == Q(1, 9)
    assert is_inf(QpField(5).valuate(Q(0)))


def test_residue_examples():
    assert QpField(5).residue(Q(7, 2)) == 1
    F = FqtField(2)
    t = F.t()
    num = F.add(F.one(), t)
    den = F.add(num, F.mul(t, t))
    assert F.residue(F.div(num, den)) == F.coeff_field.one()
    C = FpctField(3)
    r = C.residue(C.div(C.c(), C.add(C.one(), C.t())))
    assert C.residue_field.elem_str(r) == "c"


def test_residue_negative_value_raises():
    K = QpField(3)
    with pytest.raises(NegativeValue):
        K.residue(Q(1, 3))
    F = FqtField(2)
    with pytest.raises(NegativeValue, match=r"v\(1/t\) = -1 < 0"):
        F.residue(F.inv(F.t()))
    P = FpPerfField(2)
    with pytest.raises(NegativeValue):
        P.residue(P.canonical_unit(Q(-1, 2)))
    C = FpctField(2)
    with pytest.raises(NegativeValue):
        C.residue(C.inv(C.t()))


def test_lift_examples():
    K = QpField(5)
    assert K.lift(3) == Q(3)
    C = FpctField(3)
    r = C.residue_field
    cc = r.add(r.mul(r.var(), r.var()), r.one())  # c^2 + 1
    assert C.eq(C.lift(cc), C.add(C.mul(C.c(), C.c()), C.one()))
    F4 = FqtField(4)
    gen = F4.coeff_field.gen()
    assert F4.residue(F4.lift(gen)) == gen


def test_choice_examples():
    assert QpField(3).choice(Q(2)) == Q(9)
    P = FpPerfField(2)
    assert P.eq(P.choice(Q(3, 4)), P.canonical_unit(Q(3, 4)))
    K = QpField(3).with_choice_overrides({Q(2): Q(18)})
    assert K.choice(Q(2)) == Q(18)
    assert K.choice(Q(1)) == Q(3)


def test_choice_guards():
    from mlvkit.errors import NegativeExponent, NotInValueGroup
    K = QpField(3)
    with pytest.raises(NegativeExponent):
        K.choice(Q(-1))
    with pytest.raises(NotInValueGroup):
        K.choice(Q(1, 2))
    for L, w in ((K, Q(1, 2)), (FqtField(4), Q(1, 2)), (FpPerfField(2), Q(1, 3))):
        with pytest.raises(NotInValueGroup, match=re.escape(str(L.value_group))):
            L.canonical_unit(w)


def test_residue_perfect():
    assert QpField(7).residue_perfect()[0] == "PERFECT"
    assert FpPerfField(3).residue_perfect()[0] == "PERFECT"
    assert FqtField(2).residue_perfect() == ("PERFECT", None)
    assert FqtField(4).residue_perfect() == ("PERFECT", None)
    verdict, witness = FpctField(2).residue_perfect()
    assert verdict == "IMPERFECT"
    C = FpctField(2)
    # witness c has no square root in F_2(c): degree parity
    assert C.residue_field.pth_root(witness) is None


def test_invert_zero():
    with pytest.raises(InvertZero):
        field_arith(QpField(2), INV, Q(0))
    with pytest.raises(InvertZero):
        FqtField(2).inv(FqtField(2).zero())
    C = FpctField(2)
    with pytest.raises(InvertZero, match=r"FpC\(2,c,t\)"):
        C.inv(C.zero())
    for K in (QpField(2), FqtField(2), FpPerfField(2), C):
        with pytest.raises(InvertZero, match=re.escape(K.descriptor_str())):
            K.inv(K.zero())


def test_tadic_fields_keep_their_descriptors():
    # TadicField is a RatFuncField with the valuation on top: the
    # descriptor, key and typed errors still come from the valued side
    F, C = FqtField(4), FpctField(2)
    assert repr(F) == "Fq(4,t)" and repr(C) == "FpC(2,c,t)"
    assert F.key == ("Fqt", 4) and C.key == ("Fpct", 2)
    F2 = FqtField(2)
    with pytest.raises(ArithmeticError, match=r"Fq\(2,t\)"):
        F2.pth_root(F2.t())
    assert F2.eq(F2.pth_root(F2.mul(F2.t(), F2.t())), F2.t())
    # c is no square in the residue field GF(2)(c): a typed refusal, not a crash
    with pytest.raises(ArithmeticError, match=r"FpC\(2,c,t\)"):
        C.pth_root(C.c())
    assert C.eq(C.pth_root(C.mul(C.t(), C.t())), C.t())
    # Qp has no Frobenius: the same refusal names its descriptor
    with pytest.raises(ArithmeticError, match=r"Qp\(2\) has characteristic zero"):
        QpField(2).pth_root(Q(4))


def test_mixed_fields():
    F = FqtField(2)
    with pytest.raises(MixedFields):
        field_arith(F, MUL, Q(1, 2), F.t())
    P = FpPerfField(2)
    with pytest.raises(MixedFields):
        field_arith(P, ADD, F.t(), P.t())
    # the t-adic fields share the RF representation; the coefficients differ
    F3, C3 = FqtField(3), FpctField(3)
    with pytest.raises(MixedFields):
        field_arith(C3, MUL, F3.t(), C3.t())
    with pytest.raises(MixedFields):
        field_arith(F3, MUL, C3.c(), F3.t())
    F4, C2 = FqtField(4), FpctField(2)
    with pytest.raises(MixedFields):
        field_arith(F4, ADD, C2.c(), F4.t())


def test_perf_level_normalization_idempotent():
    P = FpPerfField(2)
    e = P.canonical_unit(Q(3, 4))
    assert P._sparse(e.level, e.terms) == e
    # promoting then renormalizing returns the original, in either form
    dense = P.inv(P.add(P.one(), e))
    assert dense.rf is not None and e.rf is None
    for x in (e, dense):
        up = P._dense(x, x.level + 2)
        assert P._from_rf(x.level + 2, up) == x


@pytest.mark.parametrize("K", all_fields(), ids=lambda k: k.descriptor_str())
def test_with_choice_overrides_copies_the_descriptor(K):
    gamma = K.value_group.gen
    eps = K.canonical_unit(gamma)
    elt = K.mul(eps, K.add(K.one(), eps))  # value gamma, not epsilon(gamma)
    L = K.with_choice_overrides({gamma: elt})
    assert type(L) is type(K)
    assert L.key == K.key and L.descriptor_str() == K.descriptor_str()
    assert L.eq(L.choice(gamma), elt)
    assert K.eq(K.choice(gamma), eps)
    # every copy starts from an empty override table
    M = L.with_choice_overrides({})
    assert M.eq(M.choice(gamma), eps)


# -- valuation axioms (V1)-(V3) on random pairs ------------------------------


@pytest.mark.parametrize("K", all_fields(), ids=lambda k: k.descriptor_str())
def test_valuation_axioms(K):
    rng = random.Random(stable_seed(K))
    assert K.valuate(K.one()) == 0
    assert is_inf(K.valuate(K.zero()))
    for _ in range(1000):
        a = random_element(K, rng)
        b = random_element(K, rng)
        va, vb = K.valuate(a), K.valuate(b)
        # (V1)
        assert K.valuate(K.mul(a, b)) == vadd(va, vb)
        # (V2) with equality off the diagonal
        s = K.add(a, b)
        vs = K.valuate(s)
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)


@pytest.mark.parametrize("K", all_fields(), ids=lambda k: k.descriptor_str())
def test_residue_homomorphism(K):
    rng = random.Random(0xBEEF ^ (stable_seed(K)))
    R = K.residue_field
    count = 0
    while count < 200:
        a = random_element(K, rng)
        b = random_element(K, rng)
        if K.valuate(a) != 0 or K.valuate(b) != 0:
            continue
        count += 1
        lhs = K.residue(K.mul(a, b))
        rhs = R.mul(K.residue(a), K.residue(b))
        assert R.eq(lhs, rhs)
        lhs = K.residue(K.add(a, b))
        rhs = R.add(K.residue(a), K.residue(b))
        assert R.eq(lhs, rhs)


@pytest.mark.parametrize("K", all_fields(), ids=lambda k: k.descriptor_str())
def test_residue_lift_roundtrip(K):
    rng = random.Random(0xACE ^ (stable_seed(K)))
    R = K.residue_field
    samples = [R.zero(), R.one(), R.from_int(2), R.from_int(5)]
    if K.kind == "Fpct":
        samples.append(R.var())
    for r in samples:
        lifted = K.lift(r)
        assert R.eq(K.residue(lifted), r)
        if not R.is_zero(r):
            assert K.valuate(lifted) == 0


@pytest.mark.parametrize("K", all_fields(), ids=lambda k: k.descriptor_str())
def test_choice_valuate_roundtrip(K):
    G = K.value_group
    grid = [G.gen * k for k in range(0, 7)]
    if G.hull is not None:
        grid += [G.gen * Q(k, G.hull ** 2) for k in range(1, 9)]
    for gamma in grid:
        assert K.valuate(K.choice(gamma)) == gamma
    assert K.eq(K.choice(Q(0)), K.one())


# -- hypothesis properties ----------------------------------------------------

from hypothesis import given, settings, strategies as st

nonzero_rationals = st.fractions(min_value=-10 ** 4, max_value=10 ** 4,
                                 max_denominator=720).filter(lambda q: q != 0)


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=200, deadline=None)
def test_qp_v1_hypothesis(a, b):
    K = QpField(2)
    assert K.valuate(a * b) == K.valuate(a) + K.valuate(b)


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=200, deadline=None)
def test_qp_v2_hypothesis(a, b):
    K = QpField(3)
    s = a + b
    if s == 0:
        return
    assert K.valuate(s) >= min(K.valuate(a), K.valuate(b))
    if K.valuate(a) != K.valuate(b):
        assert K.valuate(s) == min(K.valuate(a), K.valuate(b))


def test_valuate_is_an_int_exactly_when_integral():
    Qp = QpField(3)
    cases = [(Qp, 18, 2), (Qp, Q(18), 2), (Qp, Q(1, 9), -2), (Qp, Q(5, 7), 0)]
    for F in (FqtField(3), FpctField(2)):
        t = F.t()
        cases += [(F, F.pow(t, 2), 2),
                  (F, F.div(F.one(), F.mul(t, F.add(F.one(), t))), -1)]
    P = FpPerfField(2)
    u = P.canonical_unit
    # t + t^(5/4) lives at level 2, yet its value is 1
    level_two = P.add(P.t(), u(Q(5, 4)))
    assert level_two.level == 2
    # t / (1 + t^(1/2)) is dense at level 1, with value 1
    dense = P.div(P.t(), P.add(P.one(), u(Q(1, 2))))
    assert dense.rf is not None and dense.level == 1
    cases += [(P, P.t(), 1), (P, level_two, 1), (P, dense, 1),
              (P, u(Q(3, 4)), Q(3, 4)),
              (P, P.div(u(Q(1, 2)), P.add(P.one(), P.t())), Q(1, 2))]
    for K, a, v in cases:
        got = K.valuate(a)
        assert got == v, (K, a)
        assert type(got) is (int if Q(v).denominator == 1 else Q), (K, a, got)
