import random
from fractions import Fraction as Q

import pytest

from mlvkit import graded as G
from mlvkit.errors import NegativeValue, ParseError
from mlvkit.fields import FpPerfField, FpctField, FqtField, QpField
from mlvkit.parsing import parse_choice_overrides, parse_graded


def stable_seed(K):
    return sum(i * ord(c) for i, c in enumerate(repr(K.key))) & 0xFFFF


def fields_with_twists():
    plain = [QpField(2), QpField(3), FqtField(3), FpPerfField(2),
             FpPerfField(3), FpctField(2)]
    twisted = [
        QpField(3).with_choice_overrides({Q(1): Q(3), Q(2): Q(18)}),
        QpField(2).with_choice_overrides({Q(1): Q(2), Q(3): Q(24)}),
    ]
    return plain + twisted


def random_sre(K, rng, nterms=3):
    R = K.residue_field
    G_ = K.value_group
    pairs = []
    for _ in range(rng.randrange(0, nterms + 1)):
        k = rng.randrange(0, 5)
        exp = G_.gen * k
        if G_.hull is not None and rng.random() < 0.5:
            exp = G_.gen * Q(k, G_.hull)
        c = R.from_int(rng.randrange(0, 7))
        pairs.append((exp, c))
    return G.element(K, pairs)


def test_initial_form_examples():
    K = QpField(2)
    t = G.initial_form(K, Q(12))
    assert t.terms == ((Q(2), 1),)  # 12/eps(2) = 3 = 1 mod 2
    t1 = G.initial_form(K, Q(1))
    assert t1.terms == ((0, 1),)
    P = FpPerfField(3)
    e = P.add(P.mul(P.from_int(2), P.canonical_unit(Q(1, 3))), P.t())
    t2 = G.initial_form(P, e)
    assert t2.terms == ((Q(1, 3), 2),)


def test_initial_form_guards():
    K = QpField(2)
    with pytest.raises(NegativeValue):
        G.initial_form(K, Q(1, 2))
    assert G.initial_form(K, Q(0)).is_zero()


def test_twisted_mul_examples():
    K3 = QpField(3)
    x = G.element(K3, [(Q(1), 1)])
    assert G.element_str(K3, G.twisted_mul(K3, x, x)) == "T^2"
    Ko = K3.with_choice_overrides({Q(1): Q(3), Q(2): Q(18)})
    xo = G.element(Ko, [(Q(1), 1)])
    assert G.element_str(Ko, G.twisted_mul(Ko, xo, xo)) == "2*T^2"
    z = G.element(K3, [])
    assert G.twisted_mul(K3, z, x).is_zero()


@pytest.mark.parametrize("text, expected", [
    ("T", "T"),
    ("-T", "2*T"),
    ("(1+T)^3", "1 + T^3"),
    ("T^(-1)", ParseError("graded exponents must be nonnegative")),
    ("(1+T)^(1/2)", ParseError("only T may carry fractional exponents")),
    ("U", ParseError("unknown symbol 'U' in a graded element")),
    ("T/T", ParseError("bad node 'div' in a graded element")),
])
def test_parse_graded_over_q3(text, expected):
    K = QpField(3)
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as exc:
            parse_graded(text, K)
        assert str(exc.value) == str(expected)
    else:
        assert G.element_str(K, parse_graded(text, K)) == expected


@pytest.mark.parametrize("K", fields_with_twists(),
                         ids=lambda k: k.descriptor_str() + ("+eps" if k.choice_overrides else ""))
def test_ring_axioms(K):
    rng = random.Random(0x517 ^ (stable_seed(K)))
    for _ in range(200):
        a = random_sre(K, rng)
        b = random_sre(K, rng)
        c = random_sre(K, rng)
        assert G.twisted_mul(K, a, b) == G.twisted_mul(K, b, a)
        lhs = G.twisted_mul(K, G.twisted_mul(K, a, b), c)
        rhs = G.twisted_mul(K, a, G.twisted_mul(K, b, c))
        assert lhs == rhs
        lhs = G.twisted_mul(K, a, G.add(K, b, c))
        rhs = G.add(K, G.twisted_mul(K, a, b), G.twisted_mul(K, a, c))
        assert lhs == rhs


@pytest.mark.parametrize("K", fields_with_twists(),
                         ids=lambda k: k.descriptor_str() + ("+eps" if k.choice_overrides else ""))
def test_integral_domain(K):
    rng = random.Random(0xD0 ^ (stable_seed(K)))
    tried = 0
    while tried < 60:
        a = random_sre(K, rng)
        b = random_sre(K, rng)
        if a.is_zero() or b.is_zero():
            continue
        tried += 1
        assert not G.twisted_mul(K, a, b).is_zero()


def _random_nonneg_element(K, rng):
    while True:
        if K.kind == "Qp":
            a = Q(rng.randrange(0, 60), rng.randrange(1, 10))
            a = Q(rng.randrange(1, 60))if rng.random() < 0.5 else a
        else:
            t = K.t()
            a = K.zero()
            for _ in range(rng.randrange(1, 3)):
                a = K.add(a, K.mul(K.from_int(rng.randrange(0, K.p)),
                                   K.pow(t, rng.randrange(0, 3))))
        if K.is_zero(a):
            continue
        v = K.valuate(a)
        if v >= 0:
            return a


@pytest.mark.parametrize("K", fields_with_twists(),
                         ids=lambda k: k.descriptor_str() + ("+eps" if k.choice_overrides else ""))
def test_psi_homomorphism(K):
    rng = random.Random(0xAB ^ (stable_seed(K)))
    samples = [(K.one(), K.one())]
    for _ in range(60):
        samples.append((_random_nonneg_element(K, rng), _random_nonneg_element(K, rng)))
    if K.kind == "Qp" and K.p == 3 and K.choice_overrides:
        samples.append((Q(3), Q(3)))  # exercises the (1,1) twist
    assert G.check_psi_homomorphism(K, samples) == []


@pytest.mark.parametrize("K", [QpField(2), QpField(3), FpPerfField(2),
                               FqtField(4), FpctField(3)],
                         ids=lambda k: k.descriptor_str())
def test_frobenius_diagram(K):
    # initial_form(a^p) = frobenius(initial_form(a))
    rng = random.Random(0xF0 ^ (stable_seed(K)))
    for _ in range(80):
        a = _random_nonneg_element(K, rng)
        p = K.p
        lhs = G.initial_form(K, K.pow(a, p))
        rhs = G.frobenius(K, G.initial_form(K, a))
        assert lhs == rhs


def test_frobenius_examples():
    K = QpField(2)
    x = G.element(K, [(Q(1), 1)])
    assert G.frobenius(K, x) == G.element(K, [(Q(2), 1)])
    K3 = QpField(3)
    y = G.element(K3, [(Q(1), 2)])
    assert G.frobenius(K3, y) == G.element(K3, [(Q(3), 2)])
    assert G.frobenius(K3, G.element(K3, [])).is_zero()


def test_frobenius_surjective_criterion():
    v, w = G.frobenius_surjective(QpField(2))
    assert v == "NO" and w == ("VALUE_WITNESS", Q(1))
    assert G.frobenius_surjective(FpPerfField(3)) == ("YES", None)
    v, w = G.frobenius_surjective(FpctField(2))
    assert v == "NO" and w[0] == "RESIDUE_WITNESS"
    C = FpctField(2)
    assert C.residue_field.eq(w[1], C.residue_field.var())


def test_pth_root_examples():
    P = FpPerfField(2)
    x = G.element(P, [(Q(1, 2), P.residue_field.one())])
    r = G.pth_root(P, x)
    assert isinstance(r, G.SemigroupRingElement)
    assert r.terms == ((Q(1, 4), P.residue_field.one()),)
    assert G.frobenius(P, r) == x
    assert G.pth_root(P, G.element(P, [])).is_zero()
    K2 = QpField(2)
    no = G.pth_root(K2, G.element(K2, [(Q(1), 1)]))
    assert isinstance(no, G.NoRoot) and "1/2" in no.reason
    C = FpctField(3)
    no2 = G.pth_root(C, G.element(C, [(Q(0), C.residue_field.var())]))
    assert isinstance(no2, G.NoRoot)


def test_pth_root_surjective_linkage():
    # YES: 100 random terms all have roots whose Frobenius returns the input
    P = FpPerfField(2)
    rng = random.Random(77)
    for _ in range(100):
        exp = Q(rng.randrange(0, 40), 2 ** rng.randrange(0, 4))
        x = G.element(P, [(exp, P.residue_field.one())])
        root = G.pth_root(P, x)
        assert isinstance(root, G.SemigroupRingElement)
        assert G.frobenius(P, root) == x
    # and so do random multi-term elements
    for p in (2, 3):
        P = FpPerfField(p)
        R = P.residue_field
        rng = random.Random(0x900 + p)
        for _ in range(100):
            x = G.element(P, [(Q(rng.randrange(0, 40), p ** rng.randrange(0, 4)),
                               R.from_int(rng.randrange(0, p)))
                              for _ in range(rng.randrange(0, 6))])
            root = G.pth_root(P, x)
            assert isinstance(root, G.SemigroupRingElement)
            assert len(root.terms) == len(x.terms)
            assert G.frobenius(P, root) == x
    # NO: the witness itself fails
    K = QpField(3)
    v, (kind, wit) = G.frobenius_surjective(K)
    assert v == "NO" and kind == "VALUE_WITNESS"
    assert isinstance(G.pth_root(K, G.element(K, [(wit, 1)])), G.NoRoot)


def fields_with_and_without_tables():
    """Qp(3), Fq(4,t) and FpPerf(2,t), each plain and with an override
    table; Fq(4,t)'s table uses a generator z of GF(4), so twist(1, 1) = z^2."""
    K3, K4, P2 = QpField(3), FqtField(4), FpPerfField(2)
    z = K4.lift(K4.residue_field.gen())
    return [K3, K3.with_choice_overrides(parse_choice_overrides("1=6,2=18", K3)),
            K4, K4.with_choice_overrides({Q(1): K4.mul(z, K4.t())}),
            P2, P2.with_choice_overrides(parse_choice_overrides("1/2=t^(1/2)+t,1=t+t^2", P2))]


def residue_elements(R):
    if R.order == R.char:
        return [R.from_int(n) for n in range(R.order)]
    return [R.zero()] + [R.pow(R.gen(), i) for i in range(R.order - 1)]


def full_twist_mul(K, x, y):
    R = K.residue_field
    return G.element(K, [(ex + ey, R.mul(R.mul(cx, cy), G.twist(K, ex, ey)))
                         for ex, cx in x.terms for ey, cy in y.terms])


def full_twist_frobenius(K, x):
    R, p = K.residue_field, K.p
    pairs = []
    for e, c in x.terms:
        tau = R.one()
        for i in range(1, p):
            tau = R.mul(tau, G.twist(K, i * e, e))
        pairs.append((p * e, R.mul(R.pow(c, p), tau)))
    return G.element(K, pairs)


@pytest.mark.parametrize("K", fields_with_and_without_tables(),
                         ids=lambda k: k.descriptor_str() + ("+eps" if k.choice_overrides else ""))
def test_products_and_frobenius_equal_the_full_twist_computation(K):
    """Without overrides every twist is 1 and is not computed; with a
    table the products still match the twist computed term by term."""
    rng = random.Random(0x7E ^ stable_seed(K))
    R = K.residue_field
    coeffs = residue_elements(R)
    if K.choice_overrides and R.order > 2:
        # the table makes some twist visible (GF(2) has no unit but 1)
        assert any(G.twist(K, g, g) != R.one() for g in K.choice_overrides)
    gen, hull = K.value_group.gen, K.value_group.hull

    def draw():
        pairs = []
        for _ in range(rng.randrange(0, 4)):
            den = hull ** rng.randrange(0, 3) if hull else 1
            pairs.append((gen * Q(rng.randrange(0, 5), den), rng.choice(coeffs)))
        return G.element(K, pairs)

    for _ in range(60):
        x, y = draw(), draw()
        assert G.twisted_mul(K, x, y) == full_twist_mul(K, x, y)
        assert G.frobenius(K, x) == full_twist_frobenius(K, x)
