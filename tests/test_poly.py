import random
from fractions import Fraction as Q

import pytest

from mlvkit.errors import ConstantBase, DivByZero, NonMonicBase
from mlvkit.fields import FpPerfField, FqtField, QpField
from mlvkit import fpoly
from mlvkit.poly import Poly, hasse_derivative, phi_expansion


def rebuild(coeffs, phi):
    """sum c_k * phi^k."""
    acc = Poly(phi.field, ())
    for k, c in enumerate(coeffs):
        acc = acc + c * phi ** k
    return acc


def test_zero_polynomial_degree_marker():
    K = QpField(2)
    z = Poly(K, ())
    assert z.degree == -1 and z.is_zero()


def test_phi_expansion_examples():
    K = QpField(2)
    x = Poly.x(K)
    f = Poly.from_ints(K, [8, 2, 1])
    exp = phi_expansion(f, x)
    assert [c[0] for c in exp] == [Q(8), Q(2), Q(1)]

    g = Poly.from_ints(K, [-4, 0, -4, 0, 1])  # x^4 - 4x^2 - 4
    phi = Poly.from_ints(K, [-2, 0, 1])
    exp = phi_expansion(g, phi)
    assert exp[0] == Poly.from_ints(K, [-8])
    assert exp[1].is_zero()
    assert exp[2] == Poly.from_ints(K, [1])
    assert rebuild(exp, phi) == g

    small = phi_expansion(x, Poly.from_ints(K, [1, 0, 1]))
    assert list(small) == [x]


def test_phi_expansion_guards():
    K = QpField(2)
    with pytest.raises(NonMonicBase):
        phi_expansion(Poly.x(K), Poly.from_ints(K, [1, 2]))
    with pytest.raises(ConstantBase):
        phi_expansion(Poly.x(K), Poly.from_ints(K, [3]))


def test_phi_expansion_reconstruction_random():
    rng = random.Random(11)
    for K in (QpField(2), QpField(3), FqtField(2)):
        for _ in range(170):
            f = Poly.from_ints(K, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 9))])
            phi = Poly.from_ints(
                K, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 4))] + [1])
            exp = phi_expansion(f, phi)
            assert rebuild(exp, phi) == f
            assert all(c.degree < phi.degree for c in exp)


def test_hasse_examples():
    K = QpField(5)
    x3 = Poly.from_ints(K, [0, 0, 0, 1])
    assert hasse_derivative(x3, 2) == Poly.from_ints(K, [0, 3])
    F2 = FqtField(2)
    xp = Poly.from_ints(F2, [0, 0, 1])  # x^p with p = 2
    assert hasse_derivative(xp, 1).is_zero()
    x4 = Poly.from_ints(K, [0, 0, 0, 0, 1])
    assert hasse_derivative(x4, 4) == Poly.from_ints(K, [1])


def _two_var_mul(K, a, b, nmax):
    # polynomials in h with Poly coefficients, truncated beyond h^nmax
    out = [Poly(K, ()) for _ in range(nmax + 1)]
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j <= nmax:
                out[i + j] = out[i + j] + ca * cb
    return out


def test_hasse_taylor_identity_symbolic():
    # f(x + h) = sum_i D_i f(x) h^i as polynomials in the two symbols x, h
    rng = random.Random(5)
    for K in (QpField(2), FqtField(3)):
        for _ in range(20):
            deg = rng.randrange(1, 9)
            f = Poly.from_ints(K, [rng.randrange(-6, 7) for _ in range(deg)] + [1])
            nmax = f.degree
            # x + h as a two-variable polynomial: [x, 1]
            xh = [Poly.x(K), Poly.const(K, K.one())]
            # evaluate f at x+h by Horner
            acc = [Poly(K, ())]
            for c in reversed(f.coeffs):
                acc = _two_var_mul(K, acc, xh, nmax)
                acc[0] = acc[0] + Poly.const(K, c)
            for i in range(nmax + 1):
                want = hasse_derivative(f, i)
                got = acc[i] if i < len(acc) else Poly(K, ())
                assert got == want, (f, i)


def test_poly_arith_examples():
    K = QpField(5)
    f = Poly.from_ints(K, [1, 1, 1])
    assert f.derivative() == Poly.from_ints(K, [1, 2])
    x3 = Poly.from_ints(K, [0, 0, 0, 1])
    q, r = x3.divmod(Poly.from_ints(K, [-2, 0, 1]))
    assert q == Poly.x(K) and r == Poly.from_ints(K, [0, 2])
    g = fpoly.gcd_(K, Poly.from_ints(K, [-1, 0, 1]).coeffs, Poly.from_ints(K, [0, 1, 1]).coeffs)
    assert Poly(K, g) == Poly.from_ints(K, [1, 1])
    with pytest.raises(DivByZero):
        x3.divmod(Poly(K, ()))
    with pytest.raises(DivByZero):
        x3.mod(Poly(K, ()))


def test_euclid_degree_contract_random():
    rng = random.Random(23)
    K = QpField(3)
    for _ in range(150):
        f = Poly.from_ints(K, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 8))])
        g = Poly.from_ints(K, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))])
        if g.is_zero():
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_perfect_closure_coefficients():
    P = FpPerfField(2)
    tinv = P.canonical_unit(Q(-1))
    g = Poly(P, [tinv, P.one(), P.one()])
    eta = P.canonical_unit(Q(-1, 2))
    # g(t^(-1/2)) = t^(-1) + t^(-1/2) + t^(-1) = t^(-1/2) in characteristic 2
    assert P.valuate(g.evaluate(eta)) == Q(-1, 2)


from hypothesis import given, settings, strategies as st

int_lists = st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=8)


@given(int_lists, st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=2))
@settings(max_examples=150, deadline=None)
def test_phi_expansion_reconstruction_hypothesis(fc, tail):
    K = QpField(3)
    f = Poly.from_ints(K, fc)
    phi = Poly.from_ints(K, tail + [1])
    if phi.degree < 1:
        return
    assert rebuild(phi_expansion(f, phi), phi) == f
