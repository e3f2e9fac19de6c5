import itertools
import random

import pytest

from mlvkit import analyzer, fpoly
from mlvkit.ffield import (ExtField, GFp, GFq, _split_prime_power, factor_monic,
                           find_irreducible, is_irreducible, poly_pth_root,
                           squarefree_decomposition)


def from_digits(F, digits):
    """The element sum digits[i] * gen^i of GF(p^m), by field operations."""
    acc, power = F.zero(), F.one()
    for d in digits:
        acc = F.add(acc, F.mul(F.from_int(d), power))
        power = F.mul(power, F.gen())
    return acc


def random_poly(F, rng, maxdeg=8):
    deg = rng.randrange(1, maxdeg + 1)
    cc = [rng.randrange(F.p) if isinstance(F, GFp) else
          from_digits(F, [rng.randrange(F.char) for _ in range(F.degree)])
          for _ in range(deg)]
    return fpoly.norm(F, tuple(cc) + (F.one(),))


def test_gfp_arithmetic():
    F = GFp(7)
    assert F.inv(3) == 5
    assert F.pow(3, 6) == 1
    assert F.pth_root(4) == 4
    with pytest.raises(ValueError):
        GFp(6)


def test_split_prime_power_matches_trial_division():
    def trial(q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = 0
        while q % p == 0:
            q //= p
            m += 1
        return (p, m) if q == 1 else None

    for q in range(-2, 5001):
        want = trial(q) if q >= 2 else None
        if want is None:
            with pytest.raises(ValueError):
                _split_prime_power(q)
        else:
            assert _split_prime_power(q) == want, q
    # a large prime, where trial division up to p would take minutes
    p = 1000000007
    assert _split_prime_power(p) == (p, 1)
    assert _split_prime_power(p * p) == (p, 2)
    with pytest.raises(ValueError):
        _split_prime_power(p * 1000000009)


def test_extension_field_basics():
    F4 = GFq(4)
    g = F4.gen()
    assert F4.mul(g, g) == F4.add(g, F4.one())  # z^2 = z + 1
    assert F4.pow(g, 3) == F4.one()
    assert F4.mul(g, F4.inv(g)) == F4.one()
    # Frobenius inverse on F4: x -> x^2
    assert F4.pth_root(F4.mul(g, g)) == g


def test_deterministic_moduli():
    assert GFq(4).modulus == (1, 1, 1)
    assert GFq(9).modulus == (1, 0, 1)
    assert find_irreducible(2, 3) == (1, 1, 0, 1)
    # the degree-16 modulus behind the stable-value sampler
    m = find_irreducible(2, 16)
    assert fpoly.deg(m) == 16 and is_irreducible(GFp(2), m)
    # pinned: the stableInitialCoeff strings are written in these moduli
    assert m == fpoly.from_ints(GFp(2), [1, 1, 0, 1, 0, 1] + [0] * 10 + [1])
    assert find_irreducible(3, 16) == fpoly.from_ints(GFp(3), [1, 0, 1, 1] + [0] * 12 + [1])


def _plain_scan(p, degree):
    """First monic irreducible in the base-p coding, with no codes skipped."""
    F = GFp(p)
    for code in range(p ** degree):
        f = tuple(code // p ** i % p for i in range(degree)) + (1,)
        if is_irreducible(F, f):
            return f


def test_find_irreducible_matches_the_plain_scan():
    # the binomial skip changes no modulus: primes below 120, degrees 2-8
    # (2-5 above 40), and degree 16 for p <= 13
    primes = [p for p in range(2, 120) if all(p % d for d in range(2, p))]
    cases = [(p, d) for p in primes for d in range(2, 9 if p < 40 else 6)]
    cases += [(p, 16) for p in primes if p <= 13]
    assert len(cases) == 162
    for p, d in cases:
        assert find_irreducible(p, d) == _plain_scan(p, d), (p, d)


@pytest.mark.parametrize("degree", [3, 4, 16])
def test_find_irreducible_for_a_large_prime_is_prompt(degree):
    # 1000000007 is 3 mod 4 and 2 mod 3: no x^3 - a or x^4 - a is irreducible
    import time
    p = 1000000007
    start = time.perf_counter()
    f = find_irreducible(p, degree)
    assert time.perf_counter() - start < 2.0
    assert fpoly.deg(f) == degree and is_irreducible(GFp(p), f)


def test_tower_of_towers():
    F4 = GFq(4)
    # an irreducible quadratic over F4: y^2 + y + g
    mod = (F4.gen(), F4.one(), F4.one())
    assert is_irreducible(F4, mod)
    F16 = ExtField(F4, mod, "w")
    assert F16.order == 16
    w = F16.gen()
    assert F16.eq(F16.pow(w, 15), F16.one())
    assert F16.eq(F16.pow(F16.pth_root(w), 2), w)


@pytest.mark.parametrize("F", [GFp(2), GFp(3), GFp(5), GFq(4), GFq(9)],
                         ids=lambda f: repr(f))
def test_factor_monic_reconstructs(F):
    rng = random.Random(31 + F.order)
    for _ in range(60):
        f = random_poly(F, rng)
        if fpoly.deg(f) < 1:
            continue
        factors = factor_monic(F, f)
        acc = fpoly.const(F, F.one())
        for g, mult in factors:
            assert fpoly.is_monic(F, g)
            assert is_irreducible(F, g)
            acc = fpoly.mul(F, acc, fpoly.pow_(F, g, mult))
        assert fpoly.eq(F, acc, fpoly.monic(F, f))


def test_factorization_is_deterministic():
    F = GFp(2)
    f = fpoly.from_ints(F, [1, 1, 0, 0, 1, 1, 1])
    assert factor_monic(F, f) == factor_monic(F, f)


def test_squarefree_decomposition_char_p():
    F = GFp(2)
    # (x+1)^5 = x^5+x^4+x+1: the p-power part goes through the p-th root
    f = fpoly.from_ints(F, [1, 1, 0, 0, 1, 1])
    assert squarefree_decomposition(F, f) == [(fpoly.from_ints(F, [1, 1]), 5)]
    # a polynomial in x^p: pure p-th power extraction
    g = fpoly.from_ints(F, [1, 0, 1])  # x^2 + 1 = (x+1)^2
    assert poly_pth_root(F, g) == fpoly.from_ints(F, [1, 1])


def test_is_irreducible_examples():
    F2 = GFp(2)
    assert is_irreducible(F2, fpoly.from_ints(F2, [1, 1, 1]))
    assert not is_irreducible(F2, fpoly.from_ints(F2, [1, 0, 1]))
    F3 = GFp(3)
    assert is_irreducible(F3, fpoly.from_ints(F3, [1, 0, 1]))
    assert not is_irreducible(F3, fpoly.from_ints(F3, [2, 0, 1]))


def _elements(F):
    if isinstance(F, GFp):
        return list(range(F.p))
    return [from_digits(F, cc) for cc in itertools.product(range(F.char), repeat=F.degree)]


def _monics(F, n):
    """Every monic polynomial of degree n over the finite field F."""
    return [tuple(cc) + (F.one(),)
            for cc in itertools.product(_elements(F), repeat=n)]


def _irreducible_by_trial_division(F, f):
    n = fpoly.deg(f)
    return n >= 1 and all(fpoly.mod(F, f, g)
                          for k in range(1, n // 2 + 1) for g in _monics(F, k))


@pytest.mark.parametrize("F, max_deg", [(GFp(2), 8), (GFp(3), 5), (GFq(4), 4)],
                         ids=repr)
def test_is_irreducible_equals_trial_division(F, max_deg):
    # every monic input: squares, and products of factors of one degree, included;
    # factor_monic runs the same distinct-degree loop and must agree
    for n in range(max_deg + 1):
        for f in _monics(F, n):
            irreducible = _irreducible_by_trial_division(F, f)
            assert is_irreducible(F, f) == irreducible, f
            if n >= 1:
                assert (factor_monic(F, f) == [(f, 1)]) == irreducible, f


@pytest.mark.parametrize("F", [GFp(2), GFp(3), GFq(4)], ids=repr)
def test_is_irreducible_rejects_squares(F):
    rng = random.Random(7 + F.order)
    for _ in range(40):
        g = random_poly(F, rng, maxdeg=5)
        h = random_poly(F, rng, maxdeg=4) if rng.random() < 0.7 else fpoly.const(F, F.one())
        f = fpoly.mul(F, fpoly.mul(F, g, g), h)
        assert not is_irreducible(F, f), f


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (3, 2), (8, 3), (13, 5)])
def test_pow_makes_exact_square_and_multiply_products(monkeypatch, n, products):
    F = GFp(5)
    f = fpoly.from_ints(F, [1, 1])
    m = fpoly.from_ints(F, [2, 0, 3, 1])
    calls = []
    mul = fpoly.mul
    monkeypatch.setattr(fpoly, "mul", lambda *a: calls.append(1) or mul(*a))
    got = fpoly.pow_(F, f, n)
    assert len(calls) == products
    calls.clear()
    got_mod = fpoly.powmod(F, f, n, m)
    assert len(calls) == products
    expect = fpoly.const(F, F.one())
    for _ in range(n):
        expect = mul(F, expect, f)
    assert got == expect
    assert got_mod == fpoly.mod(F, expect, m)
    # the power mod T^R of stable-value, defined for n >= 1
    if n:
        mul_mod = analyzer._mul_mod
        trunc_calls = []
        monkeypatch.setattr(analyzer, "_mul_mod",
                            lambda *a, **kw: trunc_calls.append(1) or mul_mod(*a, **kw))
        got_trunc = analyzer._pow_mod(F, f, n, 4)
        assert len(trunc_calls) == products
        assert got_trunc == fpoly.norm(F, expect[:4])
    # the element power of a field, here over GF(16)
    E = GFq(16)
    emul = E.mul
    elem_calls = []
    monkeypatch.setattr(E, "mul", lambda *a: elem_calls.append(1) or emul(*a))
    got_elem = E.pow(E.gen(), n)
    assert len(elem_calls) == products
    expect_elem = E.one()
    for _ in range(n):
        expect_elem = emul(expect_elem, E.gen())
    assert E.eq(got_elem, expect_elem)
