import itertools
import random
from fractions import Fraction as Q

import pytest

from mlvkit import fpoly
from mlvkit.errors import NotAKeyPolynomial, ValueNotIncreased
from mlvkit.ffield import is_irreducible
from mlvkit.fields import FqtField, QpField
from mlvkit.indval import InductiveValuation as IV, truncation_eval
from mlvkit.poly import Poly
from mlvkit.values import INFINITY, is_inf, vadd


def brute_depth_zero(K, center, gamma, f):
    """Independent oracle: min over the literal (x-a)-expansion terms."""
    best = None
    for k, c in enumerate(f.taylor_coeffs(center)):
        if K.is_zero(c):
            continue
        v = vadd(K.valuate(c), 0 if k == 0 else k * gamma)
        best = v if best is None or v < best else best
    return INFINITY if best is None else best


def test_depth_zero_examples():
    K = QpField(2)
    mu = IV.depth_zero(K, Q(0), Q(1, 2))
    f = Poly.from_ints(K, [8, 2, 1])
    # brute force over the three expansion terms: min{3, 3/2, 1} = 1
    assert brute_depth_zero(K, Q(0), Q(1, 2), f) == Q(1)
    assert mu(f) == Q(1)
    assert mu(Poly.x(K)) == Q(1, 2)
    gauss = IV.depth_zero(K, Q(0), Q(0))
    g = Poly.from_ints(K, [6, 4, 3])
    assert gauss(g) == min(K.valuate(Q(6)), K.valuate(Q(4)), K.valuate(Q(3)))


def test_depth_zero_matches_brute_force_randomly():
    rng = random.Random(3)
    K = QpField(3)
    for _ in range(120):
        center = Q(rng.randrange(-6, 7))
        gamma = Q(rng.randrange(-4, 9), rng.randrange(1, 5))
        mu = IV.depth_zero(K, center, gamma)
        f = Poly.from_ints(K, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))])
        if f.is_zero():
            continue
        assert mu(f) == brute_depth_zero(K, center, gamma, f)


def test_augment_examples():
    K = QpField(2)
    mu = IV.depth_zero(K, Q(0), Q(1, 2))
    phi = Poly.from_ints(K, [-2, 0, 1])
    nu = mu.augment(phi, Q(3, 2))
    f = Poly.from_ints(K, [-4, 0, -4, 0, 1])
    assert nu(f) == Q(3)  # min{mu(-8), inf, 2*(3/2)} = 3
    term = mu.augment(phi, INFINITY)
    assert term(Poly.from_ints(K, [2, 0, 1])) == Q(2)
    with pytest.raises(ValueNotIncreased):
        mu.augment(phi, Q(1))  # mu(phi) = 1
    with pytest.raises(NotAKeyPolynomial):
        mu.augment(Poly.from_ints(K, [0, 0, 1]), Q(2))  # x^2 is no key


def test_augment_refuses_a_same_degree_polynomial_that_is_no_key():
    # mu(x - 5) = 0 < gamma = 1: w_(5,10) would give nu(x) = 0 < mu(x) = 1
    K = QpField(2)
    mu = IV.depth_zero(K, Q(0), Q(1))
    f = Poly.from_ints(K, [-5, 1])
    assert not mu.is_key(f)
    with pytest.raises(NotAKeyPolynomial):
        mu.augment(f, Q(10))
    # mu1(x^2 + 2x - 2) = 3/2 < 5/2: the stage would give nu(x^2 - 2) = 3/2
    mu1 = IV.depth_zero(K, Q(0), Q(1, 2)).augment(Poly.from_ints(K, [-2, 0, 1]), Q(5, 2))
    f = Poly.from_ints(K, [-2, 2, 1])
    assert not mu1.is_key(f)
    with pytest.raises(NotAKeyPolynomial):
        mu1.augment(f, Q(7, 2))


def test_evaluate_examples():
    K3 = QpField(3)
    gauss = IV.depth_zero(K3, Q(0), Q(0))
    assert gauss(Poly.from_ints(K3, [9, 3])) == Q(1)
    K = QpField(2)
    gauss2 = IV.depth_zero(K, Q(0), Q(0))
    h = Poly.from_ints(K, [1, 1, 1])
    mu1 = gauss2.augment(h, Q(1))
    assert mu1(h) == Q(1)


def ram_indices(nu):
    """The relative ramification index of each stage with a finite value."""
    return [st.e_rel for st in nu.stages() if not is_inf(st.gamma)]


def test_value_group_and_ram_indices():
    K = QpField(2)
    mu = IV.depth_zero(K, Q(0), Q(0))
    nu = mu.augment(Poly.x(K), Q(1, 2))  # collapses to depth zero at 1/2
    assert str(nu.value_group()) == "(1/2)Z"
    assert ram_indices(nu) == [2] and nu.ramification_index() == 2
    gauss3 = IV.depth_zero(FqtField(3), FqtField(3).zero(), Q(0))
    assert str(gauss3.value_group()) == "(1)Z"
    assert ram_indices(gauss3) == [1] and gauss3.ramification_index() == 1
    # gammas 1/2 then 3/2
    phi = Poly.from_ints(K, [-2, 0, 1])
    chain = nu.augment(phi, Q(3, 2))
    assert str(chain.value_group()) == "(1/2)Z"
    assert ram_indices(chain) == [2, 1] and chain.ramification_index() == 2


def test_equiv_examples():
    # f ~ g (in(f) = in(g)) exactly when their graded reductions agree, and
    # by definition when nu(f - g) > nu(f) = nu(g)
    K = QpField(2)
    gauss = IV.depth_zero(K, Q(0), Q(0))
    x = Poly.x(K)
    for f, g, equiv in [(Poly.from_ints(K, [2, 1]), x, True), (x, x, True),
                        (x, Poly.from_ints(K, [1]), False),
                        (Poly.from_ints(K, [1, 1]), x, False)]:
        assert (gauss.graded_reduction(f) == gauss.graded_reduction(g)) is equiv
        assert (gauss(f - g) > gauss(f) == gauss(g)) is equiv
    # the zero polynomial has no initial form: its reduction is empty at oo
    assert gauss.graded_reduction(Poly(K, ())) == (None, 0, None, INFINITY)


def test_is_key_examples():
    K = QpField(2)
    gauss = IV.depth_zero(K, Q(0), Q(0))
    assert gauss.is_key(Poly.x(K))
    assert not gauss.is_key(Poly.from_ints(K, [0, 0, 1]))  # x^2 = x * x
    mu = IV.depth_zero(K, Q(0), Q(1, 2))
    assert mu.is_key(Poly.from_ints(K, [-2, 0, 1]))


def _is_key_cases():
    K = QpField(2)
    gauss = IV.depth_zero(K, Q(0), Q(0))
    mu = IV.depth_zero(K, Q(0), Q(1, 2))
    mu2 = gauss.augment(Poly.from_ints(K, [1, 1, 1]), Q(1, 2))
    return [
        ("f = phi", gauss, [0, 1], True),
        ("f ~ phi", gauss, [2, 1], True),
        ("linear residual", gauss, [1, 1], True),
        ("f ~ phi above depth zero", mu2, [3, 1, 1], True),
        ("non-minimal top", mu, [1, 0, 1], False),
        ("non-minimal linear", mu, [1, 1], False),
        ("equivalence-divisible, ntop > 1", gauss, [4, 0, 1], False),
        ("reducible residual", gauss, [1, 0, 1], False),
        ("irreducible quadratic residual", gauss, [1, 1, 1], True),
        ("terminal stage", IV.depth_zero(K, Q(0), INFINITY), [0, 1], False),
        ("non-monic", gauss, [1, 2], False),
        ("degree not a multiple of m", mu2, [1, 0, 0, 1], False),
    ]


@pytest.mark.parametrize("case", _is_key_cases(), ids=lambda c: c[0])
def test_is_key_table(case):
    _, nu, coeffs, expected = case
    assert nu.is_key(Poly.from_ints(nu.K, coeffs)) is expected


def test_residual_polynomial_examples():
    K = QpField(2)
    gauss = IV.depth_zero(K, Q(0), Q(0))
    assert gauss.graded_reduction(Poly.from_ints(K, [1, 1, 1])).H == (1, 1, 1)
    mu = IV.depth_zero(K, Q(0), Q(1, 2))
    assert mu.graded_reduction(Poly.from_ints(K, [-2, 0, 1])).H == (1, 1)  # y + 1, a single root
    # single attaining term gives a monomial residual
    assert fpoly.deg(mu.graded_reduction(Poly.from_ints(K, [1])).H) == 0


@pytest.mark.parametrize("coeffs, value, H", [
    ([0, 0, 0, 1], Q(3, 2), (1,)),   # x^3 = 2x mod x^2 - 2
    ([1, 0, 0, 1], Q(0), (1,)),
    ([-2, 0, 1], INFINITY, None),
    ([0, -2, 0, 1], INFINITY, None),
])
def test_graded_reduction_at_a_terminal_stage(coeffs, value, H):
    # a terminal stage reduces f mod its key and reads the remainder one stage down
    K = QpField(2)
    mu = IV.depth_zero(K, Q(0), Q(1, 2)).augment(Poly.from_ints(K, [-2, 0, 1]), INFINITY)
    f = Poly.from_ints(K, coeffs)
    gr = mu.graded_reduction(f)
    assert (gr.value, gr.H) == (value, H)
    assert gr.value == mu.evaluate(f)


def test_residual_field_and_inertia():
    K = QpField(2)
    gauss = IV.depth_zero(K, Q(0), Q(0))
    term = gauss.augment(Poly.from_ints(K, [1, 1, 1]), INFINITY)
    assert term.inertia_degree() == 2 and term.kappa.order == 4
    assert term.inertia_indices() == [2]


def test_monotonicity_of_augmentation():
    rng = random.Random(9)
    K = QpField(2)
    mu = IV.depth_zero(K, Q(0), Q(1, 2))
    nu = mu.augment(Poly.from_ints(K, [-2, 0, 1]), Q(3, 2))
    for _ in range(500):
        f = Poly.from_ints(K, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 8))])
        if f.is_zero():
            continue
        assert mu(f) <= nu(f)


def test_truncation_examples_and_bound():
    K = QpField(2)
    gauss = IV.depth_zero(K, Q(0), Q(0))
    x = Poly.x(K)
    rng = random.Random(12)
    for _ in range(60):
        f = Poly.from_ints(K, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))])
        if f.is_zero():
            continue
        assert truncation_eval(gauss, x, f) == gauss(f)
    # strict inequality at the key step for the sqrt(2)-chain
    mu = IV.depth_zero(K, Q(0), Q(1, 2))
    g = Poly.from_ints(K, [-2, 0, 1])
    nu = mu.augment(g, INFINITY)
    assert truncation_eval(nu, x, g) == Q(1)
    assert is_inf(nu(g))
    # q-expansion of q itself
    assert truncation_eval(nu, g, g) == nu(g)
    # truncation at a key polynomial never exceeds nu
    for _ in range(200):
        f = Poly.from_ints(K, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 8))])
        if f.is_zero():
            continue
        assert truncation_eval(nu, x, f) <= nu(f)
        assert truncation_eval(nu, g, f) <= nu(f)


def test_truncation_monotonicity_along_chain():
    # Lemma-style checks on chain keys: Q earlier, Q' later
    K = QpField(2)
    mu = IV.depth_zero(K, Q(0), Q(1, 2))
    g = Poly.from_ints(K, [-2, 0, 1])
    nu = mu.augment(g, INFINITY)
    x = Poly.x(K)
    rng = random.Random(31)
    # (1) nu_{Q'}(Q) = nu(Q) for Q = x, Q' = g
    assert truncation_eval(nu, g, x) == nu(x)
    # (2) nu_Q <= nu_{Q'} pointwise
    for _ in range(200):
        f = Poly.from_ints(K, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 8))])
        if f.is_zero():
            continue
        assert truncation_eval(nu, x, f) <= truncation_eval(nu, g, f)


def test_equal_degree_value_comparison():
    # Lemma 5.6(3) flavor: same-degree keys Q, Q': nu(Q) < nu(Q') iff
    # truncation at Q drops the value of Q'
    K = QpField(5)
    # x^2+1 over Q5: keys x+2 and its refinement x+7 both have degree 1
    g = Poly.from_ints(K, [1, 0, 1])
    from mlvkit.engine import mac_lane_chains
    rep = mac_lane_chains(K, g)
    b = rep.branches[0]
    nu = lambda f: b.chain.evaluate(f)
    entries = [e["key"] for e in b.trajectory]
    for q1, q2 in zip(entries, entries[1:]):
        assert nu(q1) < nu(q2)
        assert truncation_eval(nu, q1, q2) < nu(q2)


def test_v1_v2_for_evaluate():
    rng = random.Random(40)
    K = QpField(2)
    mu0 = IV.depth_zero(K, Q(0), Q(1, 2))
    mu1 = mu0.augment(Poly.from_ints(K, [4, 0, 2, 0, 1]), Q(5, 2))
    for mu in (mu0, mu1):
        for _ in range(150):
            f = Poly.from_ints(K, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))])
            h = Poly.from_ints(K, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))])
            if f.is_zero() or h.is_zero():
                continue
            assert mu(f * h) == vadd(mu(f), mu(h))
            s = f + h
            if not s.is_zero():
                assert mu(s) >= min(mu(f), mu(h))
                if mu(f) != mu(h):
                    assert mu(s) == min(mu(f), mu(h))


def test_key_lift_roundtrip_all_small_residuals():
    # lifting an irreducible residual and reducing returns it exactly,
    # including at stages with nontrivial graded twists
    K = QpField(2)
    mu0 = IV.depth_zero(K, Q(0), Q(1, 2))
    mu1 = mu0.augment(Poly.from_ints(K, [4, 0, 2, 0, 1]), Q(5, 2))
    for node in (mu0, mu1):
        kap = node.kappa
        elems = [()] if kap.order == 2 else []
        if kap.order == 2:
            universe = [0, 1]
        else:
            universe = [(), (1,), (0, 1), (1, 1)]
        for deg in (1, 2):
            for tail in itertools.product(universe, repeat=deg):
                rbar = tuple(tail) + ((1,) if kap.order == 4 else 1,) \
                    if kap.order == 4 else tuple(tail) + (1,)
                if fpoly.deg(rbar) != deg or not is_irreducible(kap, rbar):
                    continue
                key = node.key_from_residual(rbar)
                assert key.is_monic()
                assert key.degree == deg * node.e_rel * node.degree
                gr = node.graded_reduction(key)
                assert gr.i0 == 0
                assert fpoly.monic(kap, gr.H) == rbar


def test_imperfect_residue_guard():
    from mlvkit.fields import FpctField
    from mlvkit.errors import ImperfectResidueUnsupported
    C = FpctField(2)
    mu = IV.depth_zero(C, C.zero(), Q(0))
    # degree-2 residual certification requires factorization: unsupported
    g = Poly(C, [C.add(C.one(), C.t()), C.one(), C.one()])
    with pytest.raises((ImperfectResidueUnsupported, NotAKeyPolynomial)):
        mu.augment(g, INFINITY)
