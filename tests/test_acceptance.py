"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS line after its assertions; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import itertools
import random
from fractions import Fraction as Q

from corpus import corpus
from padic_oracle import padic_extensions, rational_root_free
from mlvkit import graded as G
from mlvkit.analyzer import stable_value
from mlvkit.engine import (LIMIT_SUSPECTED, TERMINATED, NoSequence,
                           finite_complete_sequence, mac_lane_chains, psi_m_scan)
from mlvkit.analyzer import kahler_purely_inertial, kahler_purely_ramified
from mlvkit.fields import FpPerfField, FpctField, FqtField, QpField
from mlvkit.indval import truncation_eval
from mlvkit.parsing import parse_expression, parse_poly
from mlvkit.poly import Poly
from mlvkit.values import INFINITY


def test_criterion_1_exact_invariants_golden_corpus():
    K2 = QpField(2)
    r = mac_lane_chains(K2, parse_poly("x^2-2", K2))
    b = r.branches[0]
    assert len(r.branches) == 1 and (b.e, b.f, b.d) == (2, 1, 1)
    seq = finite_complete_sequence(r)
    assert [q.to_str() for q in seq] == ["x", "x^2 - 2"]
    nu = b.chain.evaluate
    assert [nu(q) for q in seq] == [Q(1, 2), INFINITY]

    r2 = mac_lane_chains(K2, parse_poly("x^2+x+1", K2))
    b2 = r2.branches[0]
    assert (b2.e, b2.f, b2.d) == (1, 2, 1)

    K5 = QpField(5)
    r3 = mac_lane_chains(K5, parse_poly("x^2+1", K5))
    assert len(r3.branches) == 2
    assert all((b.e, b.f) == (1, 1) for b in r3.branches)
    assert r3.sum_ef == 2 == r3.n

    F2 = FqtField(2)
    r4 = mac_lane_chains(F2, parse_poly("x^3+t", F2))
    b4 = r4.branches[0]
    assert (b4.e, b4.f, b4.d) == (3, 1, 1)
    print("ACCEPT 1 exact invariants, golden corpus: PASS")


def test_criterion_2_defect_trajectory():
    P = FpPerfField(2)
    g = parse_poly("x^2+x+1/t", P)
    r = mac_lane_chains(P, g)
    b = r.branches[0]
    assert b.status == LIMIT_SUSPECTED
    assert b.d_lower == 2
    scan = psi_m_scan(r, 0, 1, probe_budget=6)
    assert scan.outcome == "UNBOUNDED_EVIDENCE"
    psi_values = [v for _, v in scan.evidence]
    assert psi_values == [Q(-1, 2 ** (l + 1)) for l in range(1, 7)]
    for l in range(1, 7):
        # eta_l = sum_{i<=l} t^(-1/2^i); exact symbolic check of v(g(eta_l))
        eta = P.zero()
        for i in range(1, l + 1):
            eta = P.add(eta, P.canonical_unit(Q(-1, 2 ** i)))
        assert P.valuate(g.evaluate(eta)) == Q(-1, 2 ** l)
        assert b.trajectory[l]["g_value"] == Q(-1, 2 ** l)
        assert b.trajectory[l]["gamma"] == Q(-1, 2 ** (l + 1))
    print("ACCEPT 2 defect trajectory (Artin-Schreier over the perfect closure): PASS")


def test_criterion_3_frobenius_criterion_both_directions():
    for p in (2, 3):
        v, w = G.frobenius_surjective(QpField(p))
        assert v == "NO" and w[0] == "VALUE_WITNESS"
        C = FpctField(p)
        v, w = G.frobenius_surjective(C)
        assert v == "NO" and w[0] == "RESIDUE_WITNESS"
        assert C.residue_field.eq(w[1], C.residue_field.var())
        P = FpPerfField(p)
        assert G.frobenius_surjective(P) == ("YES", None)
        rng = random.Random(2000 + p)
        R = P.residue_field
        for _ in range(100):
            exp = Q(rng.randrange(0, 50), p ** rng.randrange(0, 4))
            coeff = R.from_int(rng.randrange(1, p))
            x = G.element(P, [(exp, coeff)])
            root = G.pth_root(P, x)
            assert isinstance(root, G.SemigroupRingElement)
            assert G.frobenius(P, root) == x
    print("ACCEPT 3 Frobenius surjectivity criterion, both directions: PASS")


def test_criterion_4_twisted_ring_laws():
    from test_graded import random_sre, stable_seed
    fields = [QpField(2), QpField(3), QpField(5), FqtField(3),
              FpPerfField(2), FpPerfField(3), FpctField(2),
              QpField(3).with_choice_overrides({Q(1): Q(3), Q(2): Q(18)}),
              QpField(2).with_choice_overrides({Q(1): Q(6), Q(2): Q(20)})]
    for K in fields:
        rng = random.Random(0xACC4 ^ (stable_seed(K))
                            ^ (17 if K.choice_overrides else 0))
        for _ in range(200):
            a, b, c = (random_sre(K, rng) for _ in range(3))
            assert G.twisted_mul(K, a, b) == G.twisted_mul(K, b, a)
            assert G.twisted_mul(K, G.twisted_mul(K, a, b), c) \
                == G.twisted_mul(K, a, G.twisted_mul(K, b, c))
            assert G.twisted_mul(K, a, G.add(K, b, c)) \
                == G.add(K, G.twisted_mul(K, a, b), G.twisted_mul(K, a, c))
        samples = [(K.one(), K.one())]
        rng2 = random.Random(1 + (stable_seed(K) & 0xFF))
        if K.kind == "Qp":
            for _ in range(40):
                samples.append((Q(rng2.randrange(1, 99)), Q(rng2.randrange(1, 99))))
        assert G.check_psi_homomorphism(K, samples) == []
    Ko = QpField(3).with_choice_overrides({Q(1): Q(3), Q(2): Q(18)})
    x = G.element(Ko, [(Q(1), 1)])
    assert G.element_str(Ko, G.twisted_mul(Ko, x, x)) == "2*T^2"
    print("ACCEPT 4 twisted-ring laws and psi homomorphism, with overrides: PASS")


def test_criterion_5_theorem_linkage_over_corpus():
    rng = random.Random(0x5E0)
    for K, polys in corpus():
        for g in polys:
            r = mac_lane_chains(K, g)
            b = r.branches[0]
            seq = finite_complete_sequence(r)
            has_seq = not isinstance(seq, NoSequence)
            assert has_seq == (r.unibranched and b.status == TERMINATED
                               and b.d == 1), (K.descriptor_str(), g.to_str())
            if not has_seq:
                continue
            nu = b.chain.evaluate
            for _ in range(100):
                f = Poly.from_ints(
                    K, [rng.randrange(-9, 10) for _ in range(rng.randrange(2, r.n + 4))])
                if f.is_zero():
                    continue
                assert any(q.degree <= max(f.degree, 1)
                           and truncation_eval(nu, q, f) == nu(f) for q in seq)
    print("ACCEPT 5 finite-complete-sequence theorem linkage over the corpus: PASS")


def test_criterion_6_kahler_criteria():
    K2 = QpField(2)
    inert = kahler_purely_inertial(K2, mac_lane_chains(K2, parse_poly("x^2+x+1", K2)))
    assert inert.omega_trivial and inert.annihilator_value == 0
    ram = kahler_purely_ramified(K2, mac_lane_chains(K2, parse_poly("x^2-2", K2)))
    assert ram.omega_trivial is False and ram.annihilator_value == Q(3, 2)
    P3 = FpPerfField(3)
    ram2 = kahler_purely_ramified(P3, mac_lane_chains(P3, parse_poly("x^2-t", P3)))
    assert ram2.omega_trivial is True
    print("ACCEPT 6 Kaehler criteria (inertial, discrete ramified, non-discrete ramified): PASS")


def test_criterion_7_oracle_equivalence():
    checked = 0
    for p in (2, 3):
        K = QpField(p)
        for deg in (1, 2, 3):
            for cc in itertools.product(range(-4, 5), repeat=deg):
                coeffs = list(cc)
                if deg > 1 and not rational_root_free(coeffs):
                    continue
                g = Poly.from_ints(K, coeffs + [1])
                rep = mac_lane_chains(K, g)
                mine = sorted((b.e, b.f) for b in rep.branches)
                oracle = padic_extensions(p, coeffs + [1])
                assert mine == oracle, (p, coeffs, mine, oracle)
                checked += 1
    assert checked > 1000
    print(f"ACCEPT 7 oracle equivalence on {checked} polynomials over Qp(2), Qp(3): PASS")


def test_criterion_8_stable_value():
    for seed in range(10):
        r1 = stable_value(2, parse_expression("S"), seed=seed, l_max=12)
        assert (r1.stable_value, r1.l0) == (1, 1)
        r2 = stable_value(2, parse_expression("S - (c1*T + c2*T^2)"),
                          seed=seed, l_max=12)
        assert (r2.stable_value, r2.l0) == (3, 3)
        r3 = stable_value(2, parse_expression("1/T"), seed=seed, l_max=12)
        assert (r3.stable_value, r3.l0) == (-1, 1)
    print("ACCEPT 8 appendix stable-value algorithm, 10 seeds, l_max = 12: PASS")
