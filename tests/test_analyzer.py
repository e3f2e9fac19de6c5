from fractions import Fraction as Q

import pytest

from mlvkit.analyzer import (NOT_APPLICABLE, NOT_STABILIZED, TE1Witness,
                             classify_kahler, drvg_check, kahler_purely_inertial,
                             kahler_purely_ramified, stable_value, tame_report,
                             te1_witness, te_conditions)
from mlvkit.engine import induced_value, mac_lane_chains, psi_m_scan
from mlvkit.errors import (BadBound, BadFieldOrder, GammaNotPositive, IndexOutOfRange,
                           NotPurelyInertial, NotPurelyRamified, ZeroInput)
from mlvkit.fields import FpPerfField, FpctField, FqtField, QpField
from mlvkit.parsing import parse_expression, parse_field, parse_poly
from mlvkit.poly import Poly
from mlvkit.values import ValueGroup


def test_te_conditions_examples():
    K = QpField(2)
    te = te_conditions(mac_lane_chains(K, parse_poly("x^2-2", K)))
    assert (te.te1, te.te2, te.te3) == (False, True, True)
    assert not te.suspected
    te = te_conditions(mac_lane_chains(K, parse_poly("x^2+x+1", K)))
    assert (te.te1, te.te2, te.te3) == (True, True, True)
    F = FqtField(2)
    te = te_conditions(mac_lane_chains(F, parse_poly("x^3+t", F)))
    assert (te.te1, te.te2, te.te3) == (True, True, True)
    # suspected qualifier on a stalled report
    P = FpPerfField(2)
    te = te_conditions(mac_lane_chains(P, parse_poly("x^2+x+1/t", P)))
    assert te.suspected and not te.te3


def test_te3_matches_engine_defect():
    from corpus import corpus
    for K, polys in corpus():
        if K.residue_field.order is None:
            continue
        for g in polys[:8]:
            rep = mac_lane_chains(K, g)
            te = te_conditions(rep)
            assert te.te3 == (rep.branches[0].d == 1)


def test_te1_witness():
    w = te1_witness(QpField(2))
    assert isinstance(w, TE1Witness)
    assert w.g == parse_poly("x^2-2", QpField(2)) and w.verified_index == 2
    assert te1_witness(FpPerfField(3)) == NOT_APPLICABLE
    F = FqtField(2)
    w2 = te1_witness(F)
    assert w2.verified_index == 2 and w2.g == parse_poly("x^2-t", F)
    w3 = te1_witness(FpctField(2))
    assert w3.verified_index == 2 and w3.method == "newton_polygon"


def test_tame_report_examples():
    K = QpField(2)
    tr = tame_report(K, [parse_poly("x^2-2", K)])
    assert tr.overall == "NOT_TAME"
    assert tr.witness["kind"] == "GR_IMPERFECT"
    assert tr.per_extension[0]["fcs"]  # the FCS itself exists for x^2-2

    P = FpPerfField(2)
    tr2 = tame_report(P, [parse_poly("x^3+t", P)])
    assert tr2.overall == "TAME_EVIDENCE" and tr2.gr_perfect

    tr3 = tame_report(P, [parse_poly("x^3+t", P), parse_poly("x^2+x+1/t", P)])
    assert tr3.overall == "NOT_TAME"
    assert tr3.witness["kind"] == "FCS_FAILURE"
    assert tr3.witness["reason"] == "DEFECT_SUSPECTED"


@pytest.mark.parametrize("K", [FpPerfField(2), QpField(2)], ids=["FpPerf(2,t)", "Qp(2)"])
def test_an_empty_suite_is_refused(K):
    with pytest.raises(ZeroInput):
        tame_report(K, [])


def test_tame_report_fp_perf_suite():
    # p does not divide any suite ramification: evidence of tameness;
    # injecting the Artin-Schreier polynomial flips the verdict
    P = FpPerfField(3)
    suite = [parse_poly(s, P) for s in ("x^2-t", "x^4+t", "x^2+1")]
    assert tame_report(P, suite).overall == "TAME_EVIDENCE"
    P2 = FpPerfField(2)
    suite2 = [parse_poly(s, P2) for s in ("x^3+t", "x^5+t", "x^2+x+1")]
    assert tame_report(P2, suite2).overall == "TAME_EVIDENCE"
    suite2.append(parse_poly("x^2+x+1/t", P2))
    assert tame_report(P2, suite2).overall == "NOT_TAME"


def test_alg_max_evidence():
    """Evidence for max v(eta - K) is the degree-one psi_m_scan of a report
    explored at the same probe budget: closed-form value trajectories, as
    far as the exploration went (over Qp(5) it stops after two separated
    refinements)."""
    K5 = QpField(5)
    rep = mac_lane_chains(K5, parse_poly("x^2+1", K5), max_limit_probes=6)
    scan = psi_m_scan(rep, 0, 1, probe_budget=6)
    assert scan.outcome == "UNBOUNDED_EVIDENCE"
    assert [v for _, v in scan.evidence] == [Q(k) for k in range(1, 4)]
    P = FpPerfField(2)
    rep = mac_lane_chains(P, parse_poly("x^2+x+1/t", P), max_limit_probes=5)
    scan = psi_m_scan(rep, 0, 1, probe_budget=5)
    assert scan.outcome == "UNBOUNDED_EVIDENCE"
    assert [v for _, v in scan.evidence] == [Q(-1, 2 ** (l + 1)) for l in range(1, 6)]
    with pytest.raises(IndexOutOfRange):
        psi_m_scan(rep, len(rep.branches), 1)


def test_kahler_purely_inertial():
    K = QpField(2)
    rep = mac_lane_chains(K, parse_poly("x^2+x+1", K))
    kr = kahler_purely_inertial(rep)
    assert kr.kind == "PURELY_INERTIAL"
    assert kr.omega_trivial and kr.annihilator_value == 0
    # degree-3 inertial example
    rep3 = mac_lane_chains(K, parse_poly("x^3+x+1", K))
    kr3 = kahler_purely_inertial(rep3)
    assert kr3.omega_trivial
    with pytest.raises(NotPurelyInertial):
        kahler_purely_inertial(mac_lane_chains(K, parse_poly("x^2-2", K)))


def test_kahler_purely_ramified():
    K = QpField(2)
    rep = mac_lane_chains(K, parse_poly("x^2-2", K))
    kr = kahler_purely_ramified(rep)
    assert kr.kind == "PURELY_RAMIFIED"
    assert kr.omega_trivial is False
    assert kr.annihilator_value == Q(3, 2)  # v(2 sqrt 2)
    P3 = FpPerfField(3)
    rep2 = mac_lane_chains(P3, parse_poly("x^2-t", P3))
    kr2 = kahler_purely_ramified(rep2)
    assert kr2.omega_trivial is True  # l = n = 2: v(2) + v(1) - 0 = 0
    with pytest.raises(NotPurelyRamified):
        kahler_purely_ramified(mac_lane_chains(K, parse_poly("x^2+x+1", K)))


@pytest.mark.parametrize("desc, g", [("Qp(5)", "x^2-25*x+50"), ("Qp(2)", "x^2+2*x+4")])
def test_kahler_purely_inertial_does_not_read_g_prime(desc, g):
    # O_K[eta] is not O_L: v(g'(eta)) = 1, yet the unramified extension with
    # its separable residue extension has Omega = 0
    K = parse_field(desc)
    rep = mac_lane_chains(K, parse_poly(g, K))
    assert induced_value(rep, 0, rep.g.derivative()) == 1
    kr = kahler_purely_inertial(rep)
    assert (kr.kind, kr.omega_trivial, kr.annihilator_value) == ("PURELY_INERTIAL", True, 0)
    assert kr.trace == ("residue extension is a finite-field tower: separable, so Omega = 0",)


@pytest.mark.parametrize("desc, g, gamma", [
    ("Qp(2)", "x^2-8", "3/2"), ("Qp(2)", "x^2-32", "5/2"), ("Qp(3)", "x^3-81", "4/3"),
    ("Fq(3,t)", "x^2-t^3", "3/2")])
def test_kahler_annihilator_is_unknown_when_eta_is_no_uniformizer(desc, g, gamma):
    # v(g'(eta)) would overstate the annihilator (5/2 for x^2 - 8, where
    # Q_2(sqrt 8) = Q_2(sqrt 2) has 3/2)
    K = parse_field(desc)
    kr = kahler_purely_ramified(mac_lane_chains(K, parse_poly(g, K)))
    assert (kr.kind, kr.omega_trivial, kr.annihilator_value) == ("PURELY_RAMIFIED", False, None)
    assert kr.trace[1] == f"gamma = v(eta) = {gamma}"
    assert "is not a uniformizer" in kr.trace[-1]


def rescaled(K, g, k):
    """g_k(x) = pi^(kn) g(x / pi^k), the monic polynomial of pi^k eta."""
    n = g.degree
    return Poly(K, [K.mul(c, K.canonical_unit(k * (n - i))) for i, c in enumerate(g.coeffs)])


@pytest.mark.parametrize("desc, g", [
    ("Qp(2)", "x^2-2"), ("Qp(2)", "x^2+2*x+2"), ("Qp(3)", "x^3-3"), ("Qp(3)", "x^3+3*x+3"),
    ("Qp(5)", "x^2-5"), ("Fq(2,t)", "x^3+t"), ("Fq(3,t)", "x^2+t"), ("Fq(3,t)", "x^4+t")])
def test_kahler_of_a_rescaled_eisenstein_polynomial(desc, g):
    K = parse_field(desc)
    g = parse_poly(g, K)
    ref = kahler_purely_ramified(mac_lane_chains(K, g))
    assert ref.annihilator_value is not None
    for k in range(1, 4):
        kr = kahler_purely_ramified(mac_lane_chains(K, rescaled(K, g, k)))
        assert (kr.kind, kr.omega_trivial) == ("PURELY_RAMIFIED", False)
        # the same extension: never an annihilator other than g's own
        assert kr.annihilator_value in (ref.annihilator_value, None)


@pytest.mark.parametrize("desc, g", [
    ("Qp(2)", "x^2+x+1"), ("Qp(2)", "x^3+x+1"), ("Qp(3)", "x^2+1"), ("Qp(5)", "x^2+2"),
    ("Fq(2,t)", "x^2+x+1"), ("Fq(3,t)", "x^2+1")])
def test_kahler_of_a_rescaled_unramified_polynomial(desc, g):
    K = parse_field(desc)
    g = parse_poly(g, K)
    for k in range(4):
        kr = classify_kahler(mac_lane_chains(K, rescaled(K, g, k)))
        assert (kr.kind, kr.omega_trivial, kr.annihilator_value) == ("PURELY_INERTIAL", True, 0)


def test_kahler_p_divisible_value_group_always_trivial():
    # whenever vK is p-divisible, purely ramified extensions have Omega = 0
    P3 = FpPerfField(3)
    for s in ("x^2-t", "x^2+2*t", "x^4+t", "x^4+2*t", "x^2+t^(1/3)"):
        rep = mac_lane_chains(P3, parse_poly(s, P3))
        b = rep.branches[0]
        if not (rep.unibranched and b.e == rep.n and b.status == "TERMINATED"):
            continue
        assert kahler_purely_ramified(rep).omega_trivial is True
    P2 = FpPerfField(2)
    for s in ("x^3+t", "x^3+t^(1/2)", "x^5+t"):
        rep = mac_lane_chains(P2, parse_poly(s, P2))
        assert kahler_purely_ramified(rep).omega_trivial is True


def test_classify_kahler():
    K = QpField(2)
    assert classify_kahler(mac_lane_chains(K, parse_poly("x^2+x+1", K))).kind \
        == "PURELY_INERTIAL"
    assert classify_kahler(mac_lane_chains(K, parse_poly("x^2-2", K))).kind \
        == "PURELY_RAMIFIED"
    K5 = QpField(5)
    assert classify_kahler(mac_lane_chains(K5, parse_poly("x^2+1", K5))).kind \
        == "NEITHER"


def test_gamma_not_positive_guard():
    P = FpPerfField(3)
    # x^2 + 1/t is purely ramified over F_3(t^(1/3^oo)) with v(eta) = -1/2 < 0
    rep = mac_lane_chains(P, parse_poly("x^2+1/t", P))
    b = rep.branches[0]
    assert rep.unibranched and b.status == "TERMINATED" and b.e == rep.n == 2
    with pytest.raises(GammaNotPositive):
        kahler_purely_ramified(rep)


@pytest.mark.parametrize("desc, g, translates", [
    # discrete vL: the annihilator v(g'(eta)) is unchanged
    ("Qp(2)", "x^2-2", ["(x-1)^2-2", "(x+3)^2-2", "(x-1/2)^2-2"]),
    ("Fq(3,t)", "x^4+t", ["(x^2+x+1)^2+t", "(x-1-t)^4+t"]),
    ("Fq(9,t)", "x^2+t", ["(x+1)^2+t", "(x+t+2)^2+t"]),
    # p-divisible vL: the hull test reads the coefficients of g(x + c)
    ("FpPerf(3,t)", "x^2+t", ["(x+1)^2+t", "(x+t+2)^2+t"]),
    ("FpPerf(2,t)", "x^3+t", ["(x+1)^3+t", "(x+1+t)^3+t"]),
])
def test_kahler_purely_ramified_is_translation_invariant(desc, g, translates):
    K = parse_field(desc)
    ref = kahler_purely_ramified(mac_lane_chains(K, parse_poly(g, K)))
    assert ref.trace[1].startswith("gamma = v(eta) = ")
    for s in translates:
        kr = kahler_purely_ramified(mac_lane_chains(K, parse_poly(s, K)))
        assert (kr.kind, kr.omega_trivial, kr.annihilator_value) == \
            (ref.kind, ref.omega_trivial, ref.annihilator_value)
        # the same gamma, read as v(eta - c) for a centre c != 0
        translated, gamma = kr.trace[1].rsplit(" = ", 1)
        assert gamma == ref.trace[1].rsplit(" = ", 1)[1]
        assert translated.startswith("gamma = v(eta ") and translated != "gamma = v(eta)"


def test_drvg():
    r = drvg_check(ValueGroup(Q(1), None), 2)
    assert r.verdict == "FAILS" and r.witness == ("{0}", "(1)Z")
    assert drvg_check(ValueGroup(Q(1), 2), 2).verdict == "HOLDS_BY_P_DIVISIBILITY"
    assert drvg_check(ValueGroup(Q(1, 2), None), 2).verdict == "FAILS"
    assert drvg_check(ValueGroup(Q(1), 3), 2).verdict == "HOLDS"


def test_stable_value_examples():
    for seed in range(4):
        r = stable_value(2, parse_expression("S"), seed=seed)
        assert r.stable_value == 1 and r.l0 == 1
        r2 = stable_value(2, parse_expression("S - (c1*T + c2*T^2)"), seed=seed)
        assert r2.stable_value == 3 and r2.l0 == 3
        r3 = stable_value(2, parse_expression("1/T"), seed=seed)
        assert r3.stable_value == -1 and r3.l0 == 1
    # odd characteristic
    r = stable_value(3, parse_expression("S - c1*T"), seed=0)
    assert r.stable_value == 2 and r.l0 == 2


def test_stable_value_coefficient_is_c():
    # f = S: the initial coefficient is c_1 itself
    r = stable_value(2, parse_expression("S"), seed=5)
    assert r.stable_value == 1
    assert r.failure_bound > 0


def test_stable_value_rational_and_taylor_consistency():
    # f with a denominator; stabilization persists to l_max
    r = stable_value(2, parse_expression("(S - c1*T)/T"), seed=1, l_max=12)
    assert r.stable_value == 1 and r.l0 == 2
    r2 = stable_value(2, parse_expression("S*S - T"), seed=2)
    assert r2.stable_value == 1  # v(s^2 - t) = min(2, 1) = 1


@pytest.mark.parametrize("kwargs, error", [
    ({"l_max": 0}, BadBound),
    ({"l_start": 5, "l_max": 4}, BadBound),
    ({"l_start": -1}, BadBound),
    ({"p": 4}, BadFieldOrder),
    ({"p": 1}, BadFieldOrder),
    ({"q": 6}, BadFieldOrder),
    ({"q": 1}, BadFieldOrder),
    ({"expr": "S-S"}, ZeroInput),
    ({"expr": "0"}, ZeroInput),
    ({"expr": "2"}, ZeroInput),  # 2 = 0 in characteristic 2
    ({"l_max": 1001}, BadBound),
    ({"l_max": 1001, "p": 4}, BadBound),  # checked before the field
    ({"q": 0}, BadFieldOrder),
    ({"q": -8}, BadFieldOrder),
])
def test_stable_value_bad_input_is_typed(kwargs, error):
    args = {"p": 2, "expr": "S", **kwargs}
    with pytest.raises(error):
        stable_value(args.pop("p"), parse_expression(args.pop("expr")), **args)


def test_stable_value_field_orders():
    # q = p and q = p^2 name valid sampling fields
    assert stable_value(2, parse_expression("S"), q=2).stable_value == 1
    assert stable_value(3, parse_expression("S"), q=9).stable_value == 1


def test_stable_value_denominator_vanishes():
    from mlvkit.errors import DenominatorVanishes
    # the denominator S - c1*T vanishes identically at l = 1 for every draw
    with pytest.raises(DenominatorVanishes):
        stable_value(2, parse_expression("T/(S - c1*T)"), l_start=1, l_max=3, seed=0)


STABLE_CORPUS = [
    "S", "1/T", "S - (c1*T + c2*T^2)", "S - c1*T", "S*S", "S*S - T",
    "T*S + T^2", "S/T", "(S - c1*T)/T", "S^3", "S + T", "S - T",
    "1/(S + T^2)", "(T + S)/(T - S)", "S*S*S - T*S", "c1*S + c2*T",
    "(S - c1*T)^2", "S/(1 + T)", "T^2/S", "S - (c1*T + c2*T^2 + c3*T^3)",
]


def test_stable_value_persistence_on_corpus():
    # once stable for three consecutive l the value stays stable to l_max;
    # realized by requiring the constant suffix of the l-scan to reach l_max
    for i, expr in enumerate(STABLE_CORPUS):
        ast = parse_expression(expr)
        res = stable_value(2, ast, seed=100 + i, l_max=12)
        assert res != NOT_STABILIZED, expr
        assert res.l0 + 2 <= 12
        assert res.failure_bound < Q(1, 1000)
