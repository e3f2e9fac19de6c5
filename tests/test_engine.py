import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import corpus
from mlvkit import engine
from mlvkit.engine import (LIMIT_SUSPECTED, PROBE_BUDGET, SEPARATED_STALL,
                           TERMINATED, UNSTABLE, NoSequence, defect,
                           finite_complete_sequence, induced_value,
                           mac_lane_chains, polygon_gammas, psi_m_scan)
from mlvkit.errors import NotMonic, NotSquarefree, ResidueUnsupported
from mlvkit.fields import FpPerfField, FpctField, FqtField, QpField
from mlvkit.indval import truncation_eval
from mlvkit.parsing import parse_field, parse_poly
from mlvkit.poly import Poly
from mlvkit.values import INFINITY, is_inf


def test_guards():
    K = QpField(2)
    with pytest.raises(NotMonic):
        mac_lane_chains(K, Poly.from_ints(K, [1, 2]))
    with pytest.raises(ResidueUnsupported):
        C = FpctField(2)
        mac_lane_chains(C, Poly.from_ints(C, [1, 1, 1]))
    # g is checked before the residue field, over every family
    with pytest.raises(NotMonic):
        mac_lane_chains(C, Poly.from_ints(C, [1]))


def test_sqrt2():
    K = QpField(2)
    r = mac_lane_chains(K, parse_poly("x^2-2", K))
    assert len(r.branches) == 1 and r.unibranched
    b = r.branches[0]
    assert b.status == TERMINATED
    assert (b.e, b.f, b.d) == (2, 1, 1)
    assert [p.to_str() for p in b.key_polys] == ["x", "x^2 - 2"]
    gammas = [st.gamma for st in b.chain.stages()]
    assert gammas == [Q(1, 2), INFINITY]


def test_inert_quadratic():
    K = QpField(2)
    r = mac_lane_chains(K, parse_poly("x^2+x+1", K))
    b = r.branches[0]
    assert (b.e, b.f, b.d) == (1, 2, 1) and b.status == TERMINATED


def test_split_quadratic_over_q5():
    K = QpField(5)
    r = mac_lane_chains(K, parse_poly("x^2+1", K))
    assert len(r.branches) == 2 and not r.unibranched
    for b in r.branches:
        assert (b.e, b.f, b.d) == (1, 1, 1)
        assert b.status == LIMIT_SUSPECTED
    assert r.sum_ef == 2 == r.n


def test_function_field_ramified_cubic():
    F = FqtField(2)
    r = mac_lane_chains(F, parse_poly("x^3+t", F))
    b = r.branches[0]
    assert (b.e, b.f, b.d) == (3, 1, 1) and b.status == TERMINATED


def test_artin_schreier_defect():
    P = FpPerfField(2)
    g = parse_poly("x^2+x+1/t", P)
    r = mac_lane_chains(P, g)
    assert r.unibranched
    b = r.branches[0]
    assert b.status == LIMIT_SUSPECTED
    assert (b.e, b.f) == (1, 1)
    assert b.d is None and b.d_lower == 2
    # eta_l = sum t^(-1/2^i): the chain records nu(x - eta_l) = -2^-(l+1)
    # and v(g(eta_l)) = -2^-l
    for l, entry in enumerate(b.trajectory):
        assert entry["gamma"] == Q(-1, 2 ** (l + 1))
        assert entry["g_value"] == Q(-1, 2 ** l)
    # direct perfect-closure evaluation agrees
    for l in range(1, 7):
        eta = P.zero()
        for i in range(1, l + 1):
            eta = P.add(eta, P.canonical_unit(Q(-1, 2 ** i)))
        assert P.valuate(g.evaluate(eta)) == Q(-1, 2 ** l)


def test_induced_value():
    K = QpField(2)
    r = mac_lane_chains(K, parse_poly("x^2-2", K))
    assert induced_value(r, 0, Poly.x(K)) == Q(1, 2)
    assert induced_value(r, 0, Poly.from_ints(K, [1])) == 0
    P = FpPerfField(2)
    rAS = mac_lane_chains(P, parse_poly("x^2+x+1/t", P))
    assert induced_value(rAS, 0, Poly.x(P)) == Q(-1, 2)
    # the minimal polynomial itself is still climbing: unstable
    assert induced_value(rAS, 0, parse_poly("x^2+x+1/t", P)) is UNSTABLE


def test_psi_scans():
    K = QpField(2)
    r = mac_lane_chains(K, parse_poly("x^2-2", K))
    s1 = psi_m_scan(r, 0, 1)
    assert s1.outcome == "MAX_ATTAINED"
    assert s1.max_poly == Poly.x(K) and s1.max_value == Q(1, 2)
    s2 = psi_m_scan(r, 0, 2)
    assert s2.outcome == "MAX_ATTAINED" and is_inf(s2.max_value)
    # degree without keys
    F = FqtField(2)
    r3 = mac_lane_chains(F, parse_poly("x^3+t", F))
    assert psi_m_scan(r3, 0, 2).outcome == "EMPTY"
    # Hensel trajectory over Q5: the exploration stops it after two
    # separated refinements, and the scan reads the probes it recorded
    K5 = QpField(5)
    r5 = mac_lane_chains(K5, parse_poly("x^2+1", K5))
    s = psi_m_scan(r5, 0, 1, probe_budget=6)
    assert s.outcome == "UNBOUNDED_EVIDENCE"
    assert [v for _, v in s.evidence] == [Q(k) for k in range(1, 4)]
    vals = [v for _, v in s.evidence]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_psi_scan_max_value_matches_induced_value():
    for K, polys in corpus():
        for g in polys[:6]:
            r = mac_lane_chains(K, g)
            for m in {st.degree for st in r.branches[0].chain.stages()}:
                s = psi_m_scan(r, 0, m)
                if s.outcome == "MAX_ATTAINED":
                    assert induced_value(r, 0, s.max_poly) == s.max_value


def test_finite_complete_sequence():
    K = QpField(2)
    r = mac_lane_chains(K, parse_poly("x^2-2", K))
    seq = finite_complete_sequence(r)
    assert [q.to_str() for q in seq] == ["x", "x^2 - 2"]
    K5 = QpField(5)
    assert finite_complete_sequence(mac_lane_chains(K5, parse_poly("x^2+1", K5))) \
        == NoSequence("BRANCHED")
    P = FpPerfField(2)
    assert finite_complete_sequence(mac_lane_chains(P, parse_poly("x^2+x+1/t", P))) \
        == NoSequence("DEFECT_SUSPECTED")


def test_stall_with_defect_one_is_unresolved():
    # at probe budget 0, sum e*f = n already forces d = 1, but g is no key
    K = QpField(2)
    r = mac_lane_chains(K, parse_poly("x^2-2", K), max_limit_probes=0)
    b = r.branches[0]
    assert r.unibranched and b.status == LIMIT_SUSPECTED and b.d == 1
    assert finite_complete_sequence(r) == NoSequence("UNRESOLVED")
    P = FpPerfField(2)
    r = mac_lane_chains(P, parse_poly("x^2+x+1/t", P), max_limit_probes=0)
    assert r.branches[0].d is None and r.branches[0].d_lower == 2
    assert finite_complete_sequence(r) == NoSequence("DEFECT_SUSPECTED")


def test_defect_op():
    K = QpField(2)
    d1 = defect(mac_lane_chains(K, parse_poly("x^2-2", K)))
    assert d1[0]["d"] == 1
    d2 = defect(mac_lane_chains(K, parse_poly("x^2+x+1", K)))
    assert d2[0]["d"] == 1
    P = FpPerfField(2)
    d3 = defect(mac_lane_chains(P, parse_poly("x^2+x+1/t", P)))
    assert d3[0]["d_lower_bound"] == 2
    assert len(d3[0]["limit_steps"]) >= 3


def test_chain_shape_invariant():
    # strictly increasing degrees and gammas along every branch chain
    for K, polys in corpus():
        for g in polys:
            r = mac_lane_chains(K, g)
            assert r.sum_ef <= r.n
            if r.sum_efd is not None:
                assert r.sum_efd == r.n
            for b in r.branches:
                stages = b.chain.stages()
                degs = [st.degree for st in stages]
                assert degs == sorted(set(degs))
                gammas = [st.gamma for st in stages]
                for g1, g2 in zip(gammas, gammas[1:]):
                    assert g1 < g2


def test_pointwise_monotonicity_along_chains():
    rng = random.Random(4)
    K = QpField(2)
    r = mac_lane_chains(K, parse_poly("x^3-2", K))
    stages = r.branches[0].chain.stages()
    for st1, st2 in zip(stages, stages[1:]):
        for _ in range(60):
            f = Poly.from_ints(K, [rng.randrange(-9, 10)
                                   for _ in range(rng.randrange(1, 8))])
            if f.is_zero():
                continue
            assert st1.evaluate(f) <= st2.evaluate(f)


def test_fcs_complete_set_contract_on_corpus():
    rng = random.Random(71)
    for K, polys in corpus():
        for g in polys:
            r = mac_lane_chains(K, g)
            seq = finite_complete_sequence(r)
            b = r.branches[0]
            expect = r.unibranched and b.status == TERMINATED and b.d == 1
            assert (not isinstance(seq, NoSequence)) == expect, \
                (K.descriptor_str(), g.to_str())
            if isinstance(seq, NoSequence):
                continue
            nu = b.chain.evaluate
            for _ in range(20):
                f = Poly.from_ints(
                    K, [rng.randrange(-9, 10) for _ in range(rng.randrange(2, r.n + 3))])
                if f.is_zero():
                    continue
                assert any(q.degree <= max(f.degree, 1)
                           and truncation_eval(nu, q, f) == nu(f)
                           for q in seq)


def test_linear_polynomial():
    K = QpField(3)
    r = mac_lane_chains(K, parse_poly("x-6", K))
    b = r.branches[0]
    assert b.status == TERMINATED and (b.e, b.f, b.d) == (1, 1, 1)
    assert induced_value(r, 0, Poly.x(K)) == Q(1)  # v(6) at the root
    # a degree-one g takes the main loop to one terminal stage (x - a, inf)
    for K, s in [(QpField(3), "x-6"), (FqtField(4), "x"), (FqtField(4), "x+1/t"),
                 (FpPerfField(2), "x+t^(1/2)"), (FpPerfField(2), "x+1/(1+t)")]:
        g = parse_poly(s, K)
        r = mac_lane_chains(K, g)
        assert r.unibranched, s
        b = r.branches[0]
        assert b.status == TERMINATED and (b.e, b.f, b.d) == (1, 1, 1), s
        assert [(st.phi, st.gamma) for st in b.chain.stages()] == [(g, INFINITY)], s
        assert K.eq(b.chain.center, K.neg(g[0])), s
        assert b.key_polys == [g] and finite_complete_sequence(r) == [g], s


def test_reducible_input_warns():
    K = QpField(2)
    r = mac_lane_chains(K, parse_poly("x^2-1", K))
    assert any("reducible" in w for w in r.warnings)


def test_oracle_agreement_spot_checks():
    from padic_oracle import padic_extensions
    cases = {
        (2, (-2, 0, 1)), (2, (1, 1, 1)), (5, (1, 0, 1)), (2, (-17, 0, 1)),
        (2, (-2, 0, 0, 1)), (2, (1, 1, 0, 1)), (3, (3, 0, 0, 1)),
        (3, (-1, -1, 0, 1)), (2, (2, 1, 1)), (3, (1, 0, 1)),
    }
    for p, cc in sorted(cases):
        K = QpField(p)
        g = Poly.from_ints(K, list(cc))
        r = mac_lane_chains(K, g)
        assert sorted((b.e, b.f) for b in r.branches) == \
            padic_extensions(p, list(cc))


def test_induced_value_matches_padic_roots():
    """nu(f) = v_p(f(eta)) along each branch of a split g, with the roots eta
    lifted by the oracle's own Hensel iteration mod p^N."""
    from padic_oracle import _poly_eval, _vp, _zp_roots, padic_extensions, rational_root_free
    N = 40
    rng = random.Random(2024)
    stable = unstable = 0
    for p in (2, 3, 5):
        K = QpField(p)
        pN = p ** N
        for n in (2, 3):
            found = attempts = 0
            while found < 6 and attempts < 3000:
                attempts += 1
                coeffs = [rng.randrange(-12, 13) for _ in range(n)]
                if not rational_root_free(coeffs) or \
                        padic_extensions(p, coeffs + [1], N) != [(1, 1)] * n:
                    continue
                found += 1
                roots = _zp_roots(coeffs + [1], p, N)
                rep = mac_lane_chains(K, Poly.from_ints(K, coeffs + [1]))
                assert len(rep.branches) == n == len(roots)
                matched = set()
                for i, b in enumerate(rep.branches):
                    centre = -b.key_polys[-1][0]
                    num, den = centre.numerator, centre.denominator
                    # the root nearest the centre: max v_p(centre - eta)
                    eta = max(roots, key=lambda r: _vp(num - den * r, p, N))
                    matched.add(eta)
                    for _ in range(30):
                        f = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))]
                        if not any(f):
                            continue
                        fe = _poly_eval(f, eta, pN)
                        if fe == 0:
                            continue  # v_p(f(eta)) >= N: not pinned down
                        val = induced_value(rep, i, Poly.from_ints(K, f))
                        if val is UNSTABLE:
                            unstable += 1
                            continue
                        assert val == _vp(fe, p, N), (p, coeffs, i, f, val)
                        stable += 1
                assert len(matched) == n, (p, coeffs)
            assert found == 6, (p, n)
    print(f"induced values against p-adic roots: {stable} agree, {unstable} UNSTABLE")
    assert stable >= 2000


def test_depth_exceeded():
    from mlvkit.errors import DepthExceeded
    K = QpField(2)
    # (x^2+x+1)^2 + 2 needs a depth-1 stage before terminating at depth 2
    g = parse_poly("x^4+2*x^3+3*x^2+2*x+3", K)
    rep = mac_lane_chains(K, g)
    assert rep.branches[0].status == TERMINATED
    assert len(rep.branches[0].chain.stages()) == 3
    with pytest.raises(DepthExceeded):
        mac_lane_chains(K, g, max_depth=0)


def test_negative_bounds_are_rejected():
    from mlvkit.errors import BadBound
    K = QpField(2)
    g = parse_poly("x^2-2", K)
    # a probe budget is also capped at 1000, as --l-max is
    for kwargs in ({"max_depth": -1}, {"max_limit_probes": -3}, {"max_limit_probes": 1001}):
        with pytest.raises(BadBound) as exc:
            mac_lane_chains(K, g, **kwargs)
        assert exc.value.code == "BAD_BOUND"
    mac_lane_chains(K, g, max_limit_probes=0)  # zero is a bound, not an error
    rep = mac_lane_chains(K, g)
    assert psi_m_scan(rep, 0, 1, probe_budget=0).outcome == "MAX_ATTAINED"
    assert psi_m_scan(rep, 0, 1, probe_budget=1000).outcome == "MAX_ATTAINED"
    for budget in (-1, 1001):
        with pytest.raises(BadBound):
            psi_m_scan(rep, 0, 1, probe_budget=budget)


def test_invariant_failure_is_a_typed_error(monkeypatch):
    # e*f = 3 cannot divide the degree 2 of the terminated chain of x^2 - 2
    from mlvkit.errors import InvariantViolated
    from mlvkit.indval import InductiveValuation
    K = QpField(2)
    monkeypatch.setattr(InductiveValuation, "ramification_index", lambda self: 3)
    with pytest.raises(InvariantViolated) as exc:
        mac_lane_chains(K, parse_poly("x^2-2", K))
    assert exc.value.code == "INVARIANT_VIOLATED"
    assert "e*f = 3 does not divide the degree 2" in str(exc.value)


def test_invariant_failure_survives_optimized_mode():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mlvkit
    code = (
        "from mlvkit import engine\n"
        "from mlvkit.errors import InvariantViolated\n"
        "from mlvkit.fields import QpField\n"
        "from mlvkit.indval import InductiveValuation\n"
        "from mlvkit.parsing import parse_poly\n"
        "K = QpField(2)\n"
        "InductiveValuation.ramification_index = lambda self: 3\n"
        "try:\n"
        "    engine.mac_lane_chains(K, parse_poly('x^2-2', K))\n"
        "except InvariantViolated as exc:\n"
        "    print(exc.code)\n"
        "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mlvkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "INVARIANT_VIOLATED"
    assert "e*f = 3 does not divide the degree 2" in lines[1]


def test_artin_schreier_is_defectless_over_the_imperfect_base():
    # over Fq(2,t) the value 1/2 is outside the group, so x^2+x+1/t is an
    # honest ramified extension; the defect only appears over the perfect
    # closure, where e collapses to 1
    F = FqtField(2)
    g = parse_poly("x^2+x+1/t", F)
    r = mac_lane_chains(F, g)
    b = r.branches[0]
    assert b.status == TERMINATED and (b.e, b.f, b.d) == (2, 1, 1)


def test_engine_over_prime_power_residue_fields():
    F4 = FqtField(4)
    gen = F4.coeff_field.gen()
    one = F4.coeff_field.one()
    # x^2 + x + g is inert: Tr(g) != 0 in F4
    g1 = Poly(F4, [F4.lift(gen), F4.one(), F4.one()])
    r1 = mac_lane_chains(F4, g1)
    b1 = r1.branches[0]
    assert (b1.e, b1.f, b1.d) == (1, 2, 1) and b1.status == TERMINATED
    assert b1.chain.kappa.order == 16
    # x^3 + t is totally ramified regardless of the residue field
    g2 = Poly(F4, [F4.t(), F4.zero(), F4.zero(), F4.one()])
    r2 = mac_lane_chains(F4, g2)
    assert (r2.branches[0].e, r2.branches[0].f) == (3, 1)
    # x^2 + g*x + t: two polygon slopes, one root per slope
    g3 = Poly(F4, [F4.t(), F4.lift(gen), F4.one()])
    r3 = mac_lane_chains(F4, g3)
    assert r3.sum_ef == 2 and len(r3.branches) == 2
    F9 = FqtField(9)
    g4 = Poly(F9, [F9.t(), F9.zero(), F9.one()])  # x^2 + t
    r4 = mac_lane_chains(F9, g4)
    assert (r4.branches[0].e, r4.branches[0].f, r4.branches[0].d) == (2, 1, 1)


def test_augment_terminal_guard():
    from mlvkit.errors import NotAKeyPolynomial
    K = QpField(2)
    r = mac_lane_chains(K, parse_poly("x^2-2", K))
    term = r.branches[0].chain
    with pytest.raises(NotAKeyPolynomial):
        term.augment(Poly.x(K), Q(10))


def test_deep_tower_sextics():
    # (x^2+x+1)^3 + 2 over Q2: the unramified quadratic (residual y^2+y+1)
    # composed with a cube root of a uniformizer: e = 3, f = 2, n = 6
    K = QpField(2)
    base = parse_poly("x^2+x+1", K)
    g = base ** 3 + Poly.from_ints(K, [2])
    r = mac_lane_chains(K, g)
    b = r.branches[0]
    assert b.status == TERMINATED and (b.e, b.f, b.d) == (3, 2, 1)
    assert [st.degree for st in b.chain.stages()] == [1, 2, 6]
    assert b.chain.inertia_degree() == 2
    # same shape over a prime-power residue field: kappa tower F4 -> F16
    F4 = FqtField(4)
    gen = F4.coeff_field.gen()
    base4 = Poly(F4, [F4.lift(gen), F4.one(), F4.one()])
    g4 = base4 ** 3 + Poly(F4, [F4.t()])
    r4 = mac_lane_chains(F4, g4)
    b4 = r4.branches[0]
    assert b4.status == TERMINATED and (b4.e, b4.f, b4.d) == (3, 2, 1)
    assert b4.chain.kappa.order == 16


def test_engine_fuzz_no_crashes():
    # arbitrary monic inputs (reducible and non-squarefree included) must
    # produce a coherent, serializable report or raise a typed error
    import json
    from mlvkit.cli import report_to_dict
    from corpus import field
    rng = random.Random(0xF022)
    descs = ["Qp(2)", "Qp(3)", "Qp(5)", "Fq(2,t)", "Fq(3,t)",
             "FpPerf(2,t)", "FpPerf(3,t)"]
    for desc in descs:
        K = field(desc)
        for _ in range(25):
            deg = rng.randrange(1, 5)
            cc = []
            for _ in range(deg):
                a = K.from_int(rng.randrange(-6, 7))
                if K.kind != "Qp" and rng.random() < 0.4:
                    a = K.add(a, K.mul(K.from_int(rng.randrange(1, K.p)),
                                       K.t()))
                cc.append(a)
            g = Poly(K, cc + [K.one()])
            try:
                rep = mac_lane_chains(K, g, max_limit_probes=4)
            except NotSquarefree as exc:
                # the typed refusal names a proper factor h = gcd(g, g')
                h = exc.factor
                assert h.degree >= 1 and g.mod(h).is_zero()
                continue
            assert rep.branches
            for b in rep.branches:
                assert b.status in (TERMINATED, LIMIT_SUSPECTED)
                assert b.e >= 1 and b.f >= 1
                stages = b.chain.stages()
                assert [st.degree for st in stages] == sorted({st.degree for st in stages})
            json.dumps(report_to_dict(rep), sort_keys=True)


def test_quartics_with_known_ramification_over_q2():
    K = QpField(2)
    # x^4+2x^2+4 is the minimal polynomial of sqrt(2)*omega (omega a cube
    # root of unity): the compositum of the unramified quadratic and a
    # ramified quadratic, so e = 2, f = 2
    g = parse_poly("x^4+2*x^2+4", K)
    r = mac_lane_chains(K, g)
    b = r.branches[0]
    assert b.status == TERMINATED and (b.e, b.f, b.d) == (2, 2, 1)
    # x^4+1: the 2-power cyclotomic extension by an 8th root of unity is
    # totally ramified of degree 4
    g2 = parse_poly("x^4+1", K)
    r2 = mac_lane_chains(K, g2)
    b2 = r2.branches[0]
    assert b2.status == TERMINATED and (b2.e, b2.f, b2.d) == (4, 1, 1)


def _trial_division_warning(g):
    """The rational-root test as plain trial division over the divisors
    of the constant term: the smallest |s| first, positive before negative."""
    n0 = abs(g[0].numerator)
    for r in range(1, n0 + 1):
        if n0 % r:
            continue
        for s in (r, -r):
            if g.evaluate(Q(s)) == 0:
                return [f"rational root {s}: g is reducible over Q"]
    return []


def test_rational_root_test_on_a_large_constant_is_prompt():
    import time
    K = QpField(2)
    for text in ("x^2 - 17*2^26", "x^2 - 17*2^200", "x^3 + x - 17*2^200"):
        start = time.perf_counter()
        r = mac_lane_chains(K, parse_poly(text, K))
        assert time.perf_counter() - start < 2.0
        assert not any("rational root" in w for w in r.warnings)
    r = mac_lane_chains(K, parse_poly("x^2 - 9*2^40", K))
    assert "rational root 3145728: g is reducible over Q" in r.warnings


def test_rational_root_test_matches_trial_division():
    from mlvkit.engine import _irreducibility_warnings
    K = QpField(3)
    rng = random.Random(0x5EED)
    checked = 0
    while checked < 400:
        degree = rng.choice((2, 3))
        lead = rng.choice((1, 1, 1, -1, 2, -3))
        if rng.random() < 0.5:
            # a product of integer linear factors times a leading constant
            coeffs = [lead]
            for root in (rng.randint(-40, 40) for _ in range(degree)):
                coeffs = [a - root * b for a, b in zip([0] + coeffs, coeffs + [0])]
        else:
            coeffs = [rng.randint(-10 ** 4, 10 ** 4) for _ in range(degree)] + [lead]
        if coeffs[0] == 0 or abs(coeffs[0]) > 10 ** 4:
            continue
        g = Poly.from_ints(K, coeffs)
        assert _irreducibility_warnings(K, g) == _trial_division_warning(g), coeffs
        checked += 1


# (polynomial over FpPerf(p,t), p, q, budget): the trajectory gammas are
# -1/q^(l+1); the last three probe deep enough that each probe's centre has
# many terms, where the engine Taylor-shifts g's expansion by one term
ARTIN_SCHREIER_CASES = [("x^4+x+1/t", 2, 4, 8), ("x^2+x+1/t", 2, 2, 12),
                        ("x^4+x+1/t", 2, 4, 12), ("x^3-x-1/t", 3, 3, 10),
                        ("x^2+x+1/t", 2, 2, 200), ("x^4+x+1/t", 2, 4, 60),
                        ("x^3-x-1/t", 3, 3, 60)]


@pytest.mark.parametrize("text,p,q,budget", ARTIN_SCHREIER_CASES,
                         ids=[f"{text}-{q}-{budget}" for text, _, q, budget in ARTIN_SCHREIER_CASES])
def test_artin_schreier_probes_at_large_budgets(text, p, q, budget):
    P = FpPerfField(p)
    r = mac_lane_chains(P, parse_poly(text, P), max_limit_probes=budget)
    assert len(r.branches) == 1
    b = r.branches[0]
    assert b.status == LIMIT_SUSPECTED and b.stop == PROBE_BUDGET
    assert [e["gamma"] for e in b.trajectory] == [Q(-1, q ** (l + 1)) for l in range(budget + 1)]
    assert b.d is None and b.d_lower >= 2
    assert isinstance(finite_complete_sequence(r), NoSequence)


# (polynomial over FpPerf(p,t), p, report budget, scan budget)
SCAN_EXTENSION_CASES = [("x^2+x+1/t", 2, 2, 8), ("x^4+x+1/t", 2, 2, 6),
                        ("x^3-x-1/t", 3, 1, 6)]


@pytest.mark.parametrize("text,p,b0,b", SCAN_EXTENSION_CASES,
                         ids=[f"{text}-{b0}-{b}" for text, _, b0, b in SCAN_EXTENSION_CASES])
def test_scan_evidence_is_the_explorations_trajectory(text, p, b0, b):
    """A scan does not probe past the exploration: at a budget above the
    report's, its evidence is the report's own trajectory past the entry
    node, and more evidence takes a larger exploration."""
    P = FpPerfField(p)
    g = parse_poly(text, P)
    report = mac_lane_chains(P, g, max_limit_probes=b0)
    scan = psi_m_scan(report, 0, 1, probe_budget=b)
    traj = report.branches[0].trajectory
    assert scan.outcome == "UNBOUNDED_EVIDENCE"
    assert list(scan.evidence) == [(e["key"], e["gamma"]) for e in traj[1:]]
    assert len(scan.evidence) == b0


def test_scan_stops_early_at_a_split():
    """A stall whose continuation splits gives the evidence that the
    exploration recorded before its budget ran out: 8 probes against a
    scan budget of 12, with the branch stopped on PROBE_BUDGET (the split
    shows at a budget of 10).  The outcome is still UNBOUNDED_EVIDENCE;
    certified probing up to the separation bound (ROADMAP item 2) will
    revisit it."""
    K = QpField(2)
    g = parse_poly("x^2 - 2/3*x + 1/9 - 17*2^40", K)
    report = mac_lane_chains(K, g)
    scan = psi_m_scan(report, 0, 1, probe_budget=12)
    assert scan.outcome == "UNBOUNDED_EVIDENCE"
    assert [v for _, v in scan.evidence] == [Q(2 * k) for k in range(1, 9)]
    assert report.branches[0].stop == PROBE_BUDGET
    assert len(mac_lane_chains(K, g, max_limit_probes=10).branches) == 2


@pytest.mark.parametrize("p, text, limit, budget", [(5, "x^2 + 1", 8, 0), (2, "x^2 - 2", 0, 8)])
def test_a_scan_with_no_probe_claims_no_evidence(p, text, limit, budget):
    """A stalled branch scanned at a budget of 0, or explored with no
    probe, has no evidence: its outcome is NO_PROBES, not
    UNBOUNDED_EVIDENCE."""
    K = QpField(p)
    report = mac_lane_chains(K, parse_poly(text, K), max_limit_probes=limit)
    assert report.branches[0].status == LIMIT_SUSPECTED
    scan = psi_m_scan(report, 0, 1, probe_budget=budget)
    assert (scan.outcome, scan.evidence) == ("NO_PROBES", ())


# (field, polynomial, probe budget, the stop reason of each branch in order)
STOP_CASES = [
    ("Qp(2)", "x^2-2", 8, [TERMINATED]),
    ("Qp(2)", "x^2-17", 8, [SEPARATED_STALL, SEPARATED_STALL]),
    ("FpPerf(3,t)", "x^2-x+t", 8, [SEPARATED_STALL, SEPARATED_STALL]),
    ("FpPerf(2,t)", "x^3+x+t", 8, [SEPARATED_STALL, PROBE_BUDGET]),
    ("FpPerf(2,t)", "x^2+x+1/t", 8, [PROBE_BUDGET]),
    ("Qp(2)", "x^2 - 2/3*x + 1/9 - 17*2^40", 8, [PROBE_BUDGET]),
    # the budget is spent before the first step, which would find g a key;
    # certified probing (ROADMAP items 1 and 2) is to let this terminate
    ("Qp(2)", "x^2-2", 0, [PROBE_BUDGET]),
]


@pytest.mark.parametrize("desc,text,budget,stops", STOP_CASES,
                         ids=[f"{desc}-{text}-{budget}" for desc, text, budget, _ in STOP_CASES])
def test_stop_reasons(desc, text, budget, stops):
    K = parse_field(desc)
    r = mac_lane_chains(K, parse_poly(text, K), max_limit_probes=budget)
    assert [b.stop for b in r.branches] == stops
    for b in r.branches:
        assert b.status == (TERMINATED if b.stop == TERMINATED else LIMIT_SUSPECTED)
        _assert_trajectory_fits_stop(b, budget)


def _assert_trajectory_fits_stop(b, budget):
    if b.stop == TERMINATED:
        assert b.trajectory == []
    elif b.stop == PROBE_BUDGET:
        assert len(b.trajectory) == budget + 1


def test_stop_reason_counts_over_the_corpus():
    counts = {TERMINATED: 0, SEPARATED_STALL: 0, PROBE_BUDGET: 0}
    for K, polys in corpus():
        for g in polys:
            for b in mac_lane_chains(K, g).branches:
                counts[b.stop] += 1
                _assert_trajectory_fits_stop(b, 8)
    assert counts == {TERMINATED: 110, SEPARATED_STALL: 57, PROBE_BUDGET: 5}


# -- the value contract: an int when integral, else a Fraction, never a float --


def _is_value(v):
    return v is INFINITY or type(v) is int or (type(v) is Q and v.denominator != 1)


def _reference_gammas(points):
    """The Fraction hull: slopes of the lower convex hull, divided as Fractions."""
    hull = []
    for k, v in sorted((k, Q(v)) for k, v in points.items() if not is_inf(v)):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (k - x1) >= (v - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((k, v))
    out = [] if 0 in points else [INFINITY]
    return out + [(v1 - v2) / (k2 - k1) for (k1, v1), (k2, v2) in zip(hull, hull[1:])]


_point_values = (st.integers(-50, 50)
                 | st.fractions(min_value=-50, max_value=50, max_denominator=12)
                 | st.just(INFINITY))


@given(st.dictionaries(st.integers(0, 12), _point_values, max_size=10),
       st.booleans())
@example({0: 1, 2: 0}, True)  # slope 1/2 from ints
@example({0: Q(1, 2), 1: Q(1, 2), 3: Q(-3, 2)}, True)  # integral slopes of Fractions
@example({1: 3, 2: Q(1, 3), 4: 0}, False)  # no constant term
@example({0: 3, 1: 2, 2: 1, 3: 0}, True)  # collinear points: one edge
@example({0: Q(1, 2), 1: Q(1, 3), 2: 5, 4: Q(-1, 6)}, True)  # a point above the hull
def test_polygon_gammas_match_the_fraction_hull(points, constant):
    """Each gamma is a slope of the Fraction hull, and its nu is the
    minimum of v_k + k*gamma over every finite point, by brute force."""
    if not constant:
        points.pop(0, None)
    got = polygon_gammas(points)
    assert [gamma for gamma, _ in got] == _reference_gammas(points)
    finite = [(k, Q(v)) for k, v in points.items() if not is_inf(v)]
    for gamma, nu in got:
        if is_inf(gamma):
            assert nu is INFINITY
        else:
            assert nu == min(v + k * gamma for k, v in finite)
    assert all(_is_value(g) and _is_value(nu) for g, nu in got), got
    assert (got[:1] == [(INFINITY, INFINITY)]) == (0 not in points)


def test_corpus_values_are_ints_or_proper_fractions():
    """Every chain gamma, trajectory gamma and g value of the corpus
    reports is an int or a non-integral Fraction, never a float."""
    seen = 0
    for K, polys in corpus():
        for g in polys:
            for b in mac_lane_chains(K, g).branches:
                vals = [stage.gamma for stage in b.chain.stages()]
                for e in b.trajectory:
                    vals += [e["gamma"], e["g_value"]]
                bad = [v for v in vals if not _is_value(v)]
                assert not bad, (K, g.to_str(), bad)
                seen += len(vals)
    assert seen > 600


# ---------------------------------------------------------------------------
# Clustered roots: (x - a)^2 - pi^k * c with c a square unit
# ---------------------------------------------------------------------------

# (field, a, c, k): the roots a +- pi^(k/2) * sqrt(c) lie in K, so the truth
# is two branches with e = f = d = 1; a has an infinite expansion, so the
# probes at degree one approach both roots together until they separate
CLUSTERED = ([("Qp(2)", "1/3", "17", k) for k in (20, 40, 100, 200)]
             + [("Qp(3)", "1/5", "7", k) for k in (20, 40, 100, 200)]
             + [("Fq(3,t)", "1/(1+t)", "1+t", k) for k in (20, 40, 100, 200)]
             + [("FpPerf(3,t)", "1/(1+t)", "1+t", k) for k in (20, 40)])


def clustered_poly(desc, a, c, k):
    K = parse_field(desc)
    pi = "t" if K.kind in ("Fqt", "FpPerf") else str(K.p)
    return K, parse_poly(f"(x - {a})^2 - {pi}^{k}*({c})", K)


@pytest.mark.parametrize("desc,a,c,k", CLUSTERED,
                         ids=[f"{d}-k{k}" for d, _, _, k in CLUSTERED])
def test_clustered_roots_split_within_a_budget_of_2k(desc, a, c, k):
    """ROADMAP item 2's families at max_limit_probes = 2k, past the 8 to
    104 probes after which these split.  The answer at the default budget
    of 8 is pinned by test_clustered_roots_at_the_default_budget."""
    K, g = clustered_poly(desc, a, c, k)
    report = mac_lane_chains(K, g, max_limit_probes=2 * k)
    assert [(b.e, b.f, b.d) for b in report.branches] == [(1, 1, 1), (1, 1, 1)]
    assert not report.unibranched


@pytest.mark.parametrize("desc,a,c,k", [
    pytest.param(d, a, c, k, id=f"{d}-k{k}", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2(b)" if d == "FpPerf(3,t)" else "ROADMAP item 2(a)"))
    for d, a, c, k in CLUSTERED if k == 40])
def test_clustered_roots_at_the_default_budget(desc, a, c, k):
    """Each of ROADMAP item 2's four families at k = 40 and the default
    budget of 8, which stops the probes before the roots separate.  Over
    these defectless bases the report may not claim one branch, and no
    branch a defect of at least 2; today both are claimed."""
    K, g = clustered_poly(desc, a, c, k)
    report = mac_lane_chains(K, g)
    assert report.unibranched is not True
    assert not [b for b in report.branches if b.d_lower is not None and b.d_lower >= 2]


# ---------------------------------------------------------------------------
# Non-squarefree g
# ---------------------------------------------------------------------------

SQUAREFREE_FIELDS = ["Qp(2)", "Qp(3)", "Qp(5)", "Fq(2,t)", "Fq(3,t)", "FpPerf(2,t)",
                     "FpPerf(3,t)"]


def monic_poly(data, K, degree):
    """A monic polynomial of the given degree with small coefficients of
    value -1, 0 or 1 (t^(1/p) also appears over the perfect closure)."""
    pieces = [K.one(), K.canonical_unit(Q(1)), K.canonical_unit(Q(-1))]
    if K.kind == "FpPerf":
        pieces.append(K.canonical_unit(Q(1, K.p)))
    cc = []
    for _ in range(degree):
        a = K.zero()
        for piece in pieces:
            a = K.add(a, K.mul(K.from_int(data.draw(st.integers(-2, 2))), piece))
        cc.append(a)
    return Poly(K, cc + [K.one()])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SQUAREFREE_FIELDS), st.data())
def test_a_repeated_factor_is_refused_naming_it(desc, data):
    K = parse_field(desc)
    g = monic_poly(data, K, data.draw(st.integers(0, 2)))
    h = monic_poly(data, K, data.draw(st.integers(1, 2)))
    with pytest.raises(NotSquarefree) as info:
        mac_lane_chains(K, g * h * h, max_limit_probes=4)
    factor = info.value.factor
    assert factor.degree >= h.degree and factor.mod(h).is_zero()
    assert info.value.code == "NOT_SQUAREFREE"


def test_only_reports_short_of_n_test_for_a_repeated_factor(monkeypatch):
    # a report whose every d is known and sums to n pays no gcd(g, g')
    calls = []
    real = engine._check_squarefree
    monkeypatch.setattr(engine, "_check_squarefree",
                        lambda K, g: calls.append(g) or real(K, g))
    for K, polys in corpus():
        for g in polys:
            calls.clear()
            r = mac_lane_chains(K, g)
            assert r.sum_efd in (None, r.n)
            assert len(calls) == (r.sum_efd is None)
