"""Field-change laws as cross-checks of the engine (ROADMAP item 17).

Unramified base change: for g with coefficients in F_p(t),
F_(p^m)(t)/F_p(t) is unramified of degree m, so a branch (e, f) of g over
Fq(p,t) splits over Fq(p^m,t) into gcd(f, m) branches, each with e and
f/gcd(f, m).  The larger fields run on the log tables of ``ExtField``,
and their residue towers too, so this also checks the residual
factorizations that the engine's key test trusts there.  A pair is
compared only when sum e*f = n on both sides, so that every e and f is
final; a stalled branch may still grow its e or f.

The perfect-hull law (item 17(b), the theorem of item 15): for separable
g over K = F_p(t), the branches over the perfect hull FpPerf(p,t)
correspond one to one to those over Fq(p,t), with e' the prime-to-p part
of e and f' = f, and the defect d' is the p-part of e.

The Artin-Schreier class rule (item 17(c)): over the perfect closure,
c*t^(-r*p^j) = (c^(1/p)*t^(-r*p^(j-1)))^p, so it is congruent to
c^(1/p^j)*t^(-r) mod {y^p - y}.  For c1, c2 in F_p^*, where Frobenius is
the identity, x^p - x - c1/t^r - c2/t^(r*p^j) (r prime to p) is therefore
x^p - x - (c1 + c2)/t^r up to a change of x.  A nonzero class sum gives
an immediate extension of degree p with d = p (Kuhlmann, Illinois J.
Math. 54, 2010), which the engine reports as one branch stopped by its
probe budget; a zero sum leaves x^p - x, which splits into p branches
with e = f = d = 1.

Frobenius of F_q (item 17(d)): c -> c^p on the F_q coefficients of g's
coefficients is an automorphism of Fq(q,t) that fixes t, so it keeps the
t-adic valuation, and the branches of g and of its image have the same
multiset of (e, f, d).
"""

from collections import Counter
from math import gcd

import pytest
from hypothesis import event, given, settings, strategies as st

from mlvkit import fpoly
from mlvkit.engine import PROBE_BUDGET, TERMINATED, mac_lane_chains
from mlvkit.parsing import parse_field, parse_poly
from mlvkit.poly import Poly

# (p, m): F_2 -> F_4 and F_8, F_3 -> F_9, F_5 -> F_25
PAIRS = [(2, 2), (2, 3), (3, 2), (5, 2)]
FIELDS = {q: parse_field(f"Fq({q},t)") for p, m in PAIRS for q in (p, p ** m)}


def over(K, g, coeff=None):
    """g, given as (t-exponent shift, [coefficient of t^i]) per power of
    x, read over K: prime-field ints are the same elements in every
    Fq(p^m,t).  ``coeff`` maps each int to K instead, when given."""
    coeff = coeff or K.from_int
    t = K.canonical_unit(1)
    cc = []
    for shift, ts in g:
        c = K.zero()
        for i, a in enumerate(ts):
            c = K.add(c, K.mul(coeff(a), K.pow(t, i)))
        cc.append(K.div(c, K.pow(t, shift)))
    return Poly(K, cc + [K.one()])


@st.composite
def base_polys(draw, p, max_degree=5):
    """A monic g of degree 2..max_degree whose coefficients below the top
    are (a0 + a1 t + a2 t^2) / t^s, s in {0, 1}, with each a_i drawn from
    0..p-1 (an element of F_p, or the code of an element of F_q for p = q)."""
    n = draw(st.integers(2, max_degree))
    return [(draw(st.integers(0, 1)), draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3)))
            for _ in range(n)]


def branches(K, g):
    """The sorted (e, f) of g's report over K, or None when g is not
    separable or some e, f is not final (sum e*f < n)."""
    cc = g.coeffs
    if fpoly.deg(fpoly.gcd_(K, cc, fpoly.deriv(K, cc))) != 0:
        return None
    report = mac_lane_chains(K, g)
    if report.sum_ef != report.n:
        return None
    return sorted((b.e, b.f) for b in report.branches)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PAIRS).flatmap(
    lambda pair: st.tuples(st.just(pair), base_polys(pair[0]))))
def test_unramified_base_change_splits_each_branch(case):
    (p, m), g = case
    small = branches(FIELDS[p], over(FIELDS[p], g))
    big = branches(FIELDS[p ** m], over(FIELDS[p ** m], g)) if small is not None else None
    if big is None:
        event("skipped: inseparable, or some e*f not final")
        return
    event("compared")
    expected = sorted((e, f // gcd(f, m)) for e, f in small for _ in range(gcd(f, m)))
    assert big == expected


def split_p(e: int, p: int):
    """(the prime-to-p part of e, the p-part of e)."""
    q = 1
    while e % p == 0:
        e, q = e // p, q * p
    return e, q


HULL_BUDGET = 10


def hull_law(p, g) -> str:
    """Check the perfect-hull law on g, given as for ``over``, and say
    what was compared or why it was skipped.  Every d the FpPerf engine
    certifies must be the p-part of e of a matching Fq(p,t) branch (same
    e' and f'); the branch count and the (e', f') multiset are compared
    when sum e*f = n in both reports."""
    Kq, Kp = FIELDS[p], PERF[p]
    gq = over(Kq, g)
    cc = gq.coeffs
    if fpoly.deg(fpoly.gcd_(Kq, cc, fpoly.deriv(Kq, cc))) != 0:
        return "inseparable"
    rq = mac_lane_chains(Kq, gq, max_limit_probes=HULL_BUDGET)
    if rq.sum_ef != rq.n:
        return "Fq(p,t) report not final"
    rp = mac_lane_chains(Kp, over(Kp, g), max_limit_probes=HULL_BUDGET)
    images = Counter((*split_p(b.e, p), b.f) for b in rq.branches)
    for b in rp.branches:
        if b.d is not None:
            match = (b.e, b.d, b.f)
            assert images[match] > 0, (gq.to_str(), match, images)
            images[match] -= 1
    if rp.sum_ef != rp.n:
        return "FpPerf(p,t) report not final"
    assert len(rp.branches) == len(rq.branches), gq.to_str()
    assert sorted((b.e, b.f) for b in rp.branches) == \
        sorted((split_p(b.e, p)[0], b.f) for b in rq.branches), gq.to_str()
    return "compared"


PERF = {p: parse_field(f"FpPerf({p},t)") for p in (2, 3)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda p: st.tuples(st.just(p), base_polys(p, 4))))
def test_the_perfect_hull_law(case):
    """Monic g of degree 2..4 over F_2(t) and F_3(t) at a fixed budget,
    each compared or counted as skipped with its reason (shown by
    ``--hypothesis-show-statistics``).  No FpPerf d above 1 is met: the
    engine certifies none before item 15."""
    event(hull_law(*case))


def gfq_element(B, code: int):
    """The element of GF(q) = GF(p)[z]/(m) whose coordinates are the
    base-p digits of code, lowest first."""
    digits = []
    for _ in range(B.degree):
        code, d = divmod(code, B.char)
        digits.append(d)
    return fpoly.norm(B.base, digits)


def frobenius(K, g):
    """g with c -> c^p applied to every F_q coefficient of its coefficients."""
    B = K.coeff_field

    def frob(cc):
        return tuple(B.pow(c, B.char) for c in cc)
    return Poly(K, [K.make(frob(a.num), frob(a.den)) for a in g.coeffs])


def branch_invariants(K, g):
    """The multiset of (e, f, d) of g's report over K, or None when g is
    not separable or some e, f is not final (sum e*f < n)."""
    cc = g.coeffs
    if fpoly.deg(fpoly.gcd_(K, cc, fpoly.deriv(K, cc))) != 0:
        return None
    report = mac_lane_chains(K, g)
    if report.sum_ef != report.n:
        return None
    return Counter((b.e, b.f, b.d) for b in report.branches)


FROBENIUS_FIELDS = {q: parse_field(f"Fq({q},t)") for q in (4, 8, 9)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FROBENIUS_FIELDS)).flatmap(
    lambda q: st.tuples(st.just(q), base_polys(q, 4))))
def test_frobenius_of_the_constants_keeps_every_branch(case):
    """g is drawn as for the other laws, its ints read as codes of F_q."""
    q, g = case
    K = FROBENIUS_FIELDS[q]
    g = over(K, g, lambda code: K.lift(gfq_element(K.coeff_field, code)))
    image = frobenius(K, g)
    before = branch_invariants(K, g)
    after = branch_invariants(K, image) if before is not None else None
    if after is None:
        event("skipped: inseparable, or some e*f not final")
        return
    event("compared" if image != g else "compared: g fixed by Frobenius")
    assert after == before, (g.to_str(), image.to_str())


# ---------------------------------------------------------------------------
# The Artin-Schreier class rule
# ---------------------------------------------------------------------------

# (p, r, j, c1, c2): r prime to p, j in {1, 2}, c1, c2 in F_p^*
CLASS_CASES = [(p, r, j, c1, c2) for p, rs in ((2, (1, 3)), (3, (1, 2)))
               for r in rs for j in (1, 2)
               for c1 in range(1, p) for c2 in range(1, p)]


def stops(desc, src):
    K = parse_field(desc)
    return [(b.stop, b.e, b.f, b.d) for b in mac_lane_chains(K, parse_poly(src, K)).branches]


@pytest.mark.parametrize("p,r,j,c1,c2", CLASS_CASES,
                         ids=[f"p{p}-r{r}-j{j}-c{c1},{c2}" for p, r, j, c1, c2 in CLASS_CASES])
def test_the_artin_schreier_class_rule(p, r, j, c1, c2):
    got = stops(f"FpPerf({p},t)", f"x^{p}-x-{c1}/t^{r}-{c2}/t^{r * p ** j}")
    if (c1 + c2) % p:
        assert [stop for stop, *_ in got] == [PROBE_BUDGET]
    else:
        assert got == [(TERMINATED, 1, 1, 1)] * p


def test_the_class_rule_hand_checks():
    K2 = "FpPerf(2,t)"
    assert [stop for stop, *_ in stops(K2, "x^2+x+1/t")] == [PROBE_BUDGET]
    for src in ("x^2+x+1/t+1/t^2", "x^2+x+1/t^3+1/t^(3/2)"):
        assert stops(K2, src) == [(TERMINATED, 1, 1, 1)] * 2
    # the classes cancel and leave x^2 + x + 1, irreducible over F_2
    assert stops(K2, "x^2+x+1/t^2+1/t+1") == [(TERMINATED, 1, 2, 1)]
