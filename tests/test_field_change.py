"""Field-change laws as cross-checks of the engine (ROADMAP item 17).

Unramified base change: for g with coefficients in F_p(t),
F_(p^m)(t)/F_p(t) is unramified of degree m, so a branch (e, f) of g over
Fq(p,t) splits over Fq(p^m,t) into gcd(f, m) branches, each with e and
f/gcd(f, m).  The larger fields run on the log tables of ``ExtField``,
and their residue towers too, so this also checks the residual
factorizations that the engine's key test trusts there.  A pair is
compared only when sum e*f = n on both sides, so that every e and f is
final; a stalled branch may still grow its e or f.
"""

from math import gcd

from hypothesis import event, given, settings, strategies as st

from mlvkit import fpoly
from mlvkit.engine import mac_lane_chains
from mlvkit.parsing import parse_field
from mlvkit.poly import Poly

# (p, m): F_2 -> F_4 and F_8, F_3 -> F_9, F_5 -> F_25
PAIRS = [(2, 2), (2, 3), (3, 2), (5, 2)]
FIELDS = {q: parse_field(f"Fq({q},t)") for p, m in PAIRS for q in (p, p ** m)}


def over(K, g):
    """g, given as (t-exponent shift, [coefficient of t^i]) per power of
    x, read over K: prime-field ints are the same elements in every
    Fq(p^m,t)."""
    t = K.canonical_unit(1)
    cc = []
    for shift, ts in g:
        c = K.zero()
        for i, a in enumerate(ts):
            c = K.add(c, K.mul(K.from_int(a), K.pow(t, i)))
        cc.append(K.div(c, K.pow(t, shift)))
    return Poly(K, cc + [K.one()])


@st.composite
def base_polys(draw, p):
    """A monic g of degree 2..5 whose coefficients below the top are
    (a0 + a1 t + a2 t^2) / t^s over F_p, s in {0, 1}."""
    n = draw(st.integers(2, 5))
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
