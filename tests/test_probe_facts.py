"""Each exploration step computes each fact once; these tests recompute
the facts it no longer recomputes.

``key_from_residual`` seeds mu(key) = w0, the grade of its homogeneous
lift; a depth-zero probe with e = 1 moves its centre with no key lift or
``augment`` (checked against that route, child by child), and each child
reads g's graded reduction off the polygon side that made it (checked
against a fresh, unseeded stage); the engine reads nu(g) of every new
state off the Newton polygon points instead of evaluating g there;
``evaluate`` values a depth-zero constant by the field's ``valuate``,
with no memo entry; ``K.term(r, w)`` is lift(r) * U(w); and
``fpoly.taylor_shift`` over the perfect closure sums each output
coefficient of sparse operands at one level, takes the powers of a
one-term shift without products and passes through an output that no
higher coefficient reaches.  Each fact is compared with an evaluation
that reads no memo, over every corpus exploration and the Artin-Schreier
ladders, and the shift with the generic Horner loop.
``fpoly.gcd_`` returns 1 at once when an argument is a nonzero constant
(checked against Euclid's algorithm).  ``ffield._random_elem`` draws the
coordinates of an extension of GF(p) in one list, in the order of the
recursive draw it replaces.
"""

import random
from fractions import Fraction as Q
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import corpus
from mlvkit import engine, fpoly
from mlvkit.errors import NotInValueGroup
from mlvkit.ffield import ExtField, Field, GFp, GFq, _random_elem
from mlvkit.fields import FpPerfField
from mlvkit.indval import InductiveValuation
from mlvkit.parsing import parse_field, parse_poly
from mlvkit.poly import Poly, phi_expansion
from mlvkit.values import INFINITY, ratio, vadd, vmul


class GenericFpPerf(FpPerfField):
    """The perfect closure through its element operations alone: not of
    the exact type FpPerfField, so ``taylor_shift`` runs Horner's loop."""


# ---------------------------------------------------------------------------
# The one-pass sparse Taylor shift
# ---------------------------------------------------------------------------


@st.composite
def sparse_elems(draw, K):
    """A sparse element: up to four terms at level 0..3 with exponents of
    either sign (zero when there are none)."""
    level = draw(st.integers(0, 3))
    terms = draw(st.dictionaries(st.integers(-12, 12), st.integers(1, K.p - 1), max_size=4))
    return K._sparse(level, tuple(sorted(terms.items())))


def dense_elem(K, data):
    """An element whose reduced denominator is not a monomial."""
    level = data.draw(st.integers(0, 2))
    c = data.draw(st.integers(1, K.p - 1))
    return K._from_rf(level, K.rff.make((c,), (1, 1)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_sparse_shift_equals_the_horner_loop(p, data):
    K, ref = FpPerfField(p), GenericFpPerf(p)
    f = data.draw(st.lists(sparse_elems(K), min_size=1, max_size=6))
    a = data.draw(sparse_elems(K))
    got = K.sparse_taylor_shift(f, a)
    assert got is not None and len(got) == len(f)
    assert fpoly.taylor_shift(K, f, a) == fpoly.taylor_shift(ref, f, a)
    assert fpoly.norm(K, got) == fpoly.taylor_shift(ref, f, a)
    # the inverse shift brings f back
    back = fpoly.taylor_shift(K, fpoly.taylor_shift(K, f, a), K.neg(a))
    assert back == fpoly.norm(K, f)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_a_dense_operand_takes_the_horner_loop(p, data):
    K, ref = FpPerfField(p), GenericFpPerf(p)
    f = data.draw(st.lists(sparse_elems(K), min_size=1, max_size=4))
    a = data.draw(sparse_elems(K))
    if data.draw(st.booleans()):
        a = dense_elem(K, data)
    else:
        f[data.draw(st.integers(0, len(f) - 1))] = dense_elem(K, data)
    assert K.sparse_taylor_shift(f, a) is None
    assert fpoly.taylor_shift(K, f, a) == fpoly.taylor_shift(ref, f, a)


@st.composite
def one_term_shifts(draw, p):
    """(f, a): a one-term a = c*t^(e/p^level) and up to ten sparse
    coefficients f, so that f has degree up to 9 and, over GF(p), the
    binomials binom(j, i) of many pairs vanish: such outputs pass through."""
    K = FpPerfField(p)
    f = draw(st.lists(sparse_elems(K), min_size=1, max_size=10))
    level = draw(st.integers(0, 3))
    e = draw(st.integers(-12, 12))
    c = draw(st.integers(1, p - 1))
    return f, K._sparse(level, ((e, c),))


def ladder_shift(p):
    """x^9 - x - 1/t over FpPerf(3,t) (x^8 + x + 1/t over FpPerf(2,t)),
    shifted by -t^(1/p): the top coefficients pass through, and c^j
    differs from c at c = 2 over GF(3)."""
    K = FpPerfField(p)
    one, n = K.one(), 9 if p == 3 else 8
    f = [K.neg(K.canonical_unit(Q(-1))), K.neg(one)] + [K.zero()] * (n - 2) + [one]
    return f, K.neg(K.canonical_unit(Q(1, p)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda p: st.tuples(st.just(p), one_term_shifts(p))))
@example((3, ladder_shift(3)))
@example((2, ladder_shift(2)))
def test_one_term_shift_equals_the_horner_loop(case):
    p, (f, a) = case
    K, ref = FpPerfField(p), GenericFpPerf(p)
    got = K.sparse_taylor_shift(f, a)
    want = fpoly.taylor_shift(ref, f, a)
    assert fpoly.norm(K, got) == want
    assert all(K.accepts(c) for c in got)
    for i, c in enumerate(got):
        # an output that no higher coefficient reaches is f_i itself
        if all(comb(j, i) % p == 0 or K.is_zero(f[j]) for j in range(i + 1, len(f))):
            assert c is f[i]


def test_sparse_shift_examples():
    K = FpPerfField(2)
    t = K.t()
    half = K.canonical_unit(Q(1, 2))
    # (x + t^(1/2))^2 = x^2 + t in characteristic 2: at -t^(1/2) it is y^2
    f = [t, K.zero(), K.one()]
    assert fpoly.taylor_shift(K, f, half) == (K.zero(), K.zero(), K.one())
    # a zero shift is the identity, with no kernel
    assert fpoly.taylor_shift(K, f, K.zero()) == tuple(f)
    # the output drops to its minimal level: x + t^(1/4) at t^(1/4)
    quarter = K.canonical_unit(Q(1, 4))
    assert fpoly.taylor_shift(K, [quarter, K.one()], quarter) == (K.zero(), K.one())
    assert K.sparse_taylor_shift([], quarter) == []


# ---------------------------------------------------------------------------
# One term lift(r) * U(w)
# ---------------------------------------------------------------------------


TERM_FIELDS = ["Qp(2)", "Qp(3)", "Fq(3,t)", "Fq(4,t)", "FpPerf(2,t)", "FpPerf(3,t)"]


def residues(R):
    """Every element of GF(p), and 0, 1, z, z + 1 of GF(q)."""
    out = [R.from_int(n) for n in range(R.char)]
    if R.order != R.char:
        out += [R.gen(), R.add(R.gen(), R.one())]
    return out


@pytest.mark.parametrize("desc", TERM_FIELDS)
def test_term_is_the_lift_times_the_unit(desc):
    K = parse_field(desc)
    levels = range(4) if K.kind == "FpPerf" else range(1)
    for r in residues(K.residue_field):
        for level in levels:
            for n in range(-7, 8):
                w = ratio(n, K.p ** level)  # an int when integral, as values are
                got = K.term(r, w)
                assert got == K.mul(K.lift(r), K.canonical_unit(w)), (r, w)
                assert K.accepts(got)
    # outside vK, r = 0 included, both routes raise the same error
    outside = [Q(1, 5), Q(-7, 10), INFINITY] if K.kind == "FpPerf" else [Q(1, 2), Q(-4, 3), INFINITY]
    for r in residues(K.residue_field)[:2]:
        for w in outside:
            with pytest.raises(NotInValueGroup) as direct:
                K.term(r, w)
            with pytest.raises(NotInValueGroup) as product:
                K.mul(K.lift(r), K.canonical_unit(w))
            assert str(direct.value) == str(product.value)


# ---------------------------------------------------------------------------
# Seeded and polygon values against memo-free evaluation
# ---------------------------------------------------------------------------


def ref_evaluate(stage, f):
    """min_k v(f_k) + k*gamma over the full expansion by division,
    recursively, with no memo read or written and no Taylor shift."""
    if f.is_zero():
        return INFINITY
    terms = [(k, stage.K.valuate(c[0]) if stage.prev is None else ref_evaluate(stage.prev, c))
             for k, c in enumerate(phi_expansion(f, stage.phi)) if not c.is_zero()]
    return min(vadd(v, vmul(k, stage.gamma)) for k, v in terms)


# the perfect_closure ladders at their largest benchmark budgets
LADDERS = [("FpPerf(2,t)", "x^2+x+1/t", 10), ("FpPerf(2,t)", "x^4+x+1/t", 6),
           ("FpPerf(3,t)", "x^3-x-1/t", 7)]


def explorations():
    """(K, g, budget): every corpus polynomial at the default budget, and
    the ladders."""
    out = [(K, g, 8) for K, polys in corpus() for g in polys]
    for desc, src, budget in LADDERS:
        K = parse_field(desc)
        out.append((K, parse_poly(src, K), budget))
    return out


def check_state(g, state):
    node = state.node
    if node.is_terminal():
        return
    assert state.traj[-1]["g_value"] == ref_evaluate(node, g)
    if node.depth == 0:
        # a constant is valued by the field, and no memo grows
        K = node.K
        sizes = (len(node._eval_cache), len(node._exp_cache))
        for c in (*g.coeffs, node.center):
            assert node.evaluate(Poly.const(K, c)) == (
                INFINITY if K.is_zero(c) else K.valuate(c))
        assert (len(node._eval_cache), len(node._exp_cache)) == sizes


def check_side(g, node) -> bool:
    """Whether ``node`` reads g's graded reduction off a seeded polygon
    side; if so, that reduction equals the one of a fresh, unseeded
    depth-zero stage at its centre and gamma."""
    if node._side is None:
        return False
    assert node._side[0] is g
    fresh = InductiveValuation.depth_zero(node.K, node.center, node.gamma)
    assert node.graded_reduction(g) == fresh.graded_reduction(g)
    return True


def augment_route(g, node, factors):
    """The children of one step below a depth-zero ``node`` with e = 1,
    each with its nu(g), built by the general route: lift the key of each
    proper residual factor, read the polygon of g's key-expansion valued
    with no memo, and augment."""
    out = []
    for rbar, _mult in factors:
        if rbar == (node.kappa.zero(), node.kappa.one()):
            continue
        key = InductiveValuation.key_from_residual(node, rbar)
        exp = list(phi_expansion(g, key))
        pts = {k: ref_evaluate(node, c) for k, c in enumerate(exp) if not c.is_zero()}
        for gamma, g_value in engine.polygon_gammas(pts):
            if gamma > ref_evaluate(node, key):
                out.append((node.augment(key, gamma, _rbar=rbar), exp, g_value))
    return out


def check_moves(g, node, children, factorizations):
    """Every child of a step below a depth-zero node with e = 1 equals
    the child of the augment route in gamma, key, value group, e, seeded
    expansion of g and nu(g); a moved centre also in its centre (with its
    int or Fraction type over Qp) and residue field."""
    factors = factorizations[node.kappa, node.graded_reduction(g).H]
    want = augment_route(g, node, factors)
    assert len(children) == len(want)
    for state, (ref, exp, g_value) in zip(children, want):
        child = state.node
        assert child.prev is ref.prev
        if child.prev is None:
            assert child.center == ref.center
            assert type(child.center) is type(ref.center)
            assert child.kappa is ref.kappa
            # every child but a terminal one has its side seeded
            assert (child._side is None) == child.is_terminal()
            # the moved key x - a' lifts y + r, so mu(x - a') = gamma
            assert ref_evaluate(node, child.phi) == node.gamma
        assert (child.gamma, child.phi, child.group, child.e_rel) == (
            ref.gamma, ref.phi, ref.group, ref.e_rel)
        assert child._exp_cache[g.coeffs] == exp
        assert state.traj[-1]["g_value"] == g_value


def test_probe_facts_over_every_exploration(monkeypatch):
    lifted, moved, sides = [], [], []
    key_from_residual = InductiveValuation.key_from_residual
    moved_centre = engine._moved_centre

    def recording_key_from_residual(self, rbar):
        key = key_from_residual(self, rbar)
        lifted.append((self, rbar, key))
        return key

    def recording_moved_centre(node, g, r):
        moved.append(node)
        return moved_centre(node, g, r)

    step = engine._step

    def checking_step(g, state, factorizations):
        check_state(g, state)
        children = step(g, state, factorizations)
        for child in children:
            check_state(g, child)
            if check_side(g, child.node):
                sides.append(child.node)
        node = state.node
        if node.prev is None and node.e_rel == 1 and not (
                children and children[0].node.is_terminal()):
            with monkeypatch.context() as m:
                m.setattr(InductiveValuation, "key_from_residual", key_from_residual)
                check_moves(g, node, children, factorizations)
        return children

    monkeypatch.setattr(InductiveValuation, "key_from_residual", recording_key_from_residual)
    monkeypatch.setattr(engine, "_moved_centre", recording_moved_centre)
    monkeypatch.setattr(engine, "_step", checking_step)
    runs = 0
    for K, g, budget in explorations():
        report = engine.mac_lane_chains(K, g, max_limit_probes=budget)
        for i, b in enumerate(report.branches):
            if b.trajectory:
                assert b.trajectory[-1]["g_value"] == ref_evaluate(b.chain, g)
            if b.status == engine.LIMIT_SUSPECTED:
                engine.psi_m_scan(report, i, b.chain.degree, probe_budget=budget)
        runs += 1
    # the explorations refine a node along 226 residual factors: 193 move
    # a depth-zero centre and 33 lift a key; a scan reads its branch and
    # makes neither
    assert runs == 144 and (len(moved), len(lifted)) == (193, 33)
    # every non-terminal moved child read g's reduction off its side
    assert len(sides) == 194
    for node, rbar, key in lifted:
        # the lift has grade w0 = deg(rbar) * e * gamma, and mu(key) is w0
        w0 = vmul(fpoly.deg(rbar) * node.e_rel, node.gamma)
        assert ref_evaluate(node, key) == w0
        assert node.evaluate(key) == w0


# (K, g): probes whose sides the explorations above never reach.  Over
# Qp(2), x^4 + 8x^3 + 32x^2 + 64x + 8240 is y^4 + 8y^2 + 2^13 at the
# moved centre -2 (y = x + 2): its side of slope -3/2 starts at k = 2, at
# e = 2.  x^2 + 12x + 84 is y^2 + 8y + 64 there: a side of three points.
SIDE_CASES = [("Qp(2)", "x^4+8*x^3+32*x^2+64*x+8240"), ("Qp(2)", "x^2+12*x+84")]


def test_side_reductions_on_ramified_and_long_sides(monkeypatch):
    seeded = []
    seed_side = InductiveValuation.seed_side

    def recording_seed_side(self, f, coeffs, side, value):
        seeded.append((self, f, list(side)))
        seed_side(self, f, coeffs, side, value)

    monkeypatch.setattr(InductiveValuation, "seed_side", recording_seed_side)
    for desc, src in SIDE_CASES:
        K = parse_field(desc)
        engine.mac_lane_chains(K, parse_poly(src, K))
    for node, g, _side in seeded:
        assert check_side(g, node)
    shapes = {(node.e_rel, tuple(side)) for node, _g, side in seeded}
    assert (2, (2, 4)) in shapes and (1, (0, 1, 2)) in shapes


# ---------------------------------------------------------------------------
# Euclid against a constant
# ---------------------------------------------------------------------------


def euclid(F, f, g):
    """The monic gcd by Euclid's algorithm, with no early exit."""
    while g:
        f, g = g, fpoly.divmod_(F, f, g)[1]
    return fpoly.monic(F, f)


GCD_FIELDS = [GFp(2), GFp(5), GFq(4), GFq(9)] + [parse_field(d) for d in (
    "Qp(3)", "Fq(3,t)", "FpPerf(2,t)", "FpPerf(3,t)")]


def gcd_element(F, n: int):
    """An element from an int: itself over a finite field, n/(n^2+1) over
    Qp, (n + t)/(1 + n*t) over B(t) and the perfect closure."""
    if not hasattr(F, "valuate"):
        return F.from_int(n)
    if F.kind == "Qp":
        return Q(n, n * n + 1)
    t = F.canonical_unit(Q(1))
    return F.div(F.add(F.from_int(n), t), F.add(F.one(), F.mul(F.from_int(n), t)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GCD_FIELDS), st.data())
def test_gcd_with_a_nonzero_constant_is_one_at_once(F, data):
    """gcd_(c, f) and gcd_(f, c) for a nonzero constant c equal Euclid's
    answer, 1, without a division; a zero or nonconstant argument still
    runs Euclid (gcd(0, f) is monic(f))."""
    ints = st.integers(-4, 4)
    f = fpoly.norm(F, [gcd_element(F, n) for n in data.draw(st.lists(ints, max_size=5))])
    c = gcd_element(F, data.draw(ints))
    if F.is_zero(c):
        c = F.one()
    divisions = []
    real_divmod = fpoly.divmod_

    def counting_divmod(*args):
        divisions.append(args)
        return real_divmod(*args)

    pairs = [((c,), f), (f, (c,))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpoly, "divmod_", counting_divmod)
        got = [fpoly.gcd_(F, a, b) for a, b in pairs]
    assert divisions == []
    for (a, b), h in zip(pairs, got):
        assert h == euclid(F, a, b) == (F.one(),)
    g = fpoly.norm(F, list(f) + [F.one()])  # monic, and nonconstant when f != ()
    if len(g) > 1:
        for a, b in [((), g), (g, ())]:
            assert fpoly.gcd_(F, a, b) == euclid(F, a, b) == g


# ---------------------------------------------------------------------------
# Flat draws over GF(p)
# ---------------------------------------------------------------------------


def recursive_draw(F: Field, rng: random.Random):
    """The draw before flattening: one recursive call per coordinate."""
    if isinstance(F, GFp):
        return rng.randrange(F.p)
    return fpoly.norm(F.base, [recursive_draw(F.base, rng) for _ in range(F.degree)])


@pytest.mark.parametrize("F", [
    GFq(2 ** 16), GFq(3 ** 16), GFq(4), GFq(101),
    # GF(16) as a tower GF(4)[y]/(y^2+y+z) over GF(4) = GF(2)[z]/(z^2+z+1)
    ExtField(GFq(4), ((0, 1), (1,), (1,))),
], ids=["GF(2^16)", "GF(3^16)", "GF(4)", "GF(101)", "GF(16) over GF(4)"])
def test_flat_draws_equal_the_recursive_draws(F):
    for seed in range(40):
        r1, r2 = random.Random(seed), random.Random(seed)
        assert [_random_elem(F, r1) for _ in range(5)] == [recursive_draw(F, r2) for _ in range(5)]
        assert r1.random() == r2.random()
