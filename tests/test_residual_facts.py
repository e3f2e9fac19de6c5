"""Each residual fact is proved once, and the shortcuts agree with the
general algorithms they stand in for.

At a separated node the engine's step has already factored the residual
polynomial H of g as [(monic(H), 1)], so its key test of g makes only
the minimality checks and the terminal augmentation takes monic(H) as
its residual; it is the public ``is_key`` handed the step's graded
reduction, and here it is compared with ``is_key`` on its own, whose
Ben-Or test is the reference.  ``squarefree_decomposition`` returns a
squarefree input at once, and ``PerfElem``, a NamedTuple, compares and
hashes by its canonical form.
"""

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from mlvkit import ffield, fpoly, indval
from mlvkit.engine import _State, _step, mac_lane_chains
from mlvkit.ffield import GFp, GFq, is_irreducible, squarefree_decomposition
from mlvkit.fields import FpPerfField
from mlvkit.indval import InductiveValuation
from mlvkit.parsing import parse_field, parse_poly
from mlvkit.poly import Poly

RESIDUE_FIELDS = {2: GFp(2), 3: GFp(3), 4: GFq(4), 9: GFq(9)}
VALUED = {q: parse_field(f"Fq({q},t)") for q in RESIDUE_FIELDS}


def element(F, n: int):
    """The element of GF(q) whose coefficient of gen^i is base-p digit i
    of n mod q (n mod p over GF(p))."""
    if isinstance(F, GFp):
        return F.from_int(n)
    n %= F.order
    acc, power = F.zero(), F.one()
    for _ in range(F.degree):
        n, d = divmod(n, F.char)
        acc = F.add(acc, F.mul(F.from_int(d), power))
        power = F.mul(power, F.gen())
    return acc


@st.composite
def monic_polys(draw, F, lo=1, hi=4):
    d = draw(st.integers(lo, hi))
    cc = [element(F, draw(st.integers(0, F.order - 1))) for _ in range(d)]
    return tuple(cc) + (F.one(),)


@st.composite
def residual_polys(draw, F):
    """A monic H of degree >= 1 over F: random, divisible by y, with a
    repeated factor, or a product of two factors (often reducible and
    squarefree)."""
    kind = draw(st.sampled_from(["random", "y_divides", "repeated", "product"]))
    h = draw(monic_polys(F))
    if kind == "y_divides":
        return fpoly.mul(F, h, fpoly.x(F))
    if kind == "repeated":
        return fpoly.mul(F, h, h)
    if kind == "product":
        return fpoly.mul(F, h, draw(monic_polys(F, 1, 3)))
    return h


def candidate(K, H, e: int, shape: str) -> Poly:
    """A monic f whose graded reduction at w_(0, 1/e) on Fq(q,t) is H: the
    coefficient of x^(e*j) is lift(h_j) * t^(deg H - j), so every term has
    grade deg H.  ``times_x`` multiplies by x (i0 = 1 when e = 2) and
    ``tail`` adds x^(e*deg H + e), whose grade is higher (deg H is then
    short of deg f / e); both fail only the minimality checks."""
    d = fpoly.deg(H)
    cc = [K.zero()] * (e * d + 1)
    for j, h in enumerate(H):
        cc[e * j] = K.mul(K.lift(h), K.canonical_unit(Q(d - j)))
    if shape == "times_x":
        cc = [K.zero()] + cc
    elif shape == "tail":
        cc += [K.zero()] * (e - 1) + [K.one()]
    return Poly(K, cc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(RESIDUE_FIELDS)).flatmap(lambda q: st.tuples(
    st.just(q), residual_polys(RESIDUE_FIELDS[q]),
    st.sampled_from([(1, "plain"), (2, "plain"), (2, "times_x"), (2, "tail")]))))
def test_the_step_key_test_agrees_with_ben_or(case):
    q, H, (e, shape) = case
    K = VALUED[q]
    node = InductiveValuation.depth_zero(K, K.zero(), Q(1, e))
    f = candidate(K, H, e, shape)
    gr = node.graded_reduction(f)
    assert fpoly.monic(node.kappa, gr.H) == H and (gr.i0 == 1) == (shape == "times_x")
    children = _step(f, _State.at(node, node.evaluate(f)), {})
    # a terminal child whose key is a proper factor of f (the key x^2 + t
    # of x^3 + t*x) is not f becoming a key
    terminal = [c.node for c in children if c.node.is_terminal() and c.node.phi == f]
    # is_key certifies H irreducible by the Ben-Or test
    assert bool(terminal) == node.is_key(f)
    if terminal:
        assert len(children) == 1
        if terminal[0].depth:
            assert terminal[0].rbar == node._certify_key(f) == H


def test_separated_keys_make_no_irreducibility_test(monkeypatch):
    calls = []

    def counted(F, f):
        calls.append(f)
        return is_irreducible(F, f)

    for module in (ffield, indval):
        monkeypatch.setattr(module, "is_irreducible", counted)
    K = parse_field("Qp(3)")
    report = mac_lane_chains(K, parse_poly("x^2+1", K))
    b = report.branches[0]
    assert report.settled and (b.e, b.f, b.d) == (1, 2, 1)
    # the terminal stage carries monic(H) for g's residual polynomial H
    kappa, H = b.chain.prev.residual_polynomial(report.g)
    assert b.chain.rbar == fpoly.monic(kappa, H) and is_irreducible(kappa, H)
    assert calls == []
    # x^3 + 2x + 2 = (x - 1)^2 (x - 3) mod 5: a ramified and an unramified
    # branch, each separated
    K = parse_field("Qp(5)")
    report = mac_lane_chains(K, parse_poly("x^3+2*x+2", K))
    assert sorted((b.e, b.f, b.d) for b in report.branches) == [(1, 1, 1), (2, 1, 1)]
    assert calls == []
    # the reference still runs Ben-Or, through the patched function
    K = parse_field("Qp(3)")
    node = InductiveValuation.depth_zero(K, K.zero(), 0)
    assert node.is_key(parse_poly("x^2+1", K)) and len(calls) == 1


def test_the_engine_key_test_is_the_public_is_key(monkeypatch):
    """mac_lane_chains tests g through InductiveValuation.is_key, handing
    it the step's graded reduction, so a wrapper of the public method
    sees every key test of an exploration."""
    calls = []
    is_key = InductiveValuation.is_key

    def counted(self, f, **kwargs):
        calls.append(kwargs)
        return is_key(self, f, **kwargs)

    monkeypatch.setattr(InductiveValuation, "is_key", counted)
    K = parse_field("Qp(2)")
    report = mac_lane_chains(K, parse_poly("x^2-2", K))
    assert report.settled and len(calls) >= 1
    assert all("_gr" in kwargs for kwargs in calls)


@st.composite
def factored_products(draw, F):
    """(f, {multiplicity: product of the distinct monic irreducibles with
    that multiplicity}); multiplicities up to 2p + 1 include p-th powers."""
    p = F.char
    factors = {}
    for _ in range(draw(st.integers(1, 4))):
        u = draw(monic_polys(F, 1, 3))
        if is_irreducible(F, u):
            factors[u] = draw(st.sampled_from([1, 2, p, p + 1, 2 * p, 2 * p + 1]))
    f, expected = (F.one(),), {}
    for u, m in factors.items():
        f = fpoly.mul(F, f, fpoly.pow_(F, u, m))
        expected[m] = fpoly.mul(F, expected.get(m, (F.one(),)), u)
    return f, expected


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(RESIDUE_FIELDS)).flatmap(
    lambda q: st.tuples(st.just(q), factored_products(RESIDUE_FIELDS[q]))))
def test_squarefree_decomposition_reconstructs_f(case):
    q, (f, expected) = case
    F = RESIDUE_FIELDS[q]
    out = squarefree_decomposition(F, f)
    assert {m: g for g, m in out} == expected and len(out) == len(expected)
    acc = (F.one(),)
    for g, m in out:
        assert fpoly.deg(fpoly.gcd_(F, g, fpoly.deriv(F, g))) == 0
        acc = fpoly.mul(F, acc, fpoly.pow_(F, g, m))
    assert acc == f


@st.composite
def perf_elements(draw, K):
    """A sum of terms c * t^(n/p^k) at levels up to 3, sparse, or dense
    after dividing by 1 + t^(1/p^k)."""
    p = K.p
    acc = K.zero()
    for _ in range(draw(st.integers(0, 3))):
        w = Q(draw(st.integers(-6, 6)), p ** draw(st.integers(0, 3)))
        acc = K.add(acc, K.mul(K.from_int(draw(st.integers(1, p - 1))), K.canonical_unit(w)))
    if draw(st.booleans()):
        acc = K.div(acc, K.add(K.one(), K.canonical_unit(Q(1, p ** draw(st.integers(0, 3))))))
    return acc


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda p: st.tuples(
    st.just(p), perf_elements(FpPerfField(p)), perf_elements(FpPerfField(p)))))
def test_perf_elements_compare_and_hash_by_canonical_form(case):
    p, a, b = case
    K = FpPerfField(p)
    u = K.add(b, K.one())
    # the value of a reached by other routes, through b's levels and form
    routes = [K.sub(K.add(a, b), b)]
    if not K.is_zero(u):
        routes.append(K.div(K.mul(a, u), u))
    for other in routes:
        assert other == a and hash(other) == hash(a) and len({a, other}) == 1
        assert K.pth_root(other) == K.pth_root(a)
        assert hash(K.pth_root(other)) == hash(K.pth_root(a))
    assert (a == b) == K.is_zero(K.sub(a, b)) == (K.elem_str(a) == K.elem_str(b))
