"""Keys of a stage's own degree.

A monic f of degree m = deg(mu), for mu = [rho; phi, gamma], is phi + a
with deg a < m, so mu(f) = min(mu(a), gamma), and f is a key of mu
exactly when mu(f) = gamma, that is when mu(a) >= gamma.  ``is_key``
and ``augment`` both read that rule; the new stage [rho; f, gamma'] then
keeps mu's residual data.  Here
the rule is compared with MacLane's criterion, read off the graded
reduction of f, on the stages of the corpus chains, and every same-degree
refinement of a corpus exploration is compared with the residual of its
key certified over the previous stage.
"""

import math
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from corpus import corpus
from mlvkit import fpoly
from mlvkit.engine import mac_lane_chains
from mlvkit.errors import NotAKeyPolynomial
from mlvkit.indval import InductiveValuation
from mlvkit.poly import Poly
from test_fast_paths import ALL_CHAIN_INPUTS, chain_stages, draw_poly


def tail(K, stage, a0, relation: str, j: int):
    """c*a0 for a power c of the canonical unit with mu(c*a0) below, at or
    above gamma (j more steps of vK away from it); None when gamma - mu(a0)
    is not in vK, so that no such c reaches gamma."""
    gap = Q(stage.gamma - stage(a0))
    if relation == "at":
        if not K.value_group.contains(gap):
            return None
        w = gap
    else:
        gen = K.value_group.gen
        t = gap / gen
        k = math.ceil(t) - 1 - j if relation == "below" else math.floor(t) + 1 + j
        w = k * gen
    w = w.numerator if w.denominator == 1 else w
    return a0 * Poly.const(K, K.canonical_unit(w))


@pytest.mark.parametrize("desc", list(ALL_CHAIN_INPUTS))
@pytest.mark.parametrize("depth_zero", [True, False], ids=["depth0", "deeper"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_key_of_the_stage_degree_is_one_of_value_gamma(desc, depth_zero, data):
    K, stages = chain_stages(desc, depth_zero)
    stage = data.draw(st.sampled_from(stages))
    a0 = draw_poly(data, K, 1, stage.degree)
    assume(not a0.is_zero())
    relation = data.draw(st.sampled_from(["below", "at", "above"]))
    a = tail(K, stage, a0, relation, data.draw(st.integers(0, 2)))
    assume(a is not None)
    f = stage.phi + a
    va = stage(a)
    assert (va < stage.gamma, va == stage.gamma, va > stage.gamma) == \
        tuple(relation == r for r in ("below", "at", "above"))
    assert stage(f) == min(va, stage.gamma)
    # a key of degree m has the initial form of phi, or passes MacLane's
    # criterion: minimal expansion shape and a residual polynomial of
    # degree one, hence irreducible
    gr = stage.graded_reduction(f)
    key = gr == stage.graded_reduction(stage.phi) or (
        gr.i0 == 0 and stage.e_rel * fpoly.deg(gr.H) == 1
        and not stage.kappa.is_zero(gr.H[0]))
    assert key == (relation != "below")
    assert stage.is_key(f) is key
    new_gamma = stage(f) + data.draw(st.sampled_from([Q(1), Q(1, 3)]))
    if not key:
        with pytest.raises(NotAKeyPolynomial):
            stage.augment(f, new_gamma)
        return
    nu = stage.augment(f, new_gamma)
    # the new stage lies above mu: nu(phi) = min(nu(f), mu(a)) >= gamma
    assert nu(f) == new_gamma and nu(a0) == stage(a0)
    assert nu(stage.phi) >= stage.gamma
    if stage.prev is None:
        assert nu.prev is None and nu.center == K.neg(f[0])
    else:
        assert nu.prev is stage.prev and nu.kappa is stage.kappa
        assert nu.rbar == stage.rbar and nu.zgen == stage.zgen


def test_same_degree_refinements_keep_the_certified_residual(monkeypatch):
    augment = InductiveValuation.augment
    seen = []

    def recorded(self, phi, gamma, **kw):
        out = augment(self, phi, gamma, **kw)
        if self.prev is not None and phi.degree == self.m:
            seen.append((self, phi, out))
        return out

    monkeypatch.setattr(InductiveValuation, "augment", recorded)
    for K, polys in corpus():
        for g in polys:
            mac_lane_chains(K, g)
    assert seen and any(mu.fdeg > 1 for mu, _, _ in seen)
    for mu, phi, nu in seen:
        rho = mu.prev
        assert nu.prev is rho and nu.kappa is mu.kappa
        assert nu.rbar == rho._certify_key(phi)
