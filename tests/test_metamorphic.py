"""Metamorphic relations inside one field (ROADMAP item 4(c)).

They move the depth-zero centres, where no oracle exists.

* Translation: g(x + a) generates the same extensions as g, so the
  multiset of (e, f, d) over the branches is the same.  The trajectories
  may differ in length: the probes start from another centre.
* Frobenius over the perfect closure: a -> a^p is an automorphism of
  FpPerf(p,t) that multiplies every value by p.  Applied to the
  coefficients of g it keeps every branch in order, with its e, f, d,
  stop reason and trajectory length, and multiplies every chain and
  trajectory gamma by p.

Translations over FpPerf use sparse centres only: a dense one such as
1/(1+t) reaches the dense-element cliff of ROADMAP item 13(e) at the
default budget (x^5+x+t moved by 1/(1+t) runs for more than 15 s).
"""

from collections import Counter

import pytest

from corpus import FPPERF2, FPPERF3, FQ3T, QP2, QP3
from mlvkit import fpoly
from mlvkit.engine import mac_lane_chains
from mlvkit.parsing import parse_field, parse_poly
from mlvkit.poly import Poly
from mlvkit.values import INFINITY

TRANSLATIONS = {
    "Qp(2)": (QP2, ["1/3", "5", "-1/2", "3/4"]),
    "Qp(3)": (QP3, ["1/5", "5", "1/3", "-2"]),
    "Fq(3,t)": (FQ3T, ["1/(1+t)", "1/t", "t", "1+t^2"]),
    "FpPerf(2,t)": (FPPERF2, ["t^(1/2)", "1/t", "1+t^(3/4)", "t^(1/4)+t^3"]),
}


def efd(K, g):
    return Counter((b.e, b.f, b.d) for b in mac_lane_chains(K, g).branches)


@pytest.mark.parametrize("desc", list(TRANSLATIONS))
def test_translation_keeps_the_branch_invariants(desc):
    K = parse_field(desc)
    polys, shifts = TRANSLATIONS[desc]
    centres = [parse_poly(a, K)[0] for a in shifts]
    for s in polys:
        g = parse_poly(s, K)
        want = efd(K, g)
        for a in centres:
            # taylor_shift gives the coefficients of g in powers of x - a,
            # which are those of g(x + a) in powers of x
            moved = Poly(K, fpoly.taylor_shift(K, g.coeffs, a))
            assert efd(K, moved) == want, (s, K.elem_str(a))


def branch_data(report, scale):
    return [(b.e, b.f, b.d, b.d_lower, b.stop, len(b.trajectory),
             [st.gamma if st.gamma is INFINITY else st.gamma * scale
              for st in b.chain.stages()],
             [entry["gamma"] * scale for entry in b.trajectory])
            for b in report.branches]


@pytest.mark.parametrize("desc,polys", [("FpPerf(2,t)", FPPERF2), ("FpPerf(3,t)", FPPERF3)])
@pytest.mark.parametrize("budget", [3, 8])
def test_frobenius_scales_every_gamma_by_p(desc, polys, budget):
    K = parse_field(desc)
    p = K.p
    for s in polys:
        g = parse_poly(s, K)
        frob = Poly(K, [K.pow(c, p) for c in g.coeffs])
        want = branch_data(mac_lane_chains(K, g, max_limit_probes=budget), p)
        assert branch_data(mac_lane_chains(K, frob, max_limit_probes=budget), 1) == want, s
