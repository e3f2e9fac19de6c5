"""The epsilon test of key polynomials (Novacoski-Spivakovsky, J. Algebra
495, 2018), a second definition of a key, independent of the MacLane
criterion by which mlvkit certifies its keys.

For the valuation nu of a terminated branch,

    eps(f) = max_b (nu(f) - nu(d_b f)) / b,

over the b >= 1 with d_b f != 0, where d_b is the b-th Hasse derivative
(``poly.hasse_derivative``) and nu is read by ``engine.induced_value``.
A key polynomial Q has eps(f) < eps(Q) for every f of lower degree, and
eps strictly increases along a complete sequence of keys.  Both are
checked on every finite complete sequence of the corpus, the second on
seeded samples: random polynomials of each lower degree, the earlier
keys and their products, and the truncations of Q.  A disagreement is a
bug in the engine, not in this test.
"""

import random
from fractions import Fraction as Q

from corpus import corpus
from mlvkit.engine import NoSequence, finite_complete_sequence, induced_value, mac_lane_chains
from mlvkit.poly import Poly, hasse_derivative
from mlvkit.values import INFINITY


def epsilon(report, f: Poly):
    """eps(f) along the report's one branch; INFINITY when nu(f) is."""
    nu_f = induced_value(report, 0, f)
    if nu_f is INFINITY:
        return INFINITY
    out = None
    for b in range(1, f.degree + 1):
        d = hasse_derivative(f, b)
        if d.is_zero():
            continue
        e = Q(nu_f - induced_value(report, 0, d), b)
        if out is None or e > out:
            out = e
    return out


def sequences():
    """(K, report, keys) for every corpus polynomial with a finite
    complete sequence."""
    out = []
    for K, polys in corpus():
        for g in polys:
            report = mac_lane_chains(K, g)
            keys = finite_complete_sequence(report)
            if not isinstance(keys, NoSequence):
                out.append((K, report, keys))
    return out


def random_coeff(K, rng: random.Random):
    """n * U(w) for n in [-3, 3] and w in [-2, 3], with denominators up to
    p^2 over the perfect closure."""
    den = K.p ** rng.randrange(3) if K.kind == "FpPerf" else 1
    w = Q(rng.randrange(-2 * den, 3 * den + 1), den)
    return K.mul(K.from_int(rng.randrange(-3, 4)), K.canonical_unit(w))


def samples(K, keys, Qk: Poly, rng: random.Random):
    """Nonzero f with 1 <= deg f < deg Qk: five random ones of each
    degree, the earlier keys and their products, and the truncations of
    Qk below its degree."""
    n = Qk.degree
    out = []
    for d in range(1, n):
        for _ in range(5):
            lead = random_coeff(K, rng)
            cc = [random_coeff(K, rng) for _ in range(d)] + [K.one()]
            out.append(Poly(K, cc).scale(K.one() if K.is_zero(lead) else lead))
    earlier = [P for P in keys if P.degree < n]
    out += earlier
    out += [P * R for P in earlier for R in earlier if (P * R).degree < n]
    out += [Poly(K, Qk.coeffs[:d + 1]) for d in range(1, n)]
    return [f for f in out if 1 <= f.degree < n]


def test_epsilon_increases_along_every_complete_sequence():
    seqs = sequences()
    assert len(seqs) == 110
    for K, report, keys in seqs:
        eps = [epsilon(report, P) for P in keys]
        assert all(a < b for a, b in zip(eps, eps[1:])), (K, report.g.to_str(), eps)
        # the last key is g, of infinite value
        assert eps[-1] is INFINITY


def test_lower_degrees_have_lower_epsilon():
    rng = random.Random(4)
    checked = 0
    for K, report, keys in sequences():
        for Qk in keys:
            eps_q = epsilon(report, Qk)
            for f in samples(K, keys, Qk, rng):
                assert epsilon(report, f) < eps_q, (K, report.g.to_str(), Qk.to_str(), f.to_str())
                checked += 1
    assert checked == 1147
