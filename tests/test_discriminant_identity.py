"""v(disc g) = sum over branches of e*f*d*nu_b(g') on every corpus report.

For monic g, disc g = +-Res(g, g'), and Res(g, g') is the product of
g'(theta) over the roots theta of g.  The roots that a branch b of the
report accounts for are e*f*d of them, each with v(g'(theta)) = nu_b(g'),
so the identity needs no roots and checks the engine over every field
family.  v(Res) is computed here by the Euclidean recursion over K,
independently of the engine.
"""

from corpus import corpus
from mlvkit.engine import UNSTABLE, induced_value, mac_lane_chains


def v_resultant(a, b):
    """v(Res(a, b)) for nonzero a and b, or None when Res(a, b) = 0.

    v(Res(a, b)) = (deg a - deg r)*v(lc b) + v(Res(b, r)) with r = a mod b,
    and v(Res(a, c)) = deg a * v(c) for a constant c.
    """
    K = a.field
    total = 0
    while b.degree > 0:
        r = a.mod(b)
        if r.is_zero():
            return None
        total += (a.degree - r.degree) * K.valuate(b[b.degree])
        a, b = b, r
    return total + a.degree * K.valuate(b[0])


def identity_case(K, g):
    """(lhs, rhs) of the identity, or (None, reason) when it does not apply."""
    dg = g.derivative()
    if dg.is_zero():
        return None, "g' = 0"
    lhs = v_resultant(g, dg)
    if lhs is None:
        return None, "Res(g, g') = 0"
    report = mac_lane_chains(K, g)
    rhs = 0
    for i, b in enumerate(report.branches):
        if b.d is None:
            return None, f"branch {i} has an unknown d"
        nu = induced_value(report, i, dg)
        if nu is UNSTABLE:
            return None, f"nu_{i}(g') is UNSTABLE"
        rhs += b.e * b.f * b.d * nu
    return lhs, rhs


def test_discriminant_identity_on_the_corpus():
    checked, skipped, mismatches = 0, [], []
    for K, polys in corpus():
        for g in polys:
            lhs, rhs = identity_case(K, g)
            if lhs is None:
                skipped.append((K.descriptor_str(), g.to_str(), rhs))
            elif lhs != rhs:
                mismatches.append((K.descriptor_str(), g.to_str(), lhs, rhs))
            else:
                checked += 1
    assert mismatches == []
    assert checked >= 131, skipped
