"""Reference rows for the appendix stable-value algorithm.

``reference_stable_value`` substitutes s_(0l) into the numerator and the
denominator by Horner's rule over F[T] on full-degree polynomials in T, and
divides the low coefficients of every row.  It is the plain form of
``analyzer.stable_value``, which keeps only the low term of each row; the two
must agree exactly, on results and on exceptions.
"""

from __future__ import annotations

import random

from mlvkit import fpoly
from mlvkit.analyzer import (_RETRIES, NOT_STABILIZED, StableValueResult,
                             _sample_field)
from mlvkit.errors import BadBound, DenominatorVanishes, ZeroInput
from mlvkit.ffield import _random_elem
from mlvkit.parsing import _total_degree, eval_bivariate
from mlvkit.values import Q


def reference_stable_value(p, expr, q=None, l_start=1, l_max=12, seed=0):
    if l_start < 0 or l_max < l_start:
        raise BadBound(f"need 0 <= l_start <= l_max, got l_start = {l_start}, l_max = {l_max}")
    if q is None:
        q = p ** 16
    F = _sample_field(p, q)
    R = fpoly.PolyRing(F)
    for attempt in range(_RETRIES + 1):
        rng = random.Random((seed, attempt).__hash__() & 0x7FFFFFFF)
        cs = []
        while len(cs) <= l_max:
            c = _random_elem(F, rng)
            if not F.is_zero(c):
                cs.append(c)
        num, den = eval_bivariate(expr, F, cs)
        if not num:
            raise ZeroInput("expression is identically zero")
        try:
            rows = []
            for ell in range(l_start, l_max + 1):
                s_poly = fpoly.norm(F, [F.zero()] + cs[1:ell + 1])
                # S -> s_(0l) by Horner's rule over F[T]
                nt = fpoly.evaluate(R, num, s_poly)
                dt = fpoly.evaluate(R, den, s_poly)
                if fpoly.is_zero(dt):
                    raise DenominatorVanishes(f"denominator vanishes at l = {ell}")
                if fpoly.is_zero(nt):
                    rows.append((ell, None, None))
                    continue
                kn, kd = fpoly.low_deg(F, nt), fpoly.low_deg(F, dt)
                rows.append((ell, kn - kd, F.div(nt[kn], dt[kd])))
        except DenominatorVanishes:
            if attempt < _RETRIES:
                continue
            raise
        bound = Q(max(_total_degree(num), _total_degree(den), 1), q)
        last = rows[-1]
        if last[1] is None:
            return NOT_STABILIZED
        i = len(rows) - 1
        while i > 0 and rows[i - 1][1] == last[1] and rows[i - 1][2] is not None \
                and F.eq(rows[i - 1][2], last[2]):
            i -= 1
        if len(rows) - i >= 3:
            return StableValueResult(last[1], last[2], F.elem_str(last[2]),
                                     rows[i][0], seed, bound)
        return NOT_STABILIZED
