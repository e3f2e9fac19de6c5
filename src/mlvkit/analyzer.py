"""Tameness evidence, Kaehler-differential criteria, and stable values.

Everything here is per-extension evidence, never a certified global
property: tameness quantifies over all simple extensions, which no
finite computation can exhaust.  Reports carry explicit witnesses for
every negative verdict.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import fpoly
from .engine import (ExtensionReport, NoSequence, finite_complete_sequence,
                     induced_value, mac_lane_chains)
from .errors import (BadBound, BadFieldOrder, DenominatorVanishes,
                     GammaNotPositive, NotPurelyInertial, NotPurelyRamified,
                     ResidueUnsupported, ZeroInput)
from .ffield import GFq, _is_prime, _random_elem
from .fields import ValuedField
from .graded import frobenius_surjective
from .parsing import MAX_EXPONENT, _total_degree, eval_bivariate
from .poly import Poly
from .values import Q, Value, ValueGroup, is_inf, split_p, value_str


# ---------------------------------------------------------------------------
# Tame-extension conditions
# ---------------------------------------------------------------------------


class TEVerdict(NamedTuple):
    te1: bool
    te2: bool
    te3: bool
    suspected: bool  # qualifies the verdicts when the report is not settled


def te_conditions(report: ExtensionReport) -> TEVerdict:
    """TE1: p does not divide e; TE2: separable residue extension;
    TE3: defectless.  Verdicts carry a SUSPECTED qualifier unless the
    report is settled."""
    b = report.branches[0]
    suspected = not report.settled
    te1 = b.e % report.K.p != 0
    # residue fields of the four families are finite or simple transcendental;
    # all residual extensions computed by the engine are towers of finite
    # fields, hence separable
    te2 = True
    te3 = b.d == 1
    return TEVerdict(te1, te2, te3, suspected)


class TE1Witness(NamedTuple):
    g: Poly
    verified_index: int
    method: str


NOT_APPLICABLE = "NOT_APPLICABLE"


def te1_witness(K: ValuedField):
    """An extension x^p - a with ramification index exactly p, whenever the
    value group is not p-divisible; NOT_APPLICABLE otherwise."""
    ok, _ = K.value_group.p_divisible(K.p)
    if ok:
        return NOT_APPLICABLE
    a = K.canonical_unit(K.value_group.gen)
    coeffs = [K.neg(a)] + [K.zero()] * (K.p - 1) + [K.one()]
    g = Poly(K, coeffs)
    try:
        report = mac_lane_chains(K, g)
    except ResidueUnsupported:
        # the engine does not branch over this residue field, but the
        # ramification index is already visible on the polygon slope gen/p
        e = K.value_group.join([K.value_group.gen / K.p]).index_over(K.value_group)
        return TE1Witness(g, e, "newton_polygon")
    return TE1Witness(g, report.branches[0].e, "mac_lane_chains")


# ---------------------------------------------------------------------------
# Tame report
# ---------------------------------------------------------------------------


class TameReport(NamedTuple):
    gr_perfect: bool
    gr_witness: Optional[Tuple[str, object]]
    per_extension: List[dict]
    overall: str  # "TAME_EVIDENCE" | "NOT_TAME"
    witness: Optional[dict]


def tame_report(K: ValuedField, suite: Sequence[Poly]) -> TameReport:
    """Suite-relative tameness evidence: gr(K) perfect plus a finite
    complete sequence for every suite polynomial; an empty suite examines
    nothing, and is refused."""
    if not suite:
        raise ZeroInput("the suite has no polynomial: an empty suite is no evidence")
    verdict, gw = frobenius_surjective(K)
    gr_ok = verdict == "YES"
    per = []
    witness: Optional[dict] = None
    if not gr_ok:
        witness = {"kind": "GR_IMPERFECT", "witness": gw}
    for g in suite:
        try:
            report = mac_lane_chains(K, g)
        except ResidueUnsupported:
            # the engine cannot explore over this residue field; when gr(K)
            # already decides NOT_TAME the entry is recorded as unexplored
            if gr_ok:
                raise
            per.append({"g": g, "fcs": None, "fcs_reason": "RESIDUE_UNSUPPORTED",
                        "te1": None, "te2": None, "te3": None, "suspected": None})
            continue
        seq = finite_complete_sequence(report)
        te = te_conditions(report)
        has_fcs = not isinstance(seq, NoSequence)
        entry = {
            "g": g,
            "fcs": has_fcs,
            "fcs_reason": None if has_fcs else seq.reason,
            "te1": te.te1, "te2": te.te2, "te3": te.te3,
            "suspected": te.suspected,
        }
        per.append(entry)
        if not has_fcs and witness is None:
            witness = {"kind": "FCS_FAILURE", "g": g, "reason": seq.reason}
    overall = "TAME_EVIDENCE" if (gr_ok and witness is None) else "NOT_TAME"
    return TameReport(gr_ok, gw, per, overall, witness)


# ---------------------------------------------------------------------------
# Kaehler differentials for purely inertial / purely ramified extensions
# ---------------------------------------------------------------------------


class KahlerReport(NamedTuple):
    kind: str  # "PURELY_INERTIAL" | "PURELY_RAMIFIED" | "NEITHER"
    omega_trivial: Optional[bool]
    annihilator_value: Optional[Value]
    trace: Tuple[str, ...]


def kahler_purely_inertial(report: ExtensionReport) -> KahlerReport:
    """Omega = 0, annihilator 0: the residue extension, a finite-field tower,
    is separable.  v(g'(eta)) is the annihilator only when O_L = O_K[eta],
    which fails for x^2 - 25x + 50 over Qp(5) (v(g'(eta)) = 1)."""
    b = report.branches[0]
    if not (report.settled and b.f == report.n):
        raise NotPurelyInertial(f"f = {b.f} != n = {report.n}")
    trace = ("residue extension is a finite-field tower: separable, so Omega = 0",)
    return KahlerReport("PURELY_INERTIAL", True, 0, trace)


def kahler_purely_ramified(report: ExtensionReport) -> KahlerReport:
    """Rank-1 criterion with Delta = {0}.

    The criterion reads gamma = v(eta - c) and the coefficients a_l of
    g(x + c), whose root is eta - c, for the centre c of the chain's
    depth-zero stage (c = 0 when that stage is terminal, n = 1): a root
    that is a unit, such as that of (x - 1)^4 + t, is then translated to
    a small one.  Discrete vL: the positive part of vL/Delta has a
    minimal element, so Omega is nonzero with annihilator v(g'(eta)),
    which the translation does not change, when O_L = O_K[eta]: exactly
    when gamma is the generator of vL.  A larger gamma = a/n (a > 1) makes
    O_K[eta] a proper order (of index (a-1)(n-1)/2 with one polygon slope),
    and the annihilator is unknown short of Ore's index theorem.
    Non-discrete vL (a p-divisible hull): Omega vanishes iff some
    coefficient index l satisfies v(l) + v(a_l) - (n-l) gamma = 0.
    """
    K, b, n = report.K, report.branches[0], report.n
    if not (report.settled and b.e == n):
        raise NotPurelyRamified(f"e = {b.e} != n = {report.n}")
    base = b.chain.stages()[0]
    c = K.zero() if base.is_terminal() else base.center
    eta = "eta"
    if not K.is_zero(c):
        cs = K.elem_str(c)
        cs = f"({cs})" if " " in cs else cs
        eta = f"eta + {cs[1:]}" if cs.startswith("-") else f"eta - {cs}"
    # vL/vK is automatically cyclic for these rank-1 groups
    gamma = induced_value(report, 0, Poly(K, (K.neg(c), K.one())))
    if is_inf(gamma) or gamma <= 0:
        raise GammaNotPositive(f"v({eta}) = {value_str(gamma)} must be positive")
    vL = b.chain.value_group()
    trace = [f"vL = {vL}", f"gamma = v({eta}) = {value_str(gamma)}"]
    if vL.hull is None:
        trace.append("vL is discrete: (vL/Delta)_{>0} has a minimal element")
        if gamma != vL.gen:
            trace.append(f"gamma > {value_str(vL.gen)}: {eta} is not a uniformizer, "
                         "O_K[eta] is not O_L and the annihilator is unknown")
            return KahlerReport("PURELY_RAMIFIED", False, None, tuple(trace))
        val = induced_value(report, 0, report.g.derivative())
        return KahlerReport("PURELY_RAMIFIED", False, val, tuple(trace))
    coeffs = report.g.taylor_coeffs(c)
    for ell in range(1, n + 1):
        a_l = coeffs[ell]
        if K.is_zero(a_l):
            continue
        v_ell = K.valuate(K.from_int(ell))
        if is_inf(v_ell):
            continue  # l = 0 in K
        test = v_ell + K.valuate(a_l) - (n - ell) * gamma
        if test == 0:
            trace.append(f"l = {ell}: v(l) + v(a_l) - (n-l)gamma = 0 in Delta")
            return KahlerReport("PURELY_RAMIFIED", True, None, tuple(trace))
    trace.append("no index l with v(l) + v(a_l) - (n-l)gamma in Delta")
    return KahlerReport("PURELY_RAMIFIED", False, None, tuple(trace))


def classify_kahler(report: ExtensionReport) -> KahlerReport:
    b = report.branches[0]
    if report.settled:
        if b.f == report.n:
            return kahler_purely_inertial(report)
        if b.e == report.n:
            return kahler_purely_ramified(report)
    return KahlerReport("NEITHER", None, None, ())


# ---------------------------------------------------------------------------
# (DRvg)
# ---------------------------------------------------------------------------


class DrvgResult(NamedTuple):
    verdict: str  # "HOLDS" | "HOLDS_BY_P_DIVISIBILITY" | "FAILS"
    witness: Optional[Tuple[str, str]] = None


def drvg_check(G: ValueGroup, p: int) -> DrvgResult:
    """In rank 1 the convex subgroups are {0} and G, so (DRvg) holds iff
    G is not isomorphic to Z, i.e. not finitely generated."""
    if G.hull is None:
        return DrvgResult("FAILS", ("{0}", str(G)))
    if G.hull == p:
        return DrvgResult("HOLDS_BY_P_DIVISIBILITY")
    return DrvgResult("HOLDS")


# ---------------------------------------------------------------------------
# Appendix stable-value algorithm
# ---------------------------------------------------------------------------
#
# The appendix works with a power series s = sum c_i t^i whose coefficients
# are algebraically independent; finite truncations s_(0l) stabilize the
# value and initial form of any rational expression f(t, s).  Independence
# is modeled by uniform sampling from a large finite field; the failure
# probability is Schwartz-Zippel bounded by (total degree)/q.


class StableValueResult(NamedTuple):
    stable_value: int
    stable_initial_coeff: object
    coeff_str: str
    l0: int
    seed: int
    failure_bound: Fraction  # Schwartz-Zippel style bound


NOT_STABILIZED = "NOT_STABILIZED"
_RETRIES = 5  # fresh samples after the denominator vanishes at some l


def stable_value(p: int, expr, q: Optional[int] = None, l_start: int = 1,
                 l_max: int = 12, seed: int = 0):
    """t-adic value and initial coefficient of f(t, s_(0l)) for growing l.

    ``expr`` is a syntax tree from ``parsing.parse_expression`` in T, S and
    the c_i; the c_i are sampled uniformly from the nonzero elements of
    GF(q), q >= p^16 by default.  Returns the first l0 from which value
    and coefficient stay constant for three consecutive l.

    Row l needs only the low terms of num(T, s_(0l)) and den(T, s_(0l)),
    so each is computed as a power series truncated to the digits that term
    needs (see ``_low_term``).  A row is the pair of low coefficients; rows
    are compared by cross-multiplying, and only the answer is divided.
    ``l_max`` is at most MAX_EXPONENT.
    """
    if l_start < 0 or l_max < l_start:
        raise BadBound(f"need 0 <= l_start <= l_max, got l_start = {l_start}, l_max = {l_max}")
    if l_max > MAX_EXPONENT:
        raise BadBound(f"l_max = {l_max} exceeds {MAX_EXPONENT}")
    if q is None:
        q = p ** 16
    F = _sample_field(p, q)
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
            rows = _rows(F, num, den, cs, l_start, l_max)
        except DenominatorVanishes:
            if attempt < _RETRIES:
                continue
            raise
        bound = Q(max(_total_degree(num), _total_degree(den), 1), q)
        # the stable point is the start of the constant suffix, which must
        # hold for at least three consecutive l
        _, val, n, d = last = rows[-1]
        if val is None:
            return NOT_STABILIZED
        i = len(rows) - 1
        while i > 0 and rows[i - 1][1] == val and _same_ratio(F, rows[i - 1], last):
            i -= 1
        if len(rows) - i >= 3:
            coeff = F.div(n, d)
            return StableValueResult(val, coeff, F.elem_str(coeff), rows[i][0], seed, bound)
        return NOT_STABILIZED


def _rows(F, num, den, cs, l_start: int, l_max: int) -> list:
    """(l, value, n, d) for l = l_start..l_max: the low terms n*T^kn of
    num(T, s_(0l)) and d*T^kd of den(T, s_(0l)), with value kn - kd, or
    (l, None, None, d) when the numerator vanishes at l.

    Each polynomial keeps its digit count R from row to row: the next row
    usually needs as many digits as the last one."""
    num_terms, den_terms = _shifted(F, num), _shifted(F, den)
    rn = rd = 1
    rows = []
    for ell in range(l_start, l_max + 1):
        u = tuple(cs[1:ell + 1])  # s_(0l) = T*u
        kd, d, rd = _low_term(F, den_terms, u, ell, rd)
        if d is None:
            raise DenominatorVanishes(f"denominator vanishes at l = {ell}")
        kn, n, rn = _low_term(F, num_terms, u, ell, rn)
        rows.append((ell, None if n is None else kn - kd, n, d))
    return rows


def _same_ratio(F, row, other) -> bool:
    """n/d == n'/d' for two rows whose numerators are nonzero."""
    _, _, n, d = row
    _, _, n2, d2 = other
    return (F.eq(n, n2) and F.eq(d, d2)) or F.eq(F.mul(n, d2), F.mul(n2, d))


def _shifted(F, f):
    """(m, [(j, h_j)]) with f(T, T*u) = T^m * sum_j h_j(T) u^j, where
    h_j = a_j T^(j - m) for the nonzero coefficients a_j of f in S and
    m = min_j (v_T(a_j) + j), the largest m that serves every u."""
    m = min(fpoly.low_deg(F, a) + j for j, a in enumerate(f) if a)
    zero = F.zero()
    return m, [(j, (zero,) * (j - m) + a if j >= m else a[m - j:])
               for j, a in enumerate(f) if a]


def _low_term(F, terms, u, ell: int, R: int):
    """(k, c, R) with c*T^k the low term of f(T, T*u), for ``terms`` =
    _shifted(F, f) and u of length ell; (None, None, R) when it is zero.

    The sum of the h_j u^j is computed mod T^R, so its lowest nonzero digit
    is exact.  R is doubled while cancellation leaves no nonzero digit; the
    sum is certainly zero once m + R exceeds max_j (deg a_j + j*l), the
    degree bound of f(T, s_(0l))."""
    m, hs = terms
    top = m + max(len(h) - 1 + j * (ell - 1) for j, h in hs)
    while True:
        g = _horner(F, hs, u, R)
        if g:
            k = fpoly.low_deg(F, g)
            return m + k, g[k], R
        if m + R > top:
            return None, None, R
        R = min(2 * R, top - m + 1)


def _horner(F, hs, u, R: int):
    """sum_j h_j u^j mod T^R by Horner's rule over the nonzero h_j from the
    highest j; a gap of k exponents between them costs one power u^k."""
    u = u[:R]
    j0, acc = hs[-1]
    acc = fpoly.norm(F, acc[:R])
    for j, h in reversed(hs[:-1]):
        acc = fpoly.add(F, _mul_mod(F, acc, _pow_mod(F, u, j0 - j, R), R), h[:R])
        j0 = j
    if j0:
        acc = _mul_mod(F, acc, _pow_mod(F, u, j0, R), R)
    return acc


def _mul_mod(F, f, g, R: int):
    """f*g mod T^R."""
    return fpoly.norm(F, fpoly.mul(F, f, g)[:R])


def _pow_mod(F, u, k: int, R: int):
    """u^k mod T^R for k >= 1, by square-and-multiply; a slice truncates
    each product, where fpoly.powmod would divide by T^R."""
    return fpoly.square_and_multiply(partial(_mul_mod, F, R=R), u, k)


def _sample_field(p: int, q: int):
    if not _is_prime(p):
        raise BadFieldOrder(f"p = {p} is not prime")
    # q = 1 = p^0 is no field order, and split_p(0, p) would never return
    if q <= 1 or split_p(q, p)[1] != 1:
        raise BadFieldOrder(f"q = {q} is not a power of p = {p}")
    # q = p^m with the deterministic modulus
    return GFq(q, "w")
